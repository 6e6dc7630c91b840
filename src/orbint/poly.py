"""Sparse multivariate polynomials, Groebner bases, and ideal tools.

A MultiPoly maps exponent tuples to nonzero scalars of a fixed Field over an
ordered tuple of variable names.  `Ideal.groebner` is the one path to a
reduced Groebner basis.  It goes through one bounded memo for the whole
process, keyed on (field, variables, order, installed budget, generator
tuple), so a hit returns exactly what a fresh `buchberger` run on that input
under that budget would return, and a smaller budget still raises where a
fresh run would.  `Ideal.rescaled` seeds it too: the image of an ideal under
a diagonal substitution u_i -> w_i u_i gets the ideal's basis with its terms
rescaled, made monic, which is what a fresh run on the image's generators
returns, since that run takes the same steps; the seeded entry is stored only
after the source's basis was read under the same budget, so the contract
holds for it too.  The memo keeps the `_GB_MEMO_SIZE` most recently used
bases, stores no exceptions, and updates under one lock, so distinct Ideal
values can be used concurrently.

The Buchberger loop uses the normal pair-selection strategy and the standard
update criteria (coprime leading terms, chain criterion).  All loops check a
Budget and raise EffortExceeded instead of running away.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from fractions import Fraction

from .arith import (CycElem, Field, UniPoly, factor_univariate,
                    squarefree_decomposition)
from . import budgets
from .budgets import Budget
from .errors import EffortExceeded, NotZeroDimensional, UnitIdeal

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

class TermOrder:
    """Total order on monomials compatible with multiplication.

    kind is one of "grevlex", "lex", "block"; a block order eliminates the
    first `split` variables (graded-reverse-lex inside each block).
    """

    def __init__(self, kind: str = "grevlex", split: int = 0):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown term order {kind!r}")
        self.kind = kind
        self.split = split
        self.key = _KeyCache(self._key).__getitem__

    def _key(self, m: Monomial):
        """Sort key; larger key means larger monomial.  Read it through
        `key`, which computes each monomial's key once per order."""
        if self.kind == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        if self.kind == "lex":
            return m
        left, right = m[:self.split], m[self.split:]
        return ((sum(left), tuple(-e for e in reversed(left))),
                (sum(right), tuple(-e for e in reversed(right))))

    def __eq__(self, other):
        return (isinstance(other, TermOrder) and self.kind == other.kind
                and self.split == other.split)

    def __hash__(self):
        return hash((self.kind, self.split))

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.split})"
        return self.kind


class _KeyCache(dict):
    """Monomial -> sort key of one order, filled on first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, m: Monomial):
        k = self[m] = self.compute(m)
        return k


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def _mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mon_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("field", "vars", "terms", "_hash")

    def __init__(self, field: Field, variables: tuple[str, ...], terms: dict):
        clean = {}
        kind = CycElem if field.is_cyclotomic else Fraction
        for mon, c in terms.items():
            # a scalar of this very field is kept; anything else is coerced
            if type(c) is not kind or (kind is CycElem and c.field is not field):
                c = field.coerce(c)
            if c:
                if len(mon) != len(variables):
                    raise ValueError("exponent arity mismatch")
                clean[mon] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def const(cls, field, variables, value):
        return cls(field, variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, field, variables, name):
        idx = variables.index(name)
        mon = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(field, variables, {mon: 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self):
        if self.is_zero():
            return self.field.zero
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, idx: int) -> int:
        return max((m[idx] for m in self.terms), default=0)

    def support_vars(self) -> set[int]:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading(self, order: TermOrder) -> tuple[Monomial, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars or self.field != other.field:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.field, self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.field, self.vars,
                         {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.field, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self.field.coerce(other)
            if not c:
                return MultiPoly.zero(self.field, self.vars)
            return MultiPoly(self.field, self.vars,
                             {m: v * c for m, v in self.terms.items()})
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mon_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(self.field, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        if exp == 0:
            return MultiPoly.const(self.field, self.vars, 1)
        out = None
        base = self
        while True:
            if exp & 1:
                out = base if out is None else out * base
            exp >>= 1
            if not exp:
                return out
            base = base * base

    def monic(self, order: TermOrder = GREVLEX) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading(order)
        return self * (self.field.one / lc)

    def derivative(self, idx: int) -> "MultiPoly":
        out = {}
        for m, c in self.terms.items():
            if m[idx]:
                mm = list(m)
                mm[idx] -= 1
                out[tuple(mm)] = c * m[idx]
        return MultiPoly(self.field, self.vars, out)

    def substitute(self, images: dict[str, "MultiPoly"]):
        """Ring morphism sending each variable to its image polynomial.

        Every variable of self must have an image; all images must live in
        one common ring, which is the ring of the result.
        """
        imgs = [images[v] for v in self.vars]
        ring0 = imgs[0]
        acc = MultiPoly.zero(ring0.field, ring0.vars)
        for m, c in self.terms.items():
            term = None
            for i, e in enumerate(m):
                if e:
                    power = imgs[i] ** e
                    term = power if term is None else term * power
            if term is None:
                term = MultiPoly.const(ring0.field, ring0.vars, c)
            else:
                term = term * c
            acc = acc + term
        return acc

    def embed(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Re-express in a larger ring containing all current variables."""
        index = [variables.index(v) for v in self.vars]
        out = {}
        for m, c in self.terms.items():
            mm = [0] * len(variables)
            for i, e in enumerate(m):
                mm[index[i]] = e
            out[tuple(mm)] = c
        return MultiPoly(self.field, variables, out)

    # -- comparison / repr ---------------------------------------------------

    def sort_key(self):
        items = sorted(self.terms.items(), key=lambda t: t[0])
        return tuple((m, self.field.sort_key(c)) for m, c in items)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_constant():      # hash a constant like its scalar
                h = hash(self.constant_value())
            else:
                h = hash((self.vars, tuple(sorted(self.terms.items(),
                                                  key=lambda t: t[0]))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=GREVLEX.key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.vars[i])
                elif e > 1:
                    factors.append(f"{self.vars[i]}^{e}")
            body = "*".join(factors)
            cr = str(c) if isinstance(c, Fraction) else repr(c)
            if not body:
                parts.append(cr)
            elif cr == "1":
                parts.append(body)
            elif cr == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{cr}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

def normal_form_list(f: MultiPoly, divisors: list[MultiPoly],
                     order: TermOrder = GREVLEX,
                     budget: Budget | None = None) -> MultiPoly:
    """Full remainder of f on division by the divisor list."""
    if f.is_zero() or not divisors:
        return f
    budget = budget or budgets.current()
    divs = []
    for g in divisors:
        if not g.is_zero():
            lm, lc = g.leading(order)
            divs.append((lm, lc, g))
    divs.sort(key=lambda t: order.key(t[0]))
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        if len(work) > budget.max_terms:
            raise EffortExceeded("term count exceeded during reduction")
        m = max(work, key=order.key)
        c = work.pop(m)
        for lm, lc, g in divs:
            if _mon_divides(lm, m):
                shift = _mon_div(m, lm)
                factor = c / lc
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = _mon_mul(gm, shift)
                    s = work.get(t)
                    s = -factor * gc if s is None else s - factor * gc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    return MultiPoly(f.field, f.vars, remainder)


def _spoly(f: MultiPoly, g: MultiPoly, order: TermOrder) -> MultiPoly:
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    lcm = _mon_lcm(lf, lg)
    mf = MultiPoly(f.field, f.vars, {_mon_div(lcm, lf): f.field.one / cf})
    mg = MultiPoly(f.field, f.vars, {_mon_div(lcm, lg): f.field.one / cg})
    return mf * f - mg * g


def buchberger(gens: list[MultiPoly], order: TermOrder = GREVLEX,
               budget: Budget | None = None) -> list[MultiPoly]:
    """Reduced Groebner basis, deterministic for a given generating set.

    Normal selection strategy; new pairs filtered with the product and chain
    criteria (the [BW]-style update).  The output is inter-reduced, monic,
    and sorted by ascending leading term, which makes it unique for the
    ideal and order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    budget = budget or budgets.current()
    field, variables = gens[0].field, gens[0].vars

    # inter-reduce the input until stable
    current = sorted((g.monic(order) for g in gens),
                     key=lambda g: order.key(g.leading(order)[0]))
    while True:
        reduced = []
        for i, p in enumerate(current):
            r = normal_form_list(p, reduced + current[i + 1:], order, budget)
            if not r.is_zero():
                reduced.append(r.monic(order))
        reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
        if reduced == current:
            break
        current = reduced
    if not current:
        return []
    if any(p.is_constant() for p in current):
        return [MultiPoly.const(field, variables, 1)]

    polys: list[MultiPoly] = []
    lts: list[Monomial] = []
    basis: set[int] = set()
    pairs: set[tuple[int, int]] = set()

    def add_poly(p: MultiPoly) -> int:
        polys.append(p)
        lts.append(p.leading(order)[0])
        return len(polys) - 1

    def update(ih: int):
        """Gebauer-Moeller style pair update for the new element ih."""
        nonlocal basis, pairs
        mh = lts[ih]
        candidates = set(basis)
        fresh: set[tuple[int, int]] = set()
        while candidates:
            ig = candidates.pop()
            mg = lts[ig]
            lcm_hg = _mon_lcm(mh, mg)

            def lcm_divides(ip):
                return _mon_divides(_mon_lcm(mh, lts[ip]), lcm_hg)

            if (_mon_mul(mh, mg) == lcm_hg
                    or (not any(lcm_divides(ip) for ip in candidates)
                        and not any(lcm_divides(pr[1]) for pr in fresh))):
                fresh.add((ih, ig))
        kept: set[tuple[int, int]] = set()
        for (ih2, ig) in fresh:
            if _mon_mul(lts[ih2], lts[ig]) != _mon_lcm(lts[ih2], lts[ig]):
                kept.add((ih2, ig))
        surviving: set[tuple[int, int]] = set()
        for (i1, i2) in pairs:
            lcm12 = _mon_lcm(lts[i1], lts[i2])
            if (not _mon_divides(mh, lcm12)
                    or _mon_lcm(lts[i1], mh) == lcm12
                    or _mon_lcm(lts[i2], mh) == lcm12):
                surviving.add((i1, i2))
        pairs = surviving | kept
        basis = {ig for ig in basis if not _mon_divides(mh, lts[ig])}
        basis.add(ih)

    for p in current:
        update(add_poly(p))

    processed = 0
    while pairs:
        processed += 1
        if processed > budget.max_pairs:
            raise EffortExceeded(f"critical pair budget {budget.max_pairs} exceeded")
        pair = min(pairs, key=lambda pr: (order.key(_mon_lcm(lts[pr[0]], lts[pr[1]])),
                                          pr[0], pr[1]))
        pairs.discard(pair)
        i, j = pair
        s = _spoly(polys[i], polys[j], order)
        ordered = sorted(basis, key=lambda g: order.key(lts[g]))
        h = normal_form_list(s, [polys[g] for g in ordered], order, budget)
        if h.is_zero():
            continue
        if h.is_constant():
            return [MultiPoly.const(field, variables, 1)]
        update(add_poly(h.monic(order)))

    # final inter-reduction of the minimal basis
    final = [polys[i] for i in sorted(basis, key=lambda g: order.key(lts[g]))]
    out = []
    for i, p in enumerate(final):
        others = out + final[i + 1:]
        r = normal_form_list(p, others, order, budget)
        if not r.is_zero():
            out.append(r.monic(order))
    out.sort(key=lambda g: order.key(g.leading(order)[0]))
    return out


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

_GB_MEMO_SIZE = 256
_GB_MEMO: dict = {}            # (field, vars, order, budget, gens) -> basis
_GB_LOCK = threading.Lock()


def _remember(key, basis: tuple) -> None:
    """Store a basis as the memo's newest entry, evicting the oldest past
    `_GB_MEMO_SIZE`."""
    with _GB_LOCK:
        _GB_MEMO.pop(key, None)
        _GB_MEMO[key] = basis
        if len(_GB_MEMO) > _GB_MEMO_SIZE:
            del _GB_MEMO[next(iter(_GB_MEMO))]


def _monomial_weight(field: Field, weights, m: Monomial):
    """w^m = prod w_i^m_i."""
    powers = [w ** e for w, e in zip(weights, m) if e]
    return functools.reduce(operator.mul, powers) if powers else field.one


class Ideal:
    """Finitely generated ideal; immutable after construction.

    It stores no basis itself: `groebner(order)` reads the module memo,
    keyed on the ring, the order, the installed budget and the generator
    tuple, so equal generators share one basis across Ideal values.
    """

    def __init__(self, field: Field, variables: tuple[str, ...],
                 gens):
        self.field = field
        self.vars = tuple(variables)
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.vars != self.vars:
                raise ValueError("generator in wrong ring")

    @property
    def n(self) -> int:
        return len(self.vars)

    def groebner(self, order: TermOrder = GREVLEX) -> tuple[MultiPoly, ...]:
        """Reduced basis under the installed budget, memoized LRU."""
        key = (self.field, self.vars, order, budgets.current(), self.gens)
        with _GB_LOCK:
            basis = _GB_MEMO.pop(key, None)
        if basis is None:
            basis = tuple(buchberger(list(self.gens), order))
        _remember(key, basis)
        return basis

    def rescaled(self, weights) -> "Ideal":
        """The image under u_i -> w_i u_i for nonzero scalars w_i: each term
        c u^m of a generator becomes c w^m u^m, with w^m = prod w_i^m_i.

        The substitution keeps every monomial, so it keeps every leading
        monomial, zero test and term count, and `buchberger` on the image's
        generators takes exactly the steps it takes on these.  So the image's
        reduced grevlex basis is this ideal's, rescaled and made monic, and
        it is entered into the memo under the image's key.  This ideal's
        basis is read first under the installed budget, so a budget that
        would stop the image's own run raises here, with the same text.
        When every w_i is 1 the image is this ideal itself.
        """
        field, variables = self.field, self.vars
        weights = [field.coerce(w) for w in weights]
        if len(weights) != len(variables):
            raise ValueError("one weight per variable")
        if all(w == 1 for w in weights):
            return self
        scale = _KeyCache(lambda m: _monomial_weight(field, weights, m))

        def move(p: MultiPoly) -> MultiPoly:
            return MultiPoly(field, variables,
                             {m: c * scale[m] for m, c in p.terms.items()})

        image = Ideal(field, variables, [move(g) for g in self.gens])
        basis = tuple(move(b).monic(GREVLEX) for b in self.groebner(GREVLEX))
        _remember((field, variables, GREVLEX, budgets.current(), image.gens),
                  basis)
        return image

    def normal_form(self, f: MultiPoly, order: TermOrder = GREVLEX) -> MultiPoly:
        return normal_form_list(f, list(self.groebner(order)), order)

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def is_zero_ideal(self) -> bool:
        return not self.groebner()

    def canonical_key(self):
        """Hashable key identifying the ideal (via the grevlex reduced GB)."""
        return tuple(g.sort_key() for g in self.groebner())

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.vars == other.vars
                and self.field == other.field
                and self.groebner() == other.groebner())

    def __hash__(self):
        return hash((self.vars, self.canonical_key()))

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.groebner()) or "0"
        return f"<{inner}>"

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.vars != other.vars:
            raise ValueError("ideal sum across different rings")
        return Ideal(self.field, self.vars, self.gens + other.gens)

    # -- geometry ------------------------------------------------------------

    def independent_set(self) -> tuple[str, ...]:
        """A largest variable subset containing no grevlex leading-term
        support, the first by size, then lexicographically; () if unit."""
        gb = self.groebner()
        lt_supports = []
        for g in gb:
            m = g.leading(GREVLEX)[0]
            lt_supports.append({i for i, e in enumerate(m) if e})
        for size in range(self.n, 0, -1):
            for subset in itertools.combinations(range(self.n), size):
                sset = set(subset)
                if all(not supp <= sset for supp in lt_supports):
                    return tuple(self.vars[i] for i in subset)
        return ()

    def dimension(self) -> int:
        """Krull dimension of the zero set, via independent variable sets
        modulo the leading-term ideal."""
        if self.is_unit():
            raise UnitIdeal("the ideal is the whole ring (empty zero set)")
        return len(self.independent_set())

    def quotient_basis(self, order: TermOrder = GREVLEX) -> list[Monomial]:
        """Standard monomials of a zero-dimensional ideal, sorted ascending."""
        if self.dimension() != 0:
            raise NotZeroDimensional("quotient basis needs a zero-dimensional ideal")
        gb = self.groebner(order)
        lts = [g.leading(order)[0] for g in gb]
        seen = {(0,) * self.n}
        frontier = [(0,) * self.n]
        standard = []
        while frontier:
            m = frontier.pop()
            if any(_mon_divides(lt, m) for lt in lts):
                continue
            standard.append(m)
            for i in range(self.n):
                mm = list(m)
                mm[i] += 1
                t = tuple(mm)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        standard.sort(key=order.key)
        return standard

    def multiplication_matrix(self, f: MultiPoly,
                              order: TermOrder = GREVLEX) -> list[list]:
        """Matrix of multiplication-by-f on the quotient algebra, columns
        indexed by the quotient basis."""
        basis = self.quotient_basis(order)
        index = {m: i for i, m in enumerate(basis)}
        cols = []
        for m in basis:
            prod = f * MultiPoly(self.field, self.vars, {m: 1})
            nf = self.normal_form(prod, order)
            col = [self.field.zero] * len(basis)
            for mm, c in nf.terms.items():
                col[index[mm]] = c
            cols.append(col)
        # transpose: entry [i][j] = coefficient of basis[i] in f*basis[j]
        return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]

    def eliminate(self, keep: list[str]) -> "Ideal":
        """Intersection with the subring on `keep`, via a block order."""
        drop = [v for v in self.vars if v not in keep]
        keep_order = [v for v in self.vars if v in keep]
        if set(keep) - set(self.vars):
            raise ValueError("keep-variables not in the ring")
        new_vars = tuple(drop + keep_order)
        perm = [self.vars.index(v) for v in new_vars]
        moved = [MultiPoly(self.field, new_vars,
                           {tuple(m[i] for i in perm): c
                            for m, c in g.terms.items()})
                 for g in self.gens]
        order = TermOrder("block", split=len(drop))
        gb = Ideal(self.field, new_vars, moved).groebner(order)
        kept_vars = tuple(keep_order)
        kept = []
        for g in gb:
            if all(all(m[i] == 0 for i in range(len(drop))) for m in g.terms):
                kept.append(MultiPoly(self.field, kept_vars,
                                      {m[len(drop):]: c for m, c in g.terms.items()}))
        return Ideal(self.field, kept_vars, kept)

    def saturate(self, f: MultiPoly) -> "Ideal":
        """I : f^infinity via the Rabinowitsch-variable construction."""
        if f.is_zero():
            raise ValueError("cannot saturate by zero")
        aux = "_w"
        while aux in self.vars:
            aux = aux + "w"
        new_vars = (aux,) + self.vars
        gens = [g.embed(new_vars) for g in self.gens]
        w = MultiPoly.var(self.field, new_vars, aux)
        gens.append(w * f.embed(new_vars) - 1)
        big = Ideal(self.field, new_vars, gens)
        elim = big.eliminate(list(self.vars))
        return Ideal(self.field, self.vars,
                     [g.embed(self.vars) for g in elim.gens])

    def radical_zero_dim(self) -> "Ideal":
        """Radical of a zero-dimensional ideal (squarefree minimal
        polynomials of each coordinate, Seidenberg's construction)."""
        if self.dimension() != 0:
            raise NotZeroDimensional("radical shortcut needs dimension zero")
        extra = []
        for v in self.vars:
            mp = self.minimal_polynomial_of(MultiPoly.var(self.field, self.vars, v))
            sq = UniPoly(self.field, [1])
            for fac, _ in squarefree_decomposition(mp):
                sq = sq * fac
            poly = MultiPoly.zero(self.field, self.vars)
            xv = MultiPoly.var(self.field, self.vars, v)
            for k, c in enumerate(sq.coeffs):
                poly = poly + (xv ** k) * c
            extra.append(poly)
        return Ideal(self.field, self.vars, list(self.gens) + extra)

    def minimal_polynomial_of(self, f: MultiPoly) -> UniPoly:
        """Minimal polynomial of f acting on the zero-dimensional quotient."""
        basis = self.quotient_basis()
        index = {m: i for i, m in enumerate(basis)}
        dim = len(basis)

        def vec(poly):
            nf = self.normal_form(poly)
            col = [self.field.zero] * dim
            for mm, c in nf.terms.items():
                col[index[mm]] = c
            return col

        from .arith import solve_linear
        powers = [vec(MultiPoly.const(self.field, self.vars, 1))]
        current = MultiPoly.const(self.field, self.vars, 1)
        for k in range(1, dim + 2):
            current = self.normal_form(current * f)
            target = vec(current)
            rows = [[powers[j][i] for j in range(len(powers))] for i in range(dim)]
            sol = solve_linear(self.field, rows, target)
            if sol.consistent:
                coeffs = list(sol.solution) + [self.field.coerce(-1)]
                mp = UniPoly(self.field, [-c for c in coeffs])
                return mp.monic()
            powers.append(target)
        raise ArithmeticError("minimal polynomial not found")  # pragma: no cover


# ---------------------------------------------------------------------------
# multivariate gcd / factorization
# ---------------------------------------------------------------------------

def _coeffs_in(p: MultiPoly, idx: int) -> list[MultiPoly]:
    """Coefficient polynomials of powers of variable idx (ascending)."""
    deg = p.degree_in(idx)
    cols: list[dict] = [{} for _ in range(deg + 1)]
    for m, c in p.terms.items():
        mm = list(m)
        e = mm[idx]
        mm[idx] = 0
        cols[e][tuple(mm)] = c
    return [MultiPoly(p.field, p.vars, col) for col in cols]


def poly_div_exact(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Quotient a/b if the division is exact, else None."""
    if b.is_zero():
        raise ZeroDivisionError
    if a.is_zero():
        return a
    order = GREVLEX
    lb, cb = b.leading(order)
    rem = dict(a.terms)
    quot: dict = {}
    while rem:
        m = max(rem, key=order.key)
        c = rem[m]
        if not _mon_divides(lb, m):
            return None
        shift = _mon_div(m, lb)
        factor = c / cb
        quot[shift] = factor
        for gm, gc in b.terms.items():
            t = _mon_mul(gm, shift)
            s = rem.get(t)
            s = -factor * gc if s is None else s - factor * gc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return MultiPoly(a.field, a.vars, quot)


def mp_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd by primitive pseudo-remainder sequences."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.field, a.vars, 1)
    v = max(a.support_vars() | b.support_vars())
    if a.degree_in(v) == 0 or b.degree_in(v) == 0:
        # one argument is free of the main variable: gcd divides contents
        free, other = (a, b) if a.degree_in(v) == 0 else (b, a)
        cont = _content_in(other, v)
        return mp_gcd(free, cont)
    ca, pa = _content_and_pp(a, v)
    cb, pb = _content_and_pp(b, v)
    c = mp_gcd(ca, cb)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    while True:
        r = _pseudo_rem(pa, pb, v)
        if r.is_zero():
            g = pb
            break
        if r.degree_in(v) == 0:
            g = MultiPoly.const(a.field, a.vars, 1)
            break
        _, r = _content_and_pp(r, v)
        pa, pb = pb, r.monic()
    _, g = _content_and_pp(g, v)
    return (c * g).monic()


def _content_in(p: MultiPoly, v: int) -> MultiPoly:
    cols = [c for c in _coeffs_in(p, v) if not c.is_zero()]
    acc = cols[0]
    for col in cols[1:]:
        acc = mp_gcd(acc, col)
        if acc.is_constant():
            break
    return acc.monic()


def _content_and_pp(p: MultiPoly, v: int) -> tuple[MultiPoly, MultiPoly]:
    cont = _content_in(p, v)
    if cont.is_constant():
        return MultiPoly.const(p.field, p.vars, 1), p
    pp = poly_div_exact(p, cont)
    return cont, pp


def _pseudo_rem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable v."""
    db = b.degree_in(v)
    lb = _coeffs_in(b, v)[db]
    r = a
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lr = _coeffs_in(r, v)[dr]
        shift = MultiPoly(a.field, a.vars,
                          {tuple(dr - db if i == v else 0
                                 for i in range(len(a.vars))): 1})
        r = lb * r - lr * shift * b
    return r


def mp_squarefree_parts(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """(factor, multiplicity) pairs with each factor squarefree; their
    product with multiplicities equals p up to a scalar."""
    parts = []
    cur = p
    chain = []
    while not cur.is_constant():
        partials = [cur.derivative(i) for i in sorted(cur.support_vars())]
        g = cur
        acc = None
        for dp in partials:
            acc = dp if acc is None else mp_gcd(acc, dp)
        g = mp_gcd(cur, acc) if acc is not None else cur
        s = poly_div_exact(cur, g)
        chain.append(s.monic())
        cur = g
        if g.is_constant():
            break
    # chain[m-1] = product of irreducibles with multiplicity >= m
    for m in range(len(chain), 0, -1):
        upper = chain[m] if m < len(chain) else None
        t = chain[m - 1] if upper is None else poly_div_exact(chain[m - 1], upper)
        if t is None or t.is_constant():
            continue
        parts.append((t.monic(), m))
    parts.reverse()
    return parts


def mp_factor(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Factor a multivariate polynomial into irreducibles with exponents.

    Monomial content is split off first, then squarefree parts, then each
    squarefree part is split by Kronecker substitution: candidate factors
    come from the factorization of a univariate image and are certified by
    exact division, so the result is always a true factorization.
    """
    if p.is_zero():
        raise ValueError("cannot factor zero")
    out = []
    # monomial content
    nvars = len(p.vars)
    mins = [min(m[i] for m in p.terms) for i in range(nvars)]
    if any(mins):
        strip = {tuple(e - mins[i] for i, e in enumerate(m)): c
                 for m, c in p.terms.items()}
        p = MultiPoly(p.field, p.vars, strip)
        for i, e in enumerate(mins):
            if e:
                out.append((MultiPoly.var(p.field, p.vars, p.vars[i]), e))
    if p.is_constant():
        return out
    for part, mult in mp_squarefree_parts(p):
        for fac in _kronecker_split(part):
            out.append((fac, mult))
    out.sort(key=lambda fm: (fm[0].total_degree(), fm[0].sort_key()))
    return out


def _exempt_degree(image: UniPoly) -> Budget:
    """A budget that `image` passes: mp_factor is exempt from
    `degree_bound`, which bounds only the eigenvalue method's factoring."""
    return Budget(degree_bound=image.degree)


def _kronecker_split(p: MultiPoly) -> list[MultiPoly]:
    """Irreducible factors of a squarefree p via Kronecker substitution."""
    used = sorted(p.support_vars())
    if not used:
        return []
    if len(used) == 1:
        v = used[0]
        coeffs = [c.constant_value() for c in _coeffs_in(p, v)]
        uni = UniPoly(p.field, coeffs)
        out = []
        xv = MultiPoly.var(p.field, p.vars, p.vars[v])
        for fac, mult in factor_univariate(uni, _exempt_degree(uni)):
            mpf = MultiPoly.zero(p.field, p.vars)
            for k, c in enumerate(fac.coeffs):
                mpf = mpf + (xv ** k) * c
            out.extend([mpf.monic()] * mult)
        return out
    d = max(p.degree_in(v) for v in used) + 1
    weights = {v: d ** i for i, v in enumerate(used)}

    def image(q: MultiPoly) -> UniPoly:
        coeffs: dict[int, object] = {}
        for m, c in q.terms.items():
            t = sum(m[v] * weights[v] for v in used)
            coeffs[t] = coeffs.get(t, q.field.zero) + c
        top = max(coeffs)
        lst = [coeffs.get(i, q.field.zero) for i in range(top + 1)]
        return UniPoly(q.field, lst)

    def preimage(u: UniPoly) -> MultiPoly | None:
        terms = {}
        for t, c in enumerate(u.coeffs):
            if not c:
                continue
            mon = [0] * len(p.vars)
            rest = t
            for v in used:
                mon[v] = rest % d
                rest //= d
            if rest:
                return None
            terms[tuple(mon)] = c
        return MultiPoly(p.field, p.vars, terms)

    img = image(p)
    factors = []
    for fac, mult in factor_univariate(img, _exempt_degree(img)):
        factors.extend([fac] * mult)
    if len(factors) > 16:
        raise EffortExceeded("Kronecker image has too many factors")
    result = []
    current = p
    remaining = list(range(len(factors)))
    size = 1
    while remaining and 2 * size <= len(remaining):
        extracted = False
        for combo in itertools.combinations(remaining, size):
            cand_img = UniPoly(p.field, [1])
            for idx in combo:
                cand_img = cand_img * factors[idx]
            cand = preimage(cand_img)
            if cand is None:
                continue
            q = poly_div_exact(current, cand)
            if q is not None:
                result.append(cand.monic())
                current = q
                remaining = [i for i in remaining if i not in combo]
                extracted = True
                break
        if not extracted:
            size += 1
    if not current.is_constant():
        result.append(current.monic())
    return result


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFn:
    """num/den in lowest terms with a monic denominator.

    Every value keeps one invariant: gcd(num, den) = 1, den has leading
    coefficient 1 under GREVLEX, and zero is 0/1.  That form is unique, so
    equal functions have equal terms and every repr is canonical.  The
    public constructor reduces by one `mp_gcd`.  Arithmetic starts from
    operands that already keep the invariant, so it divides out only the
    factors they can share (Henrici, JACM 3 (1956); Knuth, TAOCP vol. 2,
    4.5.1):

    - a/b * c/d = (a/g * c/h) / (b/h * d/g) with g = gcd(a, d) and
      h = gcd(c, b); a gcd with a constant side is 1 and is not computed;
    - a scalar multiple needs no gcd;
    - a/b + c/d needs no gcd when b or d is 1; when b = d it is (a + c)/b
      reduced by gcd(a + c, b); otherwise (ad + cb)/(bd) reduced by a full
      gcd;
    - a/b / c/d = a/b * d/c.

    Results are built by `_coprime`, which only makes the denominator monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.field, num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = mp_gcd(num, den)
        if not g.is_constant():
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        self._store(num, den)

    @classmethod
    def _coprime(cls, num: MultiPoly, den: MultiPoly) -> "RationalFn":
        """num/den for coprime num and den (num zero only over den = 1)."""
        self = object.__new__(cls)
        self._store(num, den)
        return self

    def _store(self, num: MultiPoly, den: MultiPoly):
        _, lc = den.leading(GREVLEX)
        one = num.field.one
        if lc != one:
            inv = one / lc
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFn is immutable")

    @property
    def field(self):
        return self.num.field

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def _polynomial(self, num: MultiPoly) -> "RationalFn":
        return RationalFn._coprime(num, MultiPoly.const(self.field, self.vars, 1))

    def __add__(self, other):
        other = self._lift(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if d.is_constant():
            return RationalFn._coprime(a + c if b.is_constant() else a + c * b, b)
        if b.is_constant():
            return RationalFn._coprime(a * d + c, d)
        if b == d:
            return RationalFn(a + c, b)
        return RationalFn(a * d + c * b, b * d)

    __radd__ = __add__

    def _lift(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.field, self.vars, other)
        return self._polynomial(other)

    def __neg__(self):
        return RationalFn._coprime(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, (RationalFn, MultiPoly)):
            num = self.num * other
            return (self._polynomial(num) if num.is_zero()
                    else RationalFn._coprime(num, self.den))
        other = self._lift(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return self._polynomial(MultiPoly.zero(self.field, self.vars))
        if not (a.is_constant() or d.is_constant()):
            g = mp_gcd(a, d)
            if not g.is_constant():
                a, d = poly_div_exact(a, g), poly_div_exact(d, g)
        if not (c.is_constant() or b.is_constant()):
            g = mp_gcd(c, b)
            if not g.is_constant():
                c, b = poly_div_exact(c, g), poly_div_exact(b, g)
        return RationalFn._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.is_zero():
            raise ZeroDivisionError
        return self * RationalFn._coprime(other.den, other.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if not isinstance(other, (RationalFn, MultiPoly, int, Fraction, CycElem)):
            return NotImplemented
        try:
            other = self._lift(other)
        except ValueError:
            return False    # a cyclotomic scalar outside this field
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to a polynomial (den = 1) or a scalar: hash like it
        if self.den.is_constant():
            return hash(self.num)
        return hash((self.num, self.den))

    def derivative(self, idx: int) -> "RationalFn":
        if self.den.is_constant():
            return RationalFn._coprime(self.num.derivative(idx), self.den)
        return RationalFn(self.num.derivative(idx) * self.den
                          - self.num * self.den.derivative(idx),
                          self.den * self.den)

    def substitute(self, images: dict[str, MultiPoly]) -> "RationalFn":
        """Substitute polynomials for variables; the caller must ensure the
        denominator image is nonzero (checked here)."""
        num = self.num.substitute(images)
        den = self.den.substitute(images)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RationalFn(num, den)

    def substitute_invertible(self, images: dict[str, MultiPoly]) -> "RationalFn":
        """Substitute an invertible linear change of this ring's variables.

        Precondition, not checked: `images` sends the variables to linearly
        independent linear forms in the same ring.  That substitution is a
        ring automorphism, so a common factor of the images of num and den
        would pull back to a common factor of num and den: the images stay
        coprime and only the denominator is made monic, with no gcd.
        """
        return RationalFn._coprime(self.num.substitute(images),
                                   self.den.substitute(images))

    def __repr__(self):
        if self.is_polynomial():
            if self.den.constant_value() == self.field.one:
                return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
