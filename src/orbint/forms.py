"""Differential forms with rational-function coefficients on model charts.

A DiffForm lives on a chart (the upstairs u-variables or the downstairs
y-variables of a model) and stores coefficients on strictly increasing index
tuples.  Upstairs forms compare structurally; two downstairs forms are equal
iff their difference pulls back to zero under q^, which is decidable and
exact and avoids choosing normal forms on the singular chart.

The trace map is the plain sum over the k sheets: trace(q^(alpha)) = k.alpha.
Operationally trace_form symmetrizes the input over G and solves
q^(alpha) = omega_sym by exact linear algebra over an ansatz of downstairs
forms: polynomial numerators of bounded degree over a configured finite set
of invariant denominators (by default 1, the expressed coordinate norms, and
their squarefree products).  Each downstairs monomial and denominator is
pulled up once per trace, and the ansatz matrix is built once per numerator
degree bound: only the right-hand side depends on the denominator.  A
denominator whose right-hand side has a monomial outside the ansatz rows
would add a zero row with a nonzero right-hand side, an exact witness of
inconsistency, so it is screened out before any solve.  The solved form is
re-verified exactly before being returned.

Pull-backs substitute each coefficient once and carry dy_T through the
polynomial Jacobian minors; the group action moves coefficients by a linear
automorphism, which keeps them reduced without a gcd.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import budgets
from .arith import solve_linear
from .budgets import Budget
from .errors import (AnsatzExhausted, ChartMismatch,
                     DenominatorVanishesIdentically)
from .group import substitution
from .poly import GREVLEX, MultiPoly, RationalFn
from .quotient import LocalModel, express_in_invariants, norm_polynomial


class DiffForm:
    """Differential form of pure degree with RationalFn coefficients."""

    __slots__ = ("field", "vars", "degree", "terms")

    def __init__(self, field, variables: tuple[str, ...], degree: int, terms: dict):
        clean = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError("indices must be strictly increasing tuples")
            if any(i < 0 or i >= len(variables) for i in idx):
                raise ValueError("index out of chart range")
            if not isinstance(coeff, RationalFn):
                raise TypeError("coefficients must be RationalFn")
            if coeff.vars != tuple(variables):
                raise ValueError("coefficient in wrong ring")
            if not coeff.is_zero():
                clean[idx] = coeff
        if degree > len(variables) and clean:
            raise ValueError("degree exceeds chart dimension")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("DiffForm is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, variables, degree=0):
        return cls(field, variables, degree, {})

    @classmethod
    def function(cls, coeff: RationalFn):
        return cls(coeff.field, coeff.vars, 0, {(): coeff})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _chart_check(self, other: "DiffForm"):
        if self.vars != other.vars:
            raise ChartMismatch(f"charts {self.vars} vs {other.vars}")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._chart_check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return DiffForm(self.field, self.vars, self.degree, out)

    def __neg__(self):
        return DiffForm(self.field, self.vars, self.degree,
                        {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        self._chart_check(other)
        return self + (-other)

    def scale(self, factor) -> "DiffForm":
        if not isinstance(factor, RationalFn):
            factor = RationalFn(MultiPoly.const(self.field, self.vars, factor))
        return DiffForm(self.field, self.vars, self.degree,
                        {i: c * factor for i, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.vars == other.vars
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.degree,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            wedge = "^".join(f"d{self.vars[i]}" for i in idx)
            if not wedge:
                parts.append(f"{c!r}")
            else:
                parts.append(f"({c!r}) {wedge}")
        return " + ".join(parts)


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Graded-commutative exterior product on a common chart."""
    a._chart_check(b)
    out: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            if set(ia) & set(ib):
                continue
            merged, sign = _sort_with_sign(ia + ib)
            c = ca * cb * sign
            s = out.get(merged)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return DiffForm(a.field, a.vars, a.degree + b.degree, out)


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def exterior_d(a: DiffForm) -> DiffForm:
    """Exterior derivative; d(d(a)) = 0."""
    out: dict = {}
    n = len(a.vars)
    for idx, c in a.terms.items():
        for j in range(n):
            if j in idx:
                continue
            dc = c.derivative(j)
            if dc.is_zero():
                continue
            merged, sign = _sort_with_sign((j,) + idx)
            add = dc * sign
            s = out.get(merged)
            s = add if s is None else s + add
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return DiffForm(a.field, a.vars, a.degree + 1, out)


def pullback_form(images: dict[str, MultiPoly], a: DiffForm,
                  source_vars: tuple[str, ...]) -> DiffForm:
    """Pull a form back along the polynomial map given by `images`
    (target variable -> polynomial in the source ring).

    Coefficients are substituted (DenominatorVanishesIdentically if a
    denominator maps to zero) and each dy_T becomes
    sum_I det(d images_T / d u_I) du_I, the wedge of the images'
    differentials written through the polynomial Jacobian minors (Spivak,
    Calculus on Manifolds, Thm 4-9).  So each coefficient is substituted
    once and multiplied by one polynomial per source tuple I.
    """
    src = tuple(source_vars)
    for v in a.vars:
        if v not in images:
            raise ChartMismatch(f"no image for chart variable {v}")
        if images[v].vars != src:
            raise ValueError("images must live in the source ring")

    def move(c: RationalFn) -> RationalFn:
        try:
            return c.substitute(images)
        except ZeroDivisionError as exc:
            raise DenominatorVanishesIdentically(str(exc)) from exc

    return _pull_through_minors(images, a, src, move)


def _pull_through_minors(images, a: DiffForm, src, move) -> DiffForm:
    """sum_T move(a_T) dy_T on the source chart, with
    dy_T = sum_I det(d images_T / d u_I) du_I."""
    field = a.field
    if a.is_zero():
        return DiffForm.zero(field, src, a.degree)
    jacobian = {}   # (chart index, source index) -> nonzero partial derivative
    for i in {i for idx in a.terms for i in idx}:
        img = images[a.vars[i]]
        for j in range(len(src)):
            dj = img.derivative(j)
            if not dj.is_zero():
                jacobian[i, j] = dj
    sources = list(itertools.combinations(range(len(src)), a.degree))
    out: dict = {}
    for idx, c in a.terms.items():
        moved = move(c)
        for target in sources:
            minor = _minor(field, src, jacobian, idx, target)
            if minor.is_zero():
                continue
            add = (moved * minor.constant_value() if minor.is_constant()
                   else moved * minor)
            s = out.get(target)
            s = add if s is None else s + add
            if s.is_zero():
                out.pop(target, None)
            else:
                out[target] = s
    return DiffForm(field, src, a.degree, out)


def _minor(field, src, jacobian, rows, cols) -> MultiPoly:
    """det(jacobian[rows, cols]) by the permutation expansion (rows and cols
    have the form degree as length, at most the chart dimension)."""
    total = MultiPoly.zero(field, src)
    for perm in itertools.permutations(cols):
        term = MultiPoly.const(field, src, _sort_with_sign(perm)[1])
        for r, col in zip(rows, perm):
            entry = jacobian.get((r, col))
            if entry is None:
                break
            term = term * entry
        else:
            total = total + term
    return total


# ---------------------------------------------------------------------------
# model-chart operations
# ---------------------------------------------------------------------------

def q_pullback(model: LocalModel, a: DiffForm) -> DiffForm:
    """q^: substitute y_j -> theta_j and dy_j -> d(theta_j)."""
    if a.vars != model.yvars:
        raise ChartMismatch("expected a downstairs form")
    return pullback_form(model.theta_images(), a, model.uvars)


def act_form(model: LocalModel, element, a: DiffForm) -> DiffForm:
    """Linear substitution u -> g.u on coefficients and differentials.

    An invertible linear substitution is a ring automorphism, so it maps the
    coprime num and den of each coefficient to a coprime pair: the moved
    coefficient needs its denominator made monic and no gcd.  The
    differentials go through the (constant) minors of g as in pullback_form.
    """
    if a.vars != model.uvars:
        raise ChartMismatch("expected an upstairs form")
    images = substitution(element, model.field, model.uvars)
    return _pull_through_minors(images, a, model.uvars,
                                lambda c: c.substitute_invertible(images))


def symmetrize(model: LocalModel, a: DiffForm) -> DiffForm:
    """Sum of the form over the whole group (a G-invariant form)."""
    acc = DiffForm.zero(model.field, model.uvars, a.degree)
    for el in model.group:
        acc = acc + act_form(model, el, a)
    return acc


def downstairs_equal(model: LocalModel, a: DiffForm, b: DiffForm) -> bool:
    """Equality of downstairs forms: the difference pulls back to zero."""
    if a.vars != model.yvars or b.vars != model.yvars:
        raise ChartMismatch("expected downstairs forms")
    if a.degree != b.degree:
        return a.is_zero() and b.is_zero()
    return q_pullback(model, a - b).is_zero()


def default_denominators(model: LocalModel) -> list[MultiPoly]:
    """1, the expressed coordinate norms, and their squarefree products."""
    if model._denominator_cache is not None:
        return model._denominator_cache
    norms = []
    seen = set()
    for v in model.uvars:
        nv = norm_polynomial(model, MultiPoly.var(model.field, model.uvars, v))
        nv = nv.monic(GREVLEX)
        if nv.sort_key() not in seen and not nv.is_constant():
            seen.add(nv.sort_key())
            norms.append(nv)
    out = [MultiPoly.const(model.field, model.yvars, 1)]
    for r in range(1, len(norms) + 1):
        for combo in itertools.combinations(norms, r):
            prod = combo[0]
            for f in combo[1:]:
                prod = prod * f
            prod = prod.monic(GREVLEX)
            if prod.sort_key() not in {p.sort_key() for p in out}:
                out.append(prod)
    model._denominator_cache = out
    return out


def trace_form(model: LocalModel, omega: DiffForm,
               denominators: list[MultiPoly] | None = None,
               budget: Budget | None = None) -> DiffForm:
    """Trace of an upstairs form: the downstairs form alpha with
    q^(alpha) = sum_g g.omega, found by exact linear algebra.

    The plain (degree-k) sum is returned; callers apply 1/k where the
    normalized trace is wanted.  Raises AnsatzExhausted when no downstairs
    form with numerator degree within the budget and denominator in the
    configured set matches.
    """
    if omega.vars != model.uvars:
        raise ChartMismatch("trace_form expects an upstairs form")
    omega_sym = symmetrize(model, omega)
    p = omega.degree
    field = model.field
    if omega_sym.is_zero():
        return DiffForm.zero(field, model.yvars, p)
    dens = denominators if denominators is not None else default_denominators(model)
    # polynomial invariant 0-form: direct descent through the graph ideal
    if p == 0:
        coeff = omega_sym.terms.get((), None)
        if coeff is not None and coeff.is_polynomial():
            poly = coeff.num * (field.one / coeff.den.constant_value())
            down = express_in_invariants(model, poly)
            alpha = DiffForm.function(RationalFn(down))
            if q_pullback(model, alpha) == omega_sym:
                return alpha
    max_degree = (budget or budgets.current()).ansatz_degree
    tuples = list(itertools.combinations(range(len(model.yvars)), p))
    pulled_basis = {}
    for t in tuples:
        basis_form = DiffForm(field, model.yvars, p,
                              {t: RationalFn(MultiPoly.const(field, model.yvars, 1))})
        pulled_basis[t] = q_pullback(model, basis_form)
    pulled: dict = {}   # downstairs monomial or denominator -> its pull-back

    def pull(poly: MultiPoly) -> MultiPoly:
        up = pulled.get(poly)
        if up is None:
            up = pulled[poly] = model.pull_poly(poly)
        return up

    for bound in range(max_degree + 1):
        monomials = _monomials_up_to(field, model.yvars, bound)
        unknowns, rows, blocks = _ansatz(model, omega_sym, tuples, pulled_basis,
                                         [(m, pull(m)) for m in monomials])
        for den in dens:
            alpha = _solve_single_denominator(model, omega_sym, unknowns, rows,
                                              blocks, den, pull(den))
            if alpha is not None:
                return alpha
    raise AnsatzExhausted(
        f"no descent with numerator degree <= {max_degree} and "
        f"denominators {[repr(d) for d in dens]}", residual=omega_sym)


def _monomials_up_to(field, variables, bound: int) -> list[MultiPoly]:
    out = []
    n = len(variables)

    def rec(idx, left, expo):
        if idx == n:
            out.append(MultiPoly(field, variables, {tuple(expo): 1}))
            return
        for e in range(left + 1):
            expo.append(e)
            rec(idx + 1, left - e, expo)
            expo.pop()

    rec(0, bound, [])
    return out


def _ansatz(model, omega_sym, tuples, pulled_basis, monomials):
    """The part of the trace system that no denominator changes.

    The unknowns c_j belong to (t, m) for each index tuple t and each
    (m, q^m) in `monomials`; column j is q^(m dy_T) = sum_idx col_j[idx] du_idx.
    For alpha = sum_j c_j m_j dy_T / den, the system q^(alpha) = omega_sym
    reads sum_j c_j col_j[idx] * t_den = t_num * q^(den) for each index idx of
    the upstairs forms, with omega_sym[idx] = t_num/t_den, one equation per
    monomial.  Returns the unknowns, every block's left-hand rows in order,
    and per idx in sorted order t_num (None where omega_sym has no such
    term) with the block's rows keyed by monomial in sorted order.
    """
    field = model.field
    unknowns = []
    columns = []
    for t in tuples:
        for m, m_up in monomials:
            col = {}
            for idx, c in pulled_basis[t].terms.items():
                # c is polynomial over a trivial denominator by construction
                num = c.num * m_up * (field.one / c.den.constant_value())
                if not num.is_zero():
                    col[idx] = num
            unknowns.append((t, m))
            columns.append(col)
    rows = []
    blocks = []
    for idx in sorted({i for c in columns for i in c} | set(omega_sym.terms)):
        target = omega_sym.terms.get(idx)
        t_num = None if target is None else target.num
        t_den = None if target is None or target.den.is_constant() else target.den
        lhs_rows: dict = {}
        for j, col in enumerate(columns):
            poly = col.get(idx)
            if poly is None:
                continue
            if t_den is not None:
                poly = poly * t_den
            for mono, c in poly.terms.items():
                row = lhs_rows.get(mono)
                if row is None:
                    row = lhs_rows[mono] = [field.zero] * len(columns)
                row[j] = c
        lhs_rows = {mono: lhs_rows[mono] for mono in sorted(lhs_rows)}
        rows.extend(lhs_rows.values())
        blocks.append((t_num, lhs_rows))
    return unknowns, rows, blocks


def _solve_single_denominator(model, omega_sym, unknowns, rows, blocks, den,
                              den_up):
    """Try alpha = (sum_j c_j m_j dy_T) / den, given den_up = q^(den) and the
    system from `_ansatz`; returns the form or None.

    A monomial of t_num * q^(den) outside its block's rows would add a zero
    row with a nonzero right-hand side, an exact witness that the system is
    inconsistent, so such a candidate is refused before any solve.  Past
    that screen the rows are exactly the ansatz rows, shared by every
    denominator (solve_linear only reads them), and only the right-hand
    side is built here.
    """
    field = model.field
    if den_up.is_zero():
        return None
    rhs = []
    for t_num, lhs_rows in blocks:
        rhs_terms = {} if t_num is None else (t_num * den_up).terms
        if not rhs_terms.keys() <= lhs_rows.keys():
            return None
        rhs.extend(rhs_terms.get(mono, field.zero) for mono in lhs_rows)
    sol = solve_linear(field, rows, rhs)
    if not sol.consistent:
        return None
    terms: dict = {}
    for (t, m), c in zip(unknowns, sol.solution):
        if not c:
            continue
        coeff = RationalFn(m * c, den)
        s = terms.get(t)
        s = coeff if s is None else s + coeff
        if s.is_zero():
            terms.pop(t, None)
        else:
            terms[t] = s
    alpha = DiffForm(field, model.yvars, omega_sym.degree, terms)
    # exact re-verification before returning
    if q_pullback(model, alpha) == omega_sym:
        return alpha
    return None


def verify_direct_factor(model: LocalModel,
                         samples: list[DiffForm]) -> list[tuple[DiffForm, bool]]:
    """Check trace(q^(alpha)) = k.alpha for each downstairs sample."""
    out = []
    for alpha in samples:
        traced = trace_form(model, q_pullback(model, alpha))
        ok = downstairs_equal(model, traced, alpha.scale(Fraction(model.k)))
        out.append((alpha, ok))
    return out
