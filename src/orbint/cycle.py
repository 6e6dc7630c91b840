"""Rational cycles on local models and their intersection calculus.

Downstairs cycles are represented by upstairs orbit data: an OrbitClass holds
a canonical prime representative (the lexicographically least reduced Groebner
basis in the G-orbit), the orbit size, the setwise-stabilizer order s, and
the inertia order i.  With that data the quotient calculus is exact
combinatorics:

  pull-back      q*(c . O)   = c * i * (sum of the orbit members)
  push-forward   q_*(c . P)  = c * (s/i) * O(P)
  intersection   X . Y       = (1/k) q_*( q*X . q*Y )

For a group that does not act diagonally (`quotient generators` models),
intersect_model is that formula as written, with q*X . q*Y an UpstairsCycle.
For a diagonal group (every catalog model) it uses that q*X . q*Y and q_* are
G-equivariant: the members of an orbit class O contribute alike, so
q_*(q*X . q*Y) is the sum over the classes of q_*(|O| [rep O] . q*Y), and only
the representatives are intersected (Fulton, Intersection Theory, 1.4).  The
shortcut needs every element diagonal because _prime_cycle's solved-graph test
is invariant only under diagonal elements.  Properness is checked upstairs (q
is finite), on every component pair that is intersected before any pair is
split; a pair (g.P, Q) meets as (P, g^-1.Q) does, so the representatives'
pairs are proper exactly when all pairs are.

The upstairs product of zero-dimensional intersections is computed by the
eigenvalue method: a random linear form ell (from a generator seeded by the
ideal's canonical key, so the split of an ideal is the same whatever was split
before it), the characteristic polynomial of multiplication-by-ell on the
quotient algebra, its factorization, and one point cluster per irreducible
factor.  A cluster's residue degree must match the factor degree; otherwise
ell failed to separate and a fresh form is drawn.  A simple factor p of chi
needs no check: its generalized eigenspace has dimension deg p, so each of
its deg p roots is ell(P) at exactly one point P with a one-dimensional local
algebra, and I + <p(ell)> is already the radical cluster ideal.

One routine, _prime_cycle, turns an ideal (a pair sum, a map preimage, a
family member, a scene's lift) into its prime cycle, for three shapes: a
principal hypersurface (factored), a zero-dimensional ideal (split as above)
and a solved-graph reduced basis (each element a variable minus a polynomial
in non-leading variables), which is prime of multiplicity one.  A pair sum of
any other shape raises PositiveDimensionalIntersection, a NotProper.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arith import char_poly, factor_univariate
from . import budgets
from .errors import (NonCMWarning, NotEquidimensional, NotFiniteOnSupport,
                     NotProper, NotZeroDimensional,
                     PositiveDimensionalIntersection,
                     SampleDisagreement, SeparationFailure,
                     SpecializationDegenerate, UnsupportedPreimageShape)
from .group import (act_ideal, inertia_group, is_diagonal, orbit_translates,
                    substitution)
from .poly import GREVLEX, Ideal, MultiPoly, mp_factor
from .quotient import LocalModel


# ---------------------------------------------------------------------------
# orbit classes
# ---------------------------------------------------------------------------

class OrbitClass:
    """G-orbit of an upstairs prime ideal, with stabilizer bookkeeping."""

    def __init__(self, model: LocalModel, rep: Ideal, members: tuple[Ideal, ...],
                 stab_order: int, inertia_order: int):
        self.model = model
        self.rep = rep
        self.members = members
        self.orbit_size = len(members)
        self.stab_order = stab_order
        self.inertia_order = inertia_order
        self.key = rep.canonical_key()
        if self.orbit_size * stab_order != model.k:
            raise ArithmeticError("orbit-stabilizer mismatch")
        if stab_order % inertia_order != 0:
            raise ArithmeticError("inertia order must divide stabilizer order")
        self._dim = None
        self._down_residue = None

    @classmethod
    def of(cls, model: LocalModel, prime: Ideal) -> "OrbitClass":
        """Orbit class of an upstairs prime (primality is an input contract)."""
        cache = model._orbit_cache
        key0 = prime.canonical_key()
        hit = cache.get(key0)
        if hit is not None:
            return hit
        translates, stab = orbit_translates(model.group, prime)
        members = tuple(translates[k] for k in sorted(translates))
        rep = translates[min(translates)]
        inert = inertia_group(model.group, rep).order
        orbit = cls(model, rep, members, len(stab), inert)
        for k in translates:
            cache[k] = orbit
        return orbit

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = self.rep.dimension()
        return self._dim

    def downstairs_ideal(self) -> Ideal:
        """Defining ideal of the image q(V(rep)) in the downstairs chart."""
        return self.model.image_ideal(self.rep)

    def downstairs_residue_degree(self) -> int:
        """Vector-space dimension of the downstairs point algebra (dim 0)."""
        if self._down_residue is None:
            down = self.downstairs_ideal()
            self._down_residue = len(down.quotient_basis())
        return self._down_residue

    def __eq__(self, other):
        return isinstance(other, OrbitClass) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.rep.groebner())
        return f"[{gens}]"


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def _check_positive(coeff: Fraction) -> Fraction:
    c = Fraction(coeff)
    if c <= 0:
        raise ValueError("cycle coefficients must be positive rationals")
    return c


class UpstairsCycle:
    """Formal positive-rational combination of prime ideals upstairs, all of
    one dimension."""

    def __init__(self, field, variables, components):
        merged: dict = {}
        ideals: dict = {}
        for ideal, coeff in components:
            c = _check_positive(coeff)
            key = ideal.canonical_key()
            merged[key] = merged.get(key, Fraction(0)) + c
            ideals[key] = ideal
        self.field = field
        self.vars = tuple(variables)
        self.components = tuple((ideals[k], merged[k]) for k in sorted(merged))
        dims = {ideal.dimension() for ideal, _ in self.components}
        if len(dims) > 1:
            raise ValueError(f"components of mixed dimensions {sorted(dims)}")
        self.dim = dims.pop() if dims else None

    def is_empty(self) -> bool:
        return not self.components

    def codim(self) -> int | None:
        return None if self.dim is None else len(self.vars) - self.dim

    def __add__(self, other: "UpstairsCycle") -> "UpstairsCycle":
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        return UpstairsCycle(self.field, self.vars,
                             list(self.components) + list(other.components))

    def scale(self, factor: Fraction) -> "UpstairsCycle":
        return UpstairsCycle(self.field, self.vars,
                             [(i, c * factor) for i, c in self.components])

    def as_dict(self) -> dict:
        return {ideal.canonical_key(): coeff for ideal, coeff in self.components}

    def __eq__(self, other):
        return (isinstance(other, UpstairsCycle) and self.vars == other.vars
                and self.as_dict() == other.as_dict())

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.as_dict().items()))))

    def __repr__(self):
        if not self.components:
            return "0 (empty cycle)"
        parts = []
        for ideal, coeff in self.components:
            gens = ", ".join(repr(g) for g in ideal.groebner())
            parts.append(f"{coeff} * V({gens})")
        return " + ".join(parts)


class DownstairsCycle:
    """Formal positive-rational combination of orbit classes."""

    def __init__(self, model: LocalModel, components):
        merged: dict = {}
        classes: dict = {}
        for orbit, coeff in components:
            c = _check_positive(coeff)
            merged[orbit.key] = merged.get(orbit.key, Fraction(0)) + c
            classes[orbit.key] = orbit
        self.model = model
        self.components = tuple((classes[k], merged[k]) for k in sorted(merged))
        dims = {orbit.dim for orbit, _ in self.components}
        if len(dims) > 1:
            raise ValueError(f"components of mixed dimensions {sorted(dims)}")
        self.dim = dims.pop() if dims else None

    @classmethod
    def empty(cls, model: LocalModel) -> "DownstairsCycle":
        return cls(model, [])

    @classmethod
    def from_upstairs_primes(cls, model: LocalModel, primes) -> "DownstairsCycle":
        """Build from (upstairs prime ideal, coefficient) pairs."""
        return cls(model, [(OrbitClass.of(model, p), c) for p, c in primes])

    def is_empty(self) -> bool:
        return not self.components

    def codim(self) -> int | None:
        return None if self.dim is None else self.model.n - self.dim

    def common_denominator(self) -> int:
        """A witness d making d times the cycle integral (condition (D))."""
        d = 1
        for _, c in self.components:
            d = math.lcm(d, c.denominator)
        return d

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.components)

    def scale(self, factor) -> "DownstairsCycle":
        return DownstairsCycle(self.model,
                               [(o, c * Fraction(factor)) for o, c in self.components])

    def __add__(self, other: "DownstairsCycle") -> "DownstairsCycle":
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        if other.model is not self.model:
            raise ValueError("cycles on different models")
        return DownstairsCycle(self.model,
                               list(self.components) + list(other.components))

    def as_dict(self) -> dict:
        return {orbit.key: coeff for orbit, coeff in self.components}

    def __eq__(self, other):
        return (isinstance(other, DownstairsCycle)
                and self.model.name == other.model.name
                and self.as_dict() == other.as_dict())

    def __hash__(self):
        return hash(tuple(sorted(self.as_dict().items())))

    def __repr__(self):
        if not self.components:
            return "0 (empty cycle)"
        return " + ".join(f"{coeff} * {orbit!r}" for orbit, coeff in self.components)


@dataclass(frozen=True)
class PointCluster:
    """A Galois-irreducible zero-dimensional component: maximal ideal,
    residue degree, and local multiplicity."""

    ideal: Ideal
    residue_degree: int
    multiplicity: int


# ---------------------------------------------------------------------------
# pull-back / push-forward along the quotient
# ---------------------------------------------------------------------------

def pullback(model: LocalModel, cycle: DownstairsCycle) -> UpstairsCycle:
    """q* : each orbit class contributes its members with the inertia order
    as multiplicity; q_* q* = k holds by orbit-stabilizer bookkeeping."""
    comps = []
    for orbit, coeff in cycle.components:
        mult = coeff * orbit.inertia_order
        for member in orbit.members:
            comps.append((member, mult))
    return UpstairsCycle(model.field, model.uvars, comps)


def pushforward(model: LocalModel, cycle: UpstairsCycle) -> DownstairsCycle:
    """q_* : each prime contributes (stabilizer/inertia) times its class."""
    comps = []
    for ideal, coeff in cycle.components:
        orbit = OrbitClass.of(model, ideal)
        comps.append((orbit, coeff * Fraction(orbit.stab_order, orbit.inertia_order)))
    return DownstairsCycle(model, comps)


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProperReport:
    proper: bool
    codim_x: int | None
    codim_y: int | None
    reason: str = ""


def _meeting_sums(a: UpstairsCycle, b: UpstairsCycle, n: int) -> list[tuple]:
    """The component pairs (p, cp, q, cq, p + q) whose zero sets meet.  The
    one place where pair sums are formed: raises NotProper at the first pair
    that does not meet in dimension dim A + dim B - n."""
    expected = a.dim + b.dim - n
    sums = []
    for p, cp in a.components:
        for q, cq in b.components:
            s = p + q
            if s.is_unit():
                continue
            if expected < 0:
                raise NotProper("codimensions exceed the ambient dimension "
                                "but the supports meet")
            d = s.dimension()
            if d != expected:
                raise NotProper(f"components meet in dimension {d}, "
                                f"expected {expected}")
            sums.append((p, cp, q, cq, s))
    return sums


def is_proper(model: LocalModel, x: DownstairsCycle,
              y: DownstairsCycle) -> ProperReport:
    """Supports meet in codimension codim X + codim Y upstairs (or not at
    all); equivalent to the downstairs condition since q is finite."""
    cx, cy = x.codim(), y.codim()
    if x.is_empty() or y.is_empty():
        return ProperReport(True, cx, cy, "empty factor")
    try:
        _meeting_sums(pullback(model, x), pullback(model, y), model.n)
    except NotProper as exc:
        return ProperReport(False, cx, cy, str(exc))
    return ProperReport(True, cx, cy)


# ---------------------------------------------------------------------------
# zero-dimensional cluster splitting (eigenvalue method)
# ---------------------------------------------------------------------------

def split_clusters(ideal: Ideal) -> list[PointCluster]:
    """Split a zero-dimensional algebra into point clusters.

    Draws a random linear form ell from a generator seeded by the ideal's
    canonical key (a string seed, hashed with SHA-512, so PYTHONHASHSEED
    plays no part), factors the characteristic polynomial chi of
    multiplication-by-ell, and carves one cluster per irreducible factor.
    Retries with a fresh ell when the residue degree of a carved cluster
    disagrees with its factor degree (separation failure).

    A factor p with exponent 1 is never rejected and needs no radical: its
    generalized eigenspace has dimension deg p, so its deg p roots are the
    values of ell at deg p reduced points, and the cluster is I + <p(ell)>
    with residue degree deg p.  When chi = p, Cayley-Hamilton puts
    p(ell) = chi(ell) in I and the cluster is I itself.  Factors with
    exponent e > 1 take the radical of I + <p(ell)> and check its degree.
    """
    if ideal.is_unit():
        return []
    field = ideal.field
    basis = ideal.quotient_basis()
    total = len(basis)
    last_error = "no attempt made"
    retries = budgets.current().separation_retries
    rng = random.Random(repr(ideal.canonical_key()))
    for attempt in range(retries):
        bound = 2 + attempt
        coeffs = [rng.randint(-bound, bound) for _ in range(ideal.n)]
        if not any(coeffs):
            continue
        ell = MultiPoly(field, ideal.vars,
                        {tuple(1 if j == i else 0 for j in range(ideal.n)): c
                         for i, c in enumerate(coeffs) if c})
        matrix = ideal.multiplication_matrix(ell)
        chi = char_poly(field, matrix)
        factors = factor_univariate(chi)
        if len(factors) == 1 and factors[0][1] == 1:
            return [PointCluster(ideal, total, 1)]
        clusters = []
        consistent = True
        for p, e in factors:
            p_of_ell = MultiPoly.zero(field, ideal.vars)
            for c in reversed(p.coeffs):
                p_of_ell = p_of_ell * ell + c
            carved = Ideal(field, ideal.vars,
                           list(ideal.gens) + [p_of_ell])
            if e == 1:
                clusters.append(PointCluster(carved, p.degree, 1))
                continue
            maximal = carved.radical_zero_dim()
            r = len(maximal.quotient_basis())
            if r != p.degree:
                consistent = False
                last_error = (f"linear form {ell!r} gave residue degree {r} "
                              f"vs factor degree {p.degree}")
                break
            clusters.append(PointCluster(maximal, r, e))
        if not consistent:
            continue
        if sum(c.residue_degree * c.multiplicity for c in clusters) != total:
            last_error = "cluster dimensions do not add up"
            continue
        return clusters
    raise SeparationFailure(
        f"no separating linear form within {retries} retries: "
        + last_error)


def _prime_cycle(ideal: Ideal, dim: int) -> list[tuple[Ideal, int]] | None:
    """The cycle [I] = sum of l_P [P] of an equidimensional ideal of
    dimension `dim`, as (prime, multiplicity) pairs, for three shapes tried
    in this order:

      - a principal hypersurface: the irreducible factors of its generator,
        each with its exponent;
      - a zero-dimensional ideal: its point clusters (split_clusters);
      - a solved-graph reduced basis, whose elements are `v - g(rest)` with
        distinct leading variables.  Such an ideal is prime (the quotient is
        a polynomial ring) and its cycle multiplicity is 1.  The zero ideal
        (the whole space) qualifies trivially.

    Any other shape gives None, and the caller raises its own error.
    """
    gb = ideal.groebner()
    if len(gb) == 1 and dim == ideal.n - 1:
        return [(Ideal(ideal.field, ideal.vars, [factor]), exponent)
                for factor, exponent in mp_factor(gb[0])]
    if dim == 0:
        return [(cluster.ideal, cluster.multiplicity)
                for cluster in split_clusters(ideal)]
    solved = set()
    for g in gb:
        lm, _ = g.leading(GREVLEX)
        if sum(lm) != 1:
            return None
        vidx = next(i for i, e in enumerate(lm) if e)
        if vidx in solved:
            return None
        solved.add(vidx)
    return [(Ideal(ideal.field, ideal.vars, list(gb)), 1)]


def intersect_upstairs(a: UpstairsCycle, b: UpstairsCycle) -> UpstairsCycle:
    """The upstairs product cycle A . B on the smooth cover.

    Every component pair is checked for properness before any pair is
    split, so a NotProper costs no split.  Each pair sum then becomes
    its prime cycle (_prime_cycle): a hypersurface by factoring, a
    zero-dimensional sum by point clusters whose multiplicity is the local
    vector-space dimension, a solved-graph sum as itself.  A NonCMWarning is
    issued when neither factor of a pair is a complete intersection
    (generator count = codimension), where that dimension may overcount.
    """
    if a.is_empty() or b.is_empty():
        return UpstairsCycle(a.field, a.vars, [])
    if a.vars != b.vars:
        raise ValueError("cycles on different upstairs charts")
    n = len(a.vars)
    expected = a.dim + b.dim - n

    def is_ci(ideal, dim):
        codim = n - dim
        return (len(ideal.gens) == codim
                or len(ideal.groebner()) == codim)

    comps = []
    for p, cp, q, cq, s in _meeting_sums(a, b, n):
        if not (is_ci(p, a.dim) or is_ci(q, b.dim)):
            warnings.warn(
                "neither intersectand is a complete intersection; "
                "multiplicities may overcount", NonCMWarning)
        parts = _prime_cycle(s, expected)
        if parts is None:
            raise PositiveDimensionalIntersection(
                "positive-dimensional intersection outside the "
                "certified (solved-graph) subclass")
        comps.extend((comp, cp * cq * mult) for comp, mult in parts)
    return UpstairsCycle(a.field, a.vars, comps)


def intersect_model(model: LocalModel, x: DownstairsCycle, y: DownstairsCycle,
                    _rng: object = None) -> DownstairsCycle:
    """The rational intersection product (1/k) q_*(q*X . q*Y).

    On a diagonal group each orbit class O of X with coefficient c enters
    q*X . q*Y once, as its representative with coefficient c * i * |O|; the
    push-forward does not see which member of O was intersected.  A NotProper
    reads as it would after a scan of every pair: that scan meets the
    components of q*X in canonical-key order, each representative (the least
    key of its class) before the other members, and a member's first
    improper pair has an equivalent in its representative's row, so the
    first improper pair of the whole scan is in a representative's row.
    Other groups intersect every pair as written.

    The product depends on X and Y alone.  The fourth argument is accepted
    and ignored, because the products benchmark still passes a generator.
    """
    if is_diagonal(model.group):
        qx = UpstairsCycle(model.field, model.uvars, [
            (orbit.rep, c * orbit.inertia_order * orbit.orbit_size)
            for orbit, c in x.components])
    else:
        qx = pullback(model, x)
    up = intersect_upstairs(qx, pullback(model, y))
    return pushforward(model, up).scale(Fraction(1, model.k))


def principal_divisor(model: LocalModel, h: MultiPoly) -> DownstairsCycle:
    """Divisor cycle downstairs of a downstairs polynomial h.

    Computed as (1/k) q_* of the upstairs divisor of h(theta), so the
    pull-back of the result is exactly that upstairs divisor; on an orbit
    class the coefficient comes out as (upstairs exponent)/(inertia order).
    """
    if h.vars != model.yvars:
        raise ValueError("expected a downstairs polynomial")
    up = model.pull_poly(h)
    if up.is_zero():
        raise ValueError("polynomial vanishes on the model")
    if up.is_constant():
        return DownstairsCycle.empty(model)
    comps = []
    for factor, exponent in mp_factor(up):
        prime = Ideal(model.field, model.uvars, [factor])
        comps.append((prime, Fraction(exponent)))
    upstairs = UpstairsCycle(model.field, model.uvars, comps)
    return pushforward(model, upstairs).scale(Fraction(1, model.k))


# ---------------------------------------------------------------------------
# maps between models
# ---------------------------------------------------------------------------

class ModelMap:
    """Equivariant polynomial map between quotient models.

    Upstairs data: one source-ring polynomial per target upstairs coordinate.
    The group correspondence phi with F(g.u) = phi(g).F(u) is derived by
    search and its existence is exactly the equivariance check.
    """

    def __init__(self, source: LocalModel, target: LocalModel,
                 components: list[MultiPoly], name: str = "f"):
        if len(components) != target.n:
            raise ValueError("one component per target coordinate")
        for c in components:
            if c.vars != source.uvars:
                raise ValueError("components must live in the source upstairs ring")
        if source.field != target.field:
            raise ValueError("source and target fields differ")
        self.source = source
        self.target = target
        self.components = tuple(components)
        self.name = name
        self.phi = self._derive_phi()

    def _derive_phi(self) -> dict[int, int]:
        phi = {}
        source, target = self.source, self.target
        at_map = dict(zip(target.uvars, self.components))
        # h.F for each target element h: (h.u)_j evaluated at u = F
        target_side = []
        for h in target.group:
            images = substitution(h, target.field, target.uvars)
            target_side.append([images[v].substitute(at_map)
                                for v in target.uvars])
        for gi, g in enumerate(source.group):
            images = substitution(g, source.field, source.uvars)
            moved = [f.substitute(images) for f in self.components]
            for hi, image in enumerate(target_side):
                if image == moved:
                    phi[gi] = hi
                    break
            else:
                raise ValueError(
                    f"map is not equivariant: no counterpart for group "
                    f"element {gi}")
        return phi

    @classmethod
    def identity(cls, model: LocalModel) -> "ModelMap":
        comps = [MultiPoly.var(model.field, model.uvars, v) for v in model.uvars]
        return cls(model, model, comps, name="id")

    @classmethod
    def compose(cls, outer: "ModelMap", inner: "ModelMap") -> "ModelMap":
        """outer o inner (inner.source -> outer.target)."""
        if inner.target is not outer.source:
            raise ValueError("maps are not composable")
        images = dict(zip(outer.source.uvars, inner.components))
        comps = [f.substitute(images) for f in outer.components]
        return cls(inner.source, outer.target, comps,
                   name=f"{outer.name}o{inner.name}")

    def preimage_ideal(self, q: Ideal) -> Ideal:
        """Ideal generated by the pull-backs of the generators."""
        images = dict(zip(self.target.uvars, self.components))
        gens = [g.substitute(images) for g in q.gens]
        return Ideal(self.source.field, self.source.uvars,
                     [g for g in gens if not g.is_zero()])

    def image_ideal(self, p: Ideal) -> Ideal:
        """Closure of the image of V(p) upstairs, by elimination through the
        graph of the upstairs map."""
        tgt = tuple("F_" + v for v in self.target.uvars)
        joint = self.source.uvars + tgt
        gens = [g.embed(joint) for g in p.gens]
        for tv, comp in zip(tgt, self.components):
            gens.append(MultiPoly.var(self.source.field, joint, tv)
                        - comp.embed(joint))
        big = Ideal(self.source.field, joint, gens)
        elim = big.eliminate(list(tgt))
        # eliminate keeps the F_ variables in the order of target.uvars
        return Ideal(self.target.field, self.target.uvars,
                     [MultiPoly(self.target.field, self.target.uvars,
                                dict(g.terms)) for g in elim.gens])

    def __repr__(self):
        return (f"ModelMap({self.name}: {self.source.name} -> "
                f"{self.target.name})")


def pullback_along_map(fmap: ModelMap, y: DownstairsCycle) -> DownstairsCycle:
    """The cycle M ._f Y: upstairs preimage with multiplicities, pushed
    through the source group and normalized by 1/deg(source quotient).

    The preimage of each upstairs component must be a hypersurface (then the
    pulled-back principal generator is factored into irreducibles with
    exponents), zero-dimensional (then cluster multiplicities apply) or a
    solved-graph prime (multiplicity one).
    """
    src = fmap.source
    if y.is_empty():
        return DownstairsCycle.empty(src)
    if y.model is not fmap.target:
        raise ValueError("cycle lives on the wrong model")
    upstream = pullback(fmap.target, y)
    img = fmap.image_ideal(Ideal(src.field, src.uvars, []))
    img_dim = img.dimension() if not img.is_unit() else -1
    fib_dim = src.n - img_dim
    comps: list[tuple[Ideal, Fraction]] = []
    dims = set()
    for q, c in upstream.components:
        if q.is_zero_ideal():
            # the fundamental cycle pulls back to the fundamental cycle
            comps.append((Ideal(src.field, src.uvars, []), c))
            dims.add(src.n)
            continue
        j = fmap.preimage_ideal(q)
        if j.is_unit():
            continue
        meet = q + img
        if meet.is_unit():
            continue
        expected = meet.dimension() + fib_dim
        if not j.gens:
            raise NotEquidimensional(
                "component pulls back to the whole source space")
        actual = j.dimension()
        if actual != expected:
            raise NotEquidimensional(
                f"preimage has dimension {actual}, expected {expected}")
        parts = _prime_cycle(j, actual)
        if parts is None:
            raise UnsupportedPreimageShape(
                f"preimage of dimension {actual} is neither a hypersurface, "
                "zero-dimensional nor a solved-graph prime")
        comps.extend((prime, c * mult) for prime, mult in parts)
        dims.add(actual)
    if len(dims) > 1:
        raise NotEquidimensional("preimage components of mixed dimension")
    if not comps:
        return DownstairsCycle.empty(src)
    up_cycle = UpstairsCycle(src.field, src.uvars, comps)
    return pushforward(src, up_cycle).scale(Fraction(1, src.k))


def f_product(fmap: ModelMap, x: DownstairsCycle,
              y: DownstairsCycle) -> DownstairsCycle:
    """X ._f Y computed through X .(M ._f Y) on the source model."""
    return intersect_model(fmap.source, x, pullback_along_map(fmap, y))


def pushforward_along_map(fmap: ModelMap, x: DownstairsCycle) -> DownstairsCycle:
    """f_* : image class times the mapping degree of f on each component.

    The degree is the ratio of upstairs to downstairs fibre-algebra
    dimensions over a random slice of the image, verified at a second
    independent sample.
    """
    src, tgt = fmap.source, fmap.target
    if x.is_empty():
        return DownstairsCycle.empty(tgt)
    if x.model is not src:
        raise ValueError("cycle lives on the wrong model")
    comps = []
    for orbit, c in x.components:
        p = orbit.rep
        q = fmap.image_ideal(p)
        if q.is_unit():
            raise ArithmeticError("image of a nonempty set is empty")
        if q.dimension() != orbit.dim:
            raise NotFiniteOnSupport(
                f"component of dimension {orbit.dim} has image of dimension "
                f"{q.dimension()}")
        degree = _mapping_degree(fmap, p, q)
        target_orbit = OrbitClass.of(tgt, q)
        factor = Fraction(degree) \
            * Fraction(orbit.inertia_order, orbit.stab_order) \
            * Fraction(target_orbit.stab_order, target_orbit.inertia_order)
        if factor.denominator != 1:
            raise ArithmeticError("mapping degree bookkeeping is not integral")
        comps.append((target_orbit, c * factor))
    return DownstairsCycle(tgt, comps)


def _mapping_degree(fmap: ModelMap, p: Ideal, q: Ideal) -> int:
    """Generic fibre degree of the upstairs map V(p) -> V(q), sampled at
    slices drawn from a generator seeded by the two canonical keys."""
    rng = random.Random(repr((p.canonical_key(), q.canonical_key())))
    indep = q.independent_set()
    samples = []
    attempts = 0
    while len(samples) < 2 and attempts < 12:
        attempts += 1
        values = {v: rng.randint(-7 - attempts, 7 + attempts) for v in indep}
        down_gens = list(q.gens)
        up_gens = list(p.gens)
        images = dict(zip(fmap.target.uvars, fmap.components))
        degenerate = False
        for v, a in values.items():
            lin = MultiPoly.var(q.field, q.vars, v) - MultiPoly.const(q.field, q.vars, a)
            down_gens.append(lin)
            up_gens.append(lin.substitute(images))
        down = Ideal(q.field, q.vars, down_gens)
        up = Ideal(p.field, p.vars, up_gens)
        if down.is_unit() or up.is_unit():
            continue
        try:
            nd = len(down.quotient_basis())
            nu = len(up.quotient_basis())
        except NotZeroDimensional:
            continue
        if nd == 0 or nu % nd:
            continue
        samples.append(nu // nd)
    if len(samples) < 2:
        raise NotFiniteOnSupport("could not sample a finite generic fibre")
    if samples[0] != samples[1]:
        raise SampleDisagreement(
            f"mapping degree samples disagree: {samples[0]} vs {samples[1]}")
    return samples[0]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class CycleFamily:
    """One-parameter family of downstairs cycles given by upstairs
    generators with coefficients in F[param][u]."""

    def __init__(self, model: LocalModel, param: str,
                 components: list[tuple[tuple[MultiPoly, ...], Fraction]],
                 window: tuple[Fraction, Fraction]):
        self.model = model
        self.param = param
        self.ring = (param,) + model.uvars
        for gens, coeff in components:
            _check_positive(coeff)
            for g in gens:
                if g.vars != self.ring:
                    raise ValueError("family generators live in F[param + u]")
        self.components = [(tuple(gens), Fraction(coeff))
                           for gens, coeff in components]
        lo, hi = Fraction(window[0]), Fraction(window[1])
        if lo > hi:
            raise ValueError("empty parameter window")
        self.window = (lo, hi)
        self.nominal_dim = self._nominal_dimension()
        self.generic_stabs = self._generic_stabilizers()

    def _nominal_dimension(self) -> int:
        dims = set()
        for gens, _ in self.components:
            j = Ideal(self.model.field, self.ring, list(gens))
            dims.add(j.dimension() - 1)
        if len(dims) != 1:
            raise ValueError("family components of mixed generic dimension")
        return dims.pop()

    def _generic_stabilizers(self) -> tuple[int, ...]:
        """Setwise-stabilizer order of each component at a generic parameter.

        Probed at several window points; the generic order is the minimum
        seen (stabilizers only jump up on special fibres).  It normalizes
        specialization so that a family written as one orbit class has
        coefficient-one members away from the special parameters.
        """
        lo, hi = self.window
        mid = (lo + hi) / 2
        probes = [mid, mid + Fraction(1, 3), mid - Fraction(1, 2),
                  lo, hi, mid + 1, mid - 1]
        probes = [p for p in probes if lo <= p <= hi]
        out = []
        for gens, _ in self.components:
            best = self.model.k
            for p in probes:
                j = self.member_ideal(gens, p)
                if not j.gens or j.is_unit():
                    continue
                stab = len(orbit_translates(self.model.group, j)[1])
                best = min(best, stab)
                if best == 1:
                    break
            out.append(best)
        return tuple(out)

    def member_ideal(self, gens, value) -> Ideal:
        """The upstairs ideal of one component's generators at param = value."""
        model = self.model
        sub = {self.param: MultiPoly.const(model.field, model.uvars, value)}
        for v in model.uvars:
            sub[v] = MultiPoly.var(model.field, model.uvars, v)
        return Ideal(model.field, model.uvars,
                     [g.substitute(sub) for g in gens])


def specialize(family: CycleFamily, value) -> DownstairsCycle:
    """Member of the family at a rational parameter value.

    The member is assembled from all |G| group translates of the specialized
    generators (so orbit collisions acquire the correct limiting
    multiplicities) and normalized by 1/k, mirroring the intersection
    product's normalization.
    """
    value = Fraction(value)
    model = family.model
    lo, hi = family.window
    if not (lo <= value <= hi):
        raise ValueError(f"parameter {value} outside window [{lo}, {hi}]")
    total: list[tuple[Ideal, Fraction]] = []
    dims = set()
    for (gens, coeff), gstab in zip(family.components, family.generic_stabs):
        coeff = coeff / gstab
        member = family.member_ideal(gens, value)
        if not member.gens:
            raise SpecializationDegenerate(
                f"family member at {value} is the whole space")
        for el in model.group:
            j = act_ideal(model.group, el, member)
            if j.is_unit():
                raise SpecializationDegenerate(
                    f"family member at {value} is empty")
            d = j.dimension()
            if d != family.nominal_dim:
                raise SpecializationDegenerate(
                    f"dimension jump at {value}: {d} vs nominal "
                    f"{family.nominal_dim}")
            parts = _prime_cycle(j, d)
            if parts is None:
                raise SpecializationDegenerate(
                    "family member is neither a hypersurface, a finite "
                    "scheme, nor a certified prime")
            total.extend((prime, coeff * mult) for prime, mult in parts)
            dims.add(d)
    if len(dims) > 1:
        raise SpecializationDegenerate("mixed dimensions in one member")
    up = UpstairsCycle(model.field, model.uvars, total)
    return pushforward(model, up).scale(Fraction(1, model.k))


def total_intersection_number(cycle: DownstairsCycle) -> Fraction:
    """Sum of coefficient times downstairs residue degree over a
    zero-dimensional downstairs cycle."""
    if cycle.is_empty():
        return Fraction(0)
    if cycle.dim != 0:
        raise ValueError("total intersection number needs a 0-cycle")
    total = Fraction(0)
    for orbit, coeff in cycle.components:
        total += coeff * orbit.downstairs_residue_degree()
    return total


@dataclass(frozen=True)
class ConservationReport:
    samples: tuple[Fraction, ...]
    totals: tuple[Fraction | None, ...]
    errors: tuple[str, ...]
    conserved: bool


def conservation_check(fam_x, fam_y, samples) -> ConservationReport:
    """Total intersection numbers of X_s . Y_s across parameter samples.

    Either argument may be a CycleFamily or a fixed DownstairsCycle.  A
    sample where the pair fails to intersect properly is reported but does
    not abort the other samples.
    """
    model = fam_x.model
    totals = []
    errors = []
    svals = tuple(Fraction(s) for s in samples)

    def member(fam, s):
        if isinstance(fam, DownstairsCycle):
            return fam
        return specialize(fam, s)

    for s in svals:
        try:
            xs = member(fam_x, s)
            ys = member(fam_y, s)
            prod = intersect_model(model, xs, ys)
            totals.append(total_intersection_number(prod))
            errors.append("")
        except (NotProper, SpecializationDegenerate) as exc:
            totals.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    reached = [t for t in totals if t is not None]
    conserved = bool(reached) and all(t == reached[0] for t in reached) \
        and all(e == "" for e in errors)
    return ConservationReport(svals, tuple(totals), tuple(errors), conserved)
