"""Rational cycles on local models and their intersection calculus.

Downstairs cycles are represented by upstairs orbit data: an OrbitClass holds
a canonical prime representative (the lexicographically least reduced Groebner
basis in the G-orbit), the orbit size, the setwise-stabilizer order s, and
the inertia order i.  With that data the quotient calculus is exact
combinatorics:

  pull-back      q*(c . O)   = c * i * (sum of the orbit members)
  push-forward   q_*(c . P)  = c * (s/i) * O(P)
  intersection   X . Y       = (1/k) q_*( q*X . q*Y )

The upstairs product of zero-dimensional intersections is computed by the
eigenvalue method: a random linear form ell (from a caller-provided seeded
generator), the characteristic polynomial of multiplication-by-ell on the
quotient algebra, its factorization, and one point cluster per irreducible
factor.  A cluster's residue degree must match the factor degree; otherwise
ell failed to separate and a fresh form is drawn.

Positive-dimensional proper intersections are supported only in the certified
subclass where the reduced Groebner basis of the pair sum is in solved-graph
form (each element is a variable minus a polynomial in non-leading
variables); such an ideal is prime with intersection multiplicity one.
Everything else positive-dimensional raises a NotProper-shaped error.
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
from .group import act, act_ideal, inertia_group
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
        cache = _orbit_cache(model)
        key0 = prime.canonical_key()
        hit = cache.get(key0)
        if hit is not None:
            return hit
        group = model.group
        translates = {}
        stab = 0
        for el in group:
            moved = act_ideal(group, el, prime)
            k = moved.canonical_key()
            if k == key0:
                stab += 1
            if k not in translates:
                translates[k] = moved
        members = tuple(translates[k] for k in sorted(translates))
        rep = translates[min(translates)]
        inert = inertia_group(group, rep).order
        orbit = cls(model, rep, members, stab, inert)
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


def _orbit_cache(model: LocalModel) -> dict:
    cache = getattr(model, "_orbit_cache", None)
    if cache is None:
        cache = {}
        setattr(model, "_orbit_cache", cache)
    return cache


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


@dataclass(frozen=True)
class ClusterTerm:
    """Aggregated intersection component with its rational total weight."""

    ideal: Ideal
    dim: int
    residue_degree: int | None
    weight: Fraction


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


def is_proper(model: LocalModel, x: DownstairsCycle,
              y: DownstairsCycle) -> ProperReport:
    """Supports meet in codimension codim X + codim Y upstairs (or not at
    all); equivalent to the downstairs condition since q is finite."""
    if x.is_empty() or y.is_empty():
        return ProperReport(True, x.codim(), y.codim(), "empty factor")
    cx, cy = x.codim(), y.codim()
    expected = model.n - cx - cy
    ax, ay = pullback(model, x), pullback(model, y)
    for p, _ in ax.components:
        for q, _ in ay.components:
            s = p + q
            if s.is_unit():
                continue
            d = s.dimension()
            if expected < 0:
                return ProperReport(False, cx, cy,
                                    "codimensions exceed the ambient "
                                    "dimension but the supports meet")
            if d != expected:
                return ProperReport(False, cx, cy,
                                    f"components meet in dimension {d}, "
                                    f"expected {expected}")
    return ProperReport(True, cx, cy)


# ---------------------------------------------------------------------------
# zero-dimensional cluster splitting (eigenvalue method)
# ---------------------------------------------------------------------------

def split_clusters(ideal: Ideal, rng: random.Random) -> list[PointCluster]:
    """Split a zero-dimensional algebra into point clusters.

    Draws a random linear form ell, factors the characteristic polynomial of
    multiplication-by-ell, and carves one cluster per irreducible factor.
    Retries with a fresh ell when the residue degree of a carved cluster
    disagrees with its factor degree (separation failure).
    """
    if ideal.is_unit():
        return []
    field = ideal.field
    basis = ideal.quotient_basis()
    total = len(basis)
    last_error = "no attempt made"
    retries = budgets.current().separation_retries
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
        clusters = []
        consistent = True
        for p, e in factors:
            p_of_ell = MultiPoly.zero(field, ideal.vars)
            for i, c in enumerate(p.coeffs):
                p_of_ell = p_of_ell + (ell ** i) * c
            carved = Ideal(field, ideal.vars,
                           list(ideal.gens) + [p_of_ell])
            maximal = carved.radical_zero_dim()
            r = len(Ideal(field, ideal.vars,
                          list(maximal.gens)).quotient_basis())
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


def certified_prime_component(ideal: Ideal) -> Ideal | None:
    """Solved-graph certificate: the reduced basis consists of elements
    `v - g(rest)` with distinct leading variables.  Such an ideal is prime
    (the quotient is a polynomial ring) and its cycle multiplicity is 1.
    The zero ideal (the whole space) qualifies trivially."""
    gb = ideal.groebner()
    if not gb:
        return Ideal(ideal.field, ideal.vars, [])
    solved = set()
    for g in gb:
        lm, _ = g.leading(GREVLEX)
        if sum(lm) != 1:
            return None
        vidx = next(i for i, e in enumerate(lm) if e)
        if vidx in solved:
            return None
        solved.add(vidx)
    return Ideal(ideal.field, ideal.vars, list(gb))


def intersect_upstairs(a: UpstairsCycle, b: UpstairsCycle,
                       rng: random.Random) -> list[ClusterTerm]:
    """Bilinear intersection of upstairs cycles on the smooth cover.

    Zero-dimensional pair sums are split into point clusters whose
    multiplicity is the local vector-space dimension.  A NonCMWarning is
    issued when neither factor of a pair is a complete intersection
    (generator count = codimension), where that dimension may overcount.
    """
    if a.is_empty() or b.is_empty():
        return []
    if a.vars != b.vars:
        raise ValueError("cycles on different upstairs charts")
    n = len(a.vars)
    expected = a.dim + b.dim - n

    def is_ci(ideal, dim):
        codim = n - dim
        return (len(ideal.gens) == codim
                or len(ideal.groebner()) == codim)

    accum: dict = {}
    info: dict = {}
    for p, cp in a.components:
        ci_p = is_ci(p, a.dim)
        for q, cq in b.components:
            s = p + q
            if s.is_unit():
                continue
            if expected < 0:
                raise NotProper(
                    "supports meet although the codimensions exceed the "
                    "ambient dimension")
            ci_q = is_ci(q, b.dim)
            if not ci_p and not ci_q:
                warnings.warn(
                    "neither intersectand is a complete intersection; "
                    "multiplicities may overcount", NonCMWarning)
            d = s.dimension()
            if d != expected:
                raise NotProper(f"components meet in dimension {d}, expected {expected}")
            if expected == 0:
                for cluster in split_clusters(s, rng):
                    key = cluster.ideal.canonical_key()
                    accum[key] = accum.get(key, Fraction(0)) \
                        + cp * cq * cluster.multiplicity
                    info[key] = (cluster.ideal, 0, cluster.residue_degree)
            else:
                comp = certified_prime_component(s)
                if comp is None:
                    raise PositiveDimensionalIntersection(
                        "positive-dimensional intersection outside the "
                        "certified (solved-graph) subclass")
                key = comp.canonical_key()
                accum[key] = accum.get(key, Fraction(0)) + cp * cq
                info[key] = (comp, expected, None)
    out = []
    for key in sorted(accum):
        ideal, dim, rdeg = info[key]
        out.append(ClusterTerm(ideal, dim, rdeg, accum[key]))
    return out


def intersect_model(model: LocalModel, x: DownstairsCycle, y: DownstairsCycle,
                    rng: random.Random | None = None) -> DownstairsCycle:
    """The rational intersection product (1/k) q_*(q*X . q*Y)."""
    rng = rng or random.Random(0)
    report = is_proper(model, x, y)
    if not report.proper:
        raise NotProper(report.reason)
    if x.is_empty() or y.is_empty():
        return DownstairsCycle.empty(model)
    terms = intersect_upstairs(pullback(model, x), pullback(model, y), rng)
    comps = []
    for term in terms:
        orbit = OrbitClass.of(model, term.ideal)
        comps.append((orbit, term.weight
                      * Fraction(orbit.stab_order, orbit.inertia_order)
                      * Fraction(1, model.k)))
    return DownstairsCycle(model, comps)


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
        sg, tg = self.source.group, self.target.group
        for gi, g in enumerate(sg):
            moved = [act(sg, g, f) for f in self.components]
            for hi, h in enumerate(tg):
                ok = True
                for j in range(self.target.n):
                    img = MultiPoly.zero(self.source.field, self.source.uvars)
                    for t, c in enumerate(h[j]):
                        if c:
                            img = img + self.components[t] * c
                    if img != moved[j]:
                        ok = False
                        break
                if ok:
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
        rename = dict(zip(tgt, self.target.uvars))
        out = []
        for g in elim.gens:
            out.append(MultiPoly(self.target.field, self.target.uvars,
                                 {m: c for m, c in
                                  MultiPoly(g.field,
                                            tuple(rename[v] for v in g.vars),
                                            dict(g.terms)).terms.items()}))
        return Ideal(self.target.field, self.target.uvars, out)

    def __repr__(self):
        return (f"ModelMap({self.name}: {self.source.name} -> "
                f"{self.target.name})")


def pullback_along_map(fmap: ModelMap, y: DownstairsCycle,
                       rng: random.Random | None = None) -> DownstairsCycle:
    """The cycle M ._f Y: upstairs preimage with multiplicities, pushed
    through the source group and normalized by 1/deg(source quotient).

    The preimage of each upstairs component must be a hypersurface (then the
    pulled-back principal generator is factored into irreducibles with
    exponents) or zero-dimensional (then cluster multiplicities apply).
    """
    rng = rng or random.Random(0)
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
        gb = j.groebner()
        actual = j.dimension()
        if actual != expected:
            raise NotEquidimensional(
                f"preimage has dimension {actual}, expected {expected}")
        if len(gb) == 1 and actual == src.n - 1:
            for factor, exponent in mp_factor(gb[0]):
                prime = Ideal(src.field, src.uvars, [factor])
                comps.append((prime, c * exponent))
                dims.add(src.n - 1)
        elif actual == 0:
            for cluster in split_clusters(j, rng):
                comps.append((cluster.ideal, c * cluster.multiplicity))
                dims.add(0)
        else:
            raise UnsupportedPreimageShape(
                f"preimage of dimension {actual} is neither a hypersurface "
                "nor zero-dimensional")
    if len(dims) > 1:
        raise NotEquidimensional("preimage components of mixed dimension")
    if not comps:
        return DownstairsCycle.empty(src)
    up_cycle = UpstairsCycle(src.field, src.uvars, comps)
    return pushforward(src, up_cycle).scale(Fraction(1, src.k))


def f_product(fmap: ModelMap, x: DownstairsCycle, y: DownstairsCycle,
              rng: random.Random | None = None) -> DownstairsCycle:
    """X ._f Y computed through X .(M ._f Y) on the source model."""
    rng = rng or random.Random(0)
    mfy = pullback_along_map(fmap, y, rng)
    return intersect_model(fmap.source, x, mfy, rng)


def pushforward_along_map(fmap: ModelMap, x: DownstairsCycle,
                          rng: random.Random | None = None) -> DownstairsCycle:
    """f_* : image class times the mapping degree of f on each component.

    The degree is the ratio of upstairs to downstairs fibre-algebra
    dimensions over a random slice of the image, verified at a second
    independent sample.
    """
    rng = rng or random.Random(0)
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
        degree = _mapping_degree(fmap, p, q, rng)
        target_orbit = OrbitClass.of(tgt, q)
        factor = Fraction(degree) \
            * Fraction(orbit.inertia_order, orbit.stab_order) \
            * Fraction(target_orbit.stab_order, target_orbit.inertia_order)
        if factor.denominator != 1:
            raise ArithmeticError("mapping degree bookkeeping is not integral")
        comps.append((target_orbit, c * factor))
    return DownstairsCycle(tgt, comps)


def _mapping_degree(fmap: ModelMap, p: Ideal, q: Ideal,
                    rng: random.Random) -> int:
    """Generic fibre degree of the upstairs map V(p) -> V(q)."""
    indep = _independent_set(q)
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


def _independent_set(ideal: Ideal) -> tuple[str, ...]:
    """A maximal variable subset independent modulo the leading terms."""
    gb = ideal.groebner()
    if not gb:
        return ideal.vars
    import itertools as _it
    supports = []
    for g in gb:
        m = g.leading(GREVLEX)[0]
        supports.append({i for i, e in enumerate(m) if e})
    n = ideal.n
    for size in range(n, 0, -1):
        for subset in _it.combinations(range(n), size):
            sset = set(subset)
            if all(not supp <= sset for supp in supports):
                return tuple(ideal.vars[i] for i in subset)
    return ()


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
        model = self.model
        out = []
        for gens, _ in self.components:
            best = model.k
            for p in probes:
                sub = {self.param: MultiPoly.const(model.field, model.uvars, p)}
                for v in model.uvars:
                    sub[v] = MultiPoly.var(model.field, model.uvars, v)
                members = [g.substitute(sub) for g in gens]
                members = [g for g in members if not g.is_zero()]
                if not members:
                    continue
                j = Ideal(model.field, model.uvars, members)
                if j.is_unit():
                    continue
                keys = {act_ideal(model.group, el, j).canonical_key()
                        for el in model.group}
                stab = model.k // len(keys)
                best = min(best, stab)
                if best == 1:
                    break
            out.append(best)
        return tuple(out)


def specialize(family: CycleFamily, value,
               rng: random.Random | None = None) -> DownstairsCycle:
    """Member of the family at a rational parameter value.

    The member is assembled from all |G| group translates of the specialized
    generators (so orbit collisions acquire the correct limiting
    multiplicities) and normalized by 1/k, mirroring the intersection
    product's normalization.
    """
    rng = rng or random.Random(0)
    value = Fraction(value)
    model = family.model
    lo, hi = family.window
    if not (lo <= value <= hi):
        raise ValueError(f"parameter {value} outside window [{lo}, {hi}]")
    sub = {family.param: MultiPoly.const(model.field, model.uvars, value)}
    for v in model.uvars:
        sub[v] = MultiPoly.var(model.field, model.uvars, v)
    total: list[tuple[Ideal, Fraction]] = []
    dims = set()
    for (gens, coeff), gstab in zip(family.components, family.generic_stabs):
        coeff = coeff / gstab
        members = [g.substitute(sub) for g in gens]
        members = [g for g in members if not g.is_zero()]
        if not members:
            raise SpecializationDegenerate(
                f"family member at {value} is the whole space")
        for el in model.group:
            tgens = [act(model.group, el, g) for g in members]
            j = Ideal(model.field, model.uvars, tgens)
            if j.is_unit():
                raise SpecializationDegenerate(
                    f"family member at {value} is empty")
            gb = j.groebner()
            d = j.dimension()
            if d != family.nominal_dim:
                raise SpecializationDegenerate(
                    f"dimension jump at {value}: {d} vs nominal "
                    f"{family.nominal_dim}")
            if len(gb) == 1 and d == model.n - 1:
                for factor, exponent in mp_factor(gb[0]):
                    prime = Ideal(model.field, model.uvars, [factor])
                    total.append((prime, coeff * exponent))
            elif d == 0:
                for cluster in split_clusters(j, rng):
                    total.append((cluster.ideal, coeff * cluster.multiplicity))
            else:
                comp = certified_prime_component(j)
                if comp is None:
                    raise SpecializationDegenerate(
                        "family member is neither a hypersurface, a finite "
                        "scheme, nor a certified prime")
                total.append((comp, coeff))
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


def conservation_check(fam_x, fam_y, samples,
                       rng: random.Random | None = None) -> ConservationReport:
    """Total intersection numbers of X_s . Y_s across parameter samples.

    Either argument may be a CycleFamily or a fixed DownstairsCycle.  A
    sample where the pair fails to intersect properly is reported but does
    not abort the other samples.
    """
    rng = rng or random.Random(0)
    model = fam_x.model
    totals = []
    errors = []
    svals = tuple(Fraction(s) for s in samples)

    def member(fam, s):
        if isinstance(fam, DownstairsCycle):
            return fam
        return specialize(fam, s, rng)

    for s in svals:
        try:
            xs = member(fam_x, s)
            ys = member(fam_y, s)
            prod = intersect_model(model, xs, ys, rng)
            totals.append(total_intersection_number(prod))
            errors.append("")
        except (NotProper, SpecializationDegenerate) as exc:
            totals.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    reached = [t for t in totals if t is not None]
    conserved = bool(reached) and all(t == reached[0] for t in reached) \
        and all(e == "" for e in errors)
    return ConservationReport(svals, tuple(totals), tuple(errors), conserved)
