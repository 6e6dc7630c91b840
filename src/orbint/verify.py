"""Randomized property suites over the catalog models.

Each check draws its data from a caller-provided seeded generator, so a run
is reproducible from the seed alone.  Results carry a pass/fail flag, the
number of instances exercised, and a counterexample description when
something failed.  The CLI `verify` command and the acceptance tests both
call these functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import QQ
from .cycle import (CycleFamily, DownstairsCycle, ModelMap, UpstairsCycle,
                    conservation_check, f_product, intersect_model,
                    intersect_upstairs, is_proper, pullback, pushforward,
                    pushforward_along_map)
from .errors import NotProper, OrbintError
from .poly import Ideal, MultiPoly
from .quotient import LocalModel, model_a1, model_product, model_trivial


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    count: int
    detail: str = ""
    counterexample: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        ce = f" counterexample: {self.counterexample}" if self.counterexample else ""
        return f"{mark} {self.name}: {self.count} instances{extra}{ce}"


# ---------------------------------------------------------------------------
# random cycle generation
# ---------------------------------------------------------------------------

def _rand_coeff(rng: random.Random, integral: bool) -> Fraction:
    if integral:
        return Fraction(rng.randint(1, 3))
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def random_prime(model: LocalModel, rng: random.Random, codim: int) -> Ideal:
    """A random prime of the requested codimension in the upstairs ring.

    Uses triangular graph shapes (a solved variable minus a polynomial in
    the remaining free variables), which are prime by construction.
    """
    n = model.n
    field = model.field
    variables = model.uvars
    solved = rng.sample(range(n), codim)
    free = [i for i in range(n) if i not in solved]
    gens = []
    for idx in solved:
        rhs = MultiPoly.const(field, variables, rng.randint(-3, 3))
        for j in free:
            if rng.random() < 0.6:
                c = rng.randint(-2, 2)
                if c:
                    deg = rng.choice([1, 1, 2])
                    rhs = rhs + (MultiPoly.var(field, variables, variables[j]) ** deg) * c
        gens.append(MultiPoly.var(field, variables, variables[idx]) - rhs)
    return Ideal(field, variables, gens)


def random_cycle(model: LocalModel, rng: random.Random, codim: int,
                 max_components: int = 2, integral: bool = False) -> DownstairsCycle:
    parts = []
    for _ in range(rng.randint(1, max_components)):
        parts.append((random_prime(model, rng, codim), _rand_coeff(rng, integral)))
    return DownstairsCycle.from_upstairs_primes(model, parts)


def _proper_pair(model: LocalModel, rng: random.Random, cx: int, cy: int,
                 integral: bool = True, attempts: int = 60):
    for _ in range(attempts):
        x = random_cycle(model, rng, cx, integral=integral)
        y = random_cycle(model, rng, cy, integral=integral)
        if is_proper(model, x, y).proper:
            return x, y
    raise RuntimeError("could not sample a proper pair")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def check_pushpull(model: LocalModel, count: int,
                   rng: random.Random) -> VerifyResult:
    """q_* q^* = k . id on random downstairs cycles."""
    name = f"pushpull[{model.name}]"
    for i in range(count):
        codim = rng.randint(1, model.n)
        x = random_cycle(model, rng, codim)
        back = pushforward(model, pullback(model, x))
        if back != x.scale(model.k):
            return VerifyResult(name, False, i + 1,
                                counterexample=f"X = {x!r}, got {back!r}")
    return VerifyResult(name, True, count)


def check_eq4(model: LocalModel, count: int,
              rng: random.Random) -> VerifyResult:
    """pullback(X . Y) equals the upstairs intersection cycle."""
    name = f"eq4[{model.name}]"
    done = 0
    guard = 0
    while done < count and guard < 50 * count:
        guard += 1
        cx = rng.randint(1, model.n - 1)
        cy = model.n - cx
        try:
            x, y = _proper_pair(model, rng, cx, cy)
            prod = intersect_model(model, x, y, rng)
            terms = intersect_upstairs(pullback(model, x),
                                       pullback(model, y), rng)
        except NotProper:
            continue
        upstairs = UpstairsCycle(model.field, model.uvars,
                                 [(t.ideal, t.weight) for t in terms]) \
            if terms else UpstairsCycle(model.field, model.uvars, [])
        lhs = pullback(model, prod)
        if lhs != upstairs:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"X={x!r} Y={y!r}: "
                                               f"{lhs!r} vs {upstairs!r}")
        if not _integrality_ok(model, x, y, prod):
            return VerifyResult(name, False, done + 1,
                                detail="condition (D) violated",
                                counterexample=f"X={x!r} Y={y!r} -> {prod!r}")
        done += 1
    if done < count:
        return VerifyResult(name, False, done, detail="sampling starved")
    return VerifyResult(name, True, count)


def _integrality_ok(model, x, y, prod) -> bool:
    """Positivity is structural; k times an intersection of integral cycles
    must be integral."""
    if not (x.is_integral() and y.is_integral()):
        return True
    return prod.scale(model.k).is_integral()


def check_commutativity(model: LocalModel, count: int,
                        rng: random.Random) -> VerifyResult:
    name = f"commutativity[{model.name}]"
    done = 0
    guard = 0
    while done < count and guard < 50 * count:
        guard += 1
        cx = rng.randint(1, model.n - 1)
        cy = model.n - cx
        try:
            x, y = _proper_pair(model, rng, cx, cy)
            ab = intersect_model(model, x, y, rng)
            ba = intersect_model(model, y, x, rng)
        except NotProper:
            continue
        if ab != ba:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"X={x!r} Y={y!r}")
        if not _integrality_ok(model, x, y, ab):
            return VerifyResult(name, False, done + 1,
                                detail="condition (D) violated")
        done += 1
    if done < count:
        return VerifyResult(name, False, done, detail="sampling starved")
    return VerifyResult(name, True, count)


def check_associativity(model: LocalModel, count: int,
                        rng: random.Random) -> VerifyResult:
    """(X.Y).Z = X.(Y.Z) on hyperplane-shaped triples in 3-dim models."""
    name = f"associativity[{model.name}]"
    if model.n != 3:
        return VerifyResult(name, False, 0, detail="needs a 3-dim model")
    done = 0
    guard = 0
    while done < count and guard < 120 * count:
        guard += 1
        x = random_cycle(model, rng, 1, max_components=1, integral=True)
        y = random_cycle(model, rng, 1, max_components=1, integral=True)
        z = random_cycle(model, rng, 1, max_components=1, integral=True)
        try:
            xy = intersect_model(model, x, y, rng)
            lhs = intersect_model(model, xy, z, rng)
            yz = intersect_model(model, y, z, rng)
            rhs = intersect_model(model, x, yz, rng)
        except OrbintError:
            continue
        if lhs != rhs:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"X={x!r} Y={y!r} Z={z!r}: "
                                               f"{lhs!r} vs {rhs!r}")
        done += 1
    if done < count:
        return VerifyResult(name, False, done, detail="sampling starved")
    return VerifyResult(name, True, count)


def projection_instances():
    """Supported (map, X, Y) triples for the projection formula, including
    the degree-2 self-map of the line and product-model projections."""
    t1m = model_trivial(1)
    t2m = model_trivial(2)
    a1 = model_a1()
    prod = model_product(a1, model_trivial(1))

    s = MultiPoly.var(QQ, t1m.uvars, "t1")
    ta, tb = (MultiPoly.var(QQ, t2m.uvars, v) for v in t2m.uvars)
    ua, va = (MultiPoly.var(QQ, a1.uvars, v) for v in a1.uvars)
    pu, pv, pt = (MultiPoly.var(QQ, prod.uvars, v) for v in prod.uvars)

    def cyc(model, gens_list, coeff=1):
        ring = model.uvars
        parts = []
        for gens in gens_list:
            parts.append((Ideal(model.field, ring, gens), coeff))
        return DownstairsCycle.from_upstairs_primes(model, parts)

    square = ModelMap(t1m, t1m, [s * s], name="square")
    ident = ModelMap.identity(t1m)
    projection = ModelMap(t2m, t1m, [ta], name="proj")
    quotient_map = ModelMap(t2m, a1, [ta, tb], name="q")
    prod_proj = ModelMap(prod, a1, [pu, pv], name="pr")

    whole_line = cyc(t1m, [[]])
    out = [
        (ident, cyc(t1m, [[]]), cyc(t1m, [[s - 2]])),
        (square, whole_line, cyc(t1m, [[s - 1]])),
        (square, whole_line, cyc(t1m, [[s - 2]])),
        (square, whole_line, cyc(t1m, [[s - 4]])),
        (square, whole_line, cyc(t1m, [[s + 9]])),
        (square, cyc(t1m, [[]], coeff=2), cyc(t1m, [[s - 1]])),
        (projection, cyc(t2m, [[tb - ta ** 2]]), cyc(t1m, [[s - 3]])),
        (projection, cyc(t2m, [[tb - ta]]), cyc(t1m, [[s + 1]])),
        (quotient_map, cyc(t2m, [[ta]]), cyc(a1, [[va]])),
        (quotient_map, cyc(t2m, [[ta - tb]]), cyc(a1, [[va]])),
        (prod_proj, cyc(prod, [[pu, pt]]), cyc(a1, [[va]])),
        (prod_proj, cyc(prod, [[pv, pt]]), cyc(a1, [[ua]])),
        (prod_proj, cyc(prod, [[pu - pv, pt - 1]]), cyc(a1, [[ua + va]])),
    ]
    return out


def check_projection_formula(count: int, rng: random.Random) -> VerifyResult:
    """f_*(X ._f Y) = f_*(X) . Y over the built-in instance list."""
    name = "projection-formula"
    instances = projection_instances()
    done = 0
    for fmap, x, y in instances:
        if done >= max(count, len(instances)):
            break
        try:
            xy = f_product(fmap, x, y, rng)
            lhs = pushforward_along_map(fmap, xy, rng) \
                if not xy.is_empty() else DownstairsCycle.empty(fmap.target)
            fx = pushforward_along_map(fmap, x, rng)
            rhs = intersect_model(fmap.target, fx, y, rng)
        except OrbintError as exc:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"{fmap!r} X={x!r} Y={y!r}: {exc}")
        if lhs != rhs:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"{fmap!r} X={x!r} Y={y!r}: "
                                               f"{lhs!r} vs {rhs!r}")
        done += 1
    passed = done >= min(count, len(instances)) and done > 0
    return VerifyResult(name, passed, done,
                        detail="" if passed else "not enough instances")


def check_eq8(count: int, rng: random.Random) -> VerifyResult:
    """X . Y = X ._P (P . Y) with P = A1 x {0} inside A1 x C."""
    name = "eq8-product-slice"
    a1 = model_a1()
    prod = model_product(a1, model_trivial(1))
    pu, pv, pt = (MultiPoly.var(QQ, prod.uvars, v) for v in prod.uvars)
    ua, va = (MultiPoly.var(QQ, a1.uvars, v) for v in a1.uvars)
    zero = MultiPoly.zero(QQ, a1.uvars)
    inclusion = ModelMap(a1, prod, [ua, va, zero], name="j")
    p_cycle = DownstairsCycle.from_upstairs_primes(
        prod, [(Ideal(QQ, prod.uvars, [pt]), 1)])

    def a1_cycle(gens, coeff=1):
        return DownstairsCycle.from_upstairs_primes(
            a1, [(Ideal(QQ, a1.uvars, gens), coeff)])

    def prod_cycle(gens, coeff=1):
        return DownstairsCycle.from_upstairs_primes(
            prod, [(Ideal(QQ, prod.uvars, gens), coeff)])

    instances = [
        (a1_cycle([ua]), prod_cycle([pv - 3])),
        (a1_cycle([va]), prod_cycle([pu - 1])),
        (a1_cycle([ua]), prod_cycle([pv - 1])),
        (a1_cycle([ua - va]), prod_cycle([pu + pv - 2])),
        (a1_cycle([ua], coeff=Fraction(3, 2)), prod_cycle([pv - 5])),
        (a1_cycle([va - 2]), prod_cycle([pu - 4])),
    ]
    done = 0
    for x, y in instances[:max(count, len(instances))]:
        try:
            jx = pushforward_along_map(inclusion, x, rng)
            lhs = intersect_model(prod, jx, y, rng)
            py = intersect_model(prod, p_cycle, y, rng)
            inner = f_product(inclusion, x, py, rng)
            rhs = pushforward_along_map(inclusion, inner, rng) \
                if not inner.is_empty() else DownstairsCycle.empty(prod)
        except OrbintError as exc:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"X={x!r} Y={y!r}: {exc}")
        if lhs != rhs:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"X={x!r} Y={y!r}: "
                                               f"{lhs!r} vs {rhs!r}")
        done += 1
    return VerifyResult(name, done >= min(count, len(instances)), done)


def check_conservation(rng: random.Random) -> VerifyResult:
    """The moving-family instance across the singular fibre: totals all 1."""
    name = "conservation-of-number"
    a1 = model_a1()
    ring = ("s",) + a1.uvars
    sv = MultiPoly.var(QQ, ring, "v")
    ss = MultiPoly.var(QQ, ring, "s")
    ua = MultiPoly.var(QQ, a1.uvars, "u")
    x = DownstairsCycle.from_upstairs_primes(
        a1, [(Ideal(QQ, a1.uvars, [ua]), 1)])
    fam = CycleFamily(a1, "s", [((sv - ss,), Fraction(1))],
                      (Fraction(-10), Fraction(10)))
    report = conservation_check(x, fam, [0, 1, 2, 3], rng)
    ok = report.conserved and all(t == 1 for t in report.totals)
    detail = "totals " + ", ".join(str(t) for t in report.totals)
    return VerifyResult(name, ok, len(report.samples), detail=detail)


def check_f_associativity(rng: random.Random) -> VerifyResult:
    """(X._fY)._{gof}Z = X._f(Y._gZ) on supported map chains."""
    name = "f-product-associativity"
    t1m = model_trivial(1)
    s = MultiPoly.var(QQ, t1m.uvars, "t1")
    square = ModelMap(t1m, t1m, [s * s], name="square")
    ident = ModelMap.identity(t1m)
    whole = DownstairsCycle.from_upstairs_primes(
        t1m, [(Ideal(QQ, t1m.uvars, []), 1)])

    def pt(a, coeff=1):
        return DownstairsCycle.from_upstairs_primes(
            t1m, [(Ideal(QQ, t1m.uvars, [s - a]), coeff)])

    chains = [
        # f = square, g = identity: composite = square
        (square, ident, square, whole, whole, pt(1)),
        (square, ident, square, whole, whole, pt(4)),
        # f = identity, g = square: composite = square
        (ident, square, square, whole, whole, pt(1)),
        (ident, square, square, whole, whole, pt(9)),
        # f = g = square: composite x -> x^4
        (square, square, ModelMap(t1m, t1m, [s ** 4], name="quartic"),
         whole, whole, pt(1)),
        (square, square, ModelMap(t1m, t1m, [s ** 4], name="quartic"),
         whole, whole, pt(16)),
    ]
    done = 0
    for f, g, gof, x, y, z in chains:
        try:
            xy = f_product(f, x, y, rng)
            lhs = f_product(gof, xy, z, rng)
            yz = f_product(g, y, z, rng)
            rhs = f_product(f, x, yz, rng)
        except OrbintError as exc:
            return VerifyResult(name, False, done + 1, counterexample=str(exc))
        if lhs != rhs:
            return VerifyResult(name, False, done + 1,
                                counterexample=f"{lhs!r} vs {rhs!r}")
        done += 1
    return VerifyResult(name, done == len(chains), done)


SUITES = {
    "pushpull": lambda model, count, rng: check_pushpull(model, count, rng),
    "eq4": lambda model, count, rng: check_eq4(model, count, rng),
    "commute": lambda model, count, rng: check_commutativity(model, count, rng),
    "assoc": lambda model, count, rng: check_associativity(model, count, rng),
}

GLOBAL_SUITES = {
    "projection": lambda count, rng: check_projection_formula(count, rng),
    "eq8": lambda count, rng: check_eq8(count, rng),
    "conservation": lambda count, rng: check_conservation(rng),
    "fassoc": lambda count, rng: check_f_associativity(rng),
}
