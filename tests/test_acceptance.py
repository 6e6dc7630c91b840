"""Acceptance criteria, one test per criterion, every equality exact.

Each test prints a PASS/FAIL line (visible with `pytest -s` or on failure)
and enforces the stated runtime budget where one is given.
"""

import random
import time
from fractions import Fraction

import pytest

from orbint.arith import QQ
from orbint.cycle import (CycleFamily, DownstairsCycle, UpstairsCycle,
                          conservation_check, intersect_model, pullback,
                          pushforward)
from orbint.forms import (DiffForm, downstairs_equal, q_pullback,
                          trace_form, wedge)
from orbint.poly import Ideal, MultiPoly, RationalFn
from orbint.quotient import norm_polynomial
from orbint.cycle import principal_divisor
from orbint.errors import OrbintError
from orbint.verify import (check_associativity, check_commutativity,
                           check_eq4, check_eq8, check_projection_formula,
                           check_pushpull, random_cycle)


def _report(num, passed, detail):
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def up(model, name):
    return MultiPoly.var(model.field, model.uvars, name)


def prime(model, *gens):
    return Ideal(model.field, model.uvars, list(gens))


def cyc(model, *parts):
    return DownstairsCycle.from_upstairs_primes(model, list(parts))


def test_criterion_1_paper_intersection(a1):
    """X . Y = (1/2).{origin} on the quadric cone, exactly, in under 1s."""
    x = cyc(a1, (prime(a1, up(a1, "u")), 1))
    y = cyc(a1, (prime(a1, up(a1, "v")), 1))
    start = time.monotonic()
    out = intersect_model(a1, x, y)
    elapsed = time.monotonic() - start
    expected = cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), Fraction(1, 2)))
    _report(1, out == expected and elapsed < 1.0,
            f"X.Y = {out!r} in {elapsed:.3f}s")


def test_criterion_2_pullback_pushforward_substeps(a1):
    """q*X is the reduced line, q*{0} = 2.{0}, q_*(1.{0}) = 1.{0}."""
    u, v = up(a1, "u"), up(a1, "v")
    x = cyc(a1, (prime(a1, u), 1))
    line_ok = pullback(a1, x) == UpstairsCycle(QQ, a1.uvars,
                                               [(prime(a1, u), 1)])
    origin_down = cyc(a1, (prime(a1, u, v), 1))
    doubling_ok = pullback(a1, origin_down) == \
        UpstairsCycle(QQ, a1.uvars, [(prime(a1, u, v), Fraction(2))])
    push_ok = pushforward(
        a1, UpstairsCycle(QQ, a1.uvars, [(prime(a1, u, v), 1)])) == origin_down
    _report(2, line_ok and doubling_ok and push_ok,
            f"reduced line {line_ok}, origin doubling {doubling_ok}, "
            f"push {push_ok}")


def test_criterion_3_trace_identities(a1):
    """trace(q^ alpha) = 2 alpha for dx, dx/x, dy/y, dx^dy/z; < 1s each."""
    x, y, z = (MultiPoly.var(QQ, a1.yvars, n) for n in a1.yvars)
    one = MultiPoly.const(QQ, a1.yvars, 1)
    dx = DiffForm(QQ, a1.yvars, 1, {(0,): RationalFn(one)})
    dy = DiffForm(QQ, a1.yvars, 1, {(1,): RationalFn(one)})
    samples = [
        dx,
        dx.scale(RationalFn(one, x)),
        dy.scale(RationalFn(one, y)),
        wedge(dx, dy).scale(RationalFn(one, z)),
    ]
    results = []
    for alpha in samples:
        start = time.monotonic()
        traced = trace_form(a1, q_pullback(a1, alpha))
        elapsed = time.monotonic() - start
        ok = downstairs_equal(a1, traced, alpha.scale(2)) and elapsed < 1.0
        results.append((alpha, ok, elapsed))
    _report(3, all(ok for _, ok, _ in results),
            "; ".join(f"{a!r}: {'ok' if ok else 'fail'} {t:.3f}s"
                      for a, ok, t in results))


def test_criterion_4_pushpull_is_degree(a1, a2, prod_a1_t1):
    """q_* q^* = k.id on 200 randomized cycles per catalog model; < 60s."""
    rng = random.Random(4)
    start = time.monotonic()
    results = [check_pushpull(model, 200, rng)
               for model in (a1, a2, prod_a1_t1)]
    elapsed = time.monotonic() - start
    _report(4, all(r.passed for r in results) and elapsed < 60.0,
            "; ".join(r.line() for r in results) + f" in {elapsed:.1f}s")


def test_criterion_5_eq4_suite(a1, a2, trivial3, prod_a1_t1):
    """pullback(X.Y) equals the upstairs intersection on >= 50 proper pairs."""
    rng = random.Random(5)
    plan = [(a1, 20), (a2, 10), (trivial3, 10), (prod_a1_t1, 10)]
    results = [check_eq4(model, count, rng) for model, count in plan]
    total = sum(r.count for r in results)
    _report(5, all(r.passed for r in results) and total >= 50,
            "; ".join(r.line() for r in results))


def test_criterion_6_commutativity_associativity(trivial3, prod_a1_t1):
    """Exact commutativity on >= 50 pairs and associativity on >= 10
    triples in trivial-3 and product(A1, trivial-1)."""
    rng = random.Random(6)
    pair_results = [check_commutativity(trivial3, 25, rng),
                    check_commutativity(prod_a1_t1, 25, rng)]
    triple_results = [check_associativity(trivial3, 5, rng),
                      check_associativity(prod_a1_t1, 5, rng)]
    pairs = sum(r.count for r in pair_results)
    triples = sum(r.count for r in triple_results)
    ok = (all(r.passed for r in pair_results + triple_results)
          and pairs >= 50 and triples >= 10)
    _report(6, ok, "; ".join(r.line() for r in pair_results + triple_results))


def test_criterion_7_projection_formula():
    """f_*(X ._f Y) = f_*(X) . Y on >= 10 supported instances."""
    result = check_projection_formula()
    _report(7, result.passed and result.count >= 10, result.line())


def test_criterion_8_product_slice():
    """X . Y = X ._P (P . Y) with P = A1 x {0} inside A1 x C, >= 5 instances."""
    result = check_eq8()
    _report(8, result.passed and result.count >= 5, result.line())


def test_criterion_9_conservation_of_number(a1):
    """Total intersection numbers of X . Y_s equal 1 at s in {0,1,2,3}."""
    ring = ("s",) + a1.uvars
    sv = MultiPoly.var(QQ, ring, "v")
    ss = MultiPoly.var(QQ, ring, "s")
    fam = CycleFamily(a1, "s", [((sv - ss,), Fraction(1))],
                      (Fraction(-10), Fraction(10)))
    x = cyc(a1, (prime(a1, up(a1, "u")), 1))
    report = conservation_check(x, fam, [0, 1, 2, 3])
    ok = report.conserved and all(t == 1 for t in report.totals)
    _report(9, ok, "totals " + ", ".join(str(t) for t in report.totals))


def test_criterion_10_positivity_and_condition_d(a1, a2, trivial3, prod_a1_t1):
    """All outputs have positive rational coefficients; k.(output on
    integral inputs) is integral.  Positivity is structural (construction
    rejects nonpositive coefficients), so this drives a fresh batch of
    integral-input intersections and checks the scaled integrality."""
    rng = random.Random(10)
    from orbint.cycle import is_proper
    checked = 0
    skipped = 0
    for model in (a1, a2, trivial3, prod_a1_t1):
        attempts = 0
        while checked < 40 * 4 and attempts < 400:
            attempts += 1
            cx = rng.randint(1, model.n - 1)
            x = random_cycle(model, rng, cx, integral=True)
            y = random_cycle(model, rng, model.n - cx, integral=True)
            if not is_proper(model, x, y).proper:
                continue
            try:
                out = intersect_model(model, x, y)
            except OrbintError:
                skipped += 1
                continue
            assert all(c > 0 for _, c in out.components)
            assert out.scale(model.k).is_integral()
            checked += 1
            if checked % 40 == 0:
                break
    _report(10, checked >= 100,
            f"{checked} integral-input intersections, all positive, "
            f"k.output integral; {skipped} pairs skipped on engine errors")


def test_criterion_11_q_cartier_norm(a1):
    """The downstairs divisor of norm(u) equals 2.X exactly."""
    u = up(a1, "u")
    h = norm_polynomial(a1, u)
    div = principal_divisor(a1, h)
    x = cyc(a1, (prime(a1, u), 1))
    _report(11, div == x.scale(2), f"divisor of {h!r} = {div!r}")
