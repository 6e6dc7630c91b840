"""Groebner kernel: bases, normal forms, elimination, dimension, quotients."""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbint import poly
from orbint.arith import QQ, CyclotomicField, char_poly
from orbint.budgets import Budget, using
from orbint.errors import EffortExceeded, NotZeroDimensional, UnitIdeal
from orbint.poly import (GREVLEX, LEX, Ideal, MultiPoly, RationalFn,
                         buchberger, mp_factor, mp_gcd, normal_form_list,
                         poly_div_exact)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def var(name, ring=XYZ):
    return MultiPoly.var(QQ, ring, name)


def ideal(gens, ring=XYZ):
    return Ideal(QQ, ring, gens)


x, y, z = (var(n) for n in XYZ)
x2, y2 = (var(n, XY) for n in XY)


# --- groebner ---------------------------------------------------------------

def test_groebner_principal():
    assert ideal([x]).groebner() == (x,)


def test_groebner_hand_buchberger():
    # S-poly of (y - x^2, y) is x^2, done by hand
    gb = ideal([y2 - x2 ** 2, y2], XY).groebner()
    assert gb == (y2, x2 ** 2)


def test_groebner_spoly_reduction():
    gb = ideal([x * y - z ** 2, x]).groebner()
    assert gb == (x, z ** 2)


def test_groebner_determinism_under_permutation():
    gens = [x * y - z ** 2, x - y ** 2, z * x - 1]
    base = buchberger(gens)
    rng = random.Random(3)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == base


def test_groebner_spolys_reduce_to_zero():
    gb = list(ideal([x * y - z ** 2, x - y ** 2]).groebner())
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            li, _ = gb[i].leading(GREVLEX)
            lj, _ = gb[j].leading(GREVLEX)
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            mi = MultiPoly(QQ, XYZ, {tuple(l - a for l, a in zip(lcm, li)): 1})
            mj = MultiPoly(QQ, XYZ, {tuple(l - a for l, a in zip(lcm, lj)): 1})
            s = mi * gb[i] - mj * gb[j]
            assert normal_form_list(s, gb).is_zero()


def test_effort_budget():
    tiny = Budget(max_pairs=1)
    gens = [x ** 3 - y * z, y ** 3 - x * z, z ** 3 - x * y, x * y * z - 1]
    with pytest.raises(EffortExceeded):
        buchberger(gens, budget=tiny)


# --- the Groebner memo -------------------------------------------------------

def _counting_buchberger(monkeypatch):
    calls = []
    real = poly.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(poly, "buchberger", counted)
    monkeypatch.setattr(poly, "_GB_MEMO", {})
    return calls


def test_equal_generators_share_one_groebner_run(monkeypatch):
    calls = _counting_buchberger(monkeypatch)
    gens = [x * y - z ** 2, x - y ** 2]
    first = ideal(gens).groebner()
    assert ideal([x * y - z ** 2, x - y ** 2]).groebner() is first
    assert len(calls) == 1
    ideal(gens).groebner(LEX)        # another order is another basis
    assert len(calls) == 2


def test_elimination_goes_through_the_memo(monkeypatch):
    calls = _counting_buchberger(monkeypatch)
    big = ideal([x * y - z ** 2, x - y ** 2])
    first = big.eliminate(["x", "z"])
    assert big.eliminate(["x", "z"]) == first
    assert len(calls) == 2           # the block-order basis, then grevlex
    assert len(calls) == len(poly._GB_MEMO)


def test_groebner_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(poly, "_GB_MEMO", {})
    for i in range(poly._GB_MEMO_SIZE + 40):
        assert ideal([x - i]).groebner() == (x - i,)
        assert len(poly._GB_MEMO) <= poly._GB_MEMO_SIZE
    assert len(poly._GB_MEMO) == poly._GB_MEMO_SIZE


def test_groebner_memo_evicts_the_least_recently_used(monkeypatch):
    calls = _counting_buchberger(monkeypatch)
    oldest = ideal([y - 1])
    oldest.groebner()
    for i in range(poly._GB_MEMO_SIZE - 1):
        ideal([x - i]).groebner()
        oldest.groebner()            # a hit moves it to the newest end
    ideal([x - poly._GB_MEMO_SIZE]).groebner()
    assert len(calls) == poly._GB_MEMO_SIZE + 1
    oldest.groebner()
    assert len(calls) == poly._GB_MEMO_SIZE + 1
    ideal([x]).groebner()            # x - 0 was evicted, so it runs again
    assert len(calls) == poly._GB_MEMO_SIZE + 2


def test_failed_groebner_runs_are_not_memoized(monkeypatch):
    monkeypatch.setattr(poly, "_GB_MEMO", {})
    hard = ideal([x ** 3 - y * z, y ** 3 - x * z, z ** 3 - x * y, x * y * z - 1])
    with pytest.raises(EffortExceeded), using(Budget(max_pairs=1)):
        hard.groebner()
    assert not poly._GB_MEMO


def test_groebner_memo_under_racing_threads(monkeypatch):
    # A small bound makes every thread evict while the others read and insert.
    monkeypatch.setattr(poly, "_GB_MEMO", {})
    monkeypatch.setattr(poly, "_GB_MEMO_SIZE", 4)
    errors = []

    def work(seed):
        try:
            for i in range(1500):
                j = (i * seed) % 6
                assert ideal([x - j]).groebner() == (x - j,)
                with poly._GB_LOCK:
                    assert len(poly._GB_MEMO) <= 4
        except Exception as exc:        # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in (1, 3, 7, 9, 11, 13)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_ideal_stores_no_basis():
    i = ideal([x, y])
    i.groebner()
    assert not hasattr(i, "_gb")
    assert vars(i).keys() == {"field", "vars", "gens"}


def test_term_order_key_is_cached_per_order():
    m = (2, 0, 1)
    assert GREVLEX.key(m) is GREVLEX.key(m)
    assert GREVLEX.key(m) == (3, (-1, 0, -2))
    assert LEX.key(m) == m
    block = poly.TermOrder("block", split=1)
    assert block.key(m) == ((2, (-2,)), (1, (-1, 0)))
    assert block == poly.TermOrder("block", split=1)
    assert hash(block) == hash(poly.TermOrder("block", split=1))


# --- normal form ------------------------------------------------------------

def test_normal_form_membership():
    i = ideal([x])
    assert i.normal_form(x ** 2).is_zero()
    assert i.normal_form(x + 1) == MultiPoly.const(QQ, XYZ, 1)


def test_normal_form_single_step():
    # z^2 against (xy - z^2) with z > x, y: one division step gives xy
    order = LEX  # under lex with x > y > z the LT of xy - z^2 is xy; use
    # an order where z^2 leads instead: grevlex ranks xy (deg 2) vs z^2
    # equal-degree, and reversed-exponent comparison makes xy lead.
    i = Ideal(QQ, ("z", "x", "y"),
              [MultiPoly.var(QQ, ("z", "x", "y"), "x")
               * MultiPoly.var(QQ, ("z", "x", "y"), "y")
               - MultiPoly.var(QQ, ("z", "x", "y"), "z") ** 2])
    zz = MultiPoly.var(QQ, ("z", "x", "y"), "z") ** 2
    nf = i.normal_form(zz, LEX)
    xy = (MultiPoly.var(QQ, ("z", "x", "y"), "x")
          * MultiPoly.var(QQ, ("z", "x", "y"), "y"))
    assert nf == xy


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_normal_form_linearity(coeffs):
    i = ideal([x * y - z ** 2, x - y ** 2])
    a, b, c, d = coeffs
    f = x * a + (y ** 2) * b
    g = z * c + (x * z) * d
    lhs = i.normal_form(f + g)
    rhs = i.normal_form(f) + i.normal_form(g)
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_membership_of_random_combinations(coeffs):
    gens = [x * y - z ** 2, x - y ** 2]
    i = ideal(gens)
    combo = gens[0] * (x * coeffs[0] + 1) + gens[1] * (z * coeffs[1] - y)
    assert i.contains(combo)
    assert i.normal_form(combo).is_zero()


# --- elimination -------------------------------------------------------------

def test_elimination_quadric_cone():
    ring = ("u", "v", "x", "y", "z")
    u, v, X, Y, Z = (MultiPoly.var(QQ, ring, n) for n in ring)
    graph = Ideal(QQ, ring, [X - u ** 2, Y - v ** 2, Z - u * v])
    out = graph.eliminate(["x", "y", "z"])
    xe, ye, ze = (MultiPoly.var(QQ, XYZ, n) for n in XYZ)
    assert out.groebner() == (xe * ye - ze ** 2,)


def test_elimination_surjection():
    ring = ("u", "x")
    u, X = (MultiPoly.var(QQ, ring, n) for n in ring)
    out = Ideal(QQ, ring, [X - u]).eliminate(["x"])
    assert out.groebner() == ()


def test_elimination_cubic():
    # hand oracle: substituting uv = z, u^3 = x, v^3 = y gives xy = z^3
    ring = ("u", "v", "x", "y", "z")
    u, v, X, Y, Z = (MultiPoly.var(QQ, ring, n) for n in ring)
    graph = Ideal(QQ, ring, [X - u ** 3, Y - v ** 3, Z - u * v])
    out = graph.eliminate(["x", "y", "z"])
    xe, ye, ze = (MultiPoly.var(QQ, XYZ, n) for n in XYZ)
    assert out.groebner() == ((ze ** 3 - xe * ye).monic(),)


# --- dimension ---------------------------------------------------------------

def test_dimension_point():
    assert ideal([x2, y2], XY).dimension() == 0


def test_dimension_curve():
    assert ideal([y2 - x2 ** 2], XY).dimension() == 1


def test_dimension_surface():
    # leading-term oracle: LT ideal of (xy - z^2) is (xy) under grevlex;
    # {x, z} and {y, z} are independent sets of size 2, none of size 3
    assert ideal([x * y - z ** 2]).dimension() == 2


def test_dimension_unit_ideal():
    with pytest.raises(UnitIdeal):
        ideal([x, x + 1]).dimension()


def test_dimension_zero_ideal():
    assert ideal([]).dimension() == 3


def _lt_supports(ideal_):
    return [{i for i, e in enumerate(g.leading(GREVLEX)[0]) if e}
            for g in ideal_.groebner()]


def test_independent_set_has_dimension_size_and_avoids_leading_terms():
    from orbint.quotient import model_a1, model_trivial
    from orbint.verify import random_prime
    rng = random.Random(5)
    checked = 0
    for model in (model_a1(), model_trivial(3)):
        for _ in range(12):
            ca = rng.randint(1, model.n - 1)
            s = (random_prime(model, rng, ca)
                 + random_prime(model, rng, rng.randint(1, model.n - ca)))
            if s.is_unit():
                assert s.independent_set() == ()
                continue
            indep = s.independent_set()
            assert len(indep) == s.dimension()
            chosen = {s.vars.index(v) for v in indep}
            supports = _lt_supports(s)
            assert not any(supp <= chosen for supp in supports)
            # no variable can be added: the set is maximal
            for extra in set(range(s.n)) - chosen:
                assert any(supp <= chosen | {extra} for supp in supports)
            checked += 1
    assert checked >= 10


def test_independent_set_of_unit_ideal_is_empty():
    assert ideal([x, x + 1]).independent_set() == ()


# --- quotient basis / multiplication matrices --------------------------------

def test_quotient_basis_point():
    basis = ideal([x2, y2], XY).quotient_basis()
    assert basis == [(0, 0)]


def test_quotient_basis_tangency():
    i = ideal([y2 - x2 ** 2, y2], XY)
    basis = i.quotient_basis()
    assert basis == [(0, 0), (1, 0)]
    assert len(basis) == 2


def test_quotient_basis_order_independent_cardinality():
    i = ideal([x2 ** 2 - 1, y2 ** 3 - x2], XY)
    grevlex_basis = i.quotient_basis(GREVLEX)
    lex_basis = i.quotient_basis(LEX)
    assert len(grevlex_basis) == len(lex_basis) == 6


def test_quotient_basis_requires_dimension_zero():
    with pytest.raises(NotZeroDimensional):
        ideal([y2 - x2 ** 2], XY).quotient_basis()


def test_multiplication_matrix_char_poly():
    i = ideal([x2 ** 2 - 1, y2], XY)
    m = i.multiplication_matrix(x2)
    assert char_poly(QQ, m).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    i2 = ideal([x2 ** 2, y2], XY)
    m2 = i2.multiplication_matrix(x2)
    assert char_poly(QQ, m2).coeffs == (Fraction(0), Fraction(0), Fraction(1))


def test_multiplication_matrix_point():
    i = ideal([x2, y2], XY)
    assert i.multiplication_matrix(x2) == [[Fraction(0)]]


# --- saturation ---------------------------------------------------------------

def test_saturate_strips_component():
    assert ideal([x2 * y2], XY).saturate(x2).groebner() == (y2,)


def test_saturate_unit():
    out = ideal([x2 ** 2], XY).saturate(x2)
    assert out.is_unit()


def test_saturate_curve():
    out = ideal([x2 * (y2 - x2 ** 2)], XY).saturate(x2)
    assert out.groebner() == ((x2 ** 2 - y2).monic(),)


# --- multivariate gcd / factorization ----------------------------------------

def test_mp_gcd():
    a = (x + y) * (x - y)
    b = (x + y) * (x + z)
    assert mp_gcd(a, b) == (x + y)


# The derivative whose gcd against den^2 once grew its pseudo-remainders'
# coefficients without bound: it ran for minutes instead of milliseconds.
_GCD_BLOWUP = """
from fractions import Fraction
from orbint.arith import QQ
from orbint.poly import MultiPoly, RationalFn
s, t = (MultiPoly.var(QQ, ("s", "t"), v) for v in ("s", "t"))
print(RationalFn(s + t * Fraction(1, 4), (t ** 2 + s) * (s * t - 2)).derivative(0))
"""


def test_mp_gcd_keeps_remainders_small_in_a_child_process():
    src = str(Path(poly.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _GCD_BLOWUP], capture_output=True,
                          text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    # -t (t^3 + 4 s^2 + 2 s t + 8 t - 2) / (4 (t^2 + s)^2 (s t - 2)^2)
    assert done.stdout.strip() == (
        "(-1/4*t^4 - s^2*t - 1/2*s*t^2 - 2*t^2 + 1/2*t)/(s^2*t^6 + 2*s^3*t^4"
        " + s^4*t^2 - 4*s*t^5 - 8*s^2*t^3 - 4*s^3*t + 4*t^4 + 8*s*t^2 + 4*s^2)")


def _planted_pairs(field, vs, rng, count):
    """(a, b, g) with a = g*p and b = g*q for seeded random g, p, q of small
    degree, the constant coefficients drawn from the field."""
    scalars = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]
    if field.is_cyclotomic:
        scalars += [field.generator, field.generator * 2 - 1]

    def rand(max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mon = [0] * len(vs)
            for _ in range(rng.randint(0, 2)):
                mon[rng.randrange(len(vs))] += 1
            terms[tuple(mon)] = rng.choice(scalars)
        return MultiPoly(field, vs, terms)

    out = []
    while len(out) < count:
        g, p, q = rand(3), rand(4), rand(4)
        if not (g.is_zero() or p.is_zero() or q.is_zero()):
            out.append((g * p, g * q, g))
    return out


def test_mp_gcd_matches_sympy_on_planted_factors_over_q():
    sympy = pytest.importorskip("sympy")
    vs = ("s", "t", "u")
    syms = sympy.symbols(vs)

    def to_sympy(f):
        expr = sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod([v ** e for v, e in zip(syms, m)])
                   for m, c in f.terms.items())
        return sympy.Poly(expr, *syms, domain="QQ")

    pairs = _planted_pairs(QQ, vs, random.Random("mp_gcd"), 40)
    for a, b, g in pairs:
        got = mp_gcd(a, b)
        assert to_sympy(got).monic() == sympy.gcd(to_sympy(a), to_sympy(b)).monic()
        assert poly_div_exact(got, g) is not None


def test_mp_gcd_on_planted_factors_over_q_zeta3():
    field = CyclotomicField(3)
    vs = ("s", "t", "u")
    for a, b, g in _planted_pairs(field, vs, random.Random("mp_gcd-zeta3"), 30):
        got = mp_gcd(a, b)
        assert got.leading(GREVLEX)[1] == field.one
        assert poly_div_exact(a, got) is not None
        assert poly_div_exact(b, got) is not None
        assert poly_div_exact(got, g) is not None


def test_mp_factor():
    p = (x + y) * (x - y) * (x + z) ** 2
    fac = mp_factor(p)
    assert sorted((f.total_degree(), m) for f, m in fac) == [(1, 1), (1, 1), (1, 2)]
    acc = MultiPoly.const(QQ, XYZ, 1)
    for f, m in fac:
        for _ in range(m):
            acc = acc * f
    assert acc.monic() == p.monic()


def test_mp_factor_univariate_embedded():
    p = x ** 2 - 1
    fac = mp_factor(p)
    assert {repr(f) for f, _ in fac} == {"x - 1", "x + 1"}


def test_poly_div_exact():
    assert poly_div_exact((x + y) * (x - z), x + y) == x - z
    assert poly_div_exact(x * y + 1, x) is None


# --- rational functions --------------------------------------------------------

def test_rational_fn_reduction():
    r = RationalFn(x * y, x)
    assert r.num == y
    assert r.den.is_constant()


def test_rational_fn_arithmetic():
    half = RationalFn(x, x * 2)
    assert half + half == RationalFn(MultiPoly.const(QQ, XYZ, 1))
    q = RationalFn(MultiPoly.const(QQ, XYZ, 1), x)
    assert (q * x) == RationalFn(MultiPoly.const(QQ, XYZ, 1))


def test_rational_fn_derivative():
    q = RationalFn(MultiPoly.const(QQ, XYZ, 1), x)
    dq = q.derivative(0)
    assert dq == RationalFn(MultiPoly.const(QQ, XYZ, -1), x ** 2)


# The arithmetic before the coprime-factor rules: every result is reduced by
# one full gcd in the public constructor.
_ALWAYS_GCD = {
    "+": lambda p, q: RationalFn(p.num * q.den + q.num * p.den, p.den * q.den),
    "-": lambda p, q: RationalFn(p.num * q.den - q.num * p.den, p.den * q.den),
    "*": lambda p, q: RationalFn(p.num * q.num, p.den * q.den),
    "/": lambda p, q: RationalFn(p.num * q.den, p.den * q.num),
}


def _random_fraction(rng, field, vs, factors, scalars, den=None):
    """A reduced fraction built from a small pool of factors, so that
    operands often share factors; `den` forces the denominator."""
    one = MultiPoly.const(field, vs, 1)
    num = MultiPoly.const(field, vs, rng.choice(scalars))
    if rng.random() < 0.15:
        num = MultiPoly.zero(field, vs)
    for f in rng.sample(factors, rng.randint(0, 2)):
        num = num * f
    if den is None:
        den = one * rng.choice(scalars)
        if rng.random() < 0.7:
            for f in rng.sample(factors, rng.randint(1, 2)):
                den = den * f
    return RationalFn(num, den)


@pytest.mark.parametrize("conductor", [None, 3])
def test_rational_fn_arithmetic_matches_always_gcd_reference(conductor):
    field = QQ if conductor is None else CyclotomicField(conductor)
    vs = ("s", "t")
    s, t = (MultiPoly.var(field, vs, v) for v in vs)
    scalars = [1, -2, Fraction(3, 5), Fraction(-1, 4)]
    if conductor is not None:
        zeta = field.generator
        scalars += [zeta, zeta * 2 + 1]
    factors = [s, t, s + 1, s - t * scalars[-1], s * t - 2, t * t + s]
    rng = random.Random(31)
    seen = {"zero": 0, "const_den": 0, "equal_den": 0, "shared": 0}

    def check(got, want):
        assert got.num.terms == want.num.terms
        assert got.den.terms == want.den.terms
        assert got.den.leading(GREVLEX)[1] == field.one

    for _ in range(150):
        p = _random_fraction(rng, field, vs, factors, scalars)
        same = rng.random() < 0.25
        q = _random_fraction(rng, field, vs, factors, scalars,
                             den=p.den if same else None)
        seen["zero"] += p.is_zero() or q.is_zero()
        seen["const_den"] += p.is_polynomial() or q.is_polynomial()
        seen["equal_den"] += p.den == q.den and not p.den.is_constant()
        seen["shared"] += (not mp_gcd(p.num, q.den).is_constant()
                           or not mp_gcd(q.num, p.den).is_constant())
        for op, got in (("+", p + q), ("-", p - q), ("*", p * q)):
            check(got, _ALWAYS_GCD[op](p, q))
        if not q.is_zero():
            check(p / q, _ALWAYS_GCD["/"](p, q))
        c = rng.choice(scalars + [0])
        check(p * c, RationalFn(p.num * c, p.den))
        check(c * p, RationalFn(p.num * c, p.den))
        check(p * q.num, _ALWAYS_GCD["*"](p, RationalFn(q.num)))
        check(p + c, _ALWAYS_GCD["+"](p, RationalFn(MultiPoly.const(field, vs, c))))
        for i in range(len(vs)):
            d = p.den
            check(p.derivative(i),
                  RationalFn(p.num.derivative(i) * d - p.num * d.derivative(i), d * d))
    assert min(seen.values()) >= 10, seen


def test_rational_fn_compares_with_every_scalar_it_lifts():
    k3 = CyclotomicField(3)
    for field in (QQ, k3):
        two = RationalFn(MultiPoly.const(field, XY, 2))
        assert two == 2 and two == Fraction(2) and two == field.coerce(2)
        assert two == k3.coerce(2)
        assert two != 3 and two != k3.coerce(3)
        assert two != RationalFn(x2)
    zeta = k3.generator
    rz = RationalFn(MultiPoly.const(k3, XY, zeta))
    assert rz == zeta and zeta == rz
    assert rz != zeta * zeta and rz != 1
    # over QQ a scalar outside the field is simply unequal
    assert RationalFn(MultiPoly.const(QQ, XY, 1)) != zeta
    assert RationalFn(MultiPoly.const(QQ, XY, 1)) != CyclotomicField(5).generator


def test_rational_fn_hash_agrees_with_eq():
    k3 = CyclotomicField(3)
    for field in (QQ, k3):
        scalars = [0, 2, Fraction(-3, 4), field.coerce(5)]
        if field is k3:
            scalars += [k3.generator, k3.generator * 2 + 1]
        for c in scalars:
            const = MultiPoly.const(field, XY, c)
            r = RationalFn(const)
            for other in (c, const, RationalFn(const * 2) / 2):
                assert r == other
                assert hash(r) == hash(other)
        p = MultiPoly.var(field, XY, "x") + 1
        assert RationalFn(p) == p and hash(RationalFn(p)) == hash(p)
        assert len({RationalFn(MultiPoly.const(field, XY, 2)), 2,
                    MultiPoly.const(field, XY, 2)}) == 1


def test_mp_gcd_with_a_constant_is_one_without_contents(monkeypatch):
    calls = []
    real = poly._content_in
    monkeypatch.setattr(poly, "_content_in",
                        lambda *args: calls.append(args) or real(*args))
    one = MultiPoly.const(QQ, XYZ, 1)
    for a, b in ((one * 3, (x + y) * z), ((x + y) * z, one * Fraction(-1, 2))):
        assert mp_gcd(a, b) == one
        assert mp_gcd(a, b).terms[(0, 0, 0)] == 1
    assert calls == []
    assert mp_gcd(MultiPoly.zero(QQ, XYZ), x * 2) == x


# --- radical / minimal polynomials ---------------------------------------------

def test_zero_dim_radical():
    i = ideal([x2 ** 2, y2 - 1], XY)
    rad = i.radical_zero_dim()
    assert rad.groebner() == ((y2 - 1).monic(), x2)


def test_minimal_polynomial():
    i = ideal([x2 ** 2 - 2, y2], XY)
    mp = i.minimal_polynomial_of(x2)
    assert mp.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
