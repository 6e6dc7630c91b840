"""Linear algebra and univariate factorization against sympy, an independent
oracle.

sympy is used only here and only when installed; orbint does not depend
on it."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from orbint.arith import QQ, CycElem, CyclotomicField, UniPoly, _norm_poly, \
    determinant, factor_univariate, solve_linear

sympy = pytest.importorskip("sympy")

K3 = CyclotomicField(3)


def rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


def to_sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


def from_sympy(c):
    return Fraction(int(c.p), int(c.q))


def random_matrix(rng, nrows, ncols):
    rows = [[rational(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:     # a dependent row
        i, j = rng.sample(range(nrows), 2)
        c = rational(rng)
        rows[i] = [c * x for x in rows[j]]
    return rows


def test_determinant_matches_sympy():
    rng = random.Random("det")
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = random_matrix(rng, n, n)
        expected = sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).det()
        assert determinant(QQ, rows) == from_sympy(sympy.Rational(expected))


def test_solve_linear_matches_gauss_jordan_solve():
    rng = random.Random("solve")
    consistent = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, nrows, ncols)
        if rng.random() < 0.6:
            x0 = [rational(rng) for _ in range(ncols)]
            b = [sum((r * x for r, x in zip(row, x0)), Fraction(0)) for row in a]
        else:
            b = [rational(rng) for _ in range(nrows)]
        ours = solve_linear(QQ, a, b)
        matrix = sympy.Matrix([[to_sympy(x) for x in row] for row in a])
        try:
            sol, params = matrix.gauss_jordan_solve(
                sympy.Matrix([to_sympy(x) for x in b]))
        except ValueError:      # sympy: the system has no solution
            assert not ours.consistent
            continue
        consistent += 1
        assert ours.consistent
        # the particular solution is the one with every free parameter 0
        particular = sol.subs({p: 0 for p in params})
        assert ours.solution == tuple(from_sympy(c) for c in particular)
        assert len(ours.nullspace) == len(params)
    assert 10 < consistent < 60


def monic_rational(poly, x):
    p = sympy.Poly(poly, x, domain="QQ").monic()
    return tuple(from_sympy(c) for c in reversed(p.all_coeffs()))


def random_rational_poly(rng):
    f = UniPoly(QQ, [1])
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        g = UniPoly(QQ, [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [1])
        f = f * g * (g if rng.random() < 0.3 else UniPoly(QQ, [1]))
    return f


def test_factor_univariate_matches_factor_list_over_q():
    x = sympy.Symbol("x")
    rng = random.Random("factor-q")
    for _ in range(25):
        f = random_rational_poly(rng)
        ours = sorted((g.coeffs, m) for g, m in factor_univariate(f))
        expr = sum(to_sympy(c) * x ** i for i, c in enumerate(f.coeffs))
        _, factors = sympy.factor_list(expr, x)
        theirs = sorted((monic_rational(g, x), m) for g, m in factors)
        assert ours == theirs


def test_factor_univariate_matches_factor_list_over_q_zeta3():
    # Q(zeta3) = Q(sqrt(-3)) with zeta3 = (-1 + sqrt(-3)) / 2
    x = sympy.Symbol("x")
    root = sympy.sqrt(-3)
    zeta = (-1 + root) / 2
    domain = sympy.QQ.algebraic_field(root)

    def scalar(c):
        a, b = c.coords
        return to_sympy(a) + to_sympy(b) * zeta

    def as_poly(f):
        expr = sum(scalar(c) * x ** i for i, c in enumerate(f.coeffs))
        return sympy.Poly(expr, x, domain=domain).monic()

    rng = random.Random("factor-zeta3")
    for _ in range(15):
        f = UniPoly(K3, [1])
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            coeffs = [CycElem(K3, (Fraction(rng.randint(-3, 3)),
                                   Fraction(rng.randint(-3, 3))))
                      for _ in range(deg)]
            f = f * UniPoly(K3, coeffs + [K3.one])
        ours = [(as_poly(g), m) for g, m in factor_univariate(f)]
        _, factors = as_poly(f).factor_list()
        theirs = [(g.monic(), m) for g, m in factors]
        assert len(ours) == len(theirs)
        for g, m in theirs:
            assert (g, m) in ours


def test_norm_poly_matches_resultant_with_phi():
    """The Trager norm, a product of Galois conjugates, is
    Res_t(Phi_n(t), f(x - s*t)) because Phi_n is monic; a rational f at
    s = 0 gives f^phi(n)."""
    x, t = sympy.symbols("x t")
    rng = random.Random("norm")
    for n in (3, 4, 5, 8, 12):
        field = CyclotomicField(n)
        for case in range(6):
            deg = rng.randint(2, 4)
            if case == 0:       # rational coefficients
                zeros = [Fraction(0)] * (field.degree - 1)
                coords = [[Fraction(rng.randint(-3, 3))] + zeros for _ in range(deg)]
                s = 0
            else:
                coords = [[rational(rng) if rng.random() < 0.5 else Fraction(0)
                           for _ in range(field.degree)] for _ in range(deg)]
                s = rng.choice((0, 1, -1, 2))
            f = UniPoly(field, [CycElem(field, tuple(c)) for c in coords] + [1])
            shifted = sum(sum(to_sympy(c) * t ** i for i, c in enumerate(row))
                          * (x - s * t) ** k for k, row in enumerate(coords))
            shifted += (x - s * t) ** deg
            res = sympy.resultant(sympy.cyclotomic_poly(n, t), sympy.expand(shifted), t)
            expected = tuple(from_sympy(c) for c in
                             reversed(sympy.Poly(res, x, domain="QQ").all_coeffs()))
            assert _norm_poly(f, s).coeffs == expected
            if case == 0:
                rational_f = UniPoly(QQ, [c[0] for c in coords] + [1])
                assert _norm_poly(f, s) == reduce(lambda a, b: a * b,
                                                  [rational_f] * field.degree)
