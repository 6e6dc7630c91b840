"""Exact scalars, univariate factorization, and linear algebra."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from orbint.arith import (CycElem, CyclotomicField, QQ, UniPoly, char_poly,
                          cyclotomic_polynomial, determinant,
                          factor_univariate, solve_linear,
                          squarefree_decomposition)
from orbint.budgets import Budget
from orbint.errors import DegreeTooLarge

K3 = CyclotomicField(3)
K4 = CyclotomicField(4)

# degrees 1, 2, 2, 4, 4, 4: inverses with zero, one and three conjugates
CONDUCTORS = (2, 3, 4, 5, 8, 12)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def coord_lists(field):
    return st.lists(rationals, min_size=field.degree, max_size=field.degree)


def cyc_elems(field):
    return coord_lists(field).map(lambda cs: CycElem(field, tuple(cs)))


# --- field axioms -----------------------------------------------------------

@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cyclotomic_ring_axioms(conductor, data):
    field = CyclotomicField(conductor)
    a, b, c = (data.draw(cyc_elems(field)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == 0


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclotomic_inverse(conductor, data):
    a = data.draw(cyc_elems(CyclotomicField(conductor)))
    if a:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cyclotomic_coords_round_trip(conductor, data):
    field = CyclotomicField(conductor)
    coords = tuple(data.draw(coord_lists(field)))
    a = CycElem(field, coords)
    assert a.coords == coords
    assert CycElem(field, a.coords) == a


def test_cyclotomic_lowest_terms():
    a = CycElem(K3, (Fraction(2, 4), Fraction(3, 6)))
    assert a.coords == (Fraction(1, 2), Fraction(1, 2))
    assert (a.num, a.den) == ((1, 1), 2)
    assert (a + a).den == 1
    assert (K3.zero.num, K3.zero.den) == ((0, 0), 1)


@settings(max_examples=40, deadline=None)
@given(rationals)
def test_rational_cyclotomic_hash(q):
    for field in (K3, K4, CyclotomicField(5)):
        assert hash(field.coerce(q)) == hash(q)
        assert field.coerce(q) == q


def test_canonical_forms_unique():
    z = K3.generator
    # zeta^2 reduces against Phi_3 = t^2 + t + 1
    assert z * z == -1 - z
    assert z ** 3 == 1
    assert hash(K3.coerce(Fraction(1, 2))) == hash(Fraction(1, 2))
    # conductor 4: zeta = i
    i = K4.generator
    assert i * i == -1


def test_cyclotomic_power_multiplies_from_its_base(monkeypatch):
    z = K3.generator
    w = z + 2
    inv = w.inverse()
    real_mul = CycElem.__mul__
    calls = []

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(CycElem, "__mul__", counting_mul)
    monkeypatch.setattr(CycElem, "__rmul__", counting_mul)
    for exp, cost in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        power = w ** exp
        assert len(calls) == cost, exp
        calls.clear()
        assert power == reduce(real_mul, [w] * exp, K3.one)
    assert w ** 0 == K3.one
    assert w ** -1 == inv and w ** -3 == inv * inv * inv
    assert z ** -1 == z * z


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_polynomial(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic_polynomial(3) == [Fraction(1)] * 3
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1), Fraction(1)]


# --- factorization ----------------------------------------------------------

def poly(coeffs, field=QQ):
    return UniPoly(field, coeffs)


def evaluate(p: UniPoly, value):
    """p(value) by Horner's rule."""
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def multiply_back(factors, field=QQ):
    acc = UniPoly(field, [1])
    for f, m in factors:
        for _ in range(m):
            acc = acc * f
    return acc


def rational_root_candidates(p: UniPoly):
    """Independent oracle: all rational roots lie among +-(divisors of the
    constant term over divisors of the leading coefficient)."""
    const = p.coeffs[0]
    lead = p.coeffs[-1]
    if not const:
        return {Fraction(0)}
    nums = [d for d in range(1, abs(const.numerator * const.denominator) + 1)
            if (const.numerator * const.denominator) % d == 0]
    dens = [d for d in range(1, abs(lead.numerator * lead.denominator) + 1)
            if (lead.numerator * lead.denominator) % d == 0]
    out = set()
    for n in nums:
        for d in dens:
            out.add(Fraction(n, d))
            out.add(Fraction(-n, d))
    return out


def test_difference_of_squares():
    fac = factor_univariate(poly([-1, 0, 1]))
    assert fac == [(poly([-1, 1]), 1), (poly([1, 1]), 1)]


def test_sum_of_squares_irreducible():
    assert factor_univariate(poly([1, 0, 1])) == [(poly([1, 0, 1]), 1)]


def test_cube_root_of_two_irreducible():
    p = poly([-2, 0, 0, 1])
    # oracle: no rational root among the divisor candidates, and a cubic
    # with no rational root is irreducible
    assert all(evaluate(p, r) != 0 for r in rational_root_candidates(p))
    assert factor_univariate(p) == [(p, 1)]


def test_multiplicities():
    p = poly([0, 0, 1]) * poly([-1, 1]) * poly([-1, 1])
    fac = factor_univariate(p)
    assert fac == [(poly([-1, 1]), 2), (poly([0, 1]), 2)]


def test_swinnerton_dyer_recombination():
    # x^4 - 10x^2 + 1 factors into quadratics modulo every prime but is
    # irreducible over Q; exercises subset recombination
    p = poly([1, 0, -10, 0, 1])
    assert factor_univariate(p) == [(p, 1)]


def test_quartic_with_two_quadratic_factors():
    p = poly([1, 1, 1]) * poly([4, -2, 1])
    fac = factor_univariate(p)
    assert fac == [(poly([1, 1, 1]), 1), (poly([4, -2, 1]), 1)]


def test_degree_bound():
    p = poly([1] + [0] * 64 + [1])  # x^65 + 1
    with pytest.raises(DegreeTooLarge):
        factor_univariate(p, Budget(degree_bound=64))


def test_factor_over_cyclotomic_splits():
    z = K3.generator
    # x^2 + x + 1 = (x - zeta)(x - zeta^2) over Q(zeta_3)
    f = UniPoly(K3, [1, 1, 1])
    fac = factor_univariate(f)
    assert len(fac) == 2
    assert multiply_back(fac, K3).monic() == f.monic()
    roots = [(-g.coeffs[0]) for g, _ in fac]
    assert {roots[0], roots[1]} == {z, z * z}


def test_trager_skips_the_zero_shift_on_rational_pieces(monkeypatch):
    from orbint import arith
    calls = []
    real = arith._norm_poly

    def recording(f, s):
        calls.append((all(c.is_rational() for c in f.coeffs), s))
        return real(f, s)

    monkeypatch.setattr(arith, "_norm_poly", recording)
    z = K3.generator
    # x^2 + x + 1 = (x - zeta)(x + 1 + zeta); x^4 + 1 stays irreducible
    assert factor_univariate(UniPoly(K3, [1, 1, 1])) == \
        [(UniPoly(K3, [-z, 1]), 1), (UniPoly(K3, [1 + z, 1]), 1)]
    x4_plus_1 = UniPoly(K3, [1, 0, 0, 0, 1])
    assert factor_univariate(x4_plus_1) == [(x4_plus_1, 1)]
    assert calls and all(rational for rational, _ in calls)
    assert (True, 0) not in calls


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                          st.integers(1, 3)),
                min_size=1, max_size=3))
def test_factor_multiply_back(spec):
    factors = [poly([a, b, c]) for a, b, c in spec]
    product = reduce(lambda x, y: x * y, factors)
    if product.degree < 1:
        return
    fac = factor_univariate(product)
    assert multiply_back(fac).monic() == product.monic()
    # irreducibility self-check: no factor splits against candidate roots,
    # except through genuine linear factors it already exposes
    for f, _ in fac:
        if f.degree > 1:
            assert all(evaluate(f, r) != 0 for r in rational_root_candidates(f))


def test_squarefree_decomposition():
    p = poly([0, 0, 1]) * poly([-1, 1]) * poly([-1, 1])
    parts = squarefree_decomposition(p)
    assert parts == [(poly([0, -1, 1]), 2)]


# --- linear algebra ---------------------------------------------------------

def test_solve_identity():
    sol = solve_linear(QQ, [[1, 0], [0, 1]], [5, 7])
    assert sol.consistent
    assert sol.solution == (Fraction(5), Fraction(7))
    assert sol.nullspace == ()


def test_solve_rank_one():
    sol = solve_linear(QQ, [[1, 1], [2, 2]], [1, 2])
    assert sol.consistent
    x, y = sol.solution
    assert x + y == 1
    assert len(sol.nullspace) == 1
    nx, ny = sol.nullspace[0]
    assert nx + ny == 0 and (nx, ny) != (0, 0)


def test_solve_inconsistent_witness():
    sol = solve_linear(QQ, [[1, 1], [2, 2]], [1, 3])
    assert not sol.consistent
    assert sol.solution is None
    assert sol.witness in (0, 1)


def test_solve_over_extension():
    z = K3.generator
    sol = solve_linear(K3, [[z, 1], [1, z]], [1, 0])
    assert sol.consistent
    a, b = sol.solution
    assert z * a + b == 1 and a + z * b == 0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(QQ, [[1, 0]], [1, 2])


def test_char_poly():
    assert char_poly(QQ, [[0, 1], [1, 0]]) == poly([-1, 0, 1])
    assert char_poly(QQ, [[0, 0], [1, 0]]) == poly([0, 0, 1])
    assert char_poly(QQ, [[2]]) == poly([-2, 1])


def test_determinant():
    assert determinant(QQ, [[1, 2], [3, 4]]) == Fraction(-2)
    z = K3.generator
    assert determinant(K3, [[z, 0], [0, z * z]]) == 1


# --- the integer elimination kernel -----------------------------------------
# Seeded random systems over Q and Q(zeta_n), n = 3, 4, 5, 8, 12, checked
# against a plain Gauss-Jordan reference and a cofactor determinant written
# here.  Degrees 4 (n = 5, 8, 12) have three nontrivial Galois conjugates, so
# an exact division by anything but the full norm fails there.

KERNEL_FIELDS = [QQ] + [CyclotomicField(n) for n in (3, 4, 5, 8, 12)]


def random_scalar(field, rng):
    if rng.random() < 0.35:
        return field.zero
    coords = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
              for _ in range(1 if field == QQ else field.degree)]
    return coords[0] if field == QQ else CycElem(field, tuple(coords))


def random_system(field, rng):
    """A x = b with non-integral entries; some systems have zero rows or
    columns, rank below min(rows, cols), more rows than columns, or an
    inconsistent right-hand side."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
    if rng.random() < 0.4:     # rank deficient: combinations of a few rows
        base = [[random_scalar(field, rng) for _ in range(ncols)]
                for _ in range(rng.randint(1, max(1, min(nrows, ncols) - 1)))]
        a = []
        for _ in range(nrows):
            coeffs = [random_scalar(field, rng) for _ in base]
            a.append([sum((c * row[j] for c, row in zip(coeffs, base)), field.zero)
                      for j in range(ncols)])
    else:
        a = [[random_scalar(field, rng) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.2:
        a[rng.randrange(nrows)] = [field.zero] * ncols
    if rng.random() < 0.2:
        zero_col = rng.randrange(ncols)
        for row in a:
            row[zero_col] = field.zero
    if rng.random() < 0.5:
        x0 = [random_scalar(field, rng) for _ in range(ncols)]
        b = [dot(field, row, x0) for row in a]
    else:
        b = [random_scalar(field, rng) for _ in range(nrows)]
    return a, b


def dot(field, row, x):
    return sum((field.coerce(r) * field.coerce(v) for r, v in zip(row, x)), field.zero)


def reference_rank(field, rows):
    """Rank by Gauss-Jordan with field division."""
    m = [[field.coerce(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c].inverse() if field != QQ else 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def free_columns(field, a):
    """Columns that do not raise the rank of the columns before them."""
    ncols = len(a[0])
    ranks = [reference_rank(field, [row[:c] for row in a]) if c else 0
             for c in range(ncols + 1)]
    return [c for c in range(ncols) if ranks[c + 1] == ranks[c]]


def cofactor_det(field, m):
    if len(m) == 1:
        return field.coerce(m[0][0])
    total = field.zero
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = field.coerce(x) * cofactor_det(field, minor)
            total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_solve_linear_random_systems(field):
    rng = random.Random(f"solve:{field!r}")
    seen_inconsistent = seen_free = 0
    for _ in range(60):
        a, b = random_system(field, rng)
        sol = solve_linear(field, a, b)
        augmented = [row + [rhs] for row, rhs in zip(a, b)]
        rank = reference_rank(field, a)
        if not sol.consistent:
            seen_inconsistent += 1
            assert sol.solution is None and sol.nullspace == ()
            assert reference_rank(field, augmented) > rank
            # the witness row's coefficients are a combination of the other
            # rows, so an inconsistency certificate y (y A = 0, y b != 0)
            # uses it: the witness row cannot be satisfied with the others
            others = a[:sol.witness] + a[sol.witness + 1:]
            assert (reference_rank(field, others) if others else 0) == rank
            continue
        assert reference_rank(field, augmented) == rank
        x = sol.solution
        assert all(dot(field, row, x) == rhs for row, rhs in zip(a, b))
        free = free_columns(field, a)
        seen_free += bool(free)
        assert all(x[f] == 0 for f in free)
        assert len(sol.nullspace) == len(free) == len(a[0]) - rank
        for f, v in zip(free, sol.nullspace):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            assert all(dot(field, row, v) == 0 for row in a)
    assert seen_inconsistent and seen_free


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_determinant_matches_cofactor_expansion(field):
    rng = random.Random(f"det:{field!r}")
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[random_scalar(field, rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:     # singular: a repeated row
            m[rng.randrange(n)] = list(m[rng.randrange(n)])
        assert determinant(field, m) == cofactor_det(field, m)


def test_factor_over_gaussian_extension():
    # conductor 4: x^2 + 1 = (x - i)(x + i)
    i = K4.generator
    f = UniPoly(K4, [1, 0, 1])
    fac = factor_univariate(f)
    assert len(fac) == 2
    roots = {-g.coeffs[0] for g, _ in fac}
    assert roots == {i, -i}
