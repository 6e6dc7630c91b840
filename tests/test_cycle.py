"""Cycle calculus: quotient pull/push, intersections, maps, families."""

import inspect
import random
import types
from fractions import Fraction

import pytest

from orbint import budgets, cycle as cycle_module, scene as scene_module
from orbint.arith import QQ, CyclotomicField, char_poly, factor_univariate
from orbint.cycle import (CycleFamily, DownstairsCycle, ModelMap, OrbitClass,
                          UpstairsCycle, _prime_cycle, conservation_check,
                          f_product, intersect_model, intersect_upstairs,
                          is_proper, principal_divisor, pullback,
                          pullback_along_map, pushforward,
                          pushforward_along_map, specialize, split_clusters,
                          total_intersection_number)
from orbint.errors import (NotProper, PositiveDimensionalIntersection,
                           SeparationFailure, SpecializationDegenerate,
                           UnsupportedPreimageShape)
from orbint.poly import Ideal, MultiPoly
from orbint.quotient import model_trivial, norm_polynomial


def up(model, name):
    return MultiPoly.var(model.field, model.uvars, name)


def prime(model, *gens):
    return Ideal(model.field, model.uvars, list(gens))


def cyc(model, *parts):
    return DownstairsCycle.from_upstairs_primes(model, list(parts))


@pytest.fixture
def paper(a1):
    u, v = up(a1, "u"), up(a1, "v")
    x = cyc(a1, (prime(a1, u), 1))
    y = cyc(a1, (prime(a1, v), 1))
    return a1, x, y


# --- orbit bookkeeping --------------------------------------------------------

def test_orbit_class_stabilized_line(a1):
    o = OrbitClass.of(a1, prime(a1, up(a1, "u")))
    assert (o.orbit_size, o.stab_order, o.inertia_order) == (1, 2, 1)


def test_orbit_class_origin(a1):
    o = OrbitClass.of(a1, prime(a1, up(a1, "u"), up(a1, "v")))
    assert (o.orbit_size, o.stab_order, o.inertia_order) == (1, 2, 2)


def test_orbit_class_moving_line(a1):
    o = OrbitClass.of(a1, prime(a1, up(a1, "v") - 1))
    assert (o.orbit_size, o.stab_order, o.inertia_order) == (2, 1, 1)
    assert o.inertia_order <= o.stab_order
    assert o.orbit_size * o.stab_order == a1.k


# --- pullback / pushforward -----------------------------------------------------

def test_pullback_reduced_line(paper):
    a1, x, _ = paper
    res = pullback(a1, x)
    assert res == UpstairsCycle(QQ, a1.uvars, [(prime(a1, up(a1, "u")), 1)])


def test_pullback_origin_doubles(a1):
    origin = cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), 1))
    res = pullback(a1, origin)
    assert res == UpstairsCycle(QQ, a1.uvars,
                                [(prime(a1, up(a1, "u"), up(a1, "v")),
                                  Fraction(2))])


def test_pullback_free_orbit(a1):
    v = up(a1, "v")
    w = cyc(a1, (prime(a1, v - 1), 1))
    res = pullback(a1, w)
    assert res == UpstairsCycle(QQ, a1.uvars, [(prime(a1, v - 1), 1),
                                               (prime(a1, v + 1), 1)])


def test_pushforward_origin(a1):
    z = UpstairsCycle(QQ, a1.uvars,
                      [(prime(a1, up(a1, "u"), up(a1, "v")), 1)])
    res = pushforward(a1, z)
    assert res == cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), 1))


def test_pushforward_line_degree_two(paper):
    a1, x, _ = paper
    z = UpstairsCycle(QQ, a1.uvars, [(prime(a1, up(a1, "u")), 1)])
    assert pushforward(a1, z) == x.scale(2)


def test_pushforward_merges_orbit(a1):
    v = up(a1, "v")
    z = UpstairsCycle(QQ, a1.uvars, [(prime(a1, v - 1), 1),
                                     (prime(a1, v + 1), 1)])
    res = pushforward(a1, z)
    assert res == cyc(a1, (prime(a1, v - 1), 2))


def test_pushpull_is_degree(paper):
    a1, x, y = paper
    for c in (x, y, x + y.scale(Fraction(1, 3))):
        assert pushforward(a1, pullback(a1, c)) == c.scale(a1.k)


# --- properness -----------------------------------------------------------------

def test_proper_pair(paper):
    a1, x, y = paper
    rep = is_proper(a1, x, y)
    assert rep.proper and (rep.codim_x, rep.codim_y) == (1, 1)


def test_self_intersection_not_proper(paper):
    a1, x, _ = paper
    assert not is_proper(a1, x, x).proper


def test_disjoint_is_proper(a1):
    u = up(a1, "u")
    x = cyc(a1, (prime(a1, u), 1))
    y = cyc(a1, (prime(a1, u - 1), 1))
    rep = is_proper(a1, x, y)
    assert rep.proper


# --- cluster splitting ------------------------------------------------------------

def test_split_transversal(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    clusters = split_clusters(prime(trivial2, t1, t2))
    assert len(clusters) == 1
    c = clusters[0]
    assert (c.residue_degree, c.multiplicity) == (1, 1)


def test_split_tangency(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    j = prime(trivial2, t2 - t1 ** 2) + prime(trivial2, t2)
    # oracle: the quotient algebra has vector-space dimension 2
    assert len(j.quotient_basis()) == 2
    clusters = split_clusters(j)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 2
    assert clusters[0].residue_degree == 1


def test_split_two_points(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    j = prime(trivial2, t2 - t1 ** 2) + prime(trivial2, t2 - 1)
    clusters = split_clusters(j)
    got = sorted((c.residue_degree, c.multiplicity) for c in clusters)
    assert got == [(1, 1), (1, 1)]


def test_split_irrational_cluster(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    j = prime(trivial2, t1 ** 2 - 2, t2)
    clusters = split_clusters(j)
    assert len(clusters) == 1
    assert clusters[0].residue_degree == 2
    assert clusters[0].multiplicity == 1


def _evaluate(p, f):
    """p(f) for a univariate p and a polynomial f, by the power sum."""
    out = MultiPoly.zero(f.field, f.vars)
    for i, c in enumerate(p.coeffs):
        out = out + (f ** i) * c
    return out


def _reference_split(ideal, rng):
    """split_clusters without the simple-factor rule: every factor's cluster
    is the radical of I + <p(ell)>, its residue degree read off the radical's
    quotient basis.  Also checks Cayley-Hamilton, chi(ell) in I, per form."""
    field, n = ideal.field, ideal.n
    total = len(ideal.quotient_basis())
    last_error = "no attempt made"
    retries = budgets.current().separation_retries
    for attempt in range(retries):
        bound = 2 + attempt
        coeffs = [rng.randint(-bound, bound) for _ in range(n)]
        if not any(coeffs):
            continue
        ell = MultiPoly.zero(field, ideal.vars)
        for c, v in zip(coeffs, ideal.vars):
            ell = ell + MultiPoly.var(field, ideal.vars, v) * c
        chi = char_poly(field, ideal.multiplication_matrix(ell))
        assert ideal.contains(_evaluate(chi, ell))
        factors = factor_univariate(chi)
        clusters = []
        for p, e in factors:
            carved = ideal + Ideal(field, ideal.vars, [_evaluate(p, ell)])
            maximal = carved.radical_zero_dim()
            r = len(maximal.quotient_basis())
            if r != p.degree:
                last_error = (f"linear form {ell!r} gave residue degree {r} "
                              f"vs factor degree {p.degree}")
                break
            clusters.append((maximal.canonical_key(), r, e))
        else:
            if sum(r * e for _, r, e in clusters) == total:
                return clusters, [e for _, e in factors]
            last_error = "cluster dimensions do not add up"
    raise SeparationFailure(f"no separating linear form within {retries} "
                            f"retries: " + last_error)


def _random_point_sum(field, rnd):
    """A seeded zero-dimensional sum of two primes in (t1, t2).  Mostly a
    graph t2 = a(t1) meeting the graph t2 = a(t1) - h(t1), where h multiplies
    linear, quadratic and squared factors (transversal and tangent points,
    rational and conjugate ones); otherwise a grid <t1^2 - d1> + <t2^2 - d2>,
    where a form may take one value at two points and fail to separate."""
    vs = ("t1", "t2")
    t1, t2 = MultiPoly.var(field, vs, "t1"), MultiPoly.var(field, vs, "t2")
    zeta = field.generator if field.is_cyclotomic else 0

    def scalar():
        return field.coerce(rnd.randint(-2, 2)) + zeta * rnd.randint(-1, 1)

    if rnd.random() < 0.25:
        return (Ideal(field, vs, [t1 ** 2 - rnd.choice((2, 3, 5))])
                + Ideal(field, vs, [t2 ** 2 - rnd.choice((2, 3, 5))]))
    a = sum((t1 ** k * scalar() for k in range(4)), MultiPoly.zero(field, vs))
    h, degree = MultiPoly.const(field, vs, 1), rnd.randint(2, 5)
    while h.total_degree() < degree:
        piece = rnd.choice((t1 - scalar(), t1 ** 2 - rnd.choice((2, 5)),
                            t1 ** 2 + t1 + 1))
        h = h * piece ** rnd.choice((1, 1, 2))
    return Ideal(field, vs, [t2 - a]) + Ideal(field, vs, [t2 - a + h])


def _patch_generators(monkeypatch, make=random.Random):
    """Replace the generator class that orbint.cycle constructs (there only,
    not in the global random module) by `make`; returns the (seed,
    generator) pairs made."""
    made = []

    def build(seed):
        made.append((seed, make(seed)))
        return made[-1][1]

    monkeypatch.setattr(cycle_module, "random",
                        types.SimpleNamespace(Random=build))
    return made


def _count_char_polys(monkeypatch):
    """Record the matrix of every char_poly call made by orbint.cycle."""
    calls = []

    def counting(field, matrix):
        calls.append(matrix)
        return char_poly(field, matrix)

    monkeypatch.setattr(cycle_module, "char_poly", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)],
                         ids=["QQ", "zeta3"])
def test_split_matches_radical_reference(field, monkeypatch):
    made = _patch_generators(monkeypatch)
    rnd = random.Random(9)
    spectra = set()
    for _ in range(24):
        ideal = _random_point_sum(field, rnd)
        ref_rng = random.Random(repr(ideal.canonical_key()))
        ref, exponents = _reference_split(ideal, ref_rng)
        made.clear()
        got = split_clusters(ideal)
        assert [(c.ideal.canonical_key(), c.residue_degree, c.multiplicity)
                for c in got] == ref
        [(seed, got_rng)] = made
        assert seed == repr(ideal.canonical_key())
        assert got_rng.getstate() == ref_rng.getstate()
        assert sum(r * e for _, r, e in ref) == len(ideal.quotient_basis())
        spectra.add("one simple factor" if exponents == [1]
                    else "repeated" if max(exponents) > 1 else "several simple")
    assert spectra == {"one simple factor", "several simple", "repeated"}


def _random_univariate(field, rnd):
    """A seeded principal ideal in one variable whose generator multiplies
    linear, quadratic and cyclotomic factors, some of them repeated."""
    vs = ("t1",)
    t = MultiPoly.var(field, vs, "t1")
    zeta = field.generator if field.is_cyclotomic else 0
    f = MultiPoly.const(field, vs, 1)
    for _ in range(rnd.randint(1, 3)):
        piece = rnd.choice((t - field.coerce(rnd.randint(-3, 3))
                            - zeta * rnd.randint(-1, 1),
                            t ** 2 - rnd.choice((2, 3, 5)), t ** 2 + t + 1))
        f = f * piece ** rnd.choice((1, 2, 3))
    return Ideal(field, vs, [f])


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)],
                         ids=["QQ", "zeta3"])
def test_prime_cycle_in_one_variable_factors_like_the_split(field,
                                                            monkeypatch):
    """At n = 1 a zero-dimensional ideal is also a hypersurface, and
    _prime_cycle takes it apart by factoring, computing no characteristic
    polynomial.  The primes and multiplicities equal those of
    split_clusters."""
    calls = _count_char_polys(monkeypatch)
    rnd = random.Random(11)
    repeated = 0
    for _ in range(60):
        ideal = _random_univariate(field, rnd)
        got = _prime_cycle(ideal, 0)
        assert calls == []
        ref = split_clusters(ideal)
        calls.clear()
        assert (sorted((p.canonical_key(), m) for p, m in got)
                == sorted((c.ideal.canonical_key(), c.multiplicity)
                          for c in ref))
        repeated += any(m > 1 for _, m in got)
    assert repeated > 10


class _ScriptedRng:
    """Stands in for random.Random: randint returns the scripted values."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def test_split_retries_after_a_repeated_factor(trivial2, monkeypatch):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    j = prime(trivial2, t1 ** 2 - 1, t2 ** 2 - 1)
    # t1 + t2 takes the value 0 at two points: factor t with exponent 2 and
    # a residue-degree-2 cluster, so a second form t1 + 2 t2 is drawn
    scripts = [_ScriptedRng(1, 1, 1, 2), _ScriptedRng(1, 1)]
    made = _patch_generators(monkeypatch, lambda seed: scripts.pop(0))
    clusters = split_clusters(j)
    [(seed, rng)] = made
    assert seed == repr(j.canonical_key())
    assert rng.values == []
    assert [(c.residue_degree, c.multiplicity) for c in clusters] == [(1, 1)] * 4
    points = {c.ideal.canonical_key() for c in clusters}
    assert points == {prime(trivial2, t1 - a, t2 - b).canonical_key()
                      for a in (1, -1) for b in (1, -1)}
    with budgets.using(budgets.Budget(separation_retries=1)):
        with pytest.raises(SeparationFailure) as err:
            split_clusters(j)
    assert scripts == []
    assert str(err.value) == (
        "no separating linear form within 1 retries: linear form t1 + t2 "
        "gave residue degree 2 vs factor degree 1")


def test_split_does_not_depend_on_earlier_splits(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    j = prime(trivial2, t1 ** 2 - 1, t2 ** 2 - 1)
    other = prime(trivial2, t1 ** 2 - 2, t2 - t1)
    text = ("no separating linear form within 1 retries: linear form 2*t1 "
            "gave residue degree 2 vs factor degree 1")
    with budgets.using(budgets.Budget(separation_retries=1)):
        with pytest.raises(SeparationFailure) as first:
            split_clusters(j)
        assert split_clusters(other)
        with pytest.raises(SeparationFailure) as again:
            split_clusters(j)
    assert str(first.value) == str(again.value) == text


# --- intersection products ---------------------------------------------------------

def test_paper_intersection(paper):
    a1, x, y = paper
    out = intersect_model(a1, x, y)
    origin = cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), Fraction(1, 2)))
    assert out == origin


def test_a2_intersection(a2):
    u, v = up(a2, "u"), up(a2, "v")
    x = cyc(a2, (prime(a2, u), 1))
    y = cyc(a2, (prime(a2, v), 1))
    out = intersect_model(a2, x, y)
    assert out == cyc(a2, (prime(a2, u, v), Fraction(1, 3)))


def test_intersection_away_from_singularity_integral(a1):
    u, v = up(a1, "u"), up(a1, "v")
    x = cyc(a1, (prime(a1, u), 1))
    w = cyc(a1, (prime(a1, v - 1), 1))
    out = intersect_model(a1, x, w)
    assert out == cyc(a1, (prime(a1, u, v - 1), 1))
    assert out.is_integral()


def test_intersect_upstairs_bilinear(trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    a = UpstairsCycle(QQ, trivial2.uvars, [(prime(trivial2, t1), Fraction(3))])
    b = UpstairsCycle(QQ, trivial2.uvars, [(prime(trivial2, t2), Fraction(1, 2))])
    product = intersect_upstairs(a, b)
    assert len(product.components) == 1
    assert product.components[0][1] == Fraction(3, 2)


def test_intersect_model_does_not_depend_on_earlier_products(trivial2,
                                                             monkeypatch):
    """A product after unrelated products, even with a generator passed and
    shared as the products benchmark does, splits exactly as a fresh one."""
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    x = cyc(trivial2, (prime(trivial2, t2 - t1 ** 2), 1))
    y = cyc(trivial2, (prime(trivial2, t2 - 1), 1))
    calls = _count_char_polys(monkeypatch)
    fresh = intersect_model(trivial2, x, y)
    fresh_calls = list(calls)
    assert fresh_calls
    shared = random.Random(0)
    for a, b in ((t1 ** 2 - 2, t2), (t2 - t1 ** 3, t2 - t1),
                 (t1 ** 2 - 1, t2 ** 2 - 4)):
        intersect_model(trivial2, cyc(trivial2, (prime(trivial2, a), 1)),
                        cyc(trivial2, (prime(trivial2, b), 1)), shared)
    calls.clear()
    assert intersect_model(trivial2, x, y, shared) == fresh
    assert calls == fresh_calls


def test_no_cycle_or_scene_function_takes_a_generator():
    """Every randomized choice seeds itself from its input; intersect_model
    keeps one ignored positional parameter."""
    def functions(module):
        for value in vars(module).values():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                yield value
            elif (inspect.isclass(value)
                  and value.__module__ == module.__name__):
                for attr in vars(value).values():
                    fn = getattr(attr, "__func__", attr)
                    if inspect.isfunction(fn):
                        yield fn

    takers = [f"{fn.__module__}.{fn.__qualname__}"
              for module in (cycle_module, scene_module)
              for fn in functions(module)
              if any("rng" in name
                     for name in inspect.signature(fn).parameters)]
    assert takers == ["orbint.cycle.intersect_model"]
    assert list(inspect.signature(intersect_model).parameters) == [
        "model", "x", "y", "_rng"]


def test_intersect_rejects_improper(paper):
    a1, x, _ = paper
    with pytest.raises(NotProper):
        intersect_model(a1, x, x)


def test_intersect_upstairs_checks_every_pair_before_splitting(trivial2,
                                                              monkeypatch):
    import warnings
    from orbint.errors import NonCMWarning
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    a = UpstairsCycle(QQ, trivial2.uvars, [(prime(trivial2, t1), 1)])
    b = UpstairsCycle(QQ, trivial2.uvars, [(prime(trivial2, t2), 1),
                                           (prime(trivial2, t1), 1)])
    calls = _count_char_polys(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotProper) as err:
            intersect_upstairs(a, b)
    assert str(err.value) == "components meet in dimension 1, expected 0"
    assert calls == []
    assert not any(issubclass(w.category, NonCMWarning) for w in caught)


def test_not_proper_has_one_wording(a1):
    u, v = up(a1, "u"), up(a1, "v")
    # codimensions 2 + 1 exceed n = 2, and the origin lies on the line u = 0
    x = cyc(a1, (prime(a1, u, v), 1))
    y = cyc(a1, (prime(a1, u), 1))
    reason = is_proper(a1, x, y).reason
    assert reason == ("codimensions exceed the ambient dimension but the "
                      "supports meet")
    with pytest.raises(NotProper) as down:
        intersect_model(a1, x, y)
    with pytest.raises(NotProper) as upstairs:
        intersect_upstairs(pullback(a1, x), pullback(a1, y))
    assert str(down.value) == str(upstairs.value) == reason


def test_intersect_model_forms_each_pair_sum_once(a1, monkeypatch):
    u, v = up(a1, "u"), up(a1, "v")
    x = cyc(a1, (prime(a1, u), 1), (prime(a1, u - 1), 2))
    y = cyc(a1, (prime(a1, v), 1), (prime(a1, v - 2), 1))
    pairs = len(pullback(a1, x).components) * len(pullback(a1, y).components)
    real_add = Ideal.__add__
    sums = []

    def counting_add(self, other):
        sums.append((self, other))
        return real_add(self, other)

    monkeypatch.setattr(Ideal, "__add__", counting_add)
    out = intersect_model(a1, x, y)
    assert not out.is_empty()
    assert len(sums) == pairs


def test_positive_dimensional_certified(trivial3):
    t1, t2, t3 = (up(trivial3, n) for n in trivial3.uvars)
    x = cyc(trivial3, (prime(trivial3, t1), 1))
    y = cyc(trivial3, (prime(trivial3, t2), 1))
    out = intersect_model(trivial3, x, y)
    assert out == cyc(trivial3, (prime(trivial3, t1, t2), 1))


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3)])
def test_fundamental_cycle_is_the_unit(a1, a, b):
    x = cyc(a1, (prime(a1, up(a1, "u") ** a - up(a1, "v") ** b), 1))
    whole = cyc(a1, (prime(a1), 1))
    # the pair sums are the members of the orbit of u^a - v^b, hypersurfaces
    # that are not solved graphs: they are taken apart by factoring
    assert intersect_model(a1, x, whole) == x
    assert intersect_model(a1, whole, x) == x


def test_positive_dimensional_uncertified_rejected(trivial3):
    t1, t2, t3 = (up(trivial3, n) for n in trivial3.uvars)
    # the quadric cone t1 t2 = t3^2 meets a plane through the vertex in two
    # lines: proper but not in solved-graph form
    x = cyc(trivial3, (prime(trivial3, t1 * t2 - t3 ** 2), 1))
    y = cyc(trivial3, (prime(trivial3, t3), 1))
    with pytest.raises(PositiveDimensionalIntersection):
        intersect_model(trivial3, x, y)


def test_commutativity_exact(paper):
    a1, x, y = paper
    assert intersect_model(a1, x, y) == intersect_model(a1, y, x)


def test_support_contract(paper):
    a1, x, y = paper
    out = intersect_model(a1, x, y)
    # support of the product is the intersection of the supports
    rep = out.components[0][0].rep
    for g in pullback(a1, x).components[0][0].gens:
        assert rep.contains(g)
    for g in pullback(a1, y).components[0][0].gens:
        assert rep.contains(g)


def test_eq4_on_paper_example(paper):
    a1, x, y = paper
    prod = intersect_model(a1, x, y)
    upstairs = intersect_upstairs(pullback(a1, x), pullback(a1, y))
    assert pullback(a1, prod) == upstairs


# --- Q-Cartier divisor (criterion 11 shape) ------------------------------------------

def test_divisor_of_norm_is_twice_line(paper):
    a1, x, _ = paper
    h = norm_polynomial(a1, up(a1, "u"))
    assert principal_divisor(a1, h) == x.scale(2)


def test_divisor_of_invariant_product(a1):
    u, v = up(a1, "u"), up(a1, "v")
    h = norm_polynomial(a1, u * v)   # z^2 downstairs
    div = principal_divisor(a1, h)
    expected = cyc(a1, (prime(a1, u), 2), (prime(a1, v), 2))
    assert div == expected


# --- model maps ----------------------------------------------------------------------

def test_identity_map_pullback(paper, trivial3):
    a1, x, y = paper
    ident = ModelMap.identity(a1)
    assert pullback_along_map(ident, y) == y
    # a certified (solved-graph) curve, neither a hypersurface nor finite
    t1, t2, _ = (up(trivial3, n) for n in trivial3.uvars)
    curve = cyc(trivial3, (prime(trivial3, t1, t2), 1))
    assert pullback_along_map(ModelMap.identity(trivial3), curve) == curve


def test_flat_projection_pullback(trivial2):
    t1m = model_trivial(1)
    s = up(t1m, "t1")
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    proj = ModelMap(trivial2, t1m, [t1], name="proj")
    y0 = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s), 1)])
    out = pullback_along_map(proj, y0)
    assert out == cyc(trivial2, (prime(trivial2, t1), 1))


def test_square_map_pullback_multiplicity():
    t1m = model_trivial(1)
    s = up(t1m, "t1")
    square = ModelMap(t1m, t1m, [s * s], name="square")
    y0 = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s), 1)])
    out = pullback_along_map(square, y0)
    assert out == DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s), 2)])


def test_square_map_pullback_splits():
    t1m = model_trivial(1)
    s = up(t1m, "t1")
    square = ModelMap(t1m, t1m, [s * s], name="square")
    y1 = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s - 1), 1)])
    out = pullback_along_map(square, y1)
    expected = DownstairsCycle.from_upstairs_primes(
        t1m, [(prime(t1m, s - 1), 1), (prime(t1m, s + 1), 1)])
    assert out == expected


def test_map_requires_equivariance(a1, trivial2):
    t1 = up(trivial2, "t1")
    with pytest.raises(ValueError):
        # u + 1 is not equivariant for the sign action downstairs
        ModelMap(a1, a1, [up(a1, "u") + 1, up(a1, "v")])


def test_preimage_containing_image_rejected(trivial3):
    from orbint.errors import NotEquidimensional
    t1m = model_trivial(1)
    t1, t2, t3 = (up(trivial3, n) for n in trivial3.uvars)
    emb = ModelMap(t1m, trivial3, [up(t1m, "t1"),
                                   MultiPoly.zero(QQ, t1m.uvars),
                                   MultiPoly.zero(QQ, t1m.uvars)], name="emb")
    # the image line lies inside the surface {t2 = 0}, so the preimage is
    # the whole source: the pull-back cycle is not defined
    surface = DownstairsCycle.from_upstairs_primes(
        trivial3, [(prime(trivial3, t2), 1)])
    with pytest.raises(NotEquidimensional):
        pullback_along_map(emb, surface)


def test_unsupported_preimage_shape(trivial3):
    t1, t2, t3 = (up(trivial3, n) for n in trivial3.uvars)
    ident = ModelMap.identity(trivial3)
    curve = DownstairsCycle.from_upstairs_primes(
        trivial3, [(prime(trivial3, t2 - t1 ** 2, t3 - t1 ** 3), 1)])
    # the preimage of the twisted cubic is neither a hypersurface, nor
    # zero-dimensional, nor solved-graph (its grevlex leading terms t1^2 and
    # t1 t2 are not variables)
    with pytest.raises(UnsupportedPreimageShape) as err:
        pullback_along_map(ident, curve)
    assert str(err.value) == ("preimage of dimension 1 is neither a "
                              "hypersurface, zero-dimensional nor a "
                              "solved-graph prime")


def test_f_product_identity_reduces_to_intersection(paper):
    a1, x, y = paper
    ident = ModelMap.identity(a1)
    assert f_product(ident, x, y) == intersect_model(a1, x, y)


def test_f_product_projection(prod_a1_t1, a1):
    pu, pv, pt = (up(prod_a1_t1, n) for n in prod_a1_t1.uvars)
    pr = ModelMap(prod_a1_t1, a1, [pu, pv], name="pr")
    x = cyc(prod_a1_t1, (prime(prod_a1_t1, pu, pt), 1))
    y = cyc(a1, (prime(a1, up(a1, "v")), 1))
    out = f_product(pr, x, y)
    expected = cyc(prod_a1_t1,
                   (prime(prod_a1_t1, pu, pv, pt), Fraction(1, 2)))
    assert out == expected


def test_pushforward_identity(paper):
    a1, x, _ = paper
    ident = ModelMap.identity(a1)
    assert pushforward_along_map(ident, x) == x


def test_pushforward_square_point():
    t1m = model_trivial(1)
    s = up(t1m, "t1")
    square = ModelMap(t1m, t1m, [s * s], name="square")
    x = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s - 1), 1)])
    out = pushforward_along_map(square, x)
    assert out == DownstairsCycle.from_upstairs_primes(
        t1m, [(prime(t1m, s - 1), 1)])


def test_pushforward_parabola_graph(trivial2):
    t1m = model_trivial(1)
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    proj = ModelMap(trivial2, t1m, [t1], name="proj")
    parabola = cyc(trivial2, (prime(trivial2, t2 - t1 ** 2), 1))
    out = pushforward_along_map(proj, parabola)
    whole = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m), 1)])
    assert out == whole


def test_pushforward_quotient_degrees(a1, trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    qmap = ModelMap(trivial2, a1, [t1, t2], name="q")
    line = cyc(trivial2, (prime(trivial2, t1), 1))
    out = pushforward_along_map(qmap, line)
    assert out == cyc(a1, (prime(a1, up(a1, "u")), 2))
    point = cyc(trivial2, (prime(trivial2, t1, t2), 1))
    assert pushforward_along_map(qmap, point) == \
        cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), 1))


def test_projection_formula_quotient_map(a1, trivial2):
    t1, t2 = up(trivial2, "t1"), up(trivial2, "t2")
    qmap = ModelMap(trivial2, a1, [t1, t2], name="q")
    x = cyc(trivial2, (prime(trivial2, t1), 1))
    y = cyc(a1, (prime(a1, up(a1, "v")), 1))
    lhs = pushforward_along_map(qmap, f_product(qmap, x, y))
    rhs = intersect_model(a1, pushforward_along_map(qmap, x), y)
    assert lhs == rhs
    assert lhs == cyc(a1, (prime(a1, up(a1, "u"), up(a1, "v")), 1))


def test_map_composition():
    t1m = model_trivial(1)
    s = up(t1m, "t1")
    square = ModelMap(t1m, t1m, [s * s], name="square")
    quartic = ModelMap.compose(square, square)
    y = DownstairsCycle.from_upstairs_primes(t1m, [(prime(t1m, s - 1), 1)])
    out = pullback_along_map(quartic, y)
    # x^4 = 1 has two rational and one quadratic cluster
    assert sum(c for _, c in out.components) == 3
    assert out.dim == 0


# --- families --------------------------------------------------------------------------

@pytest.fixture
def moving_family(a1):
    ring = ("s",) + a1.uvars
    sv = MultiPoly.var(QQ, ring, "v")
    ss = MultiPoly.var(QQ, ring, "s")
    return CycleFamily(a1, "s", [((sv - ss,), Fraction(1))],
                       (Fraction(-10), Fraction(10)))


def test_specialize_generic(moving_family, a1):
    v = up(a1, "v")
    out = specialize(moving_family, 1)
    assert out == cyc(a1, (prime(a1, v - 1), 1))


def test_specialize_degenerate_fiber_doubles(moving_family, a1):
    v = up(a1, "v")
    out = specialize(moving_family, 0)
    assert out == cyc(a1, (prime(a1, v), 2))


def test_specialize_window(moving_family):
    with pytest.raises(ValueError):
        specialize(moving_family, 100)


def test_specialize_degenerate_dimension(a1):
    ring = ("s",) + a1.uvars
    sv = MultiPoly.var(QQ, ring, "v")
    ss = MultiPoly.var(QQ, ring, "s")
    fam = CycleFamily(a1, "s", [((sv * ss - 1,), Fraction(1))],
                      (Fraction(-1), Fraction(1)))
    with pytest.raises(SpecializationDegenerate):
        specialize(fam, 0)   # s=0 turns the hyperbola into the empty set


def test_conservation_across_singular_fiber(moving_family, a1):
    x = cyc(a1, (prime(a1, up(a1, "u")), 1))
    rep = conservation_check(x, moving_family, [0, 1, 2, 3])
    assert rep.conserved
    assert all(t == 1 for t in rep.totals)


def test_conservation_disjoint_zero(a1):
    x = cyc(a1, (prime(a1, up(a1, "u") - 1), 1))
    ring = ("s",) + a1.uvars
    su = MultiPoly.var(QQ, ring, "u")
    ss = MultiPoly.var(QQ, ring, "s")
    sv = MultiPoly.var(QQ, ring, "v")
    fam = CycleFamily(a1, "s", [((su - 5 - ss * 0, sv - 7,), Fraction(1))],
                      (Fraction(0), Fraction(3)))
    rep = conservation_check(x, fam, [0, 1])
    assert rep.conserved
    assert all(t == 0 for t in rep.totals)


def test_total_intersection_number(a1):
    out = intersect_model(
        a1,
        cyc(a1, (prime(a1, up(a1, "u")), 1)),
        cyc(a1, (prime(a1, up(a1, "v")), 1)))
    # the downstairs origin has residue degree 1; coefficient 1/2
    assert total_intersection_number(out) == Fraction(1, 2)


# --- positivity / condition (D) -----------------------------------------------------

def test_positive_coefficients_enforced(a1):
    with pytest.raises(ValueError):
        cyc(a1, (prime(a1, up(a1, "u")), Fraction(-1)))


def test_non_complete_intersection_warns():
    import warnings as _w
    from orbint.errors import NonCMWarning
    t4m = model_trivial(4)
    x, y, z, w = (up(t4m, n) for n in t4m.uvars)
    # the cone over the twisted cubic: 3 generators, codimension 2, and its
    # reduced basis also has 3 elements -- genuinely not a complete
    # intersection; the shifted copy meets it in dimension zero
    cone = prime(t4m, x * z - y ** 2, x * w - y * z, y * w - z ** 2)
    shifted = prime(t4m, x * (z - 1) - (y - 1) ** 2,
                    x * (w - 1) - (y - 1) * (z - 1),
                    (y - 1) * (w - 1) - (z - 1) ** 2)
    cx = cyc(t4m, (cone, 1))
    cy = cyc(t4m, (shifted, 1))
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        out = intersect_model(t4m, cx, cy)
    assert any(issubclass(wc.category, NonCMWarning) for wc in caught)
    assert not out.is_empty()


def test_common_denominator_witness(paper):
    a1, x, y = paper
    out = intersect_model(a1, x, y)
    d = out.common_denominator()
    assert out.scale(d).is_integral()
    assert d == 2


def test_f_product_associativity_chains():
    from orbint.verify import check_f_associativity
    result = check_f_associativity()
    assert result.passed, result.line()


def test_graph_embedding_characterization():
    # cross-check on trivial-group instances: pushing X ._f Y through the
    # graph embedding t -> (t, f(t)) agrees with intersecting the pushed
    # graph cycle against M1 x Y in the product
    from orbint.quotient import model_product
    m = model_trivial(1)
    n = model_trivial(1)
    mn = model_product(model_trivial(1), model_trivial(1))
    t = up(m, "t1")

    def mcyc(gens, coeff=1):
        return DownstairsCycle.from_upstairs_primes(
            m, [(Ideal(QQ, m.uvars, gens), coeff)])

    cases = [
        (t * t, [], [t - 1]),
        (t * t, [], [t - 4]),
        (t * t * t, [], [t - 8]),   # splits into a point and a quadratic
        (t + 3, [t - 2], []),
    ]
    for fpoly, xgens, ygens in cases:
        f = ModelMap(m, n, [fpoly], name="f")
        x = mcyc(xgens)
        y = DownstairsCycle.from_upstairs_primes(
            n, [(Ideal(QQ, n.uvars, ygens), 1)])
        xy = f_product(f, x, y)
        graph = ModelMap(m, mn, [t, fpoly], name="jf")
        lhs = pushforward_along_map(graph, xy)
        jx = pushforward_along_map(graph, x)
        proj2 = ModelMap(mn, n, [MultiPoly.var(QQ, mn.uvars, "t1_2")],
                         name="p2")
        m1y = pullback_along_map(proj2, y)
        rhs = intersect_model(mn, jx, m1y)
        assert lhs == rhs


def test_divisor_with_free_orbit(a1):
    # 1 - y = norm(v - 1) downstairs; its upstairs divisor is the free
    # orbit {v = 1} + {v = -1}, one class with coefficient 1 (this is the
    # case where the class has more than one orbit member)
    v = up(a1, "v")
    yv = MultiPoly.var(QQ, a1.yvars, "y")
    div = principal_divisor(a1, 1 - yv)
    assert div == cyc(a1, (prime(a1, v - 1), 1))


def test_divisor_pullback_identity(a1):
    # q*(div h) equals the upstairs divisor of h(theta) for a mix of
    # stabilized and free components
    from orbint.poly import mp_factor
    x, yv, z = (MultiPoly.var(QQ, a1.yvars, n) for n in a1.yvars)
    for h in (1 - yv, -x, z * z, (1 - yv) * x):
        div = principal_divisor(a1, h)
        upstairs_divisor = UpstairsCycle(
            QQ, a1.uvars,
            [(prime(a1, f), Fraction(e)) for f, e in mp_factor(a1.pull_poly(h))])
        assert pullback(a1, div) == upstairs_divisor


def test_map_pullback_matches_quotient_pullback(a1, a2):
    # with f = q (the quotient map viewed from the trivial chart), the
    # map pull-back M ._q Y must coincide with q*Y computed by orbit data
    for model in (a1, a2):
        cover = model_trivial(model.n, field=model.field)
        comps = [MultiPoly.var(model.field, cover.uvars, v)
                 for v in cover.uvars]
        qmap = ModelMap(cover, model, comps, name="q")
        u, v = (up(model, n) for n in model.uvars)
        rename = dict(zip(model.uvars, cover.uvars))
        samples = [
            cyc(model, (prime(model, u), 1)),
            cyc(model, (prime(model, u, v), 1)),
            cyc(model, (prime(model, v - 1), 1)),
        ]
        for y in samples:
            lifted = pullback_along_map(qmap, y)
            expected_up = pullback(model, y)
            expected = DownstairsCycle.from_upstairs_primes(
                cover,
                [(Ideal(model.field, cover.uvars,
                        {MultiPoly(model.field,
                                   tuple(rename[w] for w in g.vars),
                                   dict(g.terms)).embed(cover.uvars)
                         for g in ideal.gens}),
                  coeff) for ideal, coeff in expected_up.components])
            assert lifted == expected, (model.name, y)
