"""Finite matrix groups, Reynolds averaging, Molien counts, stabilizers."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import orbint
from orbint import poly
from orbint.arith import CyclotomicField, QQ
from orbint.budgets import Budget, using
from orbint.errors import EffortExceeded, NotFinite
from orbint.group import (act, act_ideal, enumerate_group, inertia_group,
                          is_invariant, molien, reynolds, setwise_stabilizer,
                          substitution)
from orbint.poly import Ideal, MultiPoly, buchberger
from orbint.verify import random_prime

UV = ("u", "v")


def up(name, field=QQ):
    return MultiPoly.var(field, UV, name)


def is_closed(subgroup):
    """The elements contain the identity and are closed under product."""
    elements = set(subgroup.elements)

    def product(a, b):
        n = len(a)
        return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(n)),
                               subgroup.parent.field.zero)
                           for j in range(n)) for i in range(n))

    return (subgroup.parent.identity in elements
            and all(product(a, b) in elements
                    for a in elements for b in elements))


@pytest.fixture(scope="module")
def sign_group():
    return enumerate_group(QQ, [[[-1, 0], [0, -1]]])


@pytest.fixture(scope="module")
def mu3():
    K = CyclotomicField(3)
    z = K.generator
    return enumerate_group(K, [[[z, 0], [0, z * z]]])


def test_enumerate_sign_group(sign_group):
    assert sign_group.order == 2


def test_enumerate_trivial():
    g = enumerate_group(QQ, [[[1, 0], [0, 1]]])
    assert g.order == 1


def test_enumerate_mu3(mu3):
    # closure oracle: powers of the generator until the identity returns
    assert mu3.order == 3


def test_enumerate_not_finite():
    with pytest.raises(NotFinite):
        enumerate_group(QQ, [[[2]]], Budget(group_bound=50))


def test_enumerate_rejects_singular():
    with pytest.raises(ValueError):
        enumerate_group(QQ, [[[1, 0], [1, 0]]])


def test_act(sign_group):
    neg = next(el for el in sign_group if el != sign_group.identity)
    u, v = up("u"), up("v")
    assert act(sign_group, neg, u ** 2) == u ** 2
    assert act(sign_group, neg, u) == -u


def test_act_is_ring_homomorphism(sign_group):
    neg = next(el for el in sign_group if el != sign_group.identity)
    u, v = up("u"), up("v")
    f, g = u ** 2 + v, u * v - 1
    assert act(sign_group, neg, f * g) == \
        act(sign_group, neg, f) * act(sign_group, neg, g)


def test_act_diagonal_cyclotomic(mu3):
    K = mu3.field
    u, v = up("u", K), up("v", K)
    g = next(el for el in mu3 if el != mu3.identity)
    assert act(mu3, g, u * v) == u * v


def test_reynolds(sign_group):
    u, v = up("u"), up("v")
    assert reynolds(sign_group, u ** 2) == u ** 2
    assert reynolds(sign_group, u).is_zero()
    # average of (u^3 + uv) and (-u^3 + uv)
    assert reynolds(sign_group, u ** 3 + u * v) == u * v


def test_reynolds_idempotent_and_invariant(sign_group):
    u, v = up("u"), up("v")
    f = u ** 3 + u * v + v ** 2 - u
    r = reynolds(sign_group, f)
    assert reynolds(sign_group, r) == r
    assert is_invariant(sign_group, r)


def reynolds_rank_oracle(group, degree):
    """Independent Molien oracle: rank of the Reynolds operator on the
    degree-d monomial space, via the span of averaged monomials."""
    field = group.field
    n = group.n
    variables = tuple(f"u{i}" for i in range(n)) if n != 2 else UV
    monos = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        expo = [0] * n
        for c in combo:
            expo[c] += 1
        monos.append(MultiPoly(field, variables, {tuple(expo): 1}))
    averaged = [reynolds(group, m) for m in monos]
    averaged = [a for a in averaged if not a.is_zero()]
    # rank by greedy elimination over the monomial coefficient vectors
    basis = []
    for a in averaged:
        vec = dict(a.terms)
        for pivot_mon, pivot_vec in basis:
            if pivot_mon in vec:
                c = vec[pivot_mon] / pivot_vec[pivot_mon]
                for m2, v2 in pivot_vec.items():
                    s = vec.get(m2, field.zero) - c * v2
                    if s:
                        vec[m2] = s
                    else:
                        vec.pop(m2, None)
        if vec:
            lead = sorted(vec)[0]
            basis.append((lead, vec))
    return len(basis)


def test_molien_sign_group(sign_group):
    counts = molien(sign_group, 4)
    assert counts == [1, 0, 3, 0, 5]
    for d in range(1, 5):
        assert counts[d] == reynolds_rank_oracle(sign_group, d)


def test_molien_trivial_line():
    g = enumerate_group(QQ, [[[1]]])
    assert molien(g, 2) == [1, 1, 1]


def test_molien_mu3(mu3):
    # Reynolds-rank oracle: invariant monomials are u^a v^b with
    # a + 2b = 0 mod 3; degree 3 gives u^3 and v^3 only.
    counts = molien(mu3, 4)
    for d in range(1, 5):
        assert counts[d] == reynolds_rank_oracle(mu3, d)
    assert counts == [1, 0, 1, 2, 1]


def test_molien_non_diagonal_groups():
    # S3 permuting three coordinates: 1, e1, e1^2 and e2, ...
    perms = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
    s3 = enumerate_group(QQ, perms)
    # the quaternion group Q8 = <diag(i, -i), [[0, 1], [-1, 0]]> over Q(zeta4)
    K = CyclotomicField(4)
    i = K.generator
    q8 = enumerate_group(K, [[[i, 0], [0, -i]], [[0, 1], [-1, 0]]])
    assert (s3.order, q8.order) == (6, 8)
    for group, expected in ((s3, [1, 1, 2, 3, 4, 5, 7]), (q8, [1, 0, 0, 0, 2, 0, 1])):
        counts = molien(group, 6)
        assert counts == expected
        for d in range(1, 7):
            assert counts[d] == reynolds_rank_oracle(group, d)


def test_stabilizers_coordinate_line(sign_group):
    u, v = up("u"), up("v")
    line = Ideal(QQ, UV, [u])
    s = setwise_stabilizer(sign_group, line)
    i = inertia_group(sign_group, line)
    # -1 maps the line {u=0} to itself but moves (0,1) to (0,-1)
    assert s.order == 2
    assert i.order == 1
    assert is_closed(s) and is_closed(i)


def test_stabilizers_origin(sign_group):
    u, v = up("u"), up("v")
    origin = Ideal(QQ, UV, [u, v])
    assert setwise_stabilizer(sign_group, origin).order == 2
    assert inertia_group(sign_group, origin).order == 2


def test_stabilizers_moved_line(sign_group):
    u, v = up("u"), up("v")
    moved = Ideal(QQ, UV, [v - 1])
    # act(-I, v-1) = -v-1 generates a different ideal
    neg = next(el for el in sign_group if el != sign_group.identity)
    assert act_ideal(sign_group, neg, moved) != moved
    assert setwise_stabilizer(sign_group, moved).order == 1
    assert inertia_group(sign_group, moved).order == 1


def test_inertia_inside_stabilizer(sign_group, mu3):
    cases = [
        (sign_group, Ideal(QQ, UV, [up("u")])),
        (sign_group, Ideal(QQ, UV, [up("u"), up("v")])),
        (mu3, Ideal(mu3.field, UV, [up("u", mu3.field)])),
        (mu3, Ideal(mu3.field, UV, [up("v", mu3.field) - 1])),
    ]
    for group, prime in cases:
        s = setwise_stabilizer(group, prime)
        i = inertia_group(group, prime)
        members = set(s.elements)
        assert all(el in members for el in i.elements)
        assert s.order % i.order == 0


def test_orbit_stabilizer(sign_group):
    u, v = up("u"), up("v")
    for gens in ([u], [u, v], [v - 1], [u - v]):
        prime = Ideal(QQ, UV, gens)
        keys = {act_ideal(sign_group, el, prime).canonical_key()
                for el in sign_group}
        s = setwise_stabilizer(sign_group, prime)
        assert len(keys) * s.order == sign_group.order


# The names forms.py and cycle.py may import from group.py: the action of an
# element and the orbit routines built on it.
ACTION_API = {"act", "act_ideal", "inertia_group", "orbit_translates",
              "setwise_stabilizer", "substitution"}


def test_only_group_builds_the_action():
    """group.py alone turns a matrix into its substitution: no other engine
    module names `linear_form`, and forms.py and cycle.py reach the group
    only through the action and orbit API."""
    for path in sorted(Path(orbint.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
                if node.level == 1 and node.module == "group":
                    imported |= {alias.name for alias in node.names}
                elif node.level == 1 and node.module is None:
                    imported |= {alias.name for alias in node.names
                                 if alias.name == "group"}
        if path.stem != "group":
            assert "linear_form" not in names, path.name
        if path.stem in ("forms", "cycle"):
            assert imported <= ACTION_API, (path.name, imported - ACTION_API)


# --- acting by scaling: diagonal elements ---------------------------------------

CATALOG = ("a1", "a2", "trivial3", "prod_a1_t1")


def _random_poly(model, rng, degree, terms):
    """A polynomial with a constant term and up to `terms` further monomials
    of degree at most `degree`, with nonzero integer coefficients."""
    out = {(0,) * model.n: rng.choice([-3, -2, -1, 1, 2, 3])}
    for _ in range(terms):
        e = [0] * model.n
        for _ in range(rng.randint(1, degree)):
            e[rng.randrange(model.n)] += 1
        out[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MultiPoly(model.field, model.uvars, out)


def _scaling_cases(model, name):
    """Seeded graph primes of every codimension, hypersurfaces of degree up
    to 3, and pairs of quadrics, whose Buchberger runs process pairs."""
    rng = random.Random(f"scaling:{name}")
    cases = [random_prime(model, rng, codim)
             for codim in range(1, model.n + 1) for _ in range(2)]
    cases += [Ideal(model.field, model.uvars, [_random_poly(model, rng, 3, 4)])
              for _ in range(3)]
    cases += [Ideal(model.field, model.uvars,
                    [_random_poly(model, rng, 2, 3) for _ in range(2)])
              for _ in range(3)]
    return cases


@pytest.mark.parametrize("name", CATALOG)
def test_scaled_generators_are_the_substituted_ones(request, name):
    model = request.getfixturevalue(name)
    for ideal in _scaling_cases(model, name):
        for el in model.group:
            images = substitution(el, model.field, model.uvars)
            moved = act_ideal(model.group, el, ideal)
            assert moved.gens == tuple(g.substitute(images) for g in ideal.gens)


@pytest.mark.parametrize("name", CATALOG)
def test_seeded_basis_is_a_fresh_buchberger_run(request, name, monkeypatch):
    model = request.getfixturevalue(name)
    runs = []
    real = poly.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(poly, "buchberger", counted)
    for ideal in _scaling_cases(model, name):
        for el in model.group:
            monkeypatch.setattr(poly, "_GB_MEMO", {})
            ideal.groebner()
            before = len(runs)
            moved = act_ideal(model.group, el, ideal)
            seeded = moved.groebner()
            assert len(runs) == before          # read from the seeded entry
            assert seeded == tuple(real(list(moved.gens)))


SMALL_BUDGETS = ([Budget(max_pairs=p) for p in (0, 1, 2, 3)]
                 + [Budget(max_terms=t) for t in (3, 5, 8)])


def _outcome(run):
    try:
        return run()
    except EffortExceeded as exc:
        return f"EffortExceeded: {exc}"


@pytest.mark.parametrize("name", CATALOG)
def test_scaled_runs_stop_where_the_source_run_stops(request, name,
                                                     monkeypatch):
    model = request.getfixturevalue(name)
    stopped = 0
    for ideal in _scaling_cases(model, name):
        for el in model.group:
            moved_gens = list(act_ideal(model.group, el, ideal).gens)
            for budget in SMALL_BUDGETS:
                source = _outcome(lambda: buchberger(list(ideal.gens),
                                                     budget=budget))
                fresh = _outcome(lambda: buchberger(moved_gens, budget=budget))
                assert isinstance(source, str) == isinstance(fresh, str)
                if isinstance(source, str):
                    stopped += 1
                    assert fresh == source
                # through the memo: the source's basis is read under the
                # installed budget before the image's basis is seeded
                monkeypatch.setattr(poly, "_GB_MEMO", {})
                with using(budget):
                    seeded = _outcome(lambda: act_ideal(model.group, el,
                                                        ideal).groebner())
                assert seeded == (fresh if isinstance(fresh, str)
                                  else tuple(fresh))
    assert stopped
