"""Local models: invariant embeddings, relations, descent, norms."""

import dataclasses
import warnings

import pytest

from orbint.arith import QQ
from orbint.errors import GenerationDeficit, NotInSubalgebra, NotInvariant
from orbint.group import enumerate_group
from orbint.poly import Ideal, MultiPoly
from orbint.quotient import (build_model, catalog_model, express_in_invariants,
                             model_product, norm_polynomial)


def up(model, name):
    return MultiPoly.var(model.field, model.uvars, name)


def down(model, name):
    return MultiPoly.var(model.field, model.yvars, name)


def test_a1_relations(a1):
    x, y, z = (down(a1, n) for n in a1.yvars)
    assert a1.relations.groebner() == ((x * y - z ** 2).monic(),)
    assert a1.k == 2
    assert a1.relations.dimension() == 2


def test_trivial_model_relations(trivial2):
    assert trivial2.relations.is_zero_ideal()
    assert trivial2.k == 1


def test_a2_relations(a2):
    x, y, z = (down(a2, n) for n in a2.yvars)
    gb = a2.relations.groebner()
    assert len(gb) == 1
    # same ideal as (xy - z^3)
    assert a2.relations.contains(x * y - z ** 3)


def test_embedding_lands_in_relations(a1, a2, prod_a1_t1):
    for model in (a1, a2, prod_a1_t1):
        images = model.theta_images()
        for g in model.relations.gens:
            assert g.substitute(images).is_zero()


def test_not_invariant_rejected():
    group = enumerate_group(QQ, [[[-1, 0], [0, -1]]])
    uvars = ("u", "v")
    u = MultiPoly.var(QQ, uvars, "u")
    with pytest.raises(NotInvariant):
        build_model(group, [u], uvars)


def test_generation_deficit_warns():
    group = enumerate_group(QQ, [[[-1, 0], [0, -1]]])
    uvars = ("u", "v")
    u = MultiPoly.var(QQ, uvars, "u")
    v = MultiPoly.var(QQ, uvars, "v")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = build_model(group, [u * u, v * v], uvars)  # missing uv
    assert any(issubclass(w.category, GenerationDeficit) for w in caught)
    assert 2 in model.audit


def test_express_generator(a1):
    u = up(a1, "u")
    assert express_in_invariants(a1, u ** 2) == down(a1, "x")


def test_express_theta_is_coordinate(a1, a2):
    for model in (a1, a2):
        for th, yname in zip(model.thetas, model.yvars):
            assert express_in_invariants(model, th) == down(model, yname)


def test_express_canonical_form(a1):
    # u^2 v^2 expresses as xy or z^2 mod the relations; the canonical
    # representative is the normal form against the graph ideal, which
    # reduces xy through the relation xy - z^2 with leading term xy.
    u, v = up(a1, "u"), up(a1, "v")
    got = express_in_invariants(a1, u ** 2 * v ** 2)
    x, y, z = (down(a1, n) for n in a1.yvars)
    assert got == z ** 2
    assert got.substitute(a1.theta_images()) == u ** 2 * v ** 2
    # and xy is the same class modulo the relations
    assert a1.relations.contains(x * y - got)


def test_express_quartic(a1):
    u, v = up(a1, "u"), up(a1, "v")
    x, y, z = (down(a1, n) for n in a1.yvars)
    assert express_in_invariants(a1, u ** 4 + v ** 4) == x ** 2 + y ** 2


def test_express_rejects_non_invariant(a1):
    with pytest.raises(NotInvariant):
        express_in_invariants(a1, up(a1, "u"))


def test_express_not_in_subalgebra():
    group = enumerate_group(QQ, [[[-1, 0], [0, -1]]])
    uvars = ("u", "v")
    u = MultiPoly.var(QQ, uvars, "u")
    v = MultiPoly.var(QQ, uvars, "v")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_model(group, [u * u, v * v], uvars)
    with pytest.raises(NotInSubalgebra):
        express_in_invariants(model, u * v)


def test_norms(a1):
    u, v = up(a1, "u"), up(a1, "v")
    x, y, z = (down(a1, n) for n in a1.yvars)
    assert norm_polynomial(a1, u) == -x
    assert norm_polynomial(a1, u * v) == z ** 2
    assert norm_polynomial(a1, v - 1) == 1 - y


def test_norm_multiplicative(a1):
    u, v = up(a1, "u"), up(a1, "v")
    for f, g in [(u, v), (u * v, v - 1), (u + v, u - v)]:
        lhs = norm_polynomial(a1, f * g)
        rhs = norm_polynomial(a1, f) * norm_polynomial(a1, g)
        assert a1.relations.contains(lhs - rhs)


def test_image_ideal(a1):
    u, v = up(a1, "u"), up(a1, "v")
    origin = Ideal(QQ, a1.uvars, [u, v])
    x, y, z = (down(a1, n) for n in a1.yvars)
    img = a1.image_ideal(origin)
    for g in (x, y, z):
        assert img.contains(g)
    assert len(img.quotient_basis()) == 1


def test_catalog_names():
    assert catalog_model("A1").name == "A1"
    assert catalog_model("trivial-2").n == 2
    p = catalog_model("product(A1, trivial-1)")
    assert p.n == 3 and p.k == 2
    with pytest.raises(ValueError):
        catalog_model("nope")


def test_product_variable_dedup(a1):
    p = model_product(a1, a1)
    assert len(set(p.uvars)) == 4
    assert len(set(p.yvars)) == 6
    assert p.k == 4


def test_catalog_image_dimensions(a1, a2, trivial2, trivial3, prod_a1_t1):
    # the relations ideal of every catalog model has the dimension of the
    # upstairs chart (the quotient map is surjective onto its image)
    for model in (a1, a2, trivial2, trivial3, prod_a1_t1):
        if model.relations.is_zero_ideal():
            assert len(model.yvars) == model.n
        else:
            assert model.relations.dimension() == model.n


def test_derived_data_caches_are_declared_and_ignored_by_equality():
    from orbint.cycle import OrbitClass
    from orbint.forms import default_denominators
    from orbint.quotient import LocalModel, model_a1

    caches = {"_orbit_cache", "_denominator_cache"}
    declared = {f.name: f for f in dataclasses.fields(LocalModel)}
    for name in caches:
        f = declared[name]
        assert not (f.init or f.repr or f.compare)
    used = model_a1()
    fresh = dataclasses.replace(used)    # same data, empty caches
    u = up(used, used.uvars[0])
    orbit = OrbitClass.of(used, Ideal(used.field, used.uvars, [u]))
    assert used._orbit_cache[orbit.key] is orbit
    assert default_denominators(used) is used._denominator_cache
    assert not fresh._orbit_cache and fresh._denominator_cache is None
    assert used == fresh and repr(used) == repr(fresh)
