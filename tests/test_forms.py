"""Differential forms: wedge, d, pull-back, group action, trace descent."""

import itertools
import random
from fractions import Fraction

import pytest

from orbint import forms
from orbint.arith import QQ
from orbint.budgets import Budget
from orbint.errors import (AnsatzExhausted, ChartMismatch,
                           DenominatorVanishesIdentically)
from orbint.forms import (DiffForm, act_form, default_denominators,
                          downstairs_equal, exterior_d, pullback_form,
                          q_pullback, symmetrize, trace_form,
                          verify_direct_factor, wedge)
from orbint.group import linear_form
from orbint.poly import MultiPoly, RationalFn
from orbint.quotient import LocalModel, catalog_model, express_in_invariants
from orbint.scene import parse_scene


def d_var(field, variables, name):
    """The 1-form d(name) on the chart `variables`."""
    one = RationalFn(MultiPoly.const(field, variables, 1))
    return DiffForm(field, variables, 1, {(variables.index(name),): one})


def d_up(model, name):
    return d_var(model.field, model.uvars, name)


def d_down(model, name):
    return d_var(model.field, model.yvars, name)


def upoly(model, name):
    return MultiPoly.var(model.field, model.uvars, name)


def dpoly(model, name):
    return MultiPoly.var(model.field, model.yvars, name)


def over(form, poly):
    return form.scale(RationalFn(MultiPoly.const(poly.field, poly.vars, 1), poly))


def test_wedge_antisymmetry(a1):
    du, dv = d_up(a1, "u"), d_up(a1, "v")
    assert wedge(du, dv) == -wedge(dv, du)
    assert wedge(du, du).is_zero()


def test_leibniz(a1):
    u, v = upoly(a1, "u"), upoly(a1, "v")
    f = DiffForm.function(RationalFn(u * v))
    df = exterior_d(f)
    du, dv = d_up(a1, "u"), d_up(a1, "v")
    assert df == du.scale(RationalFn(v)) + dv.scale(RationalFn(u))


def test_d_squared_zero(a1):
    u, v = upoly(a1, "u"), upoly(a1, "v")
    for f in (u * v, u ** 3 - v, u * v ** 2 + 1):
        assert exterior_d(exterior_d(DiffForm.function(RationalFn(f)))).is_zero()
    w = d_up(a1, "u").scale(RationalFn(u * v ** 2))
    assert exterior_d(exterior_d(w)).is_zero()


def test_chart_mismatch(a1):
    with pytest.raises(ChartMismatch):
        wedge(d_up(a1, "u"), d_down(a1, "x"))


def test_q_pullback_dx(a1):
    u = upoly(a1, "u")
    got = q_pullback(a1, d_down(a1, "x"))
    assert got == d_up(a1, "u").scale(RationalFn(u * 2))


def test_q_pullback_logarithmic(a1):
    # q^(dx/x) = d(u^2)/u^2 = 2 du/u
    u = upoly(a1, "u")
    x = dpoly(a1, "x")
    got = q_pullback(a1, over(d_down(a1, "x"), x))
    expected = over(d_up(a1, "u").scale(2), u)
    assert got == expected


def test_q_pullback_dz(a1):
    u, v = upoly(a1, "u"), upoly(a1, "v")
    got = q_pullback(a1, d_down(a1, "z"))
    assert got == d_up(a1, "u").scale(RationalFn(v)) + \
        d_up(a1, "v").scale(RationalFn(u))


def test_q_pullback_wedge_homomorphism(a1):
    x, y = dpoly(a1, "x"), dpoly(a1, "y")
    a = over(d_down(a1, "x"), x)
    b = d_down(a1, "y").scale(RationalFn(y))
    lhs = q_pullback(a1, wedge(a, b))
    rhs = wedge(q_pullback(a1, a), q_pullback(a1, b))
    assert lhs == rhs


def test_symmetrize_invariant(a1):
    u, v = upoly(a1, "u"), upoly(a1, "v")
    w = d_up(a1, "u").scale(RationalFn(u * v + v))
    sym = symmetrize(a1, w)
    for el in a1.group:
        assert act_form(a1, el, sym) == sym


def test_default_denominators(a1):
    dens = default_denominators(a1)
    reprs = {repr(d) for d in dens}
    assert reprs == {"1", "x", "y", "x*y"}


def test_trace_of_pullback_is_degree(a1):
    dx = d_down(a1, "x")
    traced = trace_form(a1, q_pullback(a1, dx))
    assert downstairs_equal(a1, traced, dx.scale(2))


def test_trace_logarithmic_identity(a1):
    # Trace[du/u] = [dx/x]
    u = upoly(a1, "u")
    x = dpoly(a1, "x")
    traced = trace_form(a1, over(d_up(a1, "u"), u))
    assert downstairs_equal(a1, traced, over(d_down(a1, "x"), x))


def test_trace_volume_identity(a1):
    # Trace[du/u ^ dv/v] = (1/2)[dx/x ^ dy/y]
    u, v = upoly(a1, "u"), upoly(a1, "v")
    x, y = dpoly(a1, "x"), dpoly(a1, "y")
    w = wedge(over(d_up(a1, "u"), u), over(d_up(a1, "v"), v))
    traced = trace_form(a1, w)
    target = wedge(over(d_down(a1, "x"), x),
                   over(d_down(a1, "y"), y)).scale(Fraction(1, 2))
    assert downstairs_equal(a1, traced, target)


def test_trace_volume_form(a1):
    # du ^ dv is already invariant; oracle: q^(dx^dy/(2z)) = 2 du^dv
    u, v = upoly(a1, "u"), upoly(a1, "v")
    z = dpoly(a1, "z")
    w = wedge(d_up(a1, "u"), d_up(a1, "v"))
    cand = over(wedge(d_down(a1, "x"), d_down(a1, "y")), z * 2)
    assert q_pullback(a1, cand) == symmetrize(a1, w)
    traced = trace_form(a1, w)
    assert downstairs_equal(a1, traced, cand)


def test_trace_symmetrized_differential(a1):
    # u dv + v du = d(uv) descends to dz; symmetrization doubles
    u, v = upoly(a1, "u"), upoly(a1, "v")
    w = d_up(a1, "v").scale(RationalFn(u)) + d_up(a1, "u").scale(RationalFn(v))
    traced = trace_form(a1, w)
    assert downstairs_equal(a1, traced, d_down(a1, "z").scale(2))


def test_trace_polynomial_zero_form(a1):
    u = upoly(a1, "u")
    f = DiffForm.function(RationalFn(u ** 2))
    traced = trace_form(a1, f)
    x = dpoly(a1, "x")
    assert downstairs_equal(a1, traced, DiffForm.function(RationalFn(x * 2)))


def test_trace_commutes_with_d(a1):
    u, v = upoly(a1, "u"), upoly(a1, "v")
    samples = [
        d_up(a1, "u").scale(RationalFn(u ** 2 * v)),
        DiffForm.function(RationalFn(u * v)),
        d_up(a1, "v").scale(RationalFn(u * v ** 2 + v)),
    ]
    for w in samples:
        lhs = exterior_d(trace_form(a1, w))
        rhs = trace_form(a1, exterior_d(w))
        assert downstairs_equal(a1, lhs, rhs)


def test_direct_factor_report(a1):
    x, y, z = (dpoly(a1, n) for n in a1.yvars)
    samples = [
        d_down(a1, "x"),
        over(d_down(a1, "x"), x),
        over(d_down(a1, "y"), y),
        over(wedge(d_down(a1, "x"), d_down(a1, "y")), z),
    ]
    rows = verify_direct_factor(a1, samples)
    assert all(ok for _, ok in rows)
    assert len(rows) == 4


def test_direct_factor_randomized(a1, rng):
    # randomized suite of invariant-denominator forms
    x, y, z = (dpoly(a1, n) for n in a1.yvars)
    dens = default_denominators(a1)
    basis = [d_down(a1, n) for n in a1.yvars]
    for _ in range(6):
        num = MultiPoly.const(QQ, a1.yvars, rng.randint(1, 3)) \
            + x * rng.randint(-2, 2) + y * rng.randint(-2, 2) \
            + z * rng.randint(-2, 2)
        den = dens[rng.randrange(len(dens))]
        alpha = basis[rng.randrange(3)].scale(RationalFn(num, den))
        traced = trace_form(a1, q_pullback(a1, alpha))
        assert downstairs_equal(a1, traced, alpha.scale(a1.k))


def test_ansatz_exhausted(a1):
    # a symmetrized form needing a denominator outside the default set
    u, v = upoly(a1, "u"), upoly(a1, "v")
    weird = over(d_up(a1, "u"), (v - 1) * u)
    with pytest.raises(AnsatzExhausted):
        trace_form(a1, weird, budget=Budget(ansatz_degree=2))


def test_trace_rejects_downstairs_input(a1):
    with pytest.raises(ChartMismatch):
        trace_form(a1, d_down(a1, "x"))


def test_trace_identities_on_cyclotomic_model(a2):
    # degree-3 trace: trace(q^ alpha) = 3 alpha, and the volume form
    # du^dv descends to dx^dy/(3 z^2) since q^ of that is
    # (3u^2 du)^(3v^2 dv)/(3 (uv)^2) = 3 du^dv = symmetrize(du^dv)
    one = MultiPoly.const(a2.field, a2.yvars, 1)
    x = MultiPoly.var(a2.field, a2.yvars, "x")
    z = MultiPoly.var(a2.field, a2.yvars, "z")
    dx = d_var(a2.field, a2.yvars, "x")
    dy = d_var(a2.field, a2.yvars, "y")
    traced = trace_form(a2, q_pullback(a2, dx))
    assert downstairs_equal(a2, traced, dx.scale(3))
    dxox = dx.scale(RationalFn(one, x))
    assert downstairs_equal(a2, trace_form(a2, q_pullback(a2, dxox)),
                            dxox.scale(3))
    du = d_var(a2.field, a2.uvars, "u")
    dv = d_var(a2.field, a2.uvars, "v")
    vol = wedge(du, dv)
    cand = wedge(dx, dy).scale(RationalFn(one, z * z * 3))
    assert q_pullback(a2, cand) == symmetrize(a2, vol)
    assert downstairs_equal(a2, trace_form(a2, vol), cand)


# --- the trace system against the per-denominator reference -------------------

def _reference_solve_single_denominator(model, omega_sym, tuples, pulled_basis,
                                        monomials, den):
    """The per-denominator builder the ansatz replaced: it pulls every
    monomial and the denominator up and rebuilds every row for each
    denominator it tries."""
    field = model.field
    den_up = model.pull_poly(den)
    if den_up.is_zero():
        return None
    unknowns = []
    columns = []
    for t in tuples:
        for m in monomials:
            m_up = model.pull_poly(m)
            col = {}
            for idx, c in pulled_basis[t].terms.items():
                num = c.num * m_up * (field.one / c.den.constant_value())
                if not num.is_zero():
                    col[idx] = num
            unknowns.append((t, m))
            columns.append(col)
    all_idx = sorted({i for c in columns for i in c} | set(omega_sym.terms))
    rows = []
    rhs = []
    for idx in all_idx:
        target = omega_sym.terms.get(idx)
        if target is None:
            t_num = MultiPoly.zero(field, model.uvars)
            t_den = MultiPoly.const(field, model.uvars, 1)
        else:
            t_num, t_den = target.num, target.den
        lhs_cols = []
        for col in columns:
            poly = col.get(idx)
            lhs_cols.append(poly * t_den if poly is not None else None)
        rhs_poly = t_num * den_up
        monoms = set(rhs_poly.terms)
        for pc in lhs_cols:
            if pc is not None:
                monoms |= set(pc.terms)
        for mono in sorted(monoms):
            rows.append([pc.terms.get(mono, field.zero) if pc is not None
                         else field.zero for pc in lhs_cols])
            rhs.append(rhs_poly.terms.get(mono, field.zero))
    if not rows:
        return None
    sol = forms.solve_linear(field, rows, rhs)
    if not sol.consistent:
        return None
    terms = {}
    for (t, m), c in zip(unknowns, sol.solution):
        if c:
            s = RationalFn(m * c, den)
            terms[t] = s if t not in terms else terms[t] + s
    alpha = DiffForm(field, model.yvars, omega_sym.degree,
                     {t: c for t, c in terms.items() if not c.is_zero()})
    return alpha if q_pullback(model, alpha) == omega_sym else None


def _reference_trace(model, omega, budget):
    omega_sym = symmetrize(model, omega)
    p = omega.degree
    field = model.field
    if omega_sym.is_zero():
        return DiffForm.zero(field, model.yvars, p)
    dens = default_denominators(model)
    coeff = omega_sym.terms.get(())
    if p == 0 and coeff is not None and coeff.is_polynomial():
        alpha = DiffForm.function(RationalFn(
            express_in_invariants(model, coeff.num)))
        if q_pullback(model, alpha) == omega_sym:
            return alpha
    tuples = list(itertools.combinations(range(len(model.yvars)), p))
    one = RationalFn(MultiPoly.const(field, model.yvars, 1))
    pulled_basis = {t: q_pullback(model, DiffForm(field, model.yvars, p, {t: one}))
                    for t in tuples}
    for bound in range(budget.ansatz_degree + 1):
        monomials = forms._monomials_up_to(field, model.yvars, bound)
        for den in dens:
            alpha = _reference_solve_single_denominator(
                model, omega_sym, tuples, pulled_basis, monomials, den)
            if alpha is not None:
                return alpha
    raise AnsatzExhausted("reference ansatz exhausted")


def _trace_samples(model, rng):
    """Seeded downstairs forms pulled up, in degrees 0-2, with rational
    scalars and default denominators, plus (last) an upstairs form that needs
    a denominator outside the default set."""
    return _pulled_back_samples(model, rng) + [_outside_sample(model)]


def _pulled_back_samples(model, rng):
    field, yvars = model.field, model.yvars
    dens = default_denominators(model)
    out = []
    for degree in (0, 1, 1, 2):
        slots = list(itertools.combinations(range(len(yvars)), degree))
        terms = {}
        for idx in rng.sample(slots, min(2, len(slots))):
            num = MultiPoly.const(field, yvars, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
            for v in yvars:
                num = num + MultiPoly.var(field, yvars, v) * rng.randint(-2, 2)
            terms[idx] = RationalFn(num, dens[rng.randrange(len(dens))])
        out.append(q_pullback(model, DiffForm(field, yvars, degree, terms)))
    return out


def _outside_sample(model):
    u0 = MultiPoly.var(model.field, model.uvars, model.uvars[0])
    u1 = MultiPoly.var(model.field, model.uvars, model.uvars[1])
    return d_up(model, model.uvars[0]).scale(RationalFn(u1 * u1 + 1, u0 - 1))


def _zero_row_witness(rows, rhs) -> bool:
    """A zero row with a nonzero right-hand side: an exact proof that the
    system has no solution."""
    return any(b and not any(row) for row, b in zip(rows, rhs))


def _record_systems(monkeypatch):
    """Record each (rows, rhs, consistent) that reaches forms.solve_linear."""
    systems = []
    real_solve = forms.solve_linear

    def recording_solve(field, rows, rhs):
        sol = real_solve(field, rows, rhs)
        systems.append(([list(r) for r in rows], list(rhs), sol.consistent))
        return sol

    monkeypatch.setattr(forms, "solve_linear", recording_solve)
    return systems


def test_trace_system_matches_the_per_denominator_reference(
        a1, a2, prod_a1_t1, monkeypatch):
    # The reference solves every candidate; trace_form solves, in the same
    # order, exactly those without a zero-row witness.  On the pulled-back
    # samples those are the consistent ones; the sample outside the ansatz
    # also passes the screen with inconsistent systems.
    systems = _record_systems(monkeypatch)
    pulls = []
    real_pull = LocalModel.pull_poly

    def counting_pull(self, p):
        pulls.append(p)
        return real_pull(self, p)

    monkeypatch.setattr(LocalModel, "pull_poly", counting_pull)
    budget = Budget(ansatz_degree=2)
    rng = random.Random(7)
    seen = {"solved": 0, "exhausted": 0, "rational_target": 0, "skipped": 0}
    for model in (a1, a2, prod_a1_t1):
        samples = _trace_samples(model, rng)
        for omega in samples:
            seen["rational_target"] += any(not c.is_polynomial()
                                           for c in omega.terms.values())
            outcomes = []
            for trace in (forms.trace_form, _reference_trace):
                systems.clear()
                pulls.clear()
                try:
                    result = trace(model, omega, budget=budget)
                except AnsatzExhausted:
                    result = AnsatzExhausted
                outcomes.append((result, list(systems)))
                if trace is forms.trace_form:
                    assert len(pulls) == len(set(pulls))
            (got, got_systems), (want, want_systems) = outcomes
            assert got_systems == [s for s in want_systems
                                   if not _zero_row_witness(s[0], s[1])]
            for rows, rhs, consistent in want_systems:
                if _zero_row_witness(rows, rhs):
                    assert not consistent
                    seen["skipped"] += 1
                elif omega is not samples[-1]:
                    assert consistent
            assert got == want
            seen["solved" if got is not AnsatzExhausted else "exhausted"] += 1
    assert seen["exhausted"] >= 3 and seen["solved"] >= 6
    assert seen["rational_target"] >= 6, seen
    assert seen["skipped"] > 0, seen


def test_every_solved_trace_system_of_a_pull_back_is_consistent(
        a1, a2, prod_a1_t1, monkeypatch):
    # Past the zero-row screen no system of a pulled-back form is
    # inconsistent; a form outside the ansatz still reaches solve_linear,
    # which stays the exact arbiter.
    systems = _record_systems(monkeypatch)
    budget = Budget(ansatz_degree=2)
    rng = random.Random(11)
    for model in (a1, a2, prod_a1_t1):
        for omega in _pulled_back_samples(model, rng):
            try:
                forms.trace_form(model, omega, budget=budget)
            except AnsatzExhausted:
                pass
    assert len(systems) >= 6
    assert all(consistent for _, _, consistent in systems)
    systems.clear()
    with pytest.raises(AnsatzExhausted):
        forms.trace_form(a1, _outside_sample(a1), budget=budget)
    assert systems and not any(consistent for _, _, consistent in systems)


# --- pull-back and group action against the wedge-chain reference -------------

def _reference_pullback(images, a, source_vars):
    """The wedge-chain pull-back the Jacobian minors replaced: each
    coefficient is substituted with a full gcd and wedged with the total
    differential of each image in turn."""
    field, src = a.field, tuple(source_vars)
    d_images = {}
    for v in a.vars:
        terms = {}
        for j in range(len(src)):
            dj = images[v].derivative(j)
            if not dj.is_zero():
                terms[(j,)] = RationalFn(dj)
        d_images[v] = DiffForm(field, src, 1, terms)
    acc = DiffForm.zero(field, src, a.degree)
    for idx, c in a.terms.items():
        num, den = c.num.substitute(images), c.den.substitute(images)
        if den.is_zero():
            raise DenominatorVanishesIdentically("reference")
        piece = DiffForm(field, src, 0, {(): RationalFn(num, den)})
        for i in idx:
            piece = wedge(piece, d_images[a.vars[i]])
        acc = acc + piece
    return acc


def _element_images(model, element):
    return {v: linear_form(model.field, model.uvars, element[i])
            for i, v in enumerate(model.uvars)}


def _reference_symmetrize(model, a):
    acc = DiffForm.zero(model.field, model.uvars, a.degree)
    for el in model.group:
        acc = acc + _reference_pullback(_element_images(model, el), a,
                                        model.uvars)
    return acc


def _seeded_forms(field, variables, dens, rng):
    """One seeded form of each degree 0..len(variables) whose coefficients
    have affine numerators over denominators drawn from `dens`."""
    out = []
    for degree in range(len(variables) + 1):
        slots = list(itertools.combinations(range(len(variables)), degree))
        terms = {}
        for idx in rng.sample(slots, min(3, len(slots))):
            num = MultiPoly.const(field, variables,
                                  Fraction(rng.randint(1, 3), rng.randint(1, 3)))
            for v in variables:
                num = num + MultiPoly.var(field, variables, v) * rng.randint(-2, 2)
            terms[idx] = RationalFn(num, rng.choice(dens))
        out.append(DiffForm(field, variables, degree, terms))
    return out


def _upstairs_denominators(model):
    """Denominators whose leading coefficient a group element can move,
    so the action must make them monic again."""
    field, uvars = model.field, model.uvars
    u = [MultiPoly.var(field, uvars, v) for v in uvars]
    one = MultiPoly.const(field, uvars, 1)
    return [one, u[0] - 1, u[0] + u[-1] * 2, u[0] * u[-1] + 1, u[-1] * u[-1] - 3]


MODELS = ("A1", "A2", "trivial-3", "product(A1, trivial-1)")
SWAP_SCENE = ("field rationals\nmodel S = quotient generators [[0, 1], [1, 0]] "
              "invariants u + v, u*v upstairs u, v downstairs s, p\n")


@pytest.mark.parametrize("name", MODELS)
def test_q_pullback_matches_the_wedge_chain(name):
    model = catalog_model(name)
    rng = random.Random(f"pullback:{name}")
    dens = default_denominators(model)
    for alpha in _seeded_forms(model.field, model.yvars, dens, rng):
        assert q_pullback(model, alpha) == _reference_pullback(
            model.theta_images(), alpha, model.uvars)


def test_q_pullback_of_coefficients_sharing_factors_with_minors(a1):
    # z/x dx pulls back to (v/u)(2u du) = 2v du: the minor 2u cancels the
    # pulled denominator; likewise z/(x y) dx^dy and y/z dz
    x, y, z = (dpoly(a1, n) for n in a1.yvars)
    dx, dy, dz = (d_down(a1, n) for n in a1.yvars)
    v = upoly(a1, "v")
    forms_ = [dx.scale(RationalFn(z, x)), wedge(dx, dy).scale(RationalFn(z, x * y)),
              dz.scale(RationalFn(y, z)) + dx.scale(RationalFn(z, x)),
              wedge(dx, dz).scale(RationalFn(y, x * z))]
    assert q_pullback(a1, forms_[0]) == d_up(a1, "u").scale(RationalFn(v * 2))
    for alpha in forms_:
        assert q_pullback(a1, alpha) == _reference_pullback(
            a1.theta_images(), alpha, a1.uvars)


def test_pullback_along_a_non_linear_map_matches_the_wedge_chain():
    target = ("s", "t")
    source = ("a", "b", "c")
    a, b, c = (MultiPoly.var(QQ, source, v) for v in source)
    images = {"s": a * b + c * c, "t": a - c ** 3 + 1}
    s, t = (MultiPoly.var(QQ, target, v) for v in target)
    one = MultiPoly.const(QQ, target, 1)
    rng = random.Random("non-linear")
    for alpha in _seeded_forms(QQ, target, [one, s, t - 1, s * t + 2], rng):
        assert pullback_form(images, alpha, source) == \
            _reference_pullback(images, alpha, source)
    # a square map whose Jacobian determinant shares a factor with the
    # pulled denominator: (s, t) -> (a^2, a b), ds^dt / s -> 2 da^db
    square = {"s": a * a, "t": a * b}
    vol = wedge(d_var(QQ, target, "s"), d_var(QQ, target, "t"))
    got = pullback_form(square, vol.scale(RationalFn(one, s)), source)
    assert got == wedge(d_var(QQ, source, "a"),
                        d_var(QQ, source, "b")).scale(2)


def test_pullback_raises_when_a_denominator_vanishes():
    target, source = ("s", "t"), ("a",)
    a = MultiPoly.var(QQ, source, "a")
    s, t = (MultiPoly.var(QQ, target, v) for v in target)
    alpha = d_var(QQ, target, "s").scale(
        RationalFn(MultiPoly.const(QQ, target, 1), s - t))
    images = {"s": a, "t": a}
    for pull in (pullback_form, _reference_pullback):
        with pytest.raises(DenominatorVanishesIdentically):
            pull(images, alpha, source)


@pytest.mark.parametrize("name", MODELS)
def test_act_form_matches_the_reference_on_every_element(name):
    model = catalog_model(name)
    rng = random.Random(f"act:{name}")
    dens = _upstairs_denominators(model)
    samples = _seeded_forms(model.field, model.uvars, dens, rng)
    for el in model.group:
        images = _element_images(model, el)
        for omega in samples:
            assert act_form(model, el, omega) == _reference_pullback(
                images, omega, model.uvars)
            for c in omega.terms.values():
                assert c.substitute_invertible(images) == RationalFn(
                    c.num.substitute(images), c.den.substitute(images))
    for omega in samples:
        assert symmetrize(model, omega) == _reference_symmetrize(model, omega)


def test_act_form_on_a_non_diagonal_group():
    model = parse_scene(SWAP_SCENE).models["S"]
    assert model.k == 2
    rng = random.Random("swap")
    samples = _seeded_forms(model.field, model.uvars,
                            _upstairs_denominators(model), rng)
    for el in model.group:
        for omega in samples:
            assert act_form(model, el, omega) == _reference_pullback(
                _element_images(model, el), omega, model.uvars)
    for omega in samples:
        sym = symmetrize(model, omega)
        assert sym == _reference_symmetrize(model, omega)
        for el in model.group:
            assert act_form(model, el, sym) == sym
