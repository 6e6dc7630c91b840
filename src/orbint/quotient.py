"""Affine local models q : C^n -> C^n/G.

A LocalModel packages a finite matrix group G acting on upstairs coordinates
u_1..u_n, a list of G-invariant polynomials theta_1..theta_m, downstairs
coordinates y_1..y_m, the graph ideal (y_j - theta_j) under an elimination
order with the u-block in front, and the relations ideal I_M obtained by
eliminating the u-block.  The degree of q equals |G|.

The canonical downstairs representative of an invariant polynomial is its
normal form against the graph ideal under that fixed block order, which makes
all reports deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .arith import Field, QQ, CyclotomicField, solve_linear
from .errors import GenerationDeficit, NotInSubalgebra, NotInvariant
from .group import FiniteMatrixGroup, act, enumerate_group, is_invariant, molien
from .poly import Ideal, MultiPoly, TermOrder


@dataclass
class LocalModel:
    """Quotient chart data; immutable after build.

    Derived data (orbit classes, trace denominators) is cached on the
    instance lazily under the same single-writer discipline as the Groebner
    cache of an Ideal: distinct models can be used concurrently, one model
    value must not be fed to two tasks racing on first use.
    """

    field: Field
    group: FiniteMatrixGroup
    uvars: tuple[str, ...]
    thetas: tuple[MultiPoly, ...]       # in F[u]
    yvars: tuple[str, ...]
    relations: Ideal                    # I_M in F[y]
    graph: Ideal                        # (y_j - theta_j) in F[u + y]
    graph_order: TermOrder
    name: str = "model"
    audit: tuple[int, ...] = ()         # degrees with a generation deficit

    @property
    def k(self) -> int:
        """Degree of the quotient map (= group order)."""
        return self.group.order

    @property
    def n(self) -> int:
        return len(self.uvars)

    @property
    def graph_vars(self) -> tuple[str, ...]:
        return self.uvars + self.yvars

    # -- ring movers ---------------------------------------------------------

    def up_poly(self, terms) -> MultiPoly:
        return MultiPoly(self.field, self.uvars, terms)

    def theta_images(self) -> dict[str, MultiPoly]:
        """Substitution map y_j -> theta_j(u) into the upstairs ring."""
        return {y: th for y, th in zip(self.yvars, self.thetas)}

    def pull_poly(self, p: MultiPoly) -> MultiPoly:
        """Substitute theta for the downstairs variables: F[y] -> F[u]."""
        if p.vars != self.yvars:
            raise ValueError("expected a downstairs polynomial")
        return p.substitute(self.theta_images())

    def image_ideal(self, upstairs: Ideal) -> Ideal:
        """Defining ideal downstairs of q(V(P)) (contains the relations)."""
        gens = [g.embed(self.graph_vars) for g in upstairs.gens]
        gens += list(self.graph.gens)
        big = Ideal(self.field, self.graph_vars, gens)
        elim = big.eliminate(list(self.yvars))
        return Ideal(self.field, self.yvars, list(elim.gens))

    def __repr__(self):
        return f"LocalModel({self.name}, k={self.k}, n={self.n})"


def build_model(group: FiniteMatrixGroup, thetas: list[MultiPoly],
                uvars: tuple[str, ...], yvars: tuple[str, ...] | None = None,
                name: str = "model", audit_bound: int = 4) -> LocalModel:
    """Construct a local model from a group and invariant generators.

    Each theta must be G-invariant (NotInvariant names the first offender).
    A Molien-vs-generated dimension audit runs up to audit_bound; degrees
    where the thetas provably fail to generate are reported with a
    GenerationDeficit warning but do not abort the build.
    """
    field = group.field
    if yvars is None:
        yvars = tuple(f"y{i+1}" for i in range(len(thetas)))
    if len(yvars) != len(thetas):
        raise ValueError("one downstairs variable per invariant")
    if set(uvars) & set(yvars):
        raise ValueError("upstairs and downstairs variable names must differ")
    for y, th in zip(yvars, thetas):
        if th.vars != uvars:
            raise ValueError("invariants must live in the upstairs ring")
        if not is_invariant(group, th):
            raise NotInvariant(f"theta for {y} = {th!r} is not G-invariant")
    graph_vars = uvars + yvars
    order = TermOrder("block", split=len(uvars))
    gens = []
    for y, th in zip(yvars, thetas):
        gens.append(MultiPoly.var(field, graph_vars, y) - th.embed(graph_vars))
    graph = Ideal(field, graph_vars, gens)
    elim = graph.eliminate(list(yvars))
    relations = Ideal(field, yvars, list(elim.gens))
    if not relations.is_zero_ideal():
        dim = relations.dimension()
        if dim != len(uvars):
            raise ValueError(f"relations ideal has dimension {dim}, expected {len(uvars)}")
    deficits = _generation_audit(group, thetas, uvars, audit_bound)
    if deficits:
        warnings.warn(f"invariants fail to generate in degrees {deficits}",
                      GenerationDeficit)
    return LocalModel(field, group, tuple(uvars), tuple(thetas), tuple(yvars),
                      relations, graph, order, name=name,
                      audit=tuple(deficits))


def _generation_audit(group, thetas, uvars, bound: int) -> list[int]:
    """Degrees <= bound where products of the thetas span less than the
    Molien dimension.  Only meaningful for homogeneous invariants; mixed
    degrees skip the audit."""
    degrees = []
    for th in thetas:
        degs = {sum(m) for m in th.terms}
        if len(degs) != 1:
            return []
        degrees.append(degs.pop())
    counts = molien(group, bound)
    field = group.field
    deficits = []
    for d in range(1, bound + 1):
        want = counts[d]
        if want == 0:
            continue
        products = _products_of_degree(thetas, degrees, d, field, uvars)
        monomials = sorted({m for p in products for m in p.terms})
        index = {m: i for i, m in enumerate(monomials)}
        rows = []
        for p in products:
            row = [field.zero] * len(index)
            for m, c in p.terms.items():
                row[index[m]] = c
            rows.append(row)
        rank = 0
        if rows:
            # rank via the nullspace of the transpose-free system
            sol = solve_linear(field, rows, [field.zero] * len(rows))
            rank = len(rows[0]) - len(sol.nullspace) if rows[0] else 0
        if rank < want:
            deficits.append(d)
    return deficits


def _products_of_degree(thetas, degrees, d, field, uvars):
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        if idx == len(thetas):
            return
        rec(idx + 1, remaining, acc)
        if degrees[idx] <= remaining:
            rec(idx, remaining - degrees[idx], acc * thetas[idx])

    rec(0, d, MultiPoly.const(field, uvars, 1))
    return [p for p in out if not p.is_constant()]


def express_in_invariants(model: LocalModel, f: MultiPoly) -> MultiPoly:
    """Write a G-invariant upstairs polynomial in the downstairs variables.

    Returns the canonical representative (normal form against the graph
    ideal under the model's elimination order); unique modulo I_M.
    """
    if f.vars != model.uvars:
        raise ValueError("expected an upstairs polynomial")
    if not is_invariant(model.group, f):
        raise NotInvariant("polynomial is not G-invariant")
    nf = model.graph.normal_form(f.embed(model.graph_vars), model.graph_order)
    n = model.n
    if any(any(m[i] for i in range(n)) for m in nf.terms):
        raise NotInSubalgebra(
            "normal form still contains upstairs variables; "
            "the invariants do not express this polynomial")
    return MultiPoly(model.field, model.yvars,
                     {m[n:]: c for m, c in nf.terms.items()})


def norm_polynomial(model: LocalModel, g: MultiPoly) -> MultiPoly:
    """Downstairs expression of N(g) = prod_{h in G} h.g.

    The zero divisor of the result downstairs is k.D when g cuts q*D
    upstairs (the Weil -> Q-Cartier construction); the cycle-level statement
    is checked in the cycle module.
    """
    if g.is_zero():
        raise ValueError("norm of zero")
    prod = MultiPoly.const(model.field, model.uvars, 1)
    for el in model.group:
        prod = prod * act(model.group, el, g)
    return express_in_invariants(model, prod)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def model_a1() -> LocalModel:
    """C^2 / {+-1}: invariants (u^2, v^2, uv), relations xy = z^2."""
    group = enumerate_group(QQ, [[[-1, 0], [0, -1]]])
    uvars = ("u", "v")
    u = MultiPoly.var(QQ, uvars, "u")
    v = MultiPoly.var(QQ, uvars, "v")
    return build_model(group, [u * u, v * v, u * v], uvars,
                       yvars=("x", "y", "z"), name="A1")


def model_a2() -> LocalModel:
    """C^2 / mu_3 with weights (1, 2): invariants (u^3, v^3, uv)."""
    K = CyclotomicField(3)
    z = K.generator
    group = enumerate_group(K, [[[z, 0], [0, z * z]]])
    uvars = ("u", "v")
    u = MultiPoly.var(K, uvars, "u")
    v = MultiPoly.var(K, uvars, "v")
    return build_model(group, [u ** 3, v ** 3, u * v], uvars,
                       yvars=("x", "y", "z"), name="A2")


def model_trivial(n: int, field: Field = QQ) -> LocalModel:
    """Identity group on C^n; the chart is its own model of degree 1."""
    ident = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    group = enumerate_group(field, [ident])
    uvars = tuple(f"t{i+1}" for i in range(n)) if n > 1 else ("t1",)
    thetas = [MultiPoly.var(field, uvars, v) for v in uvars]
    yvars = tuple(f"w{i+1}" for i in range(n))
    return build_model(group, thetas, uvars, yvars=yvars,
                       name=f"trivial-{n}")


def model_product(m1: LocalModel, m2: LocalModel) -> LocalModel:
    """Block-diagonal product model with G = G1 x G2."""
    if m1.field != m2.field:
        raise ValueError("product factors must share a base field")
    field = m1.field
    uvars2 = _dedupe(m2.uvars, m1.uvars)
    yvars2 = _dedupe(m2.yvars, m1.yvars + m1.uvars + uvars2)
    uvars = m1.uvars + uvars2
    yvars = m1.yvars + yvars2
    n1, n2 = m1.n, m2.n
    elements = []
    for a in m1.group:
        for b in m2.group:
            rows = []
            for i in range(n1):
                rows.append(tuple(list(a[i]) + [field.zero] * n2))
            for i in range(n2):
                rows.append(tuple([field.zero] * n1 + list(b[i])))
            elements.append(tuple(rows))
    group = FiniteMatrixGroup(field, n1 + n2, elements)
    thetas = [th.embed(uvars) for th in m1.thetas]
    rename2 = dict(zip(m2.uvars, uvars2))
    for th in m2.thetas:
        moved = MultiPoly(field, tuple(rename2[v] for v in th.vars), dict(th.terms))
        thetas.append(moved.embed(uvars))
    return build_model(group, thetas, uvars, yvars=yvars,
                       name=f"product({m1.name}, {m2.name})")


def _dedupe(names: tuple[str, ...], taken) -> tuple[str, ...]:
    out = []
    taken = set(taken)
    for n in names:
        candidate = n
        while candidate in taken:
            candidate = candidate + "_2"
        out.append(candidate)
        taken.add(candidate)
    return tuple(out)


def catalog_model(name: str) -> LocalModel:
    """Built-in models addressable by name in scene files."""
    name = name.strip()
    if name == "A1":
        return model_a1()
    if name == "A2":
        return model_a2()
    if name.startswith("trivial-"):
        return model_trivial(int(name.split("-", 1)[1]))
    if name.startswith("product(") and name.endswith(")"):
        inner = name[len("product("):-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left, right = inner[:i], inner[i + 1:]
                return model_product(catalog_model(left.strip()),
                                     catalog_model(right.strip()))
        raise ValueError(f"malformed product model name {name!r}")
    raise ValueError(f"unknown catalog model {name!r}")
