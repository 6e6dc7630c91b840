"""Finite matrix groups acting on polynomial rings.

Elements are dense matrices over the base field, enumerated by closure from
the generators; equality is exact matrix comparison (desk scale: order below
10^4, dimension below ~6).  The action on a polynomial is the substitution
u_i -> (g.u)_i, extended to ideals generator-wise.  Orbit sums (Reynolds
operator, norms, symmetrized forms) do not depend on the substitution-vs-
inverse convention because they range over the whole group.
"""

from __future__ import annotations

from fractions import Fraction

from . import budgets
from .arith import Field, UniPoly, _bareiss_det_poly, determinant
from .budgets import Budget
from .errors import NotFaithful, NotFinite
from .poly import Ideal, MultiPoly


class FiniteMatrixGroup:
    """Finite group of invertible n x n matrices over the base field."""

    def __init__(self, field: Field, dimension: int,
                 elements: list[tuple[tuple, ...]]):
        self.field = field
        self.n = dimension
        self.elements = list(elements)
        self.order = len(elements)
        self._index = {el: i for i, el in enumerate(elements)}

    @property
    def identity(self):
        return _identity(self.field, self.n)

    def index_of(self, element) -> int:
        return self._index[element]

    def multiply(self, a, b):
        return _mat_mul(self.field, a, b)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"FiniteMatrixGroup(n={self.n}, order={self.order})"


def _identity(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def _mat_mul(field, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for t in range(n):
                if a[i][t] and b[t][j]:
                    acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _freeze(field, matrix):
    return tuple(tuple(field.coerce(x) for x in row) for row in matrix)


def enumerate_group(field: Field, generators: list,
                    budget: Budget | None = None) -> FiniteMatrixGroup:
    """Closure enumeration of the group generated by invertible matrices.

    Raises NotFinite when the closure passes the configured bound and
    NotFaithful if a non-identity element compares equal to the identity
    (cannot happen for honest matrix input; kept as a guard for coercion
    bugs).
    """
    if not generators:
        raise ValueError("at least one generator (use the identity matrix)")
    gens = [_freeze(field, g) for g in generators]
    n = len(gens[0])
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square matrices of equal size")
        if not determinant(field, [list(r) for r in g]):
            raise ValueError("generator matrix is singular")
    bound = (budget or budgets.current()).group_bound
    ident = _identity(field, n)
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        current = frontier.pop(0)
        for g in gens:
            nxt = _mat_mul(field, current, g)
            if nxt not in seen:
                if len(seen) >= bound:
                    raise NotFinite(f"group closure exceeded {bound}")
                seen.add(nxt)
                ordered.append(nxt)
                frontier.append(nxt)
    for el in ordered[1:]:
        if el == ident:
            raise NotFaithful("duplicate identity in closure")
    return FiniteMatrixGroup(field, n, ordered)


class Subgroup:
    """Subset of a parent group closed under product and inverse."""

    def __init__(self, parent: FiniteMatrixGroup, elements: list):
        self.parent = parent
        self.elements = list(elements)
        self.order = len(elements)

    def verify_closure(self) -> bool:
        eset = set(self.elements)
        if self.parent.identity not in eset:
            return False
        for a in self.elements:
            for b in self.elements:
                if self.parent.multiply(a, b) not in eset:
                    return False
        return True

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


# ---------------------------------------------------------------------------
# action on polynomials, ideals
# ---------------------------------------------------------------------------

def act(group: FiniteMatrixGroup, element, f: MultiPoly) -> MultiPoly:
    """Substitution u_i -> (g.u)_i applied to f (a ring homomorphism)."""
    if len(f.vars) != group.n:
        raise ValueError("arity mismatch between group and polynomial")
    images = {}
    for i, v in enumerate(f.vars):
        row = element[i]
        img = MultiPoly.zero(f.field, f.vars)
        for j, c in enumerate(row):
            if c:
                img = img + MultiPoly.var(f.field, f.vars, f.vars[j]) * c
        images[v] = img
    return f.substitute(images)

def act_ideal(group: FiniteMatrixGroup, element, ideal: Ideal) -> Ideal:
    return Ideal(ideal.field, ideal.vars,
                 [act(group, element, g) for g in ideal.gens])


def reynolds(group: FiniteMatrixGroup, f: MultiPoly) -> MultiPoly:
    """Group average (1/|G|) sum_g g.f; the image is G-invariant."""
    acc = MultiPoly.zero(f.field, f.vars)
    for el in group:
        acc = acc + act(group, el, f)
    return acc * Fraction(1, group.order)


def is_invariant(group: FiniteMatrixGroup, f: MultiPoly) -> bool:
    return all(act(group, el, f) == f for el in group)


def molien(group: FiniteMatrixGroup, degree_bound: int) -> list[int]:
    """Dimensions of the spaces of invariants per degree 0..degree_bound,
    read off the Molien series (1/|G|) sum_g 1/det(I - t g)."""
    field = group.field
    terms = degree_bound + 1
    total = [field.zero] * terms
    for el in group:
        # det(I - t*g) as a UniPoly over the field, then invert the series
        n = group.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                const = field.one if i == j else field.zero
                row.append(UniPoly(field, [const, -el[i][j]]))
            rows.append(row)
        det = _bareiss_det_poly(rows)
        inv = _series_inverse(det, terms)
        for k in range(terms):
            total[k] = total[k] + inv[k]
    out = []
    for k in range(terms):
        val = total[k] * Fraction(1, group.order)
        q = _as_rational(field, val)
        if q.denominator != 1:
            raise ArithmeticError("Molien coefficient not an integer")
        out.append(int(q))
    return out


def _series_inverse(p: UniPoly, terms: int) -> list:
    """Power-series inverse of p (with invertible constant term)."""
    field = p.field
    c0 = p.coeffs[0]
    inv0 = field.one / c0
    out = [inv0] + [field.zero] * (terms - 1)
    for k in range(1, terms):
        acc = field.zero
        for j in range(1, min(k, p.degree) + 1):
            acc = acc + p.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _as_rational(field, value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if not value.is_rational():
        raise ArithmeticError("expected a rational value")
    return value.coords[0]


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

def setwise_stabilizer(group: FiniteMatrixGroup, prime: Ideal) -> Subgroup:
    """Elements mapping the ideal to itself (as an ideal)."""
    key = prime.canonical_key()
    members = []
    for el in group:
        if act_ideal(group, el, prime).canonical_key() == key:
            members.append(el)
    return Subgroup(group, members)


def inertia_group(group: FiniteMatrixGroup, prime: Ideal) -> Subgroup:
    """Elements fixing the zero set of the prime pointwise:
    (g.u)_i - u_i lies in the ideal for every coordinate u_i."""
    members = []
    variables = prime.vars
    field = prime.field
    for el in group:
        ok = True
        for i, v in enumerate(variables):
            img = MultiPoly.zero(field, variables)
            for j, c in enumerate(el[i]):
                if c:
                    img = img + MultiPoly.var(field, variables, variables[j]) * c
            diff = img - MultiPoly.var(field, variables, v)
            if not prime.contains(diff):
                ok = False
                break
        if ok:
            members.append(el)
    return Subgroup(group, members)
