"""Finite matrix groups acting on polynomial rings.

Elements are dense matrices over the base field, enumerated by closure from
the generators; equality is exact matrix comparison (desk scale: order below
10^4, dimension below ~6).  This module is the one place that turns a group
element into its action: `substitution` sends u_i -> (g.u)_i, each image one
linear form read off row i of g, and `act`, `inertia_group`, the form action,
the equivariance check of a model map and `act_ideal` on a non-diagonal
element all substitute through it.  A diagonal element (every element of a
catalog group, and the identity of any group) moves an ideal without
substituting: `act_ideal` scales each term of each generator by the
element's weights (`Ideal.rescaled`), and the image's reduced basis is the
source's, rescaled, with no Buchberger run.  `orbit_translates` is the one
loop over the translates g.I of an ideal, keyed by canonical key; orbit
classes, setwise stabilizers and family stabilizers read it.  Orbit sums
(Reynolds operator, norms, symmetrized forms) do not depend on the
substitution-vs-inverse convention because they range over the whole group.
"""

from __future__ import annotations

from fractions import Fraction

from . import budgets
from .arith import QQ, Field, UniPoly, char_poly, determinant
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

    @property
    def identity(self):
        return _identity(self.field, self.n)

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

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


# ---------------------------------------------------------------------------
# action on polynomials, ideals
# ---------------------------------------------------------------------------

def linear_form(field: Field, variables: tuple[str, ...], row) -> MultiPoly:
    """The linear form sum_j row[j] * u_j in F[variables]: coordinate i of
    g.u when row is row i of the matrix g."""
    n = len(variables)
    return MultiPoly(field, variables,
                     {tuple(int(i == j) for i in range(n)): c
                      for j, c in enumerate(row) if c})


def substitution(element, field: Field,
                 variables: tuple[str, ...]) -> dict[str, MultiPoly]:
    """The substitution u_i -> (g.u)_i of F[variables] for the matrix g."""
    if len(element) != len(variables):
        raise ValueError("arity mismatch between group and polynomial")
    return {v: linear_form(field, variables, element[i])
            for i, v in enumerate(variables)}


def act(group: FiniteMatrixGroup, element, f: MultiPoly) -> MultiPoly:
    """Substitution u_i -> (g.u)_i applied to f (a ring homomorphism)."""
    return f.substitute(substitution(element, f.field, f.vars))


def _diagonal(element) -> tuple | None:
    """The diagonal entries of the matrix g when g is diagonal, else None."""
    n = len(element)
    if any(element[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    return tuple(element[i][i] for i in range(n))


def act_ideal(group: FiniteMatrixGroup, element, ideal: Ideal) -> Ideal:
    """The translate g.I: generators substituted u_i -> (g.u)_i, or, for a
    diagonal g, their terms rescaled with the basis carried over."""
    weights = _diagonal(element)
    if weights is not None:
        return ideal.rescaled(weights)
    images = substitution(element, ideal.field, ideal.vars)
    return Ideal(ideal.field, ideal.vars,
                 [g.substitute(images) for g in ideal.gens])


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
    read off the Molien series (1/|G|) sum_g 1/det(I - t g).  The determinant
    det(I - t g) = t^n chi_g(1/t) is `char_poly(g)` with its coefficients
    reversed."""
    field = group.field
    terms = degree_bound + 1
    total = [field.zero] * terms
    for el in group:
        det = UniPoly(field, reversed(char_poly(field, el).coeffs))
        inv = _series_inverse(det, terms)
        for k in range(terms):
            total[k] = total[k] + inv[k]
    out = []
    for k in range(terms):
        val = total[k] * Fraction(1, group.order)
        q = QQ.coerce(val)
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


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

def orbit_translates(group: FiniteMatrixGroup,
                     ideal: Ideal) -> tuple[dict, list]:
    """The distinct translates g.I by canonical key, each the first reached
    in group order, and the elements g of the setwise stabilizer (g.I = I)."""
    key = ideal.canonical_key()
    translates = {}
    stabilizer = []
    for el in group:
        moved = act_ideal(group, el, ideal)
        k = moved.canonical_key()
        if k == key:
            stabilizer.append(el)
        translates.setdefault(k, moved)
    return translates, stabilizer


def setwise_stabilizer(group: FiniteMatrixGroup, prime: Ideal) -> Subgroup:
    """Elements mapping the ideal to itself (as an ideal)."""
    return Subgroup(group, orbit_translates(group, prime)[1])


def inertia_group(group: FiniteMatrixGroup, prime: Ideal) -> Subgroup:
    """Elements fixing the zero set of the prime pointwise:
    (g.u)_i - u_i lies in the ideal for every coordinate u_i."""
    members = []
    field, variables = prime.field, prime.vars
    for el in group:
        images = substitution(el, field, variables)
        # all() stops at the first coordinate that moves off the zero set
        if all(prime.contains(images[v] - MultiPoly.var(field, variables, v))
               for v in variables):
            members.append(el)
    return Subgroup(group, members)
