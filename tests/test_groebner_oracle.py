"""Reduced Groebner bases against sympy, an independent oracle.

sympy is used only here and only when installed; orbint does not depend
on it."""

import random
from fractions import Fraction

import pytest

from orbint.arith import QQ
from orbint.poly import GREVLEX, LEX, Ideal, MultiPoly

sympy = pytest.importorskip("sympy")

RINGS = (("x", "y"), ("x", "y", "z"))
ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        mon = [0] * len(ring)
        for _ in range(rng.randint(0, 3)):
            mon[rng.randrange(len(ring))] += 1
        terms[tuple(mon)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                     rng.randint(1, 3))
    return MultiPoly(QQ, ring, terms)


def to_sympy(p, gens):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod(g ** e for g, e in zip(gens, m))
               for m, c in p.terms.items())


def as_set(polys):
    return {frozenset(p.items()) for p in polys}


def sympy_basis(polys, gens, order):
    basis = sympy.groebner([to_sympy(p, gens) for p in polys], *gens,
                           order=order, domain="QQ")
    return as_set({m: Fraction(int(c.p), int(c.q))
                   for m, c in sympy.Poly(g, *gens, domain="QQ").terms()}
                  for g in basis.exprs)


@pytest.mark.parametrize("ring", RINGS, ids=("2vars", "3vars"))
@pytest.mark.parametrize("name", ORDERS)
def test_reduced_basis_matches_sympy(ring, name):
    order = ORDERS[name]
    gens = sympy.symbols(ring)
    rng = random.Random(len(ring))
    for _ in range(12):
        polys = [random_poly(ring, rng)
                 for _ in range(rng.randint(2, len(ring) + 1))]
        ours = Ideal(QQ, ring, polys).groebner(order)
        assert all(g.leading(order)[1] == 1 for g in ours)
        assert as_set(g.terms for g in ours) == sympy_basis(polys, gens, name)
