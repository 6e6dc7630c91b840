"""Cyclotomic scalar arithmetic against sympy, an independent oracle.

sympy is used only here and only when installed; orbint does not depend
on it."""

import random
from fractions import Fraction

import pytest

from orbint.arith import CycElem, CyclotomicField

sympy = pytest.importorskip("sympy")


def random_elem(field, rng):
    return CycElem(field, tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                                for _ in range(field.degree)))


def to_sympy(a, t):
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(a.coords))


def from_sympy(expr, t, degree):
    coeffs = sympy.Poly(expr, t, domain="QQ").all_coeffs()[::-1]
    coeffs += [0] * (degree - len(coeffs))
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


@pytest.mark.parametrize("conductor", (3, 5, 8))
def test_product_and_inverse_match_sympy(conductor):
    field = CyclotomicField(conductor)
    t = sympy.Symbol("t")
    phi = sympy.cyclotomic_poly(conductor, t)
    rng = random.Random(conductor)
    for _ in range(15):
        a, b = random_elem(field, rng), random_elem(field, rng)
        expected = sympy.rem(to_sympy(a, t) * to_sympy(b, t), phi, t)
        assert (a * b).coords == from_sympy(expected, t, field.degree)
        if a:
            expected = sympy.invert(to_sympy(a, t), phi, t)
            assert a.inverse().coords == from_sympy(expected, t, field.degree)
