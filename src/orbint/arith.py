"""Exact scalars, univariate polynomials, factorization, and linear algebra.

Scalars are either `fractions.Fraction` (base field Q) or `CycElem`, an
element of a cyclotomic extension Q[t]/Phi_n(t) stored as integer numerators
over the power basis 1, t, ..., t^{phi(n)-1} and one positive common
denominator.  Both are immutable and hashable, representations are canonical
(Fraction reduces itself; CycElem numerators are reduced mod Phi_n and share no
factor with the denominator), and all arithmetic is exact -- no rounding ever
occurs anywhere in this package.  Since Phi_n is monic with integer
coefficients, CycElem products stay in integers, and an inverse is the product
of the Galois conjugates divided by the (integer) norm, with no Euclidean
algorithm over Q[t].

A `Field` object describes which of the two scalar kinds is in play and is
threaded through every structure built on top (polynomials, matrices, forms).

The univariate layer is dense: a `UniPoly` is a coefficient tuple with the
leading coefficient nonzero.  Factorization over Q is the classical
squarefree-decomposition + Zassenhaus pipeline (modular factors are only a
guide; every returned factor is certified by exact trial division over Z).
Over a cyclotomic extension we run squarefree decomposition and then attempt
Trager's norm method; if no squarefree norm shift is found the squarefree
parts are returned as-is, which downstream code treats as coarser clusters.
There, as for scalars, norm = product of Galois conjugates: the norm of
f(x - s*t) is the product of its images under every sigma_k, a polynomial
with rational coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations

from . import budgets
from .budgets import Budget
from .errors import DegreeTooLarge


# ---------------------------------------------------------------------------
# fields and scalars
# ---------------------------------------------------------------------------

class Field:
    """Base field descriptor.  Instances are comparable, and `zero` and
    `one` are stored immutable scalars of the field."""

    is_cyclotomic = False

    def coerce(self, value):
        raise NotImplementedError


class RationalField(Field):
    """The rationals; scalars are `fractions.Fraction`."""

    name = "rationals"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, CycElem):
            if not value.is_rational():
                raise ValueError(f"{value} is not rational")
            return Fraction(value.num[0], value.den)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    @staticmethod
    def sort_key(scalar):
        return (scalar,)


QQ = RationalField()


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficient list (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = UniPoly(QQ, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(UniPoly(QQ, cyclotomic_polynomial(d)))
    return list(poly.coeffs)


class CyclotomicField(Field):
    """Q[t]/Phi_n(t) for a fixed conductor n, over the power basis."""

    is_cyclotomic = True

    def __init__(self, conductor: int):
        if conductor < 2:
            raise ValueError("conductor must be at least 2")
        self.conductor = conductor
        # Phi_n is monic with integer coefficients, so reducing an integer
        # polynomial modulo it keeps integer coefficients
        self.modulus = tuple(int(c) for c in cyclotomic_polynomial(conductor))
        self.degree = len(self.modulus) - 1
        self.name = f"cyclotomic({conductor})"
        # t^j reduced mod Phi_n for 0 <= j < n (t^n = 1), and the exponents k
        # of the nontrivial automorphisms sigma_k: t -> t^k
        powers = []
        for j in range(conductor):
            power = [0] * (max(self.degree, j) + 1)
            power[j] = 1
            powers.append(tuple(_zreduce(power, self.modulus)))
        self.powers = tuple(powers)
        self.galois_exponents = tuple(k for k in range(2, conductor)
                                      if math.gcd(k, conductor) == 1)
        self.zero = _cyc(self, (0,) * self.degree, 1)
        self.one = _cyc(self, (1,) + (0,) * (self.degree - 1), 1)

    def coerce(self, value):
        if isinstance(value, CycElem):
            if value.field.conductor != self.conductor:
                raise ValueError("conductor mismatch")
            return value
        if isinstance(value, int):
            return _cyc(self, (value,) + (0,) * (self.degree - 1), 1)
        if isinstance(value, Fraction):
            return _cyc(self, (value.numerator,) + (0,) * (self.degree - 1),
                        value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    @property
    def generator(self):
        """The class of t, a primitive conductor-th root of unity."""
        return _cyc(self, self.powers[1], 1)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("cyc", self.conductor))

    def __repr__(self):
        return f"QQ(zeta{self.conductor})"

    @staticmethod
    def sort_key(scalar):
        return scalar.coords


class CycElem:
    """Element of a CyclotomicField, immutable.

    Stored as integer numerators `num` over the power basis 1, t, ...,
    t^{d-1} and one positive common denominator `den`, in lowest terms
    (gcd(den, *num) == 1), so equal values have equal representations.  The
    constructor takes Fraction coordinates, and `coords` returns them.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, coords: tuple[Fraction, ...]):
        assert len(coords) == field.degree
        coords = [Fraction(c) for c in coords]
        den = math.lcm(*(c.denominator for c in coords))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator)
                                              for c in coords))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CycElem is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The Fraction coordinates over the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def _lift(self, other):
        if isinstance(other, CycElem):
            if other.field.conductor != self.field.conductor:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _reduced(self.field, [a + b for a, b in zip(self.num, o.num)],
                            self.den)
        return _reduced(self.field, [a * o.den + b * self.den
                                     for a, b in zip(self.num, o.num)],
                        self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _reduced(self.field, [a - b for a, b in zip(self.num, o.num)],
                            self.den)
        return _reduced(self.field, [a * o.den - b * self.den
                                     for a, b in zip(self.num, o.num)],
                        self.den * o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        field = self.field
        return _reduced(field, _zmulmod(self.num, o.num, field.modulus),
                        self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Product of the Galois conjugates over the norm: with a = A/den,
        a^-1 = den * prod_k sigma_k(A) / N(A), N(A) = A * prod_k sigma_k(A)
        an integer."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        conj, norm = _norm_cofactor(field, self.num)
        if norm < 0:
            norm = -norm
            conj = [-c for c in conj]
        return _reduced(field, [c * self.den for c in conj], norm)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        out = self.field.one
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and self.is_rational()
        if isinstance(other, Fraction):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        if isinstance(other, CycElem):
            return (self.field.conductor == other.field.conductor
                    and self.num == other.num and self.den == other.den)
        return NotImplemented

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash(("cyc", self.field.conductor, self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = "zeta" if i == 1 else f"zeta^{i}"
                parts.append(z if c == 1 else (f"-{z}" if c == -1 else f"{c}*{z}"))
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _cyc(field: CyclotomicField, num: tuple[int, ...], den: int) -> CycElem:
    """CycElem from numerators and a positive denominator already in lowest
    terms."""
    el = object.__new__(CycElem)
    object.__setattr__(el, "field", field)
    object.__setattr__(el, "num", num)
    object.__setattr__(el, "den", den)
    return el


def _reduced(field: CyclotomicField, num: list[int], den: int) -> CycElem:
    """CycElem num/den for a positive den, brought to lowest terms."""
    g = math.gcd(den, *num)
    if g == 1:
        return _cyc(field, tuple(num), den)
    return _cyc(field, tuple(c // g for c in num), den // g)


def _zreduce(a: list[int], mod: tuple[int, ...]) -> list[int]:
    """Integer coefficient list a, of length at least len(mod) - 1, reduced
    in place modulo the monic `mod`; returns its len(mod) - 1 coefficients."""
    deg = len(mod) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            for j in range(deg):
                a[i - deg + j] -= c * mod[j]
    return a[:deg]


def _zmulmod(a, b, mod: tuple[int, ...]) -> list[int]:
    """Product of two reduced integer coefficient vectors modulo `mod`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _zreduce(prod, mod)


def _norm_cofactor(field: CyclotomicField, num) -> tuple[list[int], int]:
    """For a nonzero integer vector A: the product C of its nontrivial
    Galois conjugates sigma_k(A) and the integer norm N(A) = A * C."""
    conj = field.one.num
    for k in field.galois_exponents:
        conj = _zmulmod(conj, _conjugate(field, num, k), field.modulus)
    return conj, _zmulmod(num, conj, field.modulus)[0]


def _conjugate(field: CyclotomicField, num, k: int) -> list[int]:
    """sigma_k(A)(t) = A(t^k) mod Phi_n for an integer coefficient vector A."""
    out = [0] * field.degree
    n = field.conductor
    for i, c in enumerate(num):
        if c:
            for j, p in enumerate(field.powers[(i * k) % n]):
                if p:
                    out[j] += c * p
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over a Field; ascending coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [self.field.zero] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(self.field, a)

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly.zero(self.field)
            out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] = out[i + j] + a * b
            return UniPoly(self.field, out)
        c = self.field.coerce(other)
        return UniPoly(self.field, [a * c for a in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [self.field.zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.lead
        dlen = len(other.coeffs)
        while len(rem) >= dlen and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < dlen:
                break
            c = rem[-1] / dlead
            k = len(rem) - dlen
            q[k] = c
            for j, d in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * d
            rem.pop()
        return UniPoly(self.field, q), UniPoly(self.field, rem)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.field.one / self.lead
        return self * inv

    def derivative(self) -> "UniPoly":
        return UniPoly(self.field, [c * i for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly(self.field, [c])
        return acc

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly(self.field, [self.field.zero] * k + list(self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                x = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(x)
                elif c == -1:
                    parts.append(f"-{x}")
                else:
                    parts.append(f"{c}*{x}")
        return " + ".join(parts).replace("+ -", "- ")


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm (characteristic zero): p = c * prod f_i^i, f_i
    squarefree and pairwise coprime.  Returns the nonconstant (f_i, i) pairs
    with f_i monic.
    """
    p = p.monic()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    g = p.gcd(dp)
    if g.degree == 0:
        return [(p, 1)]
    b = p.exact_div(g)
    c = dp.exact_div(g)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        if i > p.degree + 1:
            raise ArithmeticError("squarefree decomposition did not terminate")
        f = b.gcd(d)
        if f.degree > 0:
            out.append((f.monic(), i))
            b = b.exact_div(f)
            c = d.exact_div(f)
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# integer polynomial helpers for Zassenhaus
# ---------------------------------------------------------------------------

_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131]


def _ztrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ztrim(out)


def _zp_divmod(a, b, p):
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        a = _ztrim(a)
        if len(a) < len(b):
            break
        c = (a[-1] * binv) % p
        k = len(a) - len(b)
        q[k] = c
        for j, d in enumerate(b):
            a[k + j] = (a[k + j] - c * d) % p
        a.pop()
    return _ztrim(q), _ztrim(a)


def _zp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _zp_powmod(base, exp, mod, p):
    result = [1]
    base = _zp_divmod(base, mod, p)[1]
    while exp:
        if exp & 1:
            result = _zp_divmod(_zp_mul(result, base, p), mod, p)[1]
        base = _zp_divmod(_zp_mul(base, base, p), mod, p)[1]
        exp >>= 1
    return result


def _zp_deriv(a, p):
    return _ztrim([(c * i) % p for i, c in enumerate(a)][1:])


def _zp_factor_squarefree(f, p):
    """Distinct-degree + Cantor-Zassenhaus over GF(p), f squarefree monic."""
    inv = pow(f[-1], -1, p)
    f = [(c * inv) % p for c in f]
    factors = []
    todo_by_degree = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            todo_by_degree.append((v, len(v) - 1))
            break
        h = _zp_powmod(h, p, f, p)
        hx = _zp_divmod(_ztrim([(c - (1 if i == 1 else 0)) % p
                                for i, c in enumerate(h + [0, 0])]), v, p)[1]
        g = _zp_gcd(hx, v, p)
        if len(g) - 1 > 0:
            todo_by_degree.append((g, d))
            v = _zp_divmod(v, g, p)[0]
    rng = random.Random(p * 1000003 + len(f))
    for block, d in todo_by_degree:
        stack = [block]
        while stack:
            u = stack.pop()
            if len(u) - 1 == d:
                factors.append(u)
                continue
            # random split: a^((p^d-1)/2) - 1 has a nontrivial gcd w.h.p.
            while True:
                a = [rng.randrange(p) for _ in range(len(u) - 1)] + [1]
                b = _zp_powmod(a, (p ** d - 1) // 2, u, p)
                b = _ztrim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(b)])
                g = _zp_gcd(b, u, p)
                if 0 < len(g) - 1 < len(u) - 1:
                    stack.append(g)
                    stack.append(_zp_divmod(u, g, p)[0])
                    break
    return factors


def _hensel_pair(f, g, h, s, t, p, exponent):
    """Linear Hensel lifting of a monic factorization.

    f monic mod p^exponent, f = g*h (mod p) with g, h monic and
    s*g + t*h = 1 (mod p).  Each step solves A*h + B*g = e over GF(p) with
    deg A < deg g and deg B < deg h, so both factors stay monic of fixed
    degree.  Returns (g*, h*) with f = g*h (mod p^exponent).
    """
    g = _ztrim([c % p for c in g])
    h = _ztrim([c % p for c in h])
    pi = p
    for i in range(1, exponent):
        mod = pi * p
        # error term divided by p^i, reduced mod p
        prod = _zmul(g, h)
        diff = [(fc - pc) for fc, pc in
                zip(list(f) + [0] * len(prod), list(prod) + [0] * len(f))]
        e_i = _ztrim([((c % mod) // pi) % p for c in diff])
        if e_i:
            b = _zp_divmod(_zp_mul(s, e_i, p), h, p)[1]
            num = _ztrim([(x - y) % p for x, y in
                          zip(e_i + [0] * (len(b) + len(g)),
                              _zp_mul(b, g, p) + [0] * len(e_i))])
            a, rem = _zp_divmod(num, h, p) if num else ([], [])
            if rem:
                raise ArithmeticError("Hensel correction not divisible")
            g = _ztrim([(gc + pi * ac) % mod for gc, ac in
                        zip(list(g) + [0] * len(a), list(a) + [0] * len(g))])
            h = _ztrim([(hc + pi * bc) % mod for hc, bc in
                        zip(list(h) + [0] * len(b), list(b) + [0] * len(h))])
        pi = mod
    return g, h


def _zp_sub(a, b, p):
    n = max(len(a), len(b))
    return _ztrim([((a[i] if i < len(a) else 0)
                    - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _zp_bezout(g, h, p):
    """s, t with s*g + t*h = 1 (mod p) for coprime g, h."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        t0, t1 = t1, _zp_sub(t0, _zp_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    s = [(c * inv) % p for c in s0]
    t = [(c * inv) % p for c in t0]
    return s, t


def _hensel_tree(f_monic, factors, p, exponent):
    """Lift the list of monic mod-p factors of monic f to mod p^exponent."""
    if len(factors) == 1:
        mod = p ** exponent
        return [_ztrim([c % mod for c in f_monic])]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g0 = reduce(lambda a, b: _zp_mul(a, b, p), left)
    h0 = reduce(lambda a, b: _zp_mul(a, b, p), right)
    s, t = _zp_bezout(g0, h0, p)
    g, h = _hensel_pair(f_monic, g0, h0, s, t, p, exponent)
    return _hensel_tree(g, left, p, exponent) + _hensel_tree(h, right, p, exponent)


def _zcontent(a):
    return math.gcd(*(abs(c) for c in a)) if a else 0


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ztrim(out)


def _zdivmod_exact(a, b):
    """Division over Z assuming it may fail; returns None if not exact."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        a = _ztrim(a)
        if len(a) < len(b):
            break
        if a[-1] % b[-1] != 0:
            return None
        c = a[-1] // b[-1]
        k = len(a) - len(b)
        q[k] = c
        for j, d in enumerate(b):
            a[k + j] -= c * d
        a.pop()
    if _ztrim(a):
        return None
    return q


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree integer poly."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    lc = f[-1]
    # pick a prime where f stays squarefree
    for p in _PRIMES:
        if lc % p == 0:
            continue
        fp = _ztrim([c % p for c in f])
        if len(fp) - 1 != n:
            continue
        if len(_zp_gcd(fp, _zp_deriv(fp, p), p)) - 1 == 0:
            break
    else:  # pragma: no cover - desk-scale inputs never exhaust the list
        raise ArithmeticError("no good prime found")
    modular = _zp_factor_squarefree(fp, p)
    if len(modular) == 1:
        return [f]
    # Landau-Mignotte style bound on factor coefficients
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 ** (n + 1) * norm * abs(lc)
    e = 1
    pe = p
    while pe <= 2 * bound:
        pe *= p
        e += 1
    lc_inv = pow(lc % pe, -1, pe)
    f_monic = _ztrim([(c * lc_inv) % pe for c in f])
    lifted = _hensel_tree(f_monic, modular, p, e)

    def symmetric(a):
        return _ztrim([c - pe if c > pe // 2 else c for c in a])

    result = []
    remaining = list(range(len(lifted)))
    current = list(f)
    size = 1
    while remaining and 2 * size <= len(remaining):
        extracted = False
        for combo in combinations(remaining, size):
            prod = [current[-1] % pe]
            for idx in combo:
                prod = _ztrim([c % pe for c in _zmul(prod, lifted[idx])])
            cand = symmetric(prod)
            cont = _zcontent(cand)
            if cont > 1:
                cand = [c // cont for c in cand]
            q = _zdivmod_exact(current, cand)
            if q is not None:
                result.append(cand)
                current = q
                remaining = [i for i in remaining if i not in combo]
                extracted = True
                break
        if not extracted:
            size += 1
    if len(current) - 1 > 0:
        result.append(current)
    return result


# ---------------------------------------------------------------------------
# factorization entry points
# ---------------------------------------------------------------------------

def factor_univariate(p: UniPoly,
                      budget: Budget | None = None) -> list[tuple[UniPoly, int]]:
    """Factor a univariate polynomial into monic irreducibles with exponents.

    Over the rationals the factors are certified irreducible.  Over a
    cyclotomic extension the result is squarefree decomposition refined by
    Trager's norm method when a squarefree norm shift exists; if not, the
    squarefree parts are returned and may be reducible (coarser clusters).

    The product of the factors to their exponents equals p up to a nonzero
    scalar.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    bound = (budget or budgets.current()).degree_bound
    if p.degree > bound:
        raise DegreeTooLarge(f"degree {p.degree} exceeds bound {bound}")
    if p.degree == 0:
        return []
    if p.field == QQ:
        return _factor_rational(p)
    return _factor_cyclotomic(p)


def _factor_rational(p: UniPoly) -> list[tuple[UniPoly, int]]:
    out = []
    for sqfree, mult in squarefree_decomposition(p):
        ints = _fractions_to_zlist(sqfree.coeffs)
        for zfac in _zassenhaus(ints):
            out.append((UniPoly(QQ, zfac).monic(), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def _fractions_to_zlist(coeffs) -> list[int]:
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    cont = _zcontent(ints)
    if cont > 1:
        ints = [c // cont for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _factor_cyclotomic(p: UniPoly) -> list[tuple[UniPoly, int]]:
    field = p.field
    out = []
    for sqfree, mult in squarefree_decomposition(p):
        if sqfree.degree == 1:
            out.append((sqfree, mult))
            continue
        if all(field.coerce(c).is_rational() for c in sqfree.coeffs):
            # factor over Q first; pieces may split further over the extension
            rational = UniPoly(QQ, [QQ.coerce(c) for c in sqfree.coeffs])
            pieces = [UniPoly(field, f.coeffs) for f, _ in _factor_rational(rational)]
        else:
            pieces = [sqfree]
        for piece in pieces:
            split = _trager(piece) if piece.degree > 1 else None
            if split is None:
                out.append((piece.monic(), mult))
            else:
                out.extend((g, mult) for g in split)
    out.sort(key=lambda fm: (fm[0].degree,
                             tuple(p.field.sort_key(c) for c in fm[0].coeffs)))
    return out


def _trager(f: UniPoly) -> list[UniPoly] | None:
    """Trager's norm method for squarefree f over a cyclotomic field.

    For each shift s, the norm of f(x - s*t) (norm = product of Galois
    conjugates, `_norm_poly`) is tried: when it is squarefree, its rational
    factors g give the factors gcd(f, g(x + s*t)).  Returns the monic
    irreducible factors, or None if no shift in the search window yields a
    squarefree norm (callers then keep f unsplit).  A rational f starts
    at s = 1, since its norm at s = 0 is f^phi(n).
    """
    field = f.field
    shifts = (0, 1, -1, 2, -2, 3, -3)
    if all(c.is_rational() for c in f.coeffs):
        shifts = shifts[1:]
    for s in shifts:
        norm = _norm_poly(f, s)
        if norm.gcd(norm.derivative()).degree != 0:
            continue
        factors = [g for g, _ in _factor_rational(norm)]
        if len(factors) == 1:
            return [f.monic()]
        alpha = field.generator
        shift = UniPoly(field, [s * alpha, field.one])  # x + s*alpha
        result = []
        for g in factors:
            g_ext = UniPoly(field, [field.coerce(Fraction(c)) for c in g.coeffs])
            h = g_ext.compose(shift)
            fac = f.gcd(h)
            if fac.degree > 0:
                result.append(fac.monic())
        prod = reduce(lambda a, b: a * b, result, UniPoly(field, [1]))
        if prod.monic() == f.monic():
            return result
    return None


def _norm_poly(f: UniPoly, s: int) -> UniPoly:
    """N(f(x - s*t)), the product of the Galois conjugates of g = f(x - s*t)
    over all sigma_k, as a rational polynomial.  Phi_n is monic, so this is
    Res_t(Phi_n(t), g); a rational g gives g^deg(Phi_n)."""
    field = f.field
    g = f.compose(UniPoly(field, [-s * field.generator, field.one]))
    norm = g
    for k in field.galois_exponents:
        norm = norm * UniPoly(field, [_reduced(field, _conjugate(field, c.num, k),
                                               c.den) for c in g.coeffs])
    return UniPoly(QQ, norm.coeffs)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSolution:
    """Result of solve_linear: either a particular solution with nullspace
    basis, or an inconsistency witness (row index in the original system)."""

    solution: tuple | None
    nullspace: tuple
    witness: int | None

    @property
    def consistent(self) -> bool:
        return self.witness is None


def solve_linear(field: Field, a_rows: list[list], b: list) -> LinearSolution:
    """Solve A x = b exactly.

    Each row of the augmented matrix is scaled to integers over Q, or to
    cyclotomic integers over Q(zeta_n), and eliminated fraction-free by
    `_bareiss`; field scalars are built only for the pivot rows, for back
    substitution.  Free variables are set to zero in the particular
    solution; the nullspace basis has one vector per free column.
    Deterministic for fixed input.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    if nrows != len(b):
        raise ValueError("dimension mismatch between A and b")
    aug, _ = _integer_rows(field, [list(a_rows[i]) + [b[i]] for i in range(nrows)])
    pivots, origin, _ = _bareiss(field, aug, ncols)
    r = len(pivots)
    # inconsistency: the rows below the last pivot have zero coefficients,
    # so the first of them with a nonzero rhs is the witness
    nonzero = any if field.is_cyclotomic else bool
    for i in range(r, nrows):
        if nonzero(aug[i][ncols]):
            return LinearSolution(None, (), origin[i])
    if field.is_cyclotomic:
        aug = [[_cyc(field, x, 1) for x in aug[i]] for i in range(r)]
    else:
        aug = [[Fraction(x) for x in aug[i]] for i in range(r)]
    # back substitution on the pivot rows
    sol = [field.zero] * ncols
    pivot_cols = {c for _, c in pivots}
    for row, col in reversed(pivots):
        acc = aug[row][ncols]
        for j in range(col + 1, ncols):
            if aug[row][j]:
                acc = acc - aug[row][j] * sol[j]
        sol[col] = acc / aug[row][col]
    # nullspace: one basis vector per free column
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row, col in reversed(pivots):
            acc = field.zero
            for j in range(col + 1, ncols):
                if aug[row][j] and vec[j]:
                    acc = acc - aug[row][j] * vec[j]
            vec[col] = acc / aug[row][col]
        basis.append(tuple(vec))
    return LinearSolution(tuple(sol), tuple(basis), None)


def _integer_rows(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Rows coerced into the field, each times the lcm of its denominators,
    and those lcms.  Over Q the entries become ints; over Q(zeta_n) they
    become tuples of int power-basis coordinates, which are integral because
    the power basis is an integral basis of Z[zeta_n]."""
    out, scales = [], []
    for row in rows:
        row = [field.coerce(x) for x in row]
        if field.is_cyclotomic:
            scale = math.lcm(*(x.den for x in row))
            out.append([x.num if x.den == scale
                        else tuple(c * (scale // x.den) for c in x.num) for x in row])
        else:
            scale = math.lcm(*(x.denominator for x in row))
            out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


def _bareiss(field: Field, m: list[list], ncols: int):
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968) in
    place on rows from `_integer_rows`.

    Columns 0..ncols-1 are searched in turn for a pivot, the first row at or
    below the current one with a nonzero entry; later columns ride along.
    Every entry updated below a pivot is a minor of the input, so its
    division by the previous pivot is exact.  Over Q it is a `divmod`; over
    Q(zeta_n) the entry is multiplied by the product of the previous pivot's
    nontrivial Galois conjugates and each coordinate is divided by its
    integer norm (Cohen, GTM 138, 4.3).  A nonzero remainder raises
    ArithmeticError.  Columns left of a pivot are already zero below it and
    are not touched.  Returns the pivots (row, col), the input index of each
    row and the sign of the row permutation.
    """
    nrows = len(m)
    width = len(m[0]) if nrows else 0
    cyc = field.is_cyclotomic
    nonzero = any if cyc else bool
    origin = list(range(nrows))
    pivots = []
    sign = 1
    prev = field.one.num if cyc else 1  # the previous pivot
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if nonzero(m[piv][c]):
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            origin[r], origin[piv] = origin[piv], origin[r]
            sign = -sign
        top = m[r]
        p = top[c]
        if cyc:
            mod = field.modulus
            cofactor, norm = _norm_cofactor(field, prev)
            pc = _zmulmod(p, cofactor, mod)
            for i in range(r + 1, nrows):
                row = m[i]
                f = row[c]
                fc = _zmulmod(f, cofactor, mod) if any(f) else None
                for j in range(c + 1, width):
                    num = _zmulmod(row[j], pc, mod)
                    if fc is not None and any(top[j]):
                        num = [a - b for a, b in zip(num, _zmulmod(top[j], fc, mod))]
                    row[j] = _zexact_div(num, norm)
                row[c] = field.zero.num
        else:
            for i in range(r + 1, nrows):
                row = m[i]
                f = row[c]
                for j in range(c + 1, width):
                    row[j], rem = divmod(row[j] * p - f * top[j], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division")
                row[c] = 0
        prev = p
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, origin, sign


def _zexact_div(num: list[int], d: int) -> tuple[int, ...]:
    """The integer vector num / d; raises ArithmeticError unless exact."""
    if d == 1:
        return tuple(num)
    out = []
    for a in num:
        q, rem = divmod(a, d)
        if rem:
            raise ArithmeticError("inexact Bareiss division")
        out.append(q)
    return tuple(out)


def char_poly(field: Field, m: list[list]) -> UniPoly:
    """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier."""
    n = len(m)
    if n == 0:
        return UniPoly(field, [1])
    m = [[field.coerce(x) for x in row] for row in m]
    coeffs = [field.one]  # descending: x^n + c1 x^{n-1} + ... + cn
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        trace = mk[0][0]
        for i in range(1, n):
            trace = trace + mk[i][i]
        ck = field.coerce(Fraction(-1, k)) * trace
        coeffs.append(ck)
        if k == n:
            break
        # mk <- M (mk + ck I)
        adj = [row[:] for row in mk]
        for i in range(n):
            adj[i][i] = adj[i][i] + ck
        nxt = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = field.zero
                for t in range(n):
                    if m[i][t] and adj[t][j]:
                        acc = acc + m[i][t] * adj[t][j]
                row.append(acc)
            nxt.append(row)
        mk = nxt
    return UniPoly(field, list(reversed(coeffs)))


def determinant(field: Field, rows: list[list]):
    """Exact determinant of a square matrix: its rows are scaled to integers
    (cyclotomic integers over Q(zeta_n)) and eliminated by `_bareiss`, and
    the last pivot, signed by the row swaps, is divided by the product of
    the row scales."""
    n = len(rows)
    if n == 0:
        return field.one
    m, scales = _integer_rows(field, rows)
    pivots, _, sign = _bareiss(field, m, n)
    if len(pivots) < n:
        return field.zero
    last, den = m[n - 1][n - 1], math.prod(scales)
    if field.is_cyclotomic:
        return _reduced(field, [sign * c for c in last], den)
    return Fraction(sign * last, den)
