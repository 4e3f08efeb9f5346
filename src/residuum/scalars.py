"""Exact Gaussian rational scalars.

All symbolic coefficients in the package live in Q(i).  A value is stored
as three ints (a + b*i)/d in canonical form: d > 0 and gcd(a, b, d) = 1,
so equal values have equal triples.  Arithmetic works on the ints and
never rounds; each operation ends with at most one three-way integer gcd
(the cross-multiplication of CPython's `fractions`, Knuth TAOCP vol. 2
4.5.1, carried over to Q(i)).  `_over_common_denominator` and `_reduced`
hand the integers to and from the polynomial kernel, which multiplies
whole polynomials on them.  The transcendental factor 2*pi*i is *not* a
scalar here; values that carry it keep an explicit tag (see
:class:`TaggedScalar`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, List, Tuple


class GaussianRational:
    """An element (a + b*i)/d of Q(i), with d > 0 and gcd(a, b, d) = 1.

    `re` and `im` give the parts as `Fraction`s; the triple itself is what
    equality and hashing compare.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, id_ = re.denominator, im.denominator
        # with both parts in lowest terms, the lcm of the denominators
        # leaves gcd(a, b, d) = 1
        d = rd * id_ // gcd(rd, id_)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_any(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        if isinstance(x, str):
            return GaussianRational(Fraction(x), 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- parts -------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_one(self) -> bool:
        return self._a == self._d == 1 and not self._b

    def is_real(self) -> bool:
        return not self._b

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_any(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if d1 == d2:
            if d1 == 1:
                return _canonical(a1 + a2, b1 + b2, 1)
            return _reduced(a1 + a2, b1 + b2, d1)
        # only primes of g = gcd(d1, d2) can divide the result's triple
        g = gcd(d1, d2)
        if g == 1:
            return _canonical(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        s, t = d1 // g, d2 // g
        a, b = a1 * t + a2 * s, b1 * t + b2 * s
        g = gcd(a, b, g)
        return _canonical(a // g, b // g, s * (d2 // g))

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-GaussianRational.from_any(other))

    def __rsub__(self, other):
        return GaussianRational.from_any(other) + (-self)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_any(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        if d1 == d2 == 1:
            return _canonical(a, b, 1)
        return _reduced(a, b, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_any(other)
        a2, b2, d2 = other._a, other._b, other._d
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # x / y = x * conj(d2 y) * d2 / |d2 y|^2, with d2 y = a2 + b2 i
        a1, b1 = self._a * d2, self._b * d2
        return _reduced(a1 * a2 + b1 * b2, b1 * a2 - a1 * b2, self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.from_any(other) / self

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.from_any(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- conversion --------------------------------------------------

    def __complex__(self):
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if not self._b:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"

    def __str__(self):
        if not self._b:
            return str(self.re)
        if not self._a:
            return f"{self.im}*i"
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_new = object.__new__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple already in canonical form."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _over_common_denominator(values: Collection[GaussianRational]
                             ) -> Tuple[List[Tuple[int, int]], int]:
    """([(a_k, b_k), ...], d) with values[k] = (a_k + b_k*i)/d, where d is the
    lcm of the values' denominators."""
    d = lcm(*(z._d for z in values))
    return [(z._a * (d // z._d), z._b * (d // z._d)) for z in values], d


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _canonical(a // g, b // g, d // g)
    return _canonical(a, b, d)


class TaggedScalar:
    """A Gaussian rational times an optional explicit 2*pi*i unit.

    Symbolic outputs never multiply 2*pi*i into floats; the flag stays
    attached until a numeric evaluation asks for a complex value.
    """

    __slots__ = ("rational", "two_pi_i")

    def __init__(self, rational: GaussianRational, two_pi_i: bool = False):
        self.rational = GaussianRational.from_any(rational)
        self.two_pi_i = bool(two_pi_i)

    def is_zero(self) -> bool:
        return self.rational.is_zero()

    def __complex__(self):
        import math

        v = complex(self.rational)
        if self.two_pi_i:
            v *= 2j * math.pi
        return v

    def __eq__(self, other):
        if not isinstance(other, TaggedScalar):
            return NotImplemented
        if self.rational.is_zero() and other.rational.is_zero():
            return True
        return self.rational == other.rational and self.two_pi_i == other.two_pi_i

    def __hash__(self):
        return hash((self.rational, self.two_pi_i and not self.rational.is_zero()))

    def __repr__(self):
        tag = " * 2*pi*i" if self.two_pi_i else ""
        return f"TaggedScalar({self.rational}{tag})"
