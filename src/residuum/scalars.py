"""Exact Gaussian rational scalars.

All symbolic coefficients in the package live in Q(i): pairs of
`fractions.Fraction` for the real and imaginary part.  Arithmetic never
rounds.  The transcendental factor 2*pi*i is *not* a scalar here; values
that carry it keep an explicit tag (see :class:`TaggedScalar`).
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """An element of Q(i), kept in lowest terms by `Fraction`."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

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

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.from_any(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.from_any(other))

    def __rsub__(self, other):
        return GaussianRational.from_any(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.from_any(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.from_any(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.from_any(other) / self

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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
        try:
            other = GaussianRational.from_any(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion --------------------------------------------------

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


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

