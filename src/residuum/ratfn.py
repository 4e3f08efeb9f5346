"""Exact rational functions num/den over Q(i), and the fraction-free
univariate kernel (pseudo-division, modular inverses) whose results they
are formed from.

Normalization keeps gcd(num, den) = 1 and scales the denominator to have
graded-lex leading coefficient 1, so every value has a unique representative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import DivisionError
from .polynomials import MultiPoly, _pseudo_divide, content_in_var, exact_divide, gcd
from .scalars import GaussianRational


class RatFn:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, normalize: bool = True):
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("nvars mismatch between numerator and denominator")
        self.num = num
        self.den = den
        if normalize:
            self._normalize()

    def _normalize(self):
        if self.num.is_zero():
            self.den = MultiPoly.const(self.num.nvars, 1)
            return
        g = gcd(self.num, self.den)
        if not g.is_constant():
            self.num = exact_divide(self.num, g)
            self.den = exact_divide(self.den, g)
        lc = self.den.leading_coefficient()
        if not lc.is_one():
            inv = lc.inverse()
            self.num = self.num * inv
            self.den = self.den * inv

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "RatFn":
        return RatFn(MultiPoly.zero(nvars))

    @staticmethod
    def one(nvars: int) -> "RatFn":
        return RatFn(MultiPoly.const(nvars, 1))

    @staticmethod
    def const(nvars: int, c) -> "RatFn":
        return RatFn(MultiPoly.const(nvars, c))

    @staticmethod
    def from_any(x, nvars: int) -> "RatFn":
        if isinstance(x, RatFn):
            return x
        if isinstance(x, MultiPoly):
            return RatFn(x)
        return RatFn.const(nvars, x)

    # -- predicates ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = RatFn.from_any(other, self.nvars)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        return self + (-RatFn.from_any(other, self.nvars))

    def __rsub__(self, other):
        return RatFn.from_any(other, self.nvars) + (-self)

    def __mul__(self, other):
        other = RatFn.from_any(other, self.nvars)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFn.from_any(other, self.nvars)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFn.from_any(other, self.nvars) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFn.one(self.nvars) / self) ** (-n)
        return RatFn(self.num ** n, self.den ** n)

    def partial(self, var: int) -> "RatFn":
        num = self.num.partial(var) * self.den - self.num * self.den.partial(var)
        return RatFn(num, self.den * self.den)

    # -- evaluation ------------------------------------------------------

    def eval_exact(self, point) -> GaussianRational:
        d = self.den.eval_exact(point)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval_exact(point) / d

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        return self.num.eval_numeric(points) / self.den.eval_numeric(points)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            other = RatFn.from_any(other, self.nvars)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFn({self.num.to_string()})"
        return f"RatFn(({self.num.to_string()}) / ({self.den.to_string()}))"


# ---------------------------------------------------------------------------
# univariate kernel: polynomials viewed in one distinguished variable `var`,
# with coefficients polynomials in the others, kept fraction free.
#
# Division follows the pseudo-division convention
#
#     l * p == quot * q + rem,   l = lc_var(q)^max(deg p - deg q + 1, 0),
#
# with deg_var rem < deg_var q, so no coefficient is ever divided.  The
# extended Euclid is the primitive PRS with cofactors (Collins, J. ACM 14,
# 1967; Brown-Traub, J. ACM 18, 1971): after each pseudo-division the new
# remainder and its cofactor are divided by the gcd of all their
# coefficients in `var`, which keeps the coefficients from growing
# exponentially.  Results come back as a numerator and a var-free
# denominator, so a caller forms one RatFn per result instead of one per
# coefficient operation.
# ---------------------------------------------------------------------------

def uni_divmod(p: MultiPoly, q: MultiPoly, var: int) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Pseudo-division in `var`: (l, quot, rem) with l*p == quot*q + rem."""
    return _pseudo_divide(p, q, var)


def uni_ext_euclid(a: MultiPoly, m: MultiPoly, var: int) -> Tuple[MultiPoly, MultiPoly]:
    """(s, r) with s*a == r (mod m) in `var`, r nonzero and free of `var`.

    Raises DivisionError when a and m have a common factor in `var`.
    """
    r0, s0 = m, MultiPoly.zero(a.nvars)
    r1, s1 = a, MultiPoly.const(a.nvars, 1)
    while r1.depends_on(var):
        l, q, r = uni_divmod(r0, r1, var)
        if r.is_zero():
            break
        s = s0 * l - q * s1
        g = content_in_var(r, var, s)
        if not g.is_constant():
            r, s = exact_divide(r, g), exact_divide(s, g)
        r0, s0, r1, s1 = r1, s1, r, s
    if r1.is_zero() or r1.depends_on(var):
        raise DivisionError("elements are not coprime; no modular inverse")
    return s1, r1


def uni_mod_inverse(a: MultiPoly, m: MultiPoly, var: int) -> Tuple[MultiPoly, MultiPoly]:
    """(S, D) with S*a == D (mod m) in `var`, D free of `var` and, for m of
    positive degree in `var`, deg_var S < deg_var m: S/D is the inverse of a
    modulo m.  The PRS cofactor already has that degree bound: it is
    deg m - deg r for the last remainder r of positive degree."""
    return uni_ext_euclid(a, m, var)
