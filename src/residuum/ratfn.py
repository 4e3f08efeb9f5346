"""Exact rational functions num/den over Q(i), and the fraction-free
univariate kernel (pseudo-division, modular inverses) whose results they
are formed from.

Every RatFn is canonical: gcd(num, den) = 1, the denominator has graded-lex
leading coefficient 1, and zero is 0/1, so every value has one
representative and equality compares num and den.  `RatFn(num, den)`
reaches that form by a full gcd; the arithmetic relies on its operands
being canonical already and builds each result reduced without it.  A
negation, a constant multiple or a power cannot create a common factor,
and the graded-lex leading coefficient is multiplicative, so products of
monic denominators stay monic.  A product cancels crosswise, by
gcd(a.num, b.den) and gcd(b.num, a.den) (Knuth, TAOCP 2, 4.5.1); a sum is
Henrici's (P. Henrici, J. ACM 3, 1956): with d = gcd(a.den, b.den), only
gcd(t, d) of the cross sum t = a.num (b.den/d) + b.num (a.den/d) can cancel.
Each of these gcds, and those of `RatFn.partial` and `_over_powers`, is
taken by `cofactors`, which returns the two quotients with it: they come
from the gcd's own closed forms and trial division, so no step divides by
the gcd a second time.  Only `RatFn(num, den)` takes `gcd` and divides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Tuple

from .errors import DivisionError
from .polynomials import (MultiPoly, _pseudo_divide, cofactors, content_in_var, exact_divide,
                          gcd)
from .scalars import GaussianRational

if TYPE_CHECKING:
    import numpy as np


class RatFn:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("nvars mismatch between numerator and denominator")
        self.num = num
        self.den = den
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
    def _of(num: MultiPoly, den: MultiPoly) -> "RatFn":
        """num/den taken as canonical, without checks or gcd."""
        f = object.__new__(RatFn)
        f.num = num
        f.den = den
        return f

    @staticmethod
    def zero(nvars: int) -> "RatFn":
        return RatFn.const(nvars, 0)

    @staticmethod
    def one(nvars: int) -> "RatFn":
        return RatFn.const(nvars, 1)

    @staticmethod
    def const(nvars: int, c) -> "RatFn":
        return RatFn._of(MultiPoly.const(nvars, c), MultiPoly.const(nvars, 1))

    @staticmethod
    def from_any(x, nvars: int) -> "RatFn":
        if isinstance(x, RatFn):
            return x
        if isinstance(x, MultiPoly):
            return RatFn._of(x, MultiPoly.const(x.nvars, 1))
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

    # -- arithmetic on canonical operands (see the module docstring) ------

    def __add__(self, other):
        other = RatFn.from_any(other, self.nvars)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # Henrici's sum: with d = gcd(a.den, b.den), the cross sum
        # t = a.num (b.den/d) + b.num (a.den/d) is prime to both cofactors,
        # so only g = gcd(t, d) can cancel: a + b = (t/g) / ((a.den/d) (b.den/d) (d/g))
        a, b = self, other
        d, a_cof, b_cof = None, a.den, b.den
        if not (a.den.is_constant() or b.den.is_constant()):
            d, a_cof, b_cof = cofactors(a.den, b.den)
        t = a.num * b_cof + b.num * a_cof
        if t.is_zero():
            return RatFn.zero(self.nvars)
        if d is None or d.is_constant():
            return RatFn._of(t, a_cof * b.den)
        _, t, d_g = cofactors(t, d)
        return RatFn._of(t, a_cof * (b_cof * d_g))

    __radd__ = __add__

    def __neg__(self):
        return RatFn._of(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFn.from_any(other, self.nvars))

    def __rsub__(self, other):
        return RatFn.from_any(other, self.nvars) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.from_any(other)
            return RatFn.zero(self.nvars) if c.is_zero() else RatFn._of(self.num * c, self.den)
        other = RatFn.from_any(other, self.nvars)
        if self.is_zero() or other.is_zero():
            return RatFn.zero(self.nvars)
        # cross-cancellation (Knuth, TAOCP 2, 4.5.1): only a.num and b.den,
        # or b.num and a.den, can share a factor
        a_num, a_den = self._cancelled(other)
        b_num, b_den = other._cancelled(self)
        return RatFn._of(a_num * b_num, a_den * b_den)

    __rmul__ = __mul__

    def _cancelled(self, other: "RatFn") -> Tuple[MultiPoly, MultiPoly]:
        """(self.num / g, other.den / g) with g = gcd(self.num, other.den):
        what `self * other` keeps of self's numerator and other's
        denominator."""
        if self.num.is_constant() or other.den.is_constant():
            return self.num, other.den
        _, num, den = cofactors(self.num, other.den)
        return num, den

    def _inverse(self) -> "RatFn":
        """den/num scaled to a monic denominator."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        inv = self.num.leading_coefficient().inverse()
        return RatFn._of(self.den * inv, self.num * inv)

    def __truediv__(self, other):
        return self * RatFn.from_any(other, self.nvars)._inverse()

    def __rtruediv__(self, other):
        return RatFn.from_any(other, self.nvars) / self

    def __pow__(self, n: int):
        if n < 0:
            return self._inverse() ** (-n)
        return RatFn._of(self.num ** n, self.den ** n)

    def partial(self, var: int) -> "RatFn":
        """The derivative in z_var, reduced without a gcd of the full result.

        With g = gcd(den, den'), the derivative is T / (den (den/g)),
        T = num' (den/g) - num (den'/g).  A prime factor p of den with
        multiplicity e that depends on z_var divides g exactly e - 1 times,
        so it divides den/g and not den'/g, and it does not divide num:
        p cannot divide T.  So only var-free factors of den can cancel,
        and they cancel by c = gcd(T, den).  The denominator stays monic,
        since den, g and c are.
        """
        num, den = self.num, self.den
        if den.is_constant():
            return RatFn._of(num.partial(var), den)
        _, den_g, d_den_g = cofactors(den, den.partial(var))
        t = num.partial(var) * den_g - num * d_den_g
        if t.is_zero():
            return RatFn.zero(self.nvars)
        _, t, den_c = cofactors(t, den)
        return RatFn._of(t, den_c * den_g)

    # -- evaluation ------------------------------------------------------

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """num's values over den's at complex points (last axis the variables);
        a point's value does not depend on the others, bit for bit.  Near a
        pole of order k, den cancels by about (|p| / |z - p|)^k."""
        return self.num.eval_numeric(points) / self.den.eval_numeric(points)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            other = RatFn.from_any(other, self.nvars)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, and a constant its value
        if self.den.is_constant():
            return hash(self.num)
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
# coefficient operation.  `uni_digits` is the one routine that expands a
# quotient in powers of a factor rho: the partial fractions and the normal
# forms on Y = Z(rho) are its digits (for rho = z - p, `dim1` Taylor-shifts
# by `polynomials._taylor` instead).
# It inverts the denominator modulo rho only, never modulo rho^m, and takes
# the digits one at a time by a recurrence whose exact divisions by rho
# certify them.
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


def uni_digits(num: MultiPoly, den: MultiPoly, rho: MultiPoly, m: int, var: int) -> List[RatFn]:
    """The rho-adic digits [c_1, ..., c_m] of num/den modulo rho^m:
    num/den == sum_mu c_mu rho^(m - mu), deg_var c_mu < deg_var rho, each c_mu
    with a var-free denominator.  Raises DivisionError when den is not prime
    to rho.

    den is inverted once, modulo rho alone (Horowitz, SYMSAM 1971; von zur
    Gathen-Gerhard, Modern Computer Algebra, 5.11): with l0 den == d and
    s d == dd (mod rho), dd free of var, 1/den == s l0 / dd (mod rho), so the
    PRS runs on degree deg_var rho, not m deg_var rho.  The quotient still
    to expand is rest / (scale den), scale free of var, from num / den.  Its
    lowest digit is r / (l dd scale), where l rest s l0 == r (mod rho) is a
    pseudo-division.  Then rest l dd - den r is divisible by rho, since
    den r == l dd rest there, and its pseudo-quotient by rho, with
    multiplier l2, is the rest of the next quotient, over l2 l dd scale den.
    That division is exact for every rho over the function field, so a
    nonzero remainder raises ArithmeticError: it certifies each digit but
    the last, after which no quotient is needed.  For rho = z - p, d and the
    inverse are constants and no PRS step runs.  Every l and l2 is a power
    of lc_var(rho), so digit j (from 0) is r over lc_var(rho)^a dd^(j+1), a
    the sum of their exponents, reduced over the bases {lc_var(rho), dd}."""
    l0, _, d = uni_divmod(den, rho, var)
    s, dd = uni_mod_inverse(d, rho, var)
    inv = s * l0
    lc, drho = rho.leading_coefficient_in(var), rho.degree_in(var)
    rest, a = num, 0
    digits: List[RatFn] = []
    for j in range(m):
        if j:  # the next quotient: divide rest l dd - den r by rho
            p = rest * ld - den * r
            _, rest, rem = uni_divmod(p, rho, var)
            if not rem.is_zero():
                raise ArithmeticError("rho-adic digit certificate failed: rho "
                                      "does not divide the rest of the quotient")
            a += max(p.degree_in(var) - drho + 1, 0)
        p = rest * inv
        l, _, r = uni_divmod(p, rho, var)
        ld = l * dd
        a += max(p.degree_in(var) - drho + 1, 0)
        digits.append(_over_powers(r, [(lc, a), (dd, j + 1)]))
    return digits[::-1]


def _over_powers(num: MultiPoly, powers: List[Tuple[MultiPoly, int]]) -> RatFn:
    """num / prod B^e, canonical, by gcds against the bases B only: num is
    prime to B^e iff it is prime to B.  When g = gcd(num, B) is not
    constant, B^e = g^e (B/g)^e, so g leaves num and the bases g^(e-1) and
    (B/g)^e go on.  num only loses factors, so a base prime to it stays so."""
    if num.is_zero():
        return RatFn.zero(num.nvars)
    den = MultiPoly.const(num.nvars, 1)
    while powers:
        b, e = powers.pop()
        if e and not (num.is_constant() or b.is_constant()):
            g, num_g, b_g = cofactors(num, b)
            if not g.is_constant():
                num = num_g
                powers += [(g, e - 1), (b_g, e)]
                continue
        c = b._constant_term()  # a constant base is a scalar power
        den = den * (b ** e if c is None else c ** e)
    inv = den.leading_coefficient().inverse()
    return RatFn._of(num * inv, den * inv)
