"""Exact rational functions num/den over Q(i).

Normalization keeps gcd(num, den) = 1 and scales the denominator to have
graded-lex leading coefficient 1, so every value has a unique representative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .errors import DivisionError, ZeroInputError
from .polynomials import MultiPoly, exact_divide, gcd
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
# univariate views: polynomials in one distinguished variable whose
# coefficients are rational functions free of that variable.
# ---------------------------------------------------------------------------

UniPoly = List[RatFn]  # index = power of the distinguished variable


def uni_trim(u: UniPoly) -> UniPoly:
    while u and u[-1].is_zero():
        u.pop()
    return u


def uni_is_zero(u: UniPoly) -> bool:
    return not u


def uni_deg(u: UniPoly) -> int:
    return len(u) - 1


def poly_to_uni(p: MultiPoly, var: int) -> UniPoly:
    cs = p.coeffs_in_var(var)
    if not cs:
        return []
    out = [RatFn.zero(p.nvars) for _ in range(max(cs) + 1)]
    for k, c in cs.items():
        out[k] = RatFn(c)
    return uni_trim(out)


def uni_to_ratfn(u: UniPoly, var: int, nvars: int) -> RatFn:
    acc = RatFn.zero(nvars)
    z = RatFn(MultiPoly.variable(nvars, var))
    for k, c in enumerate(u):
        if not c.is_zero():
            acc = acc + c * z ** k
    return acc


def uni_add(a: UniPoly, b: UniPoly, nvars: int) -> UniPoly:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else RatFn.zero(nvars)
        y = b[i] if i < len(b) else RatFn.zero(nvars)
        out.append(x + y)
    return uni_trim(out)


def uni_neg(a: UniPoly) -> UniPoly:
    return [-c for c in a]


def uni_scale(a: UniPoly, s: RatFn) -> UniPoly:
    if s.is_zero():
        return []
    return uni_trim([c * s for c in a])


def uni_mul(a: UniPoly, b: UniPoly, nvars: int) -> UniPoly:
    if not a or not b:
        return []
    out = [RatFn.zero(nvars) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return uni_trim(out)


def uni_divmod(a: UniPoly, b: UniPoly, nvars: int) -> Tuple[UniPoly, UniPoly]:
    if uni_is_zero(b):
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quot = [RatFn.zero(nvars) for _ in range(max(len(a) - len(b) + 1, 0))]
    db = uni_deg(b)
    lead = b[db]
    while not uni_is_zero(rem) and uni_deg(rem) >= db:
        dr = uni_deg(rem)
        c = rem[dr] / lead
        quot[dr - db] = quot[dr - db] + c
        for i in range(db + 1):
            rem[dr - db + i] = rem[dr - db + i] - c * b[i]
        rem = uni_trim(rem)
    return uni_trim(quot), rem


def uni_ext_euclid(a: UniPoly, b: UniPoly, nvars: int) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    one = [RatFn.one(nvars)]
    r0, r1 = list(a), list(b)
    s0, s1 = one, []
    t0, t1 = [], one
    while not uni_is_zero(r1):
        q, r = uni_divmod(r0, r1, nvars)
        r0, r1 = r1, r
        s0, s1 = s1, uni_add(s0, uni_neg(uni_mul(q, s1, nvars)), nvars)
        t0, t1 = t1, uni_add(t0, uni_neg(uni_mul(q, t1, nvars)), nvars)
    if uni_is_zero(r0):
        raise ZeroInputError("extended Euclid of two zero polynomials")
    lead = r0[uni_deg(r0)]
    inv = RatFn.one(nvars) / lead
    return uni_scale(r0, inv), uni_scale(s0, inv), uni_scale(t0, inv)


def uni_mod_inverse(a: UniPoly, m: UniPoly, nvars: int) -> UniPoly:
    """Inverse of a modulo m over the coefficient field; a, m coprime."""
    g, s, _ = uni_ext_euclid(a, m, nvars)
    if uni_deg(g) != 0:
        raise DivisionError("elements are not coprime; no modular inverse")
    _, r = uni_divmod(s, m, nvars)
    return r
