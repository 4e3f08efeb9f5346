"""Exact multivariate polynomials over the Gaussian rationals.

Terms are stored sparsely as a map from exponent tuples to nonzero
GaussianRational coefficients.  The canonical term order is graded
lexicographic (total degree first, ties broken lexicographically with
variable 0 strongest); normalization and serialization both use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .errors import DivisionError, ZeroInputError
from .scalars import GaussianRational, _over_common_denominator, _reduced

Exponent = Tuple[int, ...]


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial with GaussianRational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, GaussianRational] | None = None):
        self.nvars = int(nvars)
        clean: Dict[Exponent, GaussianRational] = {}
        if terms:
            for exp, c in terms.items():
                c = GaussianRational.from_any(c)
                if c.is_zero():
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent {exp} for nvars={self.nvars}")
                if exp in clean:
                    c = clean[exp] + c
                    if c.is_zero():
                        del clean[exp]
                        continue
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        c = GaussianRational.from_any(c)
        if c.is_zero():
            return MultiPoly.zero(nvars)
        return MultiPoly(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[i] = 1
        return MultiPoly(nvars, {tuple(exp): GaussianRational(1)})

    # -- predicates / queries ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return GaussianRational(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def depends_on(self, var: int) -> bool:
        return any(e[var] > 0 for e in self.terms)

    def leading_exponent(self) -> Exponent:
        if self.is_zero():
            raise ZeroInputError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> GaussianRational:
        return self.terms[self.leading_exponent()]

    def sorted_terms(self) -> List[Tuple[Exponent, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = s
        out = MultiPoly.zero(self.nvars)
        out.terms = terms
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.zero(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.from_any(other)
            if c.is_zero():
                return MultiPoly.zero(self.nvars)
            out = MultiPoly.zero(self.nvars)
            out.terms = {e: k * c for e, k in self.terms.items()}
            return out
        self._check(other)
        # multiply the Z[i] numerators over the product of the common
        # denominators; each result coefficient is reduced once at the end
        f, df = _to_zi(self)
        g, dg = _to_zi(other)
        acc: Dict[Exponent, Tuple[int, int]] = {}
        for e1, (a1, b1) in f.items():
            for e2, (a2, b2) in g.items():
                e = tuple(map(add, e1, e2))
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                s = acc.get(e)
                if s is not None:
                    a += s[0]
                    b += s[1]
                    if not (a or b):
                        del acc[e]
                        continue
                acc[e] = (a, b)
        d = df * dg
        out = MultiPoly.zero(self.nvars)
        out.terms = {e: _reduced(a, b, d) for e, (a, b) in acc.items()}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        terms: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k == 0:
                continue
            e = list(exp)
            e[var] = k - 1
            terms[tuple(e)] = c * k
        out = MultiPoly.zero(self.nvars)
        out.terms = terms
        return out

    # -- evaluation ---------------------------------------------------

    def eval_exact(self, point: Iterable[GaussianRational]) -> GaussianRational:
        pt = [GaussianRational.from_any(p) for p in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        acc = GaussianRational(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(pt, exp):
                if e:
                    v = v * (x ** e)
            acc = acc + v
        return acc

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at complex points; last axis indexes the variables."""
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.nvars:
            raise ValueError("point dimension mismatch")
        acc = np.zeros(pts.shape[:-1], dtype=complex)
        for exp, c in self.terms.items():
            v = np.full(pts.shape[:-1], complex(c))
            for i, e in enumerate(exp):
                if e:
                    v = v * pts[..., i] ** e
            acc = acc + v
        return acc

    def vanishes_at_origin(self) -> bool:
        return tuple([0] * self.nvars) not in self.terms

    # -- structure ----------------------------------------------------

    def coeffs_in_var(self, var: int) -> Dict[int, "MultiPoly"]:
        """View as univariate in `var`; values are polynomials with exponent 0 in `var`."""
        out: Dict[int, MultiPoly] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            e = list(exp)
            e[var] = 0
            p = out.setdefault(k, MultiPoly.zero(self.nvars))
            p.terms[tuple(e)] = p.terms.get(tuple(e), GaussianRational(0)) + c
        for k in list(out):
            out[k].terms = {e: c for e, c in out[k].terms.items() if not c.is_zero()}
            if out[k].is_zero():
                del out[k]
        return out

    def leading_coefficient_in(self, var: int) -> "MultiPoly":
        d = self.degree_in(var)
        if d < 0:
            return MultiPoly.zero(self.nvars)
        return self.coeffs_in_var(var).get(d, MultiPoly.zero(self.nvars))

    def shift_var(self, var: int, a: GaussianRational) -> "MultiPoly":
        """Substitute z_var -> z_var + a."""
        a = GaussianRational.from_any(a)
        if a.is_zero():
            return self
        out = MultiPoly.zero(self.nvars)
        zv = MultiPoly.variable(self.nvars, var) + MultiPoly.const(self.nvars, a)
        for k, coeff in self.coeffs_in_var(var).items():
            out = out + coeff * (zv ** k)
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"

    def to_string(self, names: List[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        names = names or [f"z{i+1}" for i in range(self.nvars)]
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exp) if e > 0
            )
            if mono:
                cs = "" if c.is_one() else f"({c})*"
                parts.append(f"{cs}{mono}")
            else:
                parts.append(f"({c})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------

def monic_grlex(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    return p * p.leading_coefficient().inverse()


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Return p/q if q divides p exactly, else raise DivisionError."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    p._check(q)
    lq = q.leading_exponent()
    cq = q.terms[lq]
    rest = [(e, c) for e, c in q.terms.items() if e != lq]
    rem = dict(p.terms)
    quot: Dict[Exponent, GaussianRational] = {}
    while rem:
        lr = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lr, lq))
        if any(d < 0 for d in diff):
            raise DivisionError(f"{q!r} does not divide {p!r}")
        c = rem.pop(lr) / cq
        quot[diff] = c
        for e, k in rest:  # rem -= c * x^diff * (q - lead term)
            m = tuple(map(add, e, diff))
            s = rem.get(m)
            if s is None:
                rem[m] = -(c * k)
            else:
                s = s - c * k
                if s.is_zero():
                    del rem[m]
                else:
                    rem[m] = s
    out = MultiPoly.zero(p.nvars)
    out.terms = quot
    return out


def divides(q: MultiPoly, p: MultiPoly) -> bool:
    try:
        exact_divide(p, q)
        return True
    except DivisionError:
        return False


# ---------------------------------------------------------------------------
# pseudo-division, content and the primitive PRS
# ---------------------------------------------------------------------------

def pseudo_remainder(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of p by q, both viewed univariate in `var`."""
    dq = q.degree_in(var)
    if dq < 0:
        raise ZeroInputError("pseudo-division by zero")
    lc_q = q.leading_coefficient_in(var)
    rem = p
    dp = rem.degree_in(var)
    if dp < dq:
        return rem
    # multiply once by lc_q^(dp-dq+1), then do exact single-step reductions
    rem = rem * (lc_q ** (dp - dq + 1))
    while not rem.is_zero():
        dr = rem.degree_in(var)
        if dr < dq:
            break
        lead = rem.coeffs_in_var(var).get(dr, MultiPoly.zero(p.nvars))
        factor = exact_divide(lead, lc_q)
        shift = MultiPoly.variable(p.nvars, var) ** (dr - dq)
        rem = rem - factor * shift * q
    return rem


def content_in_var(p: MultiPoly, var: int) -> MultiPoly:
    """gcd of the coefficients of p viewed univariate in `var`."""
    coeffs = list(p.coeffs_in_var(var).values())
    if not coeffs:
        return MultiPoly.zero(p.nvars)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = gcd(g, c)
        if g.is_constant():
            break
    return monic_grlex(g)


def primitive_part_in_var(p: MultiPoly, var: int) -> MultiPoly:
    if p.is_zero():
        return p
    c = content_in_var(p, var)
    return monic_grlex(exact_divide(p, c))


def _prs_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Multivariate gcd over Q(i) by primitive PRS, normalized graded-lex monic.

    The fallback of `gcd` when the heuristic gives up; the tests also use it
    as the reference that `gcd` must match exactly.
    """
    if p.is_zero() and q.is_zero():
        return MultiPoly.zero(p.nvars)
    if p.is_zero():
        return monic_grlex(q)
    if q.is_zero():
        return monic_grlex(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.nvars, 1)
    for var in range(p.nvars):
        in_p, in_q = p.depends_on(var), q.depends_on(var)
        if in_p and in_q:
            cont_p, cont_q = content_in_var(p, var), content_in_var(q, var)
            cont = gcd(cont_p, cont_q)
            a = monic_grlex(exact_divide(p, cont_p))
            b = monic_grlex(exact_divide(q, cont_q))
            while not b.is_zero():
                r = pseudo_remainder(a, b, var)
                if not r.is_zero():
                    r = primitive_part_in_var(r, var)
                a, b = b, r
            return monic_grlex(cont * a)
        if in_p:
            return gcd(content_in_var(p, var), q)
        if in_q:
            return gcd(p, content_in_var(q, var))
    return MultiPoly.const(p.nvars, 1)


# ---------------------------------------------------------------------------
# gcd: heuristic gcd over Z[i] (GCDHEU), certified by trial division
# ---------------------------------------------------------------------------
#
# The helpers below work on Gaussian-integer polynomials stored as
# {exponent: (re, im)} with int parts and no zero coefficients.

_HEU_GCD_TRIES = 6


def gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Full multivariate gcd over Q(i), normalized graded-lex monic.

    Heuristic gcd (GCDHEU: Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989)
    carried over to Z[i], with `_prs_gcd` as the fallback:

    1. Clear denominators, so that p and q lie in Z[i][x] (Q(i)[x] has the
       same gcds up to a unit), and strip each one's Z[i] content, giving
       primitive f and g.
    2. Evaluate the highest variable x_v present at an integer xi, recurse
       until both operands are Gaussian integers, and take their gcd by
       Euclid in Z[i] (division rounded to the nearest Gaussian integer).
    3. Expand the real and imaginary parts of each coefficient of the
       image gcd gamma in base xi, digits in the symmetric range
       [-xi/2, xi/2], giving H with H(xi) = gamma, and let G = H / c with
       c the Z[i] content of H.
    4. Accept G only if exact trial division shows G | f and G | g;
       otherwise grow xi and try again.  After `_HEU_GCD_TRIES` values of
       xi, or when a recursive level gives up, fall back to `_prs_gcd`.

    Why an accepted G is the gcd.  Let h = gcd(f, g), primitive.  G is a
    primitive common divisor, so h = G k with k in Z[i][x] (Gauss's lemma;
    Z[i] is a UFD).  h(xi) divides f(xi) and g(xi), hence gamma = c G(xi)
    (by induction gamma is their exact gcd), so k(xi) divides the constant
    c: k(xi) = kappa is a constant with |kappa| <= |c| <= xi / sqrt(2),
    because c divides a nonzero digit.  Suppose k is not a unit, hence not
    constant (a constant divisor of the primitive f is a unit).  As k(xi)
    is constant, k depends on x_v, and substituting x_j -> x_v^(M_j) for the other
    variables, with M_j spaced past all degrees of f, maps f and k to
    univariate F and K with K | F, deg K >= 1, K(xi) = kappa and the
    coefficients of F those of f.  Every root of F lies in
    |z| < 1 + |f|_inf (Cauchy; |lc F| >= 1 in Z[i]), so
    |kappa| = |lc K| prod |xi - root| >= xi - 1 - |f|_inf.  The start value
    xi > (2 + sqrt 2)(1 + min(|f|_inf, |g|_inf)) makes this exceed
    xi / sqrt(2), a contradiction; xi only grows.  So k is a unit and
    G = h up to a unit.  (This is the CGG bound with |.|_inf the largest
    coefficient modulus and the digit bound xi/2 widened to xi/sqrt(2).)

    The result is `monic_grlex` of G times the gcd of the contents, the
    same canonical form `_prs_gcd` returns.
    """
    if p.is_zero() and q.is_zero():
        return MultiPoly.zero(p.nvars)
    if p.is_zero():
        return monic_grlex(q)
    if q.is_zero():
        return monic_grlex(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.nvars, 1)
    h = _heu_gcd(_to_zi(p)[0], _to_zi(q)[0])
    if h is None:
        return _prs_gcd(p, q)
    out = MultiPoly.zero(p.nvars)
    out.terms = {e: GaussianRational(a, b) for e, (a, b) in h.items()}
    return monic_grlex(out)


def _heu_gcd(f: dict, g: dict) -> dict | None:
    """gcd of two Z[i][x] polynomials up to a unit, or None on giving up."""
    # an image can vanish: xi only has to pass the smaller operand's bound
    if not f:
        return g
    if not g:
        return f
    cf, cg = _zi_content(f), _zi_content(g)
    c = _zi_gcd(cf, cg)
    nvars = len(next(iter(f)))
    one = (0,) * nvars
    if (len(f) == 1 and one in f) or (len(g) == 1 and one in g):
        return {one: c}
    f, g = _zi_div_exact(f, cf), _zi_div_exact(g, cg)
    v = nvars - 1
    while not any(e[v] for e in f) and not any(e[v] for e in g):
        v -= 1
    norm2 = min(max(a * a + b * b for a, b in f.values()),
                max(a * a + b * b for a, b in g.values()))
    xi = 4 * (isqrt(norm2) + 2)  # > (2 + sqrt 2)(1 + min |.|_inf), see gcd
    for _ in range(_HEU_GCD_TRIES):
        gamma = _heu_gcd(_zi_eval(f, v, xi), _zi_eval(g, v, xi))
        if gamma is None:
            return None
        h = _zi_interpolate(gamma, v, xi)
        h = _zi_div_exact(h, _zi_content(h))
        if len(h) == 1 and one in h:
            return {one: c}
        if _zi_divides(h, f) and _zi_divides(h, g):
            return _zi_scale(h, c)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _to_zi(p: MultiPoly) -> Tuple[dict, int]:
    """(p times the lcm of its coefficient denominators, as a Z[i]
    polynomial; that lcm)."""
    nums, den = _over_common_denominator(p.terms.values())
    return dict(zip(p.terms, nums)), den


def _zi_gcd(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """gcd in Z[i] by Euclid, each quotient rounded to the nearest Gaussian
    integer, so that the remainder's norm is at most half the divisor's."""
    a0, a1 = a
    b0, b1 = b
    while b0 or b1:
        n = b0 * b0 + b1 * b1
        x, y = a0 * b0 + a1 * b1, a1 * b0 - a0 * b1  # a * conj(b)
        q0, q1 = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a0, a1, b0, b1 = b0, b1, a0 - q0 * b0 + q1 * b1, a1 - q0 * b1 - q1 * b0
    return a0, a1


def _zi_content(f: dict) -> Tuple[int, int]:
    c = (0, 0)
    for v in f.values():
        c = _zi_gcd(v, c)
        if c[0] * c[0] + c[1] * c[1] == 1:
            break
    return c


def _zi_div_exact(f: dict, c: Tuple[int, int]) -> dict:
    """f / c for a Gaussian integer c that divides every coefficient; a unit
    c leaves f as it is (gcds are only determined up to a unit)."""
    c0, c1 = c
    n = c0 * c0 + c1 * c1
    if n == 1:
        return f
    return {e: ((a * c0 + b * c1) // n, (b * c0 - a * c1) // n) for e, (a, b) in f.items()}


def _zi_scale(f: dict, c: Tuple[int, int]) -> dict:
    c0, c1 = c
    if c0 * c0 + c1 * c1 == 1:
        return f
    return {e: (a * c0 - b * c1, a * c1 + b * c0) for e, (a, b) in f.items()}


def _zi_eval(f: dict, var: int, xi: int) -> dict:
    """f with x_var = xi; exponents keep their length, with 0 at `var`."""
    powers = [1]
    out: dict = {}
    for e, (a, b) in f.items():
        k = e[var]
        while len(powers) <= k:
            powers.append(powers[-1] * xi)
        t = powers[k]
        e = e[:var] + (0,) + e[var + 1:]
        s = out.get(e)
        out[e] = (a * t, b * t) if s is None else (s[0] + a * t, s[1] + b * t)
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _zi_interpolate(h: dict, var: int, xi: int) -> dict:
    """Inverse of `_zi_eval` for small coefficients: expand the real and
    imaginary part of each coefficient of h in base xi, with digits in the
    symmetric range, the k-th digit becoming the coefficient of x_var^k."""
    half = xi // 2
    out = {}
    for e, (a, b) in h.items():
        k = 0
        while a or b:
            da, db = a % xi, b % xi
            if da > half:
                da -= xi
            if db > half:
                db -= xi
            if da or db:
                out[e[:var] + (k,) + e[var + 1:]] = (da, db)
            a, b = (a - da) // xi, (b - db) // xi
            k += 1
    return out


def _zi_divides(g: dict, f: dict) -> bool:
    """True iff g divides f in Z[i][x]: exact division by lex-leading terms,
    stopping at the first monomial or coefficient that does not divide."""
    lg = max(g)
    if any(i < j for i, j in zip(max(f), lg)):
        return False
    g0, g1 = g[lg]
    n = g0 * g0 + g1 * g1
    rest = [(e, c) for e, c in g.items() if e != lg]
    rem = dict(f)
    while rem:
        lr = max(rem)
        shift = tuple(i - j for i, j in zip(lr, lg))
        if min(shift) < 0:
            return False
        a, b = rem.pop(lr)
        x, y = a * g0 + b * g1, b * g0 - a * g1  # (a + bi) * conj(lc g)
        if x % n or y % n:
            return False
        q0, q1 = x // n, y // n
        for e, (c0, c1) in rest:
            m = tuple(i + j for i, j in zip(e, shift))
            s0, s1 = q0 * c0 - q1 * c1, q0 * c1 + q1 * c0
            r = rem.get(m)
            if r is None:
                rem[m] = (-s0, -s1)
            elif r[0] != s0 or r[1] != s1:
                rem[m] = (r[0] - s0, r[1] - s1)
            else:
                del rem[m]
    return True


def gcd_in_var(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """gcd of p, q viewed univariate in `var` over the rational-function field
    of the remaining variables: the content in `var` is stripped."""
    if p.is_zero() and q.is_zero():
        raise ZeroInputError("gcd of two zero polynomials")
    if p.is_zero():
        return monic_grlex(q)
    if q.is_zero():
        return monic_grlex(p)
    if not (p.depends_on(var) and q.depends_on(var)):
        return MultiPoly.const(p.nvars, 1)
    a, b = primitive_part_in_var(p, var), primitive_part_in_var(q, var)
    while not b.is_zero():
        r = pseudo_remainder(a, b, var)
        if not r.is_zero():
            r = primitive_part_in_var(r, var)
        a, b = b, r
    if not a.depends_on(var):
        return MultiPoly.const(p.nvars, 1)
    return primitive_part_in_var(a, var)


# ---------------------------------------------------------------------------
# resultant / discriminant (fraction-free Bareiss on the Sylvester matrix)
# ---------------------------------------------------------------------------

def _bareiss_det(m: List[List[MultiPoly]], nvars: int) -> MultiPoly:
    n = len(m)
    if n == 0:
        return MultiPoly.const(nvars, 1)
    m = [row[:] for row in m]
    sign = 1
    prev = MultiPoly.const(nvars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return MultiPoly.zero(nvars)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = MultiPoly.zero(nvars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Sylvester-determinant resultant in `var`."""
    dp, dq = p.degree_in(var), q.degree_in(var)
    if p.is_zero() or q.is_zero():
        raise ZeroInputError("resultant of a zero polynomial")
    if dp == 0 and dq == 0:
        return MultiPoly.const(p.nvars, 1)
    if dp == 0:
        return p ** dq
    if dq == 0:
        return q ** dp
    pc = p.coeffs_in_var(var)
    qc = q.coeffs_in_var(var)
    zero = MultiPoly.zero(p.nvars)
    n = dp + dq
    rows: List[List[MultiPoly]] = []
    for i in range(dq):
        row = [zero] * n
        for k in range(dp + 1):
            row[i + k] = pc.get(dp - k, zero)
        rows.append(row)
    for i in range(dp):
        row = [zero] * n
        for k in range(dq + 1):
            row[i + k] = qc.get(dq - k, zero)
        rows.append(row)
    return _bareiss_det(rows, p.nvars)


def discriminant(p: MultiPoly, var: int) -> MultiPoly:
    """(-1)^(d(d-1)/2) * resultant(p, dp/dvar) / lc_var(p)."""
    d = p.degree_in(var)
    if d <= 0:
        raise ZeroInputError("discriminant needs positive degree in the variable")
    dp = p.partial(var)
    if dp.is_zero():
        raise ZeroInputError("derivative vanished; characteristic-0 expects nonzero")
    res = resultant(p, dp, var)
    lc = p.leading_coefficient_in(var)
    out = exact_divide(res, lc)
    if (d * (d - 1) // 2) % 2 == 1:
        out = -out
    return out


# ---------------------------------------------------------------------------
# squarefree decomposition (gcd ladder, with respect to one variable)
# ---------------------------------------------------------------------------

def _field_div_primitive(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Primitive part of p/q when q divides p over the function field in `var`.

    p * lc(q)^(dp-dq+1) is exactly divisible by q whenever the field-quotient
    exists; the var-free content introduced that way is stripped afterwards.
    """
    if not q.depends_on(var):
        return primitive_part_in_var(p, var) if p.depends_on(var) else monic_grlex(p)
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp < dq:
        raise DivisionError("field division with deficient degree")
    lc = q.leading_coefficient_in(var)
    quot = exact_divide(p * (lc ** (dp - dq + 1)), q)
    return primitive_part_in_var(quot, var) if quot.depends_on(var) else monic_grlex(quot)


def squarefree_decompose(p: MultiPoly, var: int) -> List[Tuple[MultiPoly, int]]:
    """Squarefree decomposition of p in `var`.

    The product of factor^multiplicity equals p up to a factor free of `var`;
    factors are pairwise coprime and squarefree in `var` (not necessarily
    irreducible).
    """
    if p.is_zero():
        raise ZeroInputError("squarefree decomposition of zero")
    if not p.depends_on(var):
        return []
    f = primitive_part_in_var(p, var)
    g = gcd_in_var(f, f.partial(var), var)
    if not g.depends_on(var):
        return [(f, 1)]
    w = _field_div_primitive(f, g, var)
    out: List[Tuple[MultiPoly, int]] = []
    i = 1
    while w.depends_on(var):
        y = gcd_in_var(w, g, var) if g.depends_on(var) else MultiPoly.const(p.nvars, 1)
        z = _field_div_primitive(w, y, var)
        if z.depends_on(var):
            out.append((z, i))
        w = y
        if g.depends_on(var) and y.depends_on(var):
            g = _field_div_primitive(g, y, var)
        i += 1
        if i > p.degree_in(var) + 1:
            raise DivisionError("squarefree ladder failed to terminate")
    return out
