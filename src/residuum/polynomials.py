"""Exact multivariate polynomials over the Gaussian rationals.

Terms are stored sparsely as a map from exponent tuples to nonzero
GaussianRational coefficients.  The canonical term order is graded
lexicographic (total degree first, ties broken lexicographically with
variable 0 strongest); normalization and serialization both use it.

A constant operand of `*` is a scalar: the result multiplies each
coefficient once, and a factor 1 returns the other operand itself; a
one-term divisor of `exact_divide` likewise shifts exponents and scales.
Otherwise products, gcds and exact divisions with several-term operands
all run on Z[i] numerators over a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add, sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from .errors import DivisionError, ZeroInputError
from .scalars import GaussianRational, _integer, _over_common_denominator, _reduced

if TYPE_CHECKING:
    import numpy as np

Exponent = Tuple[int, ...]
_ZERO = GaussianRational(0)


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


def _check_var(var: int, nvars: int):
    """ValueError unless var indexes one of nvars variables: a negative
    index would read the exponents from the end."""
    if not 0 <= var < nvars:
        raise ValueError(f"variable index {var} out of range for nvars={nvars}")


class MultiPoly:
    """Sparse multivariate polynomial with GaussianRational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, GaussianRational]):
        self.nvars = _integer(nvars)
        clean: Dict[Exponent, GaussianRational] = {}
        for exp, c in terms.items():
            c = GaussianRational.from_any(c)
            if c.is_zero():
                continue
            # integral exponents: two keys cannot name one monomial
            exp = tuple(_integer(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for nvars={self.nvars}")
            clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def _of(nvars: int, terms: Dict[Exponent, GaussianRational]) -> "MultiPoly":
        """The polynomial with these terms, taken without checks: exponents
        must have length nvars and coefficients be nonzero GaussianRationals."""
        p = object.__new__(MultiPoly)
        p.nvars = nvars
        p.terms = terms
        return p

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        if type(nvars) is not int:  # ints skip the check: zero runs on hot paths
            nvars = _integer(nvars)
        return MultiPoly._of(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        if type(nvars) is not int:
            nvars = _integer(nvars)
        c = GaussianRational.from_any(c)
        if c.is_zero():
            return MultiPoly.zero(nvars)
        return MultiPoly._of(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        nvars, i = _integer(nvars), _integer(i)
        _check_var(i, nvars)
        exp = [0] * nvars
        exp[i] = 1
        return MultiPoly(nvars, {tuple(exp): GaussianRational(1)})

    # -- predicates / queries ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _constant_term(self) -> GaussianRational | None:
        """The value of a constant, None for any other polynomial: terms are
        nonzero at distinct exponents, so a constant has none or one, at 0."""
        if len(self.terms) != 1:
            return None if self.terms else _ZERO
        (exp, c), = self.terms.items()
        return None if any(exp) else c

    def is_constant(self) -> bool:
        return self._constant_term() is not None

    def constant_value(self) -> GaussianRational:
        c = self._constant_term()
        if c is None:
            raise ValueError("polynomial is not constant")
        return c

    def degree_in(self, var: int) -> int:
        _check_var(var, self.nvars)
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def depends_on(self, var: int) -> bool:
        _check_var(var, self.nvars)
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
        return MultiPoly._of(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scaled(GaussianRational.from_any(other))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        # a constant operand makes a scalar multiple, with no Z[i] conversion
        c = other._constant_term()
        if c is not None:
            return self._scaled(c)
        c = self._constant_term()
        if c is not None:
            return other._scaled(c)
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
        return MultiPoly._of(self.nvars, {e: _reduced(a, b, d) for e, (a, b) in acc.items()})

    __rmul__ = __mul__

    def _scaled(self, c: GaussianRational) -> "MultiPoly":
        """c times self; self itself when c is 1."""
        if c.is_zero():
            return MultiPoly.zero(self.nvars)
        if c.is_one():
            return self
        return MultiPoly._of(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        """Binary powering from the first set bit of n, not from 1."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MultiPoly.const(self.nvars, 1)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def partial(self, var: int) -> "MultiPoly":
        _check_var(var, self.nvars)
        terms: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k == 0:
                continue
            e = list(exp)
            e[var] = k - 1
            terms[tuple(e)] = c * k
        return MultiPoly._of(self.nvars, terms)

    # -- evaluation ---------------------------------------------------

    def eval_exact(self, point: Iterable[GaussianRational]) -> GaussianRational:
        """The exact value at a point, by the Horner rule of `_horner`."""
        pt = [GaussianRational.from_any(p) for p in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        if not self.terms:
            return GaussianRational(0)
        return _horner(list(self.terms.items()), pt)

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at complex points; last axis indexes the variables.

        Horner's rule in variable 0 whose coefficients are evaluated by the
        same rule in variables 1, 2, ... (`_horner`), so the summation order
        is fixed by the polynomial alone.  Returns a complex array of shape
        points.shape[:-1], also for a constant or zero polynomial.  The
        points run as one array, a lone point too (numpy's scalar complex
        arithmetic can round differently), and every step is elementwise: a
        point's value does not depend on the other points passed with it.
        """
        import numpy as np

        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.nvars:
            raise ValueError("point dimension mismatch")
        flat = pts.reshape(-1, self.nvars)
        v = _horner_numeric(self, [flat[:, i] for i in range(self.nvars)])
        v = v if isinstance(v, np.ndarray) else np.full(len(flat), v, dtype=complex)
        return v.reshape(pts.shape[:-1])

    # -- structure ----------------------------------------------------

    def coeffs_in_var(self, var: int) -> Dict[int, "MultiPoly"]:
        """View as univariate in `var`; values are polynomials with exponent 0 in `var`."""
        _check_var(var, self.nvars)
        out: Dict[int, MultiPoly] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            p = out.get(k)
            if p is None:
                p = out[k] = MultiPoly._of(self.nvars, {})
            p.terms[exp[:var] + (0,) + exp[var + 1:]] = c
        return out

    def leading_coefficient_in(self, var: int) -> "MultiPoly":
        d = self.degree_in(var)
        if d < 0:
            return MultiPoly.zero(self.nvars)
        return self.coeffs_in_var(var).get(d, MultiPoly.zero(self.nvars))

    def shift_var(self, var: int, a: GaussianRational) -> "MultiPoly":
        """Substitute z_var -> z_var + a: the result's coefficients in z_var
        are self's Taylor coefficients at a in z_var (`_taylor`)."""
        _check_var(var, self.nvars)
        a = GaussianRational.from_any(a)
        if a.is_zero() or not self.terms:
            return self
        coeffs = self.coeffs_in_var(var)
        top, zero = max(coeffs), MultiPoly.zero(self.nvars)
        shifted = _taylor([coeffs.get(k, zero) for k in range(top, -1, -1)], a, top + 1)
        return _join_in_var(dict(enumerate(shifted)), var, self.nvars)

    def __eq__(self, other):
        # a constant equals its value, as the RatFn equal to it does, so
        # constants in different numbers of variables equal each other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._constant_term() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            c = self._constant_term()
            return c is not None and c == other._constant_term()
        return self.terms == other.terms

    def __hash__(self):
        c = self._constant_term()
        if c is not None:
            return hash(c)
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"

    def to_string(self) -> str:
        if self.is_zero():
            return "0"
        names = [f"z{i+1}" for i in range(self.nvars)]
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


def _horner(terms: List[Tuple[Exponent, object]], xs: Sequence, var: int = 0):
    """sum c * prod_{i >= var} xs[i]^e_i over the nonempty (exponent, c)
    pairs `terms`, whose exponents must agree before `var`.

    Horner's rule in xs[var] (Knuth, TAOCP 2, 4.6.4): the terms are grouped
    by their exponent of variable `var`, each group's coefficient is
    evaluated by the same rule in the later variables, and the groups are
    combined from the highest exponent down by acc = acc * x^gap + coeff.
    Variables in which no term has a positive exponent are skipped.  The
    order of operations depends only on the terms, not on their order.

    The c and xs[i] may be GaussianRationals, Python complex numbers or
    numpy arrays; a coefficient free of the later variables stays the
    scalar c, so with array xs only the Horner steps make arrays.
    """
    while var < len(xs) and not any(e[var] for e, _ in terms):
        var += 1
    if var == len(xs):
        return terms[0][1]  # the exponents agree in every variable: one term
    groups: Dict[int, List[Tuple[Exponent, object]]] = {}
    for e, c in terms:
        groups.setdefault(e[var], []).append((e, c))
    x = xs[var]
    degrees = sorted(groups, reverse=True)
    acc = _horner(groups[degrees[0]], xs, var + 1)
    for hi, lo in zip(degrees, degrees[1:]):
        acc = acc * (x if hi - lo == 1 else x ** (hi - lo)) + _horner(groups[lo], xs, var + 1)
    low = degrees[-1]
    if low:
        acc = acc * (x if low == 1 else x ** low)
    return acc


def _horner_numeric(p: MultiPoly, cols: Sequence[np.ndarray]):
    """p at the complex columns cols[i] of its variables by `_horner`, each
    coefficient converted once; a Python complex when p is constant."""
    if not p.terms:
        return 0j
    return _horner([(e, complex(c)) for e, c in p.terms.items()], cols)


def _deflate(coeffs: List, a: GaussianRational):
    """Synthetic (Horner-Ruffini) division of sum coeffs[i] z^(n-i) by z - a:
    the quotient's coefficients, highest first, and the remainder, which is
    the polynomial's value at a.  Coefficients, scalars or polynomials in
    other variables, are multiplied as `c * a`: a MultiPoly scales directly."""
    acc = [coeffs[0]]
    for c in coeffs[1:]:
        acc.append(c + acc[-1] * a)
    return acc[:-1], acc[-1]


def _taylor(coeffs: List, a: GaussianRational, n: int) -> List:
    """The first n coefficients, lowest first, in powers of z - a of the
    polynomial with coefficients `coeffs` (highest first, at least n of
    them), scalars or polynomials in other variables: a Taylor shift by
    repeated synthetic division (Knuth, TAOCP 2, 4.6.4)."""
    shifted = []
    for _ in range(n):
        coeffs, value = _deflate(coeffs, a)
        shifted.append(value)
    return shifted


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------

def monic_grlex(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    return p * p.leading_coefficient().inverse()


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Return p/q if q divides p exactly, else raise DivisionError.

    A one-term q = c x^b (a constant is b = 0) divides p iff x^b divides
    every term of p, and p/q is p shifted down by b and scaled by 1/c.
    Any other q runs the gcd's trial division `_zi_quotient` on Z[i]
    numerators: p times a denominator, by q made primitive in Z[i][x].
    That is exact by Gauss's lemma (Z[i] is a UFD): a primitive divisor
    over Q(i) also divides over Z[i], so the trial division fails only if
    q does not divide p.  Its quotient is p/q up to a scalar, and since
    graded-lex leading terms multiply, the scalar makes the leading
    coefficient lc(p)/lc(q).
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    p._check(q)
    if len(q.terms) == 1:
        (b, c), = q.terms.items()
        if any(b):
            if any(i < j for e in p.terms for i, j in zip(e, b)):
                raise DivisionError(f"{q!r} does not divide {p!r}")
            p = _shifted(p, b)
        return p._scaled(c.inverse())
    g = _to_zi(q)[0]
    f = _zi_quotient(_to_zi(p)[0], _zi_div_exact(g, _zi_content(g)))
    if f is None:
        raise DivisionError(f"{q!r} does not divide {p!r}")
    return _zi_with_lc(f, p.nvars, p.leading_coefficient() / q.leading_coefficient())


# ---------------------------------------------------------------------------
# pseudo-division, content and the primitive PRS
# ---------------------------------------------------------------------------

def _pseudo_divide(p: MultiPoly, q: MultiPoly, var: int) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(l, quot, rem) with l*p == quot*q + rem, l = lc_var(q)^max(dp - dq + 1, 0)
    and deg_var rem < deg_var q, where dp and dq are the degrees in `var`.

    p is multiplied by l once; after that every step divides a leading
    coefficient by lc_var(q) exactly.  The work is on the coefficient lists
    in `var`, which are joined back into polynomials at the end.
    """
    dq = q.degree_in(var)
    if dq < 0:
        raise ZeroInputError("pseudo-division by zero")
    dp = p.degree_in(var)
    if dp < dq:
        return MultiPoly.const(p.nvars, 1), MultiPoly.zero(p.nvars), p
    qc = q.coeffs_in_var(var)
    lc = qc.pop(dq)
    l = lc ** (dp - dq + 1)
    rem = {k: c * l for k, c in p.coeffs_in_var(var).items()}
    quot: Dict[int, MultiPoly] = {}
    for dr in range(dp, dq - 1, -1):
        lead = rem.pop(dr, None)
        if lead is None:
            continue
        f = quot[dr - dq] = exact_divide(lead, lc)
        for k, c in qc.items():  # rem -= f * x^(dr-dq) * (q - lead term)
            i = k + dr - dq
            s = rem.get(i)
            s = -(f * c) if s is None else s - f * c
            if s.is_zero():
                del rem[i]
            else:
                rem[i] = s
    return l, _join_in_var(quot, var, p.nvars), _join_in_var(rem, var, p.nvars)


def _join_in_var(coeffs: Dict[int, MultiPoly], var: int, nvars: int) -> MultiPoly:
    """Inverse of `MultiPoly.coeffs_in_var`."""
    terms: Dict[Exponent, GaussianRational] = {}
    for k, c in coeffs.items():
        for e, v in c.terms.items():
            terms[e[:var] + (k,) + e[var + 1:]] = v
    return MultiPoly._of(nvars, terms)


def pseudo_remainder(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of p by q, both viewed univariate in `var`."""
    return _pseudo_divide(p, q, var)[2]


def content_in_var(p: MultiPoly, var: int, *more: MultiPoly) -> MultiPoly:
    """gcd of the coefficients of p, and of each polynomial in `more`, viewed
    univariate in `var`."""
    coeffs = [c for f in (p,) + more for c in f.coeffs_in_var(var).values()]
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

    Closed form for a one-term operand.  If p or q is a single term c x^a,
    the gcd is x^b, b the coordinatewise minimum of the exponents of both
    operands.  The divisors of c x^a in Q(i)[x] are the unit multiples of
    the monomials x^d with d <= a, and x^d divides a polynomial iff d is at
    most each of its exponents; x^b is the largest such monomial.  A
    constant operand is the case a = 0, with gcd 1.

    Otherwise: heuristic gcd (GCDHEU: Char, Geddes and Gonnet, J. Symb.
    Comp. 7, 1989) carried over to Z[i], with `_prs_gcd` as the fallback:

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
       A constant G is a unit and divides everything, so it is accepted
       without a trial division, and the gcd is 1 (the unit exit): no
       polynomial is built and none is made monic.

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

    The result is G made graded-lex monic, the same canonical form
    `_prs_gcd` returns.
    """
    return _gcd(p, q)[0]


def cofactors(p: MultiPoly, q: MultiPoly) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, p/g, q/g) with g = gcd(p, q), the quotients taken from the gcd's
    own work rather than from two more divisions.

    A one-term operand gives them by shifting exponents down by b, and a
    unit gcd as p and q themselves.  The trial division that certifies the
    heuristic's G also builds f/G and g/G, which are p/g and q/g up to a
    scalar; g is monic and graded-lex leading terms multiply, so the
    scalar is lc(p) / lc(f/G).  A zero operand q gives lc(p) and 0 (and
    cofactors(0, 0) is (0, 0, 0)).  Only after the PRS fallback are they
    found by `exact_divide`.
    """
    g, fp, fq = _gcd(p, q)
    return g, _cofactor(p, fp), _cofactor(q, fq)


def _gcd(p: MultiPoly, q: MultiPoly) -> Tuple[MultiPoly, object, object]:
    """(g, fp, fq) with g = `gcd`(p, q).  fp is p/g (fq the same for q), as a
    MultiPoly, or as the Z[i] polynomial of the trial division, which is
    p/g up to a scalar: building it is left to `_cofactor`, since `gcd`
    does not need it.  For p = q = 0 all three are 0."""
    nvars = p.nvars
    if p.is_zero() or q.is_zero():  # gcd(f, 0) is f made monic; f/g is lc(f)
        f = q if p.is_zero() else p
        if f.is_zero():
            return f, p, q
        lc = f.leading_coefficient()
        g, unit = f._scaled(lc.inverse()), MultiPoly.const(nvars, lc)
        return (g, unit, q) if f is p else (g, p, unit)
    if len(p.terms) == 1 or len(q.terms) == 1:
        b = tuple(map(min, *p.terms, *q.terms))
        if not any(b):
            return MultiPoly.const(nvars, 1), p, q
        return MultiPoly._of(nvars, {b: GaussianRational(1)}), _shifted(p, b), _shifted(q, b)
    found = _heu_gcd(_to_zi(p)[0], _to_zi(q)[0])
    if found is None:
        g = _prs_gcd(p, q)
        return g, exact_divide(p, g), exact_divide(q, g)
    h, fp, fq = found
    if fp is None:  # the unit exit
        return MultiPoly.const(nvars, 1), p, q
    return _zi_with_lc(h, nvars, GaussianRational(1)), fp, fq


def _cofactor(p: MultiPoly, f) -> MultiPoly:
    """p/g from what `_gcd` returned for it: g is monic, so p/g has p's
    graded-lex leading coefficient."""
    return f if isinstance(f, MultiPoly) else _zi_with_lc(f, p.nvars, p.leading_coefficient())


def _shifted(p: MultiPoly, b: Exponent) -> MultiPoly:
    """p / x^b, for x^b dividing p."""
    return MultiPoly._of(p.nvars, {tuple(map(sub, e, b)): c for e, c in p.terms.items()})


def _zi_with_lc(f: dict, nvars: int, lc: GaussianRational) -> MultiPoly:
    """The scalar multiple of the Z[i] polynomial f whose graded-lex leading
    coefficient is lc."""
    ((sa, sb),), d = _over_common_denominator([lc / GaussianRational(*f[max(f, key=_grlex_key)])])
    return MultiPoly._of(nvars, {e: _reduced(a * sa - b * sb, a * sb + b * sa, d)
                                 for e, (a, b) in f.items()})


def _heu_gcd(f: dict, g: dict) -> tuple | None:
    """(h, qf, qg) for two Z[i][x] polynomials, or None on giving up.  h is
    their gcd up to a unit.  qf and qg are the quotients of the trial
    division that accepted h, so f = qf h and g = qg h up to scalars; both
    are None when no trial division ran, because an operand vanished or h
    is the constant gcd of the contents."""
    # an image can vanish: xi only has to pass the smaller operand's bound
    if not f:
        return g, None, None
    if not g:
        return f, None, None
    cf, cg = _zi_content(f), _zi_content(g)
    c = _zi_gcd(cf, cg)
    nvars = len(next(iter(f)))
    one = (0,) * nvars
    if (len(f) == 1 and one in f) or (len(g) == 1 and one in g):
        return {one: c}, None, None
    f, g = _zi_div_exact(f, cf), _zi_div_exact(g, cg)
    v = nvars - 1
    while not any(e[v] for e in f) and not any(e[v] for e in g):
        v -= 1
    norm2 = min(max(a * a + b * b for a, b in f.values()),
                max(a * a + b * b for a, b in g.values()))
    xi = 4 * (isqrt(norm2) + 2)  # > (2 + sqrt 2)(1 + min |.|_inf), see gcd
    for _ in range(_HEU_GCD_TRIES):
        found = _heu_gcd(_zi_eval(f, v, xi), _zi_eval(g, v, xi))
        if found is None:
            return None
        h = _zi_interpolate(found[0], v, xi)
        h = _zi_div_exact(h, _zi_content(h))
        if len(h) == 1 and one in h:
            return {one: c}, None, None
        qf = _zi_quotient(f, h)
        qg = None if qf is None else _zi_quotient(g, h)
        if qg is not None:
            return _zi_scale(h, c), qf, qg
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


def _zi_quotient(f: dict, g: dict) -> dict | None:
    """f / g if g divides f in Z[i][x], else None: exact division by
    lex-leading terms, stopping at the first monomial or coefficient that
    does not divide.  This is the one exact division: the gcd's trial
    division, and `exact_divide` for a divisor of several terms."""
    lg = max(g)
    if any(i < j for i, j in zip(max(f), lg)):
        return None
    g0, g1 = g[lg]
    n = g0 * g0 + g1 * g1
    rest = [(e, c) for e, c in g.items() if e != lg]
    rem = dict(f)
    quot = {}
    while rem:
        lr = max(rem)
        shift = tuple(i - j for i, j in zip(lr, lg))
        if min(shift) < 0:
            return None
        a, b = rem.pop(lr)
        x, y = a * g0 + b * g1, b * g0 - a * g1  # (a + bi) * conj(lc g)
        if x % n or y % n:
            return None
        q0, q1 = quot[shift] = x // n, y // n
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
    return quot


# ---------------------------------------------------------------------------
# resultant / discriminant (subresultant PRS, certified by exact division)
# ---------------------------------------------------------------------------

def resultant(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Resultant in `var` by the subresultant PRS (Collins, J. ACM 14, 1967;
    Brown-Traub, J. ACM 18, 1971; Cohen, GTM 138, Algorithm 3.3.7).  Each
    pseudo-remainder prem(a, b) is divided by g h^delta, g = lc_var(a),
    delta = deg a - deg b and h the scale of the previous step.  The
    subresultant theorem makes each such division exact, and `exact_divide`
    raises on one that is not, so the exact divisions certify the result.
    """
    da, db = p.degree_in(var), q.degree_in(var)
    if p.is_zero() or q.is_zero():
        raise ZeroInputError("resultant of a zero polynomial")
    if da == 0:
        return p ** db
    if db == 0:
        return q ** da
    a, b, sign = p, q, 1
    if da < db:  # Res(q, p) = (-1)^(da db) Res(p, q)
        a, b, da, db, sign = q, p, db, da, (-1) ** (da & db & 1)
    g = h = MultiPoly.const(p.nvars, 1)
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = pseudo_remainder(a, b, var)
        if r.is_zero():
            return r
        a, b = b, exact_divide(r, g * h ** delta)
        da, db = db, b.degree_in(var)
        g = a.leading_coefficient_in(var)
        h = _subresultant_scale(g, h, delta)
    return _subresultant_scale(b, h, da) * sign


def _subresultant_scale(g: MultiPoly, h: MultiPoly, delta: int) -> MultiPoly:
    """h^(1 - delta) g^delta, exactly."""
    if delta <= 1:
        return h if delta == 0 else g
    return exact_divide(g ** delta, h ** (delta - 1))


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
# squarefree decomposition (Yun's algorithm, with respect to one variable)
# ---------------------------------------------------------------------------

def squarefree_decompose(p: MultiPoly, var: int) -> List[Tuple[MultiPoly, int]]:
    """[(a_i, i)] for the a_i not free of `var`, with p = u prod a_i^i, u free
    of `var`, and the a_i pairwise coprime, squarefree in `var` (not
    necessarily irreducible), primitive in `var` and graded-lex monic.

    Yun's algorithm (D. Y. Y. Yun, SYMSAC 1976) on f, the primitive part of
    p in `var`: (_, b, c) = `cofactors`(f, f'), then (a_i, b, c) =
    `cofactors`(b, c - b') for i = 1, 2, ..., ' = d/d`var`.  It is exact:

    * f is primitive in `var`, so every divisor of it is too, and a full
      gcd over Q(i)[x] of its divisors is their gcd over the field of
      rational functions in the other variables up to a unit (Gauss's
      lemma); `gcd` makes it graded-lex monic, 1 when it is a unit.
    * `cofactors` returns the exact quotients of both operands by one g.
    * b_i = prod_{j >= i} a_j is free of `var` after the largest
      multiplicity, so at most deg_var p steps run.
    """
    if p.is_zero():
        raise ZeroInputError("squarefree decomposition of zero")
    f = primitive_part_in_var(p, var)
    _, b, c = cofactors(f, f.partial(var))
    out: List[Tuple[MultiPoly, int]] = []
    for i in range(1, p.degree_in(var) + 1):
        if not b.depends_on(var):
            break
        a, b, c = cofactors(b, c - b.partial(var))
        if a.depends_on(var):
            out.append((a, i))
    if b.depends_on(var):
        raise DivisionError("squarefree decomposition did not end after deg_var p steps")
    return out
