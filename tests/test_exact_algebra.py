"""Exact algebra: arithmetic, gcd, resultants, squarefree split, RatFn laws.

Expected values for the derived cases were computed with the small
specialization oracles below (Euclid / Sylvester determinant over exact
complex rationals), which share no code with the production path.  The
full multivariate gcd is checked against the primitive PRS it replaced and
against sympy's gcd over QQ_I (sympy is a test-only dependency).
"""

import random
from fractions import Fraction
from math import gcd as igcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, QQ_I, Add, I, Poly, Rational, apart, expand, symbols
from sympy.polys.rings import ring

from residuum import polynomials
from residuum.bump import BumpFunction
from residuum.dim1 import principal_part
from residuum.errors import DivisionError, ZeroInputError
from residuum.polynomials import (
    MultiPoly,
    _prs_gcd,
    cofactors,
    content_in_var,
    discriminant,
    exact_divide,
    gcd,
    monic_grlex,
    primitive_part_in_var,
    resultant,
    squarefree_decompose,
)
from residuum.ratfn import RatFn, uni_digits, uni_divmod, uni_mod_inverse
from residuum.scalars import GaussianRational


# ---------------------------------------------------------------------------
# small builders
# ---------------------------------------------------------------------------

def P(nvars, *terms):
    """P(2, (exp, re, im), ...) -> MultiPoly"""
    return MultiPoly(nvars, {tuple(e): GaussianRational(re, im) for e, re, im in terms})


Z1 = MultiPoly.variable(2, 0)
Z2 = MultiPoly.variable(2, 1)
ONE2 = MultiPoly.const(2, 1)


# ---------------------------------------------------------------------------
# oracles: exact complex-rational arithmetic on Fraction pairs
# ---------------------------------------------------------------------------

def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


C_ZERO = (Fraction(0), Fraction(0))


def specialize(p: MultiPoly, var: int, y):
    """Coefficient list (low degree first) of p with the other variables fixed.

    `y` maps variable index -> Fraction-pair value.
    """
    deg = p.degree_in(var)
    coeffs = [C_ZERO] * (deg + 1)
    for exp, c in p.terms.items():
        v = (c.re, c.im)
        for i, e in enumerate(exp):
            if i == var or e == 0:
                continue
            for _ in range(e):
                v = c_mul(v, y[i])
        coeffs[exp[var]] = c_add(coeffs[exp[var]], v)
    while coeffs and coeffs[-1] == C_ZERO:
        coeffs.pop()
    return coeffs


def euclid_gcd_degree(a, b):
    """Degree of gcd of two specialized univariate polynomials (oracle)."""
    a, b = list(a), list(b)
    while b:
        # remainder of a by b
        while len(a) >= len(b) and a:
            q = c_div(a[-1], b[-1])
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] = c_sub(a[shift + i], c_mul(q, b[i]))
            while a and a[-1] == C_ZERO:
                a.pop()
        a, b = b, a
    return len(a) - 1


def sylvester_det(pc, qc):
    """Exact determinant of the Sylvester matrix of two coefficient lists
    (low degree first), via Fraction-pair Gaussian elimination (oracle)."""
    dp, dq = len(pc) - 1, len(qc) - 1
    n = dp + dq
    if n == 0:
        return (Fraction(1), Fraction(0))
    m = []
    for i in range(dq):
        row = [C_ZERO] * n
        for k in range(dp + 1):
            row[i + k] = pc[dp - k]
        m.append(row)
    for i in range(dp):
        row = [C_ZERO] * n
        for k in range(dq + 1):
            row[i + k] = qc[dq - k]
        m.append(row)
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != C_ZERO), None)
        if piv is None:
            return C_ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = c_mul(det, (Fraction(-1), Fraction(0)))
        det = c_mul(det, m[col][col])
        inv_rows = range(col + 1, n)
        for r in inv_rows:
            if m[r][col] == C_ZERO:
                continue
            f = c_div(m[r][col], m[col][col])
            for cidx in range(col, n):
                m[r][cidx] = c_sub(m[r][cidx], c_mul(f, m[col][cidx]))
    return det


def rand_points(rng, k):
    pts = []
    for _ in range(k):
        pts.append({1: (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))})
    return pts


# ---------------------------------------------------------------------------
# Gaussian rational scalars against the Fraction-pair oracle
# ---------------------------------------------------------------------------

fractions_ = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                       st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10 ** 9 + 7, 2 ** 64]))
pairs = st.tuples(fractions_, fractions_)
nonzero_pairs = pairs.filter(lambda x: x != C_ZERO)
operands = st.one_of(pairs, st.integers(-50, 50), fractions_)


def as_pair(x):
    """Oracle value of a GaussianRational operand: an int, Fraction or pair."""
    return x if isinstance(x, tuple) else (Fraction(x), Fraction(0))


def gr(x):
    return GaussianRational(*x) if isinstance(x, tuple) else x


def parts(z):
    return (z.re, z.im)


def assert_canonical(z):
    """(a + b i)/d with d > 0 and gcd(a, b, d) = 1, reading back as re, im."""
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and igcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == parts(z)


def oracle_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def oracle_repr(re, im):
    return f"GR({re})" if im == 0 else f"GR({re}, {im})"


class TestGaussianRational:
    @settings(max_examples=200, deadline=None)
    @given(pairs, operands)
    def test_ring_operations(self, x, y):
        z = GaussianRational(*x)
        for got, expect in [(z + gr(y), c_add(x, as_pair(y))),
                            (gr(y) + z, c_add(x, as_pair(y))),
                            (z - gr(y), c_sub(x, as_pair(y))),
                            (gr(y) - z, c_sub(as_pair(y), x)),
                            (z * gr(y), c_mul(x, as_pair(y))),
                            (gr(y) * z, c_mul(x, as_pair(y))),
                            (-z, c_sub(C_ZERO, x)),
                            (z.conjugate(), (x[0], -x[1]))]:
            assert_canonical(got)
            assert parts(got) == expect

    @settings(max_examples=200, deadline=None)
    @given(pairs, operands)
    def test_division(self, x, y):
        z = GaussianRational(*x)
        if as_pair(y) == C_ZERO:
            with pytest.raises(ZeroDivisionError):
                z / gr(y)
        else:
            got = z / gr(y)
            assert_canonical(got)
            assert parts(got) == c_div(x, as_pair(y))
        if x == C_ZERO:
            for fail in (lambda: gr(y) / z, z.inverse, lambda: z ** -1):
                with pytest.raises(ZeroDivisionError):
                    fail()
        else:
            for got, expect in [(gr(y) / z, c_div(as_pair(y), x)),
                                (z.inverse(), c_div((Fraction(1), Fraction(0)), x))]:
                assert_canonical(got)
                assert parts(got) == expect

    @settings(max_examples=100, deadline=None)
    @given(nonzero_pairs, st.integers(-5, 5))
    def test_powers(self, x, n):
        expect = (Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            expect = c_mul(expect, x)
        if n < 0:
            expect = c_div((Fraction(1), Fraction(0)), expect)
        got = GaussianRational(*x) ** n
        assert_canonical(got)
        assert parts(got) == expect

    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_equality_and_hash_follow_the_value(self, x, y):
        z, w = GaussianRational(*x), GaussianRational(*y)
        assert (z == w) == (x == y)
        if not y == C_ZERO:
            # the same value reached through arithmetic has the same triple
            back = (z * w) / w
            assert back == z and hash(back) == hash(z)
            assert (back._a, back._b, back._d) == (z._a, z._b, z._d)

    @pytest.mark.parametrize("x, y", [
        (GaussianRational(Fraction(2, 4)), GaussianRational(Fraction(1, 2))),
        (GaussianRational(3, -2), GaussianRational(Fraction(3), Fraction(-6, 3))),
        (GaussianRational(Fraction(6, 4), Fraction(9, 6)), GaussianRational(Fraction(3, 2), Fraction(3, 2))),
        (GaussianRational(0, 0), GaussianRational(Fraction(0, 5), Fraction(0, 7))),
        (GaussianRational(Fraction(1, 3)) * 3, GaussianRational(1)),
        (GaussianRational(0, Fraction(1, 2)) + GaussianRational(0, Fraction(1, 2)),
         GaussianRational(0, 1)),
    ])
    def test_equal_values_give_equal_triples(self, x, y):
        assert_canonical(x)
        assert_canonical(y)
        assert (x._a, x._b, x._d) == (y._a, y._b, y._d)
        assert x == y and hash(x) == hash(y)

    def test_comparison_with_plain_numbers(self):
        assert GaussianRational(Fraction(4, 2)) == 2
        assert GaussianRational(Fraction(1, 2)) == Fraction(2, 4)
        assert GaussianRational(1, 1) != 1
        assert GaussianRational(1).__eq__(object()) is NotImplemented

    def test_defers_to_polynomial_and_rational_operands(self):
        x = Z1 * Z2 + 3 * Z1
        i = GaussianRational(0, 1)
        assert i * x == x * i
        r = RatFn(Z1 + 2 * ONE2, Z2 - ONE2)
        assert GaussianRational(2) * r == r * GaussianRational(2)
        assert GaussianRational(1) - r == RatFn.const(2, 1) - r
        assert GaussianRational(1) / r == RatFn.const(2, 1) / r
        with pytest.raises(TypeError):
            GaussianRational(1) + object()

    @pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (Fraction(1, 2), 2.0)])
    def test_float_parts_rejected(self, parts):
        # 0.1 would pass as its binary value 3602879701896397/2**55
        with pytest.raises(TypeError):
            GaussianRational(*parts)

    def test_zero_and_one(self):
        assert GaussianRational(Fraction(0, 3), Fraction(0, 5)).is_zero()
        assert GaussianRational(Fraction(3, 3)).is_one()
        assert not GaussianRational(Fraction(1, 3)).is_one()
        assert not GaussianRational(1, 1).is_one()

    @settings(max_examples=200, deadline=None)
    @given(pairs)
    def test_conversions(self, x):
        z = GaussianRational(*x)
        assert complex(z) == complex(float(x[0]), float(x[1]))
        assert complex(z) == float(x[0]) + 1j * float(x[1])
        assert str(z) == oracle_str(*x)
        assert repr(z) == oracle_repr(*x)
        assert type(z.re) is Fraction and type(z.im) is Fraction


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

class TestArithmetic:
    def test_mul_distributes(self):
        assert Z1 * (Z1 - Z2) == P(2, ((2, 0), 1, 0), ((1, 1), -1, 0))

    def test_partial_derivative(self):
        p = Z1 * Z1 - Z2
        assert p.partial(0) == 2 * Z1

    def test_add_identity(self):
        p = Z1 * Z2 + ONE2
        assert p + MultiPoly.zero(2) == p

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            (Z1 + Z2).partial(5)

    @pytest.mark.parametrize("exp", [(1.5, 0), (Fraction(1, 2), 1), (-1, 0), (1,)])
    def test_bad_exponent_rejected(self, exp):
        # a non-integral exponent is not truncated: (1.5, 0) and (1, 0)
        # would name one monomial
        with pytest.raises(ValueError):
            MultiPoly(2, {exp: 1, (1, 0): 1})

    def test_non_integral_nvars_rejected(self):
        # int() would read 2.5 as 2 and build z1 in two variables
        with pytest.raises(ValueError):
            MultiPoly(2.5, {(1, 0): 1})

    def test_variable_needs_integral_nvars(self):
        # a ValueError, not the TypeError of the list product [0] * 2.5
        with pytest.raises(ValueError):
            MultiPoly.variable(2.5, 0)

    @pytest.mark.parametrize("make", [MultiPoly.zero, lambda n: MultiPoly.const(n, 1),
                                      RatFn.zero], ids=["MultiPoly.zero", "MultiPoly.const",
                                                        "RatFn.zero"])
    def test_zero_and_const_need_integral_nvars(self, make):
        # zero took 2.5 as nvars; const raised the TypeError of (0,) * 2.5
        with pytest.raises(ValueError):
            make(2.5)
        assert make(2.0).nvars == 2 and type(make(2.0).nvars) is int

    @pytest.mark.parametrize("var", [-1, 2])
    @pytest.mark.parametrize("query", [
        lambda p, v: p.degree_in(v),
        lambda p, v: p.depends_on(v),
        lambda p, v: p.coeffs_in_var(v),
        lambda p, v: resultant(p, Z1 - Z2, v),
        lambda p, v: uni_divmod(p, Z1 - Z2, v),
        lambda p, v: discriminant(p, v),
        lambda p, v: content_in_var(p, v),
        lambda p, v: squarefree_decompose(p, v),
    ], ids=["degree_in", "depends_on", "coeffs_in_var", "resultant", "uni_divmod",
            "discriminant", "content_in_var", "squarefree_decompose"])
    def test_variable_index_out_of_range(self, query, var):
        # degree_in(-1) read the last variable; the others raised IndexError
        with pytest.raises(ValueError, match="out of range"):
            query(Z1 * Z1 - Z2, var)

    def test_exact_divide_roundtrip(self):
        p = (Z1 - Z2) * (Z1 + Z2) * (2 * Z1 * Z2 + ONE2)
        q = exact_divide(p, Z1 + Z2)
        assert q * (Z1 + Z2) == p

    def test_exact_divide_failure(self):
        with pytest.raises(DivisionError):
            exact_divide(Z1 * Z1 - Z2, Z1 + ONE2)


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------

class TestGcd:
    def test_difference_of_squares(self):
        assert gcd(Z1 * Z1 - Z2 * Z2, Z1 - Z2) == Z1 - Z2

    def test_with_zero(self):
        p = 3 * (Z1 - Z2)
        assert gcd(p, MultiPoly.zero(2)) == monic_grlex(p)

    def test_coprime(self):
        assert gcd(Z1, Z1 - Z2) == ONE2

    def test_gcd_matches_specialized_euclid(self):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_poly(rng)
            b = _random_poly(rng)
            common = _random_poly(rng)
            p, q = a * common, b * common
            if not (p.depends_on(0) and q.depends_on(0)):
                continue
            g = gcd(p, q)
            assert exact_divide(p, g) * g == p and exact_divide(q, g) * g == q
            # degree check against Euclid at random specializations;
            # a bad point can only raise the oracle degree, so take the min.
            degs = []
            for y in rand_points(rng, 5):
                pc, qc = specialize(p, 0, y), specialize(q, 0, y)
                if len(pc) - 1 == p.degree_in(0) and len(qc) - 1 == q.degree_in(0):
                    degs.append(euclid_gcd_degree(pc, qc))
            if degs:
                assert g.degree_in(0) == min(degs)


# ---------------------------------------------------------------------------
# full multivariate gcd: heuristic against the PRS and against sympy (QQ_I)
# ---------------------------------------------------------------------------

def qq_i_ring(nvars: int):
    return ring(",".join(f"x{i}" for i in range(nvars)), QQ_I)[0]


def to_qq_i(R, f: MultiPoly, order=None):
    """f in sympy's ring R over QQ_I, its variables taken in `order`
    (generator j of R is variable order[j] of f)."""
    order = range(f.nvars) if order is None else order
    return R({tuple(e[i] for i in order): QQ_I(QQ(c.re.numerator, c.re.denominator),
                                               QQ(c.im.numerator, c.im.denominator))
              for e, c in f.terms.items()})


def from_qq_i(g, nvars: int, order=None) -> MultiPoly:
    """Inverse of `to_qq_i`."""
    order = range(nvars) if order is None else order
    terms = {}
    for e, c in g.terms():
        exp = [0] * nvars
        for j, i in enumerate(order):
            exp[i] = e[j]
        terms[tuple(exp)] = GaussianRational(
            Fraction(int(c.x.numerator), int(c.x.denominator)),
            Fraction(int(c.y.numerator), int(c.y.denominator)))
    return MultiPoly(nvars, terms)


def sympy_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd over Q(i) computed by sympy, in the graded-lex monic form."""
    R = qq_i_ring(p.nvars)
    return monic_grlex(from_qq_i(to_qq_i(R, p).gcd(to_qq_i(R, q)), p.nvars))


def assert_gcd_agrees(p, q):
    g = gcd(p, q)
    assert g == _prs_gcd(p, q)
    assert g == sympy_gcd(p, q)
    return g


gaussian_coeffs = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7]),
).filter(lambda c: not c.is_zero())


def polys(nvars, max_terms=4):
    """Nonzero polynomials: zero operands are among the edge cases below."""
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), gaussian_coeffs,
                           min_size=1, max_size=max_terms).map(lambda t: MultiPoly(nvars, t))


@st.composite
def planted_pairs(draw):
    """(a h, b h) for random a, b and a planted common factor h."""
    nvars = draw(st.sampled_from([2, 3]))
    a, b, h = draw(polys(nvars)), draw(polys(nvars)), draw(polys(nvars, 3))
    return a * h, b * h, h


W1, W2, W3 = (MultiPoly.variable(3, i) for i in range(3))
ONE3 = MultiPoly.const(3, 1)
I2 = GaussianRational(0, 1)
SHARED = Z1 * Z1 - Fraction(2, 3) * Z2 + ONE2 * GaussianRational(Fraction(1, 5), -1)


class TestFullGcd:
    @settings(max_examples=60, deadline=None)
    @given(planted_pairs())
    def test_matches_prs_and_sympy(self, pqh):
        p, q, h = pqh
        g = assert_gcd_agrees(p, q)
        assert exact_divide(g, h) * h == g

    @pytest.mark.parametrize("p, q", [
        (MultiPoly.zero(2), MultiPoly.zero(2)),
        (MultiPoly.zero(2), 3 * SHARED),
        (SHARED, MultiPoly.zero(2)),
        (MultiPoly.const(2, GaussianRational(Fraction(3, 7), 1)), SHARED),
        (SHARED * Z2, MultiPoly.const(2, 5)),
        # one operand free of a variable
        (SHARED * (Z1 + Z2), SHARED * (Z1 * Z1 + 3 * ONE2)),
        ((Z1 - ONE2) * (Z1 + Z2), (Z1 - ONE2) * (Z1 + 2 * ONE2)),
        ((W1 + W3) * (W2 - ONE3), (W1 + W3) * W1),
        ((W2 * W3 - ONE3) * (W1 + 2 * W2), (W2 * W3 - ONE3) * (W3 + ONE3)),
        # unit multiples
        (SHARED, SHARED * I2),
        (SHARED * (Z1 - Z2), -(SHARED * I2) * (Z1 + Z2)),
        # non-trivial denominators
        (SHARED * (Fraction(1, 3) * Z1 + Fraction(2, 5) * Z2),
         SHARED * Fraction(7, 11) * (Z2 * Z2 + ONE2 * GaussianRational(0, Fraction(1, 9)))),
        # equal operands
        (SHARED * Z1 * Z2, SHARED * Z1 * Z2),
        ((W1 * W2 + W3) ** 2, (W1 * W2 + W3) ** 2),
        # one-term operands: the gcd is the monomial of the least exponents
        (3 * Z1 * Z1 * Z2, SHARED * Z1 * Z2),
        (SHARED * Z2 * Z2, Z1 * Z2 ** 3 * I2),
        (Z1 * Z2, SHARED),
        (Z1 ** 2 * Z2, Fraction(2, 5) * Z1 * Z2 ** 3),
        (Z2, Z1),
        (W1 * W3 ** 2, (W1 + W2) * W3),
        ((W1 * W2 + W3) * W2, W1 * W2 ** 2 * W3 * GaussianRational(2, -1)),
    ])
    def test_edge_cases(self, p, q):
        assert_gcd_agrees(p, q)

    def test_falls_back_when_heuristic_gives_up(self, monkeypatch):
        p, q = SHARED * (Z1 + Z2), SHARED * (Z1 - Z2 * Z2)
        calls = []

        def give_up(f, g):
            calls.append((f, g))
            return None

        monkeypatch.setattr(polynomials, "_heu_gcd", give_up)
        assert gcd(p, q) == _prs_gcd(p, q) == monic_grlex(SHARED)
        assert calls

    def test_trial_division_rejects_a_wrong_candidate(self, monkeypatch):
        # every image interpolates to z1 + 1, which divides neither operand:
        # no try is accepted and the PRS answers
        p, q = SHARED * (Z1 + Z2), SHARED * (Z1 - Z2 * Z2)
        monkeypatch.setattr(polynomials, "_zi_interpolate",
                            lambda h, var, xi: {(1, 0): (1, 0), (0, 0): (1, 0)})
        assert gcd(p, q) == monic_grlex(SHARED)


@st.composite
def monomial_pairs(draw):
    """(c x^a h, b) for random c x^a, h and b: p shares a monomial with b
    at most, and sometimes is one."""
    nvars = draw(st.sampled_from([2, 3]))
    mono = MultiPoly(nvars, {draw(st.tuples(*[st.integers(0, 3)] * nvars)):
                             draw(gaussian_coeffs)})
    h = draw(st.sampled_from([MultiPoly.const(nvars, 1), draw(polys(nvars, 3))]))
    return mono * h, draw(polys(nvars))


class TestCofactors:
    """cofactors(p, q) is (gcd(p, q), p/g, q/g) exactly, on every path."""

    @staticmethod
    def check(p, q):
        g, a, b = cofactors(p, q)
        assert g == gcd(p, q)
        assert g * a == p and g * b == q
        return g, a, b

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(planted_pairs().map(lambda pqh: pqh[:2]), monomial_pairs()))
    def test_quotients_times_gcd_give_the_operands(self, pq):
        p, q = pq
        self.check(p, q)
        self.check(q, p)

    def test_unit_content_is_not_dropped(self):
        # the Z[i] content of -z3 - 1 is the unit -1, which the heuristic
        # keeps in its primitive part
        p, q = -W3 - ONE3, W3 + ONE3
        assert self.check(p, q) == (W3 + ONE3, -ONE3, ONE3)

    def test_unit_gcd_returns_the_operands(self):
        p, q = SHARED * (Z1 + Z2), SHARED * Z1 + ONE2
        g, a, b = self.check(p, q)
        assert g == ONE2 and a is p and b is q

    def test_monomial_gcd_shifts_exponents(self):
        p, q = 3 * Z1 * Z1 * Z2, SHARED * Z1 * Z2
        assert self.check(p, q) == (Z1 * Z2, 3 * Z1, SHARED)

    def test_zero_operands(self):
        p = GaussianRational(0, 2) * SHARED
        zero = MultiPoly.zero(2)
        lc = MultiPoly.const(2, p.leading_coefficient())
        assert self.check(p, zero) == (monic_grlex(p), lc, zero)
        assert self.check(zero, p) == (monic_grlex(p), zero, lc)
        assert cofactors(zero, zero) == (zero, zero, zero)

    def test_fallback_divides(self, monkeypatch):
        monkeypatch.setattr(polynomials, "_heu_gcd", lambda f, g: None)
        p, q = SHARED * (Z1 + Z2), SHARED * (Z1 - Z2 * Z2)
        assert self.check(p, q) == (monic_grlex(SHARED), exact_divide(p, monic_grlex(SHARED)),
                                    exact_divide(q, monic_grlex(SHARED)))


def reference_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Term-by-term product in GaussianRational arithmetic (oracle); a sum
    that cancels drops its monomial, which a later term may bring back."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
    out = MultiPoly.zero(p.nvars)
    out.terms = terms
    return out


class TestMultiply:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(polys(n, 6), polys(n, 6))))
    def test_matches_term_by_term_product(self, pq):
        p, q = pq
        got, expect = p * q, reference_mul(p, q)
        assert got == expect
        assert list(got.terms) == list(expect.terms)  # same term order
        for c in got.terms.values():
            assert_canonical(c)

    def test_monomial_that_cancels_and_returns(self):
        # z1 z2 appears from z1 * z2, cancels against z2 * (-z1), and comes
        # back from z1 z2 * 1, so it moves to the end of the term order
        p, q = Z1 + Z2 + Z1 * Z2, Z2 - Z1 + ONE2
        got = p * q
        assert list(got.terms)[-1] == (1, 1)
        assert got == reference_mul(p, q)
        assert list(got.terms) == list(reference_mul(p, q).terms)

    @pytest.mark.parametrize("n", [1, 2])
    def test_defers_to_a_bump_operand(self, n):
        # zbar_n + 3 times the plain cutoff on C^n
        poly = MultiPoly.variable(2 * n, 2 * n - 1) + MultiPoly.const(2 * n, 3)
        bump = BumpFunction.from_poly(n, 2, poly, center=(GaussianRational(0),) * n)
        # an exact scalar of each kind returns NotImplemented for a bump, so
        # the bump scales itself from either side, coefficient by coefficient
        for c in (3, Fraction(-2, 5), GaussianRational(1, -2)):
            coeff = GaussianRational.from_any(c)
            assert c * bump == bump * c
            assert (c * bump).terms == [(p * coeff, m, k) for p, m, k in bump.terms]

    def test_unknown_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            Z1 * object()
        with pytest.raises(TypeError):
            object() * Z1


class TestHashFollowsEquality:
    @settings(max_examples=200, deadline=None)
    @given(operands, polys(2))
    def test_equal_values_hash_equal(self, x, p):
        # a real scalar equals its int or Fraction, and a RatFn equals the
        # polynomial or scalar it is; a set or dict of such values must
        # hold each value once
        z = gr(x) if isinstance(x, tuple) else GaussianRational.from_any(x)
        values = [x, z, z.re if not z.im else z, MultiPoly.const(2, z), RatFn.const(2, z),
                  p, RatFn(p)]
        assert RatFn.const(2, z) == z and RatFn.const(2, z) == MultiPoly.const(2, z)
        assert RatFn(p) == p
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b), (a, b)
        assert len({z, z.re}) == (1 if z.im == 0 else 2)

    @settings(max_examples=100, deadline=None)
    @given(operands, operands)
    def test_equality_is_transitive(self, x, y):
        # each value as a scalar, and as a constant MultiPoly and RatFn in 2
        # and 3 variables; a == b == c must give a == c, so a constant
        # MultiPoly equals its int as the RatFn equal to both does, and
        # constants in different numbers of variables equal each other
        def representations(v):
            z = gr(v) if isinstance(v, tuple) else GaussianRational.from_any(v)
            reals = [] if z.im else [z.re] + ([int(z.re)] if z.re.denominator == 1 else [])
            return reals + [z] + [c(n, z) for n in (2, 3) for c in (MultiPoly.const, RatFn.const)]

        values = representations(x) + representations(y)
        for a in values:
            for b in values:
                assert (a == b) == (b == a), (a, b)
                if a == b:
                    assert all(a == c for c in values if b == c), (a, b)


class TestExactDivide:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(polys(n), polys(n))))
    def test_quotient_of_a_product(self, pq):
        p, q = pq
        assert exact_divide(p * q, q) == p
        if not q.is_constant():
            # q | p q + 1 would mean q | 1
            with pytest.raises(DivisionError):
                exact_divide(p * q + MultiPoly.const(p.nvars, 1), q)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(polys(n, 6), polys(n, 5), st.integers(0, 9))))
    def test_matches_term_by_term_division(self, pqk):
        # the Z[i] trial division against the graded-lex division on
        # GaussianRationals: the same quotient, or a raise on both
        p, q, k = pqk
        if q.is_constant():
            q = q + MultiPoly.variable(q.nvars, k % q.nvars) ** (k + 1)
        prod = p * q
        got, expect = exact_divide(prod, q), reference_divide(prod, q)
        assert got == expect == p
        # a non-multiple fails where the reference fails
        other = prod + MultiPoly.variable(p.nvars, 0) ** k
        try:
            expect = reference_divide(other, q)
        except DivisionError:
            with pytest.raises(DivisionError):
                exact_divide(other, q)
        else:
            assert exact_divide(other, q) == expect

    def test_high_degrees_fill_their_fields(self):
        # divisors of total degree 15, products of total degree up to 23
        for q in (Z1 ** 7 * Z2 ** 8 + Z2 + ONE2, Z1 ** 15 + ONE2, Z2 ** 15 - Z1):
            for p in (Z1 + Z2, ONE2, Z1 ** 8 - 3 * Z2):
                got = exact_divide(p * q, q)
                assert got == reference_divide(p * q, q) == p

    @pytest.mark.parametrize("p,q", [
        (Z1 + ONE2, 2 * Z1 + 2 * ONE2),
        ((Z1 + Z2) * (Z1 + ONE2), (Z1 + ONE2) * GaussianRational(1, 1)),
        ((Z1 * Z2 + ONE2) * (Z1 + Z2), 3 * (Z1 + Z2)),
    ])
    def test_divisor_with_a_nonunit_content(self, p, q):
        # q's Z[i] numerators have content 2, 1 + i and 3, which does not
        # divide p's: the quotients 1/2, (z1 + z2)/(1 + i) and (z1 z2 + 1)/3
        # are found only once q is made primitive
        got = exact_divide(p, q)
        assert got == reference_divide(p, q)
        assert got * q == p

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
        polys(n, 5), st.tuples(*[st.integers(0, 2)] * n), gaussian_coeffs)))
    def test_one_term_divisor(self, pbc):
        # q = c x^b divides p iff no exponent of p is below b
        p, b, c = pbc
        q = MultiPoly(p.nvars, {b: c})
        try:
            expect = reference_divide(p, q)
        except DivisionError:
            assert any(i < j for e in p.terms for i, j in zip(e, b))
            with pytest.raises(DivisionError):
                exact_divide(p, q)
        else:
            assert exact_divide(p, q) == expect
            assert exact_divide(p * q, q) == p

    @pytest.mark.parametrize("p,q", [
        (Z1, Z1 * Z2),                      # larger total degree
        (Z1 ** 3, Z2 ** 4),
        (Z1 ** 3, Z2),                      # larger exponent, smaller total degree
        (Z1 ** 2 * Z2, Z2 ** 2),
        (Z1 ** 9 + Z2, Z2 ** 2 + Z1),       # the leading term divides, a later one not
        (W1 ** 4 * W3, W2 * W3 + ONE3),
        (Z1 ** 3 * Z2 + Z1, Z1 ** 2),       # a one-term q divides one term of p, not the other
    ])
    def test_non_divisor_raises(self, p, q):
        with pytest.raises(DivisionError):
            exact_divide(p, q)


def reference_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Term-by-term division by graded-lex leading terms on exponent tuples
    (oracle); the quotient keeps its terms in the order they are found."""
    def grlex(e):
        return sum(e), e

    lq = max(q.terms, key=grlex)
    rem, quot = dict(p.terms), {}
    while rem:
        lr = max(rem, key=grlex)
        diff = tuple(a - b for a, b in zip(lr, lq))
        if min(diff) < 0:
            raise DivisionError("not a divisor")
        c = rem.pop(lr) / q.terms[lq]
        quot[diff] = c
        for e, k in q.terms.items():
            if e == lq:
                continue
            m = tuple(a + b for a, b in zip(e, diff))
            s = rem.get(m, GaussianRational(0)) - c * k
            if s.is_zero():
                rem.pop(m, None)
            else:
                rem[m] = s
    out = MultiPoly.zero(p.nvars)
    out.terms = quot
    return out


class TestTrivialOperands:
    """Constant, unit and zero operands take scalar paths; each must give
    the general product's value and term order."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(polys(n, 6), gaussian_coeffs)))
    def test_constant_operand(self, pc):
        p, c = pc
        cp = MultiPoly.const(p.nvars, c)
        for got, expect in ((p * cp, reference_mul(p, cp)), (cp * p, reference_mul(cp, p))):
            assert got == expect == p * c
            assert list(got.terms) == list(expect.terms)
            for v in got.terms.values():
                assert_canonical(v)
        one = MultiPoly.const(p.nvars, 1)
        assert p * one == one * p == p * 1 == p
        if not p.is_constant():  # a product by 1 is the other operand itself
            assert p * one is p and one * p is p and p * 1 is p
        zero = MultiPoly.zero(p.nvars)
        for got in (p * zero, zero * p, p * 0, p * GaussianRational(0)):
            assert got.is_zero() and got.nvars == p.nvars

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: polys(n, 4)), st.integers(0, 5))
    def test_powers(self, p, n):
        assert p ** 0 == MultiPoly.const(p.nvars, 1)
        assert p ** 1 == p
        expect = MultiPoly.const(p.nvars, 1)
        for _ in range(n):
            expect = reference_mul(expect, p)
        assert p ** n == expect

    def test_power_of_zero(self):
        zero = MultiPoly.zero(2)
        assert zero ** 0 == ONE2
        assert (zero ** 3).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(polys(n, 6), gaussian_coeffs)))
    def test_exact_divide_by_a_constant(self, pc):
        p, c = pc
        got = exact_divide(p, MultiPoly.const(p.nvars, c))
        assert got == reference_divide(p, MultiPoly.const(p.nvars, c))
        assert got == MultiPoly(p.nvars, {e: v / c for e, v in p.terms.items()})
        assert list(got.terms) == list(p.terms)
        assert exact_divide(p, MultiPoly.const(p.nvars, 1)) is p
        with pytest.raises(ZeroDivisionError):
            exact_divide(p, MultiPoly.zero(p.nvars))


def _random_poly(rng, max_deg=2):
    terms = {}
    for e1 in range(max_deg + 1):
        for e2 in range(max_deg + 1 - e1):
            if rng.random() < 0.5:
                terms[(e1, e2)] = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
    p = MultiPoly(2, terms)
    if p.is_zero():
        return ONE2
    return p


# ---------------------------------------------------------------------------
# resultant / discriminant
# ---------------------------------------------------------------------------

@st.composite
def resultant_pairs(draw):
    """(var, p, q), deg_var p >= deg_var q >= 2, each with leading coefficient a + b z_o
    in var (z_o another variable).  p = q s + t with deg_var t <= deg_var q - 2,
    so the remainder sequence of (p, q) drops by 2 or more after q; t may be
    free of var or zero.  Some pairs share a factor h of positive degree in
    var, and then the resultant is 0."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    other = draw(st.sampled_from([i for i in range(nvars) if i != var]))
    x, zo = MultiPoly.variable(nvars, var), MultiPoly.variable(nvars, other)

    def below(d):  # a polynomial of degree < d in var
        return MultiPoly(nvars, {e: c for e, c in draw(polys(nvars, 2)).terms.items()
                                 if e[var] < d})

    def lead(d):
        a = MultiPoly.const(nvars, draw(gaussian_coeffs))
        b = draw(st.sampled_from([0, 1]))
        return (a + b * draw(gaussian_coeffs) * zo) * x ** d

    dq = draw(st.integers(2, 3))
    q = lead(dq) + below(dq)
    s = lead(draw(st.integers(0, 1))) + below(1)
    p = q * s + below(dq - 1)
    if draw(st.booleans()):
        h = x + below(1)
        p, q = p * h, q * h
    return var, p, q

class TestResultant:
    def test_linear_pair(self):
        assert resultant(Z1, Z1 - Z2, 0) == -Z2

    def test_discriminant_parabola(self):
        assert discriminant(Z1 * Z1 - Z2, 0) == 4 * Z2

    def test_discriminant_difference_of_squares(self):
        assert discriminant((Z1 - Z2) * (Z1 + Z2), 0) == 4 * Z2 * Z2

    def test_discriminant_product_with_root_zero(self):
        # roots 0 and z2: root-difference product (0 - z2)^2 = z2^2
        assert discriminant(Z1 * (Z1 - Z2), 0) == Z2 * Z2

    def test_zero_input(self):
        with pytest.raises(ZeroInputError):
            resultant(MultiPoly.zero(2), Z1, 0)

    def test_resultant_matches_sylvester_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            p, q = _random_poly(rng), _random_poly(rng)
            if not (p.depends_on(0) and q.depends_on(0)):
                continue
            r = resultant(p, q, 0)
            for y in rand_points(rng, 3):
                pc, qc = specialize(p, 0, y), specialize(q, 0, y)
                if len(pc) - 1 != p.degree_in(0) or len(qc) - 1 != q.degree_in(0):
                    continue  # specialization dropped degree; Sylvester differs
                expect = sylvester_det(pc, qc)
                got = r.eval_exact([GaussianRational(0), GaussianRational(*y[1])])
                assert (got.re, got.im) == expect

    @settings(max_examples=40, deadline=None)
    @given(resultant_pairs())
    def test_matches_sympy(self, case):
        var, p, q = case
        # sympy eliminates the first generator and returns a polynomial in
        # the others.  Its subresultant PRS (sympy 1.14,
        # dup_inner_subresultants) swaps operands of rising degree without
        # the sign (-1)^(deg p deg q), so it is asked only with deg p >= deg q
        # and the other order is checked by that sign
        rest = [i for i in range(p.nvars) if i != var]
        R = qq_i_ring(p.nvars)
        sp, sq = to_qq_i(R, p, [var] + rest), to_qq_i(R, q, [var] + rest)
        want = from_qq_i(sp.resultant(sq), p.nvars, rest)
        assert resultant(p, q, var) == want
        sign = (-1) ** (p.degree_in(var) * q.degree_in(var))
        assert resultant(q, p, var) == want * sign
        # disc q = (-1)^(d(d-1)/2) Res(q, q') / lc_var(q).  q, not p: on p
        # (up to 24 terms, degree 5) sympy took up to 100 s for one draw
        d, dq = q.degree_in(var), to_qq_i(R, q.partial(var), [var] + rest)
        want = from_qq_i(sq.resultant(dq), q.nvars, rest) * (-1) ** (d * (d - 1) // 2)
        assert discriminant(q, var) * q.leading_coefficient_in(var) == want

    def test_resultant_vanishes_iff_gcd_nontrivial(self):
        rng = random.Random(13)
        for _ in range(20):
            a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
            if not c.depends_on(0):
                c = c * Z1 + ONE2
            p, q = a * c, b * c
            if not (p.depends_on(0) and q.depends_on(0)):
                continue
            assert resultant(p, q, 0).is_zero()
            g = gcd(p, q)
            assert g.degree_in(0) > 0


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

@st.composite
def planted_squarefree(draw):
    """(var, p, planted): p = u prod f^m over planted = [(f, m)], 1 to 3
    variables, 1 to 3 factors f = a x + c of positive degree in x = z_var
    (usually squarefree and pairwise coprime), multiplicities 1 to 3 and u
    free of var.  a has degree at most 1 in each variable, which keeps
    three-variable products small: GCDHEU's cost grows fast with their
    degrees (ROADMAP item 6)."""
    nvars = draw(st.integers(1, 3))
    var = draw(st.integers(0, nvars - 1))
    x, one = MultiPoly.variable(nvars, var), MultiPoly.const(nvars, 1)
    linear = st.dictionaries(st.tuples(*[st.integers(0, 1)] * nvars), gaussian_coeffs,
                             min_size=1, max_size=2).map(lambda t: MultiPoly(nvars, t))
    planted = [(draw(linear) * x + one * draw(gaussian_coeffs), draw(st.integers(1, 3)))
               for _ in range(draw(st.integers(1, 3)))]
    u = MultiPoly(nvars, {e: c for e, c in draw(polys(nvars, 2)).terms.items() if e[var] == 0})
    p = one if u.is_zero() else u
    for f, m in planted:
        p = p * f ** m
    return var, p, planted


class TestSquarefree:
    def test_pure_square(self):
        rho = Z1 * Z1 - Z2
        out = squarefree_decompose(rho * rho, 0)
        assert out == [(rho, 2)]

    def test_product_of_simple_factors(self):
        p = Z1 * (Z1 - Z2)
        out = squarefree_decompose(p, 0)
        recombined = ONE2
        for f, m in out:
            recombined = recombined * f ** m
        assert monic_grlex(recombined) == monic_grlex(p)

    def test_squarefree_input(self):
        p = Z1 * Z1 - Z2
        assert squarefree_decompose(p, 0) == [(p, 1)]

    def test_mixed_multiplicities(self):
        rho1, rho2 = Z1 - Z2, Z1 + Z2
        p = rho1 * rho2 * rho2
        out = squarefree_decompose(p, 0)
        assert dict((m, f) for f, m in out) == {1: rho1, 2: rho2}

    @settings(max_examples=60, deadline=None)
    @given(planted_squarefree())
    def test_recombination_up_to_var_free_unit(self, case):
        var, p, planted = case
        out = squarefree_decompose(p, var)
        recombined = MultiPoly.const(p.nvars, 1)
        for f, m in out:
            recombined = recombined * f ** m
            assert not gcd(f, f.partial(var)).depends_on(var)
        assert not exact_divide(p, recombined).depends_on(var)
        assert all(not gcd(f, h).depends_on(var)
                   for i, (f, _) in enumerate(out) for h, _ in out[i + 1:])
        assert len({m for _, m in out}) == len(out)
        # the planted factors of each multiplicity, when they are pairwise
        # coprime and squarefree in var, are that multiplicity's factor
        fs = [f for f, _ in planted]
        if all(not gcd(f, f.partial(var)).depends_on(var) for f in fs) and all(
                not gcd(f, h).depends_on(var) for i, f in enumerate(fs) for h in fs[i + 1:]):
            want = {}
            for f, m in planted:
                want[m] = want.get(m, MultiPoly.const(p.nvars, 1)) * f
            assert dict((m, f) for f, m in out) == {
                m: primitive_part_in_var(f, var) for m, f in want.items()}
        if p.nvars == 1:  # against sympy's squarefree factorisation over Q(i)
            _, factors = to_qq_i(qq_i_ring(1), p).sqf_list()
            assert sorted(out, key=lambda fm: fm[1]) == sorted(
                ((monic_grlex(from_qq_i(f, 1)), m) for f, m in factors), key=lambda fm: fm[1])


# ---------------------------------------------------------------------------
# RatFn laws
# ---------------------------------------------------------------------------

def ratfns(draw):
    num = draw(st.builds(lambda s: _random_poly(random.Random(s)), st.integers(0, 10 ** 6)))
    dens = draw(st.integers(0, 10 ** 6))
    den = _random_poly(random.Random(dens))
    return RatFn(num, den)


ratfn_strategy = st.composite(ratfns)()


class TestRatFn:
    def test_normalized_invariants(self):
        f = RatFn(2 * (Z1 - Z2), 4 * (Z1 - Z2) * (Z1 + Z2))
        assert gcd(f.num, f.den).is_constant()
        assert f.den.leading_coefficient().is_one()
        assert f == RatFn(ONE2, 2 * (Z1 + Z2))

    @settings(max_examples=40, deadline=None)
    @given(ratfn_strategy, ratfn_strategy)
    def test_arithmetic_stability(self, a, b):
        # normalize(a op b) built from raw parts equals the normalized op
        raw_sum = RatFn(a.num * b.den + b.num * a.den, a.den * b.den)
        assert raw_sum == a + b
        raw_prod = RatFn(a.num * b.num, a.den * b.den)
        assert raw_prod == a * b

    @settings(max_examples=40, deadline=None)
    @given(ratfn_strategy)
    def test_normalization_idempotent(self, a):
        again = RatFn(a.num, a.den)
        assert again.num == a.num and again.den == a.den

    def test_partial_quotient_rule(self):
        f = RatFn(Z1, Z1 * Z1 - Z2)
        d = f.partial(0)
        # (1*(z1^2-z2) - z1*2z1) / (z1^2-z2)^2 = (-z1^2-z2)/(z1^2-z2)^2
        num = -(Z1 * Z1) - Z2
        assert d == RatFn(num, (Z1 * Z1 - Z2) ** 2)


@st.composite
def ratfn_pairs(draw):
    """(a, b) over 2 or 3 variables, built by `RatFn(num, den)` from
    unreduced parts: often with a factor planted between a.num and b.den,
    between the two denominators, or between the Henrici cross sum
    t = a.num (b.den/d) + b.num (a.den/d) and d = gcd(a.den, b.den); and
    among them zero, constant and non-monic operands."""
    nvars = draw(st.sampled_from([2, 3]))

    def p(terms=3):
        return draw(polys(nvars, terms))

    unit = draw(gaussian_coeffs)  # a non-monic denominator's scale
    kind = draw(st.sampled_from(["plain", "num_den", "dens", "sum", "zero", "const"]))
    if kind == "num_den":
        h = p(2)
        a, b = RatFn(p() * h, p() * unit), RatFn(p(), p() * h)
    elif kind == "dens":
        h = p(2)
        a, b = RatFn(p(), p() * h * unit), RatFn(p(), p(2) * h)
    elif kind == "sum":
        # a = x/d, b = (h k - x v)/(d v): the cross sum is h k and h | d
        h, x, k, v = p(2), p(), p(), p(2)
        d = h * p(2) * unit
        a, b = RatFn(x, d), RatFn(h * k - x * v, d * v)
    elif kind == "zero":
        a, b = RatFn(MultiPoly.zero(nvars), p()), RatFn(p(), p() * unit)
    elif kind == "const":
        a, b = RatFn(MultiPoly.const(nvars, unit)), RatFn(p(), p() * unit)
    else:
        a, b = RatFn(p(), p() * unit), RatFn(p(), p())
    return (b, a) if draw(st.booleans()) else (a, b)


def assert_same(got: RatFn, expect: RatFn):
    assert got.num == expect.num and got.den == expect.den, (got, expect)


class TestRatFnArithmetic:
    """Each operator against `RatFn(num, den)` of the textbook formula, so
    that the gcd-free and cross-cancelled paths must give the one canonical
    representative the full normalisation gives."""

    @settings(max_examples=150, deadline=None)
    @given(ratfn_pairs())
    def test_binary_operators(self, ab):
        a, b = ab
        assert_same(a + b, RatFn(a.num * b.den + b.num * a.den, a.den * b.den))
        assert_same(a - b, RatFn(a.num * b.den - b.num * a.den, a.den * b.den))
        assert_same(a * b, RatFn(a.num * b.num, a.den * b.den))
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert_same(a / b, RatFn(a.num * b.den, a.den * b.num))

    @settings(max_examples=80, deadline=None)
    @given(ratfn_pairs().map(lambda ab: ab[0]), st.integers(-3, 3), gaussian_coeffs)
    def test_unary_operators(self, a, n, c):
        assert_same(-a, RatFn(-a.num, a.den))
        assert_same(a * c, RatFn(a.num * c, a.den))
        assert_same(c * a, RatFn(a.num * c, a.den))
        assert_same(a / c, RatFn(a.num, a.den * c))
        assert_same(a * GaussianRational(0), RatFn.zero(a.nvars))
        for var in range(a.nvars):
            assert_same(a.partial(var), RatFn(a.num.partial(var) * a.den
                                              - a.num * a.den.partial(var), a.den * a.den))
        if n >= 0:
            assert_same(a ** n, RatFn(a.num ** n, a.den ** n))
        elif a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a ** n
        else:
            assert_same(a ** n, RatFn(a.den ** -n, a.num ** -n))

    def test_planted_factors_cancel(self):
        h = Z1 * Z1 - Z2
        a, b = RatFn(Z1 * h, Z2 + ONE2), RatFn(Z2 + ONE2, 3 * h * (Z1 + Z2))
        assert_same(a * b, RatFn(Z1, 3 * (Z1 + Z2)))
        # the cross sum of z1/h and (h - z1)/h is h itself
        assert_same(RatFn(Z1, h) + RatFn(h - Z1, h), RatFn.one(2))
        assert_same(RatFn(Z1, h) - RatFn(Z1, h), RatFn.zero(2))


@st.composite
def repeated_factor_ratfns(draw):
    """(f, var): f = num / (u a^i b^j c) with a depending on z_var, b free of
    it, c random and u a non-monic unit; num sometimes shares b or a."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    x = MultiPoly.variable(nvars, var)
    # the draw may cancel x^k, leaving a zero or var-free a
    a = draw(polys(nvars, 3)) + x ** draw(st.integers(1, 2))
    assume(a.depends_on(var))
    b = MultiPoly(nvars, {e[:var] + (0,) + e[var + 1:]: c
                          for e, c in draw(polys(nvars, 3)).terms.items()})
    if b.is_constant():
        b = b + MultiPoly.variable(nvars, (var + 1) % nvars)
    c = draw(polys(nvars, 2))
    i, j = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    shared = draw(st.sampled_from(["none", "a", "b"]))
    num = draw(polys(nvars, 3)) * {"a": a, "b": b}.get(shared, MultiPoly.const(nvars, 1))
    den = a ** i * b ** j * c * draw(gaussian_coeffs)
    return RatFn(num, den), var


class TestRatFnPartial:
    """`RatFn.partial` cancels only gcd(T, den), see its docstring; it must
    give the canonical form of the unreduced quotient rule."""

    @settings(max_examples=50, deadline=None)
    @given(repeated_factor_ratfns())
    def test_matches_unreduced_quotient_rule(self, fv):
        # got equals T/den^2 and is canonical: num and den coprime, den
        # monic, and den = 1 at zero.  The canonical form is unique, so this
        # is assert_same against RatFn(T, den^2) without normalising the
        # larger pair.
        f, var = fv
        for v in sorted({var, (var + 1) % f.nvars}):
            got = f.partial(v)
            t = f.num.partial(v) * f.den - f.num * f.den.partial(v)
            assert got.num * (f.den * f.den) == t * got.den
            assert gcd(got.num, got.den).is_constant()
            assert got.den.leading_coefficient().is_one()
            if got.num.is_zero():
                assert got.den == MultiPoly.const(f.nvars, 1)

    def test_var_free_factor_cancels(self):
        # (z1 + z2)/(z1 z2) = 1/z2 + 1/z1
        f = RatFn(Z1 + Z2, Z1 * Z2)
        assert_same(f.partial(0), RatFn(-ONE2, Z1 * Z1))
        assert_same(f.partial(1), RatFn(-ONE2, Z2 * Z2))

    def test_repeated_factor_and_var_free_numerator(self):
        # d/dz1 of z2/(z1 - z2)^3 = -3 z2/(z1 - z2)^4; z2/z1 has no z2 pole
        assert_same(RatFn(Z2, (Z1 - Z2) ** 3).partial(0),
                    RatFn(-3 * Z2, (Z1 - Z2) ** 4))
        assert_same(RatFn(Z2, Z1).partial(1), RatFn(ONE2, Z1))
        assert RatFn(Z1, Z2 * Z2).partial(1) == RatFn(-2 * Z1, Z2 ** 3)
        assert RatFn(ONE2, Z2 + ONE2).partial(0).is_zero()

    def test_variable_the_denominator_lacks(self):
        # d/dz2 of (-i z2 z3 - i)/z3 = -i: the denominator's derivative is
        # 0, so gcd(den, 0) = den and den/g = 1
        i = GaussianRational(0, 1)
        f = RatFn(-i * W2 * W3 - i * ONE3, W3)
        assert_same(f.partial(1), RatFn.const(3, -i))


# ---------------------------------------------------------------------------
# univariate kernel: pseudo-division and modular inverses in one variable
# ---------------------------------------------------------------------------

@st.composite
def in_var(draw, max_terms=4):
    """(nvars, var, p, q): random p and a q of positive degree in `var`
    whose leading coefficient in `var` is a random polynomial, so q is
    usually not monic."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    x = MultiPoly.variable(nvars, var)
    p = draw(polys(nvars, max_terms))
    q = draw(polys(nvars, max_terms)) + draw(polys(nvars, 2)) * x ** draw(st.integers(1, 3))
    return nvars, var, p, q


class TestUnivariateKernel:
    @settings(max_examples=60, deadline=None)
    @given(in_var())
    def test_pseudo_division(self, case):
        _, var, p, q = case
        if q.is_zero():
            return
        l, quot, rem = uni_divmod(p, q, var)
        assert l * p == quot * q + rem
        assert rem.degree_in(var) < q.degree_in(var)
        dp, dq = p.degree_in(var), q.degree_in(var)
        assert l == q.leading_coefficient_in(var) ** max(dp - dq + 1, 0)

    @settings(max_examples=40, deadline=None)
    @given(in_var(3))
    def test_mod_inverse(self, case):
        _, var, a, m = case
        if not m.depends_on(var):
            return
        if gcd(a, m).depends_on(var):
            with pytest.raises(DivisionError):
                uni_mod_inverse(a, m, var)
            return
        s, d = uni_mod_inverse(a, m, var)
        assert not d.is_zero() and not d.depends_on(var)
        assert s.degree_in(var) < m.degree_in(var)
        assert uni_divmod(s * a - d, m, var)[2].is_zero()

    @settings(max_examples=30, deadline=None)
    @given(in_var(3), st.data())
    def test_common_factor_raises(self, case, data):
        nvars, var, a, m = case
        h = data.draw(polys(nvars, 2)) + MultiPoly.variable(nvars, var)
        if not h.depends_on(var):
            return
        with pytest.raises(DivisionError):
            uni_mod_inverse(a * h, m * h, var)


@st.composite
def digit_cases(draw):
    """(var, num, den, rho, m): rho = (y + c) x^d + lower terms in x = z_var,
    so its leading coefficient in `var` is not constant, as skew_sq's are."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    x = MultiPoly.variable(nvars, var)
    y = MultiPoly.variable(nvars, (var + 1) % nvars)
    d = draw(st.integers(1, 2))
    low = MultiPoly(nvars, {e: c for e, c in draw(polys(nvars, 3)).terms.items()
                            if e[var] < d})
    rho = (y + MultiPoly.const(nvars, draw(gaussian_coeffs))) * x ** d + low
    num, den = draw(polys(nvars, 3)), draw(polys(nvars, 3))
    return var, num, den, rho, draw(st.integers(1, 3))


@st.composite
def non_monic_digit_cases(draw):
    """(var, num, den, rho, m): lc_var(rho) = a + b z_o depends on another
    variable z_o, den = f1^e1 f2^e2 for two other factors, m <= 4.  The
    coefficient of var^0 in rho and the f is a nonzero constant, so each
    is primitive in var and rho^m divides, in the polynomial ring, whatever
    it divides over the function field (Gauss's lemma)."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    other = draw(st.sampled_from([i for i in range(nvars) if i != var]))
    x, zo = MultiPoly.variable(nvars, var), MultiPoly.variable(nvars, other)

    def factor(d, lead):
        mid = MultiPoly(nvars, {e: c for e, c in draw(polys(nvars, 2)).terms.items()
                                if 0 < e[var] < d})
        return lead * x ** d + mid + MultiPoly.const(nvars, draw(gaussian_coeffs))

    lc = MultiPoly.const(nvars, draw(gaussian_coeffs)) + draw(gaussian_coeffs) * zo
    d = draw(st.integers(1, 2))
    rho = factor(d, lc)
    f1 = factor(1, MultiPoly.const(nvars, 1))
    f2 = factor(draw(st.integers(1, 2)), zo + MultiPoly.const(nvars, draw(gaussian_coeffs)))
    den = f1 ** draw(st.integers(1, 2)) * f2 ** draw(st.integers(1, 2))
    # m = 4 with deg_var rho = 2 in three variables takes seconds per draw
    return var, draw(polys(nvars, 3)), den, rho, draw(st.integers(1, 4 if d == 1 else 3))


SZ = symbols("z")


def to_sympy_number(c: GaussianRational):
    return Rational(c.re.numerator, c.re.denominator) \
        + I * Rational(c.im.numerator, c.im.denominator)


def sympy_principal_part(num, den, p, k):
    """[a_-1, ..., a_-k] of num/den at z = p, read off sympy's partial
    fractions: the term c/(u z - u p)^mu gives a_-mu = c/u^mu.  apart's
    default method splits these denominators over Q or Q(i); full=True
    took 16 s and more for one k = 5 input on a 2-vCPU VM."""
    out = [0] * k
    for term in Add.make_args(apart(num / den, SZ)):
        n, d = term.as_numer_denom()
        if d.subs(SZ, p) != 0:
            continue
        dp = Poly(d, SZ)
        mu = dp.degree()
        assert not n.has(SZ) and dp == Poly(dp.LC() * (SZ - p) ** mu, SZ)
        out[mu - 1] += n / dp.LC()
    return out


# (pole, numerator, denominator without the pole), coefficients low degree first
APART_INPUTS = [
    (GaussianRational(Fraction(1, 3)), [1], [1, 0, 1]),
    (GaussianRational(Fraction(-5, 2)), [Fraction(1, 2), -3, 0, 0, 1], [-2, -5, 3]),
    (GaussianRational(Fraction(2, 7), Fraction(1, 5)), [5, GaussianRational(0, -2), 0, 1],
     [GaussianRational(0, -6), GaussianRational(-4, 3), 2]),
]


class TestUniDigits:
    """`uni_digits` against the definition of the rho-adic expansion, and in
    one variable, with dim1's Taylor shift, against sympy's partial fractions."""

    @settings(max_examples=40, deadline=None)
    @given(digit_cases())
    def test_expansion(self, case):
        var, num, den, rho, m = case
        if gcd(den, rho).depends_on(var):
            with pytest.raises(DivisionError):
                uni_digits(num, den, rho, m, var)
            return
        digits = uni_digits(num, den, rho, m, var)
        assert len(digits) == m
        total = RatFn.zero(num.nvars)
        for mu, c in enumerate(digits, 1):
            assert c.num.degree_in(var) < rho.degree_in(var)
            assert not c.den.depends_on(var)
            total = total + c * RatFn(rho ** (m - mu))
        # den * total - num == 0 (mod rho^m), times total's var-free denominator
        assert uni_divmod(den * total.num - num * total.den, rho ** m, var)[2].is_zero()

    @settings(max_examples=30, deadline=None)
    @given(non_monic_digit_cases())
    def test_non_monic_digits_canonical_and_exact(self, case):
        # with a non-constant lc_var(rho), every pseudo-division multiplier
        # is a power of it; an exponent off by one changes the digits' value
        # by a factor that pseudo-remainders would hide, so the check
        # divides exactly
        var, num, den, rho, m = case
        assume(not gcd(den, rho).depends_on(var))
        digits = uni_digits(num, den, rho, m, var)
        common = MultiPoly.const(num.nvars, 1)
        for c in digits:
            assert c == RatFn(c.num, c.den)
            common = common * c.den
        total = MultiPoly.zero(num.nvars)
        for c in digits:  # Horner's rule: sum_mu c_mu rho^(m - mu), times common
            total = total * rho + c.num * exact_divide(common, c.den)
        exact_divide(num * common - den * total, rho ** m)  # DivisionError unless exact

    @settings(max_examples=30, deadline=None)
    @given(digit_cases(), st.data())
    def test_common_factor_raises(self, case, data):
        var, num, den, rho, m = case
        nvars = num.nvars
        h = MultiPoly.variable(nvars, var) + MultiPoly(nvars, {
            e: c for e, c in data.draw(polys(nvars, 2)).terms.items() if e[var] == 0})
        with pytest.raises(DivisionError):
            uni_digits(num, den * h, rho * h, m, var)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pole,num,rest", APART_INPUTS)
    def test_laurent_digits_match_sympy_apart(self, pole, num, rest, k):
        # the Laurent coefficients at p of num / (rest (z - p)^k) two ways:
        # as the (z - p)-adic digits of num/rest, which the partial fractions
        # and normal forms take for a general rho, and by dim1's Taylor shift
        # at the pole, which laurent_parts uses.  Multiplicities above 2 are
        # out of find_rational_roots' reach, so both are checked here, on
        # planted poles, rather than through laurent_parts
        z = MultiPoly.variable(1, 0)
        lin = z - MultiPoly.const(1, pole)
        num_p, rest_p = (MultiPoly(1, {(i,): GaussianRational.from_any(c)
                                       for i, c in enumerate(cs)}) for cs in (num, rest))
        digits = uni_digits(num_p, rest_p, lin, k, 0)
        assert all(c.is_constant() for c in digits)
        shifted = principal_part(num_p, rest_p * lin ** k, pole, k)
        p = to_sympy_number(pole)
        num_s, rest_s = (sum(to_sympy_number(GaussianRational.from_any(c)) * SZ ** i
                             for i, c in enumerate(cs)) for cs in (num, rest))
        want = [expand(w) for w in sympy_principal_part(num_s, rest_s * (SZ - p) ** k, p, k)]
        assert [to_sympy_number(c.constant_value()) for c in digits] == want
        assert [to_sympy_number(c) for c in shifted] == want


# ---------------------------------------------------------------------------
# evaluation: Horner's rule against the term-by-term sum
# ---------------------------------------------------------------------------

def term_by_term(p: MultiPoly, point) -> GaussianRational:
    """sum c * prod x_i^e_i, one term at a time (oracle)."""
    acc = GaussianRational(0)
    for exp, c in p.terms.items():
        v = c
        for x, e in zip(point, exp):
            for _ in range(e):
                v = v * x
        acc = acc + v
    return acc


def dense_polys(nvars):
    """Polynomials of degree <= 6 in each variable, the zero one included."""
    return st.dictionaries(st.tuples(*[st.integers(0, 6)] * nvars), gaussian_coeffs,
                           max_size=8).map(lambda t: MultiPoly(nvars, t))


gaussian_points = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-7, 7), st.integers(-7, 7), st.sampled_from([1, 2, 3, 5, 7]))
# |re| + |im| <= 1, so that no term outweighs the value by much and 1e-12
# bounds the rounding, not a cancellation
unit_points = st.sampled_from([1, 2, 3, 5, 7]).flatmap(
    lambda den: st.integers(-den, den).flatmap(
        lambda re: st.integers(abs(re) - den, den - abs(re)).map(
            lambda im: GaussianRational(Fraction(re, den), Fraction(im, den)))))


def poly_and_points(points, count):
    return st.sampled_from([1, 2, 3]).flatmap(lambda n: st.tuples(
        dense_polys(n), st.lists(st.lists(points, min_size=n, max_size=n),
                                 min_size=count, max_size=count)))


class TestEvalExact:
    @settings(max_examples=80, deadline=None)
    @given(poly_and_points(gaussian_points, 3))
    def test_matches_term_by_term_sum(self, case):
        p, pts = case
        for pt in pts:
            got = p.eval_exact(pt)
            assert got == term_by_term(p, pt)
            assert_canonical(got)

    def test_zero_polynomial(self):
        assert MultiPoly.zero(2).eval_exact([GaussianRational(1, 2), 3]) == 0


class TestShiftVar:
    @settings(max_examples=80, deadline=None)
    @given(poly_and_points(gaussian_points, 2), gaussian_points, st.data())
    def test_substitutes_and_inverts(self, case, a, data):
        p, pts = case
        v = data.draw(st.integers(0, p.nvars - 1))
        shifted = p.shift_var(v, a)
        for pt in pts:
            moved = list(pt)
            moved[v] = moved[v] + a
            assert shifted.eval_exact(pt) == p.eval_exact(moved)
        assert shifted.shift_var(v, -a) == p

    @pytest.mark.parametrize("var", [2, -1])
    def test_variable_out_of_range(self, var):
        # coeffs_in_var would read -1 as the last variable
        with pytest.raises(ValueError):
            (Z1 * Z1 - Z2).shift_var(var, 1)


class TestEvalNumeric:
    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=80, deadline=None)
    @given(poly_and_points(unit_points, 6))
    def test_matches_exact_value_in_every_shape(self, case):
        p, pts = case
        n = p.nvars
        want = [complex(p.eval_exact(pt)) for pt in pts]
        grid = np.array([[complex(x) for x in pt] for pt in pts])
        for shape in ((), (6,), (2, 3)):
            points = grid.reshape(shape + (n,)) if shape else grid[0]
            got = p.eval_numeric(points)
            assert isinstance(got, np.ndarray) and got.dtype == complex
            assert got.shape == shape
            for g, w in zip(got.reshape(-1), want if shape else want[:1]):
                self.assert_close(g, w)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(lambda n: st.tuples(
        dense_polys(n), polys(n), polys(n),
        st.lists(st.lists(unit_points, min_size=n, max_size=n), min_size=6, max_size=6))))
    def test_a_point_is_evaluated_alone(self, case):
        # bit for bit: each entry of a (2, 3) result equals its point's value
        # from a call with that point alone, for MultiPoly and for RatFn
        p, num, den, pts = case
        assume(not any(den.eval_exact(pt).is_zero() for pt in pts))
        grid = np.array([[complex(x) for x in pt] for pt in pts]).reshape(2, 3, p.nvars)
        for f in (p, RatFn(num, den)):
            got = f.eval_numeric(grid)
            assert got.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                assert got[idx] == f.eval_numeric(grid[idx])

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_and_constant_have_the_points_shape(self, n, shape):
        points = np.full(shape + (n,), 0.5 - 0.25j)
        c = GaussianRational(Fraction(2, 3), -1)
        for p, value in ((MultiPoly.zero(n), 0j), (MultiPoly.const(n, c), complex(c))):
            got = p.eval_numeric(points)
            assert isinstance(got, np.ndarray) and got.dtype == complex
            assert got.shape == shape
            assert np.all(got == value)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Z1.eval_numeric(np.zeros((4, 3), dtype=complex))
