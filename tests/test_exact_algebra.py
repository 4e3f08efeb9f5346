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

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.rings import ring

from residuum import polynomials
from residuum.errors import DivisionError, ZeroInputError
from residuum.polynomials import (
    MultiPoly,
    _prs_gcd,
    discriminant,
    divides,
    exact_divide,
    gcd,
    gcd_in_var,
    monic_grlex,
    resultant,
    squarefree_decompose,
)
from residuum.ratfn import RatFn
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

    def test_zero_and_one(self):
        assert GaussianRational(Fraction(0, 3), Fraction(0, 5)).is_zero()
        assert GaussianRational(Fraction(3, 3)).is_one()
        assert not GaussianRational(Fraction(1, 3)).is_one()
        assert not GaussianRational(1, 1).is_one()
        assert GaussianRational(Fraction(1, 3)).is_real()

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
        assert gcd_in_var(Z1 * Z1 - Z2 * Z2, Z1 - Z2, 0) == Z1 - Z2

    def test_with_zero(self):
        p = 3 * (Z1 - Z2)
        assert gcd_in_var(p, MultiPoly.zero(2), 0) == monic_grlex(p)

    def test_coprime(self):
        assert gcd_in_var(Z1, Z1 - Z2, 0) == ONE2

    def test_gcd_matches_specialized_euclid(self):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_poly(rng)
            b = _random_poly(rng)
            common = _random_poly(rng)
            p, q = a * common, b * common
            if not (p.depends_on(0) and q.depends_on(0)):
                continue
            g = gcd_in_var(p, q, 0)
            assert divides(g, p) or not g.depends_on(0)
            assert divides(g, q) or not g.depends_on(0)
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

def sympy_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd over Q(i) computed by sympy, in the graded-lex monic form."""
    R = ring(",".join(f"x{i}" for i in range(p.nvars)), QQ_I)[0]

    def to_sympy(f):
        return R({e: QQ_I(QQ(c.re.numerator, c.re.denominator),
                          QQ(c.im.numerator, c.im.denominator))
                  for e, c in f.terms.items()})

    g = to_sympy(p).gcd(to_sympy(q))
    return monic_grlex(MultiPoly(p.nvars, {
        e: GaussianRational(Fraction(int(c.x.numerator), int(c.x.denominator)),
                            Fraction(int(c.y.numerator), int(c.y.denominator)))
        for e, c in g.terms()}))


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
        assert divides(h, assert_gcd_agrees(p, q))

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
            g = gcd_in_var(p, q, 0)
            assert g.degree_in(0) > 0


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

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

    def test_recombination_up_to_var_free_unit(self):
        rng = random.Random(17)
        for _ in range(15):
            f1, f2 = _random_poly(rng, 1), _random_poly(rng, 1)
            if not (f1.depends_on(0) and f2.depends_on(0)):
                continue
            m1, m2 = rng.randint(1, 3), rng.randint(1, 2)
            p = f1 ** m1 * f2 ** m2
            out = squarefree_decompose(p, 0)
            recombined = ONE2
            for f, m in out:
                recombined = recombined * f ** m
            # p / recombined must be free of the variable
            q = gcd_in_var(p, recombined, 0)
            assert q.degree_in(0) == recombined.degree_in(0)
            assert recombined.degree_in(0) == p.degree_in(0) or \
                gcd(f1, f2).depends_on(0)


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
