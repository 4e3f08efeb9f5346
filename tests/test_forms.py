"""Exterior algebra and bump-coefficient test forms."""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residuum.bump import BumpFunction, embed_holomorphic
from residuum.forms import MeroForm, TestForm, merge_indices
from residuum.polynomials import MultiPoly, _horner_numeric
from residuum.ratfn import RatFn
from residuum.scalars import GaussianRational

Z1 = MultiPoly.variable(2, 0)
Z2 = MultiPoly.variable(2, 1)
DZ1 = MeroForm.dz(2, 0)
DZ2 = MeroForm.dz(2, 1)


def rand_ratfn(rng):
    def poly():
        terms = {}
        for e1 in range(2):
            for e2 in range(2):
                if rng.random() < 0.6:
                    terms[(e1, e2)] = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
        p = MultiPoly(2, terms)
        return p if not p.is_zero() else MultiPoly.const(2, 1)
    return RatFn(poly(), poly())


def rand_meroform(rng, degree):
    coeffs = {}
    idx_sets = {0: [()], 1: [(0,), (1,)], 2: [(0, 1)]}[degree]
    for idx in idx_sets:
        if rng.random() < 0.8:
            coeffs[idx] = rand_ratfn(rng)
    return MeroForm(2, degree, coeffs)


class TestWedge:
    def test_anticommutative(self):
        assert DZ1.wedge(DZ2) == -(DZ2.wedge(DZ1))

    def test_square_zero(self):
        assert DZ1.wedge(DZ1).is_zero()

    def test_collect(self):
        a = DZ1.scale(RatFn(2 * Z1)) - DZ2
        assert a.wedge(DZ1) == DZ1.wedge(DZ2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_associative_and_graded(self, seed, d1, d2, d3):
        rng = random.Random(seed)
        a, b, c = rand_meroform(rng, d1), rand_meroform(rng, d2), rand_meroform(rng, d3)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        sign = GaussianRational((-1) ** (d1 * d2))
        lhs = a.wedge(b)
        rhs = b.wedge(a).map_coeffs(lambda f: f * sign)
        assert lhs == rhs


class TestSum:
    @pytest.mark.parametrize("zero, other", [(MeroForm.zero(2, 1), MeroForm.dz(3, 0)),
                                             (MeroForm.zero(2, 0), DZ1)],
                             ids=["nvars", "degree"])
    def test_zero_of_another_type_is_rejected(self, zero, other):
        # a zero form keeps its type: the sum does not return the other operand
        with pytest.raises(ValueError):
            zero + other
        with pytest.raises(ValueError):
            other + zero


class TestMeroForm:
    @pytest.mark.parametrize("nvars, degree, key", [(2, 1, (0.5,)), (2, 1.5, (0,)),
                                                    (2.5, 1, (0,)), (2, 1, (Fraction(1, 2),))])
    def test_constructor_rejects_non_integral_values(self, nvars, degree, key):
        # int() would read (0.5,) as (0,), so f*dz1
        with pytest.raises(ValueError):
            MeroForm(nvars, degree, {key: RatFn(Z1)})


class TestExteriorD:
    def test_d_of_z1_dz2(self):
        form = DZ2.scale(RatFn(Z1))
        assert form.exterior_d() == DZ1.wedge(DZ2)

    def test_dlog_closed(self):
        f = Z1 * Z1 - Z2
        dlog = MeroForm.d_of_poly(f).scale(RatFn(MultiPoly.const(2, 1), f))
        assert dlog.exterior_d().is_zero()

    def test_leibniz_with_dlog(self):
        rho = Z1 * Z1 - Z2
        dlog = MeroForm.d_of_poly(rho).scale(RatFn(MultiPoly.const(2, 1), rho))
        rng = random.Random(3)
        a = rand_meroform(rng, 0)
        lhs = dlog.wedge(a).exterior_d()
        rhs = -dlog.wedge(a.exterior_d()) if False else dlog.wedge(a.exterior_d()).map_coeffs(
            lambda f: f * GaussianRational(-1))
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 1))
    def test_dd_zero(self, seed, degree):
        form = rand_meroform(random.Random(seed), degree)
        assert form.exterior_d().exterior_d().is_zero()


class TestContract:
    def test_basic(self):
        assert DZ1.wedge(DZ2).contract(0) == DZ2

    def test_missing_variable(self):
        assert DZ2.contract(0).is_zero()

    def test_scalar_result(self):
        a = DZ1.scale(RatFn(2 * Z1)) - DZ2
        out = a.contract(1)
        assert out == MeroForm.function(RatFn.const(2, -1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_contract_twice_zero(self, seed, degree):
        form = rand_meroform(random.Random(seed), degree)
        assert form.contract(0).contract(0).is_zero()


# ---------------------------------------------------------------------------
# bump algebra
# ---------------------------------------------------------------------------

def central_diff(b, z0, var, conjugate, h=1e-5):
    """4th-order central difference of d/dz or d/dzbar at z0 (nvars=2)."""

    def f(z):
        return complex(b.eval_numeric(np.array(z)))

    e = np.zeros(2, dtype=complex)
    e[var] = 1.0
    z0 = np.array(z0, dtype=complex)

    def diff(direction):
        vals = [f(z0 + k * direction) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    dx = diff(h * e)
    dy = diff(1j * h * e)
    if conjugate:
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)


class TestBump:
    def setup_method(self):
        poly = embed_holomorphic(Z1 * Z1 + 2 * Z2) + MultiPoly.variable(4, 2)  # z1^2+2z2+zbar1
        self.b = BumpFunction.from_poly(2, Fraction(2), poly)

    @pytest.mark.parametrize("m, c", [(0.5, 1.9), (1, 1.5), (Fraction(3, 2), 1)])
    def test_constructor_rejects_non_integral_exponents(self, m, c):
        # int() would read (0.5, 1.9) as (0, 1)
        with pytest.raises(ValueError):
            BumpFunction(2, Fraction(2), [(MultiPoly.const(4, 1), m, c)], None)

    def test_constructor_rejects_non_integral_nvars(self):
        # int() would read 1.5 as 1 and build a bump in one variable
        with pytest.raises(ValueError):
            BumpFunction(1.5, 2, [(MultiPoly.const(2, 1), 0, 1)], None)

    def test_float_radius_rejected(self):
        # 0.1 would pass as its binary value 3602879701896397/2**55
        with pytest.raises(TypeError):
            BumpFunction.radial(1, 0.1)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.8, 0.8, size=(10, 2)) + 1j * rng.uniform(-0.8, 0.8, size=(10, 2))
        for var in (0, 1):
            for conj in (False, True):
                db = self.b.derivative(var, conj)
                for z0 in pts:
                    want = central_diff(self.b, z0, var, conj)
                    got = complex(db.eval_numeric(z0))
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_zero_outside_support(self):
        db = self.b.dz(0).dzbar(1)
        far = np.array([[2.1, 0.0], [1.9, 1.2], [0.0, 2.0]], dtype=complex)
        assert np.all(db.eval_numeric(far) == 0)

    def test_mixed_partials_commute(self):
        one = self.b.dz(0).dzbar(0)
        two = self.b.dzbar(0).dz(0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.9, 0.9, size=(20, 2)) + 1j * rng.uniform(-0.9, 0.9, size=(20, 2))
        np.testing.assert_allclose(one.eval_numeric(pts), two.eval_numeric(pts), rtol=1e-12)

    def test_antiholomorphic_chain_term(self):
        # purely holomorphic polynomial x cutoff: dzbar_j only hits the cutoff,
        # producing the z_j/R^2 chain factor
        b = BumpFunction.from_poly(2, Fraction(2), embed_holomorphic(Z1))
        db = b.dzbar(0)
        z = np.array([0.3 + 0.1j, -0.2j])
        t = (abs(z[0]) ** 2 + abs(z[1]) ** 2) / 4.0
        u = 1.0 - t
        chi = np.exp(-1.0 / u)
        want = z[0] * (-1.0 / u ** 2) * (z[0] / 4.0) * chi
        assert complex(db.eval_numeric(z)) == pytest.approx(complex(want), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_mpmath_formula(self, n):
        # off-centre support with a centre and radius exact in binary, so
        # that points exactly on t = 1 exist in floating point
        center = (GaussianRational(Fraction(1, 2), Fraction(1, 4)),
                  GaussianRational(Fraction(-3, 4), Fraction(1, 2)))[:n]
        rng = random.Random(n)

        def poly():
            terms = {tuple(rng.randint(0, 2) for _ in range(2 * n)):
                     GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                      Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                     for _ in range(4)}
            return MultiPoly(2 * n, terms) + MultiPoly.const(2 * n, 1)

        b = BumpFunction(n, Fraction(2), [(poly(), 0, 1), (poly(), 2, 1), (poly(), 1, 3)],
                         center=center)
        a = np.array([complex(c) for c in center])
        unit = np.eye(n)[0]
        inside = [a, a + 0.3 + 0.2j, a - 1.1j * unit, a + (0.9 - 0.7j) * np.ones(n) / n,
                  a + 1.9 * unit]
        edge = [a + (2 - 1e-7) * unit, a - 2j * (1 - 3e-7) * unit]
        on = [a + 2 * unit, a - 2j * unit]
        outside = [a + (2 + 1e-12) * unit, a + 2.5 * np.ones(n), a + 40j * unit]
        pts = np.array(inside + edge + on + outside)
        for bump in (b, b.dz(0), b.dzbar(n - 1), b.dz(0).dzbar(0)):
            got = bump.eval_numeric(pts)
            for z, value in zip(pts, got):
                want, scale = mp_bump(bump, z)
                if scale == 0:
                    assert value == 0
                else:
                    # rounding is relative to the sum of |term|s; a value
                    # under the smallest double (near t = 1) reads 0
                    assert abs(value - complex(want)) <= 1e-12 * scale + 1e-300
            assert np.all(got[len(inside) + len(edge):] == 0)

    @pytest.mark.parametrize("center", [GaussianRational(0),
                                        GaussianRational(Fraction(1, 2), Fraction(1, 3))])
    def test_grid_across_the_support_edge(self, center):
        # a grid straddling the support circle: each point's value is the one
        # it has on its own, and points outside the support read exactly 0
        poly = MultiPoly(2, {(2, 1): GaussianRational(1, -2), (0, 2): GaussianRational(3),
                             (1, 0): GaussianRational(0, 1)})
        b = BumpFunction.from_poly(1, Fraction(3, 2), poly, center=(center,)).dzbar(0)
        a = complex(center)
        xs = np.linspace(-1.8, 1.8, 13)
        grid = (a + xs[:, None] + 1j * xs[None, :])[..., None]
        got = b.eval_numeric(grid)
        assert got.shape == (13, 13)
        outside = np.abs(grid[..., 0] - a) >= 1.5
        assert outside.any() and not outside.all()
        assert np.all(got[outside] == 0)
        for z, value in zip(grid.reshape(-1), got.reshape(-1)):
            assert complex(b.eval_numeric(np.array([z]))) == value
        z = grid[6, 7, 0]
        assert b.eval_numeric(z).shape == ()
        assert b.eval_numeric(np.array([z])).shape == ()
        assert b.eval_numeric(np.array([[z]])).shape == (1,)
        assert complex(b.eval_numeric(z)) == got[6, 7]


def reference_eval(b, points):
    """`BumpFunction.eval_numeric` with one path for every grid: points
    inside the support copied out through a mask and their values scattered
    into zeros, t by `np.sum` over the last axis, log(1 - t) always taken."""
    pts = np.asarray(points, dtype=complex)
    if b.nvars == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., np.newaxis]
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, b.nvars)
    rel = pts - np.array([complex(c) for c in b.center])
    t = np.sum((rel * np.conj(rel)).real, axis=-1) / float(b.radius) ** 2
    inside = t < 1.0
    out = np.zeros(t.shape, dtype=complex)
    pts = pts[inside]
    u = 1.0 - t[inside]
    zs = [pts[:, i] for i in range(b.nvars)]
    cols = zs + [np.conj(z) for z in zs]
    log_u = np.log(u)
    acc = 0j
    for p, m, c in b.terms:
        damp = np.exp(-c / u - m * log_u) if m else np.exp(-c / u)
        acc = acc + _horner_numeric(p, cols) * damp
    out[inside] = acc
    return out.reshape(shape)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


OFF_ORIGIN = (GaussianRational(Fraction(1, 3), Fraction(1, 5)),
              GaussianRational(Fraction(-1, 2), Fraction(1, 7)),
              GaussianRational(Fraction(1, 4), Fraction(-1, 3)))


class TestBumpEvalBitForBit:
    """eval_numeric against `reference_eval`, bit for bit and sign of zero
    included, on its all-inside path and its masked one."""

    @staticmethod
    def bumps(n):
        # from_poly has terms with m = 0 only, its d/dzbar terms with m > 0
        rng = random.Random(n)
        terms = {tuple(rng.randint(0, 2) for _ in range(2 * n)):
                 GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                  Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 for _ in range(5)}
        poly = MultiPoly(2 * n, terms) - MultiPoly.variable(2 * n, 0)
        b = BumpFunction.from_poly(n, Fraction(3, 2), poly, center=OFF_ORIGIN[:n])
        assert all(m == 0 for _, m, _ in b.terms)
        db = b.dzbar(n - 1)
        assert any(m > 0 for _, m, _ in db.terms)
        return b, db

    @staticmethod
    def inside_grid(n, shape):
        # points strictly inside the support, the centre among them, and
        # some with every coordinate real or imaginary relative to it
        rng = np.random.default_rng(n)
        a = np.array([complex(c) for c in OFF_ORIGIN[:n]])
        rel = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
        norm = np.sqrt(np.sum(np.abs(rel) ** 2, axis=-1, keepdims=True))
        rel *= 1.5 * rng.uniform(0.0, 0.99, size=shape + (1,)) / norm
        flat = rel.reshape(-1, n)
        flat[:len(flat) // 3] = flat[:len(flat) // 3].real
        flat[len(flat) // 3:len(flat) // 2] = 1j * flat[len(flat) // 3:len(flat) // 2].imag
        flat[-1:] = 0
        return a + rel

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(), (7,), (6, 5)])
    def test_all_inside_grid(self, n, shape):
        pts = self.inside_grid(n, shape)
        for b in self.bumps(n):
            got = b.eval_numeric(pts)
            assert got.shape == shape
            assert_same_bits(got, reference_eval(b, pts))
            assert_same_bits(b.eval_numeric(np.asfortranarray(pts)), got)
            if n == 1:
                assert_same_bits(b.eval_numeric(pts[..., 0]), got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("last", ["outside", "nan"])
    def test_one_point_off_the_support_appended(self, n, last):
        pts = self.inside_grid(n, (40,))
        if last == "outside":
            extra = np.array([complex(c) + 2.0 for c in OFF_ORIGIN[:n]])
        else:
            extra = np.full(n, complex(np.nan, 0.0))
        crossing = np.concatenate([pts, extra[None, :]])
        for b in self.bumps(n):
            got = b.eval_numeric(crossing)
            assert_same_bits(got, reference_eval(b, crossing))
            assert got[-1] == 0
            assert_same_bits(got[:-1], b.eval_numeric(pts))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_bump_and_empty_points(self, n):
        zero = BumpFunction(n, Fraction(3, 2), [], center=OFF_ORIGIN[:n])
        for shape in [(), (7,), (6, 5)]:
            pts = self.inside_grid(n, shape)
            assert_same_bits(zero.eval_numeric(pts), np.zeros(shape, dtype=complex))
            assert_same_bits(zero.eval_numeric(pts), reference_eval(zero, pts))
        empty = np.zeros((0, n), dtype=complex)
        for b in self.bumps(n) + (zero,):
            assert_same_bits(b.eval_numeric(empty), np.zeros(0, dtype=complex))
            assert_same_bits(b.eval_numeric(empty), reference_eval(b, empty))


def mp_exact(g: GaussianRational):
    """g in the current mpmath precision."""
    return mpmath.mpc(mpmath.mpf(g.re.numerator) / g.re.denominator,
                      mpmath.mpf(g.im.numerator) / g.im.denominator)


def mp_bump(b, z):
    """The module docstring's formula in 40-digit arithmetic:
    sum P(z, zbar) (1-t)^(-m) exp(-c/(1-t)), 0 for t >= 1.  Returns the value
    and the same sum over |coefficient| * |monomial|, the scale of its
    rounding error."""
    with mpmath.workdps(40):
        zs = [mpmath.mpc(complex(x)) for x in z]
        w = zs + [mpmath.conj(x) for x in zs]
        r = mpmath.mpf(b.radius.numerator) / b.radius.denominator
        t = sum(abs(x - mp_exact(c)) ** 2 for x, c in zip(zs, b.center)) / r ** 2
        if t >= 1:
            return mpmath.mpf(0), 0
        value = scale = mpmath.mpf(0)
        for p, m, c in b.terms:
            damp = (1 - t) ** (-m) * mpmath.exp(-c / (1 - t))
            for exp, coeff in p.terms.items():
                mono = mp_exact(coeff)
                for x, e in zip(w, exp):
                    mono *= x ** e
                value += mono * damp
                scale += abs(mono) * damp
        return value, scale


# ---------------------------------------------------------------------------
# test forms
# ---------------------------------------------------------------------------

def simple_testform(nvars, bidegree, seed=0, radius=Fraction(2)):
    rng = random.Random(seed)
    coeffs = {}
    import itertools

    for iset in itertools.combinations(range(nvars), bidegree[0]):
        for jset in itertools.combinations(range(nvars), bidegree[1]):
            terms = {}
            for _ in range(2):
                exp = tuple(rng.randint(0, 1) for _ in range(2 * nvars))
                terms[exp] = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
            poly = MultiPoly(2 * nvars, terms)
            if poly.is_zero():
                poly = MultiPoly.const(2 * nvars, 1)
            coeffs[(iset, jset)] = BumpFunction.from_poly(nvars, radius, poly)
    return TestForm(nvars, bidegree, coeffs)


class TestTestForm:
    @pytest.mark.parametrize("bidegree, key", [((1, 0), ((2,), ())), ((0, 1), ((), (2,))),
                                               ((2, 0), ((1, 0), ())), ((0, 1), ((0,), ()))])
    def test_constructor_rejects_bad_index_sets(self, bidegree, key):
        # an out-of-range dz index would alias a dzbar generator
        with pytest.raises(ValueError):
            TestForm(2, bidegree, {key: BumpFunction.radial(2, Fraction(2))})

    @pytest.mark.parametrize("bidegree, key", [((1, 0), ((0.5,), ())), ((0, 1), ((), (1.5,))),
                                               ((1.5, 0), ((0,), ()))])
    def test_constructor_rejects_non_integral_values(self, bidegree, key):
        with pytest.raises(ValueError):
            TestForm(2, bidegree, {key: BumpFunction.radial(2, Fraction(2))})

    def test_dbar_then_dbar_zero(self):
        phi = simple_testform(2, (1, 0), seed=9)
        dd = phi.d_bar().d_bar()
        pts = np.random.default_rng(0).uniform(-1, 1, size=(15, 2)) + 0j
        for b in dd.coeffs.values():
            np.testing.assert_allclose(b.eval_numeric(pts), 0, atol=1e-13)

    def test_dbar_puts_dz_before_dzbar(self):
        # d''(b dz1) = sum_j db/dzbar_j dzbar_j ^ dz1 = -sum_j db/dzbar_j dz1 ^ dzbar_j
        poly = embed_holomorphic(Z1 * Z2) + MultiPoly.variable(4, 3)  # z1 z2 + zbar2
        b = BumpFunction.from_poly(2, Fraction(2), poly)
        got = TestForm(2, (1, 0), {((0,), ()): b}).d_bar()
        assert got == TestForm(2, (1, 1), {((0,), (j,)): -b.dzbar(j) for j in (0, 1)})
        assert len(got.terms) == 2


class TestMergeSign:
    def test_overlap(self):
        assert merge_indices((0,), (0,)) == (None, 0)

    def test_signs(self):
        assert merge_indices((1,), (0,)) == ((0, 1), -1)
        assert merge_indices((0,), (1,)) == ((0, 1), 1)
        assert merge_indices((0, 2), (1,)) == ((0, 1, 2), -1)
