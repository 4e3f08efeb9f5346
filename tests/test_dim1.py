"""One-variable residue currents: Laurent data, delta-operator constants,
contour and principal-value quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from residuum import quadrature
from residuum.bump import BumpFunction, embed_holomorphic
from residuum.dim1 import (
    LaurentPart,
    _pair_currents,
    contour_residue_numeric,
    find_rational_roots,
    laurent_parts,
    principal_part,
    residue_current_1d,
    residue_pairing_1d,
    vp_1d,
)
from residuum.errors import IrrationalPole
from residuum.forms import TestForm
from residuum.polynomials import MultiPoly
from residuum.quadrature import (
    circle_nodes,
    eps_schedule,
    limit,
    radial_panels,
    richardson,
    tolerance,
)
from residuum.ratfn import RatFn, uni_divmod
from residuum.scalars import GaussianRational

Z = MultiPoly.variable(1, 0)
ONE = MultiPoly.const(1, 1)


def bump_poly(*exps_coeffs, radius=Fraction(1)):
    """Bump with polynomial part sum c * z^a zbar^b given as ((a, b), re, im)."""
    terms = {}
    for (a, b), re, im in exps_coeffs:
        terms[(a, b)] = GaussianRational(re, im)
    return BumpFunction.from_poly(1, radius, MultiPoly(2, terms))


# nonzero holomorphic derivatives at 0 through order 4: the radial cutoff
# contributes none, so the z^j coefficients carry them.  Radius 2 keeps the
# smallest contour comfortably above the double-precision cancellation floor.
GENERIC_BUMP = bump_poly(
    ((0, 0), 1, 0), ((1, 0), Fraction(1, 2), 0), ((2, 0), Fraction(1, 5), 0),
    ((3, 0), Fraction(1, 7), 0), ((4, 0), Fraction(1, 11), 0),
    ((0, 1), 0, Fraction(1, 3)), ((2, 1), Fraction(-1, 4), 0),
    radius=Fraction(2))


class TestLaurentParts:
    def test_read_off(self):
        # g = 1/z^2 + 3/z + 5
        g = RatFn(5 * Z ** 2 + 3 * Z + ONE, Z ** 2)
        (part,) = laurent_parts(g)
        assert part.pole == GaussianRational(0)
        assert part.coeffs == (GaussianRational(3), GaussianRational(1))

    def test_two_simple_poles(self):
        g = RatFn(ONE, Z * (Z - ONE))
        parts = laurent_parts(g)
        assert [(p.pole, p.coeffs) for p in parts] == [
            (GaussianRational(0), (GaussianRational(-1),)),
            (GaussianRational(1), (GaussianRational(1),)),
        ]

    def test_polynomial_input(self):
        assert laurent_parts(RatFn(Z ** 3 + ONE)) == []

    def test_gaussian_pole(self):
        # pole at i with multiplicity 2
        lin = Z - MultiPoly.const(1, GaussianRational(0, 1))
        g = RatFn(ONE, lin ** 2)
        (part,) = laurent_parts(g)
        assert part.pole == GaussianRational(0, 1)
        assert part.coeffs == (GaussianRational(0), GaussianRational(1))

    def test_irrational_pole(self):
        with pytest.raises(IrrationalPole):
            laurent_parts(RatFn(ONE, Z ** 2 - 2 * ONE))

    @pytest.mark.parametrize("den, root", [
        (Z ** 2 - 2 * ONE, "1.41421+0j"),
        # a triple root spreads by about eps^(1/3): the digits are np.roots'
        ((Z - MultiPoly.const(1, Fraction(1, 3))) ** 3, "0.333336-1.40811e-06j"),
    ], ids=["z^2-2", "(z-1/3)^3"])
    def test_irrational_pole_messages(self, den, root):
        with pytest.raises(IrrationalPole) as info:
            find_rational_roots(den)
        assert str(info.value) == (f"root near {root} is not Gaussian rational "
                                   "(or exceeds the rationalization bound)")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6).flatmap(lambda q: st.tuples(
        st.integers(-q, q), st.integers(-q, q), st.just(q))), st.integers(1, 2)),
        min_size=1, max_size=3))
    def test_roots_of_planted_factors(self, draws):
        # den = prod (z - p_j)^k_j, the p_j distinct in the unit square with
        # denominators up to 6: the roots come back with their multiplicities
        # exactly, or IrrationalPole is raised, and always for simple poles
        planted = {}
        for (re, im, q), k in draws:
            planted.setdefault(GaussianRational(Fraction(re, q), Fraction(im, q)), k)
        den = ONE
        for p, k in planted.items():
            den = den * (Z - MultiPoly.const(1, p)) ** k
        try:
            roots = find_rational_roots(den)
        except IrrationalPole:
            assert max(planted.values()) == 2
            return
        assert len(roots) == len(planted) and dict(roots) == planted

    def test_two_double_poles_raise(self):
        # a known limitation, and why the draws above may raise: np.roots
        # returns each double root split by more than the rationalization
        # tolerates, so (z + 1 + i)^2 (z + 1 + i/2)^2 raises
        den = ((Z - MultiPoly.const(1, GaussianRational(-1, -1))) ** 2
               * (Z - MultiPoly.const(1, GaussianRational(-1, Fraction(-1, 2)))) ** 2)
        with pytest.raises(IrrationalPole):
            find_rational_roots(den)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6).flatmap(lambda q: st.tuples(
        st.integers(-q, q), st.integers(-q, q), st.just(q))), st.integers(1, 2)),
        min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5))
    def test_parts_of_planted_poles_canonical_and_exact(self, draws, num_coeffs):
        # den as in test_roots_of_planted_factors, num any Gaussian-integer
        # polynomial: each part, built without gcd, equals the normalising
        # constructor's, and the parts plus the polynomial part give g back
        planted = {}
        for (re, im, q), k in draws:
            planted.setdefault(GaussianRational(Fraction(re, q), Fraction(im, q)), k)
        den = ONE
        for p, k in planted.items():
            den = den * (Z - MultiPoly.const(1, p)) ** k
        num = MultiPoly(1, {(i,): GaussianRational(re, im)
                            for i, (re, im) in enumerate(num_coeffs) if re or im})
        assume(not num.is_zero())
        g = RatFn(num, den)
        try:
            parts = laurent_parts(g)
        except IrrationalPole:
            return
        l, quot, _ = uni_divmod(g.num, g.den, 0)
        total = RatFn(quot, l)
        for part in parts:
            lin = Z - MultiPoly.const(1, part.pole)
            k = part.multiplicity
            part_num = MultiPoly.zero(1)
            for j, a in enumerate(part.coeffs, 1):
                part_num = part_num + MultiPoly.const(1, a) * lin ** (k - j)
            assert part.as_ratfn() == RatFn(part_num, lin ** k)
            total = total + part.as_ratfn()
        assert total == g

    def test_part_needs_nonzero_leading_coefficient(self):
        p = GaussianRational(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            LaurentPart(p, ())
        with pytest.raises(ValueError):
            LaurentPart(p, (GaussianRational(3), GaussianRational(0)))

    def test_principal_part_certifies_multiplicity(self):
        # den's Taylor coefficients at p must vanish below order k, not at k
        zero = GaussianRational(0)
        assert principal_part(ONE, Z ** 2, zero, 2) == (zero, GaussianRational(1))
        for den, k in [(Z ** 2, 1), (Z, 2), (Z - ONE, 1)]:
            with pytest.raises(ArithmeticError):
                principal_part(ONE, den, zero, k)

    def test_principal_parts_recombine(self):
        g = RatFn(Z + 7 * ONE, (Z ** 2) * (Z - ONE) * (2 * Z + ONE))
        parts = laurent_parts(g)
        total = RatFn.zero(1)
        for p in parts:
            total = total + p.as_ratfn()
        assert (g - total).is_polynomial()


class TestDeltaCurrents:
    def test_simple_residue_tag(self):
        (cur,) = residue_current_1d(laurent_parts(RatFn(ONE, Z)))
        # b_0 = 2 pi i, stored as its Gaussian-rational factor of 2 pi i
        assert cur.coeffs[0] == GaussianRational(1)

    def test_constants_from_contour_oracle(self):
        # b_{l-1} = 2 pi i / (l-1)!  for g = 1/z^l, pinned numerically
        phi = GENERIC_BUMP
        for l in range(1, 6):
            g = RatFn(ONE, Z ** l)
            oracle = contour_residue_numeric(g, phi).value
            d = phi
            for _ in range(l - 1):
                d = d.dz(0)
            expect = 2j * math.pi / math.factorial(l - 1) * complex(
                d.eval_numeric(np.array([0j])))
            assert oracle == pytest.approx(expect, rel=1e-8)
            via_current = residue_pairing_1d(g, phi)
            assert via_current == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_apply_examples(self):
        phi = GENERIC_BUMP
        (cur,) = residue_current_1d(laurent_parts(RatFn(ONE, Z)))
        val = _pair_currents([cur], phi)
        phi0 = complex(phi.eval_numeric(np.array([0j])))
        assert val == pytest.approx(2j * math.pi * phi0, rel=1e-12)
        zero_cur = residue_current_1d(laurent_parts(RatFn(ONE, Z)))[0]
        zero_cur = type(zero_cur)(zero_cur.pole, ())
        assert _pair_currents([zero_cur], phi) == 0j

    def test_linearity(self):
        phi = GENERIC_BUMP
        g1 = RatFn(ONE, Z ** 2)
        g2 = RatFn(2 * Z + ONE, Z * (Z - ONE))
        lhs = residue_pairing_1d(g1 + g2, phi)
        rhs = residue_pairing_1d(g1, phi) + residue_pairing_1d(g2, phi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestContourOracle:
    def test_holomorphic_gives_zero(self):
        res = contour_residue_numeric(RatFn(Z ** 2 + ONE), GENERIC_BUMP)
        assert abs(res.value) < 1e-12

    def test_third_order_pole(self):
        phi = GENERIC_BUMP
        g = RatFn(ONE, Z ** 3)
        d2 = phi.dz(0).dz(0)
        expect = (2j * math.pi / 2.0) * complex(d2.eval_numeric(np.array([0j])))
        assert contour_residue_numeric(g, phi).value == pytest.approx(expect, rel=1e-8)

    def test_translation_covariance(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        g = RatFn(ONE + Z, Z ** 2)
        g_shift = RatFn(g.num.shift_var(0, -a), g.den.shift_var(0, -a))
        phi = GENERIC_BUMP
        phi_shift = phi.translate((a,))
        v0 = residue_pairing_1d(g, phi)
        v1 = residue_pairing_1d(g_shift, phi_shift)
        assert v1 == pytest.approx(v0, rel=1e-10)
        c0 = contour_residue_numeric(g, phi).value
        c1 = contour_residue_numeric(g_shift, phi_shift, center=complex(a)).value
        assert c1 == pytest.approx(c0, rel=1e-10)

    def test_circles_an_irrational_pole(self):
        # the circles' clearance from the other poles does not rationalise
        # them: 1/(z^2 - 2) at sqrt 2 has residue 1/(2 sqrt 2)
        phi, center = BumpFunction.radial(1, 4), math.sqrt(2)
        res = contour_residue_numeric(RatFn(ONE, Z ** 2 - 2 * ONE), phi, center=center)
        expect = 2j * math.pi * complex(phi.eval_numeric(np.array([[center]]))[0]) / (2 * center)
        assert res.converged
        assert res.value == pytest.approx(expect, rel=1e-10)

    def test_double_pole_beside_irrational_poles(self):
        # 1/(z^2 (8 z^2 - 1)) at 0 is -1/z^2 plus a function holomorphic
        # on |z| < 1/sqrt 8; without clearance the largest circle, R/4 = 1/2,
        # would enclose the poles at +-1/sqrt 8
        g = RatFn(ONE, Z ** 2 * (8 * Z ** 2 - ONE))
        res = contour_residue_numeric(g, GENERIC_BUMP)
        assert res.table[0][0] == pytest.approx(0.5 / math.sqrt(8), rel=1e-12)
        expect = residue_pairing_1d(RatFn(-ONE, Z ** 2), GENERIC_BUMP)
        assert res.converged
        assert res.value == pytest.approx(expect, rel=1e-10)


class TestRichardsonResidual:
    @pytest.mark.parametrize("levels, converged", [(5, True), (2, False)])
    def test_converged_matches_error(self, levels, converged):
        # the residual is an error estimate: the verdict it gives agrees with
        # the real error against the exact pairing of each principal part.
        # A table's first rows are those of a shorter schedule
        # (test_levels_do_not_couple), so the limit of the first `levels`
        # rows is that schedule's result.
        gs = [RatFn(ONE, Z ** l) for l in (1, 3, 5)]
        gs.append(RatFn(Z + 7 * ONE, (Z ** 2) * (Z - ONE) * (2 * Z + ONE)))
        for g in gs:
            for part in laurent_parts(g):
                exact = residue_pairing_1d(part.as_ratfn(), GENERIC_BUMP)
                full = contour_residue_numeric(g, GENERIC_BUMP, center=complex(part.pole))
                assert limit(full.table) == full
                res = limit(full.table[:levels])
                err = abs(res.value - exact)
                assert res.converged is converged
                assert (err <= tolerance(res.value)) is converged
                assert err <= max(res.residual, quadrature.ABS_TOL)


class TestCircleNodes:
    @pytest.mark.parametrize("n_theta", [32, 64, 128, 512, 1024])
    def test_fixed_read_only_table(self, n_theta):
        nodes = circle_nodes(n_theta)
        want = np.exp(1j * (2.0 * np.pi * np.arange(n_theta) / n_theta))
        assert nodes.dtype == want.dtype and np.array_equal(nodes, want)
        assert np.array_equal(np.signbit(nodes.view(float)), np.signbit(want.view(float)))
        with pytest.raises(ValueError):
            nodes[0] = 0
        assert circle_nodes(n_theta) is nodes


def vp_by_dblquad(g, chi) -> complex:
    """int g(z) chi dz ^ dzbar over the square |x|, |y| <= 1 by scipy's adaptive
    dblquad, with dz ^ dzbar = -2i dA; the integrand must be bounded."""
    from scipy.integrate import dblquad

    chi_at = _scalar_bump(chi)

    def integrand(y, x, piece):
        z = complex(x, y)
        if z == 0:
            return 0.0
        val = g(z) * chi_at(z) * (-2j)
        return val.real if piece == "re" else val.imag

    re, _ = dblquad(integrand, -1, 1, -1, 1, args=("re",), epsabs=1e-9)
    im, _ = dblquad(integrand, -1, 1, -1, 1, args=("im",), epsabs=1e-9)
    return complex(re, im)


# zbar * bump dzbar: bounded against 1/z, and not d-bar exact
ZBAR_CHI = bump_poly(((0, 1), 1, 0), ((1, 1), Fraction(1, 5), 0))


def vp_uniform_layout(g, psi, n_theta=512, order=12) -> complex:
    """vp_1d's regions on a uniform node layout: n_theta angles in every
    region and `radial_panels` of the given order on every ray and annulus,
    the rays about each pole inside the support ending at its edge."""
    b = psi.coeffs[((), (0,))]
    support, center = float(b.radius), complex(b.center[0])
    e_i = circle_nodes(n_theta)

    def polar(fn, origin, inner, outer):
        rs, ws = radial_panels(inner, np.broadcast_to(outer, e_i.shape), order)
        zs = (origin + rs * e_i[:, None])[..., None]
        vals = fn.eval_numeric(zs) * b.eval_numeric(zs) * (-2j) * rs * ws
        return complex(np.sum(vals) * (2.0 * np.pi / n_theta))

    _, quotient, _ = uni_divmod(g.num, g.den, 0)
    parts = [(complex(p.pole), p.as_ratfn()) for p in laurent_parts(g)]
    inside = [(p, h) for p, h in parts if abs(p - center) < support]
    outside = [h for p, h in parts if abs(p - center) >= support]
    total = polar(sum(outside, RatFn.from_any(quotient, 1)), center, 0.0, support)
    seps = [abs(p - q) for p, _ in parts for q, _ in parts if p != q]
    gaps = [support - abs(p - center) for p, _ in inside]
    eps = eps_schedule(min([support / 8.0] + [0.25 * s for s in seps]
                           + [0.5 * gap for gap in gaps]))
    for p, h in inside:
        beta = ((p - center) * np.conj(e_i)).real
        total += polar(h, p, eps[0], -beta + np.sqrt(beta ** 2 - abs(p - center) ** 2
                                                     + support ** 2))
    values = [total]
    for a, out in zip(eps[1:], eps):
        for p, h in inside:
            total += polar(h, p, a, out)
        values.append(total)
    return richardson(values)[0]


def _scalar_bump(chi):
    """chi as a Python function of one complex point, from the defining sum
    P(z, zbar) (1-t)^-m exp(-c/(1-t)), independently of `eval_numeric`."""
    terms = [([(complex(a), e[0], e[1]) for e, a in p.terms.items()], m, c)
             for p, m, c in chi.terms]
    centre, r2 = complex(chi.center[0]), float(chi.radius) ** 2

    def value(z):
        u = 1.0 - abs(z - centre) ** 2 / r2
        if u <= 0.0:
            return 0j
        return sum(sum(a * z ** i * z.conjugate() ** j for a, i, j in poly)
                   * u ** -m * math.exp(-c / u) for poly, m, c in terms)

    return value


def _polar_dblquad(fn, origin, chi) -> complex:
    """int fn(r, theta) dr dtheta by scipy's dblquad, over the part of chi's
    support disk that the ray from origin at angle theta crosses."""
    from scipy.integrate import dblquad

    centre, radius = complex(chi.center[0]), float(chi.radius)

    def ray(theta):
        beta = ((origin - centre) * complex(math.cos(theta), -math.sin(theta))).real
        disc = beta * beta - abs(origin - centre) ** 2 + radius ** 2
        root = math.sqrt(max(disc, 0.0))
        return max(0.0, -beta - root), max(0.0, -beta + root)

    def piece(part):
        return dblquad(lambda r, t: part(fn(r, t)), 0.0, 2 * math.pi,
                       lambda t: ray(t)[0], lambda t: ray(t)[1],
                       epsabs=1e-12, epsrel=1e-12)[0]

    return complex(piece(lambda v: v.real), piece(lambda v: v.imag))


def vp_by_parts(g, chi) -> complex:
    """vp int g chi dz ^ dzbar by integration by parts: for the principal part
    sum_l a_l (z - p)^-l at a pole p, vp int (z - p)^-l chi dz ^ dzbar equals
    1/(l-1)! int (z - p)^-1 d^(l-1)chi/dz^(l-1) dz ^ dzbar, since the terms on
    the eps-circle vanish with eps.  In polar coordinates about p, with
    dz ^ dzbar = -2i r dr dtheta, that integrand is bounded.  The polynomial
    part is integrated in polar coordinates about the support's centre."""
    _, quotient, _ = uni_divmod(g.num, g.den, 0)
    coeffs = [(e[0], complex(a)) for e, a in quotient.terms.items()]
    chi_at = _scalar_bump(chi)
    centre = complex(chi.center[0])

    def regular(r, t):
        z = centre + r * complex(math.cos(t), math.sin(t))
        return -2j * r * chi_at(z) * sum(a * z ** k for k, a in coeffs)

    total = _polar_dblquad(regular, centre, chi) if coeffs else 0j
    for part in laurent_parts(g):
        d, lowered = chi, None
        for l, a in enumerate(part.coeffs, start=1):
            d = d.dz(0) if l > 1 else d
            term = d * (a / GaussianRational(math.factorial(l - 1)))
            lowered = term if lowered is None else lowered + term
        at, pole = _scalar_bump(lowered), complex(part.pole)

        def singular(r, t, at=at, pole=pole):
            e_it = complex(math.cos(t), math.sin(t))
            return -2j * at(pole + r * e_it) / e_it

        total += _polar_dblquad(singular, pole, chi)
    return total


OFF_CENTRE_BUMP = GENERIC_BUMP.translate((GaussianRational(Fraction(1, 2), Fraction(1, 3)),))
VP_RATFNS = [
    RatFn(ONE, Z ** 5),
    RatFn(Z + 3 * ONE, Z ** 2 * (Z - ONE)),
    RatFn(Z * Z + ONE, Z),
    RatFn(Z ** 3 + ONE, Z ** 4 * (Z - Fraction(1, 2) * ONE) ** 2),
]
VP_RATFN_IDS = ["z^-5", "two-poles", "z+1/z", "quartic-and-double"]


class TestVp:
    def test_against_adaptive_2d_quadrature(self):
        # g = 1/z, psi = zbar * bump dzbar: the integrand (zbar/z) chi is bounded
        psi = TestForm(1, (0, 1), {((), (0,)): ZBAR_CHI})
        got = vp_1d(RatFn(ONE, Z), psi).value
        want = vp_by_dblquad(lambda z: 1.0 / z, ZBAR_CHI)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_polynomial_part_against_adaptive_2d_quadrature(self):
        # g = z + 1/z: psi is not d-bar exact, so the polynomial part z
        # contributes to the integral
        psi = TestForm(1, (0, 1), {((), (0,)): ZBAR_CHI})
        got = vp_1d(RatFn(Z * Z + ONE, Z), psi).value
        want = vp_by_dblquad(lambda z: z + 1.0 / z, ZBAR_CHI)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_holomorphic_table_constant(self):
        chi = bump_poly(((0, 1), 1, 0))
        psi = TestForm(1, (0, 1), {((), (0,)): chi})
        res = vp_1d(RatFn(Z), psi)
        assert res.note == "no poles"

    def test_double_pole_odd_symmetry(self):
        # psi odd under z -> -z pairs to zero against 1/z^2
        chi = bump_poly(((1, 0), 1, 0), ((0, 1), 1, 0))  # (z + zbar) * cutoff
        psi = TestForm(1, (0, 1), {((), (0,)): chi})
        res = vp_1d(RatFn(ONE, Z ** 2), psi)
        assert abs(res.value) < 1e-10

    def test_stokes_consistency(self):
        # Res[omega](phi) = + Vp[omega](d'' phi): the sign is forced by the
        # ccw contour convention and dz^dzbar = -2i dA
        for g in (RatFn(ONE, Z), RatFn(ONE, Z ** 2), RatFn(Z + ONE, Z ** 3)):
            phi = GENERIC_BUMP
            lhs = contour_residue_numeric(g, phi).value
            rhs = vp_1d(g, TestForm.function(phi).d_bar()).value
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    def test_off_centre_bump(self):
        # support disk centred at 1/2 + i/3, poles at 0 (double) and 1 inside it
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        phi = GENERIC_BUMP.translate((a,))
        g = RatFn(Z + 3 * ONE, Z ** 2 * (Z - ONE))
        exact = residue_pairing_1d(g, phi)
        contour = sum(contour_residue_numeric(g, phi, center=complex(p.pole)).value
                      for p in laurent_parts(g))
        assert contour == pytest.approx(exact, rel=1e-6, abs=1e-9)
        vp = vp_1d(g, TestForm.function(phi).d_bar()).value
        assert vp == pytest.approx(exact, rel=1e-9)

    def test_vp_linearity_in_test_form(self):
        g = RatFn(ONE, Z)
        chi1 = bump_poly(((0, 1), 1, 0))
        chi2 = bump_poly(((1, 1), 0, 1))
        psi1 = TestForm(1, (0, 1), {((), (0,)): chi1})
        psi2 = TestForm(1, (0, 1), {((), (0,)): chi2})
        both = vp_1d(g, psi1 + psi2).value
        assert both == pytest.approx(vp_1d(g, psi1).value + vp_1d(g, psi2).value,
                                     rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("g", VP_RATFNS, ids=VP_RATFN_IDS)
    @pytest.mark.parametrize("psi", [
        TestForm.function(GENERIC_BUMP).d_bar(),
        TestForm.function(OFF_CENTRE_BUMP).d_bar(),
        TestForm(1, (0, 1), {((), (0,)): ZBAR_CHI}),
    ], ids=["dbar-bump", "dbar-off-centre-bump", "zbar-chi"])
    def test_node_layout_matches_uniform_layout(self, g, psi):
        # the node counts drawn from the geometry give the integral of a
        # layout with many angles and panels everywhere; z^-5's finest
        # annulus sums values near eps_4^-3, so its rounding is about 1e-10
        want = vp_uniform_layout(g, psi)
        assert vp_1d(g, psi).value == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_pole_near_support_edge_matches_uniform_layout(self):
        # |pole| = 1.900..., 0.0999 inside the edge of the radius-2 support:
        # eps_0 is half that gap, and the rays take 128 angles
        pole = MultiPoly.const(1, GaussianRational(Fraction(-19, 10), Fraction(1, 50)))
        g = RatFn(Z + ONE, Z - pole)
        psi = TestForm.function(GENERIC_BUMP).d_bar()
        want = vp_uniform_layout(g, psi)
        assert vp_1d(g, psi).value == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("g", VP_RATFNS, ids=VP_RATFN_IDS)
    @pytest.mark.parametrize("phi", [GENERIC_BUMP, OFF_CENTRE_BUMP],
                             ids=["bump", "off-centre-bump"])
    def test_dbar_form_matches_pairing(self, g, phi):
        # Stokes: vp of g against d-bar phi is the exact delta-operator pairing
        got = vp_1d(g, TestForm.function(phi).d_bar()).value
        assert got == pytest.approx(residue_pairing_1d(g, phi), rel=1e-9)

    @pytest.mark.parametrize("g", VP_RATFNS, ids=VP_RATFN_IDS)
    def test_zbar_chi_matches_integration_by_parts(self, g):
        # zbar * bump is not d-bar exact; the reference integrates a bounded
        # integrand by scipy's adaptive dblquad.  Both sides vanish for z^-5.
        got = vp_1d(g, TestForm(1, (0, 1), {((), (0,)): ZBAR_CHI})).value
        assert got == pytest.approx(vp_by_parts(g, ZBAR_CHI), rel=1e-9, abs=1e-10)


# g = (z + 1)/(z - p) against GENERIC_BUMP (R = 2), p near the support's edge:
# inside it, but for -199/100 + i/5 just outside it (where both sides are 0)
NEAR_EDGE_POLES = [GaussianRational(Fraction(re), Fraction(im)) for re, im in (
    ("-15/8", "1/50"), ("-19/10", "1/50"), ("-3/2", "1/50"), ("-199/100", 0),
    ("-1999/1000", 0), ("3/2", "13/10"), ("-199/100", "1/5"))]


def _assert_verdict_holds(res, exact):
    if res.converged:
        assert abs(res.value - exact) <= tolerance(res.value)


@pytest.mark.parametrize("pole", NEAR_EDGE_POLES, ids=str)
def test_oracles_near_support_edge(pole):
    # a converged verdict holds the tolerance; inside the support, vp_1d's
    # rays end at the edge and it agrees to 1e-8 whatever its verdict
    g = RatFn(Z + ONE, Z - MultiPoly.const(1, pole))
    exact = residue_pairing_1d(g, GENERIC_BUMP)
    _assert_verdict_holds(contour_residue_numeric(g, GENERIC_BUMP, center=complex(pole)), exact)
    vp = vp_1d(g, TestForm.function(GENERIC_BUMP).d_bar())
    _assert_verdict_holds(vp, exact)
    if abs(complex(pole)) < 2:
        assert abs(vp.value - exact) <= 1e-8


@pytest.mark.parametrize("pole", [GaussianRational(Fraction(1, 3), Fraction(-1, 5)),
                                  GaussianRational(Fraction(-19, 10), Fraction(1, 50))],
                         ids=["far-from-edge", "near-edge"])
def test_levels_do_not_couple(pole, monkeypatch):
    # each eps-level's entry is computed from its own nodes alone: the table
    # at 3 levels is bit for bit the first 3 rows of the table at 5
    g = RatFn(Z + ONE, Z - MultiPoly.const(1, pole)) + RatFn(ONE, Z ** 2)
    psi = TestForm.function(GENERIC_BUMP).d_bar()
    oracles = (lambda: contour_residue_numeric(g, GENERIC_BUMP, center=complex(pole)),
               lambda: vp_1d(g, psi))
    full = [oracle().table for oracle in oracles]
    assert all(len(table) == 5 for table in full)
    monkeypatch.setattr(quadrature, "EPS_LEVELS", 3)
    for oracle, table in zip(oracles, full):
        assert oracle().table == table[:3]


# the points (re + i im)/64 with 1.75 <= |.| <= 2.25, and the nonzero steps
# (dre + i dim)/32 with |dre|, |dim| <= 3: drawn from lists, not filtered,
# as an `assume` on |pole| rejects most draws of (re, im)
EDGE_GRID = [(re, im) for re in range(-144, 145) for im in range(-144, 145)
             if 112 ** 2 <= re * re + im * im <= 144 ** 2]
STEPS = [(dre, dim) for dre in range(-3, 4) for dim in range(-3, 4) if (dre, dim) != (0, 0)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(EDGE_GRID), st.booleans(), st.sampled_from(STEPS),
       st.integers(1, 4), st.integers(-4, 4))
def test_converged_verdicts_near_support_edge(point, pair, step, c1, c2):
    # poles of (c1 + i c2/3)/(z - p) + 1/(z - q) within R/8 of the edge of
    # GENERIC_BUMP's radius-2 support, q = p + (dre + i dim)/32 up to 0.14
    # away; the exact pairing is the reference of each oracle's verdict
    (re, im), (dre, dim) = point, step
    pole = GaussianRational(Fraction(re, 64), Fraction(im, 64))
    g = RatFn(MultiPoly.const(1, GaussianRational(c1, Fraction(c2, 3))),
              Z - MultiPoly.const(1, pole))
    if pair:
        other = pole + GaussianRational(Fraction(dre, 32), Fraction(dim, 32))
        g = g + RatFn(ONE, Z - MultiPoly.const(1, other))
    for part in laurent_parts(g):
        exact = residue_pairing_1d(part.as_ratfn(), GENERIC_BUMP)
        res = contour_residue_numeric(g, GENERIC_BUMP, center=complex(part.pole))
        _assert_verdict_holds(res, exact)
    vp = vp_1d(g, TestForm.function(GENERIC_BUMP).d_bar())
    _assert_verdict_holds(vp, residue_pairing_1d(g, GENERIC_BUMP))
