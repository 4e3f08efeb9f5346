"""Pole lowering, hypersurface normal forms, reduced residues, divisors."""

import itertools
import random
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings, strategies as st

from residuum.decomposition import partial_fractions, prepare_denominator
from residuum.errors import (
    ChartError,
    NonClosedForm,
    PoleReductionObstruction,
    ResiduumError,
)
from residuum.forms import MeroForm
from residuum.leray import (
    HypersurfaceForm,
    check_closed,
    divisor_coefficients,
    from_frame,
    lower_pole_order,
    normal_form_on_hypersurface,
    reduced_residue,
    simple_pole_residue_form,
    to_frame,
)
from residuum.polynomials import MultiPoly, divides, gcd, primitive_part_in_var
from residuum.ratfn import RatFn
from residuum.scalars import GaussianRational

Z1 = MultiPoly.variable(2, 0)
Z2 = MultiPoly.variable(2, 1)
ONE = MultiPoly.const(2, 1)
RHO = Z1 * Z1 - Z2
DZ1 = MeroForm.dz(2, 0)
DZ2 = MeroForm.dz(2, 1)
TOP = DZ1.wedge(DZ2)


def dlog(f: MultiPoly) -> MeroForm:
    return MeroForm.d_of_poly(f).scale(RatFn(MultiPoly.const(f.nvars, 1), f))


def over(form: MeroForm, den: MultiPoly) -> MeroForm:
    return form.scale(RatFn(MultiPoly.const(form.nvars, 1), den))


class TestCheckClosed:
    def test_dlog_closed(self):
        ok, _ = check_closed(dlog(RHO))
        assert ok

    def test_top_degree_closed(self):
        ok, _ = check_closed(over(TOP, RHO))
        assert ok

    def test_open_form(self):
        omega = DZ1.scale(RatFn(Z2, Z1))
        ok, witness = check_closed(omega)
        assert not ok
        # d(z2/z1 dz1) = -(1/z1) dz1 ^ dz2
        assert witness == TOP.scale(RatFn(-ONE, Z1))


class TestLowerPoleOrder:
    def test_already_simple(self):
        ld = lower_pole_order(dlog(RHO), RHO, 0, 1)
        assert ld.a == MeroForm.function(RatFn.one(2))
        assert ld.beta.is_zero()
        assert ld.r_terms == {}
        assert ld.recombined() == dlog(RHO)

    def test_exact_double_pole(self):
        omega = over(MeroForm.d_of_poly(RHO), RHO * RHO)
        ld = lower_pole_order(omega, RHO, 0, 2)
        assert ld.a.is_zero()
        assert ld.beta.is_zero()
        assert ld.r_terms == {1: MeroForm.function(RatFn.const(2, -1))}
        assert ld.recombined() == omega

    def test_nonclosed_double_pole_keeps_simple_part(self):
        omega = over(MeroForm.d_of_poly(RHO), RHO * RHO).scale(RatFn(Z1))
        ld = lower_pole_order(omega, RHO, 0, 2)
        assert ld.r_terms[1] == MeroForm.function(RatFn(-Z1))
        assert ld.beta_polar  # simple-pole remainder: the input is not closed
        assert ld.recombined() == omega
        # the digit representative z1/(2 z2) equals 1/(2 z1) on Y
        got = HypersurfaceForm(RHO, 0, ld.a)
        want = HypersurfaceForm(RHO, 0, MeroForm.function(RatFn(ONE, 2 * Z1)))
        assert got.equals(want)

    @pytest.mark.parametrize("r", [2, 3])
    def test_top_form_powers(self, r):
        omega = over(TOP, RHO ** r)
        ld = lower_pole_order(omega, RHO, 0, r)
        assert ld.recombined() == omega
        for form in [ld.a, ld.beta] + list(ld.r_terms.values()):
            for idx in form.coeffs:
                assert 0 not in idx  # no dz1 anywhere in a, beta, e_nu
        assert ld.certificate_holds()

    def test_obstruction(self):
        # z2 dz2 / rho^2 is not liftable: no drho at order 2
        omega = DZ2.scale(RatFn(Z2, RHO ** 2))
        with pytest.raises(PoleReductionObstruction):
            lower_pole_order(omega, RHO, 0, 2)


def rand_poly(rng, nvars):
    terms = {tuple(rng.randint(0, 1) for _ in range(nvars)):
             GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(2)}
    p = MultiPoly(nvars, terms)
    return p if not p.is_zero() else MultiPoly.const(nvars, 1)


Y1, Y2, Y3 = (MultiPoly.variable(3, i) for i in range(3))
ONE3 = MultiPoly.const(3, 1)


class TestFrame:
    """to_frame writes omega = drho ^ a + b; from_frame must rebuild omega
    exactly, for every chart and degree."""

    @pytest.mark.parametrize("rho", [RHO, Z1 * Z2 - ONE, Y1 * Y1 - Y2 * Y3,
                                     Y1 * Y2 + Y3 * Y3 - ONE3],
                             ids=["parabola", "hyperbola", "cone", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip(self, rho, seed):
        rng = random.Random(seed)
        n = rho.nvars
        for degree in range(n + 1):
            omega = MeroForm(n, degree, {
                idx: RatFn(rand_poly(rng, n), rand_poly(rng, n))
                for idx in itertools.combinations(range(n), degree) if rng.random() < 0.7})
            for var in range(n):
                frame = to_frame(omega, rho, var)
                assert from_frame(frame, rho, n, degree) == omega

    @pytest.mark.parametrize("var", [2, -1])
    def test_chart_variable_out_of_range(self, var):
        # checked before rho.partial sees it, so -1 cannot name the last
        # variable and 2 raises the chart's error, not a ValueError
        for build in (lambda: to_frame(DZ1, RHO, var),
                      lambda: normal_form_on_hypersurface(DZ1, RHO, var),
                      lambda: HypersurfaceForm(RHO, var, DZ1)):
            with pytest.raises(ChartError):
                build()


class TestNormalForm:
    def test_substitution_identity_chart2(self):
        # dz2/(2 z1) equals dz1 on Y when dz2 is eliminated (chart var z2)
        rep = DZ2.scale(RatFn(ONE, 2 * Z1))
        nf = normal_form_on_hypersurface(rep, RHO, 1)
        assert nf == DZ1

    def test_substitution_identity_chart1(self):
        rep = DZ2.scale(RatFn(ONE, 2 * Z1))
        nf = normal_form_on_hypersurface(rep, RHO, 0)
        want = normal_form_on_hypersurface(DZ1, RHO, 0)
        assert nf == want

    def test_multiple_of_rho_is_zero(self):
        rep = DZ2.scale(RatFn(RHO * (Z1 + Z2)))
        assert normal_form_on_hypersurface(rep, RHO, 0).is_zero()

    def test_idempotent(self):
        rep = DZ2.scale(RatFn(Z1 ** 3 + Z2, Z2 * Z2)) + DZ1.scale(RatFn(Z2))
        once = normal_form_on_hypersurface(rep, RHO, 0)
        again = normal_form_on_hypersurface(once, RHO, 0)
        assert once == again

    def test_linear(self):
        a = DZ2.scale(RatFn(Z1 ** 2))
        b = DZ1.scale(RatFn(Z2, Z1))
        lhs = normal_form_on_hypersurface(a + b, RHO, 0)
        rhs = normal_form_on_hypersurface(a, RHO, 0) + normal_form_on_hypersurface(b, RHO, 0)
        assert lhs == rhs


def assert_reduces(c: RatFn, reduced: RatFn, rho: MultiPoly, var: int):
    """reduced is c modulo rho: the difference of the cross products is a
    multiple of rho, the numerator has lower degree than rho in `var` and
    the denominator is free of it.  Needs rho primitive in `var`."""
    assert divides(rho, c.num * reduced.den - reduced.num * c.den)
    assert reduced.num.degree_in(var) < rho.degree_in(var)
    assert not reduced.den.depends_on(var)


gaussian_ints = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


def small_polys(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), gaussian_ints,
                           min_size=1, max_size=3).map(lambda t: MultiPoly(nvars, t))


@st.composite
def hypersurface_cases(draw):
    """(rho, var, c): rho primitive of positive degree in `var`, with a
    leading coefficient that is usually not constant."""
    nvars = draw(st.sampled_from([2, 3]))
    var = draw(st.integers(0, nvars - 1))
    x = MultiPoly.variable(nvars, var)
    rho = draw(small_polys(nvars)) + draw(small_polys(nvars)) * x ** draw(st.integers(1, 2))
    assume(rho.depends_on(var))
    num, den = draw(small_polys(nvars)), draw(small_polys(nvars))
    assume(not den.is_zero())
    return primitive_part_in_var(rho, var), var, RatFn(num, den)


def rho_found() -> MultiPoly:
    """A non-monic quadratic chart: rho = z3^2 + z1^3 z2 z3^2 + z1^3 z2 z3
    + (2 - i) z1^3 z3 - 1, chart variable z3."""
    return MultiPoly(3, {(0, 0, 2): 1, (3, 1, 2): 1, (3, 1, 1): 1,
                         (3, 0, 1): GaussianRational(2, -1), (0, 0, 0): -1})


def found_form(seed: int) -> MeroForm:
    """A 1-form on C^3 with three coefficients p/q; each p and q has 1-3
    terms, exponents in {0,1,2}^3 and coefficients a + bi, a, b in [-3, 3]."""
    rng = random.Random(seed)

    def poly():
        while True:
            p = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)):
                              GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                              for _ in range(rng.randint(1, 3))})
            if not p.is_zero():
                return p

    return MeroForm(3, 1, {(j,): RatFn(poly(), poly()) for j in range(3)})


class TestNormalFormIsReduction:
    """normal_form_on_hypersurface checked against the definition of a
    reduction modulo rho, not against another run of the code."""

    @settings(max_examples=40, deadline=None)
    @given(hypersurface_cases())
    def test_function(self, case):
        rho, var, c = case
        if gcd(c.den, rho).depends_on(var):
            with pytest.raises(ChartError):
                normal_form_on_hypersurface(MeroForm.function(c), rho, var)
            return
        nf = normal_form_on_hypersurface(MeroForm.function(c), rho, var)
        assert_reduces(c, nf.coeffs.get((), RatFn.zero(rho.nvars)), rho, var)

    def test_non_monic_chart(self):
        # drho = 0 on Y eliminates dz3: the dz_l coefficient of the form on Y
        # is c_l - (d rho/dz_l) c_3 / (d rho/dz3)
        rho, var = rho_found(), 2
        form = found_form(2)
        w = RatFn(rho.partial(var))
        # a kernel that normalises every coefficient operation took about
        # 15 s here, in gcds of ever larger operands
        t0 = time.process_time()
        nf = normal_form_on_hypersurface(form, rho, var)
        assert time.process_time() - t0 < 1.0
        assert set(nf.coeffs) <= {(0,), (1,)}
        for l in (0, 1):
            c = form.coeffs[(l,)] - RatFn(rho.partial(l)) * form.coeffs[(var,)] / w
            assert_reduces(c, nf.coeffs.get((l,), RatFn.zero(3)), rho, var)


# irreducible, and of positive degree in every variable, so that every
# variable is a chart
RHOS_EVERY_CHART = [RHO, Z1 * Z2 - ONE, Z1 * Z1 + Z2 * Z2 - ONE, Z1 * Z1 * Z2 + Z1 - Z2,
                    Y1 * Y1 - Y2 * Y3 - ONE3]


def poly_form(draw, nvars, degree):
    return MeroForm(nvars, degree, {idx: RatFn(draw(small_polys(nvars)))
                                    for idx in itertools.combinations(range(nvars), degree)})


@st.composite
def classes_on_hypersurface(draw):
    """(rho, var, other, omega, omega + drho ^ eta + rho theta): two
    representatives of one form on Y, with polynomial eta and theta."""
    rho = draw(st.sampled_from(RHOS_EVERY_CHART))
    n = rho.nvars
    var, other = draw(st.permutations(range(n)))[:2]
    degree = draw(st.integers(0, n - 1))
    den = draw(small_polys(n))
    assume(not den.is_zero())
    omega = poly_form(draw, n, degree).scale(RatFn(MultiPoly.const(n, 1), den))
    shifted = omega + poly_form(draw, n, degree).scale(RatFn(rho))
    if degree:
        shifted = shifted + MeroForm.d_of_poly(rho).wedge(poly_form(draw, n, degree - 1))
    return rho, var, other, omega, shifted


class TestCanonicalRepresentative:
    """A HypersurfaceForm holds one representative per form on Y: the ones
    built from omega, from omega + drho ^ eta + rho theta, and from omega
    read in another chart have equal `rep`s."""

    @settings(max_examples=40, deadline=None)
    @given(classes_on_hypersurface())
    def test_representatives_share_one_rep(self, case):
        rho, var, other, omega, shifted = case
        try:
            h = HypersurfaceForm(rho, var, omega)
        except ChartError:  # rho divides the denominator
            assume(False)
        moved = HypersurfaceForm(rho, var, HypersurfaceForm(rho, other, omega).rep)
        for g in (HypersurfaceForm(rho, var, shifted), moved):
            assert g.rep == h.rep
            assert g.equals(h) and h.equals(g)
        assert HypersurfaceForm(rho, other, shifted).equals(h)

    def test_chart_variable_must_occur_in_rho(self):
        with pytest.raises(ChartError):
            HypersurfaceForm(Z1 - ONE, 1, DZ1)

    def test_fields_cannot_be_assigned(self):
        # a new rep would skip the normalisation that equals and is_zero
        # rely on: rho itself is zero on Y
        rho = Z1 * Z1 - Z2
        h = HypersurfaceForm(rho, 0, MeroForm.function(RatFn(Z1)))
        with pytest.raises(FrozenInstanceError):
            h.rep = MeroForm.function(RatFn(rho))
        with pytest.raises(FrozenInstanceError):
            h.var = 1
        assert HypersurfaceForm(rho, 0, MeroForm.function(RatFn(rho))).is_zero()


class TestSimplePoleResidueForm:
    def setup_method(self):
        self.fd1 = prepare_denominator([(RHO, 1)], 0)
        self.pfd1 = partial_fractions(self.fd1)
        self.fd2 = prepare_denominator([(RHO, 1)], 1)
        self.pfd2 = partial_fractions(self.fd2)

    def test_chart_independence_parabola(self):
        omega = over(TOP, RHO)
        a1 = simple_pole_residue_form(omega, self.fd1, self.pfd1, 0)
        a2 = simple_pole_residue_form(omega, self.fd2, self.pfd2, 0)
        assert a2.rep == DZ1  # the raw chart-2 answer
        assert a1.equals(a2)
        assert a2.equals(a1)

    def test_dlog_gives_one(self):
        omega = dlog(RHO)
        a = simple_pole_residue_form(omega, self.fd1, self.pfd1, 0)
        assert a.rep == MeroForm.function(RatFn.one(2))

    def test_dimension_one_anchor(self):
        z = MultiPoly.variable(1, 0)
        fd = prepare_denominator([(z, 1)], 0)
        pfd = partial_fractions(fd)
        omega = MeroForm(1, 1, {(0,): RatFn(MultiPoly.const(1, 1), z)})
        a = simple_pole_residue_form(omega, fd, pfd, 0)
        assert a.rep == MeroForm.function(RatFn.one(1))

    def test_residue_form_closed_on_hypersurface(self):
        omega = over(TOP, RHO)
        a = simple_pole_residue_form(omega, self.fd1, self.pfd1, 0)
        assert a.d_on_hypersurface().is_zero()


class TestDOnHypersurface:
    def test_coordinate_on_parabola(self):
        # on Y = {z1^2 = z2}: 2 z1 dz1 = dz2, so d(z1)|_Y = dz2 / (2 z1)
        d = HypersurfaceForm(RHO, 0, MeroForm.function(RatFn(Z1))).d_on_hypersurface()
        want = HypersurfaceForm(RHO, 0, DZ2.scale(RatFn(ONE, 2 * Z1)))
        assert not d.is_zero()
        assert d.equals(want)

    def test_graph_is_ordinary_d_of_pullback(self):
        # on the graph Y = {z1 = z2 z3 + 1}, f|_Y is f(z2 z3 + 1, z2, z3)
        x1, x2, x3 = (MultiPoly.variable(3, i) for i in range(3))
        graph = x2 * x3 + MultiPoly.const(3, 1)
        rho = x1 - graph

        def f_at(a: MultiPoly) -> RatFn:
            return RatFn(a * a * x3 + x2, a + x2 * x2 + MultiPoly.const(3, 2))

        d = HypersurfaceForm(rho, 0, MeroForm.function(f_at(x1))).d_on_hypersurface()
        want = HypersurfaceForm(rho, 0, MeroForm.function(f_at(graph)).exterior_d())
        assert not f_at(graph).is_polynomial()
        assert d.rep.degree == 1 and not d.is_zero()
        assert d.equals(want)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_dd_zero_on_quadric(self, degree):
        # in C^4, so that d(d(1-form)) is a 3-form on the 3-fold Y, not
        # zero for degree reasons alone
        x = [MultiPoly.variable(4, i) for i in range(4)]
        one = MultiPoly.const(4, 1)
        rho = x[0] * x[0] - x[1] * x[2] - one
        if degree == 0:
            rep = MeroForm.function(RatFn(x[0] * x[1] ** 2 + x[3], x[2] + x[0] + 2 * one))
        else:
            rep = MeroForm(4, 1, {(0,): RatFn(x[1] * x[3]),
                                  (1,): RatFn(x[0] * x[2], x[3] + 3 * one),
                                  (3,): RatFn(x[0] ** 3 + x[1])})
        d = HypersurfaceForm(rho, 0, rep).d_on_hypersurface()
        assert not d.is_zero()
        assert d.d_on_hypersurface().is_zero()


class TestReducedResidue:
    def charts_for(self, factors, js=(0, 1)):
        charts = {}
        for j in js:
            fd = prepare_denominator(factors, j)
            charts[j] = (fd, partial_fractions(fd))
        return charts

    def test_parabola_top_form(self):
        omega = over(TOP, RHO)
        rr = reduced_residue(omega, self.charts_for([(RHO, 1)]))
        assert rr.s_descriptors == []
        by_var = {h.var: h for _, h in rr.components}
        assert by_var[1].rep == DZ1
        assert by_var[0].equals(by_var[1])

    def test_dlog_divisor_multiplicities(self):
        rho1, rho2 = Z1 - Z2, Z1 + Z2
        f = rho1 * rho2 ** 2
        omega = dlog(f)
        charts = self.charts_for([(rho1, 1), (rho2, 2)])
        rr = reduced_residue(omega, charts)
        assert divisor_coefficients(rr) == [
            (0, GaussianRational(1)), (1, GaussianRational(2))]

    def test_dlog_collision_divisor(self):
        # c-coefficients have poles on Z(B) yet the residue constants cancel
        f = Z1 * (Z1 - Z2)
        omega = dlog(f)
        charts = self.charts_for([(Z1, 1), (Z1 - Z2, 1)], js=(0,))
        rr = reduced_residue(omega, charts)
        assert divisor_coefficients(rr) == [
            (0, GaussianRational(1)), (1, GaussianRational(1))]

    def test_scalar_multiple(self):
        c = GaussianRational(3, 2)
        omega = dlog(RHO).scale(RatFn.const(2, c))
        rr = reduced_residue(omega, self.charts_for([(RHO, 1)], js=(0,)))
        assert divisor_coefficients(rr) == [(0, c)]

    def test_holomorphic_empty_divisor(self):
        omega = MeroForm.d_of_poly(Z1 * Z2)
        rr = reduced_residue(omega, {})
        assert divisor_coefficients(rr) == []

    def test_double_pole_descriptor(self):
        omega = over(MeroForm.d_of_poly(RHO), RHO * RHO)
        rr = reduced_residue(omega, {0: (prepare_denominator([(RHO, 2)], 0),
                                          partial_fractions(prepare_denominator([(RHO, 2)], 0)))})
        (k, a), = [(k, h) for k, h in rr.components]
        assert a.is_zero()
        assert len(rr.s_descriptors) == 1
        d = rr.s_descriptors[0]
        assert (d.mu, d.l) == (1, 0)
        # gamma = (-1)^p e_1 / w restricted; p = 1, e_1 = -1 -> 1/w on Y
        w = RatFn(RHO.partial(0))
        want = HypersurfaceForm(RHO, 0, MeroForm.function(RatFn.one(2) / w))
        assert d.gamma.equals(want)

    def test_requires_closed(self):
        omega = DZ1.scale(RatFn(Z2, RHO))
        with pytest.raises(ValueError):
            reduced_residue(omega, self.charts_for([(RHO, 1)], js=(0,)))

    def test_non_closed_is_typed(self):
        omega = DZ1.scale(RatFn(Z2, RHO))
        with pytest.raises(NonClosedForm) as info:
            reduced_residue(omega, self.charts_for([(RHO, 1)], js=(0,)))
        assert isinstance(info.value, ResiduumError)

    def test_triple_pole_top_form(self):
        omega = over(TOP, RHO ** 3)
        fd = prepare_denominator([(RHO, 3)], 0)
        rr = reduced_residue(omega, {0: (fd, partial_fractions(fd))})
        assert {(d.mu, d.l) for d in rr.s_descriptors} == {(1, 0), (2, 0), (2, 1)}
        ld = rr.leray[(0, 0)]
        assert ld.recombined() == omega
