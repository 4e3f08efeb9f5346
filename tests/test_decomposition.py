"""Factored denominators, partial fractions, transverse operators."""

from fractions import Fraction

import numpy as np
import pytest

from residuum.bump import BumpFunction, embed_holomorphic
from residuum.decomposition import (
    PartialFractionDecomp,
    _verify_recombination,
    check_simple_pole_holomorphy,
    partial_fractions,
    prepare_denominator,
    residue_operator_data,
    transverse_operator,
)
from residuum.errors import (
    CoprimalityViolation,
    FactorFreeOfVariable,
    LeadingCoefficientVanishesAtOrigin,
    MultiplePole,
    NonSquarefreeFactor,
)
from residuum.polynomials import MultiPoly, discriminant, divides, gcd
from residuum.ratfn import RatFn
from residuum.scalars import GaussianRational

Z1 = MultiPoly.variable(2, 0)
Z2 = MultiPoly.variable(2, 1)
ONE = MultiPoly.const(2, 1)
PARABOLA = Z1 * Z1 - Z2

# the partial-fraction corpus exercised by the acceptance suite
CORPUS = {
    "parabola": [(PARABOLA, 1)],
    "cusp": [(Z1 * Z1 - Z2 * Z2 * Z2, 1)],
    "parabola_sq": [(PARABOLA, 2)],
    "two_lines": [(Z1, 1), (Z1 - Z2, 1)],
    "cross": [(Z1 - Z2, 1), (Z1 + Z2, 1)],
    # leading coefficients in both charts are not constant
    "skew_sq": [((ONE + Z2) * Z1 * Z1 - Z2, 2), ((2 * ONE - Z2) * Z1 + Z2 + ONE, 1)],
}
# every (input, distinguished variable) for which the corpus has a chart
CORPUS_CHARTS = [(name, var) for var in (0, 1) for name in sorted(CORPUS)
                 if (name, var) != ("two_lines", 1)]


class TestPrepareDenominator:
    def test_parabola_discriminant(self):
        fd = prepare_denominator([(PARABOLA, 1)], 0)
        assert fd.discriminant_b == 4 * Z2

    def test_two_lines_discriminant(self):
        fd = prepare_denominator([(Z1, 1), (Z1 - Z2, 1)], 0)
        # root-difference product (0 - z2)^2
        assert fd.discriminant_b == Z2 * Z2

    @pytest.mark.parametrize("name,var", CORPUS_CHARTS)
    def test_discriminant_b_is_discriminant_of_product(self, name, var):
        # reference: the discriminant of the reduced product, from its own
        # Sylvester matrix
        fd = prepare_denominator(CORPUS[name], var)
        reduced = ONE
        for f in fd.factors:
            reduced = reduced * f.rho
        assert fd.discriminant_b == discriminant(reduced, var)

    def test_duplicate_factor_rejected(self):
        with pytest.raises(CoprimalityViolation):
            prepare_denominator([(PARABOLA, 1), (PARABOLA, 1)], 0)

    def test_non_squarefree_rejected(self):
        with pytest.raises(NonSquarefreeFactor):
            prepare_denominator([(Z1 * Z1, 1)], 0)

    def test_factor_free_of_variable(self):
        with pytest.raises(FactorFreeOfVariable):
            prepare_denominator([(Z1, 1)], 1)

    def test_leading_coefficient_at_origin(self):
        with pytest.raises(LeadingCoefficientVanishesAtOrigin):
            prepare_denominator([(Z2 * Z1 + Z2, 1)], 0)


class TestPartialFractions:
    def test_two_lines(self):
        fd = prepare_denominator(CORPUS["two_lines"], 0)
        pfd = partial_fractions(fd)
        inv_z2 = RatFn(ONE, Z2)
        assert pfd.coefficient(0, 1) == -inv_z2
        assert pfd.coefficient(1, 1) == inv_z2

    def test_single_factor(self):
        fd = prepare_denominator(CORPUS["parabola"], 0)
        pfd = partial_fractions(fd)
        assert pfd.coefficient(0, 1) == RatFn.one(2)

    def test_pure_power(self):
        fd = prepare_denominator(CORPUS["parabola_sq"], 0)
        pfd = partial_fractions(fd)
        assert pfd.coefficient(0, 2) == RatFn.one(2)
        assert pfd.coefficient(0, 1).is_zero()

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_recombination_j1(self, name):
        fd = prepare_denominator(CORPUS[name], 0)
        pfd = partial_fractions(fd)  # recombination verified internally
        total = RatFn.zero(2)
        for k, mu, c in pfd.entries:
            total = total + c / RatFn(fd.factors[k].rho ** mu)
        assert total == RatFn(ONE, fd.product())

    @pytest.mark.parametrize("name", ["parabola", "cusp", "parabola_sq", "cross", "skew_sq"])
    def test_recombination_j2_where_defined(self, name):
        fd = prepare_denominator(CORPUS[name], 1)
        pfd = partial_fractions(fd)
        total = RatFn.zero(2)
        for k, mu, c in pfd.entries:
            total = total + c / RatFn(fd.factors[k].rho ** mu)
        assert total == RatFn(ONE, fd.product())

    def test_two_lines_undefined_for_j2(self):
        with pytest.raises(FactorFreeOfVariable):
            prepare_denominator(CORPUS["two_lines"], 1)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_denominators_divide_discriminant_power(self, name):
        fd = prepare_denominator(CORPUS[name], 0)
        pfd = partial_fractions(fd)
        bound = sum(f.multiplicity for f in fd.factors)
        b_pow = fd.discriminant_b ** bound
        for _, _, c in pfd.entries:
            assert divides(c.den, b_pow)


class TestRecombinationCheck:
    """The polynomial recombination check rejects every wrong decomposition
    of 1/(p^3 l^2), p = y1^2 - y2, l = y1 - y3 - 1, in y1."""

    @pytest.fixture(scope="class")
    def decomposition(self):
        y1, y2, y3 = (MultiPoly.variable(3, i) for i in range(3))
        fd = prepare_denominator([(y1 * y1 - y2, 3), (y1 - y3 - MultiPoly.const(3, 1), 2)], 0)
        return fd, partial_fractions(fd)

    def test_entries_of_both_factors_present(self, decomposition):
        _, pfd = decomposition
        assert {(k, mu) for k, mu, _ in pfd.entries} == {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)}

    @pytest.mark.parametrize("perturb", ["scale_by_1+i", "add_1/den"])
    def test_each_perturbed_entry_is_rejected(self, decomposition, perturb):
        fd, pfd = decomposition
        _verify_recombination(pfd, fd)
        unit = RatFn.const(3, GaussianRational(1, 1))
        for j, (k, mu, c) in enumerate(pfd.entries):
            if perturb == "scale_by_1+i":
                bad = c * unit
            else:
                bad = c + RatFn(MultiPoly.const(3, 1), c.den)
            entries = pfd.entries[:j] + ((k, mu, bad),) + pfd.entries[j + 1:]
            with pytest.raises(ArithmeticError):
                _verify_recombination(PartialFractionDecomp(pfd.var, entries,
                                                            pfd.polynomial_part), fd)

    def test_nonzero_polynomial_part_is_rejected(self, decomposition):
        fd, pfd = decomposition
        with pytest.raises(ArithmeticError):
            _verify_recombination(PartialFractionDecomp(pfd.var, pfd.entries,
                                                        RatFn.one(3)), fd)


class TestHolomorphyReports:
    def test_single_factor_holomorphic(self):
        for name in ("parabola", "cusp"):
            fd = prepare_denominator(CORPUS[name], 0)
            reports = check_simple_pole_holomorphy(partial_fractions(fd), fd)
            assert all(r.holomorphic_at_origin for r in reports)

    def test_collision_case_not_holomorphic(self):
        fd = prepare_denominator(CORPUS["two_lines"], 0)
        reports = check_simple_pole_holomorphy(partial_fractions(fd), fd)
        assert [r.holomorphic_at_origin for r in reports] == [False, False]
        assert reports[0].reduced_denominator == Z2

    def test_requires_simple_poles(self):
        fd = prepare_denominator(CORPUS["parabola_sq"], 0)
        with pytest.raises(MultiplePole):
            check_simple_pole_holomorphy(partial_fractions(fd), fd)


# ---------------------------------------------------------------------------
# transverse operators
# ---------------------------------------------------------------------------

def fiber_derivative_oracle(h_eval, rho, var, z0, s, r=5e-2, levels=4):
    """s-th holomorphic transverse derivative at z0 by Fourier extraction.

    Moves along the fiber z_var = zeta(rho') with rho' on small circles,
    extracts the e^{i s theta} mode, Richardson-extrapolates in r^2.  Uses
    only point evaluation, fully independent of the symbolic betas.
    """
    import math

    z0 = np.array(z0, dtype=complex)
    w = complex(rho.partial(var).eval_numeric(z0))
    n_theta = 128
    vals = []
    for lev in range(levels):
        rr = r / 2 ** lev
        acc = 0j
        for t in range(n_theta):
            th = 2 * math.pi * t / n_theta
            target = complex(rho.eval_numeric(z0)) + rr * np.exp(1j * th)
            z = z0.copy()
            for _ in range(80):  # Newton in the fiber variable
                f = complex(rho.eval_numeric(z)) - target
                df = complex(rho.partial(var).eval_numeric(z))
                step = f / df
                z[var] -= step
                if abs(step) < 1e-16 * (1 + abs(z[var])):
                    break
            acc += h_eval(z) * np.exp(-1j * s * th)
        vals.append(math.factorial(s) * acc / n_theta / rr ** s)
    fact = 4.0
    for _ in range(levels - 1):
        vals = [(fact * b - a) / (fact - 1) for a, b in zip(vals, vals[1:])]
        fact *= 4.0
    return vals[0]


class TestTransverseOperator:
    def test_order_zero_is_identity(self):
        op = transverse_operator(PARABOLA, 0, 0)
        w = RatFn(PARABOLA.partial(0))
        h = RatFn(Z1 ** 3 + Z2, Z1 - 2 * Z2 + ONE)
        assert op.apply_ratfn(h, w) == h
        assert op.test_side == ((0, RatFn.one(2)),)

    def test_order_one_is_plain_derivative(self):
        op = transverse_operator(PARABOLA, 0, 1)
        assert op.betas == (RatFn.one(2),)

    def test_order_two_parabola_exact(self):
        # substitution oracle: h = z1^3, z1 = sqrt(rho + z2)
        # d^2 h/drho^2 = (3/2)(1/2) (rho+z2)^(-1/2) = 3/(4 z1)
        op = transverse_operator(PARABOLA, 0, 2)
        w = RatFn(PARABOLA.partial(0))
        h = RatFn(Z1 ** 3)
        got = op.apply_ratfn(h, w)
        assert got == RatFn(MultiPoly.const(2, 3), 4 * Z1)

    @pytest.mark.parametrize("a,s", [(5, 2), (4, 3), (7, 3), (3, 2)])
    def test_monomial_substitution_oracle(self, a, s):
        # h = z1^a on rho = z1^2 - z2:  d^s/drho^s (rho+z2)^(a/2)
        #   = prod_{i<s} (a/2 - i) * z1^(a-2s)
        op = transverse_operator(PARABOLA, 0, s)
        w = RatFn(PARABOLA.partial(0))
        got = op.apply_ratfn(RatFn(Z1 ** a), w)
        coeff = Fraction(1)
        for i in range(s):
            coeff *= Fraction(a, 2) - i
        if a - 2 * s >= 0:
            want = RatFn(MultiPoly.const(2, GaussianRational(coeff)) * Z1 ** (a - 2 * s))
        else:
            want = RatFn(MultiPoly.const(2, GaussianRational(coeff)), Z1 ** (2 * s - a))
        assert got == want

    def test_linear_unit_coefficient(self):
        rho = Z1 - Z2 * Z2
        op = transverse_operator(rho, 0, 3)
        assert [b for b in op.betas] == [RatFn.zero(2), RatFn.zero(2), RatFn.one(2)]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_identity_on_bump_data(self, s):
        # the stored test-side form, sum_a c_a d^a h, vs Fourier-extraction oracle
        rng = np.random.default_rng(42 + s)
        poly = embed_holomorphic(Z1 * Z1 * Z1 + 2 * Z2) + MultiPoly.variable(4, 3) ** 2
        h = BumpFunction.from_poly(2, Fraction(4), poly)
        op = transverse_operator(PARABOLA, 0, s)
        w = PARABOLA.partial(0)
        derivs = [h]
        for _ in range(s):
            derivs.append(derivs[-1].dz(0))

        def lhs(z):
            return sum(complex(c.eval_numeric(z)) * complex(derivs[a].eval_numeric(z))
                       for a, c in op.test_side)

        checked = 0
        for _ in range(40):
            z0 = rng.uniform(0.4, 1.2, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            if abs(complex(w.eval_numeric(z0))) < 0.5:
                continue
            want = fiber_derivative_oracle(
                lambda z: complex(h.eval_numeric(z)), PARABOLA, 0, z0, s)
            got = lhs(np.array(z0))
            # abs floor covers the measured ~3e-9 noise of the oracle itself
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 10


IDENTITY = ((0, RatFn.one(2)),)


class TestResidueOperatorTable:
    def test_simple_pole_reduction(self):
        fd = prepare_denominator(CORPUS["parabola"], 0)
        rod = residue_operator_data(partial_fractions(fd), fd)
        entry = rod.entry(0, 1, 0)
        w = RatFn(PARABOLA.partial(0))
        assert entry.g == RatFn.one(2) / w
        assert entry.op == IDENTITY

    def test_double_pole_keys(self):
        fd = prepare_denominator(CORPUS["parabola_sq"], 0)
        rod = residue_operator_data(partial_fractions(fd), fd)
        assert set(rod.entries) == {(0, 1, 0), (0, 2, 0), (0, 2, 1)}
        assert rod.entry(0, 2, 1).op == IDENTITY  # D_0 at l = mu-1
        # D_1 = w^-1 beta_1 d, beta_1 = 1
        w = RatFn(PARABOLA.partial(0))
        assert rod.entry(0, 2, 0).op == ((1, RatFn.one(2) / w),)

    def test_double_pole_weights(self):
        fd = prepare_denominator(CORPUS["parabola_sq"], 0)
        rod = residue_operator_data(partial_fractions(fd), fd)
        w = RatFn(PARABOLA.partial(0))
        # c_2 = 1: g_0^2 = c/w^2, g_1^2 = w^-1 d/dz1 (c/w)
        assert rod.entry(0, 2, 0).g == RatFn.one(2) / (w * w)
        assert rod.entry(0, 2, 1).g == (RatFn.one(2) / w).partial(0) / w

    def test_triple_pole_binomial(self):
        fd = prepare_denominator([(PARABOLA, 3)], 0)
        rod = residue_operator_data(partial_fractions(fd), fd)
        w = RatFn(PARABOLA.partial(0))
        c = RatFn.one(2)
        # mu=3, l=1: binom(2,1) * w^-2 * D_1(c/w)
        want = 2 * (c / w).partial(0) / (w * w)
        assert rod.entry(0, 3, 1).g == want

    def test_signed_operator_coefficients(self):
        fd = prepare_denominator([(PARABOLA, 3)], 0)
        rod = residue_operator_data(partial_fractions(fd), fd)
        # mu=3, l=0: s=2.  The recursion from beta^(1) = (1,) gives
        # beta^(2) = (w * 0 - 1 * w' * 1, w * 1) = (-w', w), so D_2 is
        # w^-3 (-w' d + w d^2)
        w = RatFn(PARABOLA.partial(0))
        wp = w.partial(0)
        assert rod.entry(0, 3, 0).op == ((1, -wp / w ** 3), (2, RatFn.one(2) / w ** 2))
        assert rod.entry(0, 3, 1).op == ((1, RatFn.one(2) / w),)
        assert rod.entry(0, 3, 2).op == IDENTITY
