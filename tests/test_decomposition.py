"""Factored denominators, partial fractions, transverse operators."""

from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from residuum import decomposition, ratfn
from residuum.bump import BumpFunction, embed_holomorphic
from residuum.decomposition import (
    PartialFractionDecomp,
    _verify_recombination,
    partial_fractions,
    prepare_denominator,
    residue_operator_data,
    transverse_derivatives,
    transverse_operator,
)
from residuum.errors import (
    ChartError,
    CoprimalityViolation,
    DenominatorError,
    FactorFreeOfVariable,
    NonSquarefreeFactor,
)
from residuum.polynomials import MultiPoly, discriminant, divides, gcd, resultant
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
        assert discriminant(PARABOLA, 0) == 4 * Z2

    def test_two_lines_discriminant(self):
        # root-difference product (0 - z2)^2
        assert discriminant(Z1 * (Z1 - Z2), 0) == Z2 * Z2

    @pytest.mark.parametrize("name,var", CORPUS_CHARTS)
    def test_discriminant_b_is_discriminant_of_product(self, name, var):
        # B = prod_k disc(rho_k) prod_(i<k) res(rho_i, rho_k)^2, from the
        # factors one at a time, is the discriminant of the reduced product
        fd = prepare_denominator(CORPUS[name], var)
        rhos = [f.rho for f in fd.factors]
        b, reduced = ONE, ONE
        for k, rho in enumerate(rhos):
            if rho.degree_in(var) > 1:
                b = b * discriminant(rho, var)
            for other in rhos[:k]:
                b = b * resultant(other, rho, var) ** 2
            reduced = reduced * rho
        assert b == discriminant(reduced, var)

    def test_duplicate_factor_rejected(self):
        with pytest.raises(CoprimalityViolation):
            prepare_denominator([(PARABOLA, 1), (PARABOLA, 1)], 0)

    def test_non_squarefree_rejected(self):
        with pytest.raises(NonSquarefreeFactor):
            prepare_denominator([(Z1 * Z1, 1)], 0)

    def test_factor_free_of_variable(self):
        with pytest.raises(FactorFreeOfVariable):
            prepare_denominator([(Z1, 1)], 1)

    @pytest.mark.parametrize("rho,var", [(Z2 * (Z1 + ONE), 0), ((Z2 - ONE) * (Z1 + ONE), 0),
                                         ((Z2 - ONE) * (Z1 + ONE), 1)],
                             ids=["z2(z1+1)@0", "(z2-1)(z1+1)@0", "(z2-1)(z1+1)@1"])
    def test_factor_with_a_factor_free_of_variable(self, rho, var):
        # the chart would see only the component that depends on its
        # variable and silently drop the other one
        with pytest.raises(FactorFreeOfVariable):
            prepare_denominator([(rho, 1)], var)

    @pytest.mark.parametrize("var", [2, -1])
    def test_chart_variable_out_of_range(self, var):
        # 2 indexed past the exponents, and -1 read z2 into a corrupt chart
        with pytest.raises(ChartError):
            prepare_denominator([(PARABOLA, 1), (Z1 - Z2, 1)], var)

    @pytest.mark.parametrize("mult", [0, -1, 1.5, Fraction(5, 2)])
    def test_multiplicity_not_an_integer_at_least_one(self, mult):
        # 1.5 and 5/2 would otherwise be truncated to 1 and 2
        with pytest.raises(DenominatorError):
            prepare_denominator([(PARABOLA, mult)], 0)


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
        b_pow = discriminant(prod((f.rho for f in fd.factors), start=ONE), 0) ** bound
        for _, _, c in pfd.entries:
            assert divides(c.den, b_pow)


def verify_recombination(pfd, fd):
    _verify_recombination(pfd, fd, [f.rho ** f.multiplicity for f in fd.factors])


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
        verify_recombination(pfd, fd)
        unit = RatFn.const(3, GaussianRational(1, 1))
        for j, (k, mu, c) in enumerate(pfd.entries):
            if perturb == "scale_by_1+i":
                bad = c * unit
            else:
                bad = c + RatFn(MultiPoly.const(3, 1), c.den)
            entries = pfd.entries[:j] + ((k, mu, bad),) + pfd.entries[j + 1:]
            with pytest.raises(ArithmeticError):
                verify_recombination(PartialFractionDecomp(pfd.var, entries), fd)


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


def derivatives_of(h: RatFn, rho: MultiPoly, order: int, var: int = 0):
    """[D_0 h, ..., D_order h] through `transverse_derivatives`, which takes
    f = h w and returns unreduced (num, den) pairs."""
    w = rho.partial(var)
    return [RatFn(num, den) for num, den in
            transverse_derivatives(h * RatFn(w), w, order + 1, var)]


class TestTransverseOperator:
    def test_order_zero_is_identity(self):
        tower = transverse_operator(PARABOLA, 0, 0)
        h = RatFn(Z1 ** 3 + Z2, Z1 - 2 * Z2 + ONE)
        assert len(tower) == 1
        assert derivatives_of(h, PARABOLA, 0) == [h]
        assert tower[0] == ((0, RatFn.one(2)),)

    def test_order_one_is_plain_derivative(self):
        op = transverse_operator(PARABOLA, 0, 1)[1]
        w = RatFn(PARABOLA.partial(0))
        # beta_a = c_a w^(2s-1), s = 1
        assert tuple(c * w for _, c in op) == (RatFn.one(2),)

    @pytest.mark.parametrize("rho", [PARABOLA, Z1 * Z1 - Z2 ** 3, (ONE + Z2) * Z1 * Z1 - Z2])
    def test_tower_is_the_operators_of_each_order(self, rho):
        tower = transverse_operator(rho, 0, 4)
        # the order of D_s is its highest derivative, 0 for D_0 = ((0, 1),)
        assert [op[-1][0] for op in tower] == [0, 1, 2, 3, 4]
        for s in range(5):
            assert transverse_operator(rho, 0, s) == tower[:s + 1]
            # c_a = beta_a/w^(2s-1) for a = 1..s, as D_s alone gives it
            assert tower[s] == reference_operator(rho, 0, s)[1]

    def test_order_two_parabola_exact(self):
        # substitution oracle: h = z1^3, z1 = sqrt(rho + z2)
        # d^2 h/drho^2 = (3/2)(1/2) (rho+z2)^(-1/2) = 3/(4 z1)
        h = RatFn(Z1 ** 3)
        got = derivatives_of(h, PARABOLA, 2)
        assert got == [h, RatFn(3 * Z1, 2 * ONE), RatFn(MultiPoly.const(2, 3), 4 * Z1)]

    @pytest.mark.parametrize("a,s", [(5, 2), (4, 3), (7, 3), (3, 2)])
    def test_monomial_substitution_oracle(self, a, s):
        # h = z1^a on rho = z1^2 - z2:  d^s/drho^s (rho+z2)^(a/2)
        #   = prod_{i<s} (a/2 - i) * z1^(a-2s)
        # every order of the tower, 0..s, from one call
        got = derivatives_of(RatFn(Z1 ** a), PARABOLA, s)
        assert len(got) == s + 1
        coeff = Fraction(1)
        for t in range(s + 1):
            if a - 2 * t >= 0:
                want = RatFn(MultiPoly.const(2, GaussianRational(coeff)) * Z1 ** (a - 2 * t))
            else:
                want = RatFn(MultiPoly.const(2, GaussianRational(coeff)), Z1 ** (2 * t - a))
            assert got[t] == want
            coeff *= Fraction(a, 2) - t

    def test_linear_unit_coefficient(self):
        rho = Z1 - Z2 * Z2
        op = transverse_operator(rho, 0, 3)[3]
        w = RatFn(rho.partial(0))
        # beta_a = c_a w^(2s-1), s = 3
        assert [c * w ** 5 for _, c in op] == [RatFn.zero(2), RatFn.zero(2), RatFn.one(2)]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_identity_on_bump_data(self, s):
        # the stored test-side form, sum_a c_a d^a h, vs Fourier-extraction oracle
        rng = np.random.default_rng(42 + s)
        poly = embed_holomorphic(Z1 * Z1 * Z1 + 2 * Z2) + MultiPoly.variable(4, 3) ** 2
        h = BumpFunction.from_poly(2, Fraction(4), poly)
        op = transverse_operator(PARABOLA, 0, s)[s]
        w = PARABOLA.partial(0)
        derivs = [h]
        for _ in range(s):
            derivs.append(derivs[-1].dz(0))

        def lhs(z):
            return sum(complex(c.eval_numeric(z)) * complex(derivs[a].eval_numeric(z))
                       for a, c in op)

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


# ---------------------------------------------------------------------------
# the operator table against the construction it replaced: each D_s from
# its own run of the recursion, and one derivative chain per l, with every
# derivative by the unreduced quotient rule
# ---------------------------------------------------------------------------

def quotient_rule(h: RatFn, var: int) -> RatFn:
    return RatFn(h.num.partial(var) * h.den - h.num * h.den.partial(var), h.den * h.den)


def reference_operator(rho: MultiPoly, var: int, order: int):
    """(betas, test side) of D_order alone, by its own beta recursion."""
    one = RatFn.one(rho.nvars)
    if order == 0:
        return (), ((0, one),)
    w = rho.partial(var)
    wp = w.partial(var)
    zero = MultiPoly.zero(rho.nvars)
    betas = [MultiPoly.const(rho.nvars, 1)]
    for s in range(1, order):
        betas = [w * (betas[a - 1] if a <= s else zero).partial(var)
                 - (2 * s - 1) * wp * (betas[a - 1] if a <= s else zero)
                 + w * (betas[a - 2] if a >= 2 else zero)
                 for a in range(1, s + 2)]
    betas = tuple(RatFn(b) for b in betas)
    scale = RatFn(w) ** (2 * order - 1)
    return betas, tuple((a, b / scale) for a, b in enumerate(betas, 1))


def reference_apply(betas, order: int, var: int, h: RatFn, w: RatFn) -> RatFn:
    if order == 0:
        return h
    acc, d = RatFn.zero(h.nvars), h
    for a in range(1, order + 1):
        d = quotient_rule(d, var)
        acc = acc + betas[a - 1] * d
    return acc / w ** (2 * order - 1)


def reference_operator_table(pfd, fd):
    var, out = fd.var, {}
    for k, f in enumerate(fd.factors):
        w = RatFn(f.rho.partial(var))
        ops = [reference_operator(f.rho, var, s) for s in range(f.multiplicity)]
        for mu in range(1, f.multiplicity + 1):
            target = pfd.coefficient(k, mu) / w
            for l in range(mu):
                g = reference_apply(ops[l][0], l, var, target, w)
                if l < mu - 1:
                    g = g * comb(mu - 1, l) / w ** (2 * (mu - l) - 3)
                out[(k, mu, l)] = (g, ops[mu - 1 - l][1])
    return out


Y1, Y2, Y3 = (MultiPoly.variable(3, i) for i in range(3))
P3, LINE3 = Y1 * Y1 - Y2, Y1 - Y3 - MultiPoly.const(3, 1)
TABLE_INPUTS = (
    [(f"parabola^{r}", [(PARABOLA, r)], (0, 1)) for r in range(1, 5)]
    + [(f"cusp^{r}", [(Z1 * Z1 - Z2 ** 3, r)], (0, 1)) for r in range(1, 5)]
    + [("skew_sq", CORPUS["skew_sq"], (0, 1)),
       ("rho1*rho2^2", [(Z1 - Z2, 1), (Z1 + Z2, 2)], (0, 1)),
       ("two_lines", CORPUS["two_lines"], (0,)),
       ("p*l", [(P3, 1), (LINE3, 1)], (0,)),
       ("p^2*l", [(P3, 2), (LINE3, 1)], (0,)),
       ("p^3*l^2", [(P3, 3), (LINE3, 2)], (0,)),
       # w = 1 + z2 is free of z1; for z1 z2 - 1, w = z2 in chart 0 and z1
       # in chart 1, each vanishing at the origin
       ("((1+z2)z1-1)^3", [((ONE + Z2) * Z1 - ONE, 3)], (0,)),
       ("(z1z2-1)^3", [(Z1 * Z2 - ONE, 3)], (0, 1)),
       # w = 1 is constant in chart 0, w = -2 z2 in chart 1
       ("(z1-z2^2)^3", [(Z1 - Z2 ** 2, 3)], (0, 1))])


@pytest.mark.parametrize("factors,charts", [t[1:] for t in TABLE_INPUTS],
                         ids=[t[0] for t in TABLE_INPUTS])
def test_operator_table_matches_one_order_at_a_time(factors, charts):
    for var in charts:
        fd = prepare_denominator(factors, var)
        pfd = partial_fractions(fd)
        rod = residue_operator_data(pfd, fd)
        want = reference_operator_table(pfd, fd)
        assert list(rod.entries) == list(want)
        for key, (g, op) in want.items():
            assert rod.entry(*key).g == g, (var, key)
            assert rod.entry(*key).op == op, (var, key)


# ---------------------------------------------------------------------------
# transverse_derivatives against a plain quotient-rule chain: the fibre
# derivative D_(s+1) h = w^-1 d(D_s h)/dz_var, and the tower's operators
# applied to the plain derivatives, sum_a c_a d^a h/dz_var^a, both by
# RatFn.partial
# ---------------------------------------------------------------------------

small = st.integers(-3, 3)


def _term(var, i, j):
    """The exponent of z_var^i z_other^j."""
    return (i, j) if var == 0 else (j, i)


@st.composite
def chain_inputs(draw):
    """(rho, var, f, order): rho of total degree <= 3 and degree d >= 1 in
    z_var, whose leading coefficient a + b z_other may be non-constant;
    f = num/den with den free of z_var or linear in it."""
    var = draw(st.sampled_from([0, 1]))
    d = draw(st.integers(1, 3))
    a, b = draw(small), draw(small) if d < 3 else 0
    assume(a or b)
    terms = {_term(var, d, 0): a, _term(var, d, 1): b}
    for i in range(d):
        for j in range(4 - i):
            terms[_term(var, i, j)] = draw(small)
    rho = MultiPoly(2, {e: GaussianRational(c) for e, c in terms.items() if c})
    other = MultiPoly.variable(2, 1 - var)
    num = MultiPoly(2, {_term(var, i, j): GaussianRational(draw(small))
                        for i in range(3) for j in range(3 - i)})
    assume(not num.is_zero())
    den = ONE * draw(small.filter(bool)) + other * draw(small)
    if draw(st.booleans()):  # a denominator that depends on z_var
        den = den + MultiPoly.variable(2, var) * draw(small.filter(bool))
    return rho, var, RatFn(num, den), draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(chain_inputs())
# a denominator that depends on z_var and a non-constant lc_var(rho), which
# no benchmark input reaches
@example(((ONE + Z2) * Z1 * Z1 - Z2, 0, RatFn(Z1 * Z1, ONE + Z1), 3))
def test_transverse_derivatives_match_the_quotient_rule_chain(inputs):
    rho, var, f, order = inputs
    w = rho.partial(var)
    tower = transverse_operator(rho, var, order)
    pairs = transverse_derivatives(f, w, order + 1, var)
    # the denominators out * w^(2s+1) * F^(s+1), F = f.den only when it
    # depends on z_var
    big_f, out = (f.den, ONE) if f.den.depends_on(var) else (ONE, f.den)
    assert [den for _, den in pairs] == [out * w ** (2 * s + 1) * big_f ** (s + 1)
                                         for s in range(order + 1)]
    got = [RatFn(num, den) for num, den in pairs]
    h = f / RatFn(w)
    fibre, plain = [h], [h]
    for _ in range(order):
        fibre.append(fibre[-1].partial(var) / RatFn(w))
        plain.append(plain[-1].partial(var))
    assert got == fibre
    for s, op in enumerate(tower):
        assert got[s] == sum((c * plain[a] for a, c in op), RatFn.zero(2))


# ---------------------------------------------------------------------------
# the recombination check on non-monic and two-factor inputs
# ---------------------------------------------------------------------------

RECOMBINATION_INPUTS = [("skew_sq", 0), ("skew_sq", 1), ("cross", 0), ("cross", 1),
                        ("rho1*rho2^2", 0)]


def _corpus_factors(name):
    more = {"rho1*rho2^2": [(Z1 - Z2, 1), (Z1 + Z2, 2)], "p^2*l": [(P3, 2), (LINE3, 1)],
            "p^3*l^2": [(P3, 3), (LINE3, 2)]}
    return more[name] if name in more else CORPUS[name]


@pytest.mark.parametrize("name,var", RECOMBINATION_INPUTS)
def test_recombination_rejects_a_perturbed_coefficient(name, var):
    fd = prepare_denominator(_corpus_factors(name), var)
    pfd = partial_fractions(fd)
    unit = RatFn.const(2, GaussianRational(1, 1))
    for j, (k, mu, c) in enumerate(pfd.entries):
        for bad in (c * unit, c + RatFn(Z2, c.den)):
            entries = pfd.entries[:j] + ((k, mu, bad),) + pfd.entries[j + 1:]
            with pytest.raises(ArithmeticError):
                verify_recombination(PartialFractionDecomp(var, entries), fd)


def _drop_pseudo_division_multiplier(monkeypatch):
    """Make ratfn.uni_divmod, which uni_digits reads, forget the multiplier
    l of l p = quot q + rem."""
    kernel = ratfn.uni_divmod

    def without_multiplier(p, q, v):
        _, quot, rem = kernel(p, q, v)
        return MultiPoly.const(p.nvars, 1), quot, rem

    monkeypatch.setattr(ratfn, "uni_divmod", without_multiplier)


@pytest.mark.parametrize("var", [0, 1])
def test_recombination_rejects_a_dropped_pseudo_division_multiplier(monkeypatch, var):
    # skew_sq's factors have non-constant leading coefficients in both charts,
    # so a kernel that forgets the multiplier must fail: in the digit
    # recurrence's own exact division or in the recombination check
    fd = prepare_denominator(CORPUS["skew_sq"], var)
    assert not all(f.rho.leading_coefficient_in(var).is_constant() for f in fd.factors)
    _drop_pseudo_division_multiplier(monkeypatch)
    with pytest.raises(ArithmeticError, match="recombination|certificate"):
        partial_fractions(fd)


def test_digit_certificate_rejects_a_dropped_pseudo_division_multiplier(monkeypatch):
    # skew_sq's squared factor in z2: rho = (z1^2 - 1) z2 + z1^2, not monic
    (rho, m), (other, _) = CORPUS["skew_sq"]
    assert not rho.leading_coefficient_in(1).is_constant()
    assert len(ratfn.uni_digits(ONE, other, rho, m, 1)) == m
    _drop_pseudo_division_multiplier(monkeypatch)
    with pytest.raises(ArithmeticError, match="certificate"):
        ratfn.uni_digits(ONE, other, rho, m, 1)


@pytest.mark.parametrize("name,var", RECOMBINATION_INPUTS + [("p^3*l^2", 0)])
def test_partial_fractions_inverts_modulo_each_factor_not_its_power(monkeypatch, name, var):
    moduli = []
    kernel = ratfn.uni_mod_inverse

    def recording(a, m, v):
        moduli.append(m)
        return kernel(a, m, v)

    monkeypatch.setattr(ratfn, "uni_mod_inverse", recording)
    fd = prepare_denominator(_corpus_factors(name), var)
    partial_fractions(fd)
    assert moduli == [f.rho for f in fd.factors]


def _with_a_coprime_denominator(pfd):
    """pfd with the entry c of lowest denominator degree split into c - h/C
    and h/C, where C is prime to every denominator of pfd: the same sum, and
    no denominator is a multiple of all the others."""
    nvars = pfd.entries[0][2].nvars
    y2, y3 = MultiPoly.variable(nvars, 1), MultiPoly.variable(nvars, 2)
    part = RatFn(y2, y3 + MultiPoly.const(nvars, 2))
    j = min(range(len(pfd.entries)), key=lambda i: sum(pfd.entries[i][2].den.leading_exponent()))
    k, mu, c = pfd.entries[j]
    return PartialFractionDecomp(
        pfd.var, pfd.entries[:j] + ((k, mu, c - part), (k, mu, part)) + pfd.entries[j + 1:])


# p^3*l^2 in z1: the digit denominators are B^4, B^3 and B^2 for one B
@pytest.mark.parametrize("name", ["p^3*l^2", "p^2*l"])
def test_recombination_over_a_common_multiple(monkeypatch, name):
    var = 0
    fd = prepare_denominator(_corpus_factors(name), var)
    pfd = partial_fractions(fd)
    dens = {c.den for _, _, c in pfd.entries}
    top = max(dens, key=lambda p: sum(p.leading_exponent()))
    assert len(dens) > 1 and all(divides(d, top) for d in dens)
    # the check clears denominators by the largest one, not by their product
    dividends = []
    kernel = decomposition.exact_divide
    monkeypatch.setattr(decomposition, "exact_divide",
                        lambda p, q: dividends.append(p) or kernel(p, q))
    verify_recombination(pfd, fd)
    assert dividends[-1] == top
    monkeypatch.undo()
    split = _with_a_coprime_denominator(pfd)
    unit = RatFn.const(fd.nvars, GaussianRational(1, 1))
    y2 = MultiPoly.variable(fd.nvars, 1)
    for good in (pfd, split, PartialFractionDecomp(var, split.entries[::-1])):
        verify_recombination(good, fd)
        for j, (k, mu, c) in enumerate(good.entries):
            for bad in (c * unit, c + RatFn(y2, c.den)):
                entries = good.entries[:j] + ((k, mu, bad),) + good.entries[j + 1:]
                with pytest.raises(ArithmeticError):
                    verify_recombination(PartialFractionDecomp(var, entries), fd)


def test_recombination_rejects_an_entry_out_of_range():
    fd = prepare_denominator(CORPUS["parabola_sq"], 0)
    pfd = partial_fractions(fd)
    with pytest.raises(ArithmeticError):
        verify_recombination(PartialFractionDecomp(0, pfd.entries + ((0, 3, RatFn.one(2)),)),
                             fd)
