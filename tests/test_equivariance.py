"""Coordinate changes as an exact oracle.

Leray's residue commutes with biholomorphic maps (Leray, Bull. SMF 87,
1959): for an invertible affine map phi(z) = M z + a, the residue of
phi*omega on phi^-1(Y) is phi* of the residue of omega on Y.  Nothing in
that statement names a point, so a chart rule tied to the origin would show
up here as an input that one side accepts and the other rejects.

* Simple poles: `simple_pole_residue_form` of phi*omega equals, by
  `HypersurfaceForm.equals`, phi* of the residue form of omega, in every
  pair of charts that `prepare_denominator` accepts; for degree-1 forms the
  divisor constants are equal exactly.  M is drawn in SL_n(Z[i]) as a
  product of elementary matrices with small Gaussian-integer entries, and a
  is a small Gaussian-rational vector.
* Multiple poles: a translation commutes with d/dz_var, so the partial
  fractions and the residue-operator table of the translated factors are
  those of the factors, translated: every digit and weight is the
  substituted one, exactly.  The classes of multiple-pole residues wait for
  the Leray descent.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from residuum.decomposition import partial_fractions, prepare_denominator, residue_operator_data
from residuum.errors import DenominatorError
from residuum.forms import MeroForm
from residuum.leray import HypersurfaceForm, simple_pole_residue_form
from residuum.polynomials import MultiPoly
from residuum.ratfn import RatFn
from residuum.scalars import GaussianRational

Z1, Z2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
ONE = MultiPoly.const(2, 1)
TOP2 = MeroForm.dz(2, 0).wedge(MeroForm.dz(2, 1))
Y1, Y2, Y3 = (MultiPoly.variable(3, i) for i in range(3))
TOP3 = MeroForm.dz(3, 0).wedge(MeroForm.dz(3, 1)).wedge(MeroForm.dz(3, 2))
P3, LINE3 = Y1 * Y1 - Y2, Y1 - Y3 - MultiPoly.const(3, 1)
PARABOLA, CUSP, HYPERBOLA = Z1 * Z1 - Z2, Z1 * Z1 - Z2 ** 3, Z1 * Z2 - ONE


def over(form: MeroForm, den: MultiPoly, num: MultiPoly | None = None) -> MeroForm:
    num = MultiPoly.const(den.nvars, 1) if num is None else num
    return form.scale(RatFn(num, den))


def dlog(f: MultiPoly) -> MeroForm:
    return over(MeroForm.d_of_poly(f), f)


# (name, omega, factors, divisor constants of a degree-1 form)
SIMPLE_INPUTS = [
    ("top2/parabola", over(TOP2, PARABOLA), [(PARABOLA, 1)], None),
    ("top2/cusp", over(TOP2, CUSP), [(CUSP, 1)], None),
    ("dlog(z1*(z1-z2))", dlog(Z1 * (Z1 - Z2)), [(Z1, 1), (Z1 - Z2, 1)],
     [GaussianRational(1), GaussianRational(1)]),
    ("3/2*dlog(parabola)", dlog(PARABOLA).scale(RatFn.const(2, Fraction(3, 2))),
     [(PARABOLA, 1)], [GaussianRational(Fraction(3, 2))]),
    ("dlog(z1z2-1)", dlog(HYPERBOLA), [(HYPERBOLA, 1)], [GaussianRational(1)]),
    ("top2/(z1z2-1)", over(TOP2, HYPERBOLA), [(HYPERBOLA, 1)], None),
    ("z2*top2/(z1z2^2-z1-1)", over(TOP2, Z1 * Z2 ** 2 - Z1 - ONE, Z2),
     [(Z1 * Z2 ** 2 - Z1 - ONE, 1)], None),
]
# n = 3: pulled back by an SL_3 map, the factors depend on every variable
TOP3_P_L = ("top3/(p*l)", over(TOP3, P3 * LINE3), [(P3, 1), (LINE3, 1)], None)

MULTIPLE_INPUTS = [
    ("parabola^2", [(PARABOLA, 2)]),
    ("cusp^3", [(CUSP, 3)]),
    ("rho1*rho2^2", [(Z1 - Z2, 1), (Z1 + Z2, 2)]),
    ("(z1z2-1)^2", [(HYPERBOLA, 2)]),
    ("(z1^2z2+z1-z2)^3", [(Z1 * Z1 * Z2 + Z1 - Z2, 3)]),
    ("p^2*l", [(P3, 2), (LINE3, 1)]),
]


# ---------------------------------------------------------------------------
# pullbacks by phi(z) = M z + a
# ---------------------------------------------------------------------------

def affine_images(matrix, shift):
    """phi_j = sum_k M[j][k] z_k + a_j, the images of the coordinates."""
    n = len(shift)
    return [sum((MultiPoly.variable(n, k) * m for k, m in enumerate(row) if m),
                MultiPoly.const(n, a)) for row, a in zip(matrix, shift)]


def pull_poly(p: MultiPoly, images) -> MultiPoly:
    out = MultiPoly.zero(p.nvars)
    for exp, c in p.terms.items():
        term = MultiPoly.const(p.nvars, c)
        for image, e in zip(images, exp):
            term = term * image ** e
        out = out + term
    return out


def pull_ratfn(f: RatFn, images) -> RatFn:
    return RatFn(pull_poly(f.num, images), pull_poly(f.den, images))


def pull_form(form: MeroForm, images) -> MeroForm:
    """phi* of sum_I c_I dz_I = sum_I (c_I o phi) dphi_I."""
    n = form.nvars
    out = MeroForm.zero(n, form.degree)
    for index, c in form.coeffs.items():
        term = MeroForm(n, 0, {(): pull_ratfn(c, images)})
        for i in index:
            term = term.wedge(MeroForm.d_of_poly(images[i]))
        out = out + term
    return out


def charts(factors):
    """{var: (fd, pfd)} for every chart that `prepare_denominator` accepts."""
    out = {}
    for var in range(factors[0][0].nvars):
        try:
            fd = prepare_denominator(factors, var)
        except DenominatorError:
            continue
        out[var] = (fd, partial_fractions(fd))
    return out


def residue_forms(omega, factors):
    """{(var, k): residue form of omega on Y_k in chart var}."""
    return {(var, k): simple_pole_residue_form(omega, fd, pfd, k)
            for var, (fd, pfd) in charts(factors).items() for k in range(len(factors))}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

NONZERO_GAUSSIAN_INTEGERS = st.sampled_from([GaussianRational(re, im) for re in range(-2, 3)
                                             for im in range(-1, 2) if re or im])
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def identity(n: int):
    return [[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]


def unimodular(n: int):
    """M in SL_n(Z[i]): a product of 1 to 3 elementary matrices I + t e_ij,
    i != j, with t a small nonzero Gaussian integer."""
    elementary = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                           NONZERO_GAUSSIAN_INTEGERS)

    def product(steps):
        m = identity(n)
        for i, d, t in steps:  # row i += t * row j
            j = (i + d) % n
            m[i] = [a + t * b for a, b in zip(m[i], m[j])]
        return m

    return st.lists(elementary, min_size=1, max_size=3).map(product)


def shifts(n: int):
    return st.lists(st.builds(GaussianRational, SMALL_FRACTIONS, SMALL_FRACTIONS),
                    min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# simple poles: Res(phi* omega) = phi* Res(omega)
# ---------------------------------------------------------------------------

def residues_natural(omega, factors, divisor, matrix, shift) -> int:
    """Assert Res(phi* omega) = phi* Res(omega) in every pair of accepted
    charts, and the divisor constants on both sides; returns the number of
    (chart, chart, component) cases compared.  A map may leave phi* omega
    with no chart that accepts all its factors; `prepare_denominator` then
    says so with a typed error in each chart."""
    images = affine_images(matrix, shift)
    pulled_factors = [(pull_poly(rho, images), m) for rho, m in factors]
    got = residue_forms(pull_form(omega, images), pulled_factors)
    want = residue_forms(omega, factors)
    assert want, "omega is accepted in no chart"
    compared = 0
    for (var, k), h in want.items():
        for (var2, k2), g in got.items():
            if k2 == k:
                pulled = HypersurfaceForm(pulled_factors[k][0], var2, pull_form(h.rep, images))
                assert g.equals(pulled), (var, var2, k)
                compared += 1
        if divisor is not None:
            assert h.constant_value() == divisor[k]
    if divisor is not None:
        for (_, k), g in got.items():
            assert g.constant_value() == divisor[k]
    return compared


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIMPLE_INPUTS), unimodular(2), shifts(2))
def test_simple_pole_residues_are_natural(inp, matrix, shift):
    _, omega, factors, divisor = inp
    assume(residues_natural(omega, factors, divisor, matrix, shift))


@settings(max_examples=25, deadline=None)
@given(unimodular(3), shifts(3))
def test_simple_pole_residues_are_natural_n3(matrix, shift):
    _, omega, factors, divisor = TOP3_P_L
    assume(residues_natural(omega, factors, divisor, matrix, shift))


@pytest.mark.parametrize("inp", SIMPLE_INPUTS + [TOP3_P_L],
                         ids=[inp[0] for inp in SIMPLE_INPUTS + [TOP3_P_L]])
def test_simple_pole_residues_translate(inp):
    # a translation keeps every factor's dependence on each variable, so both
    # sides accept the same charts, and every input is accepted in one at least
    _, omega, factors, divisor = inp
    n = omega.nvars
    shift = [GaussianRational(Fraction(1, 2), Fraction(-1, 3))] * n
    accepted = len(charts(factors))
    assert accepted
    assert residues_natural(omega, factors, divisor, identity(n), shift) \
        == accepted ** 2 * len(factors)


# ---------------------------------------------------------------------------
# multiple poles: partial fractions and operator weights translate
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MULTIPLE_INPUTS), st.data())
def test_multiple_pole_data_translate(inp, data):
    _, factors = inp
    n = factors[0][0].nvars
    images = affine_images(identity(n), data.draw(shifts(n)))
    moved = charts([(pull_poly(rho, images), m) for rho, m in factors])
    fixed = charts(factors)
    assert set(moved) == set(fixed) and fixed
    for var, (fd, pfd) in fixed.items():
        fd2, pfd2 = moved[var]
        assert pfd2.entries == tuple((k, mu, pull_ratfn(c, images)) for k, mu, c in pfd.entries)
        table, table2 = residue_operator_data(pfd, fd), residue_operator_data(pfd2, fd2)
        assert list(table2.entries) == list(table.entries)
        for key, entry in table.entries.items():
            assert table2.entry(*key).g == pull_ratfn(entry.g, images), (var, key)
            assert table2.entry(*key).op == tuple((a, pull_ratfn(c, images))
                                                  for a, c in entry.op), (var, key)
