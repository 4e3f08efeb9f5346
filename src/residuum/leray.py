"""Pole-order reduction of closed meromorphic forms and reduced residues.

Every form with a pole along a single squarefree factor rho decomposes,
in the chart where rho is polynomial in one distinguished variable, as

    omega = rho^-1 drho ^ a  +  beta  +  dR,     R = sum_nu e_nu rho^-nu,

with a, beta, e_nu free of dz_var.  The descent integrates by parts one pole
order at a time; for closed input the non-drho parts of order >= 2 vanish
identically and beta comes out pole free.  The residue data extracted here:
the restriction A = a|_Y (reduced residue summand) and, from R, the
correction descriptors evaluated as one-dimensional transverse derivatives
on the zero set.  A form on Y, defined modulo rho and drho, is held as its
normal form (Leray, Bull. SMF 87, 1959), fixed when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .decomposition import (
    FactoredDenominator,
    Operator,
    PartialFractionDecomp,
    transverse_derivatives,
    transverse_operator,
)
from .errors import (
    ChartError,
    DivisionError,
    MultiplePole,
    NonClosedForm,
    NonConstantResidueForm,
    PoleReductionObstruction,
)
from .forms import Index, MeroForm
from .polynomials import MultiPoly, exact_divide
from .ratfn import RatFn, uni_digits
from .scalars import GaussianRational

FrameKey = Tuple[bool, Index]  # (carries drho?, increasing non-chart dz indices)


# ---------------------------------------------------------------------------
# frame conversion: basis {drho, dz_l (l != var)} with dz_var eliminated
# ---------------------------------------------------------------------------

def to_frame(form: MeroForm, rho: MultiPoly, var: int) -> Dict[FrameKey, RatFn]:
    """Write form = drho ^ a + b with a and b free of dz_var.

    With w = drho/dz_var and i the interior product with d/dz_var,

        a = i(form) / w,    b = form|_{no dz_var} - (sum_{l != var} drho/dz_l dz_l) ^ a,

    since dz_var = (drho - sum_{l != var} drho/dz_l dz_l) / w.  The frame maps
    (True, I) to a's dz_I coefficient and (False, I) to b's.  A var outside
    range(nvars) raises ChartError.
    """
    if not 0 <= var < form.nvars:
        raise ChartError(f"no chart variable {var} in {form.nvars} variables")
    w = RatFn(rho.partial(var))
    if w.is_zero():
        raise ChartError("factor free of the chart variable")
    n = form.nvars
    a = form.contract(var).map_coeffs(lambda c: c / w)
    grad = MeroForm(n, 1, {(l,): RatFn(rho.partial(l)) for l in range(n) if l != var})
    rest = MeroForm(n, form.degree, {k: c for k, c in form.coeffs.items() if var not in k})
    b = rest - grad.wedge(a)
    return {**{(True, k): c for k, c in a.coeffs.items()},
            **{(False, k): c for k, c in b.coeffs.items()}}


def from_frame(frame: Dict[FrameKey, RatFn], rho: MultiPoly, nvars: int,
               degree: int) -> MeroForm:
    """drho ^ a + b, the inverse of `to_frame`."""
    a = MeroForm(nvars, degree - 1, {k: c for (has, k), c in frame.items() if has})
    b = MeroForm(nvars, degree, {k: c for (has, k), c in frame.items() if not has})
    return MeroForm.d_of_poly(rho).wedge(a) + b


# ---------------------------------------------------------------------------
# pole order of rational coefficients
# ---------------------------------------------------------------------------

def rho_order(c: RatFn, rho: MultiPoly) -> int:
    """Exact multiplicity of rho in the (gcd-normalized) denominator."""
    den = c.den
    m = 0
    while True:
        try:
            den = exact_divide(den, rho)
        except DivisionError:
            return m
        m += 1


# ---------------------------------------------------------------------------
# Leray data
# ---------------------------------------------------------------------------

@dataclass
class LerayData:
    rho: MultiPoly
    var: int
    a: MeroForm                      # drho-coefficient at first order, no dz_var
    beta: MeroForm                   # remainder; pole free for closed input
    r_terms: Dict[int, MeroForm]     # nu -> e_nu, no dz_var and no drho
    a_prime: Optional[MeroForm]      # da = drho ^ a' + C rho (when available)
    c_cert: Optional[MeroForm]
    beta_polar: bool                 # beta kept a simple-pole part (input not closed)

    def drho(self) -> MeroForm:
        return MeroForm.d_of_poly(self.rho)

    def recombined(self) -> MeroForm:
        inv_rho = RatFn(MultiPoly.const(self.rho.nvars, 1), self.rho)
        total = self.drho().scale(inv_rho).wedge(self.a) + self.beta
        for nu, e in self.r_terms.items():
            total = total + (e.scale(inv_rho ** nu)).exterior_d()
        return total

    def certificate_holds(self) -> bool:
        if self.a_prime is None or self.c_cert is None:
            return False
        da = self.a.exterior_d()
        return da == self.drho().wedge(self.a_prime) + self.c_cert.scale(RatFn(self.rho))


def lower_pole_order(omega_k: MeroForm, rho: MultiPoly, var: int,
                     multiplicity: int) -> LerayData:
    """Integrate by parts until only first-order rho-poles remain.

    Raises PoleReductionObstruction when a non-drho term of order >= 2
    survives in normal form (it cannot be exact)."""
    n = omega_k.nvars
    p = omega_k.degree
    frame = to_frame(omega_k, rho, var)
    r_terms: Dict[int, MeroForm] = {}

    def max_order(fr) -> int:
        return max((rho_order(c, rho) for c in fr.values()), default=0)

    guard = max_order(frame) + multiplicity + 4
    while True:
        mu = max_order(frame)
        if mu <= 1:
            break
        guard -= 1
        if guard < 0:
            raise PoleReductionObstruction("pole order failed to descend")
        digit_tables, _ = _polar_digit_forms(frame, rho, var)
        a_coeffs: Dict[Index, RatFn] = {}
        for (has, rest), digits in digit_tables.items():
            top = digits.get(mu)
            if top is None or top.is_zero():
                continue
            if not has:
                raise PoleReductionObstruction(
                    f"order-{mu} term without drho is not exact: {rest} {top!r}")
            a_coeffs[rest] = top
        if not a_coeffs:
            raise PoleReductionObstruction("positive pole order with no top digit")
        a_form = MeroForm(n, p - 1, a_coeffs)
        e_term = a_form.scale(GaussianRational(Fraction(-1, mu - 1)))
        r_terms[mu - 1] = r_terms.get(mu - 1, MeroForm.zero(n, p - 1)) + e_term
        # subtract rho^-mu drho ^ a, add rho^-(mu-1) da/(mu-1)
        inv_mu = RatFn(MultiPoly.const(n, 1), rho ** mu)
        for rest, c in a_coeffs.items():
            key = (True, rest)
            frame[key] = frame.get(key, RatFn.zero(n)) - c * inv_mu
        da_frame = to_frame(a_form.exterior_d(), rho, var)
        inv_lower = RatFn(MultiPoly.const(n, GaussianRational(Fraction(1, mu - 1))),
                          rho ** (mu - 1))
        for key, c in da_frame.items():
            frame[key] = frame.get(key, RatFn.zero(n)) + c * inv_lower
        frame = {k: v for k, v in frame.items() if not v.is_zero()}

    # first order: extract a, keep any residual simple pole inside beta
    digit_tables, _ = _polar_digit_forms(frame, rho, var)
    a_coeffs = {}
    beta_polar = False
    for (has, rest), digits in digit_tables.items():
        d1 = digits.get(1)
        if d1 is None or d1.is_zero():
            continue
        if has:
            a_coeffs[rest] = d1
        else:
            beta_polar = True
    a_form = MeroForm(n, p - 1, a_coeffs)
    inv_rho = RatFn(MultiPoly.const(n, 1), rho)
    beta_frame = dict(frame)
    for rest, c in a_coeffs.items():
        key = (True, rest)
        beta_frame[key] = beta_frame.get(key, RatFn.zero(n)) - c * inv_rho
    beta = from_frame({k: v for k, v in beta_frame.items() if not v.is_zero()},
                      rho, n, p)

    a_prime = c_cert = None
    da_frame = to_frame(a_form.exterior_d(), rho, var)
    prime_coeffs = {rest: c for (has, rest), c in da_frame.items() if has}
    rest_coeffs = {rest: c for (has, rest), c in da_frame.items() if not has}
    try:
        c_cert = MeroForm(n, p, {k: RatFn(exact_divide(c.num, rho), c.den)
                                 for k, c in rest_coeffs.items() if not c.is_zero()})
        a_prime = MeroForm(n, p - 1, prime_coeffs)
    except DivisionError:  # rho does not divide da off drho: no certificate
        pass
    return LerayData(rho, var, a_form, beta, r_terms, a_prime, c_cert, beta_polar)


# ---------------------------------------------------------------------------
# hypersurface forms: arithmetic on Y = Z(rho) via mod-rho normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypersurfaceForm:
    """A form on Y = Z(rho), named by rho alone; `rep` is its normal form in
    the chart of `var`, set at construction, so forms equal on Y have equal
    `rep`s in one chart.  Frozen: assigning a field would skip the
    normalisation.  The records that hold several file each under k."""

    rho: MultiPoly
    var: int
    rep: MeroForm

    def __post_init__(self):
        object.__setattr__(self, "rep", normal_form_on_hypersurface(self.rep, self.rho, self.var))

    def equals(self, other: "HypersurfaceForm") -> bool:
        """Equality on Y; a form in another chart is re-read in this one."""
        if self.rho != other.rho:
            return False
        if other.var != self.var:
            other = HypersurfaceForm(other.rho, self.var, other.rep)
        return self.rep == other.rep

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def d_on_hypersurface(self) -> "HypersurfaceForm":
        """d on Y: d of the normal form, with dz_var eliminated by normalizing."""
        return HypersurfaceForm(self.rho, self.var, self.rep.exterior_d())

    def constant_value(self) -> GaussianRational:
        if self.rep.degree != 0:
            raise NonConstantResidueForm("form has positive degree")
        if self.rep.is_zero():
            return GaussianRational(0)
        c = self.rep.coeffs[()]
        if not c.is_constant():
            raise NonConstantResidueForm(
                f"residue coefficient is not constant on the component: {c!r}")
        return c.constant_value()


def normal_form_on_hypersurface(rep: MeroForm, rho: MultiPoly, var: int) -> MeroForm:
    """Drop drho-components and reduce each coefficient to its m = 1 rho-adic
    digit (`uni_digits`): var-degree < deg rho, var-free denominator.  Any
    common factor of a coefficient's denominator and rho raises ChartError."""
    frame = to_frame(rep, rho, var)
    nvars = rep.nvars

    def reduced(c: RatFn) -> RatFn:
        try:
            return uni_digits(c.num, c.den, rho, 1, var)[0]
        except DivisionError as exc:
            raise ChartError("coefficient denominator is not prime to rho "
                             "on the component") from exc

    # drho restricts to zero on Y
    return MeroForm(nvars, rep.degree,
                    {rest: reduced(c) for (has, rest), c in frame.items() if not has})


# ---------------------------------------------------------------------------
# closedness, reduced residue, divisors
# ---------------------------------------------------------------------------

def check_closed(omega: MeroForm) -> Tuple[bool, MeroForm]:
    d = omega.exterior_d()
    return d.is_zero(), d


@dataclass
class SDescriptor:
    """gamma on Y paired with D_l; `delta` is D_l as `transverse_operator`
    stores it, acting as eta -> sum_a c_a d^a eta/dz_var^a: ((0, 1),) at
    l = 0, else c_a = beta_a/w^(2l-1).

    Pairing with a test function phi: the reduced residue A acts on phi, and
    the descriptors act on eta = d phi.  In one variable the residue of
    g phi at a root r of rho is A(r) phi(r) + sum over the descriptors of
    gamma(r) sum_a c_a(r) eta^(a)(r), eta = phi'.  The chart is gamma.var."""

    component: int
    mu: int                       # the R-term order nu
    l: int                        # test-side transverse order
    gamma: HypersurfaceForm
    delta: Operator


@dataclass
class ReducedResidue:
    degree: int                   # degree p of the input form
    components: List[Tuple[int, HypersurfaceForm]]  # (k, A on Y_k), per chart
    s_descriptors: List[SDescriptor]
    leray: Dict[Tuple[int, int], LerayData]


def simple_pole_residue_form(omega: MeroForm, fd: FactoredDenominator,
                             pfd: PartialFractionDecomp, k: int) -> HypersurfaceForm:
    """A = (drho/dz_var)^-1 c_1^k contract(var, P omega) restricted to Y_k."""
    factor = fd.factors[k]
    if factor.multiplicity != 1:
        raise MultiplePole("component has a higher-order pole")
    var = fd.var
    c = pfd.coefficient(k, 1)
    w = RatFn(factor.rho.partial(var))
    rep = omega.contract(var).scale(RatFn(fd.product()) * c / w)
    return HypersurfaceForm(factor.rho, var, rep)


def reduced_residue(omega: MeroForm,
                    charts: Dict[int, Tuple[FactoredDenominator,
                                            PartialFractionDecomp]]) -> ReducedResidue:
    """Per-chart, per-component Leray data of a d-closed form.

    charts maps each usable distinguished variable to its denominator data;
    omega times the denominator product must clear every rho-pole.
    """
    closed, witness = check_closed(omega)
    if not closed:
        raise NonClosedForm(f"input form is not d-closed; d(omega) = {witness!r}")
    p = omega.degree
    components: List[Tuple[int, HypersurfaceForm]] = []
    descriptors: List[SDescriptor] = []
    leray: Dict[Tuple[int, int], LerayData] = {}
    sign_p = GaussianRational(-1 if p % 2 else 1)
    for var, (fd, pfd) in sorted(charts.items()):
        alpha = omega.scale(RatFn(fd.product()))
        for k, factor in enumerate(fd.factors):
            part = RatFn.zero(omega.nvars)
            for mu in range(1, factor.multiplicity + 1):
                c = pfd.coefficient(k, mu)
                if not c.is_zero():
                    part = part + c / RatFn(factor.rho ** mu)
            omega_k = alpha.scale(part)
            ld = lower_pole_order(omega_k, factor.rho, var, factor.multiplicity)
            leray[(var, k)] = ld
            a_rest = HypersurfaceForm(factor.rho, var, ld.a)
            components.append((k, a_rest))
            if not ld.r_terms:
                continue
            w = factor.rho.partial(var)
            tower = transverse_operator(factor.rho, var, max(ld.r_terms) - 1)
            for nu, e_nu in sorted(ld.r_terms.items()):
                if e_nu.is_zero():
                    continue
                # D_s(f/w) for s < nu by the step D_(s+1) = w^-1 d/dz_var D_s,
                # one run per coefficient f, each output normalised once
                derivs = {key: transverse_derivatives(f, w, nu, var)
                          for key, f in e_nu.coeffs.items()}
                for l in range(0, nu):
                    coeff = GaussianRational(comb(nu - 1, l)) \
                        / GaussianRational(factorial(nu - 1))
                    gamma_rep = MeroForm(e_nu.nvars, e_nu.degree,
                                         {key: RatFn(*ds[nu - 1 - l]) * coeff * sign_p
                                          for key, ds in derivs.items()})
                    gamma = HypersurfaceForm(factor.rho, var, gamma_rep)
                    descriptors.append(SDescriptor(k, nu, l, gamma, tower[l]))
    return ReducedResidue(p, components, descriptors, leray)


def divisor_coefficients(rr: ReducedResidue) -> List[Tuple[int, GaussianRational]]:
    """Degree-1 case: each component's reduced residue is a constant; the
    divisor lists them once per component, checked consistent across charts."""
    if rr.degree != 1:
        raise ValueError("divisor extraction expects a degree-1 form")
    values: Dict[int, GaussianRational] = {}
    for k, h in rr.components:
        v = h.constant_value()
        if k in values:
            if values[k] != v:
                raise NonConstantResidueForm(
                    f"charts disagree on component {k}: {values[k]} vs {v}")
        else:
            values[k] = v
    return sorted(values.items())
