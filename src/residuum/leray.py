"""Pole-order reduction of closed meromorphic forms and reduced residues.

Every form with a pole along a single squarefree factor rho decomposes,
in the chart where rho is polynomial in one distinguished variable, as

    omega = rho^-1 drho ^ a  +  beta  +  dR,     R = sum_nu e_nu rho^-nu,

with a, beta, e_nu free of dz_var.  The descent integrates by parts one pole
order at a time; for closed input the non-drho parts of order >= 2 vanish
identically and beta comes out pole free.  The residue data extracted here:
the restriction A = a|_Y (reduced residue summand) and, from R, the
correction descriptors evaluated as one-dimensional transverse derivatives
on the zero set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .decomposition import (
    FactoredDenominator,
    PartialFractionDecomp,
    transverse_operator,
)
from .errors import ChartError, NonConstantResidueForm, PoleReductionObstruction
from .forms import Index, MeroForm, merge_indices
from .polynomials import MultiPoly, exact_divide, divides
from .ratfn import (
    RatFn,
    poly_to_uni,
    uni_divmod,
    uni_is_zero,
    uni_mod_inverse,
    uni_mul,
    uni_to_ratfn,
)
from .scalars import GaussianRational

FrameKey = Tuple[bool, Index]  # (carries drho?, increasing non-chart dz indices)


# ---------------------------------------------------------------------------
# frame conversion: basis {drho, dz_l (l != var)} with dz_var eliminated
# ---------------------------------------------------------------------------

def to_frame(form: MeroForm, rho: MultiPoly, var: int) -> Dict[FrameKey, RatFn]:
    n = form.nvars
    w = RatFn(rho.partial(var))
    if w.is_zero():
        raise ChartError("factor free of the chart variable")
    grad = {l: RatFn(rho.partial(l)) for l in range(n) if l != var}
    out: Dict[FrameKey, RatFn] = {}

    def add(key: FrameKey, c: RatFn):
        if c.is_zero():
            return
        out[key] = out[key] + c if key in out else c

    for idx, c in form.coeffs.items():
        if var not in idx:
            add((False, idx), c)
            continue
        pos = idx.index(var)
        rest = idx[:pos] + idx[pos + 1:]
        sign0 = GaussianRational(-1 if pos % 2 else 1)
        lead = c * sign0 / w
        add((True, rest), lead)
        for l, gl in grad.items():
            merged, s1 = merge_indices((l,), rest)
            if merged is None:
                continue
            add((False, merged), -lead * gl * GaussianRational(s1))
    return {k: v for k, v in out.items() if not v.is_zero()}


def from_frame(frame: Dict[FrameKey, RatFn], rho: MultiPoly, var: int,
               nvars: int, degree: int) -> MeroForm:
    grad = {l: RatFn(rho.partial(l)) for l in range(nvars)}
    coeffs: Dict[Index, RatFn] = {}

    def add(idx: Index, c: RatFn):
        if c.is_zero():
            return
        coeffs[idx] = coeffs[idx] + c if idx in coeffs else c

    for (has_drho, rest), c in frame.items():
        if not has_drho:
            add(rest, c)
            continue
        for l, gl in grad.items():
            if gl.is_zero():
                continue
            merged, s = merge_indices((l,), rest)
            if merged is None:
                continue
            add(merged, c * gl * GaussianRational(s))
    return MeroForm(nvars, degree, coeffs)


# ---------------------------------------------------------------------------
# pole order of rational coefficients
# ---------------------------------------------------------------------------

def rho_order(c: RatFn, rho: MultiPoly) -> int:
    """Exact multiplicity of rho in the (gcd-normalized) denominator."""
    den = c.den
    m = 0
    while divides(rho, den):
        den = exact_divide(den, rho)
        m += 1
    return m


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
    beta_polar: bool = False         # beta kept a simple-pole part (input not closed)

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
        top = 0
        for c in fr.values():
            den = c.den
            m = 0
            while divides(rho, den):
                den = exact_divide(den, rho)
                m += 1
            top = max(top, m)
        return top

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
                    f"order-{mu} term without drho is not exact",
                    offending_term=(rest, top))
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
                      rho, var, n, p)

    a_prime = c_cert = None
    da_frame = to_frame(a_form.exterior_d(), rho, var)
    prime_coeffs = {rest: c for (has, rest), c in da_frame.items() if has}
    rest_coeffs = {rest: c for (has, rest), c in da_frame.items() if not has}
    divisible = all(divides(rho, c.num) or c.is_zero() for c in rest_coeffs.values())
    if divisible:
        a_prime = MeroForm(n, p - 1, prime_coeffs)
        c_cert = MeroForm(n, p, {k: RatFn(exact_divide(c.num, rho), c.den)
                                 for k, c in rest_coeffs.items() if not c.is_zero()})
    return LerayData(rho, var, a_form, beta, r_terms, a_prime, c_cert, beta_polar)


# ---------------------------------------------------------------------------
# hypersurface forms: arithmetic on Y = Z(rho) via mod-rho normal forms
# ---------------------------------------------------------------------------

@dataclass
class HypersurfaceForm:
    component: int
    rho: MultiPoly
    var: int
    rep: MeroForm
    normalized: bool = False

    def normalize(self) -> "HypersurfaceForm":
        if self.normalized:
            return self
        rep = normal_form_on_hypersurface(self.rep, self.rho, self.var)
        return HypersurfaceForm(self.component, self.rho, self.var, rep, True)

    def equals(self, other: "HypersurfaceForm") -> bool:
        """Equality on Y; the other representative is re-read in this chart."""
        if self.rho != other.rho:
            return False
        a = self.normalize()
        b = HypersurfaceForm(other.component, other.rho, self.var,
                             other.rep).normalize()
        return a.rep == b.rep

    def is_zero(self) -> bool:
        return self.normalize().rep.is_zero()

    def d_on_hypersurface(self) -> "HypersurfaceForm":
        nf = self.normalize()
        rho, var = self.rho, self.var
        n = nf.rep.nvars
        w = RatFn(rho.partial(var))
        out: Dict[Index, RatFn] = {}
        for idx, c in nf.rep.coeffs.items():
            dc_var = c.partial(var)
            for l in range(n):
                if l == var:
                    continue
                total = c.partial(l) - dc_var * RatFn(rho.partial(l)) / w
                if total.is_zero():
                    continue
                merged, s = merge_indices((l,), idx)
                if merged is None:
                    continue
                term = total * GaussianRational(s)
                out[merged] = out[merged] + term if merged in out else term
        rep = MeroForm(n, nf.rep.degree + 1, out)
        return HypersurfaceForm(self.component, rho, var, rep).normalize()

    def constant_value(self) -> GaussianRational:
        nf = self.normalize()
        if nf.rep.degree != 0:
            raise NonConstantResidueForm("form has positive degree")
        if nf.rep.is_zero():
            return GaussianRational(0)
        c = nf.rep.coeffs.get((), RatFn.zero(nf.rep.nvars))
        if not c.is_constant():
            raise NonConstantResidueForm(
                f"residue coefficient is not constant on the component: {c!r}")
        return c.constant_value()


def normal_form_on_hypersurface(rep: MeroForm, rho: MultiPoly, var: int) -> MeroForm:
    """Drop drho-components, reduce coefficients mod rho (var-degree < deg rho),
    invert denominators modulo rho."""
    frame = to_frame(rep, rho, var)
    nvars = rep.nvars
    rho_u = poly_to_uni(rho, var)
    out: Dict[Index, RatFn] = {}
    for (has, rest), c in frame.items():
        if has:
            continue  # drho restricts to zero on Y
        num_u = poly_to_uni(c.num, var)
        den_u = poly_to_uni(c.den, var)
        _, den_red = uni_divmod(den_u, rho_u, nvars)
        if uni_is_zero(den_red):
            raise ChartError("coefficient denominator vanishes on the component")
        inv = uni_mod_inverse(den_red, rho_u, nvars)
        _, val = uni_divmod(uni_mul(num_u, inv, nvars), rho_u, nvars)
        cval = uni_to_ratfn(val, var, nvars)
        if cval.is_zero():
            continue
        out[rest] = out[rest] + cval if rest in out else cval
    return MeroForm(nvars, rep.degree, out)


# ---------------------------------------------------------------------------
# closedness, reduced residue, divisors
# ---------------------------------------------------------------------------

def check_closed(omega: MeroForm) -> Tuple[bool, MeroForm]:
    d = omega.exterior_d()
    return d.is_zero(), d


@dataclass
class SDescriptor:
    var: int
    component: int
    mu: int                       # the R-term order nu
    l: int                        # test-side transverse order
    gamma: HypersurfaceForm
    delta: Tuple[Tuple[int, RatFn], ...]  # (alpha, coefficient) acting as
    #                                        eta -> sum coeff_alpha d^alpha eta


@dataclass
class ReducedResidue:
    degree: int                   # degree p of the input form
    components: List[Tuple[int, HypersurfaceForm]]
    s_descriptors: List[SDescriptor]
    charts: Dict[int, Tuple[FactoredDenominator, PartialFractionDecomp]]
    leray: Dict[Tuple[int, int], LerayData] = field(default_factory=dict)

    def components_for(self, var: int) -> List[Tuple[int, HypersurfaceForm]]:
        return [(k, h) for k, h in self.components if h.var == var]


def simple_pole_residue_form(omega: MeroForm, fd: FactoredDenominator,
                             pfd: PartialFractionDecomp, k: int) -> HypersurfaceForm:
    """A = (drho/dz_var)^-1 c_1^k contract(var, alpha) restricted to Y_k."""
    from .errors import MultiplePole

    factor = fd.factors[k]
    if factor.multiplicity != 1:
        raise MultiplePole("component has a higher-order pole")
    var = fd.var
    alpha = omega.scale(RatFn(fd.product()))
    c = pfd.coefficient(k, 1)
    w = RatFn(factor.rho.partial(var))
    rep = alpha.contract(var).scale(c / w)
    return HypersurfaceForm(k, factor.rho, var, rep).normalize()


def reduced_residue(omega: MeroForm,
                    charts: Dict[int, Tuple[FactoredDenominator,
                                            PartialFractionDecomp]]) -> ReducedResidue:
    """Per-chart, per-component Leray data of a d-closed form.

    charts maps each usable distinguished variable to its denominator data;
    omega times the denominator product must clear every rho-pole.
    """
    closed, witness = check_closed(omega)
    if not closed:
        raise ValueError(f"input form is not d-closed; d(omega) = {witness!r}")
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
            a_rest = HypersurfaceForm(k, factor.rho, var, ld.a).normalize()
            components.append((k, a_rest))
            w = RatFn(factor.rho.partial(var))
            for nu, e_nu in sorted(ld.r_terms.items()):
                if e_nu.is_zero():
                    continue
                for l in range(0, nu):
                    s_gamma = nu - 1 - l
                    coeff = GaussianRational(comb(nu - 1, l)) \
                        / GaussianRational(factorial(nu - 1))
                    op_gamma = transverse_operator(factor.rho, var, s_gamma)
                    gamma_rep = e_nu.map_coeffs(
                        lambda f: op_gamma.apply_ratfn(f / w, w) * coeff * sign_p)
                    gamma = HypersurfaceForm(k, factor.rho, var, gamma_rep).normalize()
                    if l == 0:
                        delta = ((0, RatFn.one(omega.nvars)),)
                    else:
                        op_eta = transverse_operator(factor.rho, var, l)
                        delta = tuple(
                            (a, op_eta.betas[a - 1] / w ** (2 * l - 1))
                            for a in range(1, l + 1))
                    descriptors.append(SDescriptor(var, k, nu, l, gamma, delta))
    return ReducedResidue(p, components, descriptors, dict(charts), leray)


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
