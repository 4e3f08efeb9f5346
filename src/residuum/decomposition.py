"""Per-variable denominator data: factored denominators, discriminants,
partial fractions, transverse-derivative operators and the residue-operator
table they assemble into.

Everything here is exact.  The distinguished variable is written `var`
(0-based); factors must be squarefree and pairwise coprime in it, with
leading coefficients that do not vanish at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Dict, List, Tuple

from .errors import (
    CoprimalityViolation,
    FactorFreeOfVariable,
    LeadingCoefficientVanishesAtOrigin,
    MultiplePole,
    NonSquarefreeFactor,
    ZeroInputError,
)
from .polynomials import MultiPoly, discriminant, resultant
from .scalars import GaussianRational
from .ratfn import (
    RatFn,
    poly_to_uni,
    uni_divmod,
    uni_mod_inverse,
    uni_mul,
    uni_to_ratfn,
)


@dataclass(frozen=True)
class Factor:
    rho: MultiPoly
    multiplicity: int
    leading: MultiPoly  # leading coefficient of rho in the distinguished variable


@dataclass(frozen=True)
class FactoredDenominator:
    var: int
    factors: Tuple[Factor, ...]
    discriminant_b: MultiPoly
    unit_note: str = "leading coefficients absorbed into the c-coefficients"

    @property
    def nvars(self) -> int:
        return self.factors[0].rho.nvars

    def product(self) -> MultiPoly:
        out = MultiPoly.const(self.nvars, 1)
        for f in self.factors:
            out = out * f.rho ** f.multiplicity
        return out


def prepare_denominator(factors: List[Tuple[MultiPoly, int]], var: int) -> FactoredDenominator:
    """Validate a factor list in the distinguished variable and compute the
    discriminant of the reduced product."""
    if not factors:
        raise ZeroInputError("empty factor list")
    checked: List[Factor] = []
    for i, (rho, mult) in enumerate(factors):
        if rho.is_zero():
            raise ZeroInputError(f"factor {i} is zero")
        if mult < 1:
            raise ValueError(f"factor {i} has multiplicity {mult} < 1")
        if rho.degree_in(var) < 1:
            raise FactorFreeOfVariable(
                f"factor {i} has degree 0 in variable {var + 1}")
        lead = rho.leading_coefficient_in(var)
        if lead.eval_exact([0] * rho.nvars).is_zero():
            raise LeadingCoefficientVanishesAtOrigin(
                f"leading coefficient of factor {i} vanishes at the origin")
        if rho.degree_in(var) > 1:
            disc = discriminant(rho, var)
            if disc.is_zero():
                raise NonSquarefreeFactor(
                    f"factor {i} is not squarefree in variable {var + 1}")
        checked.append(Factor(rho, int(mult), lead))
    for i in range(len(checked)):
        for k in range(i + 1, len(checked)):
            res = resultant(checked[i].rho, checked[k].rho, var)
            if res.is_zero():
                raise CoprimalityViolation(
                    f"factors {i} and {k} share a root sheet in variable {var + 1}")
    prod = MultiPoly.const(checked[0].rho.nvars, 1)
    for f in checked:
        prod = prod * f.rho
    if prod.degree_in(var) > 1:
        disc_b = discriminant(prod, var)
    else:
        disc_b = MultiPoly.const(prod.nvars, 1)
    if disc_b.is_zero():
        raise NonSquarefreeFactor("reduced product has vanishing discriminant")
    return FactoredDenominator(var, tuple(checked), disc_b)


@dataclass(frozen=True)
class PartialFractionDecomp:
    """1/f = sum_k sum_mu c[(k, mu)] / rho_k^mu (+ polynomial part, here 0)."""

    var: int
    entries: Tuple[Tuple[int, int, RatFn], ...]  # (factor index, mu, c)
    polynomial_part: RatFn

    def coefficient(self, k: int, mu: int) -> RatFn:
        for kk, mm, c in self.entries:
            if (kk, mm) == (k, mu):
                return c
        return RatFn.zero(self.polynomial_part.nvars)


def partial_fractions(fd: FactoredDenominator) -> PartialFractionDecomp:
    """Exact partial fractions of 1/product over the function field in the
    remaining variables.  Verifies the recombination identity."""
    nvars = fd.nvars
    var = fd.var
    unis = [poly_to_uni(f.rho ** f.multiplicity, var) for f in fd.factors]
    rhos = [poly_to_uni(f.rho, var) for f in fd.factors]
    entries: List[Tuple[int, int, RatFn]] = []
    for k, f in enumerate(fd.factors):
        others = [RatFn.one(nvars)]
        for i, u in enumerate(unis):
            if i != k:
                others = uni_mul(others, u, nvars)
        n_k = uni_mod_inverse(others, unis[k], nvars)
        # rho-adic digits: n_k = sum_mu c_mu * rho^(r-mu), deg c_mu < deg rho
        digits: List = []
        rest = n_k
        for _ in range(f.multiplicity):
            rest, digit = uni_divmod(rest, rhos[k], nvars)
            digits.append(digit)
        # digits[0] corresponds to mu = r, digits[-1] to mu = 1
        for idx, digit in enumerate(digits):
            mu = f.multiplicity - idx
            c = uni_to_ratfn(digit, var, nvars)
            if not c.is_zero():
                entries.append((k, mu, c))
        entries.sort(key=lambda e: (e[0], e[1]))
    pfd = PartialFractionDecomp(var, tuple(entries), RatFn.zero(nvars))
    _verify_recombination(pfd, fd)
    return pfd


def _verify_recombination(pfd: PartialFractionDecomp, fd: FactoredDenominator):
    """Check 1/P = sum c/rho_k^mu + pp exactly, with P = prod rho_k^(m_k).

    Times P*D, where D is the product of the distinct denominators of the
    nonzero c and pp, the identity is one between polynomials:

        sum c.num * (D/c.den) * (P/rho_k^mu) + pp.num * (D/pp.den) * P == D.

    Each quotient there is a product of the remaining factors, so the check
    needs no gcd and no division.
    """
    parts = [(c, k, mu) for k, mu, c in pfd.entries]
    parts.append((pfd.polynomial_part, None, 0))
    parts = [part for part in parts if not part[0].is_zero()]
    dens: List[MultiPoly] = []
    for c, _, _ in parts:
        if c.den not in dens:
            dens.append(c.den)
    total = MultiPoly.zero(fd.nvars)
    for c, k, mu in parts:
        term = c.num
        for den in dens:
            if den != c.den:
                term = term * den
        for i, f in enumerate(fd.factors):
            exponent = f.multiplicity - mu if i == k else f.multiplicity
            if exponent:
                term = term * f.rho ** exponent
        total = total + term
    expect = MultiPoly.const(fd.nvars, 1)
    for den in dens:
        expect = expect * den
    if total != expect:
        raise ArithmeticError("partial fraction recombination failed")


@dataclass(frozen=True)
class HolomorphyReport:
    factor_index: int
    holomorphic_at_origin: bool
    reduced_denominator: MultiPoly


def check_simple_pole_holomorphy(pfd: PartialFractionDecomp,
                                 fd: FactoredDenominator) -> List[HolomorphyReport]:
    """Origin test of the simple-pole coefficients c_1^k.

    Only meaningful when every multiplicity is 1; reports whether each
    reduced denominator is nonvanishing at the origin.
    """
    if any(f.multiplicity != 1 for f in fd.factors):
        raise MultiplePole("holomorphy check requires all multiplicities equal to 1")
    out = []
    origin = [0] * fd.nvars
    for k, _ in enumerate(fd.factors):
        c = pfd.coefficient(k, 1)
        ok = not c.den.eval_exact(origin).is_zero()
        out.append(HolomorphyReport(k, ok, c.den))
    return out


# ---------------------------------------------------------------------------
# transverse derivatives:  d^s/drho^s = w^-(2s-1) * sum_a beta_a^s d^a/dz_var^a
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransverseOperator:
    var: int
    order: int
    betas: Tuple[RatFn, ...]  # betas[a-1] multiplies d^a/dz_var^a

    def apply_ratfn(self, h: RatFn, w: RatFn) -> RatFn:
        """d^order h / drho^order as a rational function (w = drho/dz_var)."""
        if self.order == 0:
            return h / w
        acc = RatFn.zero(h.nvars)
        d = h
        for a in range(1, self.order + 1):
            d = d.partial(self.var)
            acc = acc + self.betas[a - 1] * d
        return acc / w ** (2 * self.order - 1)


def transverse_operator(rho: MultiPoly, var: int, order: int) -> TransverseOperator:
    """Coefficients beta_a of D_s by the first-order recursion

        beta_a^(s+1) = w * d(beta_a^s)/dz - (2s-1) * dw/dz * beta_a^s
                       + w * beta_(a-1)^s,        w = drho/dz_var.

    The betas come out polynomial; they are stored as RatFn for uniformity.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    w = rho.partial(var)
    if w.is_zero():
        raise FactorFreeOfVariable("factor free of the distinguished variable")
    if order == 0:
        return TransverseOperator(var, 0, ())
    wp = w.partial(var)
    betas: List[MultiPoly] = [MultiPoly.const(rho.nvars, 1)]  # s = 1: beta_1 = 1
    for s in range(1, order):
        nxt: List[MultiPoly] = []
        for a in range(1, s + 2):
            cur = betas[a - 1] if a <= s else MultiPoly.zero(rho.nvars)
            below = betas[a - 2] if a >= 2 else MultiPoly.zero(rho.nvars)
            term = w * cur.partial(var) - (2 * s - 1) * wp * cur + w * below
            nxt.append(term)
        betas = nxt
    return TransverseOperator(var, order, tuple(RatFn(b) for b in betas))


# ---------------------------------------------------------------------------
# residue-operator table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorEntry:
    """One (k, mu, l) cell: the meromorphic weight g and the signed operator.

    `op` lists (a, (-1)^a * beta_a^(mu-1-l)) exactly as displayed in the
    source formulas; an empty list is the identity operator.  Evaluators must
    undo the (-1)^a when acting on the test side (the displayed sign encodes
    the current-side adjoint).
    """

    g: RatFn
    op: Tuple[Tuple[int, RatFn], ...]


@dataclass
class ResidueOperatorData:
    var: int
    fd: FactoredDenominator
    pfd: PartialFractionDecomp
    entries: Dict[Tuple[int, int, int], OperatorEntry] = field(default_factory=dict)
    transverse: Dict[Tuple[int, int], TransverseOperator] = field(default_factory=dict)

    def entry(self, k: int, mu: int, l: int) -> OperatorEntry:
        return self.entries[(k, mu, l)]


def residue_operator_data(pfd: PartialFractionDecomp,
                          fd: FactoredDenominator) -> ResidueOperatorData:
    """Assemble the full (k, mu, l) table for one distinguished variable."""
    if pfd.var != fd.var:
        raise ValueError("partial fractions and denominator use different variables")
    var = fd.var
    nvars = fd.nvars
    rod = ResidueOperatorData(var, fd, pfd)
    for k, f in enumerate(fd.factors):
        w = RatFn(f.rho.partial(var))
        ops: Dict[int, TransverseOperator] = {}
        for s in range(0, f.multiplicity):
            ops[s] = transverse_operator(f.rho, var, s)
            rod.transverse[(k, s)] = ops[s]
        for mu in range(1, f.multiplicity + 1):
            c = pfd.coefficient(k, mu)
            target = c / w
            for l in range(0, mu):
                # D_l(c/w): D_0 multiplies by w^-1; for l >= 1 strip the
                # w^-(2l-1) that apply_ratfn includes.
                if l == 0:
                    d_l = target / w
                else:
                    d_l = ops[l].apply_ratfn(target, w) * w ** (2 * l - 1)
                if l == mu - 1:
                    g = d_l * w if mu == 1 else d_l / w ** (2 * mu - 3)
                else:
                    g = d_l * comb(mu - 1, l) / w ** (2 * mu - 4)
                s = mu - 1 - l
                entry_ops: List[Tuple[int, RatFn]] = []
                if s >= 1:
                    tr = ops[s]
                    for a in range(1, s + 1):
                        sign = GaussianRational(-1 if a % 2 else 1)
                        entry_ops.append((a, tr.betas[a - 1] * sign))
                rod.entries[(k, mu, l)] = OperatorEntry(g, tuple(entry_ops))
    return rod
