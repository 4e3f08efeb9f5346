"""Per-variable denominator data: factored denominators, partial fractions,
transverse-derivative operators and the residue-operator table they
assemble into.

Everything here is exact.  The distinguished variable is written `var`
(0-based); factors must be squarefree, pairwise coprime and of constant
content in it.  `prepare_denominator` checks this by nonzero discriminants
and resultants and keeps none of them: the discriminant B of the reduced
product, which every partial-fraction denominator divides a power of, is
`discriminant(prod_k rho_k, var)` when a caller needs it.  1/prod rho_k^(m_k)
has no polynomial part, since its numerator has degree 0, so the
decomposition is its entries alone.

Transverse derivatives D_s = d^s/drho^s, w = drho/dz_var, follow one step:
D_0 is the identity and D_(s+1) = w^-1 d/dz_var D_s.  So D_s = w^-(2s-1)
sum_a beta_a^(s) d^a/dz_var^a for s >= 1, stored in one form only,
((a, c_a), ...) with c_a = RatFn(beta_a^(s), w^(2s-1)), and ((0, 1),) at
s = 0; it acts as eta -> sum_a c_a d^a eta/dz_var^a.
`transverse_operator(rho, var, S)` returns the tower (D_0, ..., D_S) of one
factor from a single run of the beta recursion; the betas stay inside it.

`transverse_derivatives(f, w, count, var)` takes the same step on the
values D_s(f/w), s < count, and it is the one construction of them: the
residue-operator table here and `leray.reduced_residue` both call it.  It
carries polynomial numerators over denominators known in advance and forms
no intermediate RatFn.  The caller turns each (numerator, denominator) pair
into one canonical RatFn, after any factor of its own (the table's weight
adds a power of w), so each output is normalised once and outputs are
byte-identical to term-by-term RatFn arithmetic.  The table stores the
tower's operators as they come, as `OperatorEntry.op`, and
`leray.reduced_residue` as `SDescriptor.delta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import mul
from typing import Dict, List, Tuple

from .errors import (
    ChartError,
    CoprimalityViolation,
    DenominatorError,
    DivisionError,
    FactorFreeOfVariable,
    NonSquarefreeFactor,
    ZeroInputError,
)
from .polynomials import MultiPoly, content_in_var, discriminant, exact_divide, resultant
from .ratfn import RatFn, uni_digits


@dataclass(frozen=True)
class Factor:
    rho: MultiPoly
    multiplicity: int


@dataclass(frozen=True)
class FactoredDenominator:
    var: int
    factors: Tuple[Factor, ...]

    @property
    def nvars(self) -> int:
        return self.factors[0].rho.nvars

    def product(self) -> MultiPoly:
        out = MultiPoly.const(self.nvars, 1)
        for f in self.factors:
            out = out * f.rho ** f.multiplicity
        return out


def prepare_denominator(factors: List[Tuple[MultiPoly, int]], var: int) -> FactoredDenominator:
    """Validate a factor list in the distinguished variable: each factor
    squarefree (nonzero discriminant) and the factors pairwise coprime
    (nonzero resultants).  A factor with a factor free of `var` (unseen by
    this chart) raises FactorFreeOfVariable, a multiplicity that is not an
    integer >= 1 DenominatorError, and a var outside range(nvars) ChartError."""
    if not factors:
        raise ZeroInputError("empty factor list")
    checked: List[Factor] = []
    for i, (rho, mult) in enumerate(factors):
        if not 0 <= var < rho.nvars:
            raise ChartError(f"no variable {var} in factor {i} of {rho.nvars} variables")
        if rho.is_zero():
            raise ZeroInputError(f"factor {i} is zero")
        if mult < 1 or int(mult) != mult:
            raise DenominatorError(f"factor {i} has multiplicity {mult!r}, not an integer >= 1")
        coeffs = rho.coeffs_in_var(var)  # no content gcd when a coefficient is constant
        if max(coeffs) < 1 or not (any(c.is_constant() for c in coeffs.values())
                                   or content_in_var(rho, var).is_constant()):
            raise FactorFreeOfVariable(
                f"factor {i} or a factor of it is free of variable {var + 1}")
        if rho.degree_in(var) > 1 and discriminant(rho, var).is_zero():
            raise NonSquarefreeFactor(f"factor {i} is not squarefree in variable {var + 1}")
        checked.append(Factor(rho, int(mult)))
    for i in range(len(checked)):
        for k in range(i + 1, len(checked)):
            if resultant(checked[i].rho, checked[k].rho, var).is_zero():
                raise CoprimalityViolation(
                    f"factors {i} and {k} share a root sheet in variable {var + 1}")
    return FactoredDenominator(var, tuple(checked))


@dataclass(frozen=True)
class PartialFractionDecomp:
    """1/f = sum_k sum_mu c[(k, mu)] / rho_k^mu; the nonzero c only.  Each
    factor's top digit c[(k, m_k)] is nonzero, so there is always an entry."""

    var: int
    entries: Tuple[Tuple[int, int, RatFn], ...]  # (factor index, mu, c)

    def coefficient(self, k: int, mu: int) -> RatFn:
        for kk, mm, c in self.entries:
            if (kk, mm) == (k, mu):
                return c
        return RatFn.zero(self.entries[0][2].nvars)


def partial_fractions(fd: FactoredDenominator) -> PartialFractionDecomp:
    """Exact partial fractions of 1/product over the function field in the
    remaining variables: c_(k, mu) is the mu-th rho_k-adic digit of the
    inverse of the other factors modulo rho_k^(m_k).  Verifies the
    recombination identity."""
    var = fd.var
    one = MultiPoly.const(fd.nvars, 1)
    powers = [f.rho ** f.multiplicity for f in fd.factors]
    # prod_(i != k) rho_i^(m_i) = prefix[k] * suffix[k], the products over
    # i < k and over i > k
    prefix = list(accumulate(powers[:-1], mul, initial=one))
    suffix = list(accumulate(powers[:0:-1], mul, initial=one))[::-1]
    entries: List[Tuple[int, int, RatFn]] = []
    for k, f in enumerate(fd.factors):
        others = prefix[k] * suffix[k]
        digits = uni_digits(one, others, f.rho, f.multiplicity, var)
        entries += [(k, mu, c) for mu, c in enumerate(digits, 1) if not c.is_zero()]
    pfd = PartialFractionDecomp(var, tuple(entries))
    _verify_recombination(pfd, fd, powers)
    return pfd


def _verify_recombination(pfd: PartialFractionDecomp, fd: FactoredDenominator,
                          powers: List[MultiPoly]):
    """Check 1/P = sum c/rho_k^mu exactly, with P = prod rho_k^(m_k) and
    powers[k] = rho_k^(m_k), as `partial_fractions` built them.

    Times P*D, where D is a common multiple of the denominators of the
    nonzero c, the identity is one between polynomials:

        sum_k S_k * prod_(i != k) rho_i^(m_i) == D,
        S_k = sum_mu c.num * (D/c.den) * rho_k^(m_k - mu),   c = c_(k, mu).

    D (`common`) is built from the largest denominators down, and one joins
    it as a factor only when a trial division shows it does not divide D
    already; a division that succeeds is kept as D/den, and the kept
    quotients are multiplied by den when D grows, so the check takes no gcd.
    The digits of one factor often have denominators B^j, powers of one B,
    and then D is the largest of them, not their product.  Times the
    nonzero D, an identity of rational functions is an equivalent one, so
    the check is as strong as with any other common multiple.  S_k is formed
    by Horner's rule in rho_k, from mu = 1 up, and the sum over k by the
    same rule in the powers: after factor k it is
    sum_(j <= k) S_j prod_(i <= k, i != j) rho_i^(m_i).
    """
    parts = [(c, k, mu) for k, mu, c in pfd.entries if not c.is_zero()]
    common = MultiPoly.const(fd.nvars, 1)
    cofactors: Dict[MultiPoly, MultiPoly] = {}  # den -> D/den
    # a proper divisor of a monic den has lower total degree, so it comes later
    for den in sorted(dict.fromkeys(c.den for c, _, _ in parts), reverse=True,
                      key=lambda p: sum(p.leading_exponent())):
        try:
            cofactors[den] = exact_divide(common, den)
        except DivisionError:  # D grows to D den
            cofactors = {d: q * den for d, q in cofactors.items()}
            cofactors[den], common = common, common * den
    zero = MultiPoly.zero(fd.nvars)
    digits: Dict[Tuple[int, int], MultiPoly] = {}  # (k, mu) -> c.num * (D/c.den)
    for c, k, mu in parts:
        if not 1 <= mu <= fd.factors[k].multiplicity:
            raise ArithmeticError(f"partial fraction entry {(k, mu)} out of range")
        term = c.num * cofactors[c.den]
        digits[(k, mu)] = digits.get((k, mu), zero) + term
    total = zero
    # below = prod_(i < k) rho_i^(m_i)
    belows = accumulate(powers[:-1], mul, initial=MultiPoly.const(fd.nvars, 1))
    for k, (f, p, below) in enumerate(zip(fd.factors, powers, belows)):
        s = zero
        for mu in range(1, f.multiplicity + 1):
            s = s * f.rho + digits.get((k, mu), zero)
        total = total * p + s * below
    if total != common:
        raise ArithmeticError("partial fraction recombination failed")


# ---------------------------------------------------------------------------
# transverse derivatives:  D_0 = 1,  D_s = w^-(2s-1) * sum_a beta_a^s d^a/dz_var^a
# ---------------------------------------------------------------------------

Operator = Tuple[Tuple[int, RatFn], ...]  # ((a, c_a), ...): eta -> sum_a c_a d^a eta/dz_var^a


def transverse_operator(rho: MultiPoly, var: int, order: int) -> Tuple[Operator, ...]:
    """The tower (D_0, ..., D_order): D_s as ((a, c_a), ...) with
    c_a = beta_a^(s)/w^(2s-1), and D_0 = ((0, 1),).  The betas come from one
    run of the first-order recursion

        beta_a^(s+1) = w * d(beta_a^s)/dz - (2s-1) * dw/dz * beta_a^s
                       + w * beta_(a-1)^s,        w = drho/dz_var,

    which starts at beta^(1) = (1,).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    w = rho.partial(var)
    if w.is_zero():
        raise FactorFreeOfVariable("factor free of the distinguished variable")
    nvars = rho.nvars
    wp = w.partial(var)
    zero = MultiPoly.zero(nvars)
    tower = [((0, RatFn.one(nvars)),)]
    betas, scale = (MultiPoly.const(nvars, 1),), w  # beta^(1), w^(2s-1) at s = 1
    for s in range(1, order + 1):
        if s > 1:
            prev = betas + (zero,)  # beta^(s-1), with beta_s^(s-1) = 0
            k_wp = (2 * s - 3) * wp
            betas = tuple(w * b.partial(var) - k_wp * b + (w * prev[i - 1] if i else zero)
                          for i, b in enumerate(prev))
            scale = scale * w * w
        tower.append(tuple((a, RatFn(b, scale)) for a, b in enumerate(betas, 1)))
    return tuple(tower)


def transverse_derivatives(f: RatFn, w: MultiPoly, count: int,
                           var: int) -> List[Tuple[MultiPoly, MultiPoly]]:
    """D_s(f/w) = num_s/den_s for s < count, w = drho/dz_var, as unreduced
    pairs: the caller forms one RatFn per output, after any factor of its
    own, and that is the only normalisation.  With F = f.den and out = 1
    when f.den depends on z_var, else F = 1 and out = f.den (as for every
    digit of `partial_fractions`), the step D_(s+1) = w^-1 d/dz_var D_s gives

        D_s(f/w) = N_s / (out * w^(2s+1) * F^(s+1)),    N_0 = f.num,
        N_(s+1) = w F N_s' - ((2s+1) w' F + (s+1) w F') N_s,

    with ' = d/dz_var; no gcd runs.
    """
    one = MultiPoly.const(f.nvars, 1)
    big_f, out = (f.den, one) if f.den.depends_on(var) else (one, f.den)
    wf, wpf, wfp = w * big_f, w.partial(var) * big_f, w * big_f.partial(var)
    num, den = f.num, out * wf
    pairs = [(num, den)]
    for s in range(count - 1):
        num = wf * num.partial(var) - ((2 * s + 1) * wpf + (s + 1) * wfp) * num
        den = den * w * wf  # out * w^(2s+3) * F^(s+2)
        pairs.append((num, den))
    return pairs


# ---------------------------------------------------------------------------
# residue-operator table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorEntry:
    """One (k, mu, l) cell: the weight g and `op`, the operator D_(mu-1-l)
    as `transverse_operator` gives it."""

    g: RatFn
    op: Operator


@dataclass(frozen=True)
class ResidueOperatorData:
    var: int
    entries: Dict[Tuple[int, int, int], OperatorEntry]

    def entry(self, k: int, mu: int, l: int) -> OperatorEntry:
        return self.entries[(k, mu, l)]


def residue_operator_data(pfd: PartialFractionDecomp,
                          fd: FactoredDenominator) -> ResidueOperatorData:
    """Assemble the full (k, mu, l) table for one distinguished variable:
    with c = c_(k, mu), g = D_l(c/w) at l = mu - 1, else
    C(mu-1, l) D_l(c/w) / w^(2(mu-l)-3), and op is D_(mu-1-l).  Each factor
    takes one tower of operators; each nonzero c takes its values
    D_0(c/w), ..., D_(mu-1)(c/w) from one `transverse_derivatives` run, and
    each of its cells is one RatFn formed from a value's numerator and
    denominator times the weight.  The cells of a zero c are zero."""
    if pfd.var != fd.var:
        raise ValueError("partial fractions and denominator use different variables")
    var = fd.var
    entries: Dict[Tuple[int, int, int], OperatorEntry] = {}
    for k, f in enumerate(fd.factors):
        w = f.rho.partial(var)
        tower = transverse_operator(f.rho, var, f.multiplicity - 1)
        for mu in range(1, f.multiplicity + 1):
            c = pfd.coefficient(k, mu)
            if c.is_zero():  # every D_l of 0 is 0
                entries.update(((k, mu, l), OperatorEntry(c, tower[mu - 1 - l]))
                               for l in range(mu))
                continue
            chain = transverse_derivatives(c, w, mu, var)
            for l, (num, den) in enumerate(chain):
                if l < mu - 1:
                    num, den = num * comb(mu - 1, l), den * w ** (2 * (mu - l) - 3)
                entries[(k, mu, l)] = OperatorEntry(RatFn(num, den), tower[mu - 1 - l])
    return ResidueOperatorData(var, entries)
