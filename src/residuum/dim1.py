"""Residue currents of meromorphic 1-forms in one variable.

A form g(z) dz with Gaussian-rational poles decomposes into exact Laurent
principal parts; the residue current at a pole of multiplicity k is the
delta-operator current sum_j b_j d^j/dz^j delta with b_j = (2 pi i / j!)
times the Laurent coefficient a_{-(j+1)}.  The constants are pinned by the
contour oracle `contour_residue_numeric`, which is also exposed directly.

Convention: (d^j delta_a)(phi) := (d^j phi/dz^j)(a), without the
distributional (-1)^j; the b_j above are stated for this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .bump import BumpFunction
from .errors import IrrationalPole
from .forms import TestForm
from .polynomials import MultiPoly
from .quadrature import (
    LimitResult,
    QuadratureConfig,
    circle_nodes,
    radial_panels,
    richardson,
)
from .ratfn import RatFn
from .scalars import GaussianRational, TaggedScalar


@dataclass(frozen=True)
class LaurentPart:
    pole: GaussianRational
    coeffs: Tuple[GaussianRational, ...]  # a_{-1}, ..., a_{-k}

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def as_ratfn(self) -> RatFn:
        z = MultiPoly.variable(1, 0)
        lin = z - MultiPoly.const(1, self.pole)
        out = RatFn.zero(1)
        for l, a in enumerate(self.coeffs, start=1):
            if not a.is_zero():
                out = out + RatFn(MultiPoly.const(1, a), lin ** l)
        return out


@dataclass(frozen=True)
class DeltaOperatorCurrent:
    pole: GaussianRational
    coeffs: Tuple[TaggedScalar, ...]  # b_0, ..., b_{k-1}

    def order(self) -> int:
        return len(self.coeffs)


def _univar_coeff_list(p: MultiPoly) -> List[GaussianRational]:
    out = [GaussianRational(0)] * (p.degree_in(0) + 1)
    for exp, c in p.terms.items():
        out[exp[0]] = c
    return out


def _rationalize(x: float, max_den: int = 10 ** 6) -> Fraction:
    return Fraction(x).limit_denominator(max_den)


def find_rational_roots(den: MultiPoly) -> List[Tuple[GaussianRational, int]]:
    """Split a 1-variable polynomial into exact Gaussian-rational linear
    factors; raises IrrationalPole if any numeric root fails to rationalize."""
    if den.nvars != 1:
        raise ValueError("expected a one-variable polynomial")
    deg = den.degree_in(0)
    if deg <= 0:
        return []
    coeffs = _univar_coeff_list(den)
    numeric = np.roots([complex(c) for c in reversed(coeffs)])
    z = MultiPoly.variable(1, 0)
    remaining = den
    roots: List[Tuple[GaussianRational, int]] = []
    for r in numeric:
        if any(abs(complex(a) - r) < 1e-7 for a, _ in roots):
            continue
        cand = GaussianRational(_rationalize(float(r.real)), _rationalize(float(r.imag)))
        if not remaining.eval_exact([cand]).is_zero():
            raise IrrationalPole(
                f"root near {r:.6g} is not Gaussian rational "
                "(or exceeds the rationalization bound)", numeric_roots=list(numeric))
        lin = z - MultiPoly.const(1, cand)
        mult = 0
        while remaining.eval_exact([cand]).is_zero():
            remaining = _exact_linear_deflate(remaining, cand)
            mult += 1
        roots.append((cand, mult))
    if remaining.degree_in(0) != 0:
        raise IrrationalPole("numeric root finding missed a factor",
                             numeric_roots=list(numeric))
    return roots


def _exact_linear_deflate(p: MultiPoly, a: GaussianRational) -> MultiPoly:
    """Exact synthetic division of p by (z - a); the caller checks p(a) = 0."""
    coeffs = _univar_coeff_list(p)
    out = [GaussianRational(0)] * (len(coeffs) - 1)
    acc = GaussianRational(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc
        out[k - 1] = acc
        acc = acc * a
    return MultiPoly(1, {(k,): c for k, c in enumerate(out)})


def _series_inverse(coeffs: List[GaussianRational], order: int) -> List[GaussianRational]:
    """Power series inverse mod t^order; coeffs[0] must be nonzero."""
    inv0 = coeffs[0].inverse()
    out = [inv0] + [GaussianRational(0)] * (order - 1)
    for n in range(1, order):
        s = GaussianRational(0)
        for k in range(1, n + 1):
            ck = coeffs[k] if k < len(coeffs) else GaussianRational(0)
            s = s + ck * out[n - k]
        out[n] = -inv0 * s
    return out


def laurent_parts(g: RatFn) -> List[LaurentPart]:
    """Exact Laurent principal parts of a one-variable rational function."""
    if g.nvars != 1:
        raise ValueError("laurent_parts expects one variable")
    if g.is_zero() or g.is_polynomial():
        return []
    roots = find_rational_roots(g.den)
    z = MultiPoly.variable(1, 0)
    parts: List[LaurentPart] = []
    for pole, k in sorted(roots, key=lambda t: (t[0].re, t[0].im)):
        q = g.den
        for _ in range(k):
            q = _exact_linear_deflate(q, pole)
        num_t = g.num.shift_var(0, pole)
        q_t = q.shift_var(0, pole)
        num_c = _univar_coeff_list(num_t)[:k] or [GaussianRational(0)]
        q_c = _univar_coeff_list(q_t)
        inv = _series_inverse(q_c, k)
        series = [GaussianRational(0)] * k
        for n in range(k):
            s = GaussianRational(0)
            for i in range(n + 1):
                a = num_c[i] if i < len(num_c) else GaussianRational(0)
                s = s + a * inv[n - i]
            series[n] = s
        coeffs = tuple(series[k - l] for l in range(1, k + 1))
        parts.append(LaurentPart(pole, coeffs))
    return parts


def residue_current_1d(parts: List[LaurentPart]) -> List[DeltaOperatorCurrent]:
    """b_j = (2 pi i / j!) a_{-(j+1)} for each pole."""
    out = []
    for part in parts:
        bs = []
        for j in range(part.multiplicity):
            a = part.coeffs[j]
            bs.append(TaggedScalar(a / GaussianRational(math.factorial(j)), two_pi_i=True))
        out.append(DeltaOperatorCurrent(part.pole, tuple(bs)))
    return out


def apply_delta_current(cur: DeltaOperatorCurrent, phi: BumpFunction) -> complex:
    """sum_j b_j (d^j phi / dz^j)(pole); derivatives exact in the bump algebra."""
    if phi.nvars != 1:
        raise ValueError("expected a one-variable test function")
    z0 = np.array([complex(cur.pole)])
    total = 0j
    d = phi
    for j, b in enumerate(cur.coeffs):
        if j > 0:
            d = d.dz(0)
        if not b.is_zero():
            total += complex(b) * complex(d.eval_numeric(z0))
    return total


def residue_pairing_1d(g: RatFn, phi: BumpFunction) -> complex:
    """Full current evaluation: sum over poles of the delta-operator data."""
    return sum((apply_delta_current(cur, phi)
                for cur in residue_current_1d(laurent_parts(g))), 0j)


# ---------------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------------

def contour_residue_numeric(g: RatFn, phi: BumpFunction,
                            cfg: QuadratureConfig | None = None,
                            center: complex = 0j) -> LimitResult:
    """lim_eps contour integral of g phi dz over |z - center| = eps.

    Trapezoid in the angle (spectrally accurate), Richardson in eps^2.
    This is the oracle that pins the delta-operator constants.
    """
    cfg = cfg or QuadratureConfig()
    if g.nvars != 1 or phi.nvars != 1:
        raise ValueError("one-variable data expected")
    eps0 = cfg.eps0
    if eps0 is None:
        eps0 = float(phi.radius) / 4.0
    # keep all circles clear of the other poles
    other = [complex(p) for p, _ in find_rational_roots(g.den)
             if abs(complex(p) - center) > 1e-12]
    if other:
        eps0 = min(eps0, 0.5 * min(abs(p - center) for p in other))
    th, e_i = circle_nodes(cfg.n_theta)
    table = []
    values = []
    for eps in cfg.eps_schedule(eps0):
        zs = center + eps * e_i
        pts = zs[:, np.newaxis]
        integrand = g.eval_numeric(pts) * phi.eval_numeric(pts) * 1j * (zs - center)
        v = complex(integrand.sum() * (2.0 * np.pi / cfg.n_theta))
        table.append((eps, v))
        values.append(v)
    value, residual = richardson(values, power=2)
    scale = max(1.0, abs(value))
    converged = residual <= max(cfg.abs_tol, cfg.rel_tol * scale)
    return LimitResult(value, table, residual, converged)


def vp_1d(g: RatFn, psi: TestForm, cfg: QuadratureConfig | None = None) -> LimitResult:
    """Principal value lim_eps int_{|z - pole| >= eps} g dz ^ psi.

    psi is a (0,1) test form psi_0 dzbar; the integral excludes symmetric
    eps-disks around every pole (equivalent to the |f| >= eps family in the
    limit).  The exact Laurent split localizes each singular piece.
    """
    cfg = cfg or QuadratureConfig()
    if g.nvars != 1:
        raise ValueError("one-variable data expected")
    if psi.nvars != 1 or psi.bidegree != (0, 1):
        raise ValueError("psi must be a (0,1) test form in one variable")
    b = psi.coeffs.get(((), (0,)))
    if b is None:
        return LimitResult(0j, [(0.0, 0j)], 0.0, True, note="zero test form")
    support = float(b.radius)
    center = complex(b.center[0])
    parts = laurent_parts(g)
    regular = g
    for part in parts:
        regular = regular - part.as_ratfn()

    th, e_i = circle_nodes(cfg.n_theta)
    dtheta = 2.0 * np.pi / cfg.n_theta

    def disk_integral(fn_vals, rs, ws, zs):
        # integral of fn * (-2i) over the polar portion: sum w_r * r * dtheta
        return complex(np.sum(fn_vals * (-2j) * rs[:, None] * ws[:, None]) * dtheta)

    # smooth part: plain polar integral over the support disk, no exclusion
    rs, ws = radial_panels(1e-12 * support, support, cfg.radial_panels_order)
    zs = center + rs[:, None] * e_i[None, :]
    smooth_vals = regular.eval_numeric(zs[..., None]) * b.eval_numeric(zs[..., None])
    smooth = disk_integral(smooth_vals, rs, ws, zs)

    eps0 = cfg.eps0 if cfg.eps0 is not None else support / 8.0
    if parts:
        min_sep = min(
            [abs(complex(p.pole) - complex(q.pole))
             for p in parts for q in parts if p.pole != q.pole] or [support])
        eps0 = min(eps0, 0.25 * min_sep)
    if not parts:
        return LimitResult(smooth, [(0.0, smooth)], 0.0, True, note="no poles")

    def annulus(part, a, out):
        # polar integral of the principal part over a <= |z - pole| <= out
        rs, ws = radial_panels(a, out, cfg.radial_panels_order)
        if rs.size == 0:
            return 0j
        zs = complex(part.pole) + rs[:, None] * e_i[None, :]
        vals = part.as_ratfn().eval_numeric(zs[..., None]) * b.eval_numeric(zs[..., None])
        return disk_integral(vals, rs, ws, zs)

    # nested decomposition: one fixed outer region per pole plus the thin
    # annuli between consecutive eps levels, so that the eps-table differences
    # carry no re-meshing noise and stay analytic in eps^2
    eps_list = cfg.eps_schedule(eps0)
    totals = smooth
    for part in parts:
        totals += annulus(part, eps_list[0], abs(complex(part.pole) - center) + support)
    values = [totals]
    for a, b_prev in zip(eps_list[1:], eps_list[:-1]):
        for part in parts:
            totals += annulus(part, a, b_prev)
        values.append(totals)
    table = list(zip(eps_list, values))
    value, residual = richardson(values, power=2)
    scale = max(1.0, abs(value))
    converged = residual <= max(cfg.abs_tol, cfg.rel_tol * scale)
    return LimitResult(value, table, residual, converged)
