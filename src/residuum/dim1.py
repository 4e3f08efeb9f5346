"""Residue currents of meromorphic 1-forms in one variable.

A form g(z) dz with Gaussian-rational poles decomposes into exact Laurent
principal parts, read off at a pole p of multiplicity k from Taylor shifts
of num and den to powers of z - p; the residue current there is the
delta-operator current sum_j b_j d^j/dz^j delta with b_j = (2 pi i / j!)
times the Laurent coefficient a_{-(j+1)}.  A current stores each b_j once,
as its Gaussian-rational factor a_{-(j+1)}/j! of 2 pi i; the float 2 pi i
joins only when a test function is paired.  The constants are pinned by the
contour oracle `contour_residue_numeric`, which is also exposed directly.

Convention: (d^j delta_a)(phi) := (d^j phi/dz^j)(a), without the
distributional (-1)^j; the b_j above are stated for this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import List, Tuple

from .bump import BumpFunction
from .errors import IrrationalPole
from .forms import TestForm
from .polynomials import _ZERO, MultiPoly, _deflate, _taylor, cofactors
from .quadrature import (
    LimitResult,
    circle_nodes,
    eps_schedule,
    gauss_panel,
    limit,
    radial_panels,
)
from .ratfn import RatFn, uni_divmod
from .scalars import GaussianRational


@dataclass(frozen=True)
class LaurentPart:
    pole: GaussianRational
    coeffs: Tuple[GaussianRational, ...]  # a_{-1}, ..., a_{-k}, a_{-k} != 0

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1].is_zero():
            raise ValueError("a Laurent part needs a nonzero leading coefficient a_{-k}")

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def as_ratfn(self) -> RatFn:
        """N(z-p)/(z-p)^k, N(u) = sum_l a_{-l} u^(k-l), canonical: monic and
        N(0) = a_{-k} != 0; N(u) and u^k are Taylor-shifted by -p (`_taylor`)."""
        k, a = self.multiplicity, -self.pole
        num = _taylor(list(self.coeffs), a, k)
        den = _taylor([GaussianRational(1)] + [_ZERO] * k, a, k + 1)
        return RatFn._of(*(MultiPoly._of(1, {(j,): c for j, c in enumerate(t) if not c.is_zero()})
                           for t in (num, den)))


@dataclass(frozen=True)
class DeltaOperatorCurrent:
    """sum_j b_j d^j/dz^j delta at `pole`.  `coeffs` holds b_j / (2 pi i),
    the Gaussian-rational factor of each b_j: 2 pi i itself is applied only
    in the float evaluation, `_pair_currents`."""

    pole: GaussianRational
    coeffs: Tuple[GaussianRational, ...]  # b_0, ..., b_{k-1}, each over 2 pi i


RATIONALIZE_MAX_DEN = 10 ** 6  # largest denominator a numeric root may rationalize to


def _rationalize(x: float) -> Fraction:
    return Fraction(x).limit_denominator(RATIONALIZE_MAX_DEN)


def _coeffs(p: MultiPoly, deg: int) -> List[GaussianRational]:
    """The coefficients of a one-variable p, highest first, from degree
    max(deg_z p, deg) down."""
    return [p.terms.get((e,), _ZERO) for e in range(max(p.degree_in(0), deg), -1, -1)]


def find_rational_roots(den: MultiPoly) -> List[Tuple[GaussianRational, int]]:
    """Split a 1-variable polynomial into exact Gaussian-rational linear
    factors; raises IrrationalPole if any numeric root fails to rationalize."""
    import numpy as np

    if den.nvars != 1:
        raise ValueError("expected a one-variable polynomial")
    deg = den.degree_in(0)
    if deg <= 0:
        return []
    coeffs = _coeffs(den, deg)
    numeric = np.roots([complex(c) for c in coeffs])
    roots: List[Tuple[GaussianRational, int]] = []
    for r in numeric:
        if any(abs(complex(a) - r) < 1e-7 for a, _ in roots):
            continue
        cand = GaussianRational(_rationalize(float(r.real)), _rationalize(float(r.imag)))
        quotient, value = _deflate(coeffs, cand)
        if not value.is_zero():
            raise IrrationalPole(
                f"root near {r:.6g} is not Gaussian rational "
                "(or exceeds the rationalization bound)")
        mult = 0
        while value.is_zero():
            coeffs = quotient
            mult += 1
            quotient, value = _deflate(coeffs, cand)
        roots.append((cand, mult))
    if len(coeffs) != 1:
        raise IrrationalPole("numeric root finding missed a factor")
    return roots


def principal_part(num: MultiPoly, den: MultiPoly, pole: GaussianRational, k: int):
    """(a_{-1}, ..., a_{-k}) of num/den at a pole p of den of multiplicity k.
    In powers of z - p (`_taylor`), d_i = 0 for i < k and d_k != 0 certify k,
    and a_{-l} = t_{k-l}, t = sum n_i (z - p)^i / sum d_{k+i} (z - p)^i."""
    d = _taylor(_coeffs(den, 2 * k - 1), pole, 2 * k)
    n, t = _taylor(_coeffs(num, k - 1), pole, k), []
    if any(not c.is_zero() for c in d[:k]) or d[k].is_zero():
        raise ArithmeticError(f"{pole} is not a pole of multiplicity {k}")
    for j in range(k):  # n_j = sum_i d_{k+i} t_{j-i}, solved for t_j
        t.append(reduce(sub, (d[k + i] * t[j - i] for i in range(1, j + 1)), n[j]) / d[k])
    return tuple(t[::-1])


def laurent_parts(g: RatFn) -> List[LaurentPart]:
    """Exact Laurent principal parts of a one-variable rational function,
    pole by pole from `principal_part`: no division by (z - p)^k, no gcd."""
    if g.nvars != 1:
        raise ValueError("laurent_parts expects one variable")
    if g.is_zero() or g.is_polynomial():
        return []
    return [LaurentPart(pole, principal_part(g.num, g.den, pole, k)) for pole, k
            in sorted(find_rational_roots(g.den), key=lambda t: (t[0].re, t[0].im))]


def residue_current_1d(parts: List[LaurentPart]) -> List[DeltaOperatorCurrent]:
    """b_j = (2 pi i / j!) a_{-(j+1)} for each pole, stored over 2 pi i."""
    return [DeltaOperatorCurrent(part.pole, tuple(a / GaussianRational(math.factorial(j))
                                                  for j, a in enumerate(part.coeffs)))
            for part in parts]


def _pair_currents(currents: List[DeltaOperatorCurrent], phi: BumpFunction) -> complex:
    """sum over the currents of sum_j b_j (d^j phi / dz^j)(pole).  Each d^j phi
    is built once, exactly in the bump algebra, and evaluated in one call at
    the poles whose b_j is nonzero (a point's value does not depend on the
    others); each current's terms are added left to right, then the sums."""
    import numpy as np

    if currents and phi.nvars != 1:
        raise ValueError("expected a one-variable test function")
    terms = [[] for _ in currents]
    d = phi
    for j in range(max((len(cur.coeffs) for cur in currents), default=0)):
        d = d.dz(0) if j else d
        used = [(cur, t) for cur, t in zip(currents, terms)
                if j < len(cur.coeffs) and not cur.coeffs[j].is_zero()]
        if used:
            vals = d.eval_numeric(np.array([[complex(cur.pole)] for cur, _ in used]))
            for (cur, t), v in zip(used, vals):
                t.append(complex(cur.coeffs[j]) * (2j * math.pi) * complex(v))
    return sum((reduce(add, t, 0j) for t in terms), 0j)


def residue_pairing_1d(g: RatFn, phi: BumpFunction) -> complex:
    """Full current evaluation: sum over poles of the delta-operator data."""
    return _pair_currents(residue_current_1d(laurent_parts(g)), phi)


# ---------------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------------

CONTOUR_ANGLES = 128          # trapezoid nodes on each circle of contour_residue_numeric
VP_PANEL_ORDER = 8            # Gauss-Legendre order of every radial panel of vp_1d
VP_ANNULUS_ANGLES = 32        # trapezoid nodes on each thin annulus of vp_1d
VP_OUTSIDE_POLE_ANGLES = 512  # angles when a pole lies on or outside the edge


def contour_residue_numeric(g: RatFn, phi: BumpFunction,
                            center: complex = 0j) -> LimitResult:
    """lim_eps contour integral of g phi dz over |z - center| = eps.

    CONTOUR_ANGLES trapezoid nodes (spectral) on each of EPS_LEVELS circles
    (`eps_schedule`), Richardson in eps^2 and the verdict by `limit`.  This
    is the oracle that pins the delta-operator constants.  The largest
    circle, eps_0, is at most R/4 for phi's support radius R, half the
    distance to the nearest other pole and, unless the centre lies on the
    support's edge, half its distance to that edge: every circle then stays
    where the cutoff is analytic, and the table is a series in eps^2.
    All circles are evaluated in one call and each row is summed alone; as
    a point's value does not depend on the others passed with it, the table
    is bit for bit that of one call per circle.
    """
    import numpy as np

    if g.nvars != 1 or phi.nvars != 1:
        raise ValueError("one-variable data expected")
    gap = abs(float(phi.radius) - abs(center - complex(phi.center[0])))
    eps0 = min(float(phi.radius) / 4.0, 0.5 * gap) if gap > 0 else float(phi.radius) / 4.0
    # keep all circles clear of the other poles: the roots of den's
    # squarefree part are simple, so np.roots does not spread them
    roots = np.roots([complex(c) for c in _coeffs(cofactors(g.den, g.den.partial(0))[1], 0)])
    other = [r for r in map(complex, roots) if abs(r - center) > 1e-12]
    if other:
        eps0 = min(eps0, 0.5 * min(abs(p - center) for p in other))
    eps_list = eps_schedule(eps0)
    zs = center + np.array(eps_list)[:, None] * circle_nodes(CONTOUR_ANGLES)
    pts = zs[..., np.newaxis]
    integrand = g.eval_numeric(pts) * phi.eval_numeric(pts) * 1j * (zs - center)
    values = [complex(row.sum() * (2.0 * np.pi / CONTOUR_ANGLES)) for row in integrand]
    return limit(list(zip(eps_list, values)))


def vp_1d(g: RatFn, psi: TestForm) -> LimitResult:
    """Principal value lim_eps int_{|z - pole| >= eps} g dz ^ psi.

    psi is a (0,1) test form b dzbar, b supported on |z - c| <= R; the
    integral excludes symmetric eps-disks around every pole (equivalent to
    the |f| >= eps family in the limit).  The exact Laurent split
    g = regular + sum of principal parts h localizes each singular piece.
    Each region is a polar grid whose rays all end at the support's edge:
    order-VP_PANEL_ORDER Gauss-Legendre panels along each ray
    (`radial_panels`) times the angular trapezoid.

    * The regular part over the support disk about c: there the cutoff is
      constant on each circle, and the integrand a trigonometric polynomial
      with frequencies from -K to J, J = deg(regular) + max deg_z P and
      K = max deg_zbar P over the terms P of b, so max(J, K) + 1 nodes are
      exact.  The principal part of a pole on or outside the edge joins it,
      unexcluded (b vanishes to infinite order there); with N =
      VP_OUTSIDE_POLE_ANGLES nodes the error is about exp(-sqrt(2 N)).
    * h * b over |z - p| >= eps_0 about a pole p inside.  Ray theta ends at
      r_edge = -beta + sqrt(beta^2 - |p - c|^2 + R^2), beta = Re((p - c)
      e^{-i theta}), so the radial integral is smooth and periodic in theta
      and the trapezoid converges exponentially (Trefethen and Weideman,
      SIAM Review 56, 2014).  Its sharpest feature is about sqrt(gap / R)
      wide, gap = R - |p - c|: 64 angles, doubled while
      gap < (R / 8) (64 / N)^2, up to 1024 (b < e^-1000 at p beyond that).
    * h * b between eps_{m+1} and eps_m about each pole inside.  eps_0 is at
      most R/8, a quarter of the pole separation and half the smallest
      pole-to-edge gap, so each annulus lies where the integrand is
      analytic: one `gauss_panel` and VP_ANNULUS_ANGLES angles.

    The outer regions are fixed and the thin annuli nest, so the eps-table
    differences carry no re-meshing noise and stay analytic in eps^2; the
    EPS_LEVELS rows (`eps_schedule`) go to `limit`.  Each pole's regions are
    evaluated in one call on all their nodes and split back, and the sums
    keep their order; as a point's value does not depend on the others, the
    table is bit for bit that of one call per region.
    """
    import numpy as np

    if g.nvars != 1:
        raise ValueError("one-variable data expected")
    if psi.nvars != 1 or psi.bidegree != (0, 1):
        raise ValueError("psi must be a (0,1) test form in one variable")
    b = psi.coeffs.get(((), (0,)))
    if b is None or b.is_zero():
        return LimitResult(0j, [(0.0, 0j)], 0.0, True, note="zero test form")
    support = float(b.radius)
    center = complex(b.center[0])
    parts = laurent_parts(g)
    principal = [(complex(part.pole), part.as_ratfn()) for part in parts]
    # g less its principal parts is its polynomial part, the quotient of num
    # by den; den is monic, so the pseudo-division multiplies num by 1
    _, quotient, _ = uni_divmod(g.num, g.den, 0)
    inside = [(p, h) for p, h in principal if abs(p - center) < support]
    outside = [h for p, h in principal if abs(p - center) >= support]
    smooth = sum(outside, RatFn.from_any(quotient, 1))
    n_smooth = VP_OUTSIDE_POLE_ANGLES if outside else 1
    if not quotient.is_zero():
        freq_j = quotient.degree_in(0) + max(p.degree_in(0) for p, _, _ in b.terms)
        freq_k = max(p.degree_in(1) for p, _, _ in b.terms)
        n_smooth = max(n_smooth, freq_j + 1, freq_k + 1)

    def polar_integrals(fn, origin, regions):
        # integral of fn * b * (-2i) dA over each polar grid (rs, ws, n_theta)
        # about origin, from one evaluation on all their nodes: rs and ws
        # hold each ray's radii and weights, or one row for all rays
        grids = [origin + rs * circle_nodes(n)[:, None] for rs, _, n in regions]
        zs = np.concatenate([z.ravel() for z in grids])[:, None]
        vals = np.split(fn.eval_numeric(zs) * b.eval_numeric(zs),
                        np.cumsum([z.size for z in grids])[:-1])
        return [complex(np.sum(v.reshape(z.shape) * rs * ws) * (-4j * np.pi / n))
                for v, z, (rs, ws, n) in zip(vals, grids, regions)]

    total = 0j
    if not smooth.is_zero():
        rs, ws = radial_panels(0.0, support, VP_PANEL_ORDER)
        (total,) = polar_integrals(smooth, center, [(rs, ws, n_smooth)])
    if not parts:
        return LimitResult(total, [(0.0, total)], 0.0, True, note="no poles")

    seps = [abs(p - q) for p, _ in principal for q, _ in principal if p != q]
    gaps = [support - abs(p - center) for p, _ in inside]
    eps0 = min([support / 8.0] + [0.25 * s for s in seps] + [0.5 * gap for gap in gaps])
    eps_list = eps_schedule(eps0)
    annuli = [gauss_panel(a, out, VP_PANEL_ORDER) + (VP_ANNULUS_ANGLES,)
              for a, out in zip(eps_list[1:], eps_list[:-1])]
    per_pole = []  # each pole's outer region, then its annuli outside in
    for (p, h), gap in zip(inside, gaps):
        n_theta = 64 * 2 ** min(4, max(0, math.ceil(0.5 * math.log2(support / (8.0 * gap)))))
        beta = ((p - center) * np.conj(circle_nodes(n_theta))).real
        r_edge = -beta + np.sqrt(beta * beta + gap * (2.0 * support - gap))
        rs, ws = radial_panels(eps0, r_edge, VP_PANEL_ORDER)
        per_pole.append(polar_integrals(h, p, [(rs, ws, n_theta)] + annuli))
    values = []
    for level in range(len(eps_list)):
        for sums in per_pole:
            total += sums[level]
        values.append(total)
    return limit(list(zip(eps_list, values)))
