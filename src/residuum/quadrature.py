"""Shared numeric plumbing: configuration, extrapolation, grids.

All evaluators are deterministic: fixed node counts, fixed summation
order, no adaptive branching on floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import NonConvergent


@dataclass
class QuadratureConfig:
    n_theta: int = 128                  # circle nodes (trapezoid, spectral)
    eps_levels: int = 5                 # eps_m = eps0 * 2^-m, m = 0..eps_levels-1
    eps0: Optional[float] = None        # None: derived from support / root separation
    delta_levels: int = 3               # delta_m = delta0 * 2^-m
    delta0: Optional[float] = None      # None: derived from the discriminant scale
    y_grid: int = 32                    # tensor Gauss-Legendre nodes per real axis
    radial_panels_order: int = 16       # Gauss-Legendre order per radial panel
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    richardson_levels: int = 4
    rel_tol: float = 1e-6               # convergence verdict for extrapolations
    abs_tol: float = 1e-9

    def eps_schedule(self, eps0: float) -> List[float]:
        return [eps0 * 2.0 ** (-m) for m in range(self.eps_levels)]

    def delta_schedule(self, delta0: float) -> List[float]:
        return [delta0 * 2.0 ** (-m) for m in range(self.delta_levels)]


@dataclass
class LimitResult:
    value: complex
    table: List[Tuple[float, complex]] = field(default_factory=list)
    residual: float = 0.0
    converged: bool = True
    note: str = ""

    def require_converged(self, what: str) -> "LimitResult":
        if not self.converged:
            raise NonConvergent(f"{what}: extrapolation residual {self.residual:.3e}", self)
        return self


def richardson(values: List[complex], power: int = 2,
               ratio: float = 2.0) -> Tuple[complex, float]:
    """Extrapolate a sequence v_m = L + sum_i c_i * (h0 * ratio^-m)^(power*i).

    Returns (limit, residual); the residual is the gap between the last two
    extrapolants, the limit and the finest one of the order below it.  That
    gap estimates the error of the lower-order extrapolant, so it bounds the
    limit's error in practice; the gap to the finest raw value would be the
    much larger O(h0^power) truncation error of the raw sequence instead.
    """
    vals = [complex(v) for v in values]
    if len(vals) == 1:
        return vals[0], float("inf")
    fact = ratio ** power
    while len(vals) > 1:
        below = vals
        vals = [(fact * b - a) / (fact - 1) for a, b in zip(vals, vals[1:])]
        fact *= ratio ** power
    limit = vals[0]
    return limit, abs(limit - below[-1])


def stabilized_limit(values: List[complex]) -> Tuple[complex, float]:
    """Limit estimate for step-like sequences (cutoff refinements): take the
    last value, report the size of the last step as the residual."""
    vals = [complex(v) for v in values]
    if len(vals) == 1:
        return vals[0], float("inf")
    return vals[-1], abs(vals[-1] - vals[-2])


def gauss_legendre_box(n: int, lo_x: float, hi_x: float,
                       lo_y: float, hi_y: float):
    """Tensor Gauss-Legendre grid on a real box; returns (points(n*n, 2), weights(n*n))."""
    x, wx = np.polynomial.legendre.leggauss(n)
    sx = 0.5 * (hi_x - lo_x)
    sy = 0.5 * (hi_y - lo_y)
    xs = 0.5 * (lo_x + hi_x) + sx * x
    ys = 0.5 * (lo_y + hi_y) + sy * x
    wxs = wx * sx
    wys = wx * sy
    px, py = np.meshgrid(xs, ys, indexing="ij")
    ww = np.outer(wxs, wys)
    pts = np.stack([px.ravel(), py.ravel()], axis=-1)
    return pts, ww.ravel()


def radial_panels(eps: float, outer: float, order: int, edge_levels: int = 8):
    """Panels on [eps, outer]: widths double away from eps and halve again
    toward the outer edge (cutoff factors are C-infinity but not analytic
    there, so wide end panels lose Gauss-Legendre accuracy).

    Returns (radii, weights) flattened over panels.
    """
    if eps >= outer:
        return np.array([]), np.array([])
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (eps + outer)
    left = [eps]
    while left[-1] * 2.0 < mid:
        left.append(left[-1] * 2.0)
    anchor = left[-1]
    right = [outer - (outer - anchor) * 0.5 ** k for k in range(1, edge_levels + 1)
             if outer - (outer - anchor) * 0.5 ** k > anchor]
    edges = sorted(set(left) | set(right) | {outer})
    rs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        s = 0.5 * (b - a)
        rs.append(0.5 * (a + b) + s * x)
        ws.append(w * s)
    return np.concatenate(rs), np.concatenate(ws)


def circle_nodes(n_theta: int):
    """Unit-circle nodes and the e^{i theta} values, trapezoid weights 2pi/N."""
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return th, np.exp(1j * th)
