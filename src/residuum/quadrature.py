"""Shared numeric plumbing: configuration, extrapolation, grids.

All evaluators are deterministic: fixed node counts, fixed summation
order, no adaptive branching on floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:
    import numpy as np


@dataclass
class QuadratureConfig:
    n_theta: int = 128                  # circle nodes (trapezoid, spectral)
    eps_levels: int = 5                 # eps_m = eps0 * 2^-m, m = 0..eps_levels-1
    radial_panels_order: int = 16       # Gauss-Legendre order per radial panel
    rel_tol: float = 1e-6               # convergence verdict for extrapolations
    abs_tol: float = 1e-9

    def eps_schedule(self, eps0: float) -> List[float]:
        return [eps0 * 2.0 ** (-m) for m in range(self.eps_levels)]


@dataclass
class LimitResult:
    value: complex
    table: List[Tuple[float, complex]] = field(default_factory=list)
    residual: float = 0.0
    converged: bool = True
    note: str = ""


def richardson(values: List[complex]) -> Tuple[complex, float]:
    """Extrapolate a sequence v_m = L + sum_i c_i * (h0 * 2^-m)^(2i).

    Returns (limit, residual); the residual is the gap between the last two
    extrapolants, the limit and the finest one of the order below it.  That
    gap estimates the error of the lower-order extrapolant, so it bounds the
    limit's error in practice; the gap to the finest raw value would be the
    much larger O(h0^2) truncation error of the raw sequence instead.
    """
    vals = [complex(v) for v in values]
    if len(vals) == 1:
        return vals[0], float("inf")
    fact = 4.0
    while len(vals) > 1:
        below = vals
        vals = [(fact * b - a) / (fact - 1) for a, b in zip(vals, vals[1:])]
        fact *= 4.0
    limit = vals[0]
    return limit, abs(limit - below[-1])


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only, since every caller shares them."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panel(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights of one panel [a, b]; exact for
    polynomials of degree < 2 * order, and spectrally accurate for an
    integrand analytic near the panel."""
    x, w = _gauss_legendre(order)
    s = 0.5 * (b - a)
    return 0.5 * (a + b) + s * x, w * s


def radial_panels(eps: float, outer: float, order: int):
    """Panels on [eps, outer]: widths double away from eps and halve again,
    eight times, toward the outer edge.

    The end refinement is only for an integrand that is C-infinity but not
    analytic at `outer`, such as a cutoff whose support ends there: one wide
    end panel would lose Gauss-Legendre accuracy.  An interval on which the
    integrand is analytic needs no refinement and takes one `gauss_panel`.

    Returns (radii, weights) flattened over panels.
    """
    import numpy as np

    if eps >= outer:
        return np.array([]), np.array([])
    mid = 0.5 * (eps + outer)
    left = [eps]
    while left[-1] * 2.0 < mid:
        left.append(left[-1] * 2.0)
    anchor = left[-1]
    right = [outer - (outer - anchor) * 0.5 ** k for k in range(1, 9)
             if outer - (outer - anchor) * 0.5 ** k > anchor]
    edges = sorted(set(left) | set(right) | {outer})
    rs, ws = zip(*(gauss_panel(a, b, order) for a, b in zip(edges, edges[1:])))
    return np.concatenate(rs), np.concatenate(ws)


def circle_nodes(n_theta: int) -> np.ndarray:
    """e^{i theta} at the unit-circle nodes theta_k = 2 pi k / N (trapezoid
    weights 2 pi / N)."""
    import numpy as np

    return np.exp(1j * (2.0 * np.pi * np.arange(n_theta) / n_theta))
