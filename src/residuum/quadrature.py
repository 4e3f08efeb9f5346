"""Shared numeric plumbing: the eps-schedule, extrapolation, grids.

All evaluators are deterministic: fixed node counts, fixed summation
order, no adaptive branching on floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:
    import numpy as np

EPS_LEVELS = 5    # eps_m = eps0 * 2^-m, m = 0..EPS_LEVELS-1
REL_TOL = 1e-6    # convergence verdict of an extrapolated limit
ABS_TOL = 1e-9


@dataclass
class LimitResult:
    value: complex
    table: List[Tuple[float, complex]]
    residual: float
    converged: bool
    note: str = ""


def eps_schedule(eps0: float) -> List[float]:
    return [eps0 * 2.0 ** (-m) for m in range(EPS_LEVELS)]


def tolerance(value: complex) -> float:
    return max(ABS_TOL, REL_TOL * max(1.0, abs(value)))


def limit(table: List[Tuple[float, complex]]) -> LimitResult:
    value, residual = richardson([v for _, v in table])
    return LimitResult(value, table, residual, residual <= tolerance(value))


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
    """Gauss-Legendre nodes and weights of one panel [a, b], or of many when
    a and b are arrays with a trailing axis for the nodes; exact for
    polynomials of degree < 2 * order, and spectrally accurate for an
    integrand analytic near the panel."""
    x, w = _gauss_legendre(order)
    s = 0.5 * (b - a)
    return 0.5 * (a + b) + s * x, w * s


def radial_panels(inner: float, outer, order: int):
    """Gauss-Legendre panels on [inner, outer_k] along each ray k; `outer`
    holds one end radius per ray.  Up to the ray's midpoint the panel ends
    grow by a ratio of at most 2, so a singularity at radius 0 stays a panel
    width away (one panel from inner = 0).  Then the panels halve five times
    toward outer_k, where the integrand may be C-infinity but not
    analytic, as a cutoff is at its support's edge.  Every ray gets the same
    panels.  Returns (radii, weights), each of shape (rays, nodes)."""
    import numpy as np

    outer = np.atleast_1d(np.asarray(outer, dtype=float))
    mid = 0.5 * (inner + outer)
    if inner > 0:
        steps = max(1, math.ceil(math.log2(float(mid.max()) / inner)))
        left = inner * (mid / inner)[:, None] ** (np.arange(steps + 1) / steps)
    else:
        left = np.stack([np.zeros_like(mid), mid], axis=1)
    right = outer[:, None] - (outer - mid)[:, None] * 0.5 ** np.arange(1, 6)
    edges = np.concatenate([left, right, outer[:, None]], axis=1)
    rs, ws = gauss_panel(edges[:, :-1, None], edges[:, 1:, None], order)
    return rs.reshape(len(outer), -1), ws.reshape(len(outer), -1)


@lru_cache(maxsize=None)
def circle_nodes(n_theta: int) -> np.ndarray:
    """e^{i theta} at the unit-circle nodes theta_k = 2 pi k / N (trapezoid
    weights 2 pi / N), computed once per N and returned read-only, since
    every caller shares it: vp_1d and the contour oracle ask for the same
    few N."""
    import numpy as np

    nodes = np.exp(1j * (2.0 * np.pi * np.arange(n_theta) / n_theta))
    nodes.flags.writeable = False
    return nodes
