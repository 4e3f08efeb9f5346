"""Compactly supported smooth coefficients for test forms.

A bump value is a finite sum of terms

    P(z, zbar) * (1-t)^(-m) * exp(-c/(1-t)),   t = sum_i |z_i - a_i|^2 / R^2,

cut off to 0 for t >= 1.  P is an exact polynomial in the 2n real-analytic
variables (z_1..z_n, zbar_1..zbar_n), m >= 0 and c >= 1 are integers, and
a is the (Gaussian-rational) support center.  The class is closed under
d/dz_j, d/dzbar_j, sums and scalar multiples, so operators built from
these derivatives act exactly; only point evaluation is floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Tuple

from .polynomials import MultiPoly, _horner_numeric
from .scalars import GaussianRational, _exact, _integer

if TYPE_CHECKING:
    import numpy as np


class BumpFunction:
    __slots__ = ("nvars", "radius", "center", "terms")

    def __init__(self, nvars: int, radius, terms: List[Tuple[MultiPoly, int, int]],
                 center: Tuple[GaussianRational, ...] | None):
        self.nvars = _integer(nvars)
        self.radius = _exact(radius)
        if self.radius <= 0:
            raise ValueError("support radius must be positive")
        if center is None:
            center = tuple(GaussianRational(0) for _ in range(self.nvars))
        self.center = tuple(GaussianRational.from_any(c) for c in center)
        if len(self.center) != self.nvars:
            raise ValueError("center dimension mismatch")
        merged: Dict[Tuple[int, int], MultiPoly] = {}
        for poly, m, c in terms:
            if poly.nvars != 2 * self.nvars:
                raise ValueError("polynomial part must have 2*nvars variables")
            m, c = _integer(m), _integer(c)
            if m < 0 or c < 1:
                raise ValueError(f"need integers m >= 0 and c >= 1, not {(m, c)!r}")
            merged[m, c] = merged.get((m, c), MultiPoly.zero(2 * self.nvars)) + poly
        self.terms = [(p, m, c) for (m, c), p in sorted(merged.items()) if not p.is_zero()]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def radial(nvars: int, radius, center=None) -> "BumpFunction":
        """The plain cutoff exp(-1/(1-t))."""
        return BumpFunction(nvars, radius, [(MultiPoly.const(2 * nvars, 1), 0, 1)],
                            center=center)

    @staticmethod
    def from_poly(nvars: int, radius, poly: MultiPoly, center=None) -> "BumpFunction":
        """poly(z, zbar) * exp(-1/(1-t))."""
        return BumpFunction(nvars, radius, [(poly, 0, 1)], center=center)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "BumpFunction"):
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        if self.radius != other.radius or self.center != other.center:
            raise ValueError("support mismatch")

    # -- algebra ----------------------------------------------------------

    def _with_terms(self, terms) -> "BumpFunction":
        return BumpFunction(self.nvars, self.radius, terms, center=self.center)

    def __add__(self, other: "BumpFunction") -> "BumpFunction":
        self._check(other)
        return self._with_terms(self.terms + other.terms)

    def __neg__(self) -> "BumpFunction":
        return self._with_terms([(-p, m, c) for p, m, c in self.terms])

    def __mul__(self, other) -> "BumpFunction":
        coeff = GaussianRational.from_any(other)
        return self._with_terms([(p * coeff, m, c) for p, m, c in self.terms])

    __rmul__ = __mul__

    # -- derivatives --------------------------------------------------------

    def derivative(self, var: int, conjugate: bool) -> "BumpFunction":
        """Exact d/dz_var (or d/dzbar_var); stays in the class."""
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        n2 = 2 * self.nvars
        rinv2 = GaussianRational(Fraction(1) / (self.radius * self.radius))
        # dt/dz_j = (zbar_j - abar_j)/R^2 ; dt/dzbar_j = (z_j - a_j)/R^2
        if not conjugate:
            shifted = (MultiPoly.variable(n2, var + self.nvars)
                       - MultiPoly.const(n2, self.center[var].conjugate()))
            p_var = var
        else:
            shifted = (MultiPoly.variable(n2, var)
                       - MultiPoly.const(n2, self.center[var]))
            p_var = var + self.nvars
        t_factor = shifted * rinv2
        out = []
        for p, m, c in self.terms:
            dp = p.partial(p_var)
            if not dp.is_zero():
                out.append((dp, m, c))
            if m > 0:
                out.append((p * t_factor * m, m + 1, c))
            out.append((-(p * t_factor) * c, m + 2, c))
        return self._with_terms(out)

    def dz(self, var: int) -> "BumpFunction":
        return self.derivative(var, conjugate=False)

    def dzbar(self, var: int) -> "BumpFunction":
        return self.derivative(var, conjugate=True)

    # -- evaluation -----------------------------------------------------------

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at complex points, shape (..., nvars) -> (...).

        t is summed over the variables one column at a time, left to right
        from 0.0, each column (rel * conj(rel)).real with rel = z_i - a_i.
        Points outside the support (t >= 1, or t NaN) are not evaluated:
        when there are any, the points inside are copied out through a mask
        and their values written back into zeros.  When every point is
        inside, nothing is copied and the sum of the terms is returned
        itself.  Each term's polynomial is evaluated by Horner's rule in
        z_1, ..., z_n, zbar_1, ..., zbar_n, variable z_1 outermost
        (`polynomials._horner`), on the columns of the points and their
        conjugates; log(1 - t) is taken once for all terms, and only when
        some term has m > 0.  A point's value does not depend on the other
        points passed with it, so both paths give it the same bits.
        """
        import numpy as np

        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.nvars:
            if self.nvars == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
                pts = pts[..., np.newaxis]
            else:
                raise ValueError("point dimension mismatch")
        shape = pts.shape[:-1]
        if not self.terms:
            return np.zeros(shape, dtype=complex)
        pts = pts.reshape(-1, self.nvars)
        rels = (pts[:, i] - complex(a) for i, a in enumerate(self.center))
        t = sum(((rel * np.conj(rel)).real for rel in rels), 0.0) / float(self.radius) ** 2
        inside = t < 1.0
        all_inside = inside.all()
        if not all_inside:
            pts = pts[inside]
            t = t[inside]
        u = 1.0 - t
        zs = [pts[:, i] for i in range(self.nvars)]
        cols = zs + [np.conj(z) for z in zs]
        log_u = np.log(u) if any(m for _, m, _ in self.terms) else None
        acc = 0j
        for p, m, c in self.terms:
            damp = np.exp(-c / u - m * log_u) if m else np.exp(-c / u)
            acc = acc + _horner_numeric(p, cols) * damp
        if all_inside:
            return acc.reshape(shape)
        out = np.zeros(inside.shape, dtype=complex)
        out[inside] = acc
        return out.reshape(shape)

    def translate(self, shift: Tuple[GaussianRational, ...]) -> "BumpFunction":
        """The function z -> value(z - shift): center moves, polynomial shifts."""
        shift = tuple(GaussianRational.from_any(s) for s in shift)
        out_terms = []
        for p, m, c in self.terms:
            q = p
            for i, s in enumerate(shift):
                q = q.shift_var(i, -s)
                q = q.shift_var(i + self.nvars, -s.conjugate())
            out_terms.append((q, m, c))
        new_center = tuple(a + s for a, s in zip(self.center, shift))
        return BumpFunction(self.nvars, self.radius, out_terms, center=new_center)

    def __eq__(self, other):
        if not isinstance(other, BumpFunction):
            return NotImplemented
        return (self.nvars, self.radius, self.center, self.terms) == \
            (other.nvars, other.radius, other.center, other.terms)

    def __repr__(self):
        return f"BumpFunction(nvars={self.nvars}, R={self.radius}, {len(self.terms)} terms)"


def embed_holomorphic(p: MultiPoly) -> MultiPoly:
    """Embed an n-variable polynomial in z into the 2n-variable (z, zbar) ring."""
    n2 = 2 * p.nvars
    terms = {}
    for exp, c in p.terms.items():
        terms[tuple(exp) + (0,) * p.nvars] = c
    return MultiPoly(n2, terms)
