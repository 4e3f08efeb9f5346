"""Exterior algebra of meromorphic forms and of smooth test forms.

MeroForm is purely holomorphic type (p, 0) with RatFn coefficients; test
forms carry a bidegree (q, r) and bump-algebra coefficients.  Differentials
are always written sorted: dz_{i1} ^ ... ^ dz_{ip} ^ dzbar_{j1} ^ ... with
strictly increasing indices; all signs below refer to that normal order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .bump import BumpFunction, embed_holomorphic
from .polynomials import MultiPoly
from .ratfn import RatFn
from .scalars import GaussianRational

Index = Tuple[int, ...]


def merge_indices(a: Index, b: Index) -> Tuple[Index | None, int]:
    """Merge two strictly increasing tuples; (None, 0) if they intersect,
    else (merged, sign) with the permutation sign of the interleave."""
    if set(a) & set(b):
        return None, 0
    merged = tuple(sorted(a + b))
    # count inversions: pairs (x in a, y in b) with y < x
    inv = sum(1 for x in a for y in b if y < x)
    return merged, -1 if inv % 2 else 1


def insertion_sign(i: int, idx: Index) -> Tuple[Index | None, int]:
    return merge_indices((i,), idx)


class MeroForm:
    """A (p, 0)-form with exact rational-function coefficients."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: Dict[Index, RatFn] | None = None):
        self.nvars = int(nvars)
        self.degree = int(degree)
        clean: Dict[Index, RatFn] = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index set {idx} for degree {self.degree}")
            if any(not 0 <= i < self.nvars for i in idx):
                raise ValueError(f"index out of range in {idx}")
            c = RatFn.from_any(c, self.nvars)
            if c.is_zero():
                continue
            clean[idx] = clean[idx] + c if idx in clean else c
        self.coeffs = {k: v for k, v in clean.items() if not v.is_zero()}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int = 0) -> "MeroForm":
        return MeroForm(nvars, degree, {})

    @staticmethod
    def function(f: RatFn | MultiPoly) -> "MeroForm":
        f = RatFn.from_any(f, f.nvars)
        return MeroForm(f.nvars, 0, {(): f})

    @staticmethod
    def dz(nvars: int, i: int) -> "MeroForm":
        return MeroForm(nvars, 1, {(i,): RatFn.one(nvars)})

    @staticmethod
    def d_of_poly(p: MultiPoly) -> "MeroForm":
        """df for a polynomial f."""
        return MeroForm(p.nvars, 1, {(i,): RatFn(p.partial(i)) for i in range(p.nvars)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, MeroForm):
            return NotImplemented
        return (self.nvars, self.degree, self.coeffs) == (other.nvars, other.degree, other.coeffs)

    def __add__(self, other: "MeroForm") -> "MeroForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.nvars, self.degree) != (other.nvars, other.degree):
            raise ValueError("cannot add forms of different type")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] + c if idx in out else c
        return MeroForm(self.nvars, self.degree, out)

    def __neg__(self) -> "MeroForm":
        return MeroForm(self.nvars, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "MeroForm") -> "MeroForm":
        return self + (-other)

    def scale(self, f) -> "MeroForm":
        f = RatFn.from_any(f, self.nvars)
        return MeroForm(self.nvars, self.degree, {k: v * f for k, v in self.coeffs.items()})

    def wedge(self, other: "MeroForm") -> "MeroForm":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        deg = self.degree + other.degree
        out: Dict[Index, RatFn] = {}
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                merged, sign = merge_indices(i1, i2)
                if merged is None:
                    continue
                c = c1 * c2 * GaussianRational(sign)
                out[merged] = out[merged] + c if merged in out else c
        return MeroForm(self.nvars, deg, out)

    def exterior_d(self) -> "MeroForm":
        out: Dict[Index, RatFn] = {}
        for idx, c in self.coeffs.items():
            for var in range(self.nvars):
                dc = c.partial(var)
                if dc.is_zero():
                    continue
                merged, sign = insertion_sign(var, idx)
                if merged is None:
                    continue
                term = dc * GaussianRational(sign)
                out[merged] = out[merged] + term if merged in out else term
        return MeroForm(self.nvars, self.degree + 1, out)

    def contract(self, j: int) -> "MeroForm":
        """Interior product with d/dz_j."""
        out: Dict[Index, RatFn] = {}
        for idx, c in self.coeffs.items():
            if j not in idx:
                continue
            pos = idx.index(j)
            rest = idx[:pos] + idx[pos + 1:]
            term = c * GaussianRational(-1 if pos % 2 else 1)
            out[rest] = out[rest] + term if rest in out else term
        return MeroForm(self.nvars, self.degree - 1, out)

    def map_coeffs(self, fn) -> "MeroForm":
        return MeroForm(self.nvars, self.degree, {k: fn(v) for k, v in self.coeffs.items()})

    def eval_numeric(self, points: np.ndarray) -> Dict[Index, np.ndarray]:
        return {idx: c.eval_numeric(points) for idx, c in self.coeffs.items()}

    def __repr__(self):
        if self.is_zero():
            return f"MeroForm(0; degree {self.degree})"
        bits = []
        for idx in sorted(self.coeffs):
            d = "^".join(f"dz{i+1}" for i in idx) or "1"
            bits.append(f"({self.coeffs[idx]!r})*{d}")
        return "MeroForm(" + " + ".join(bits) + ")"


class TestForm:
    """A (q, r) test form with bump-algebra coefficients."""

    __slots__ = ("nvars", "bidegree", "coeffs")

    def __init__(self, nvars: int, bidegree: Tuple[int, int],
                 coeffs: Dict[Tuple[Index, Index], BumpFunction] | None = None):
        self.nvars = int(nvars)
        self.bidegree = (int(bidegree[0]), int(bidegree[1]))
        clean: Dict[Tuple[Index, Index], BumpFunction] = {}
        for (iset, jset), b in (coeffs or {}).items():
            iset, jset = tuple(iset), tuple(jset)
            if len(iset) != self.bidegree[0] or len(jset) != self.bidegree[1]:
                raise ValueError("index sets inconsistent with bidegree")
            if list(iset) != sorted(set(iset)) or list(jset) != sorted(set(jset)):
                raise ValueError("index sets must be strictly increasing")
            if b.is_zero():
                continue
            key = (iset, jset)
            clean[key] = clean[key] + b if key in clean else b
        self.coeffs = {k: v for k, v in clean.items() if not v.is_zero()}

    @staticmethod
    def zero(nvars: int, bidegree=(0, 0)) -> "TestForm":
        return TestForm(nvars, bidegree, {})

    @staticmethod
    def function(b: BumpFunction) -> "TestForm":
        return TestForm(b.nvars, (0, 0), {((), ()): b})

    def is_zero(self) -> bool:
        return not self.coeffs

    def radius(self):
        for b in self.coeffs.values():
            return b.radius
        return None

    def __add__(self, other: "TestForm") -> "TestForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.nvars, self.bidegree) != (other.nvars, other.bidegree):
            raise ValueError("cannot add test forms of different type")
        out = dict(self.coeffs)
        for k, b in other.coeffs.items():
            out[k] = out[k] + b if k in out else b
        return TestForm(self.nvars, self.bidegree, out)

    def __neg__(self) -> "TestForm":
        return TestForm(self.nvars, self.bidegree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TestForm":
        return TestForm(self.nvars, self.bidegree, {k: v * s for k, v in self.coeffs.items()})

    def wedge(self, other: "TestForm") -> "TestForm":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        q = self.bidegree[0] + other.bidegree[0]
        r = self.bidegree[1] + other.bidegree[1]
        out: Dict[Tuple[Index, Index], BumpFunction] = {}
        for (i1, j1), b1 in self.coeffs.items():
            for (i2, j2), b2 in other.coeffs.items():
                mi, si = merge_indices(i1, i2)
                if mi is None:
                    continue
                mj, sj = merge_indices(j1, j2)
                if mj is None:
                    continue
                # moving dz_{i2} block past dzbar_{j1} block
                sign = si * sj * (-1 if (len(j1) * len(i2)) % 2 else 1)
                term = b1 * b2 * GaussianRational(sign)
                key = (mi, mj)
                out[key] = out[key] + term if key in out else term
        return TestForm(self.nvars, (q, r), out)

    def d_holo(self) -> "TestForm":
        out: Dict[Tuple[Index, Index], BumpFunction] = {}
        for (iset, jset), b in self.coeffs.items():
            for var in range(self.nvars):
                merged, sign = insertion_sign(var, iset)
                if merged is None:
                    continue
                term = b.dz(var) * GaussianRational(sign)
                key = (merged, jset)
                out[key] = out[key] + term if key in out else term
        return TestForm(self.nvars, (self.bidegree[0] + 1, self.bidegree[1]), out)

    def d_bar(self) -> "TestForm":
        out: Dict[Tuple[Index, Index], BumpFunction] = {}
        for (iset, jset), b in self.coeffs.items():
            pass_sign = -1 if self.bidegree[0] % 2 else 1
            for var in range(self.nvars):
                merged, sign = insertion_sign(var, jset)
                if merged is None:
                    continue
                term = b.dzbar(var) * GaussianRational(sign * pass_sign)
                key = (iset, merged)
                out[key] = out[key] + term if key in out else term
        return TestForm(self.nvars, (self.bidegree[0], self.bidegree[1] + 1), out)

    def exterior_d(self) -> List["TestForm"]:
        """Full d = d' + d''; returned as the bidegree components."""
        return [self.d_holo(), self.d_bar()]

    def contract(self, j: int) -> "TestForm":
        out: Dict[Tuple[Index, Index], BumpFunction] = {}
        for (iset, jset), b in self.coeffs.items():
            if j not in iset:
                continue
            pos = iset.index(j)
            rest = iset[:pos] + iset[pos + 1:]
            term = b * GaussianRational(-1 if pos % 2 else 1)
            key = (rest, jset)
            out[key] = out[key] + term if key in out else term
        return TestForm(self.nvars, (self.bidegree[0] - 1, self.bidegree[1]), out)

    def split_by_missing_conjugate(self) -> List[Tuple[int, "TestForm"]]:
        """Split a (q, n-1) form into the pieces that omit dzbar_j, per j.

        Degenerate n = 1 case: antiholomorphic degree 0, the whole form is
        assigned to j = 1 (index 0).
        """
        if self.bidegree[1] != self.nvars - 1:
            raise ValueError("antiholomorphic degree must be nvars - 1")
        if self.nvars == 1:
            return [(0, self)]
        full = set(range(self.nvars))
        buckets: Dict[int, Dict] = {j: {} for j in range(self.nvars)}
        for (iset, jset), b in self.coeffs.items():
            missing = full - set(jset)
            (j,) = missing
            buckets[j][(iset, jset)] = b
        return [(j, TestForm(self.nvars, self.bidegree, buckets[j]))
                for j in range(self.nvars)]

    def __eq__(self, other):
        if not isinstance(other, TestForm):
            return NotImplemented
        return (self.nvars, self.bidegree, self.coeffs) == \
            (other.nvars, other.bidegree, other.coeffs)

    def eval_numeric(self, points: np.ndarray) -> Dict[Tuple[Index, Index], np.ndarray]:
        return {k: b.eval_numeric(points) for k, b in self.coeffs.items()}

    def sample_scale(self, samples: int = 200, seed: int = 0) -> float:
        return max((b.sample_scale(samples, seed) for b in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"TestForm(nvars={self.nvars}, bidegree={self.bidegree}, {len(self.coeffs)} terms)"


def wedge_mero_test(alpha: MeroForm, phi: TestForm) -> TestForm:
    """alpha ^ phi for a holomorphic-coefficient alpha (polynomial RatFns)."""
    if alpha.nvars != phi.nvars:
        raise ValueError("nvars mismatch")
    out: Dict[Tuple[Index, Index], BumpFunction] = {}
    for i1, c in alpha.coeffs.items():
        if not c.is_polynomial():
            raise ValueError("wedging into a test form needs polynomial coefficients")
        poly = embed_holomorphic(c.num * c.den.constant_value().inverse())
        for (i2, j2), b in phi.coeffs.items():
            merged, sign = merge_indices(i1, i2)
            if merged is None:
                continue
            term = b * poly * GaussianRational(sign)
            key = (merged, j2)
            out[key] = out[key] + term if key in out else term
    return TestForm(phi.nvars, (alpha.degree + phi.bidegree[0], phi.bidegree[1]), out)
