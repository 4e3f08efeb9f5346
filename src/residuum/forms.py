"""Exterior algebra of meromorphic forms and of smooth test forms.

Both kinds of form are elements of one sparse exterior algebra: a dict from
strictly increasing tuples of generator numbers to nonzero coefficients,
with every sign referring to that increasing order.  A MeroForm is a
(p, 0)-form on the n generators dz_1..dz_n with RatFn coefficients; wedge,
d and contraction take their signs from one merge rule.  A TestForm is a
(q, r)-form on 2n generators with bump coefficients: dz_i is generator i
and dzbar_j is generator n + j (0-based), so a key lists its dz's before
its dzbar's, and d'' takes its signs from the same merge rule.  It carries
the d'' step of the one-variable principal value, psi = d''phi for a
bump phi.  At its interface a TestForm keys its coefficients by the pair
(I, J) of dz and dzbar index sets.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Tuple

from .bump import BumpFunction
from .polynomials import MultiPoly
from .ratfn import RatFn
from .scalars import _integer

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


def _checked(idx, size: int, bound: int) -> Index:
    """idx as a tuple of ints, checked to be integral, strictly increasing,
    of length `size` and inside range(bound)."""
    idx = tuple(_integer(i) for i in idx)
    if len(idx) != size or list(idx) != sorted(set(idx)):
        raise ValueError(f"bad index set {idx} for degree {size}")
    if any(not 0 <= i < bound for i in idx):
        raise ValueError(f"index out of range in {idx}")
    return idx


def _summed(pairs) -> dict:
    """Sum (key, coefficient) pairs by key; zero sums are dropped."""
    out = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


class _Form:
    """A form of the sparse exterior algebra.  `terms` maps generator
    tuples to nonzero coefficients; `grading` is the degree of a MeroForm
    or the bidegree of a TestForm, kept so that a zero form keeps its type.
    """

    __slots__ = ("nvars", "grading", "terms")

    def _new(self, terms: dict, grading=None):
        """A form of this class and nvars from checked terms."""
        form = object.__new__(type(self))
        form.nvars = self.nvars
        form.grading = self.grading if grading is None else grading
        form.terms = terms
        return form

    @property
    def coeffs(self) -> dict:
        return self.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.nvars, self.grading, self.terms) == \
            (other.nvars, other.grading, other.terms)

    def __add__(self, other):
        if (self.nvars, self.grading) != (other.nvars, other.grading):
            raise ValueError("cannot add forms of different type")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._new(_summed(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def map_coeffs(self, fn):
        return self._new(_summed((k, fn(c)) for k, c in self.terms.items()))

    def _d(self, gens, deriv, grading):
        """Sum over the generators g in `gens` of dg ^ (the form with each
        coefficient c replaced by deriv(c, g))."""

        def pairs():
            for k, c in self.terms.items():
                for g in gens:
                    merged, sign = merge_indices((g,), k)
                    if merged is None:
                        continue
                    dc = deriv(c, g)
                    if not dc.is_zero():
                        yield merged, dc if sign > 0 else -dc

        return self._new(_summed(pairs()), grading)


class MeroForm(_Form):
    """A (p, 0)-form with exact rational-function coefficients."""

    __slots__ = ()

    def __init__(self, nvars: int, degree: int, coeffs: Dict[Index, RatFn]):
        self.nvars, self.grading = _integer(nvars), _integer(degree)
        self.terms = _summed((_checked(idx, self.grading, self.nvars),
                              RatFn.from_any(c, self.nvars))
                             for idx, c in coeffs.items())

    @property
    def degree(self) -> int:
        return self.grading

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "MeroForm":
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

    # -- algebra --------------------------------------------------------

    def scale(self, f) -> "MeroForm":
        f = RatFn.from_any(f, self.nvars)
        return self.map_coeffs(lambda v: v * f)

    def wedge(self, other: "MeroForm") -> "MeroForm":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

        def pairs():
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    merged, sign = merge_indices(k1, k2)
                    if merged is not None:
                        c = c2 * c1
                        yield merged, c if sign > 0 else -c

        return self._new(_summed(pairs()), self.degree + other.degree)

    def exterior_d(self) -> "MeroForm":
        return self._d(range(self.nvars), RatFn.partial, self.degree + 1)

    def contract(self, j: int) -> "MeroForm":
        """Interior product with d/dz_j."""
        out = {}
        for k, c in self.terms.items():
            if j in k:
                pos = k.index(j)
                out[k[:pos] + k[pos + 1:]] = -c if pos % 2 else c
        return self._new(out, self.degree - 1)

    def __repr__(self):
        if self.is_zero():
            return f"MeroForm(0; degree {self.degree})"
        bits = []
        for idx in sorted(self.coeffs):
            d = "^".join(f"dz{i+1}" for i in idx) or "1"
            bits.append(f"({self.coeffs[idx]!r})*{d}")
        return "MeroForm(" + " + ".join(bits) + ")"


class TestForm(_Form):
    """A (q, r) test form with bump-algebra coefficients."""

    __slots__ = ()

    def __init__(self, nvars: int, bidegree: Tuple[int, int],
                 coeffs: Dict[Tuple[Index, Index], BumpFunction]):
        n = self.nvars = _integer(nvars)
        q, r = self.grading = (_integer(bidegree[0]), _integer(bidegree[1]))
        self.terms = _summed((_checked(iset, q, n) + tuple(n + j for j in _checked(jset, r, n)), b)
                             for (iset, jset), b in coeffs.items())

    @property
    def bidegree(self) -> Tuple[int, int]:
        return self.grading

    @property
    def coeffs(self) -> Dict[Tuple[Index, Index], BumpFunction]:
        q, n = self.grading[0], self.nvars
        return {(k[:q], tuple(g - n for g in k[q:])): b for k, b in self.terms.items()}

    @staticmethod
    def function(b: BumpFunction) -> "TestForm":
        return TestForm(b.nvars, (0, 0), {((), ()): b})

    def d_bar(self) -> "TestForm":
        n, (q, r) = self.nvars, self.bidegree
        return self._d(range(n, 2 * n), lambda b, g: b.dzbar(g - n), (q, r + 1))

    def __repr__(self):
        return f"TestForm(nvars={self.nvars}, bidegree={self.bidegree}, {len(self.terms)} terms)"

