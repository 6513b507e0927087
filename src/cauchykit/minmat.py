"""Min matrices: entry (i, j) = min(x_i, y_j) over ordered (rational) scalars.

The structural twin of the Cauchy matrix, with even tidier identities:

* entry sum of the inverse = 1 / min(all 2n parameters),
* with x ascending, y ascending and x_1 <= y_1, the j-th column of the
  inverse sums to 1/x_1 for j = 0 and to 0 otherwise,
* with x ascending and y ascending (no cross condition needed), the
  determinant is f[0][0] times the product over k >= 1 of the mixed second
  differences f[k][k] - f[k][k-1] - f[k-1][k] + f[k-1][k-1], where
  f[i][j] = min(x_i, y_j).

The last term of the second difference is pinned to index (k-1, k-1) and
validated against the elimination determinant on large random corpora; a
sometimes-quoted variant with index (k-1, k+1) is undefined at k = n-1 and
is not used. Sorting needs a real order, so this module is rational-only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .densela import Matrix
from .ring import (
    CauchyKitError,
    FpElement,
    NotInvertibleError,
    RationalRing,
    UnorderedRingError,
)

_RATIONAL = RationalRing()


class UnsortedInputError(CauchyKitError):
    """A sorted-input precondition does not hold."""


class MinSpec:
    """Parameter vectors (rationals, equal length n >= 1) defining the matrix.

    A spec is immutable after construction, so it keeps its :func:`normalize`
    result (``_sorted``) and its determinant's factors (``_factors``)."""

    __slots__ = ("xs", "ys", "_sorted", "_factors")

    def __init__(self, xs: Sequence, ys: Sequence):
        self.xs = tuple(_coerce_rational(x) for x in xs)
        self.ys = tuple(_coerce_rational(y) for y in ys)
        if len(self.xs) == 0:
            raise ValueError("need at least one parameter in each vector")
        if len(self.xs) != len(self.ys):
            raise ValueError(f"xs has {len(self.xs)} entries but ys has {len(self.ys)}")
        self._sorted = None
        self._factors = None

    @property
    def n(self) -> int:
        return len(self.xs)

    def __repr__(self):
        return f"MinSpec(xs={[str(x) for x in self.xs]}, ys={[str(y) for y in self.ys]})"


class SortedMinSpec(MinSpec):
    """A MinSpec with x ascending, y ascending, and x[0] <= y[0].

    ``swapped`` records whether :func:`normalize` exchanged the roles of the
    two vectors to make x[0] the overall minimum. Immutable like every spec,
    it keeps ``_sorted`` and ``_factors`` too; its order is checked once, here.
    """

    __slots__ = ("swapped",)

    def __init__(self, xs: Sequence, ys: Sequence, swapped: bool = False):
        super().__init__(xs, ys)
        _check_order(self, "sorted spec needs")
        self.swapped = swapped


def _coerce_rational(v) -> Fraction:
    if isinstance(v, FpElement):
        raise UnorderedRingError("min matrices need ordered scalars; prime fields have none")
    return _RATIONAL.coerce(v)


def _check_order(spec: MinSpec, cross: str = "") -> None:
    """Both vectors ascending and, when ``cross`` names what needs it, x[0] <= y[0]."""
    for name, vec in (("x", spec.xs), ("y", spec.ys)):
        for k in range(1, len(vec)):
            if vec[k - 1] > vec[k]:
                raise UnsortedInputError(f"{name} vector is not ascending at position {k}")
    if cross and spec.xs[0] > spec.ys[0]:
        raise UnsortedInputError(f"{cross} x[0] <= y[0]; use normalize()")


def _require_sorted(spec: MinSpec, cross: str = "") -> None:
    """:func:`_check_order` for a plain MinSpec; a SortedMinSpec passed it when built."""
    if not isinstance(spec, SortedMinSpec):
        _check_order(spec, cross)


def build(spec: MinSpec) -> Matrix:
    """The n x n matrix with entry (i, j) = min(x_i, y_j)."""
    entries = [min(x, y) for x in spec.xs for y in spec.ys]
    return Matrix._of(spec.n, spec.n, entries, _RATIONAL)


def normalize(spec: MinSpec) -> SortedMinSpec:
    """Sort each vector ascending, then swap the two if needed so that
    x[0] <= y[0]. Only the swap is recorded: every quantity reported by
    this module is insensitive to row/column permutations (entry sums,
    |det|, det-zero), or is defined on the sorted spec itself. The result is
    kept on ``spec``: every call on it returns the same SortedMinSpec."""
    if spec._sorted is None:
        xs = tuple(sorted(spec.xs))
        ys = tuple(sorted(spec.ys))
        swapped = xs[0] > ys[0]
        if swapped:
            xs, ys = ys, xs
        spec._sorted = SortedMinSpec(xs, ys, swapped)
    return spec._sorted


def _require_nonsingular(spec: MinSpec) -> SortedMinSpec:
    """The sorted form of ``spec`` (itself if sorted), once its determinant is
    known to be nonzero; sorting permutes rows and columns, the swap transposes."""
    s = spec if isinstance(spec, SortedMinSpec) else normalize(spec)
    if det_zero_predicate(s):
        raise NotInvertibleError(Fraction(0), "min matrix is singular")
    return s


def inverse_entry_sum(spec: MinSpec) -> Fraction:
    """Entry sum of the inverse: 1 / min of all 2n parameters, x[0] of the sorted spec.

    Invertibility is checked in O(n) through the closed-form determinant's
    factors on the normalized spec; when the matrix is invertible the
    overall minimum cannot be zero (a zero minimum forces a zero row), so
    the division below is safe.
    """
    return Fraction(1) / _require_nonsingular(spec).xs[0]


def inverse_column_sums(spec: SortedMinSpec) -> tuple[Fraction, ...]:
    """Column sums of the inverse for a sorted spec: (1/x[0], 0, ..., 0)."""
    _require_sorted(spec, "column sums need")
    _require_nonsingular(spec)
    return (Fraction(1) / spec.xs[0],) + (Fraction(0),) * (spec.n - 1)


def _factors(spec: MinSpec) -> list[Fraction]:
    """f[0][0] then the mixed second differences, k = 1..n-1, kept on the spec."""
    if spec._factors is None:
        xs, ys = spec.xs, spec.ys
        spec._factors = [min(xs[0], ys[0])] + [
            min(xs[k], ys[k]) - min(xs[k], ys[k - 1]) - min(xs[k - 1], ys[k]) + min(xs[k - 1], ys[k - 1])
            for k in range(1, spec.n)
        ]
    return spec._factors


def det_closed(spec: MinSpec) -> Fraction:
    """Closed-form determinant for x ascending and y ascending (the x/y swap
    of normalize() is not needed here). Product of :func:`_factors`."""
    _require_sorted(spec)
    return math.prod(_factors(spec), start=Fraction(1))


def det_zero_predicate(spec: MinSpec) -> bool:
    """True iff the determinant of the sorted spec is zero, decided by
    scanning the closed form's factors for a zero. Interleavings that are
    insufficiently balanced (say, three y's between consecutive x's) make a
    factor collapse."""
    _require_sorted(spec)
    return any(f == 0 for f in _factors(spec))
