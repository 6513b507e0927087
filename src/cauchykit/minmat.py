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

from fractions import Fraction
from typing import Sequence

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
    """Parameter vectors (rationals, equal length n >= 1) defining the matrix."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence, ys: Sequence):
        self.xs = tuple(_coerce_rational(x) for x in xs)
        self.ys = tuple(_coerce_rational(y) for y in ys)
        if len(self.xs) == 0:
            raise ValueError("need at least one parameter in each vector")
        if len(self.xs) != len(self.ys):
            raise ValueError(f"xs has {len(self.xs)} entries but ys has {len(self.ys)}")

    @property
    def n(self) -> int:
        return len(self.xs)

    def __repr__(self):
        return f"MinSpec(xs={[str(x) for x in self.xs]}, ys={[str(y) for y in self.ys]})"


class SortedMinSpec(MinSpec):
    """A MinSpec with x ascending, y ascending, and x[0] <= y[0].

    ``swapped`` records whether :func:`normalize` exchanged the roles of the
    two vectors to make x[0] the overall minimum.
    """

    __slots__ = ("swapped",)

    def __init__(self, xs: Sequence, ys: Sequence, swapped: bool = False):
        super().__init__(xs, ys)
        _require_ascending(self.xs, "x")
        _require_ascending(self.ys, "y")
        if self.xs[0] > self.ys[0]:
            raise UnsortedInputError("sorted spec needs x[0] <= y[0]; use normalize()")
        self.swapped = swapped


def _coerce_rational(v) -> Fraction:
    if isinstance(v, FpElement):
        raise UnorderedRingError("min matrices need ordered scalars; prime fields have none")
    return _RATIONAL.coerce(v)


def _require_ascending(vec: tuple, name: str):
    for k in range(1, len(vec)):
        if vec[k - 1] > vec[k]:
            raise UnsortedInputError(f"{name} vector is not ascending at position {k}")


def build(spec: MinSpec) -> Matrix:
    """The n x n matrix with entry (i, j) = min(x_i, y_j)."""
    entries = [min(x, y) for x in spec.xs for y in spec.ys]
    return Matrix(spec.n, spec.n, entries, _RATIONAL)


def normalize(spec: MinSpec) -> SortedMinSpec:
    """Sort each vector ascending, then swap the two if needed so that
    x[0] <= y[0]. Only the swap is recorded: every quantity reported by
    this module is insensitive to row/column permutations (entry sums,
    |det|, det-zero), or is defined on the sorted spec itself."""
    xs = tuple(sorted(spec.xs))
    ys = tuple(sorted(spec.ys))
    swapped = xs[0] > ys[0]
    if swapped:
        xs, ys = ys, xs
    return SortedMinSpec(xs, ys, swapped)


def _require_nonsingular(spec: MinSpec) -> None:
    # sorting permutes rows and columns and the x/y swap transposes, so the
    # normalized spec's determinant is zero exactly when this one's is
    if det_zero_predicate(normalize(spec)):
        raise NotInvertibleError(Fraction(0), "min matrix is singular")


def inverse_entry_sum(spec: MinSpec) -> Fraction:
    """Entry sum of the inverse: 1 / min of all 2n parameters.

    Invertibility is checked in O(n) through the closed-form determinant's
    factors on the normalized spec; when the matrix is invertible the
    overall minimum cannot be zero (a zero minimum forces a zero row), so
    the division below is safe.
    """
    _require_nonsingular(spec)
    return Fraction(1) / min(min(spec.xs), min(spec.ys))


def inverse_column_sums(spec: SortedMinSpec) -> tuple[Fraction, ...]:
    """Column sums of the inverse for a sorted spec: (1/x[0], 0, ..., 0)."""
    _require_ascending(spec.xs, "x")
    _require_ascending(spec.ys, "y")
    if spec.xs[0] > spec.ys[0]:
        raise UnsortedInputError("column sums need x[0] <= y[0]; use normalize()")
    _require_nonsingular(spec)
    zero = Fraction(0)
    return (Fraction(1) / spec.xs[0],) + (zero,) * (spec.n - 1)


def _factors(spec: MinSpec) -> list[Fraction]:
    """f[0][0] followed by the mixed second differences, k = 1..n-1."""
    xs, ys = spec.xs, spec.ys
    out = [min(xs[0], ys[0])]
    for k in range(1, spec.n):
        out.append(
            min(xs[k], ys[k]) - min(xs[k], ys[k - 1]) - min(xs[k - 1], ys[k]) + min(xs[k - 1], ys[k - 1])
        )
    return out


def det_closed(spec: MinSpec) -> Fraction:
    """Closed-form determinant for x ascending and y ascending (the x/y swap
    of normalize() is not needed here). Product of :func:`_factors`."""
    _require_ascending(spec.xs, "x")
    _require_ascending(spec.ys, "y")
    det = Fraction(1)
    for f in _factors(spec):
        det *= f
    return det


def det_zero_predicate(spec: MinSpec) -> bool:
    """True iff the determinant of the sorted spec is zero, decided by
    scanning the closed form's factors for a zero. Interleavings that are
    insufficiently balanced (say, three y's between consecutive x's) make a
    factor collapse."""
    _require_ascending(spec.xs, "x")
    _require_ascending(spec.ys, "y")
    return any(f == 0 for f in _factors(spec))
