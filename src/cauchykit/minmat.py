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

The closed forms compare and subtract integer pairs (numerator,
denominator), never Fractions: the sort key is exact (:func:`_order`), and
each determinant factor is worked out over the lcm of its own four
parameters' denominators, so the determinant is one Fraction of two integer
products. The ascending check compares those same lifted numerators as the
factors are made; only the cross check x[0] <= y[0] cross-multiplies.
Nothing is lifted over a whole-spec denominator, which would grow with
every coprime denominator. :func:`build`, the oracle's input, keeps plain
Fraction ``min``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .matrix import Matrix
from .ring import CauchyKitError, FpElement, NotInvertibleError, RationalRing, UnorderedRingError, _vectors

_RATIONAL = RationalRing()


class UnsortedInputError(CauchyKitError):
    """A sorted-input precondition does not hold."""


class MinSpec:
    """Parameter vectors (rationals, equal length n >= 1) defining the matrix.

    A spec is immutable after construction, so it keeps its :func:`normalize`
    result (``_sorted``) and its determinant's factors (``_factors``)."""

    __slots__ = ("xs", "ys", "_sorted", "_factors")

    def __init__(self, xs: Sequence, ys: Sequence):
        self.xs, self.ys = _vectors(xs, ys, _coerce_rational)
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
    it keeps ``_sorted`` and ``_factors`` too. Its order is checked once, here,
    and :func:`normalize` builds its result through this constructor: the
    ascending check comes with the determinant's factors, which are kept,
    and the cross check follows it.
    """

    __slots__ = ("swapped",)

    def __init__(self, xs: Sequence, ys: Sequence, swapped: bool = False):
        super().__init__(xs, ys)
        _factors(self)  # both vectors ascending
        _check_cross(self, "sorted spec needs")
        self.swapped = swapped


def _coerce_rational(v) -> Fraction:
    if isinstance(v, FpElement):
        raise UnorderedRingError("min matrices need ordered scalars; prime fields have none")
    return _RATIONAL.coerce(v)


def _order(v: Fraction) -> tuple:
    """An exact sort key for v = a/q: the floor, the correctly rounded float of
    the remainder, which rounding keeps in order, and v itself for float ties."""
    a, q = v.as_integer_ratio()
    return a // q, a % q / q, v


def _above(u: tuple, v: tuple) -> bool:
    """u > v for the integer pairs (numerator, positive denominator) u and v."""
    return u[0] * v[1] > v[0] * u[1]


def _check_cross(spec: MinSpec, needs: str) -> None:
    """x[0] <= y[0], decided on the integer pairs; ``needs`` names what requires it."""
    if _above(spec.xs[0].as_integer_ratio(), spec.ys[0].as_integer_ratio()):
        raise UnsortedInputError(f"{needs} x[0] <= y[0]; use normalize()")


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
        xs = tuple(sorted(spec.xs, key=_order))
        ys = tuple(sorted(spec.ys, key=_order))
        swapped = _above(xs[0].as_integer_ratio(), ys[0].as_integer_ratio())
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
    _factors(spec)  # both vectors ascending
    _check_cross(spec, "column sums need")
    _require_nonsingular(spec)
    return (Fraction(1) / spec.xs[0],) + (Fraction(0),) * (spec.n - 1)


def _factors(spec: MinSpec) -> list[tuple[int, int]]:
    """f[0][0] then the mixed second differences, k = 1..n-1, kept on the spec
    once both vectors are found ascending. Each is an integer pair
    (numerator, d): factor k is lifted over the lcm d of the denominators of
    x[k-1], x[k], y[k-1] and y[k] alone, and the lifted numerators are
    compared there, so the order check costs no product of its own. The first
    x descent is reported, else the first y descent."""
    if spec._factors is None:
        xs, ys = [v.as_integer_ratio() for v in spec.xs], [v.as_integer_ratio() for v in spec.ys]
        (a, q), (r, s) = xs[0], ys[0]
        d = math.lcm(q, s)
        factors, y_descent = [(min(a * (d // q), r * (d // s)), d)], 0
        for k, ((a0, q0), (a1, q1), (r0, s0), (r1, s1)) in enumerate(zip(xs, xs[1:], ys, ys[1:]), 1):
            d = math.lcm(q0, q1, s0, s1)
            x0, x1, y0, y1 = a0 * (d // q0), a1 * (d // q1), r0 * (d // s0), r1 * (d // s1)
            if x0 > x1:
                raise UnsortedInputError(f"x vector is not ascending at position {k}")
            if y0 > y1 and not y_descent:
                y_descent = k
            factors.append((min(x1, y1) - min(x1, y0) - min(x0, y1) + min(x0, y0), d))
        if y_descent:
            raise UnsortedInputError(f"y vector is not ascending at position {y_descent}")
        spec._factors = factors
    return spec._factors


def det_closed(spec: MinSpec) -> Fraction:
    """Closed-form determinant for x ascending and y ascending (the x/y swap
    of normalize() is not needed here). Product of :func:`_factors`, as one
    Fraction."""
    factors = _factors(spec)
    return Fraction(math.prod(f for f, _ in factors), math.prod(d for _, d in factors))


def det_zero_predicate(spec: MinSpec) -> bool:
    """True iff the determinant of the sorted spec is zero, decided by
    scanning the closed form's factors for a zero. Interleavings that are
    insufficiently balanced (say, three y's between consecutive x's) make a
    factor collapse."""
    return any(f == 0 for f, _ in _factors(spec))
