"""Floating-point canary: Cauchy inversion as an instability detector.

Inverting a Cauchy matrix in floats (the Hilbert matrix being the classic
case) goes bad quickly as n grows. The exact entry-sum identity gives a
free, O(n)-to-evaluate ground truth: the entries of the true inverse sum
to sum(x) + sum(y) exactly. This module inverts the float image of the
matrix twice, by Gauss-Jordan with partial pivoting and by the closed-form
entry products, and scores each against that exact statistic plus a
max-norm identity residual.

The float image is read straight off the integers of the closed forms'
kernel: entry (i, j) is the int quotient q_i s_j / sums[i][j], which Python
rounds correctly, so it equals float() of the exact entry bit for bit with
no exact matrix built. The identity residual is taken entry by entry, each
entry of C * C_inv an fsum of its rounded products, with no product matrix.

The closed-form route rounds the inverse's scales with its own float-only
:func:`_scale`. Floats live only here; the rest of the package is exact.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Sequence

from .cauchy import CauchySpec, _ints, _sums, is_invertible_spec
from .ring import CauchyKitError, NotInvertibleError, RationalRing, _Record


class ExactZeroPivotError(CauchyKitError):
    """Partial pivoting found an exactly zero pivot column (structurally singular)."""


class FloatMatrix:
    """Dense float matrix, row-major, entries required finite."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[float]):
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix must be at least 1x1, got {rows}x{cols}")
        entries = tuple(map(float, entries))
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
        if not all(map(math.isfinite, entries)):
            bad = next(e for e in entries if not math.isfinite(e))
            raise ValueError(f"non-finite entry {bad!r}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_seq) -> "FloatMatrix":
        cols = len(rows_seq[0]) if rows_seq else 0
        if any(len(r) != cols for r in rows_seq):
            raise ValueError("ragged rows")
        return cls(len(rows_seq), cols, [e for r in rows_seq for e in r])

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[float]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def entry_sum(self) -> float:
        """math.fsum of the entries; ValueError where a partial sum overflows."""
        try:
            return math.fsum(self.entries)
        except OverflowError as exc:
            raise ValueError(f"a sum is past the float range: {exc}") from exc


class CanaryReport(_Record):
    """Score card for one inversion method on one matrix size."""

    __match_args__ = ("n", "method", "entry_sum_residual", "identity_residual", "elapsed")

    def __init__(self, n: int, method: str, entry_sum_residual: float, identity_residual: float,
                 elapsed: float):
        self.n = n
        self.method = method  # "closed_form" or "gauss_pp"
        self.entry_sum_residual = entry_sum_residual
        self.identity_residual = identity_residual
        self.elapsed = elapsed

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.method},{self.entry_sum_residual!r},"
            f"{self.identity_residual!r},{self.elapsed!r}"
        )


CSV_HEADER = "n,method,entry_sum_residual,identity_residual,elapsed"


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, as float() of a Fraction; ValueError past the float range."""
    try:
        return num / den
    except OverflowError as exc:
        raise ValueError(f"an exact value is past the float range: {exc}") from exc


def hilbert_spec(n: int) -> CauchySpec:
    """The Cauchy parameters x_i = i (1-based), y_j = j - 1, whose matrix
    has entries 1/(i + j - 1): the n x n Hilbert matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return CauchySpec(range(1, n + 1), range(0, n), RationalRing())


def float_image(spec: CauchySpec) -> FloatMatrix:
    """The float image of the Cauchy matrix: entry (i, j) is the correctly
    rounded int quotient q_i s_j / sums[i][j] of the integer kernel. Raises
    ValueError if an entry is past the float range."""
    xs, ys, p = _ints(spec)
    if p:
        raise CauchyKitError("only rational matrices have a float image")
    return FloatMatrix(spec.n, spec.n, [
        _quotient(q * s, v) for (_, q), row in zip(xs, _sums(xs, ys, p)) for (_, s), v in zip(ys, row)])


def invert_gauss_pp(m: FloatMatrix) -> FloatMatrix:
    """Approximate inverse by Gauss-Jordan elimination with partial pivoting,
    the standard generic float algorithm the canary stresses, on the
    augmented rows [A | I]. Only the columns right of the pivot are updated:
    those at or left of it are never read again. Every entry that is read
    goes through the same operations, in the same order, as in a full-row
    update."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    a = [row + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m.to_rows())]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot_row][col] == 0.0:
            raise ExactZeroPivotError(f"zero pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        live = col + 1  # the columns still to be read
        d = a[col][col]
        pivot = a[col][live:] = [v / d for v in a[col][live:]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0.0:
                a[r][live:] = [v - f * w for v, w in zip(a[r][live:], pivot)]
    return FloatMatrix.from_rows([row[n:] for row in a])


def _scale(us: Sequence[float], vs: Sequence[float], j: int) -> float:
    """prod_k (u_j + v_k) / prod_{k != j} (u_j - u_k) in floats, in O(n): the
    column scale a_j with (xs, ys), the row scale b_i with (ys, xs). Each
    product starts from an exact 1 and is rounded as it grows, in k order,
    and the quotient is num * (1/den)."""
    num = math.prod([us[j] + v for v in vs])
    den = math.prod([us[j] - u for k, u in enumerate(us) if k != j])
    try:
        return num * (1.0 / den)
    except ZeroDivisionError:
        raise ValueError("a difference of two parameters is 0.0 in floats") from None


def invert_closed_float(spec: CauchySpec) -> FloatMatrix:
    """Closed-form inverse evaluated in float arithmetic: the same scaled
    transpose as the exact path, with every operation rounded to 64-bit.
    Raises ValueError if a parameter is past the float range, or if a
    difference of two parameters or a pair sum is 0.0 in floats."""
    if not isinstance(spec.ctx, RationalRing):
        raise CauchyKitError("float evaluation needs rational parameters")
    xs = [_quotient(x.numerator, x.denominator) for x in spec.xs]
    ys = [_quotient(y.numerator, y.denominator) for y in spec.ys]
    a = [_scale(xs, ys, j) for j in range(spec.n)]
    b = [_scale(ys, xs, i) for i in range(spec.n)]
    try:
        entries = [b_i * a_j / (x + y) for y, b_i in zip(ys, b) for x, a_j in zip(xs, a)]
    except ZeroDivisionError:
        raise ValueError("a pair sum x + y is 0.0 in floats") from None
    return FloatMatrix(spec.n, spec.n, entries)


def identity_residual(c: FloatMatrix, c_inv: FloatMatrix) -> float:
    """Max-norm of C * C_inv - I, row by row: each entry of the product is
    the fsum of its rounded products, the diagonal's 1.0 is taken off, and
    the row is dropped once its largest deviation is kept, so no product
    matrix is formed. Raises ValueError on a shape mismatch or a non-finite
    entry of the product."""
    if c.cols != c_inv.rows:
        raise ValueError("shape mismatch")
    cols = [c_inv.entries[k :: c_inv.cols] for k in range(c_inv.cols)]
    worst = 0.0
    try:
        for i in range(c.rows):
            row = c.entries[i * c.cols : (i + 1) * c.cols]
            out = [math.fsum(map(operator.mul, row, col)) for col in cols]
            if i < len(out):
                out[i] -= 1.0
            worst = max(worst, *map(abs, out))  # left to right, as one max per entry was
    except OverflowError as exc:
        raise ValueError(f"a sum is past the float range: {exc}") from exc
    if not math.isfinite(worst):
        raise ValueError(f"non-finite entry {worst!r} in C * C_inv")
    return worst


def run_canary(spec: CauchySpec) -> tuple[CanaryReport, CanaryReport]:
    """Invert the float image of the matrix both ways and score each against
    the exact entry-sum ground truth (converted to float only at the end).
    Returns (closed_form report, gauss_pp report). Deterministic."""
    if not is_invertible_spec(spec).invertible:
        raise NotInvertibleError(None, "canary needs an invertible spec")
    c_float = float_image(spec)
    weight = spec.weight_sum()
    truth = _quotient(weight.numerator, weight.denominator)
    timed = []  # both inversions run before either is scored
    for method, invert, argument in (("closed_form", invert_closed_float, spec),
                                     ("gauss_pp", invert_gauss_pp, c_float)):
        t0 = time.perf_counter()
        timed.append((method, invert(argument), time.perf_counter() - t0))
    return tuple(CanaryReport(spec.n, method, abs(inv.entry_sum() - truth),
                              identity_residual(c_float, inv), elapsed)
                 for method, inv, elapsed in timed)
