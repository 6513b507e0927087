"""The dense matrix container, its errors and the AB lemma's weights.

:class:`Matrix` is the package's one matrix type: the closed forms of
:mod:`cauchykit.cauchy` and :mod:`cauchykit.minmat` return it, and the
oracle layer, :mod:`cauchykit.densela`, checks them on it. This module
imports only :mod:`cauchykit.ring`, so ``import cauchykit`` and every closed
form load no oracle code. The oracle methods (the determinants, the inverse,
the adjugate and its entry sum, the characteristic polynomial, the entry and
column sums and the product) run the routines of :mod:`cauchykit.densela`,
which :func:`_oracle` imports on the first such call. Each routine is looked
up on that module when the method runs, so a routine replaced there is the
one that runs. :mod:`cauchykit.densela` re-exports every name defined here.

Matrices are immutable. All indices are 0-based.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .ring import CauchyKitError, ContextMismatchError, NotInvertibleError, RingContext, Scalar, _Frozen

_densela = None


def _oracle():
    """The oracle module :mod:`cauchykit.densela`, imported on the first call."""
    global _densela
    if _densela is None:
        from . import densela as _densela
    return _densela


class ShapeError(CauchyKitError):
    """Matrix shapes do not fit the requested operation."""


class SizeLimitError(CauchyKitError):
    """A deliberately guarded brute-force path was asked to do too much."""


COFACTOR_MAX = 8  # n! growth; 8 keeps the expansion at desk scale


class Matrix:
    """Dense rows x cols matrix of exact scalars, row-major, immutable; it
    keeps its determinant and inverse (``_det``, ``_inv``) once computed,
    and can be weakly referenced."""

    __slots__ = ("rows", "cols", "ctx", "entries", "_det", "_inv", "__weakref__")

    def __init__(self, rows: int, cols: int, entries: Sequence, ctx: RingContext):
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix must be at least 1x1, got {rows}x{cols}")
        coerced = tuple(ctx.coerce(e) for e in entries)
        if len(coerced) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(coerced)}"
            )
        self.rows = rows
        self.cols = cols
        self.ctx = ctx
        self.entries = coerced
        self._det = self._inv = None

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Sequence, ctx: RingContext) -> "Matrix":
        """A matrix on ``rows * cols`` entries that are already scalars of
        ``ctx``, taken as they are: for producers inside the package, which
        skip the coercion and checks of the public constructor."""
        m = object.__new__(cls)
        m.rows, m.cols, m.ctx, m.entries = rows, cols, ctx, tuple(entries)
        m._det = m._inv = None
        return m

    @classmethod
    def from_rows(cls, rows_seq: Sequence[Sequence], ctx: RingContext) -> "Matrix":
        rows = len(rows_seq)
        if rows == 0:
            raise ShapeError("matrix must have at least one row")
        cols = len(rows_seq[0])
        flat = []
        for r in rows_seq:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat, ctx)

    @classmethod
    def identity(cls, n: int, ctx: RingContext) -> "Matrix":
        one, zero = ctx.one, ctx.zero
        return cls._of(n, n, [one if i == j else zero for i in range(n) for j in range(n)], ctx)

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix._of(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
            self.ctx,
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ContextMismatchError("matrix product across ring contexts")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        prod = _oracle()._matmul(self.to_rows(), other.to_rows())
        return Matrix._of(self.rows, other.cols, [e for row in prod for e in row], self.ctx)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.ctx, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ctx.render(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _require_square(self, what: str):
        if not self.is_square:
            raise ShapeError(f"{what} needs a square matrix, got {self.rows}x{self.cols}")

    def det_cofactor(self) -> Scalar:
        """Determinant by first-row Laplace expansion. Exponential; n <= 8."""
        self._require_square("det_cofactor")
        if self.rows > COFACTOR_MAX:
            raise SizeLimitError(
                f"cofactor expansion guarded at n <= {COFACTOR_MAX}, got n={self.rows}"
            )
        return _oracle()._det_expand(self.to_rows(), self.ctx)

    def det_fast(self) -> Scalar:
        """Determinant by Gaussian elimination, first nonzero pivot per
        column, on the raw integers of :func:`cauchykit.densela._eliminate` in
        either ring: one Fraction or FpElement is made, for the result. A
        determinant already found by :meth:`inverse` is returned as it is."""
        self._require_square("det_fast")
        if self._det is None:
            self._det = _oracle()._eliminate(self)[0]
        return self._det

    def charpoly(self) -> list:
        """Coefficients [1, c_1, ..., c_n] of det(tI - A) = sum c_i t^(n-i),
        by Berkowitz's algorithm: no division, valid for singular A. It runs
        on the whole-matrix lift DA, whose coefficients are D^k c_k(A): a row
        scaling is not a similarity."""
        _, (d, *_), c, _ = self._row_lift("charpoly", by_row=False)
        return [_oracle()._lower(self.ctx, ck, d ** k) for k, ck in enumerate(c)]

    def _row_lift(self, what: str, by_row: bool = True) -> tuple[list[list], list, list, int]:
        """(RA, r, the characteristic polynomial of RA, p) for the lift
        R = diag(r) and modulus p of :func:`cauchykit.densela._lift`: the
        row lift, or with ``by_row`` false the whole-matrix lift, r_i = D;
        ``what`` names the caller in a shape error."""
        self._require_square(what)
        la = _oracle()
        a, r, p = la._lift(self.to_rows(), self.ctx, by_row)
        return a, r, la._berkowitz(a, p), p

    def det_berkowitz(self) -> Scalar:
        """Determinant as (-1)^n c_n(RA) / det R on the row lift, a route
        that shares nothing with elimination."""
        _, r, c, _ = self._row_lift("det_berkowitz")
        return _oracle()._lower(self.ctx, (-1) ** self.rows * c[-1], math.prod(r))

    def adjugate(self) -> "Matrix":
        """Adjugate by Cayley-Hamilton on the row lift: adj(RA) = (-1)^(n-1)
        ((RA)^(n-1) + c_1 (RA)^(n-2) + ... + c_(n-1) I), evaluated by Horner,
        and adj(A) = adj(RA) R / det R. For the 1x1 matrix this is [[1]].
        Satisfies A * adj(A) = adj(A) * A = det(A) * I in any commutative
        ring, singular A included. Over F_p each Horner step is reduced mod p,
        so the entries stay below p instead of growing with n."""
        a, r, c, p = self._row_lift("adjugate")
        n, la = self.rows, _oracle()
        b = [[int(i == j) for j in range(n)] for i in range(n)]  # B <- RA B + c_k I
        for k in range(1, n):
            b = la._matmul(a, b, p)
            for i in range(n):
                b[i][i] = (b[i][i] + c[k]) % p if p else b[i][i] + c[k]
        sign, scale = (-1) ** (n - 1), math.prod(r)
        entries = [la._lower(self.ctx, sign * e * rj, scale) for row in b for e, rj in zip(row, r)]
        return Matrix._of(n, n, entries, self.ctx)

    def adjugate_entry_sum(self) -> Scalar:
        """1^T adj(A) 1 = 1^T adj(RA) r / det R = (-1)^(n-1) sum_{k<n}
        c_(n-1-k) 1^T (RA)^k r / det R, from the characteristic polynomial of
        the row lift and its Krylov vectors (RA)^k r: O(n^3) past the O(n^4)
        polynomial, with no adjugate built. Over F_p each Krylov vector is
        reduced mod p."""
        a, r, c, p = self._row_lift("adjugate_entry_sum")
        n, la = self.rows, _oracle()
        v, acc = r, 0  # v = (RA)^k r
        for k in range(n):
            acc += c[n - 1 - k] * sum(v)
            v = [la._dot(row, v, p) for row in a]
        return la._lower(self.ctx, (-1) ** (n - 1) * acc, math.prod(r))

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan elimination on [A | I], O(n^3), on
        the raw integers of :func:`cauchykit.densela._eliminate`: each entry
        becomes one Fraction or FpElement at the end.

        Raises NotInvertibleError (carrying the determinant) when the
        determinant is not a unit. The run keeps the determinant for
        :meth:`det_fast`; a zero determinant already known skips the run.
        """
        self._require_square("inverse")
        if self._inv is None and self._det != 0:
            self._det, inv = _oracle()._eliminate(self, jordan=True)
            if inv is not None:
                self._inv = Matrix._of(self.rows, self.cols, inv, self.ctx)
        if self._inv is None:
            det = self._det
            raise NotInvertibleError(det, f"matrix is singular: det = {self.ctx.render(det)}")
        return self._inv

    def entry_sum(self) -> Scalar:
        return _oracle()._sum(self.entries, self.ctx)

    def column_sum(self, j: int) -> Scalar:
        return _oracle()._sum(self.column(j), self.ctx)

    def trace(self) -> Scalar:
        self._require_square("trace")
        return sum(self.entries[:: self.cols + 1], self.ctx.zero)


class WeightVectors(_Frozen):
    """Weights (xs of length n, ys of length m) for the AB trace identity."""

    __slots__ = __match_args__ = ("xs", "ys")

    def __init__(self, xs: tuple, ys: tuple):
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
