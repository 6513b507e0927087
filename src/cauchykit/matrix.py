"""The dense matrix container, its errors and the AB lemma's weights.

:class:`Matrix` is the package's one matrix type: the closed forms of
:mod:`cauchykit.cauchy` and :mod:`cauchykit.minmat` return it, and the
oracle layer, :mod:`cauchykit.densela`, checks them on it. This module owns
the container: construction, indexing, rows and columns, shape, transpose,
trace, equality, hashing and the rendering in ``repr``. It imports only
:mod:`cauchykit.ring`, so ``import cauchykit`` and every closed form load and
compile no oracle code.

:mod:`cauchykit.densela` owns every oracle routine. Each oracle method here
(the determinants, the inverse, the adjugate and its entry sum, the
characteristic polynomial, the entry and column sums and the product) is one
statement that calls the :mod:`cauchykit.densela` function of the same name
(``matmul`` for ``*``, ``_sum`` for the sums), and :func:`_oracle` imports
that module on the first such call. Each routine is looked up on that module
when the method runs, so a routine replaced there is the one that runs.
:mod:`cauchykit.densela` re-exports every name defined here, the cofactor
guard ``COFACTOR_MAX`` included.

Matrices are immutable. All indices are 0-based.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ring import CauchyKitError, RingContext, Scalar, _Frozen

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
        """Matrix product: :func:`cauchykit.densela.matmul`."""
        return _oracle().matmul(self, other)

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
        """Determinant by cofactor expansion, n <= 8: :func:`cauchykit.densela.det_cofactor`."""
        return _oracle().det_cofactor(self)

    def det_fast(self) -> Scalar:
        """Determinant by elimination, kept: :func:`cauchykit.densela.det_fast`."""
        return _oracle().det_fast(self)

    def charpoly(self) -> list:
        """Characteristic polynomial by Berkowitz: :func:`cauchykit.densela.charpoly`."""
        return _oracle().charpoly(self)

    def det_berkowitz(self) -> Scalar:
        """Determinant by Berkowitz's polynomial: :func:`cauchykit.densela.det_berkowitz`."""
        return _oracle().det_berkowitz(self)

    def adjugate(self) -> "Matrix":
        """Adjugate by Cayley-Hamilton: :func:`cauchykit.densela.adjugate`."""
        return _oracle().adjugate(self)

    def adjugate_entry_sum(self) -> Scalar:
        """Entry sum of the adjugate, none built: :func:`cauchykit.densela.adjugate_entry_sum`."""
        return _oracle().adjugate_entry_sum(self)

    def inverse(self) -> "Matrix":
        """Inverse by Gauss-Jordan elimination, kept: :func:`cauchykit.densela.inverse`."""
        return _oracle().inverse(self)

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
