"""Generic dense exact linear algebra over a ring context.

This is the oracle layer: deliberately brute-force code that the closed
forms elsewhere in the package are tested against. Determinants come in
three independent routes: Gaussian elimination over the field, Berkowitz's
division-free characteristic polynomial, and first-row cofactor expansion
(n <= 8). Verify checks determinants and the invertibility criterion by
elimination and adjugates by the characteristic polynomial; the tests hold
all three routes together. The inverse is Gauss-Jordan elimination on
[A | I]; the adjugate, by Cayley-Hamilton on the characteristic
polynomial, shares no code with it.

Elimination runs on raw integers (:func:`_eliminate`): over Q each entry is
its own pair (numerator, denominator), over F_p a plain residue, and each
result crosses back into the ring once. It lifts nothing. The kernel is
written apart from the closed forms' integer kernel in
:mod:`cauchykit.cauchy`, from the batch inversion in :mod:`cauchykit.ring`
and from the Berkowitz lift here, and it never calls the ring's ``inv``, so
the oracle does not share the arithmetic it checks. For the same reason
every FpElement this module makes goes through the public class call,
never the closed forms' bulk wrap (``ring._wrap``).

The division-free routes work on an integer lift (:func:`_lift`) and lower
each result through the ring once. :meth:`Matrix.charpoly` and the AB trace
lemma scale the whole matrix by the lcm D of all its denominators;
:meth:`Matrix.det_berkowitz`, :meth:`Matrix.adjugate` and
:meth:`Matrix.adjugate_entry_sum` scale row i by the lcm r_i of its own
denominators, R = diag(r_i), which keeps the lifted entries small when the
denominators are coprime. A row scaling is not a similarity, so the
characteristic polynomial keeps the whole-matrix lift. Over F_p the lift
is the residues, and Berkowitz, the Horner products of
:meth:`Matrix.adjugate` and the Krylov vectors of
:meth:`Matrix.adjugate_entry_sum` reduce each dot product mod p.

Matrices are immutable. All indices are 0-based.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .ring import (
    CauchyKitError,
    ContextMismatchError,
    FpElement,
    NotInvertibleError,
    PrimeField,
    RingContext,
    Scalar,
    _Frozen,
)


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
        prod = _matmul(self.to_rows(), other.to_rows())
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
        return _det_expand(self.to_rows(), self.ctx)

    def det_fast(self) -> Scalar:
        """Determinant by Gaussian elimination, first nonzero pivot per
        column, on the raw integers of :func:`_eliminate` in either ring:
        one Fraction or FpElement is made, for the result. A determinant
        already found by :meth:`inverse` is returned as it is."""
        self._require_square("det_fast")
        if self._det is None:
            self._det = _eliminate(self)[0]
        return self._det

    def charpoly(self) -> list:
        """Coefficients [1, c_1, ..., c_n] of det(tI - A) = sum c_i t^(n-i),
        by Berkowitz's algorithm: no division, valid for singular A."""
        self._require_square("charpoly")
        a, r, p = _lift(self.to_rows(), self.ctx)
        return [_lower(self.ctx, c, r[0] ** k) for k, c in enumerate(_berkowitz(a, p))]

    def _row_lift(self, what: str) -> tuple[list[list], list, list, int]:
        """(RA, r, the characteristic polynomial of RA, p) for the row lift
        R = diag(r) and modulus p of :func:`_lift`; ``what`` names the caller
        in a shape error."""
        self._require_square(what)
        a, r, p = _lift(self.to_rows(), self.ctx, by_row=True)
        return a, r, _berkowitz(a, p), p

    def det_berkowitz(self) -> Scalar:
        """Determinant as (-1)^n c_n(RA) / det R on the row lift, a route
        that shares nothing with elimination."""
        _, r, c, _ = self._row_lift("det_berkowitz")
        return _lower(self.ctx, (-1) ** self.rows * c[-1], math.prod(r))

    def adjugate(self) -> "Matrix":
        """Adjugate by Cayley-Hamilton on the row lift: adj(RA) = (-1)^(n-1)
        ((RA)^(n-1) + c_1 (RA)^(n-2) + ... + c_(n-1) I), evaluated by Horner,
        and adj(A) = adj(RA) R / det R. For the 1x1 matrix this is [[1]].
        Satisfies A * adj(A) = adj(A) * A = det(A) * I in any commutative
        ring, singular A included. Over F_p each Horner step is reduced mod p,
        so the entries stay below p instead of growing with n."""
        a, r, c, p = self._row_lift("adjugate")
        n = self.rows
        b = [[int(i == j) for j in range(n)] for i in range(n)]  # B <- RA B + c_k I
        for k in range(1, n):
            b = _matmul(a, b, p)
            for i in range(n):
                b[i][i] = (b[i][i] + c[k]) % p if p else b[i][i] + c[k]
        sign, scale = (-1) ** (n - 1), math.prod(r)
        entries = [_lower(self.ctx, sign * e * rj, scale) for row in b for e, rj in zip(row, r)]
        return Matrix._of(n, n, entries, self.ctx)

    def adjugate_entry_sum(self) -> Scalar:
        """1^T adj(A) 1 = 1^T adj(RA) r / det R = (-1)^(n-1) sum_{k<n}
        c_(n-1-k) 1^T (RA)^k r / det R, from the characteristic polynomial of
        the row lift and its Krylov vectors (RA)^k r: O(n^3) past the O(n^4)
        polynomial, with no adjugate built. Over F_p each Krylov vector is
        reduced mod p."""
        a, r, c, p = self._row_lift("adjugate_entry_sum")
        n = self.rows
        v, acc = r, 0  # v = (RA)^k r
        for k in range(n):
            acc += c[n - 1 - k] * sum(v)
            v = [_dot(row, v, p) for row in a]
        return _lower(self.ctx, (-1) ** (n - 1) * acc, math.prod(r))

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan elimination on [A | I], O(n^3), on
        the raw integers of :func:`_eliminate`: each entry becomes one
        Fraction or FpElement at the end.

        Raises NotInvertibleError (carrying the determinant) when the
        determinant is not a unit. The run keeps the determinant for
        :meth:`det_fast`; a zero determinant already known skips the run.
        """
        self._require_square("inverse")
        if self._inv is None and self._det != 0:
            self._det, inv = _eliminate(self, jordan=True)
            if inv is not None:
                self._inv = Matrix._of(self.rows, self.cols, inv, self.ctx)
        if self._inv is None:
            det = self._det
            raise NotInvertibleError(det, f"matrix is singular: det = {self.ctx.render(det)}")
        return self._inv

    def entry_sum(self) -> Scalar:
        return sum(self.entries, self.ctx.zero)

    def column_sum(self, j: int) -> Scalar:
        return sum(self.column(j), self.ctx.zero)

    def trace(self) -> Scalar:
        self._require_square("trace")
        return sum(self.entries[:: self.cols + 1], self.ctx.zero)


def _det_expand(rows: list[list], ctx: RingContext) -> Scalar:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ctx.zero
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = a * _det_expand(sub, ctx)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _dot(u, v, p: int = 0):
    """sum u_i v_i over the shorter of the two, in any ring (or the integers),
    added left to right from the int 0; an integer sum is reduced mod p
    unless p is 0."""
    acc = sum(map(operator.mul, u, v))
    return acc % p if p else acc


def _matmul(a: list[list], b: list[list], p: int = 0) -> list[list]:
    """The product of ``a`` and ``b``, each entry reduced mod p unless p is 0."""
    cols = list(zip(*b))
    return [[_dot(ai, col, p) for col in cols] for ai in a]


def _lift(rows: list[list], ctx: RingContext, by_row: bool = False) -> tuple[list[list], list, int]:
    """The integer matrix R*A for the rows of A, the diagonal r of its scale
    R and the modulus p: over Q (p = 0) each r_i is the least common
    denominator of row i with ``by_row``, else every r_i is the lcm D of all
    the entries' denominators; over F_p the residues with R = I.
    Division-free work on the lift maps back to A through the ring, since
    c_k(DA) = D^k c_k(A), det(RA) = det R det A and adj(RA) = adj(A) adj(R)
    = det R adj(A) R^-1; integers skip the gcd of every Fraction operation
    and the object of every residue."""
    if isinstance(ctx, PrimeField):
        return [[e.value for e in row] for row in rows], [1] * len(rows), ctx.p
    r = [math.lcm(*(e.denominator for e in row)) for row in rows]
    if not by_row:
        r = [math.lcm(*r)] * len(r)
    return [[e.numerator * (ri // e.denominator) for e in row] for row, ri in zip(rows, r)], r, 0


def _lower(ctx: RingContext, v: int, scale: int) -> Scalar:
    """The ring element v / scale, for integer work on a lift of scale D^k."""
    return Fraction(v, scale) if scale != 1 else ctx.coerce(v)


def _berkowitz(rows: list[list], p: int) -> list:
    """Characteristic polynomial [1, c_1, ..., c_n] of the square integer
    ``rows`` by Berkowitz's algorithm (Inf. Process. Lett. 18, 1984): O(n^4)
    operations with no division and no pivoting. The polynomial of each
    leading (r+1) block is a lower-triangular Toeplitz matrix times that of
    the leading r block; the Toeplitz column is 1, -a, -R S, -R A S, ...,
    -R A^(r-1) S, where A is the leading r block, S the column above the
    new diagonal entry a and R the row left of it. Unless p is 0, every dot
    product is reduced mod p, so the integers stay below n p^2."""
    poly = [1]
    for r, row_r in enumerate(rows):
        lead = rows[:r]  # _dot reads only the first r entries of each row
        toeplitz = [1, -row_r[r]]
        v = [row[r] for row in lead]  # A^m S
        for m in range(r):
            if m:
                v = [_dot(row, v, p) for row in lead]
            toeplitz.append(-_dot(row_r, v, p))
        poly = [_dot(toeplitz[k::-1], poly, p) for k in range(r + 2)]
    return poly


def _eliminate(a: Matrix, jordan: bool = False) -> tuple[Scalar, list | None]:
    """Gaussian elimination of the square ``a`` on raw integers, taking the
    first nonzero pivot in each column; a row swap flips the determinant's
    sign. Returns (det, inv): the determinant as a ring scalar and, with
    ``jordan``, the entries of the inverse, row-major, from Gauss-Jordan
    elimination on [A | I]; inv is None without ``jordan`` or when det = 0.

    Over Q each entry is its own integer pair (numerator, denominator) in
    lowest terms with a positive denominator, so zero is (0, 1). The pivot
    row is scaled to a leading 1, and an update t - f * r is cross-multiplied,
    (t_n f_d r_d - f_n r_n t_d) / (t_d f_d r_d), and reduced by one gcd. Over
    F_p the entries are residues and each pivot is inverted by one ``pow``.
    Zero entries of the pivot row are skipped. Each result crosses back into
    the ring once: one Fraction or FpElement per determinant and per entry."""
    n, ctx = a.rows, a.ctx
    p = ctx.p if isinstance(ctx, PrimeField) else 0
    if p:
        zero, one = 0, 1
        m = [[e.value for e in a.row(i)] for i in range(n)]
    else:
        zero, one = (0, 1), (1, 1)
        m = [[(e.numerator, e.denominator) for e in a.row(i)] for i in range(n)]
    if jordan:
        for i, row in enumerate(m):
            row.extend(one if j == i else zero for j in range(n))
    width = len(m[0])
    det_n, det_d = 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k] != zero), None)
        if pivot_row is None:
            return ctx.zero, None
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det_n = -det_n
        row = m[k]
        if p:
            pivot = row[k]
            det_n = det_n * pivot % p
            inv = pow(pivot, -1, p)
            nonzero = []
            for j in range(k + 1, width):
                if row[j]:
                    row[j] = v = row[j] * inv % p
                    nonzero.append((j, v))
        else:
            pn, pd = row[k]
            det_n, det_d = det_n * pn, det_d * pd
            g = math.gcd(det_n, det_d)
            det_n, det_d = det_n // g, det_d // g
            if pn < 0:
                pn, pd = -pn, -pd
            nonzero = []
            for j in range(k + 1, width):
                rn, rd = row[j]
                if rn:
                    rn, rd = rn * pd, rd * pn  # r / pivot
                    g = math.gcd(rn, rd)
                    rn, rd = rn // g, rd // g
                    row[j] = rn, rd
                    nonzero.append((j, rn, rd))
        row[k] = one
        for i in range(0 if jordan else k + 1, n):
            target = m[i]
            factor = target[k]
            if i == k or factor == zero:
                continue
            target[k] = zero
            if p:
                for j, v in nonzero:
                    target[j] = (target[j] - factor * v) % p
            else:
                fn, fd = factor
                for j, rn, rd in nonzero:
                    tn, td = target[j]
                    frd = fd * rd
                    num, den = tn * frd - fn * rn * td, td * frd
                    g = math.gcd(num, den)
                    target[j] = (num // g, den // g)
    if p:
        det = FpElement(det_n, p)
        inv = [FpElement(v, p) for row in m for v in row[n:]] if jordan else None
    else:
        det = Fraction(det_n, det_d)
        inv = [Fraction(v, d) for row in m for v, d in row[n:]] if jordan else None
    return det, inv


class WeightVectors(_Frozen):
    """Weights (xs of length n, ys of length m) for the AB trace identity."""

    __slots__ = __match_args__ = ("xs", "ys")

    def __init__(self, xs: tuple, ys: tuple):
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def lemma_ab_check(a: Matrix, b: Matrix, w: WeightVectors) -> tuple[Scalar, Scalar]:
    """Evaluate both sides of the weighted double-sum identity

        sum_{i,j} (x_i + y_j) A[i,j] B[j,i]
            = sum_i x_i (AB)[i,i] + sum_j y_j (BA)[j,j]

    for A of shape n x m and B of shape m x n, returning (lhs, rhs). The two
    are equal for every A and B; returning both keeps the check auditable.
    Only the trace terms of the right side are formed, (AB)[i,i] as the dot
    product of row i of A with column i of B and (BA)[j,j] likewise, so the
    work is O(nm) with no whole product AB or BA. Both sides run on the
    whole-matrix integer lifts of A, B and the weights (:func:`_lift`), and
    each crosses back into the ring once, over the product of the three
    scales.
    """
    if a.ctx != b.ctx:
        raise ContextMismatchError("A and B live in different ring contexts")
    if b.rows != a.cols or b.cols != a.rows:
        raise ShapeError(
            f"B must be {a.cols}x{a.rows} to pair with {a.rows}x{a.cols} A, got {b.rows}x{b.cols}"
        )
    ctx = a.ctx
    xs = tuple(ctx.coerce(x) for x in w.xs)
    ys = tuple(ctx.coerce(y) for y in w.ys)
    if len(xs) != a.rows or len(ys) != a.cols:
        raise ShapeError(
            f"need {a.rows} x-weights and {a.cols} y-weights, got {len(xs)} and {len(ys)}"
        )
    ia, (da, *_), _ = _lift(a.to_rows(), ctx)
    ib, (db, *_), _ = _lift(b.to_rows(), ctx)
    (ix, iy), (dw, _), _ = _lift([xs, ys], ctx)
    ia_cols, ib_cols = list(zip(*ia)), list(zip(*ib))  # ib_cols[i][j] = B[j, i]
    lhs = sum((x + y) * u * v for x, ra, cb in zip(ix, ia, ib_cols) for y, u, v in zip(iy, ra, cb))
    rhs = _dot(ix, map(_dot, ia, ib_cols)) + _dot(iy, map(_dot, ib, ia_cols))
    scale = da * db * dw
    return _lower(ctx, lhs, scale), _lower(ctx, rhs, scale)


def border_with_ones(a: Matrix) -> Matrix:
    """Extend a square matrix by a row of ones at the bottom, a column of
    ones at the right, and a zero in the new corner."""
    a._require_square("border_with_ones")
    one, zero = a.ctx.one, a.ctx.zero
    n = a.rows
    out = []
    for i in range(n):
        out.extend(a.row(i))
        out.append(one)
    out.extend([one] * n)
    out.append(zero)
    return Matrix._of(n + 1, n + 1, out, a.ctx)


def matrix_to_json(a: Matrix) -> dict:
    """Render as the interchange form {"rows", "cols", "entries"} with
    entries as per-ring canonical strings, nested by row."""
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[a.ctx.render(e) for e in a.row(i)] for i in range(a.rows)],
    }
