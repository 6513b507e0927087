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

The division-free routes and the sums work on an integer lift
(:func:`_lift`) and lower each result through the ring once (:func:`_lower`).
:func:`charpoly` and the AB trace lemma scale the whole matrix by the lcm D of
all its denominators; :func:`det_berkowitz`, :func:`adjugate` and
:func:`adjugate_entry_sum` scale row i by the lcm r_i of its own
denominators, R = diag(r_i), which keeps the lifted entries small when the
denominators are coprime. A row scaling is not a similarity, so the
characteristic polynomial keeps the whole-matrix lift. Those four take the
lift and its Berkowitz polynomial from one, :func:`_row_lift`.
:meth:`Matrix.entry_sum` and :meth:`Matrix.column_sum` (:func:`_sum`) lift
their entries as one row and add the integers. Over F_p the lift is the
residues, and Berkowitz, the Horner products of :func:`adjugate` and the
Krylov vectors of :func:`adjugate_entry_sum` reduce each dot product mod p.

This module owns every oracle routine, and :mod:`cauchykit.matrix` owns the
container. Each oracle method of :class:`~cauchykit.matrix.Matrix` is one
statement that calls a function here: the one of the same name for
:func:`det_fast`, :func:`det_cofactor`, :func:`det_berkowitz`,
:func:`charpoly`, :func:`adjugate`, :func:`adjugate_entry_sum` and
:func:`inverse`, :func:`matmul` for ``*`` and :func:`_sum` for the entry and
column sums. These functions keep the guards (square shape, the cofactor
size guard, one ring context) and fill the matrix's kept determinant and
inverse (``_det``, ``_inv``). The method looks its function up on this module
when it runs, so a routine replaced here is the one that runs.

The container, :class:`~cauchykit.matrix.Matrix`, lives in
:mod:`cauchykit.matrix` with its errors, the cofactor guard ``COFACTOR_MAX``
and the AB lemma's :class:`~cauchykit.matrix.WeightVectors`; this module
re-exports them. It is loaded on first use: ``import cauchykit`` and the
closed forms do not load it, the first oracle method called on a matrix
does, and so do :mod:`cauchykit.verify` and the CLI, which import its free
routines. All indices are 0-based.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .matrix import COFACTOR_MAX, Matrix, ShapeError, SizeLimitError, WeightVectors  # re-exported
from .ring import ContextMismatchError, FpElement, NotInvertibleError, PrimeField, RingContext, Scalar


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


def _sum(vs, ctx: RingContext) -> Scalar:
    """``sum(vs, ctx.zero)`` for the scalars ``vs`` in one step: their
    integer lift as one row (:func:`_lift`), added and lowered once over its
    scale, so one Fraction or FpElement is made."""
    (row,), (d,), _ = _lift([vs], ctx)
    return _lower(ctx, sum(row), d)


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


def det_cofactor(a: Matrix) -> Scalar:
    """Determinant of ``a`` by first-row Laplace expansion (:func:`_det_expand`).
    Exponential; guarded at n <= ``COFACTOR_MAX`` (8)."""
    a._require_square("det_cofactor")
    if a.rows > COFACTOR_MAX:
        raise SizeLimitError(f"cofactor expansion guarded at n <= {COFACTOR_MAX}, got n={a.rows}")
    return _det_expand(a.to_rows(), a.ctx)


def det_fast(a: Matrix) -> Scalar:
    """Determinant of ``a`` by Gaussian elimination, first nonzero pivot per
    column, on the raw integers of :func:`_eliminate` in either ring: one
    Fraction or FpElement is made, for the result. It is kept on ``a``, and a
    determinant already found by :func:`inverse` is returned as it is."""
    a._require_square("det_fast")
    if a._det is None:
        a._det = _eliminate(a)[0]
    return a._det


def charpoly(a: Matrix) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(tI - A) = sum c_i t^(n-i),
    by Berkowitz's algorithm: no division, valid for singular A. It runs
    on the whole-matrix lift DA, whose coefficients are D^k c_k(A): a row
    scaling is not a similarity."""
    _, (d, *_), c, _ = _row_lift(a, "charpoly", by_row=False)
    return [_lower(a.ctx, ck, d ** k) for k, ck in enumerate(c)]


def _row_lift(a: Matrix, what: str, by_row: bool = True) -> tuple[list[list], list, list, int]:
    """(RA, r, the characteristic polynomial of RA, p) for the lift
    R = diag(r) and modulus p of :func:`_lift`: the row lift, or with
    ``by_row`` false the whole-matrix lift, r_i = D; ``what`` names the
    caller in a shape error."""
    a._require_square(what)
    ra, r, p = _lift(a.to_rows(), a.ctx, by_row)
    return ra, r, _berkowitz(ra, p), p


def det_berkowitz(a: Matrix) -> Scalar:
    """Determinant as (-1)^n c_n(RA) / det R on the row lift, a route
    that shares nothing with elimination."""
    _, r, c, _ = _row_lift(a, "det_berkowitz")
    return _lower(a.ctx, (-1) ** a.rows * c[-1], math.prod(r))


def adjugate(a: Matrix) -> Matrix:
    """Adjugate by Cayley-Hamilton on the row lift: adj(RA) = (-1)^(n-1)
    ((RA)^(n-1) + c_1 (RA)^(n-2) + ... + c_(n-1) I), evaluated by Horner,
    and adj(A) = adj(RA) R / det R. For the 1x1 matrix this is [[1]].
    Satisfies A * adj(A) = adj(A) * A = det(A) * I in any commutative
    ring, singular A included. Over F_p each Horner step is reduced mod p,
    so the entries stay below p instead of growing with n."""
    ra, r, c, p = _row_lift(a, "adjugate")
    n = a.rows
    b = [[int(i == j) for j in range(n)] for i in range(n)]  # B <- RA B + c_k I
    for k in range(1, n):
        b = _matmul(ra, b, p)
        for i in range(n):
            b[i][i] = (b[i][i] + c[k]) % p if p else b[i][i] + c[k]
    sign, scale = (-1) ** (n - 1), math.prod(r)
    entries = [_lower(a.ctx, sign * e * rj, scale) for row in b for e, rj in zip(row, r)]
    return Matrix._of(n, n, entries, a.ctx)


def adjugate_entry_sum(a: Matrix) -> Scalar:
    """1^T adj(A) 1 = 1^T adj(RA) r / det R = (-1)^(n-1) sum_{k<n}
    c_(n-1-k) 1^T (RA)^k r / det R, from the characteristic polynomial of
    the row lift and its Krylov vectors (RA)^k r: O(n^3) past the O(n^4)
    polynomial, with no adjugate built. Over F_p each Krylov vector is
    reduced mod p."""
    ra, r, c, p = _row_lift(a, "adjugate_entry_sum")
    n = a.rows
    v, acc = r, 0  # v = (RA)^k r
    for k in range(n):
        acc += c[n - 1 - k] * sum(v)
        v = [_dot(row, v, p) for row in ra]
    return _lower(a.ctx, (-1) ** (n - 1) * acc, math.prod(r))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of ``a`` by Gauss-Jordan elimination on [A | I],
    O(n^3), on the raw integers of :func:`_eliminate`: each entry becomes one
    Fraction or FpElement at the end.

    Raises NotInvertibleError (carrying the determinant) when the
    determinant is not a unit. The inverse is kept on ``a``, and so is the
    determinant, for :func:`det_fast`; a zero determinant already known
    skips the run.
    """
    a._require_square("inverse")
    if a._inv is None and a._det != 0:
        a._det, inv = _eliminate(a, jordan=True)
        if inv is not None:
            a._inv = Matrix._of(a.rows, a.cols, inv, a.ctx)
    if a._inv is None:
        det = a._det
        raise NotInvertibleError(det, f"matrix is singular: det = {a.ctx.render(det)}")
    return a._inv


def matmul(a: Matrix, b) -> Matrix:
    """The product ``a * b`` of two matrices over one ring context, or
    ``NotImplemented`` when ``b`` is not a :class:`Matrix`."""
    if not isinstance(b, Matrix):
        return NotImplemented
    if a.ctx != b.ctx:
        raise ContextMismatchError("matrix product across ring contexts")
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    prod = _matmul(a.to_rows(), b.to_rows())
    return Matrix._of(a.rows, b.cols, [e for row in prod for e in row], a.ctx)


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
        "entries": [list(map(str, a.row(i))) for i in range(a.rows)],  # str of a ring scalar is its render
    }
