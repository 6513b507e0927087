"""Cauchy matrices and their exact closed forms.

A Cauchy matrix is defined by parameter vectors x_1..x_n and y_1..y_n with
every pairwise sum x_i + y_j invertible; its (i, j) entry is 1/(x_i + y_j).
This module holds the constructions and closed-form results:

* the determinant as a product of pairwise differences over pairwise sums,
* the invertibility criterion (each vector strongly distinct, meaning
  pairwise differences are invertible),
* per-entry and whole-matrix closed-form inverses. The inverse is the
  scaled transpose, C^-1 = diag(b) * C^T * diag(a), with
  a_j = prod_k (x_j + y_k) / prod_{k != j} (x_j - x_k) and b_i the same
  expression with x and y swapped (Schechter, "On the inversion of
  certain matrices", MTAC 13, 1959; Knuth, TAOCP vol. 1, 1.2.3 ex. 41),
  so the full inverse costs O(n^2) scalar work,
* the entry sum of the inverse, which collapses to sum(x) + sum(y),
* the entry sum of the adjugate, (sum(x) + sum(y)) * det, valid with no
  invertibility assumption at all,
* the ones-bordered determinant, -(sum(x) + sum(y)) * det.

The determinant, the matrix, its inverse and any one inverse entry run on
one integer kernel: each parameter is lifted once, when the spec is made,
to its own integer pair, which the spec keeps for every later use; with
x_i = a_i/q_i and y_j = r_j/s_j the differences and sums are
cross-multiplied, x_i - x_j = (a_i q_j - a_j q_i)/(q_i q_j) and
x_i + y_j = (a_i s_j + r_j q_i)/(q_i s_j), and each result crosses back
into the ring once, as one Fraction over Q or, over F_p, after one (batch)
inversion of all its denominators. A common denominator instead would grow
with every coprime denominator. The kernel has one route per ring: every
rational spec, integer-valued ones included, takes the pair route, and
only F_p drops the denominators of 1. The scalar bookkeeping works on the
same pairs: the constructor hashes each vector's pairs once, into the map
that both the pair-sum check and the invertibility verdict read, and the
weight sum adds them over the lcm of their denominators into one scalar.
The rational matrix's entries come from one helper, :func:`_entries`,
which :func:`build` calls with Fraction and :mod:`cauchykit.canary` with
its float quotient, so the kernel stays inside this module. The whole
inverse builds its scales on the determinant's products, kept on the spec.
Over Q it reduces each scale to lowest terms once, with one gcd each, and
then makes each entry one Fraction of the reduced pairs; over F_p it reads
the entries of C off the spec's :func:`build` matrix while the caller
holds it, so the n^2 pair sums are inverted once. Over F_p that
inversion is one sweep grouped by rows, which yields the reciprocals and
the row products A_j = prod_k (x_j + y_k) together; the spec keeps the n
products, so after :func:`build` the determinant forms no pair sums and
multiplies out no row.

Every closed form here has an independent brute-force counterpart in
:mod:`cauchykit.densela`; the test suite holds the two sides together on
thousands of random inputs. Indices are 0-based throughout.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from fractions import Fraction

from .densela import Matrix
from .ring import (CauchyKitError, FpElement, NotInvertibleError, PrimeField, RingContext,
                   Scalar, _Frozen, _inv_all_mod, _inv_rows_mod, _vectors, _wrap)


class NonInvertiblePairSumError(CauchyKitError):
    """Some x_i + y_j is not invertible, so the matrix cannot be built.

    ``i`` and ``j`` identify the first offending pair (0-based).
    """

    def __init__(self, i: int, j: int):
        super().__init__(f"pair sum x[{i}] + y[{j}] is not invertible")
        self.i = i
        self.j = j


class InvertibilityVerdict(_Frozen):
    """Outcome of the strong-distinctness test.

    ``witness`` names the first failing pair as (vector, i, j) with 0-based
    positions, e.g. ("x", 0, 1) when x[0] - x[1] is not invertible.
    """

    __slots__ = __match_args__ = ("invertible", "witness")

    def __init__(self, invertible: bool, witness: tuple[str, int, int] | None = None):
        object.__setattr__(self, "invertible", invertible)
        object.__setattr__(self, "witness", witness)


class CauchySpec:
    """Parameter vectors defining a Cauchy matrix over one ring context.

    Construction lifts each parameter to its integer pair: (numerator,
    denominator) in lowest terms over Q, (residue, 1) over F_p, so two pairs
    are equal exactly when the two scalars are. One map per vector, from each
    pair to its first position, then serves both checks in O(n). The pair-sum
    check fails fast with the first (i, j) in row-major order where
    x_i + y_j = 0, that is where -x_i is among the y's, rather than deep inside
    a product later. The invertibility verdict is decided from the same maps:
    a vector repeats a pair only when its map is shorter than n, and only then
    are the positions scanned for the witness. The pairs are kept, with the
    modulus p (0 over Q), as ``_int_pairs``, which every closed form reads,
    and the verdict as ``_verdict``, which :func:`is_invertible_spec` returns.
    A spec is immutable after construction: :func:`det_closed` keeps its
    result on it (``_det``), and so does :meth:`weight_sum` (``_weight``);
    ``_kept`` is :func:`_keep`'s. Over F_p, ``_built`` is a weak reference to
    the matrix :func:`build` last returned, so the spec keeps no matrix alive,
    and ``_rows`` holds the n row products A_j = prod_k (x_j + y_k) of the
    last batch inversion of the pair sums, by :func:`build` or
    :func:`inverse_closed`.
    """

    __slots__ = ("xs", "ys", "ctx", "_int_pairs", "_det", "_verdict", "_weight", "_kept", "_built", "_rows")

    def __init__(self, xs: Sequence, ys: Sequence, ctx: RingContext):
        xs, ys = _vectors(xs, ys, ctx.coerce)
        n, p = len(xs), ctx.p if isinstance(ctx, PrimeField) else 0
        xp, yp = ([(v.value, 1) for v in vec] if p else [v.as_integer_ratio() for v in vec]
                  for vec in (xs, ys))
        xfirst, yfirst = (dict(zip(vec[::-1], range(n - 1, -1, -1))) for vec in (xp, yp))
        for i, (a, q) in enumerate(xp):  # x_i + y_j = 0 iff y_j = -x_i
            if (neg := (-a % p if p else -a, q)) in yfirst:
                raise NonInvertiblePairSumError(i, yfirst[neg])
        repeats = [(name, first[v], k) for name, vec, first in (("x", xp, xfirst), ("y", yp, yfirst))
                   if len(first) < n for k, v in enumerate(vec) if first[v] != k]
        self.xs = xs
        self.ys = ys
        self.ctx = ctx
        self._int_pairs = (xp, yp, p)
        self._verdict = InvertibilityVerdict(not repeats, min(repeats, default=None))
        self._det = self._weight = self._kept = self._built = self._rows = None

    @property
    def n(self) -> int:
        return len(self.xs)

    def weight_sum(self) -> Scalar:
        """sum(x) + sum(y), the quantity the entry-sum identities revolve around:
        over Q one Fraction over the lcm of the 2n denominators, over F_p one
        residue."""
        if self._weight is None:
            xs, ys, p = self._int_pairs
            d = math.lcm(*(q for _, q in xs + ys))
            num = sum(a * (d // q) for a, q in xs + ys)
            self._weight = FpElement(num, p) if p else Fraction(num, d)
        return self._weight

    def __repr__(self):
        r = self.ctx.render
        return (
            f"CauchySpec(xs=[{', '.join(r(x) for x in self.xs)}], "
            f"ys=[{', '.join(r(y) for y in self.ys)}])"
        )


def _prod(vs, p: int) -> int:
    """The product of the integers ``vs``, reduced mod p unless p is 0."""
    acc = math.prod(vs)
    return acc % p if p else acc


def _sums(xs: list, ys: list, p: int) -> list[list]:
    """sums[i][j], the numerator of x_i + y_j over q_i s_j."""
    if p:
        rs = [r for r, _ in ys]
        return [[a + r for r in rs] for a, _ in xs]
    return [[a * s + r * q for r, s in ys] for a, q in xs]


def _uppers(us: list, p: int) -> list:
    """The upper halves U_k = prod_{m > k} (a_k q_m - a_m q_k), reduced mod p
    unless p is 0; on the reversed vector, the lower halves (m < k) reversed."""
    if p:
        return [_prod([a - c for c, _ in us[k + 1:]], p) for k, (a, _) in enumerate(us)]
    return [_prod([a * t - c * q for c, t in us[k + 1:]], p) for k, (a, q) in enumerate(us)]


def _keep(spec: CauchySpec, xs: list, ys: list, p: int) -> tuple:
    """Keep on the spec, and return, the determinant's O(n) products: the
    row products A_j = prod(sums[j]), the batch inversion's ``_rows`` when
    one has run, and each vector's upper halves. The first of det_closed
    and inverse_closed fills them; racing threads compute equal ones."""
    rows = spec._rows or [_prod(row, p) for row in _sums(xs, ys, p)]
    spec._kept = (rows, _uppers(xs, p), _uppers(ys, p))
    return spec._kept


def _entries(spec: CauchySpec, quotient) -> list:
    """The entries 1/(x_i + y_j) = q_i s_j / sums[i][j] of a rational spec's
    matrix, row-major, each ``quotient(q_i s_j, sums[i][j])``: Fraction for
    :func:`build`, a correctly rounded float for the canary's float image."""
    xs, ys, _ = spec._int_pairs
    return [quotient(q * s, v) for (_, q), row in zip(xs, _sums(xs, ys, 0)) for (_, s), v in zip(ys, row)]


def build(spec: CauchySpec) -> Matrix:
    """The n x n matrix with entry (i, j) = 1/(x_i + y_j) = q_i s_j / sums[i][j]."""
    xs, ys, p = spec._int_pairs
    n = spec.n
    if not p:
        return Matrix._of(n, n, _entries(spec, Fraction), spec.ctx)
    vals, spec._rows = _inv_rows_mod(_sums(xs, ys, p), p)
    m = Matrix._of(n, n, _wrap(vals, p), spec.ctx)
    spec._built = weakref.ref(m)
    return m


def det_closed(spec: CauchySpec) -> Scalar:
    """Closed-form determinant:

        prod_{i<j} (x_i - x_j)(y_i - y_j)  /  prod_{i,j} (x_i + y_j).

    Empty products are 1, so n = 1 gives 1/(x_1 + y_1). Over F_p the
    denominator's row products are the ones the last batch inversion of
    the pair sums kept on the spec, if any ran.
    """
    if spec._det is None:
        xs, ys, p = spec._int_pairs
        rows, ux, uy = spec._kept or _keep(spec, xs, ys, p)
        # the denominators cancel down to prod(q) prod(s) on top
        num = _prod(ux + uy + [q for _, q in xs + ys], p)
        den = _prod(rows, p)
        spec._det = spec.ctx.inv(den) * num if p else Fraction(num, den)
    return spec._det


def is_invertible_spec(spec: CauchySpec) -> InvertibilityVerdict:
    """Invertibility test without computing anything matrix-shaped: the
    matrix is invertible iff the x's are pairwise strongly distinct and the
    y's are pairwise strongly distinct (differences invertible). In a field
    a difference is invertible iff it is nonzero, so this is plain
    distinctness, decided in O(n) when the spec was made, from the maps of
    its integer pairs; the witness is the first repeat in lexicographic
    (name, i, j) order."""
    return spec._verdict


def _require_invertible(spec: CauchySpec):
    verdict = is_invertible_spec(spec)
    if not verdict.invertible:
        name, i, j = verdict.witness
        vec = spec.xs if name == "x" else spec.ys
        raise NotInvertibleError(
            vec[i] - vec[j],
            f"matrix is singular: {name}[{i}] and {name}[{j}] are not strongly distinct",
        )


def inverse_entry_closed(spec: CauchySpec, i: int, j: int) -> Scalar:
    """Single entry of the inverse, directly from the parameters in O(n):

        inv[i, j] = b_i * a_j / (x_j + y_i)
                  = prod_k (x_j + y_k)(x_k + y_i)
                    / ( (x_j + y_i) * prod_{k != j} (x_j - x_k)
                                    * prod_{k != i} (y_i - y_k) ).

    The numerator's (x_j + y_k) factor is the one confirmed against the
    Gauss-Jordan oracle inverse; see the formula-resolution test. It reads
    row j and column i of the integer pair sums and keeps nothing.
    """
    _require_invertible(spec)
    n = spec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for n={n}")
    xs, ys, p = spec._int_pairs
    x, y = xs[j], ys[i]
    (a, q), (r, s) = x, y
    row, col = _sums([x], ys, p)[0], _sums([y], xs, p)[0]
    num = _prod(row + col, p)
    den = _prod([a * t - c * q for c, t in xs[:j] + xs[j + 1:]]
                + [r * t - c * s for c, t in ys[:i] + ys[i + 1:]] + [q, s, row[i]], p)
    return spec.ctx.inv(den) * num if p else Fraction(num, den)


def _scale_dens(us: list, uppers: list, p: int) -> list:
    """The scale denominators D_k = q_k U_k L_k, U and L the upper and lower halves."""
    lowers = _uppers(us[::-1], p)[::-1]
    return [_prod([q, up, lo], p) for (_, q), up, lo in zip(us, uppers, lowers)]


def inverse_closed(spec: CauchySpec) -> Matrix:
    """Whole inverse in O(n^2) integer operations (plus bignum growth):
    diag(b) * C^T * diag(a) with a_j = A_j / D_j and b_i = B_i / E_i, B the
    column products and E the D of y, so inv[i, j] = a_j b_i C[j][i]. A and
    the upper halves are :func:`_keep`'s. Over Q each scale is reduced to
    lowest terms once, with one gcd (2n in all), and each entry is then one
    Fraction of the reduced pairs, so its own gcd runs on shorter operands.
    Over F_p the entries of C are the :func:`build` matrix's while the
    caller holds it, else one grouped batch inversion of the n^2 pair sums,
    which also yields A; then b_i = 1 / (E_i prod_k C[k][i]), and one batch
    inversion covers these and the D."""
    _require_invertible(spec)
    xs, ys, p = spec._int_pairs
    n = spec.n
    m = spec._built() if spec._built is not None else None
    if m is not None:
        vals = [e.value for e in m.entries]
    elif p:
        vals, spec._rows = _inv_rows_mod(_sums(xs, ys, p), p)
    rows, ux, uy = spec._kept or _keep(spec, xs, ys, p)
    dx, dy = _scale_dens(xs, ux, p), _scale_dens(ys, uy, p)
    if p:
        cols = [vals[i::n] for i in range(n)]  # column i of C
        inv = _inv_all_mod(dx + [_prod(col, p) * e for col, e in zip(cols, dy)], p)
        a = [na * d % p for na, d in zip(rows, inv)]
        entries = _wrap([bi * aj * c % p
                         for bi, col in zip(inv[n:], cols) for aj, c in zip(a, col)], p)
    else:
        cols = list(zip(*_sums(xs, ys, p)))
        a = [(na // (g := math.gcd(na, da)), da // g) for na, da in zip(rows, dx)]
        b = [(nb // (g := math.gcd(nb, db)), db // g) for nb, db in zip(map(math.prod, cols), dy)]
        entries = [Fraction(na * nb, da * db * v)
                   for (nb, db), col in zip(b, cols) for (na, da), v in zip(a, col)]
    return Matrix._of(n, n, entries, spec.ctx)


def inverse_entry_sum(spec: CauchySpec) -> Scalar:
    """Entry sum of the inverse. The whole point: it is just sum(x) + sum(y).

    Requires an invertible spec; raises NotInvertibleError otherwise.
    """
    _require_invertible(spec)
    return spec.weight_sum()


def adjugate_entry_sum_closed(spec: CauchySpec) -> Scalar:
    """Entry sum of the adjugate: (sum(x) + sum(y)) * det.

    No invertibility requirement; this is exactly what the adjugate buys
    over the inverse, and the singular case (a repeated parameter) is a
    legitimate input with answer 0.
    """
    return spec.weight_sum() * det_closed(spec)


def bordered_det_closed(spec: CauchySpec) -> Scalar:
    """Determinant of the ones-bordered matrix: -(sum(x) + sum(y)) * det."""
    return -(spec.weight_sum() * det_closed(spec))
