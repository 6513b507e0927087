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
one integer kernel (:func:`_ints`): each parameter is lifted to its own
integer pair, the differences and sums are cross-multiplied, and each
result crosses back into the ring once, as one Fraction over Q or, over
F_p, after one (batch) inversion of all its denominators. The whole
inverse builds its scales on the determinant's products, kept on the spec,
and over F_p reads the entries of C off the spec's :func:`build` matrix
while the caller holds it, so the n^2 pair sums are inverted once.

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
                   Scalar, _Frozen, _inv_all_mod)


class NonInvertiblePairSumError(CauchyKitError):
    """Some x_i + y_j is not invertible, so the matrix cannot be built.

    ``i`` and ``j`` identify the first offending pair (0-based).
    """

    def __init__(self, i: int, j: int):
        super().__init__(f"pair sum x[{i}] + y[{j}] is not invertible")
        self.i = i
        self.j = j


class CauchySpec:
    """Parameter vectors defining a Cauchy matrix over one ring context.

    Construction validates every pairwise sum up front, in O(n) since
    x_i + y_j = 0 exactly when x_i = -y_j, and fails fast with the first
    offending (i, j) in row-major order rather than deep inside a product later.
    A spec is immutable after construction: :func:`det_closed` and
    :func:`is_invertible_spec` keep their results on it (``_det``, ``_verdict``),
    and so does :meth:`weight_sum` (``_weight``); ``_kept`` is :func:`_keep`'s.
    Over F_p, ``_built`` is a weak reference to the matrix :func:`build` last
    returned, so the spec keeps no matrix alive.
    """

    __slots__ = ("xs", "ys", "ctx", "_det", "_verdict", "_weight", "_kept", "_built")

    def __init__(self, xs: Sequence, ys: Sequence, ctx: RingContext):
        xs = tuple(ctx.coerce(x) for x in xs)
        ys = tuple(ctx.coerce(y) for y in ys)
        if len(xs) == 0:
            raise ValueError("need at least one parameter in each vector")
        if len(xs) != len(ys):
            raise ValueError(f"xs has {len(xs)} entries but ys has {len(ys)}")
        neg = {-y: j for j, y in reversed(tuple(enumerate(ys)))}  # x + y_j = 0 iff x = -y_j
        for i, x in enumerate(xs):
            if x in neg:
                raise NonInvertiblePairSumError(i, neg[x])
        self.xs = xs
        self.ys = ys
        self.ctx = ctx
        self._det = self._verdict = self._weight = self._kept = self._built = None

    @property
    def n(self) -> int:
        return len(self.xs)

    def weight_sum(self) -> Scalar:
        """sum(x) + sum(y), the quantity the entry-sum identities revolve around."""
        if self._weight is None:
            self._weight = sum(self.xs + self.ys, self.ctx.zero)
        return self._weight

    def __repr__(self):
        r = self.ctx.render
        return (
            f"CauchySpec(xs=[{', '.join(r(x) for x in self.xs)}], "
            f"ys=[{', '.join(r(y) for y in self.ys)}])"
        )


class InvertibilityVerdict(_Frozen):
    """Outcome of the strong-distinctness test.

    ``witness`` names the first failing pair as (vector, i, j) with 0-based
    positions, e.g. ("x", 0, 1) when x[0] - x[1] is not invertible.
    """

    __slots__ = __match_args__ = ("invertible", "witness")

    def __init__(self, invertible: bool, witness: tuple[str, int, int] | None = None):
        object.__setattr__(self, "invertible", invertible)
        object.__setattr__(self, "witness", witness)


def _ints(spec: CauchySpec) -> tuple[list, list, int, bool]:
    """The integer kernel's view of a spec: each parameter as its own pair
    (numerator, denominator), (residue, 1) over F_p, the modulus p, 0
    over Q, and whether every denominator is 1 (then the kernel skips its
    multiplications by 1). With x_i = a_i/q_i and y_j = r_j/s_j,
    differences and sums are cross-multiplied:
    x_i - x_j = (a_i q_j - a_j q_i)/(q_i q_j) and
    x_i + y_j = (a_i s_j + r_j q_i)/(q_i s_j). Results cross back into the
    ring once each; a common denominator instead would grow with every
    coprime denominator."""
    if isinstance(spec.ctx, PrimeField):
        return [(x.value, 1) for x in spec.xs], [(y.value, 1) for y in spec.ys], spec.ctx.p, True
    xs = [x.as_integer_ratio() for x in spec.xs]
    ys = [y.as_integer_ratio() for y in spec.ys]
    return xs, ys, 0, all(q == 1 for _, q in xs + ys)


def _prod(vs, p: int) -> int:
    """The product of the integers ``vs``, reduced mod p unless p is 0."""
    acc = math.prod(vs)
    return acc % p if p else acc


def _sums(xs: list, ys: list, unit: bool) -> list[list]:
    """sums[i][j], the numerator of x_i + y_j over q_i s_j."""
    if unit:
        rs = [r for r, _ in ys]
        return [[a + r for r in rs] for a, _ in xs]
    return [[a * s + r * q for r, s in ys] for a, q in xs]


def _uppers(us: list, unit: bool, p: int) -> list:
    """The upper halves U_k = prod_{m > k} (a_k q_m - a_m q_k), reduced mod p
    unless p is 0; on the reversed vector, the lower halves (m < k) reversed."""
    if unit:
        return [_prod([a - c for c, _ in us[k + 1:]], p) for k, (a, _) in enumerate(us)]
    return [_prod([a * t - c * q for c, t in us[k + 1:]], p) for k, (a, q) in enumerate(us)]


def _keep(spec: CauchySpec, xs: list, ys: list, p: int, unit: bool, sums: list) -> tuple:
    """Keep on the spec, and return, the determinant's O(n) products: the
    row products A_j = prod(sums[j]) and each vector's upper halves. The
    first of det_closed and inverse_closed fills them; racing threads
    compute equal ones."""
    spec._kept = ([_prod(row, p) for row in sums], _uppers(xs, unit, p), _uppers(ys, unit, p))
    return spec._kept


def build(spec: CauchySpec) -> Matrix:
    """The n x n matrix with entry (i, j) = 1/(x_i + y_j) = q_i s_j / sums[i][j]."""
    xs, ys, p, unit = _ints(spec)
    sums = _sums(xs, ys, unit)
    if p:
        entries = [FpElement(v, p) for v in _inv_all_mod([v for row in sums for v in row], p)]
    else:
        entries = [Fraction(q * s, v) for (_, q), row in zip(xs, sums) for (_, s), v in zip(ys, row)]
    m = Matrix._of(spec.n, spec.n, entries, spec.ctx)
    if p:
        spec._built = weakref.ref(m)
    return m


def det_closed(spec: CauchySpec) -> Scalar:
    """Closed-form determinant:

        prod_{i<j} (x_i - x_j)(y_i - y_j)  /  prod_{i,j} (x_i + y_j).

    Empty products are 1, so n = 1 gives 1/(x_1 + y_1).
    """
    if spec._det is None:
        xs, ys, p, unit = _ints(spec)
        rows, ux, uy = spec._kept or _keep(spec, xs, ys, p, unit, _sums(xs, ys, unit))
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
    distinctness, decided in O(n) by hashing; the witness is the first
    repeat in lexicographic (name, i, j) order."""
    if spec._verdict is None:
        repeats = []
        for name, vec in (("x", spec.xs), ("y", spec.ys)):
            first = {}
            for k, v in enumerate(vec):
                i = first.setdefault(v, k)
                if i != k:
                    repeats.append((name, i, k))
        witness = min(repeats, default=None)
        spec._verdict = InvertibilityVerdict(witness is None, witness)
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
    xs, ys, p, unit = _ints(spec)
    x, y = xs[j], ys[i]
    (a, q), (r, s) = x, y
    row, col = _sums([x], ys, unit)[0], _sums([y], xs, unit)[0]
    num = _prod(row + col, p)
    den = _prod([a * t - c * q for c, t in xs[:j] + xs[j + 1:]]
                + [r * t - c * s for c, t in ys[:i] + ys[i + 1:]] + [q, s, row[i]], p)
    return spec.ctx.inv(den) * num if p else Fraction(num, den)


def _scale_dens(us: list, uppers: list, unit: bool, p: int) -> list:
    """The scale denominators D_k = q_k U_k L_k, U and L the upper and lower halves."""
    lowers = _uppers(us[::-1], unit, p)[::-1]
    return [_prod([q, up, lo], p) for (_, q), up, lo in zip(us, uppers, lowers)]


def inverse_closed(spec: CauchySpec) -> Matrix:
    """Whole inverse in O(n^2) integer operations (plus bignum growth):
    diag(b) * C^T * diag(a) with a_j = A_j / D_j and b_i = B_i / E_i, B the
    column products and E the D of y, so inv[i, j] = a_j b_i C[j][i]. A and
    the upper halves are :func:`_keep`'s. Over Q each entry is one Fraction.
    Over F_p the entries of C are the :func:`build` matrix's while the
    caller holds it, else one batch inversion of the n^2 pair sums; then
    b_i = 1 / (E_i prod_k C[k][i]), and one batch inversion covers these
    and the D."""
    _require_invertible(spec)
    xs, ys, p, unit = _ints(spec)
    n, kept = spec.n, spec._kept
    m = spec._built() if spec._built is not None else None
    sums = None if m is not None and kept else _sums(xs, ys, unit)
    rows, ux, uy = kept or _keep(spec, xs, ys, p, unit, sums)
    dx, dy = _scale_dens(xs, ux, unit, p), _scale_dens(ys, uy, unit, p)
    if p:
        if m is not None:
            vals = [e.value for e in m.entries]
        else:
            vals = _inv_all_mod([v for row in sums for v in row], p)
        cols = [vals[i::n] for i in range(n)]  # column i of C
        inv = _inv_all_mod(dx + [_prod(col, p) * e for col, e in zip(cols, dy)], p)
        a = [na * d % p for na, d in zip(rows, inv)]
        entries = [FpElement(bi * aj * c, p)
                   for bi, col in zip(inv[n:], cols) for aj, c in zip(a, col)]
    else:
        cols = list(zip(*sums))
        entries = [Fraction(na * nb, da * db * v)
                   for nb, db, col in zip(map(math.prod, cols), dy, cols)
                   for na, da, v in zip(rows, dx, col)]
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
