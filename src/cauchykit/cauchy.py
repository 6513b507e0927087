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

Every closed form here has an independent brute-force counterpart in
:mod:`cauchykit.densela`; the test suite holds the two sides together on
thousands of random inputs. Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .densela import Matrix, border_with_ones
from .ring import CauchyKitError, NotInvertibleError, RingContext, Scalar


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

    Construction validates all n^2 pairwise sums up front and fails fast
    with the offending (i, j) rather than deep inside a product later.
    A spec is immutable after construction: :func:`det_closed` and
    :func:`is_invertible_spec` keep their results on it (``_det``, ``_verdict``).
    """

    __slots__ = ("xs", "ys", "ctx", "_det", "_verdict")

    def __init__(self, xs: Sequence, ys: Sequence, ctx: RingContext):
        xs = tuple(ctx.coerce(x) for x in xs)
        ys = tuple(ctx.coerce(y) for y in ys)
        if len(xs) == 0:
            raise ValueError("need at least one parameter in each vector")
        if len(xs) != len(ys):
            raise ValueError(f"xs has {len(xs)} entries but ys has {len(ys)}")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if not ctx.is_invertible(x + y):
                    raise NonInvertiblePairSumError(i, j)
        self.xs = xs
        self.ys = ys
        self.ctx = ctx
        self._det = None
        self._verdict = None

    @property
    def n(self) -> int:
        return len(self.xs)

    def weight_sum(self) -> Scalar:
        """sum(x) + sum(y), the quantity the entry-sum identities revolve around."""
        acc = self.ctx.zero
        for x in self.xs:
            acc = acc + x
        for y in self.ys:
            acc = acc + y
        return acc

    def __repr__(self):
        r = self.ctx.render
        return (
            f"CauchySpec(xs=[{', '.join(r(x) for x in self.xs)}], "
            f"ys=[{', '.join(r(y) for y in self.ys)}])"
        )


@dataclass(frozen=True)
class InvertibilityVerdict:
    """Outcome of the strong-distinctness test.

    ``witness`` names the first failing pair as (vector, i, j) with 0-based
    positions, e.g. ("x", 0, 1) when x[0] - x[1] is not invertible.
    """

    invertible: bool
    witness: Optional[tuple[str, int, int]] = None


def build(spec: CauchySpec) -> Matrix:
    """The n x n matrix with entry (i, j) = 1/(x_i + y_j)."""
    ctx = spec.ctx
    entries = ctx.inv_all(x + y for x in spec.xs for y in spec.ys)
    return Matrix(spec.n, spec.n, entries, ctx)


def det_closed(spec: CauchySpec) -> Scalar:
    """Closed-form determinant:

        prod_{i<j} (x_i - x_j)(y_i - y_j)  /  prod_{i,j} (x_i + y_j).

    Empty products are 1, so n = 1 gives 1/(x_1 + y_1).
    """
    if spec._det is None:
        ctx = spec.ctx
        num = ctx.one
        n = spec.n
        for i in range(n):
            for j in range(i + 1, n):
                num = num * (spec.xs[i] - spec.xs[j]) * (spec.ys[i] - spec.ys[j])
        den = ctx.one
        for x in spec.xs:
            for y in spec.ys:
                den = den * (x + y)
        spec._det = num * ctx.inv(den)
    return spec._det


def is_invertible_spec(spec: CauchySpec) -> InvertibilityVerdict:
    """Invertibility test without computing anything matrix-shaped: the
    matrix is invertible iff the x's are pairwise strongly distinct and the
    y's are pairwise strongly distinct (differences invertible)."""
    if spec._verdict is None:
        ctx = spec.ctx
        witness = next(((name, i, j) for name, vec in (("x", spec.xs), ("y", spec.ys))
                        for i in range(len(vec)) for j in range(i + 1, len(vec))
                        if not ctx.is_invertible(vec[i] - vec[j])), None)
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


def _scale(us: Sequence, vs: Sequence, j: int, one, inv):
    """prod_k (u_j + v_k) * inv(prod_{k != j} (u_j - u_k)), in O(n).

    With (xs, ys) this is the column scale a_j of the inverse, with (ys, xs)
    the row scale b_i; ``one`` and ``inv`` pick the arithmetic, so the float
    canary evaluates the same formula.
    """
    num = den = one
    for k in range(len(us)):
        num = num * (us[j] + vs[k])
        if k != j:
            den = den * (us[j] - us[k])
    return num * inv(den)


def inverse_entry_closed(spec: CauchySpec, i: int, j: int) -> Scalar:
    """Single entry of the inverse, directly from the parameters in O(n):

        inv[i, j] = b_i * a_j / (x_j + y_i)
                  = prod_k (x_j + y_k)(x_k + y_i)
                    / ( (x_j + y_i) * prod_{k != j} (x_j - x_k)
                                    * prod_{k != i} (y_i - y_k) ).

    The numerator's (x_j + y_k) factor is the one confirmed against the
    Gauss-Jordan oracle inverse; see the formula-resolution test.
    """
    _require_invertible(spec)
    n = spec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for n={n}")
    ctx, xs, ys = spec.ctx, spec.xs, spec.ys
    a_j = _scale(xs, ys, j, ctx.one, ctx.inv)
    b_i = _scale(ys, xs, i, ctx.one, ctx.inv)
    return b_i * a_j * ctx.inv(xs[j] + ys[i])


def inverse_closed(spec: CauchySpec) -> Matrix:
    """Whole inverse in O(n^2) scalar operations (plus bignum growth):
    diag(b) * C^T * diag(a), so each entry costs two multiplications and
    one pairwise-sum inverse (all n^2 from one ``ctx.inv_all`` call)."""
    _require_invertible(spec)
    ctx, xs, ys, n = spec.ctx, spec.xs, spec.ys, spec.n
    a = [_scale(xs, ys, j, ctx.one, ctx.inv) for j in range(n)]
    b = [_scale(ys, xs, i, ctx.one, ctx.inv) for i in range(n)]
    entries = ctx.inv_all(x + y for y in ys for x in xs)  # scaled in place
    for k, inv_sum in enumerate(entries):
        entries[k] = b[k // n] * a[k % n] * inv_sum
    return Matrix(n, n, entries, ctx)


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


def bordered_matrix(spec: CauchySpec) -> Matrix:
    """The (n+1) x (n+1) extension: a ones row at the bottom, a ones column
    at the right, and 0 in the corner."""
    return border_with_ones(build(spec))


def bordered_det_closed(spec: CauchySpec) -> Scalar:
    """Determinant of the ones-bordered matrix: -(sum(x) + sum(y)) * det."""
    return -(spec.weight_sum() * det_closed(spec))
