"""The closed forms' scalar bookkeeping on integer pairs, held against plain
Fraction and FpElement arithmetic on a few hundred seeded specs: the pair-sum
check at construction, the invertibility verdict, the weight sum, and the
min-matrix sort, order check and determinant factors.

The draws repeat values (so pair sums vanish and parameters tie), mix signs,
use large coprime denominators, and put rationals closer together than a
float can tell apart, so the sort key's last entry has ties to break."""

import math
import random
from fractions import Fraction as Q

import pytest

from cauchykit import minmat
from cauchykit.cauchy import CauchySpec, NonInvertiblePairSumError, is_invertible_spec
from cauchykit.minmat import MinSpec, SortedMinSpec, UnsortedInputError
from cauchykit.ring import PrimeField, RationalRing

RING = RationalRing()
FIELDS = (PrimeField(2), PrimeField(3), PrimeField(2**31 - 1))
COPRIME = (999_983, 1_000_003, 10**9 + 7, 2**61 - 1)
SPECS = 300


def rational(rng):
    kind = rng.randrange(4)
    if kind == 0:  # a small pool: ties, negations, zero
        return Q(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == 1:
        return Q(rng.randint(-10**12, 10**12), rng.choice(COPRIME))
    if kind == 2:  # within 10^-40 of an integer: the floats of the remainders tie
        return rng.randint(-5, 5) + Q(rng.randint(-3, 3), 10**40 + rng.randint(0, 2))
    return Q(rng.randint(-60, 60), rng.randint(1, 60))


def residue(rng, p):
    return rng.choice((rng.randrange(p), rng.randint(-3, 3), p - 1))


def draws(rng, n, draw):
    pool = [draw(rng) for _ in range(rng.randint(1, 2 * n))]
    return [rng.choice(pool) for _ in range(n)]


def cauchy_cases(seed):
    rng = random.Random(seed)
    for k in range(SPECS):
        ctx = RING if k % 2 else FIELDS[k // 2 % 3]
        n = rng.randint(1, 9)
        draw = rational if ctx is RING else lambda r: residue(r, ctx.p)
        yield ctx, draws(rng, n, draw), draws(rng, n, draw)


def first_vanishing_sum(xs, ys):
    return next(((i, j) for i, x in enumerate(xs) for j, y in enumerate(ys) if x + y == 0), None)


def first_repeat(xs, ys):
    return next(((name, i, j) for name, vec in (("x", xs), ("y", ys))
                 for i in range(len(vec)) for j in range(i + 1, len(vec)) if vec[i] == vec[j]),
                None)


@pytest.mark.parametrize("seed", (1, 2))
def test_cauchy_spec_bookkeeping_matches_plain_scalars(seed):
    built = {"raised": 0, "singular": 0, "invertible": 0}
    for ctx, raw_xs, raw_ys in cauchy_cases(seed):
        xs, ys = [ctx.coerce(x) for x in raw_xs], [ctx.coerce(y) for y in raw_ys]
        bad = first_vanishing_sum(xs, ys)
        if bad is not None:
            with pytest.raises(NonInvertiblePairSumError) as err:
                CauchySpec(raw_xs, raw_ys, ctx)
            assert (err.value.i, err.value.j) == bad
            built["raised"] += 1
            continue
        spec = CauchySpec(raw_xs, raw_ys, ctx)
        witness = first_repeat(xs, ys)
        verdict = is_invertible_spec(spec)
        assert (verdict.invertible, verdict.witness) == (witness is None, witness)
        built["invertible" if witness is None else "singular"] += 1
        weight = spec.weight_sum()
        assert weight == sum(xs + ys, ctx.zero) and type(weight) is type(ctx.zero)
    assert min(built.values()) >= 30, built


def min_cases(seed):
    rng = random.Random(seed)
    for k in range(SPECS):
        n = rng.randint(1, 9)
        xs, ys = draws(rng, n, rational), draws(rng, n, rational)
        if k % 3:  # sorted, then one entry moved up or down, or not
            xs, ys = sorted(xs), sorted(ys)
            vec = rng.choice((xs, ys))
            if rng.random() < 0.5:
                vec[rng.randrange(n)] += rng.choice((-1, 1)) * rational(rng)
        yield xs, ys


def plain_factors(xs, ys):
    return [min(xs[0], ys[0])] + [
        min(xs[k], ys[k]) - min(xs[k], ys[k - 1]) - min(xs[k - 1], ys[k]) + min(xs[k - 1], ys[k - 1])
        for k in range(1, len(xs))]


def first_descent(xs, ys, cross):
    for name, vec in (("x", xs), ("y", ys)):
        for k in range(1, len(vec)):
            if vec[k - 1] > vec[k]:
                return f"{name} vector is not ascending at position {k}"
    if cross and xs[0] > ys[0]:
        return f"{cross} x[0] <= y[0]; use normalize()"
    return None


def expect(message, fn, *args):
    if message is None:
        return fn(*args)
    with pytest.raises(UnsortedInputError) as err:
        fn(*args)
    assert str(err.value) == message
    return None


@pytest.mark.parametrize("seed", (1, 2))
def test_min_spec_order_and_factors_match_plain_fractions(seed):
    seen = {"unsorted": 0, "uncrossed": 0, "sorted": 0, "singular": 0, "nonsingular": 0,
            "float ties": 0}
    for xs, ys in min_cases(seed):
        spec = MinSpec(xs, ys)
        s = minmat.normalize(spec)
        sx, sy = sorted(spec.xs), sorted(spec.ys)
        swapped = sx[0] > sy[0]
        if swapped:
            sx, sy = sy, sx
        assert (list(s.xs), list(s.ys), s.swapped) == (sx, sy, swapped)
        seen["float ties"] += len({float(v) for v in sx + sy}) < len(set(sx + sy))
        det = math.prod(plain_factors(sx, sy), start=Q(1))
        assert minmat.det_closed(s) == det
        assert minmat.det_zero_predicate(s) == any(f == 0 for f in plain_factors(sx, sy))
        seen["singular" if det == 0 else "nonsingular"] += 1

        plain, crossed = first_descent(xs, ys, ""), first_descent(xs, ys, "sorted spec needs")
        seen["unsorted" if plain else "uncrossed" if crossed else "sorted"] += 1
        det = expect(plain, minmat.det_closed, spec)
        if det is not None:
            assert det == math.prod(plain_factors(spec.xs, spec.ys), start=Q(1))
            assert minmat.det_zero_predicate(spec) == (det == 0)
        expect(crossed, SortedMinSpec, xs, ys)
        if crossed and not plain:
            expect(first_descent(xs, ys, "column sums need"), minmat.inverse_column_sums, spec)
    assert min(seen.values()) >= 15, seen
