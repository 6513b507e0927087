"""Seeded inputs for the benchmark workloads (stdlib only).

Every workload gets a fixed list of operations (``OPS_PER_ROUND``, or
``SUITE_OPS_PER_ROUND`` for ``suite``), generated
from ``random.Random(f"{workload}:{seed}")``, and every round of a run
replays the same list in the same order. The program only ever sees the
generated values: Fractions, ints, or the argument list of a CLI call.

The sizes are fixed and only the values depend on the seed, so two seeds
ask for the same amount of work:

* ``closed-q``: n ladder ``Q_LADDER``, ``OPS_PER_ROUND // len(Q_LADDER)``
  operations per rung. Each operation carries one rational Cauchy spec and
  one min spec of the same n; every ``MIN_SINGULAR_EVERY``-th min spec of a
  rung is singular.
* ``closed-fp``: n ladder ``FP_LADDER`` over F_p with p = 2^31 - 1.
* ``suite``: ``cauchykit verify --seed S --trials SUITE_TRIALS --n 8``
  followed by ``cauchykit canary``. The verify seeds S are drawn from the
  benchmark seed and kept only when the suite's first size draw, which is
  the first ``randint(1, 8)`` of ``random.Random(S)``, is
  ``SUITE_FIRST_N``. Every operation therefore verifies one rational trial
  at n = 7 and one F_101 trial of random size. Unfiltered seeds make the
  cost of a round swing by a tenth between benchmark seeds. The random
  sizes inside a verify run still make one operation's work vary by about
  a quarter, so a round holds ``SUITE_OPS_PER_ROUND`` of them: over ten
  benchmark seeds the spread (IQR / median) of a round's ``det_fast``
  count is 8 % with 40 operations and 5 % with 80.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

OPS_PER_ROUND = 40
Q_LADDER = (16, 18, 20, 22, 24)
FP_LADDER = (32, 40, 48, 56, 64)
P31 = 2**31 - 1
MIN_SINGULAR_EVERY = 4
SUITE_OPS_PER_ROUND = 80
SUITE_TRIALS = 2
SUITE_N = 8
SUITE_FIRST_N = 7

# Rational operands are a/b with |a| <= NUM_MAX and 1 <= b <= DEN_MAX.
NUM_MAX = 500
DEN_MAX = 24


@dataclass(frozen=True)
class CauchyInput:
    xs: tuple
    ys: tuple


@dataclass(frozen=True)
class MinInput:
    xs: tuple
    ys: tuple


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-NUM_MAX, NUM_MAX), rng.randint(1, DEN_MAX))


def _distinct(rng: random.Random, n: int, draw, banned=()) -> tuple:
    """n values drawn without replacement, skipping anything in ``banned``."""
    seen = set(banned)
    out = []
    while len(out) < n:
        v = draw(rng)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def cauchy_input(rng: random.Random, n: int, p: int | None) -> CauchyInput:
    """Distinct xs and distinct ys (so the matrix is invertible); a y is
    redrawn only when it would make some pair sum x_i + y vanish."""
    if p is None:
        xs = _distinct(rng, n, _rational)
        ys = _distinct(rng, n, _rational, banned={-x for x in xs})
    else:
        draw = lambda r: r.randrange(p)  # noqa: E731
        xs = _distinct(rng, n, draw)
        ys = _distinct(rng, n, draw, banned={-x % p for x in xs})
    return CauchyInput(xs, ys)


def min_input(rng: random.Random, n: int, singular: bool) -> MinInput:
    """2n distinct nonzero rationals, sorted and dealt alternately to x and y.

    The interleaving x0 < y0 < x1 < y1 < ... makes every factor of the
    closed-form determinant nonzero. A singular spec deals two neighbours
    the other way round, so x_{k-1} < x_k < y_{k-1} and the k-th factor
    vanishes. The vectors are shuffled and their roles swapped at random,
    so ``normalize`` has sorting and swapping to do.
    """
    vals = sorted(_distinct(rng, 2 * n, _rational, banned={Fraction(0)}))
    xs, ys = vals[0::2], vals[1::2]
    if singular:
        k = rng.randint(1, n - 1)
        xs[k], ys[k - 1] = ys[k - 1], xs[k]
    rng.shuffle(xs)
    rng.shuffle(ys)
    if rng.random() < 0.5:
        xs, ys = ys, xs
    return MinInput(tuple(xs), tuple(ys))


def _ladder(rng: random.Random, ladder: tuple, make) -> list:
    per_rung = OPS_PER_ROUND // len(ladder)
    ops = [make(n, k) for n in ladder for k in range(per_rung)]
    rng.shuffle(ops)
    return ops


def closed_q(seed: int) -> list[tuple[CauchyInput, MinInput]]:
    rng = random.Random(f"closed-q:{seed}")
    return _ladder(
        rng,
        Q_LADDER,
        lambda n, k: (
            cauchy_input(rng, n, None),
            min_input(rng, n, singular=k % MIN_SINGULAR_EVERY == MIN_SINGULAR_EVERY - 1),
        ),
    )


def closed_fp(seed: int) -> list[CauchyInput]:
    rng = random.Random(f"closed-fp:{seed}")
    return _ladder(rng, FP_LADDER, lambda n, k: cauchy_input(rng, n, P31))


def suite(seed: int) -> list[int]:
    """The verify seeds, one per operation."""
    rng = random.Random(f"suite:{seed}")
    seeds: list[int] = []
    while len(seeds) < SUITE_OPS_PER_ROUND:
        s = rng.randrange(2**31)
        if s not in seeds and random.Random(s).randint(1, SUITE_N) == SUITE_FIRST_N:
            seeds.append(s)
    return seeds


GENERATORS = {"suite": suite, "closed-q": closed_q, "closed-fp": closed_fp}
