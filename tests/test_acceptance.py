"""Acceptance suite: every shipped identity at full corpus size.

Each test covers one numbered criterion, runs it at its stated count and
tolerance (exact equality unless a float tolerance is spelled out), and
prints one `[acceptance]` pass/fail line. Corpora are seeded and cached at
module level so the expensive oracle inversions happen once per run.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from cauchykit import cauchy, minmat
from cauchykit.canary import hilbert_spec, run_canary
from cauchykit.densela import border_with_ones, lemma_ab_check
from cauchykit.ring import PrimeField, RationalRing
from cauchykit.verify import (
    force_repeated_value,
    random_cauchy_spec,
    random_matrix,
    random_min_spec,
    random_weights,
)

RING = RationalRing()
F101 = PrimeField(101)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {num:>2} {name}: FAIL")
                raise
            print(f"[acceptance] criterion {num:>2} {name}: PASS")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=None)
def valid_specs():
    """1000 rational + 200 F101 valid specs, n in 1..6, repeats allowed."""
    rng = random.Random(1001)
    rational = [
        random_cauchy_spec(rng, RING, rng.randint(1, 6), strongly_distinct=False)
        for _ in range(1000)
    ]
    modular = [
        random_cauchy_spec(rng, F101, rng.randint(1, 6), strongly_distinct=False)
        for _ in range(200)
    ]
    return rational, modular


@functools.lru_cache(maxsize=None)
def inverse_results():
    """(spec, closed inverse, oracle inverse) for 1000 invertible specs."""
    rng = random.Random(1003)
    out = []
    for k in range(1000):
        ctx = RING if k < 700 else F101
        spec = random_cauchy_spec(rng, ctx, rng.randint(1, 6))
        out.append((spec, cauchy.inverse_closed(spec), cauchy.build(spec).inverse()))
    return out


@functools.lru_cache(maxsize=None)
def singular_heavy_specs():
    """1000 specs, 400 of them forced singular, alternating rings."""
    rng = random.Random(1004)
    out = []
    for k in range(600):
        ctx = (RING, F101)[k % 2]
        out.append(random_cauchy_spec(rng, ctx, rng.randint(1, 6), strongly_distinct=False))
    for k in range(400):
        ctx = (RING, F101)[k % 2]
        spec = random_cauchy_spec(rng, ctx, rng.randint(2, 6))
        out.append(force_repeated_value(rng, spec))
    return out


@functools.lru_cache(maxsize=None)
def min_corpus():
    """1000 rational min specs with each vector sorted ascending, n in 1..6."""
    rng = random.Random(1008)
    out = []
    for _ in range(1000):
        raw = random_min_spec(rng, rng.randint(1, 6))
        out.append((raw, minmat.MinSpec(sorted(raw.xs), sorted(raw.ys))))
    return out


@criterion(1, "cauchy-det closed form = elimination oracle")
def test_criterion_1_det_closed():
    rational, modular = valid_specs()
    assert len(rational) >= 1000 and len(modular) >= 200
    for spec in rational + modular:
        assert cauchy.det_closed(spec) == cauchy.build(spec).det_fast()


@criterion(2, "inverse entry sum = sum(x) + sum(y), closed and oracle")
def test_criterion_2_inverse_entry_sum():
    results = inverse_results()
    assert len(results) >= 1000
    for spec, closed_inv, oracle_inv in results:
        expected = spec.weight_sum()
        assert closed_inv.entry_sum() == expected
        assert oracle_inv.entry_sum() == expected
        assert cauchy.inverse_entry_sum(spec) == expected
    # sanity anchor
    anchor = cauchy.CauchySpec([1, 2], [3, 5], RING)
    assert cauchy.inverse_entry_sum(anchor) == 11


@criterion(3, "closed-form inverse = Gauss-Jordan inverse, entrywise")
def test_criterion_3_inverse_entrywise():
    for spec, closed_inv, oracle_inv in inverse_results():
        assert closed_inv == oracle_inv


@criterion(4, "adjugate entry sum = (sum(x) + sum(y)) * det, singular included")
def test_criterion_4_adjugate_entry_sum():
    specs = singular_heavy_specs()
    assert len(specs) >= 1000
    singular_seen = 0
    for spec in specs:
        if not cauchy.is_invertible_spec(spec).invertible:
            singular_seen += 1
        assert cauchy.adjugate_entry_sum_closed(spec) == cauchy.build(spec).adjugate().entry_sum()
    assert singular_seen >= 400


@criterion(5, "bordered det = -(sum(x) + sum(y)) * det, and det(B) = -adj sum")
def test_criterion_5_bordered():
    rng = random.Random(1005)
    for k in range(500):
        ctx = (RING, F101)[k % 2]
        spec = random_cauchy_spec(rng, ctx, rng.randint(1, 6), strongly_distinct=False)
        assert cauchy.bordered_det_closed(spec) == border_with_ones(cauchy.build(spec)).det_fast()
    # the same border construction on arbitrary square matrices
    for k in range(500):
        ctx = (RING, F101)[k % 2]
        n = rng.randint(1, 5)
        a = random_matrix(rng, ctx, n, n)
        assert border_with_ones(a).det_fast() == -a.adjugate_entry_sum()


@criterion(6, "weighted trace identity on rectangular A, B")
def test_criterion_6_lemma_ab():
    rng = random.Random(1007)
    rectangular = 0
    for k in range(1000):
        ctx = (RING, F101)[k % 2]
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        if n != m:
            rectangular += 1
        a = random_matrix(rng, ctx, n, m)
        b = random_matrix(rng, ctx, m, n)
        lhs, rhs = lemma_ab_check(a, b, random_weights(rng, ctx, n, m))
        assert lhs == rhs
    assert rectangular >= 500


@criterion(7, "min-matrix det, inverse entry sum, and column sums")
def test_criterion_7_min_matrix():
    corpus = min_corpus()
    assert len(corpus) >= 1000
    invertible_seen = 0
    for raw, sorted_each in corpus:
        assert minmat.det_closed(sorted_each) == minmat.build(sorted_each).det_fast()
        if minmat.build(sorted_each).det_fast() == 0:
            continue
        invertible_seen += 1
        normalized = minmat.normalize(raw)
        inv = minmat.build(normalized).inverse()
        overall_min = min(min(raw.xs), min(raw.ys))
        assert overall_min != 0
        assert inv.entry_sum() == 1 / overall_min
        assert minmat.inverse_entry_sum(raw) == 1 / overall_min
        col_sums = tuple(inv.column_sum(j) for j in range(normalized.n))
        assert col_sums == minmat.inverse_column_sums(normalized)
        assert col_sums[0] == 1 / normalized.xs[0]
        assert all(c == 0 for c in col_sums[1:])
    assert invertible_seen >= 100
    # pinned n = 2 anchor
    anchor = minmat.MinSpec([1, 3], [2, 4])
    assert minmat.det_closed(anchor) == 1
    assert minmat.build(anchor).inverse().entry_sum() == 1


@criterion(8, "strong-distinctness verdict agrees with det invertibility")
def test_criterion_8_invertibility_criterion():
    rational, modular = valid_specs()
    assert len(rational) + len(modular) >= 1000
    for spec in rational + modular:
        verdict = cauchy.is_invertible_spec(spec)
        assert verdict.invertible == spec.ctx.is_invertible(cauchy.det_closed(spec))


@criterion(9, "float canary: benign at n=3, blows up by n=12, under 5 s")
def test_criterion_9_canary():
    start = time.perf_counter()
    table = {n: run_canary(hilbert_spec(n)) for n in (3, 6, 9, 12)}
    elapsed = time.perf_counter() - start

    print("\n  n  method        entry_sum_residual   identity_residual")
    for n, (closed, gauss) in table.items():
        for rep in (closed, gauss):
            print(f"  {n:>2} {rep.method:<12} {rep.entry_sum_residual:>18.6e} {rep.identity_residual:>18.6e}")

    closed3, gauss3 = table[3]
    assert closed3.entry_sum_residual < 1e-10
    assert gauss3.entry_sum_residual < 1e-10
    # growth of the generic method by at least three orders of magnitude;
    # float outcomes are platform-sensitive, so this stays a coarse check
    assert table[12][1].entry_sum_residual >= 1e3 * max(gauss3.entry_sum_residual, 1e-16)
    # soft ordering at n = 12: the closed form should not be the worse one
    # (4x slack documented; no exact claim exists for float behavior)
    assert table[12][0].entry_sum_residual <= 4 * table[12][1].entry_sum_residual
    assert elapsed < 5.0


@criterion(10, "verify --seed 42 is byte-identical across runs")
def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "cauchykit.cli", "verify", "--seed", "42", "--trials", "12", "--n", "5"]
    src = str(Path(cauchy.__file__).resolve().parents[1])  # the subprocess imports this same tree
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


@criterion(11, "closed-form inverse = elimination inverse at n = 16..32")
def test_criterion_11_inverse_large_n():
    p31 = PrimeField(2**31 - 1)
    specs = [hilbert_spec(n) for n in (16, 24, 32)]
    specs.append(cauchy.CauchySpec(range(1, 33), range(33, 65), p31))
    for spec in specs:
        assert cauchy.inverse_closed(spec) == cauchy.build(spec).inverse()


@criterion(12, "Berkowitz determinant = elimination determinant, n up to 24, singular included")
def test_criterion_12_berkowitz_det():
    p31 = PrimeField(2**31 - 1)
    specs = [hilbert_spec(16), hilbert_spec(24), cauchy.CauchySpec(range(1, 25), range(25, 49), p31)]
    # 48 distinct prime denominators at n = 24, invertible and with a repeated x
    primes = [q for q in range(2, 230) if all(q % d for d in range(2, q))][:48]
    xs, ys = [Fraction(i + 1, q) for i, q in enumerate(primes[:24])], [Fraction(1, q) for q in primes[24:]]
    specs += [cauchy.CauchySpec(xs, ys, RING), cauchy.CauchySpec([xs[0]] + xs[:-1], ys, RING)]
    for spec in specs + singular_heavy_specs():
        m = cauchy.build(spec)
        assert m.det_berkowitz() == m.det_fast()
