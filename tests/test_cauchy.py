import contextlib
import gc
import hashlib
import io
import json
import math
import random
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction as Q

import pytest

from cauchykit import cauchy, cli
from cauchykit.canary import hilbert_spec
from cauchykit.cauchy import (
    CauchySpec,
    NonInvertiblePairSumError,
    adjugate_entry_sum_closed,
    bordered_det_closed,
    build,
    det_closed,
    inverse_closed,
    inverse_entry_closed,
    inverse_entry_sum,
    is_invertible_spec,
)
from cauchykit.densela import Matrix, border_with_ones
from cauchykit.ring import FpElement, NotInvertibleError, PrimeField, RationalRing
from cauchykit.verify import spec_to_json

RING = RationalRing()
F101 = PrimeField(101)
RINGS = (RING, F101)


def rand_scalar(rng, ctx):
    if ctx is RING:
        return Q(rng.randint(-9, 9), rng.randint(1, 9))
    return ctx.coerce(rng.randrange(ctx.p))


def rand_spec(rng, ctx, n, invertible=False):
    while True:
        xs = [rand_scalar(rng, ctx) for _ in range(n)]
        ys = [rand_scalar(rng, ctx) for _ in range(n)]
        try:
            spec = CauchySpec(xs, ys, ctx)
        except NonInvertiblePairSumError:
            continue
        if invertible and not is_invertible_spec(spec).invertible:
            continue
        return spec


EXAMPLE = CauchySpec([1, 2], [3, 5], RING)


class TestBuild:
    def test_example(self):
        assert build(EXAMPLE).to_rows() == [[Q(1, 4), Q(1, 6)], [Q(1, 5), Q(1, 7)]]

    def test_single(self):
        spec = CauchySpec([Q(2, 3)], [Q(1, 3)], RING)
        assert build(spec).to_rows() == [[1]]

    def test_zero_pair_sum_rejected(self):
        with pytest.raises(NonInvertiblePairSumError) as exc_info:
            CauchySpec([1], [-1], RING)
        assert (exc_info.value.i, exc_info.value.j) == (0, 0)

    def test_zero_pair_sum_mod_p(self):
        with pytest.raises(NonInvertiblePairSumError):
            CauchySpec([100], [1], F101)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CauchySpec([1, 2], [3], RING)

    @pytest.mark.parametrize("xs, ys, ctx", (([1, "1/0"], [3], RING), ([1], [3, "x"], F101)))
    def test_lengths_are_compared_before_any_scalar(self, xs, ys, ctx):
        # the extra entry cannot be coerced, and is never read
        with pytest.raises(ValueError, match=f"^xs has {len(xs)} entries but ys has {len(ys)}$"):
            CauchySpec(xs, ys, ctx)

    def test_any_iterable_of_parameters(self):
        spec = CauchySpec(range(1, 3), (y for y in (3, 5)), RING)
        assert (spec.xs, spec.ys) == ((1, 2), (3, 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CauchySpec([], [], RING)

    def test_repr(self):
        assert repr(CauchySpec([Q(1, 2), -3], [2, 5], RING)) == "CauchySpec(xs=[1/2, -3], ys=[2, 5])"
        assert repr(CauchySpec([3, 105], [7, -1], F101)) == "CauchySpec(xs=[3, 4], ys=[7, 100])"


class TestDetClosed:
    def test_example(self):
        assert det_closed(EXAMPLE) == Q(1, 420)
        assert build(EXAMPLE).det_fast() == Q(1, 28) - Q(1, 30)

    def test_single(self):
        spec = CauchySpec([Q(3)], [Q(4)], RING)
        assert det_closed(spec) == Q(1, 7)

    def test_repeated_x_gives_zero(self):
        spec = CauchySpec([1, 1], [3, 5], RING)
        assert det_closed(spec) == 0

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_matches_oracle(self, ctx):
        rng = random.Random(61)
        for _ in range(60):
            spec = rand_spec(rng, ctx, rng.randint(1, 6))
            assert det_closed(spec) == build(spec).det_fast()

    def test_swap_symmetry(self):
        rng = random.Random(67)
        for _ in range(20):
            spec = rand_spec(rng, RING, rng.randint(1, 5))
            swapped = CauchySpec(spec.ys, spec.xs, RING)
            assert det_closed(swapped) == det_closed(spec)
            assert build(swapped) == build(spec).transpose()


class TestInvertibilityCriterion:
    def test_distinct_is_invertible(self):
        verdict = is_invertible_spec(EXAMPLE)
        assert verdict.invertible
        assert verdict.witness is None

    def test_repeated_x_with_witness(self):
        verdict = is_invertible_spec(CauchySpec([1, 1], [3, 5], RING))
        assert not verdict.invertible
        assert verdict.witness == ("x", 0, 1)

    def test_difference_vanishing_mod_p(self):
        f5 = PrimeField(5)
        verdict = is_invertible_spec(CauchySpec([1, 6], [1, 2], f5))
        assert not verdict.invertible
        assert verdict.witness == ("x", 0, 1)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_agrees_with_det(self, ctx):
        rng = random.Random(71)
        for _ in range(80):
            spec = rand_spec(rng, ctx, rng.randint(1, 5))
            assert is_invertible_spec(spec).invertible == ctx.is_invertible(det_closed(spec))


def candidate_mixed(spec, i, j):
    # numerator prod_k (x_j + y_k)(x_k + y_i): the form the library uses
    ctx = spec.ctx
    num = ctx.one
    for k in range(spec.n):
        num = num * (spec.xs[j] + spec.ys[k]) * (spec.xs[k] + spec.ys[i])
    den = spec.xs[j] + spec.ys[i]
    for k in range(spec.n):
        if k != j:
            den = den * (spec.xs[j] - spec.xs[k])
        if k != i:
            den = den * (spec.ys[i] - spec.ys[k])
    return num * ctx.inv(den)


def candidate_xx(spec, i, j):
    # rival numerator prod_k (x_j + x_k)(x_k + y_i), rejected by the oracle
    ctx = spec.ctx
    num = ctx.one
    for k in range(spec.n):
        num = num * (spec.xs[j] + spec.xs[k]) * (spec.xs[k] + spec.ys[i])
    den = spec.xs[j] + spec.ys[i]
    for k in range(spec.n):
        if k != j:
            den = den * (spec.xs[j] - spec.xs[k])
        if k != i:
            den = den * (spec.ys[i] - spec.ys[k])
    return num * ctx.inv(den)


class TestInverseEntryFormulaResolution:
    """The per-entry closed form has two circulating variants differing in
    one numerator factor. Resolve them against the Gauss-Jordan oracle
    inverse before trusting anything."""

    def test_mixed_form_matches_oracle(self):
        rng = random.Random(73)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                spec = rand_spec(rng, RING, n, invertible=True)
                oracle = build(spec).inverse()
                for i in range(n):
                    for j in range(n):
                        assert candidate_mixed(spec, i, j) == oracle.entry(i, j)

    def test_xx_form_rejected_by_oracle(self):
        oracle = build(EXAMPLE).inverse()
        assert candidate_xx(EXAMPLE, 0, 0) != oracle.entry(0, 0)
        assert candidate_xx(EXAMPLE, 0, 0) == 15  # what the rival form yields here

    def test_library_uses_the_confirmed_form(self):
        rng = random.Random(79)
        for _ in range(10):
            spec = rand_spec(rng, RING, rng.randint(1, 4), invertible=True)
            for i in range(spec.n):
                for j in range(spec.n):
                    assert inverse_entry_closed(spec, i, j) == candidate_mixed(spec, i, j)


class TestInverseClosed:
    def test_entry_example(self):
        assert inverse_entry_closed(EXAMPLE, 0, 0) == 60

    def test_entry_single(self):
        spec = CauchySpec([Q(3, 2)], [Q(1, 2)], RING)
        assert inverse_entry_closed(spec, 0, 0) == 2

    def test_entry_index_checked(self):
        with pytest.raises(IndexError):
            inverse_entry_closed(EXAMPLE, 0, 2)

    def test_entry_requires_invertible(self):
        with pytest.raises(NotInvertibleError):
            inverse_entry_closed(CauchySpec([1, 1], [3, 5], RING), 0, 0)

    def test_matrix_example(self):
        assert inverse_closed(EXAMPLE).to_rows() == [[60, -70], [-84, 105]]

    def test_matrix_single(self):
        spec = CauchySpec([Q(1, 2)], [Q(1, 3)], RING)
        assert inverse_closed(spec).to_rows() == [[Q(5, 6)]]

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_matches_oracle_entrywise(self, ctx):
        rng = random.Random(83)
        for _ in range(25):
            spec = rand_spec(rng, ctx, rng.randint(1, 5), invertible=True)
            oracle = build(spec).inverse()
            assert inverse_closed(spec) == oracle
            assert all(inverse_entry_closed(spec, i, j) == oracle.entry(i, j)
                       for i in range(spec.n) for j in range(spec.n))

    def test_assembled_matches_per_entry(self):
        rng = random.Random(89)
        spec = rand_spec(rng, RING, 5, invertible=True)
        full = inverse_closed(spec)
        for i in range(5):
            for j in range(5):
                assert full.entry(i, j) == inverse_entry_closed(spec, i, j)

    def test_singular_raises(self):
        with pytest.raises(NotInvertibleError):
            inverse_closed(CauchySpec([1, 1], [3, 5], RING))


class TestInverseEntrySum:
    def test_example(self):
        assert inverse_entry_sum(EXAMPLE) == 11
        assert build(EXAMPLE).inverse().entry_sum() == 11

    def test_single(self):
        spec = CauchySpec([Q(2)], [Q(5)], RING)
        assert inverse_entry_sum(spec) == 7

    def test_prime_field_matches_oracle(self):
        rng = random.Random(97)
        for _ in range(15):
            spec = rand_spec(rng, F101, 4, invertible=True)
            assert inverse_entry_sum(spec) == build(spec).inverse().entry_sum()

    def test_singular_raises(self):
        with pytest.raises(NotInvertibleError):
            inverse_entry_sum(CauchySpec([1, 1], [3, 5], RING))


class TestAdjugateEntrySum:
    def test_single_is_one(self):
        spec = CauchySpec([Q(-2, 3)], [Q(1)], RING)
        assert adjugate_entry_sum_closed(spec) == 1

    def test_singular_case(self):
        spec = CauchySpec([1, 1], [3, 5], RING)
        assert adjugate_entry_sum_closed(spec) == 0
        assert build(spec).adjugate().entry_sum() == 0

    def test_example(self):
        assert adjugate_entry_sum_closed(EXAMPLE) == Q(11, 420)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_matches_oracle(self, ctx):
        rng = random.Random(101)
        for _ in range(30):
            spec = rand_spec(rng, ctx, rng.randint(1, 5))
            assert adjugate_entry_sum_closed(spec) == build(spec).adjugate().entry_sum()


class TestBorderedDet:
    def test_shape_and_corner(self):
        d = border_with_ones(build(EXAMPLE))
        assert (d.rows, d.cols) == (3, 3)
        assert d.row(2) == (1, 1, 0)
        assert d.column(2) == (1, 1, 0)
        assert d.entry(2, 2) == 0
        assert d.entry(0, 0) == Q(1, 4)

    def test_single(self):
        spec = CauchySpec([Q(1)], [Q(2)], RING)
        assert border_with_ones(build(spec)).to_rows() == [[Q(1, 3), 1], [1, 0]]
        assert bordered_det_closed(spec) == -1
        assert border_with_ones(build(spec)).det_fast() == -1

    def test_example(self):
        assert bordered_det_closed(EXAMPLE) == Q(-11, 420)
        assert border_with_ones(build(EXAMPLE)).det_cofactor() == Q(-11, 420)

    def test_singular_gives_zero(self):
        assert bordered_det_closed(CauchySpec([1, 1], [3, 5], RING)) == 0

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_matches_oracle(self, ctx):
        rng = random.Random(103)
        for _ in range(30):
            spec = rand_spec(rng, ctx, rng.randint(1, 5))
            assert bordered_det_closed(spec) == border_with_ones(build(spec)).det_fast()


class TestPerSpecMemo:
    def count_field_inversions(self, monkeypatch):
        calls = []
        inv = PrimeField.inv

        def counting(self, a):
            calls.append(a)
            return inv(self, a)

        monkeypatch.setattr(PrimeField, "inv", counting)
        return calls

    def test_determinant_is_computed_once(self, monkeypatch):
        calls = self.count_field_inversions(monkeypatch)
        spec = CauchySpec([1, 2, 3], [4, 5, 6], F101)
        det = det_closed(spec)
        assert adjugate_entry_sum_closed(spec) == spec.weight_sum() * det
        assert bordered_det_closed(spec) == -(spec.weight_sum() * det)
        assert len(calls) == 1

    def test_nothing_leaks_across_specs(self, monkeypatch):
        self.count_field_inversions(monkeypatch)
        first = CauchySpec([1, 2, 3], [4, 5, 6], F101)
        second = CauchySpec([1, 2, 3], [4, 5, 7], F101)
        for spec in (first, second):
            det = build(spec).det_fast()
            assert det_closed(spec) == det
            assert adjugate_entry_sum_closed(spec) == spec.weight_sum() * det
            assert bordered_det_closed(spec) == -(spec.weight_sum() * det)
        assert det_closed(first) != det_closed(second)

    def test_singular_spec_raises_every_time(self):
        spec = CauchySpec([1, 1], [3, 5], RING)
        for _ in range(2):
            with pytest.raises(NotInvertibleError, match="strongly distinct"):
                inverse_closed(spec)
        assert not is_invertible_spec(spec).invertible

    def test_build_and_inverse_make_no_field_inversion(self, monkeypatch):
        calls = self.count_field_inversions(monkeypatch)
        spec = CauchySpec(range(1, 33), range(33, 65), PrimeField(2**31 - 1))
        build(spec)
        inverse_closed(spec)
        assert calls == []
        det_closed(spec)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "ctx, xs, ys, pair",
        ((F101, [3, 104], [1, 2], r"x\[0\] and x\[1\]"), (RING, [1, 2], [5, 5], r"y\[0\] and y\[1\]")),
        ids=("f101-x", "rational-y"),
    )
    def test_singular_spec_raises_on_every_inverse_call(self, ctx, xs, ys, pair):
        spec = CauchySpec(xs, ys, ctx)
        for _ in range(3):
            with pytest.raises(NotInvertibleError, match=pair):
                inverse_closed(spec)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_batch_inversion_keeps_entries(self, ctx):
        rng = random.Random(29)
        for _ in range(20):
            spec = rand_spec(rng, ctx, rng.randint(1, 6), invertible=True)
            n, xs, ys = spec.n, spec.xs, spec.ys
            assert build(spec).to_rows() == [[ctx.inv(xs[i] + ys[j]) for j in range(n)] for i in range(n)]
            inv = inverse_closed(spec)
            assert inv.to_rows() == [[inverse_entry_closed(spec, i, j) for j in range(n)] for i in range(n)]

    def count_keeps(self, monkeypatch):
        calls = []
        keep = cauchy._keep

        def counting(spec, *args):
            calls.append(spec)
            return keep(spec, *args)

        monkeypatch.setattr(cauchy, "_keep", counting)
        return calls

    @pytest.mark.parametrize("det_first", (True, False), ids=("det-first", "inverse-first"))
    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_products_are_kept_once(self, monkeypatch, ctx, det_first):
        calls = self.count_keeps(monkeypatch)
        spec = rand_spec(random.Random(31), ctx, 6, invertible=True)
        m = build(spec)
        for _ in range(2):
            for fn in (det_closed, inverse_closed) if det_first else (inverse_closed, det_closed):
                fn(spec)
        assert calls == [spec]
        assert det_closed(spec) == m.det_fast()
        assert inverse_closed(spec) == m.inverse()
        rows, ux, uy = spec._kept  # O(n) integers, nothing n^2-sized
        assert [len(v) for v in (rows, ux, uy)] == [6, 6, 6]
        assert all(type(v) is int for v in rows + ux + uy)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_kept_products_do_not_leak_across_specs(self, ctx):
        for det_first in (True, False):
            first = CauchySpec([1, 2, 3], [4, 5, 6], ctx)
            second = CauchySpec([1, 2, 3], [4, 5, 7], ctx)
            for spec in (first, second):
                m = build(spec)
                if det_first:
                    assert det_closed(spec) == m.det_fast()
                assert inverse_closed(spec) == m.inverse()
                assert det_closed(spec) == m.det_fast()
            assert first._kept != second._kept
            assert inverse_closed(first) != inverse_closed(second)

    @pytest.mark.parametrize("det_first", (True, False), ids=("det-first", "inverse-first"))
    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_singular_spec_in_either_order(self, ctx, det_first):
        spec = CauchySpec([1, 2, 1], [4, 5, 6], ctx)
        if det_first:
            assert det_closed(spec) == 0
        with pytest.raises(NotInvertibleError, match=r"x\[0\] and x\[2\]"):
            inverse_closed(spec)
        assert det_closed(spec) == 0
        with pytest.raises(NotInvertibleError, match=r"x\[0\] and x\[2\]"):
            inverse_closed(spec)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_single_entries_keep_nothing(self, ctx):
        spec = rand_spec(random.Random(37), ctx, 5, invertible=True)
        oracle = build(spec).inverse()
        assert all(inverse_entry_closed(spec, i, j) == oracle.entry(i, j)
                   for i in range(5) for j in range(5))
        assert spec._kept is None

    def test_threads_racing_on_first_use_agree(self):
        ctx = PrimeField(2**31 - 1)
        vals = random.Random(41).sample(range(1, 2**30), 48)
        want = CauchySpec(vals[:24], vals[24:], ctx)
        want = (det_closed(want), inverse_closed(want))
        spec = CauchySpec(vals[:24], vals[24:], ctx)
        start = threading.Barrier(8)
        got = [None] * 8

        def work(k):
            held = build(spec) if k < 4 else None  # half race with a live matrix of their own
            start.wait()
            fns = (det_closed, inverse_closed) if k % 2 else (inverse_closed, det_closed)
            got[k] = {fn: fn(spec) for fn in fns}
            del held

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert all((g[det_closed], g[inverse_closed]) == want for g in got)

    def test_det_then_inverse_make_one_field_inversion(self, monkeypatch):
        calls = self.count_field_inversions(monkeypatch)
        spec = CauchySpec(range(1, 33), range(33, 65), PrimeField(2**31 - 1))
        det_closed(spec)
        assert len(calls) == 1
        inverse_closed(spec)
        assert len(calls) == 1

    @pytest.mark.parametrize("det_first", (True, False), ids=("det-first", "inverse-first"))
    @pytest.mark.parametrize("source", ("no-matrix", "live-matrix", "dropped-matrix"))
    @pytest.mark.parametrize("ctx", (F101, PrimeField(2**31 - 1)), ids=("f101", "p31"))
    def test_both_sources_match_the_oracle(self, ctx, source, det_first):
        rng = random.Random(43)
        for n in (1, 2, 5, 9):
            spec = rand_spec(rng, ctx, n, invertible=True)
            oracle = build(CauchySpec(spec.xs, spec.ys, ctx)).inverse()
            held = build(spec) if source != "no-matrix" else None
            if source == "dropped-matrix":
                ref = weakref.ref(held)
                del held
                gc.collect()
                assert ref() is None
            if det_first:
                det_closed(spec)
            assert inverse_closed(spec) == oracle
            assert inverse_closed(spec) == oracle  # again, with the products kept

    def test_live_matrix_and_kept_products_skip_the_pair_sums(self, monkeypatch):
        batches, sums = [], []
        inv_all, pair_sums = cauchy._inv_all_mod, cauchy._sums

        def counting_inv_all(vs, p):
            batches.append(len(vs))
            return inv_all(vs, p)

        def counting_sums(*args):
            sums.append(args)
            return pair_sums(*args)

        spec = rand_spec(random.Random(47), PrimeField(2**31 - 1), 16, invertible=True)
        m = build(spec)
        det_closed(spec)
        monkeypatch.setattr(cauchy, "_inv_all_mod", counting_inv_all)
        monkeypatch.setattr(cauchy, "_sums", counting_sums)
        inv = inverse_closed(spec)
        assert batches == [2 * 16]
        assert sums == []
        assert inv == m.inverse()

    def test_spec_keeps_no_strong_reference_to_its_matrix(self):
        ctx = PrimeField(2**31 - 1)
        spec = rand_spec(random.Random(53), ctx, 12, invertible=True)
        oracle = build(CauchySpec(spec.xs, spec.ys, ctx)).inverse()
        m = build(spec)
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None
        assert inverse_closed(spec) == oracle


class TestOnePassOverThePairSums:
    """Over F_p the grouped batch inversion yields the row products of the
    pair sums, and the spec keeps them: after build, det_closed and
    inverse_closed form no pair sums and multiply out no row."""

    P31 = PrimeField(2**31 - 1)

    def count(self, monkeypatch):
        """Count the pair-sum tables formed, the grouped sweeps run and the
        rows of a pair-sum table multiplied out one by one."""
        counts = {"sums": 0, "sweeps": 0, "row_prods": 0}
        rows = []  # every pair-sum row yielded, kept so that identity tells them apart
        pair_sums, sweep, prod = cauchy._sums, cauchy._inv_rows_mod, cauchy._prod

        def counting_sums(*args):
            counts["sums"] += 1
            for row in pair_sums(*args):
                rows.append(row)
                yield row

        def counting_sweep(rows, p):
            counts["sweeps"] += 1
            return sweep(rows, p)

        def counting_prod(vs, p):
            counts["row_prods"] += any(vs is row for row in rows)
            return prod(vs, p)

        monkeypatch.setattr(cauchy, "_sums", counting_sums)
        monkeypatch.setattr(cauchy, "_inv_rows_mod", counting_sweep)
        monkeypatch.setattr(cauchy, "_prod", counting_prod)
        return counts

    # steps, then (pair-sum tables, grouped sweeps, rows multiplied out)
    ORDERS = {
        "build-det-inverse": (("build", "det", "inverse"), (1, 1, 0)),
        "build-inverse-det": (("build", "inverse", "det"), (1, 1, 0)),
        "det-first": (("det", "build", "inverse"), (2, 1, 16)),
        "inverse-first": (("inverse", "build", "det"), (2, 2, 0)),
        "dropped-matrix": (("build", "drop", "det", "inverse"), (2, 2, 0)),
    }

    @pytest.mark.parametrize("order", ORDERS)
    def test_each_order_forms_what_it_needs_once(self, monkeypatch, order):
        steps, want = self.ORDERS[order]
        spec = rand_spec(random.Random(59), self.P31, 16, invertible=True)
        oracle = build(CauchySpec(spec.xs, spec.ys, self.P31))
        det, inv = oracle.det_fast(), oracle.inverse()
        counts = self.count(monkeypatch)
        held, got = None, {}
        for step in steps:
            if step == "build":
                held = build(spec)
            elif step == "drop":
                ref = weakref.ref(held)
                del held
                gc.collect()
                assert ref() is None
            elif step == "det":
                got["det"] = det_closed(spec)
            else:
                got["inverse"] = inverse_closed(spec)
        assert (counts["sums"], counts["sweeps"], counts["row_prods"]) == want
        assert got == {"det": det, "inverse": inv}
        assert spec._rows == spec._kept[0] and len(spec._rows) == 16

    def test_battery_forms_the_pair_sums_and_row_products_once(self, monkeypatch):
        counts = self.count(monkeypatch)
        spec = rand_spec(random.Random(61), self.P31, 24, invertible=True)
        m = build(spec)
        det_closed(spec)
        inverse_closed(spec)
        assert counts["sums"] == 1
        assert counts["sweeps"] + counts["row_prods"] // spec.n == 1
        assert det_closed(spec) == m.det_fast()
        assert inverse_closed(spec) == m.inverse()

    def test_rational_spec_keeps_no_row_slot(self):
        spec = rand_spec(random.Random(67), RING, 6, invertible=True)
        m = build(spec)
        assert det_closed(spec) == m.det_fast()
        assert inverse_closed(spec) == m.inverse()
        assert spec._rows is None


class TestScalarFormsHoldOneRow:
    """Without a build, det_closed forms the pair sums one row at a time and
    keeps only the row products, so adjugate_entry_sum_closed and
    bordered_det_closed, which run on it, hold O(n) memory, not the n x n
    table."""

    def test_det_closed_peak_memory_stays_under_a_mebibyte_at_n_600(self):
        n = 600
        spec = CauchySpec(range(1, n + 1), range(n + 1, 2 * n + 1), PrimeField(2**61 - 1))
        tracemalloc.start()
        try:
            det_closed(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"det_closed peaked at {peak / 2**20:.1f} MiB"


def unreduced_inverse(spec):
    """The rational inverse with one gcd per entry, from the parameters'
    integer pairs: inv[i][j] = Fraction(A_j B_i, D_j E_i v_ji), where
    x_j + y_i = v_ji / (q_j s_i), A_j and B_i are the products of row j and
    column i of v, and D_j = q_j prod_{k != j} (a_j q_k - a_k q_j) with
    x_k = a_k / q_k, E the same for y."""
    xs = [x.as_integer_ratio() for x in spec.xs]
    ys = [y.as_integer_ratio() for y in spec.ys]
    v = [[a * s + r * q for r, s in ys] for a, q in xs]

    def dens(us):
        return [q * math.prod(a * t - c * q for k, (c, t) in enumerate(us) if k != j)
                for j, (a, q) in enumerate(us)]

    rows, cols, dx, dy = list(map(math.prod, v)), list(map(math.prod, zip(*v))), dens(xs), dens(ys)
    return [[Q(rows[j] * cols[i], dx[j] * dy[i] * v[j][i]) for j in range(spec.n)]
            for i in range(spec.n)]


def drawn_spec(rng, n, draw):
    """2n distinct values from ``draw``, none the negative of another: xs, then ys."""
    vals = []
    while len(vals) < 2 * n:
        v = draw(rng)
        if v not in vals and -v not in vals:
            vals.append(v)
    return CauchySpec(vals[:n], vals[n:], RING)


def coprime_spec(rng, n):
    """Each of the 2n parameters over a prime denominator of its own."""
    ps = [k for k in range(2, 600) if all(k % d for d in range(2, math.isqrt(k) + 1))][:2 * n]
    rng.shuffle(ps)
    vals = [Q(rng.choice([a for a in range(-500, 501) if a % d]), d) for d in ps]
    return CauchySpec(vals[:n], vals[n:], RING)


class TestReducedScales:
    """Over Q inverse_closed reduces each row and column scale to lowest
    terms once; every entry must still equal the one-gcd-per-entry form,
    in whichever order the spec's closed forms are first called."""

    CORPUS = {
        "hilbert": lambda rng: [hilbert_spec(n) for n in range(1, 33)],
        # as the closed-q benchmark draws: |a| <= 500, denominators <= 24
        "small-denominators": lambda rng: [
            drawn_spec(rng, n, lambda r: Q(r.randint(-500, 500), r.randint(1, 24)))
            for n in (16, 16, 24, 24)],
        "coprime-primes": lambda rng: [coprime_spec(rng, n) for n in (24, 48)],
        "integers": lambda rng: [drawn_spec(rng, n, lambda r: Q(r.randint(-500, 500)))
                                 for n in (1, 5, 16)],
        "negative": lambda rng: [
            drawn_spec(rng, n, lambda r: -Q(r.randint(1, 500), r.randint(1, 24))) for n in (3, 12)]
            + [drawn_spec(rng, 10, lambda r: -Q(r.randint(1, 500)))],
    }
    ORDERS = {
        "build-first": ("build", "det", "inverse"),
        "det-first": ("det", "inverse", "build"),
        "inverse-first": ("inverse", "det", "build"),
    }

    @pytest.mark.parametrize("corpus", CORPUS)
    def test_matches_the_one_gcd_per_entry_form(self, corpus):
        for spec in self.CORPUS[corpus](random.Random(71)):
            want = unreduced_inverse(spec)
            for order, steps in self.ORDERS.items():
                fresh = CauchySpec(spec.xs, spec.ys, RING)
                for step in steps:
                    if step == "build":
                        m = build(fresh)
                    elif step == "det":
                        det_closed(fresh)
                    else:
                        got = inverse_closed(fresh)
                assert got.to_rows() == want, (corpus, spec.n, order)
                if spec.n <= 12:
                    assert got == m.inverse(), (corpus, spec.n, order)


def assert_wrapped(entries, p):
    """Each entry is an FpElement mod p holding a residue in [0, p), equal to
    and hashing as the one the public class call makes."""
    for e in entries:
        assert type(e) is FpElement and e.p == p and 0 <= e.value < p
        assert e == FpElement(e.value, p) and hash(e) == hash(FpElement(e.value, p))


class TestBulkWrap:
    """build, inverse_closed and PrimeField.inv_all make their FpElements in
    one bulk pass (ring._wrap), past the class call that reduces a residue."""

    @pytest.mark.parametrize("p", (101, 2**31 - 1, 2**61 - 1))
    @pytest.mark.parametrize("source", ("no-matrix", "live-matrix", "dropped-matrix"))
    def test_entries_are_reduced_residues(self, p, source):
        ctx, rng = PrimeField(p), random.Random(59)
        for n in (1, 3, 8, 17):
            spec = rand_spec(rng, ctx, n, invertible=True)
            m = build(spec)
            assert_wrapped(m.entries, p)
            if source == "dropped-matrix":
                del m
                gc.collect()
            inv = inverse_closed(spec if source != "no-matrix" else CauchySpec(spec.xs, spec.ys, ctx))
            assert_wrapped(inv.entries, p)
            assert inv == build(CauchySpec(spec.xs, spec.ys, ctx)).inverse()
            values = [rng.randrange(1, p) + p * rng.randrange(3) for _ in range(n)]  # unreduced
            assert_wrapped(ctx.inv_all(values), p)
            assert ctx.inv_all(values) == [ctx.inv(v) for v in values]

    def test_inverse_at_n64_matches_the_oracle(self):
        ctx = PrimeField(2**31 - 1)
        spec = rand_spec(random.Random(61), ctx, 64, invertible=True)
        assert inverse_closed(spec) == build(CauchySpec(spec.xs, spec.ys, ctx)).inverse()


def first_zero_pair_sum(xs, ys, ctx):
    """Row-major scan: the first (i, j) whose pair sum is not invertible."""
    return next(((i, j) for i, x in enumerate(xs) for j, y in enumerate(ys)
                 if not ctx.is_invertible(x + y)), None)


def first_repeat(spec):
    """Lexicographic scan: the first (name, i, j) whose difference is not invertible."""
    return next(((name, i, j) for name, vec in (("x", spec.xs), ("y", spec.ys))
                 for i in range(spec.n) for j in range(i + 1, spec.n)
                 if not spec.ctx.is_invertible(vec[i] - vec[j])), None)


def plant(rng, vec, pool):
    """Overwrite one to three random positions of ``vec`` with draws from ``pool``."""
    for _ in range(rng.randint(1, 3)):
        vec[rng.randrange(len(vec))] = rng.choice(pool)


class TestPairSumValidation:
    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_first_offender_matches_row_major_scan(self, ctx):
        rng = random.Random(107)
        outcomes = []
        for t in range(200):
            n = rng.randint(1, 8)
            xs = [rand_scalar(rng, ctx) for _ in range(n)]
            ys = [rand_scalar(rng, ctx) for _ in range(n)]
            if t % 3 == 1:
                plant(rng, ys, [-x for x in xs])
            elif t % 3 == 2:
                plant(rng, xs, [-y for y in ys])
            want = first_zero_pair_sum(xs, ys, ctx)
            outcomes.append(want is not None)
            if want is None:
                assert CauchySpec(xs, ys, ctx).n == n
                continue
            with pytest.raises(NonInvertiblePairSumError) as exc_info:
                CauchySpec(xs, ys, ctx)
            assert (exc_info.value.i, exc_info.value.j) == want
        assert 60 < sum(outcomes) < 190


class TestVerdictWitness:
    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_matches_lexicographic_scan(self, ctx):
        rng = random.Random(109)
        witnessed = set()
        for t in range(200):
            while True:
                n = rng.randint(1, 8)
                xs = [rand_scalar(rng, ctx) for _ in range(n)]
                ys = [rand_scalar(rng, ctx) for _ in range(n)]
                for vec in ((), (xs,), (ys,), (xs, ys))[t % 4]:
                    plant(rng, vec, vec)
                try:
                    spec = CauchySpec(xs, ys, ctx)
                    break
                except NonInvertiblePairSumError:
                    continue
            verdict = is_invertible_spec(spec)
            assert verdict.witness == first_repeat(spec)
            assert verdict.invertible == (verdict.witness is None)
            witnessed.add(verdict.witness and verdict.witness[0])
        assert witnessed == {None, "x", "y"}


PRIMES = [q for q in range(2, 230) if all(q % d for d in range(2, q))]


def prime_denominator_spec(n, seed):
    """xs and ys over 2n distinct prime denominators, every value in lowest
    terms: the spec on which a common-denominator lift grows fastest."""
    rng = random.Random(seed)
    vals = []
    for q in PRIMES[:2 * n]:
        a = rng.randint(1, 500)
        vals.append(Q((a + (a % q == 0)) * rng.choice((-1, 1)), q))
    return CauchySpec(vals[:n], vals[n:], RING)


class TestIntegerKernel:
    @pytest.mark.parametrize("n", (12, 24))
    def test_prime_denominators(self, n):
        spec = prime_denominator_spec(n, n)
        m = build(spec)
        assert m.to_rows() == [[1 / (x + y) for y in spec.ys] for x in spec.xs]
        assert det_closed(spec) == m.det_fast()
        assert inverse_closed(spec) == m.inverse()
        assert all(inverse_entry_closed(spec, i, j) == m.inverse().entry(i, j)
                   for i in range(n) for j in range(n))
        assert m.det_berkowitz() == det_closed(spec)

    def test_adjsum_at_n24_within_a_second(self):
        spec = prime_denominator_spec(24, 24)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["adjsum", json.dumps(spec_to_json(spec)), "--format", "text"])
        elapsed = time.perf_counter() - start
        assert code == 0 and out.getvalue().endswith(" PASS\n")
        assert elapsed < 1.0, f"adjsum took {elapsed:.2f} s at n = 24"

    @pytest.mark.parametrize("singular", (False, True), ids=("invertible", "singular"))
    def test_adjugate_on_prime_denominators(self, singular):
        spec = prime_denominator_spec(12, 12)
        if singular:  # a repeated x: det = 0, every pair sum still nonzero
            spec = CauchySpec([spec.xs[0], *spec.xs[:-1]], spec.ys, RING)
        m = build(spec)
        adj, det = m.adjugate(), det_closed(spec)
        det_i = Matrix(12, 12, [det if i == j else 0 for i in range(12) for j in range(12)], RING)
        assert m * adj == adj * m == det_i
        assert adj.entry_sum() == m.adjugate_entry_sum() == adjugate_entry_sum_closed(spec)
        assert (det == 0) == singular and any(adj.entries)

    def test_integer_parameters(self):
        vals = random.Random(127).sample(range(-40, 41), 16)
        spec = CauchySpec(vals[:8], vals[8:], RING)
        m = build(spec)
        assert m.to_rows() == [[1 / (x + y) for y in spec.ys] for x in spec.xs]
        assert det_closed(spec) == m.det_fast()
        assert inverse_closed(spec) == m.inverse()
        assert all(inverse_entry_closed(spec, i, j) == m.inverse().entry(i, j)
                   for i in range(8) for j in range(8))

    def test_residues_above_two_to_the_31(self):
        p61 = PrimeField(2**61 - 1)
        vals = random.Random(113).sample(range(2**31, 2**61 - 1), 16)
        spec = CauchySpec(vals[:8], vals[8:], p61)
        m = build(spec)
        assert m.to_rows() == [[p61.inv(x + y) for y in spec.ys] for x in spec.xs]
        assert det_closed(spec) == m.det_fast() == m.det_berkowitz()
        assert inverse_closed(spec) == m.inverse()
        assert inverse_closed(spec).to_rows() == [[inverse_entry_closed(spec, i, j) for j in range(8)]
                                                  for i in range(8)]


def golden_spec(seed, n, ctx, draw):
    """2n distinct values from ``draw``, shuffled, split into xs and ys;
    redrawn until every pair sum is invertible."""
    rng = random.Random(seed)
    while True:
        vals = set()
        while len(vals) < 2 * n:
            vals.add(draw(rng))
        vals = sorted(vals)
        rng.shuffle(vals)
        try:
            return CauchySpec(vals[:n], vals[n:], ctx)
        except NonInvertiblePairSumError:
            continue


P31 = 2**31 - 1


class TestGoldenDigests:
    """sha256 of the rendered determinant and inverse on fixed seeded specs,
    pinned so that a faster kernel cannot change a single digit."""

    @pytest.mark.parametrize("order", ("det-first", "inverse-first", "build-first"))
    @pytest.mark.parametrize(
        "seed, n, ctx, draw, digest",
        (
            (1, 64, PrimeField(P31), lambda rng: rng.randrange(P31),
             "2fc97bb20b074a58abc8abdec7744facbe0fd55e3c83719f489f4ed0bc14738c"),
            (2, 24, RING, lambda rng: Q(rng.randint(-500, 500), rng.randint(1, 24)),
             "6ae24bec32bb9344cd929dac5819a109b31dd52dab1f366cc01916a7dc7c13f2"),
            (3, 12, RING, lambda rng: Q(rng.randint(-500, 500)),  # integers: every denominator is 1
             "54a66ffcb1a73638a03024d6de458bb8ec9dd243461801f45a928d874c5dfda7"),
        ),
        ids=("fp-n64", "q-n24", "int-n12"),
    )
    def test_det_and_inverse(self, seed, n, ctx, draw, digest, order):
        spec = golden_spec(seed, n, ctx, draw)
        held = build(spec) if order == "build-first" else None  # held across both calls
        if order != "inverse-first":
            det = det_closed(spec)
        inv = inverse_closed(spec)
        if order == "inverse-first":
            det = det_closed(spec)
        r = ctx.render
        text = "\n".join([r(det)] + [" ".join(map(r, row)) for row in inv.to_rows()])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        del held
