import contextlib
import random
import sys
import threading
from fractions import Fraction as Q

import pytest

from cauchykit import minmat
from cauchykit.densela import Matrix
from cauchykit.minmat import (
    MinSpec,
    SortedMinSpec,
    UnsortedInputError,
    build,
    det_closed,
    det_zero_predicate,
    inverse_column_sums,
    inverse_entry_sum,
    normalize,
)
from cauchykit.ring import FpElement, NotInvertibleError, UnorderedRingError

ANCHOR = MinSpec([1, 3], [2, 4])


def rand_spec(rng, n):
    return MinSpec(
        [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
        [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
    )


class TestBuild:
    def test_anchor(self):
        assert build(ANCHOR).to_rows() == [[1, 1], [2, 3]]

    def test_single(self):
        assert build(MinSpec([Q(5, 2)], [2])).to_rows() == [[2]]

    def test_constant(self):
        spec = MinSpec([7, 7], [7, 7])
        assert build(spec).to_rows() == [[7, 7], [7, 7]]

    def test_prime_field_rejected(self):
        with pytest.raises(UnorderedRingError):
            MinSpec([FpElement(1, 101)], [FpElement(2, 101)])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            MinSpec([0.5], [1])

    @pytest.mark.parametrize("xs, ys", (([1, 0.5], [2]), ([1], [2, "1/0"])))
    def test_lengths_are_compared_before_any_scalar(self, xs, ys):
        with pytest.raises(ValueError, match=f"^xs has {len(xs)} entries but ys has {len(ys)}$"):
            MinSpec(xs, ys)

    def test_repr(self):
        assert repr(MinSpec([Q(5, 2), -1], [2, 0])) == "MinSpec(xs=['5/2', '-1'], ys=['2', '0'])"


class TestNormalize:
    def test_sorts(self):
        s = normalize(MinSpec([3, 1], [4, 2]))
        assert s.xs == (1, 3)
        assert s.ys == (2, 4)
        assert s.swapped is False

    def test_swaps_roles(self):
        s = normalize(MinSpec([5, 6], [1, 2]))
        assert s.xs == (1, 2)
        assert s.ys == (5, 6)
        assert s.swapped is True

    def test_idempotent_on_sorted(self):
        s = normalize(ANCHOR)
        assert (s.xs, s.ys, s.swapped) == ((1, 3), (2, 4), False)
        again = normalize(s)
        assert (again.xs, again.ys, again.swapped) == (s.xs, s.ys, False)

    def test_sorted_spec_validates(self):
        with pytest.raises(UnsortedInputError):
            SortedMinSpec([3, 1], [2, 4])
        with pytest.raises(UnsortedInputError):
            SortedMinSpec([3, 4], [1, 2])  # x[0] > y[0], needs the swap

    def test_private_result_equals_the_public_constructor(self):
        rng = random.Random(113)
        for _ in range(50):
            spec = rand_spec(rng, rng.randint(1, 6))
            s = normalize(spec)
            public = SortedMinSpec(s.xs, s.ys, s.swapped)
            assert type(s) is SortedMinSpec
            # the constructor's ascending check makes the factors, so both keep them from the start
            assert s._factors is not None and public._factors is not None
            for name in ("xs", "ys", "swapped", "_sorted", "_factors"):
                assert getattr(s, name) == getattr(public, name), name
            assert all(type(v) is Q for v in s.xs + s.ys)
            if s.xs[0] != s.xs[-1]:
                with pytest.raises(UnsortedInputError):
                    SortedMinSpec(s.xs[::-1], s.ys, s.swapped)
            if s.xs[0] != s.ys[0]:
                with pytest.raises(UnsortedInputError):
                    SortedMinSpec(s.ys, s.xs)

    def test_determinant_magnitude_preserved(self):
        rng = random.Random(107)
        for _ in range(50):
            spec = rand_spec(rng, rng.randint(1, 5))
            before = build(spec).det_fast()
            after = build(normalize(spec)).det_fast()
            assert abs(before) == abs(after)

    def test_min_value_preserved(self):
        rng = random.Random(109)
        for _ in range(20):
            spec = rand_spec(rng, rng.randint(1, 5))
            s = normalize(spec)
            assert min(min(s.xs), min(s.ys)) == min(min(spec.xs), min(spec.ys))
            assert s.xs[0] <= s.ys[0]


class TestInverseEntrySum:
    def test_anchor(self):
        f_inv = build(ANCHOR).inverse()
        assert f_inv.to_rows() == [[3, -1], [-2, 1]]
        assert inverse_entry_sum(ANCHOR) == 1
        assert f_inv.entry_sum() == 1

    def test_single(self):
        assert inverse_entry_sum(MinSpec([Q(3)], [Q(4)])) == Q(1, 3)

    def test_fractional_min(self):
        assert inverse_entry_sum(MinSpec([Q(1, 2), 3], [2, 5])) == 2

    def test_singular_raises(self):
        with pytest.raises(NotInvertibleError):
            inverse_entry_sum(MinSpec([1, 2], [3, 4]))

    def test_matches_oracle(self):
        rng = random.Random(113)
        done = 0
        while done < 40:
            spec = rand_spec(rng, rng.randint(1, 5))
            f = build(spec)
            if f.det_fast() == 0:
                continue
            assert inverse_entry_sum(spec) == f.inverse().entry_sum()
            done += 1

    def test_unchanged_by_normalize(self):
        rng = random.Random(127)
        done = 0
        while done < 20:
            spec = rand_spec(rng, rng.randint(1, 5))
            if build(spec).det_fast() == 0:
                continue
            assert inverse_entry_sum(spec) == inverse_entry_sum(normalize(spec))
            done += 1

    def test_invertible_forces_nonzero_min(self):
        rng = random.Random(131)
        for _ in range(300):
            spec = rand_spec(rng, rng.randint(1, 4))
            if build(spec).det_fast() != 0:
                assert min(min(spec.xs), min(spec.ys)) != 0


class TestInverseColumnSums:
    def test_anchor(self):
        assert inverse_column_sums(normalize(ANCHOR)) == (1, 0)

    def test_single(self):
        assert inverse_column_sums(normalize(MinSpec([Q(4)], [Q(9)]))) == (Q(1, 4),)

    def test_matches_oracle(self):
        rng = random.Random(137)
        done = 0
        while done < 30:
            spec = normalize(rand_spec(rng, rng.randint(1, 5)))
            f = build(spec)
            if f.det_fast() == 0:
                continue
            inv = f.inverse()
            assert inverse_column_sums(spec) == tuple(inv.column_sum(j) for j in range(spec.n))
            done += 1

    def test_singular_raises(self):
        with pytest.raises(NotInvertibleError):
            inverse_column_sums(normalize(MinSpec([1, 2], [3, 4])))

    def test_unsorted_input_rejected(self):
        # the hypotheses are revalidated even for a hand-built plain spec
        with pytest.raises(UnsortedInputError):
            inverse_column_sums(MinSpec([3, 1], [2, 4]))
        with pytest.raises(UnsortedInputError):
            inverse_column_sums(MinSpec([3, 4], [1, 2]))


class TestDetClosed:
    def test_anchor(self):
        assert det_closed(ANCHOR) == 1
        assert build(ANCHOR).det_fast() == 1

    def test_single(self):
        assert det_closed(MinSpec([Q(2, 3)], [Q(1, 2)])) == Q(1, 2)

    def test_unbalanced_zero(self):
        spec = MinSpec([1, 2], [3, 4])
        assert build(spec).to_rows() == [[1, 1], [2, 2]]
        assert det_closed(spec) == 0
        assert build(spec).det_fast() == 0

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInputError):
            det_closed(MinSpec([3, 1], [2, 4]))
        with pytest.raises(UnsortedInputError):
            det_closed(MinSpec([1, 3], [4, 2]))

    def test_no_cross_condition_needed(self):
        # x[0] > y[0] is fine here, unlike the column-sum statement
        spec = MinSpec([3, 4], [1, 2])
        assert det_closed(spec) == build(spec).det_fast()

    def test_matches_oracle(self):
        rng = random.Random(139)
        for _ in range(150):
            spec = rand_spec(rng, rng.randint(1, 6))
            sorted_spec = MinSpec(sorted(spec.xs), sorted(spec.ys))
            assert det_closed(sorted_spec) == build(sorted_spec).det_fast()


class TestDetZeroPredicate:
    def test_zero_case(self):
        assert det_zero_predicate(MinSpec([1, 2], [3, 4])) is True

    def test_nonzero_case(self):
        assert det_zero_predicate(ANCHOR) is False

    def test_zero_min_forces_zero(self):
        assert det_zero_predicate(MinSpec([0, 5], [1, 6])) is True

    def test_tracks_determinant(self):
        rng = random.Random(149)
        for _ in range(120):
            spec = rand_spec(rng, rng.randint(1, 6))
            sorted_spec = MinSpec(sorted(spec.xs), sorted(spec.ys))
            assert det_zero_predicate(sorted_spec) == (det_closed(sorted_spec) == 0)
            assert det_zero_predicate(sorted_spec) == (build(sorted_spec).det_fast() == 0)


class TestPerSpecMemo:
    @staticmethod
    def count(monkeypatch, name, fn):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(minmat, name, counting, raising=False)
        return calls

    def battery(self, spec):
        s = normalize(spec)
        out = [s, det_closed(s), det_zero_predicate(s)]
        for fn, arg in ((inverse_entry_sum, spec), (inverse_column_sums, s)):
            try:
                out.append(fn(arg))
            except NotInvertibleError:
                out.append(None)
        return out

    @pytest.mark.parametrize("singular", (False, True), ids=("invertible", "singular"))
    def test_battery_sorts_and_factors_once(self, monkeypatch, singular):
        sorts = self.count(monkeypatch, "sorted", sorted)
        mins = self.count(monkeypatch, "min", min)
        xs, ys = [Q(5), Q(1), Q(7), Q(3)], [Q(4), Q(8), Q(2), Q(6)]  # 1 < 2 < 3 < ... < 8
        if singular:
            xs[3], ys[2] = ys[2], xs[3]  # x = 1, 2 below y = 3: the first difference is 0
        spec = MinSpec(xs, ys)
        s, det, zero = self.battery(spec)[:3]
        assert [args[0] for args in sorts] == [spec.xs, spec.ys]
        assert len(mins) == 4 * spec.n - 3  # one factor pass: f[0][0], then 4 mins a factor
        assert zero == (det == 0) == singular
        assert self.battery(spec)[:3] == [s, det, zero]  # the same spec again: nothing recomputed
        assert len(sorts) == 2 and len(mins) == 4 * spec.n - 3
        assert normalize(spec) is s and normalize(s) is normalize(s)

    def test_singular_spec_raises_on_every_call(self):
        spec = MinSpec([1, 2], [3, 4])
        for _ in range(3):
            with pytest.raises(NotInvertibleError, match="singular"):
                inverse_entry_sum(spec)
            with pytest.raises(NotInvertibleError, match="singular"):
                inverse_column_sums(normalize(spec))

    def test_nothing_leaks_across_specs(self):
        first, second = MinSpec([1, 3], [2, 4]), MinSpec([1, Q(5, 2)], [2, 4])
        for spec in (first, second):
            s = normalize(spec)
            assert det_closed(s) == build(s).det_fast()
            assert inverse_entry_sum(spec) == build(spec).inverse().entry_sum()
        assert normalize(first) is not normalize(second)
        assert det_closed(normalize(first)) == 1 and det_closed(normalize(second)) == Q(1, 2)

    def test_plain_unsorted_spec_is_checked_on_every_call(self):
        spec = MinSpec([3, 1], [2, 4])
        for _ in range(2):
            with pytest.raises(UnsortedInputError, match="x vector is not ascending at position 1"):
                det_closed(spec)
            with pytest.raises(UnsortedInputError, match="x vector is not ascending at position 1"):
                det_zero_predicate(spec)
            with pytest.raises(UnsortedInputError, match="x vector is not ascending at position 1"):
                inverse_column_sums(spec)
        with pytest.raises(UnsortedInputError, match=r"column sums need x\[0\] <= y\[0\]"):
            inverse_column_sums(MinSpec([3, 4], [1, 2]))
        normalize(spec)  # a kept sorted form does not make the plain spec sorted
        with pytest.raises(UnsortedInputError):
            det_closed(spec)

    def test_threads_racing_on_first_use_agree(self):
        # kept results are set on first use without a lock: racing threads may
        # each compute one, and every thread must still read the same values
        rng = random.Random(151)
        specs = [rand_spec(rng, 6) for _ in range(40)]
        expected = [self.battery(MinSpec(s.xs, s.ys))[1:] for s in specs]
        matrices = [build(s) for s in specs]
        dets = [Matrix(6, 6, m.entries, m.ctx).det_fast() for m in matrices]
        errors = []

        def work():
            try:
                for spec, m, want, det in zip(specs, matrices, expected, dets):
                    assert self.battery(spec)[1:] == want
                    with contextlib.suppress(NotInvertibleError):
                        m.inverse()
                    assert m.det_fast() == det
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
