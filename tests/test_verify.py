import random
from fractions import Fraction as Q

import pytest

from cauchykit import cauchy, densela, minmat, verify
from cauchykit.densela import Matrix
from cauchykit.ring import PrimeField, RationalRing
from cauchykit.verify import (
    SpecFormatError,
    force_repeated_value,
    random_cauchy_spec,
    random_min_spec,
    random_scalar,
    ring_from_json,
    ring_to_json,
    run_suite,
    spec_from_json,
    spec_to_json,
)

RING = RationalRing()


class TestRingCodec:
    def test_rational(self):
        assert ring_to_json(RING) == "rational"
        assert ring_from_json("rational") == RING

    def test_prime(self):
        assert ring_to_json(PrimeField(7)) == {"prime": 7}
        assert ring_from_json({"prime": 7}) == PrimeField(7)

    def test_bad_ring(self):
        with pytest.raises(SpecFormatError):
            ring_from_json("galois")
        with pytest.raises(SpecFormatError):
            ring_from_json({"prime": 10})


class TestSpecCodec:
    def test_cauchy_round_trip(self):
        spec = cauchy.CauchySpec([Q(1, 2), 2], [3, Q(5, 3)], RING)
        obj = spec_to_json(spec)
        assert obj == {"kind": "cauchy", "ring": "rational", "xs": ["1/2", "2"], "ys": ["3", "5/3"]}
        back = spec_from_json(obj)
        assert back.xs == spec.xs and back.ys == spec.ys

    def test_prime_field_round_trip(self):
        spec = cauchy.CauchySpec([4, 9], [1, 7], PrimeField(101))
        back = spec_from_json(spec_to_json(spec))
        assert back.ctx == PrimeField(101)
        assert back.xs == spec.xs

    def test_min_round_trip(self):
        spec = minmat.MinSpec([1, 3], [2, 4])
        obj = spec_to_json(spec)
        assert obj["kind"] == "min"
        back = spec_from_json(obj)
        assert isinstance(back, minmat.MinSpec)
        assert back.xs == spec.xs

    def test_sorted_min_echo_carries_swap_flag(self):
        assert spec_to_json(minmat.normalize(minmat.MinSpec([4, 2], [3, 1])))["swapped"] is True

    def test_kind_defaults_to_cauchy(self):
        spec = spec_from_json({"xs": ["1"], "ys": ["2"]})
        assert isinstance(spec, cauchy.CauchySpec)

    def test_default_ring_honored(self):
        spec = spec_from_json({"xs": ["4"], "ys": ["9"]}, default_ring=PrimeField(101))
        assert spec.ctx == PrimeField(101)

    def test_explicit_ring_beats_default(self):
        spec = spec_from_json({"ring": "rational", "xs": ["4"], "ys": ["9"]}, default_ring=PrimeField(101))
        assert spec.ctx == RING

    def test_negate_ys(self):
        spec = spec_from_json({"xs": ["1", "2"], "ys": ["-3", "-5"]}, negate_ys=True)
        assert spec.ys == (3, 5)

    def test_min_rejects_prime_ring(self):
        with pytest.raises(SpecFormatError):
            spec_from_json({"kind": "min", "ring": {"prime": 101}, "xs": ["1"], "ys": ["2"]})

    def test_unknown_kind(self):
        with pytest.raises(SpecFormatError):
            spec_from_json({"kind": "toeplitz", "xs": ["1"], "ys": ["2"]})

    def test_missing_vectors(self):
        with pytest.raises(SpecFormatError):
            spec_from_json({"xs": ["1"]})

    def test_bad_scalar_text(self):
        with pytest.raises(SpecFormatError):
            spec_from_json({"xs": ["one"], "ys": ["2"]})


class TestGenerators:
    def test_cauchy_default_is_invertible(self):
        rng = random.Random(5)
        for _ in range(30):
            spec = random_cauchy_spec(rng, RING, rng.randint(1, 5))
            assert cauchy.is_invertible_spec(spec).invertible

    def test_forced_repeat_is_singular_but_valid(self):
        rng = random.Random(6)
        for _ in range(30):
            spec = random_cauchy_spec(rng, RING, rng.randint(2, 5))
            degraded = force_repeated_value(rng, spec)
            assert not cauchy.is_invertible_spec(degraded).invertible
            assert cauchy.det_closed(degraded) == 0  # still constructible

    def test_forced_repeat_leaves_singletons_alone(self):
        rng = random.Random(7)
        spec = random_cauchy_spec(rng, RING, 1)
        assert force_repeated_value(rng, spec) is spec

    def test_min_spec_shape(self):
        rng = random.Random(8)
        spec = random_min_spec(rng, 4)
        assert spec.n == 4

    def test_seeded_reproducibility(self):
        a = random_cauchy_spec(random.Random(99), RING, 4)
        b = random_cauchy_spec(random.Random(99), RING, 4)
        assert a.xs == b.xs and a.ys == b.ys

    def test_rational_draws_follow_the_randint_stream(self):
        # the draw as written with randint: same values, same stream state after
        rng, ref = random.Random(2024), random.Random(2024)
        for _ in range(10_000):
            assert random_scalar(rng, RING) == Q(ref.randint(-9, 9), ref.randint(1, 9))
        assert rng.getstate() == ref.getstate()


class TestSuite:
    def test_all_pass_and_deterministic(self):
        first = run_suite(seed=321, trials=4, n_max=4)
        second = run_suite(seed=321, trials=4, n_max=4)
        assert all(r.passed for r in first)
        assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]

    def test_pass_flag_matches_strings(self):
        for r in run_suite(seed=11, trials=3, n_max=3):
            assert r.passed == (r.lhs == r.rhs)

    def test_covers_every_identity(self):
        names = {r.identity for r in run_suite(seed=13, trials=8, n_max=4)}
        assert names >= {
            "cauchy_det",
            "inverse_entry_sum",
            "inverse_entrywise",
            "adjugate_entry_sum",
            "bordered_det",
            "border_adjugate_sum",
            "weighted_trace_ab",
            "invertibility_criterion",
            "min_det",
            "min_inverse_entry_sum",
            "min_inverse_column_sums",
        }


class TestOneBuildPerSpec:
    def count(self, monkeypatch, owner, name):
        calls = []
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("seed", (2, 3, 5, 9))  # n = 1, 2, 5, 4; the last two singular min
    def test_one_trial(self, monkeypatch, seed):
        cauchy_builds = self.count(monkeypatch, cauchy, "build")
        min_builds = self.count(monkeypatch, minmat, "build")
        inverses = self.count(monkeypatch, Matrix, "inverse")
        eliminations = self.count(monkeypatch, densela, "_eliminate")
        reports = run_suite(seed=seed, trials=1, n_max=6)
        assert all(r.passed for r in reports)
        n = len(reports[0].spec_echo["xs"])
        min_invertible = any(r.identity == "min_inverse_entry_sum" for r in reports)
        # the spec, and the probe with a forced repeat when n >= 2
        assert len(cauchy_builds) == (2 if n >= 2 else 1)
        # the normalized form, and the spec itself when its matrix is invertible
        assert len(min_builds) == (2 if min_invertible else 1)
        # one Gauss-Jordan run on the Cauchy matrix and on the sorted min matrix,
        # plus one on the unsorted min matrix when it is invertible; every other
        # inverse call reads a kept inverse
        jordan = [args for args, kwargs in eliminations if kwargs.get("jordan")]
        assert len(jordan) == (3 if min_invertible else 2)
        assert len(inverses) == (6 if min_invertible else 4)
        # no matrix is eliminated twice, whether for its determinant or its inverse
        matrices = [args[0] for args, _ in eliminations]
        assert len({id(m) for m in matrices}) == len(matrices)


class TestOneEchoPerSpec:
    @pytest.mark.parametrize("seed", (2, 3, 5, 9, 21))
    def test_reports_of_one_spec_share_its_echo(self, monkeypatch, seed):
        echoes = []
        monkeypatch.setattr(verify, "spec_to_json", lambda spec: echoes.append(spec_to_json(spec)) or echoes[-1])
        reports = run_suite(seed=seed, trials=2, n_max=6)
        by_name = {}
        for r in reports:
            by_name.setdefault(r.identity, []).append(r.spec_echo)
        for t in range(2):  # trial 0 has a probe with a forced repeat (n >= 2), trial 1 probes the spec
            cauchy_echo = by_name["cauchy_det"][t]
            for name in ("inverse_entry_sum", "inverse_entrywise", "bordered_det"):
                assert by_name[name][t] is cauchy_echo
            assert by_name["invertibility_criterion"][t] is by_name["adjugate_entry_sum"][t]
            assert (by_name["adjugate_entry_sum"][t] is cauchy_echo) == (t == 1 or len(cauchy_echo["xs"]) == 1)
        for echo in by_name.get("min_inverse_column_sums", []):  # both read the sorted min spec
            assert any(echo is e for e in by_name["min_det"])
        # one spec_to_json per distinct spec: the Cauchy spec, a distinct probe, the
        # sorted min spec, and the unsorted one when its inverse sums are checked
        assert len(echoes) == len({id(r.spec_echo) for r in reports if "kind" in r.spec_echo})
