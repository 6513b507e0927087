"""The benchmark's checker accepts right outputs and rejects wrong ones.

Right outputs are built here from the checker's own arithmetic, so these
tests need nothing from ``cauchykit``.
"""

import json
import random
from fractions import Fraction

import checker
import inputs

P31 = inputs.P31


def _cauchy_output(xs, ys, p):
    c = checker.cauchy_rows(xs, ys, p)
    d = checker.det(c, p)
    w = sum(xs) + sum(ys)
    if p is not None:
        w %= p
    red = (lambda v: v) if p is None else (lambda v: v % p)
    return {
        "build": c,
        "det": d,
        "inverse": checker.inverse(c, p),
        "inverse_entry_sum": w,
        "adjugate_entry_sum": red(w * d),
        "bordered_det": red(-w * d),
        "invertible": True,
    }


def _cases():
    xs_q, ys_q = (Fraction(1), Fraction(-3, 2), Fraction(7, 5)), (Fraction(2), Fraction(1, 3), Fraction(9))
    yield checker.CauchyCase(xs_q, ys_q, None), _cauchy_output(xs_q, ys_q, None)
    xs_p, ys_p = (5, 1234567, 99), (17, 2**30, 3)
    yield checker.CauchyCase(xs_p, ys_p, P31), _cauchy_output(xs_p, ys_p, P31)


def test_right_cauchy_outputs_pass():
    for case, out in _cases():
        assert checker.check_cauchy(case, out) == []


def test_perturbed_inverse_is_rejected():
    for case, out in _cases():
        bad = [list(r) for r in out["inverse"]]
        bad[1][2] += 1
        errs = checker.check_cauchy(case, {**out, "inverse": bad})
        assert any("C * (inverse * v) != v" in e for e in errs)


def test_wrong_determinant_is_rejected():
    for case, out in _cases():
        errs = checker.check_cauchy(case, {**out, "det": out["det"] * 2})
        assert any("det_closed differs" in e for e in errs)


def test_min_checks():
    m = inputs.min_input(random.Random(3), 6, singular=False)
    case = checker.MinCase(m.xs, m.ys)
    sx, sy = case.sorted
    right = {
        "normalized": (sx, sy, case.swapped),
        "det": case.det,
        "det_zero": False,
        "inverse_entry_sum": 1 / sx[0],
        "column_sums": (1 / sx[0],) + (Fraction(0),) * 5,
    }
    assert case.det != 0
    assert checker.check_min(case, right) == []
    assert checker.check_min(case, {**right, "det": case.det + 1})
    assert checker.check_min(case, {**right, "det_zero": True})
    assert checker.check_min(case, {**right, "inverse_entry_sum": checker.NOT_INVERTIBLE})


def test_generated_min_specs_are_singular_exactly_when_asked():
    rng = random.Random(5)
    for n in (2, 5, 9):
        for singular in (False, True):
            m = inputs.min_input(rng, n, singular)
            assert (checker.MinCase(m.xs, m.ys).det == 0) is singular


def test_verify_report_with_a_wrong_side_is_rejected():
    echo = {"kind": "cauchy", "ring": "rational", "xs": ["1", "2"], "ys": ["3", "5"]}
    report = {"identity": "inverse_entry_sum", "lhs": "11", "rhs": "11", "pass": True,
              "spec_echo": echo, "seed": 4}
    env = {"seed": 4, "trials": 1, "n_max": 8, "passed": 1, "failed": 0, "reports": [report]}
    assert checker.check_verify(0, json.dumps(env), 4, 1, 8) == []
    env["reports"] = [{**report, "lhs": "12", "rhs": "12"}]
    assert checker.check_verify(0, json.dumps(env), 4, 1, 8)


def test_adjugate_sum_matches_the_adjugate():
    # adj [[1, 2], [3, 4]] = [[4, -2], [-3, 1]]; adj [[1, 2], [2, 4]] = [[4, -2], [-2, 1]]
    assert checker.adjugate_sum([[1, 2], [3, 4]]) == 0
    assert checker.adjugate_sum([[1, 2], [2, 4]]) == 1
    assert checker.adjugate_sum([[1, 2], [2, 4]], 7) == 1
    assert checker.adjugate_sum([[Fraction(5, 3)]]) == 1
