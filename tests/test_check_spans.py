"""Each report comes from exactly one outermost ``verify.check_*`` call, and
no ``check_*`` function calls another. A tracer that wraps every
``check_*`` function of ``verify`` (the benchmark's ``verify.check`` layer)
then sees one span per report, none nested, and counts reports by spans.

Every ``check_*`` function is wrapped with a depth counter here; the
callers look the functions up as module attributes, so the wrappers are
the ones that run."""

import inspect
import json

import pytest

from cauchykit import verify
from cauchykit.cli import main

CAUCHY = '{"xs":["1","2","7"],"ys":["3","5","4"]}'
MIN = '{"kind":"min","xs":["5","1","3"],"ys":["2","6","4"]}'


@pytest.fixture
def calls(monkeypatch):
    """Counts of outermost ``check_*`` calls and of the deepest nesting seen."""
    state = {"depth": 0, "deepest": 0, "outermost": 0}
    names = [k for k, v in vars(verify).items() if k.startswith("check_") and inspect.isfunction(v)]
    assert {"check_identity", "check_border_general", "check_lemma_ab"} <= set(names)

    def counted(fn):
        def wrapper(*args, **kwargs):
            state["outermost"] += state["depth"] == 0
            state["depth"] += 1
            state["deepest"] = max(state["deepest"], state["depth"])
            try:
                return fn(*args, **kwargs)
            finally:
                state["depth"] -= 1
        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    return state


@pytest.mark.parametrize("seed", range(5))
def test_run_suite_makes_one_outermost_call_per_report(calls, seed):
    reports = verify.run_suite(seed, 6, 6)
    assert (calls["outermost"], calls["deepest"]) == (len(reports), 1)


@pytest.mark.parametrize("argv", (
    ["invsum", CAUCHY], ["adjsum", CAUCHY], ["border", CAUCHY], ["min-det", MIN],
    ["min-invsum", MIN], ["min-colsums", MIN], ["lemma-ab", "--seed", "3", "--trials", "7"],
    ["verify", "--seed", "2", "--trials", "3", "--n", "4"],
))
def test_each_cli_report_is_one_outermost_call(calls, capsys, argv):
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    reports = out.get("reports", [out]) if isinstance(out, dict) else out  # envelope, one report, or a list
    assert (calls["outermost"], calls["deepest"]) == (len(reports), 1)
