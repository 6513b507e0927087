"""The CLI's JSON writer, ``cli._dump``, gives exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True)``: on what the CLI prints (the
very objects it hands the writer, shared spec echoes included) and on hand-made
edge cases, with and without json's C accelerator."""

import json
import sys
from collections import OrderedDict

import pytest

from cauchykit import cli


dump = cli._dump  # the writer itself, which the tests below replace on the module to watch it


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def dumped(monkeypatch, capsys, argv):
    """The objects ``cli.main(argv)`` hands the writer, checking that what it printed is their dump."""
    seen = []
    monkeypatch.setattr(cli, "_dump", lambda obj: seen.append(obj) or dump(obj))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == "".join(dump(obj) + "\n" for obj in seen)
    return seen


@pytest.mark.parametrize("seed", range(41))
def test_verify_envelopes(monkeypatch, capsys, seed):
    (envelope,) = dumped(monkeypatch, capsys, ["verify", "--seed", str(seed), "--trials", "4", "--n", "8"])
    assert dump(envelope) == reference(envelope)


@pytest.mark.parametrize("argv", [["canary"], ["canary", "--n", "3"], ["gen", "--n", "8"],
                                  ["gen", "--seed", "3", "--ring", "prime:101"], ["gen", "--kind", "min"],
                                  ["gen", "--seed", "1", "--allow-degenerate"]])
def test_canary_and_gen_outputs(monkeypatch, capsys, argv):
    for obj in dumped(monkeypatch, capsys, argv):
        assert dump(obj) == reference(obj)


def test_verify_envelopes_hold_shared_echoes(monkeypatch, capsys):
    (envelope,) = dumped(monkeypatch, capsys, ["verify", "--seed", "2", "--trials", "2", "--n", "4"])
    echoes = [r["spec_echo"] for r in envelope["reports"]]
    assert len({id(e) for e in echoes}) < len(echoes)  # so the writer's memo is met on real output
    assert dump(envelope) == reference(envelope)


SHARED = {"xs": ["1", "-3/7"], "kind": "cauchy"}
STRINGS = ["é ü 漢 😀", 'a "quoted" \\ back\\slash', "\x00\x01\n\r\t\x1f\x7f ", "[1,2]",
           '[["1","-3/7"],["0","2"]]', "{}", "[]", ",\n  ", ": ", ""]
FLOATS = [0.0, -0.0, 5e-324, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), 0.1, 1e16]
EDGE = [
    [], {}, (), [[]], [{}], [()], {"a": []}, {"a": {}}, [[], {}, 1], [[[]]], [[[], {}]],
    {"a": [[], {}], "b": {"c": []}}, [1, [2, [3, [[], {}]]]], [[[[[[[[[[["deep"]]]]]]]]]]],
    {"s": 1, "c": [1, 2], "d": {"e": None}, "b": "x", "a": []},
    (1, (2, 3), ()), {"t": (1, (2,))}, [(), ("x", [])],
    STRINGS, {s: [s] for s in STRINGS}, {s: s for s in STRINGS}, {"line\nbreak": "a\nb", "l": [1]},
    FLOATS, {"f": FLOATS, "g": {"nan": float("nan")}}, [FLOATS, -0.0],
    [True, False, None, 0, -1, 2**64, -(2**64)], {"t": True, "f": False, "n": None, "l": [None]},
    {2: [1], 1.5: {"a": 1}, True: [], 0: 0}, {3: "three", 1: "one"}, {None: [1]},
    OrderedDict([("b", 1), ("a", [2, OrderedDict([("z", 1), ("y", 2)])])]),
    [SHARED, SHARED, {"in": SHARED}], {"a": SHARED, "b": SHARED, "c": [SHARED]},
    {"top": SHARED, "down": {"deeper": SHARED, "list": [SHARED, [SHARED]]}},  # one dict at four depths
    "a string", 5, -0.0, None, True,
]


@pytest.mark.parametrize("obj", EDGE, ids=range(len(EDGE)))
def test_edge_cases(obj):
    assert dump(obj) == reference(obj)


@pytest.mark.parametrize("obj", EDGE, ids=range(len(EDGE)))
def test_without_the_c_accelerator(monkeypatch, obj):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert dump(obj) == reference(obj)


def test_one_dict_at_two_depths_is_laid_out_at_each():
    inner = {"a": [1, 2]}
    text = dump({"x": inner, "y": {"z": inner}})
    assert text == reference({"x": inner, "y": {"z": inner}})
    assert '\n  "x": {\n    "a": [\n      1,' in text
    assert '\n    "z": {\n      "a": [\n        1,' in text


def test_ints_past_the_digit_limit():
    big = [10**5000, {"big": [-(10**5000) - 7], "n": 1}]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)  # as cli.main does while a command runs
    try:
        assert dump(big) == reference(big)
    finally:
        set_limit(limit)


@pytest.mark.parametrize("obj", [[object()], {"a": {"b": object()}}, {(1, 2): [1]}, {"a": [1], 1: [2]}])
def test_unencodable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dump(obj)
