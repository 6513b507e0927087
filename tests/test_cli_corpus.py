"""A standing transcript corpus of the CLI: a few thousand in-process calls,
each pinned by a short hash of its (exit code, stdout, stderr).

:func:`corpus` generates the calls deterministically: the SPEC subcommands
over valid, singular and hostile specs, under each format, ring and
``--minus-convention`` setting, from inline JSON, stdin and files; ``gen``,
``verify``, ``lemma-ab`` and ``canary`` over a few seeds and sizes; and
flags a subcommand does not read. ``tests/data/cli_corpus.json`` holds one
hash per call, keyed by its argv (a spec argument is written ``@name``), so
a change to one message fails exactly the rows that print it.

Two parts of an output are left out of the hash: the canary's ``elapsed``
field, which is wall time, and the usage line argparse prints above its
error line, whose layout differs between Python versions.

Regenerate the table, after a change meant to alter output (name every
changed row in CHANGES.md), with::

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from cauchykit.cli import main

TABLE = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

SPEC_COMMANDS = ("build", "det", "inv", "invsum", "adjsum", "border", "min-det", "min-invsum",
                 "min-colsums")


def _spec(**fields) -> str:
    return json.dumps(fields, separators=(",", ":"))


# name -> inline SPEC argument
SPECS = {
    # valid Cauchy specs
    "c1": _spec(xs=["4"], ys=["-7/3"]),
    "c2": _spec(xs=["1", "2"], ys=["3", "5"]),
    "c3": _spec(xs=["1/2", "-3", "7/5"], ys=["2", "9/4", "-1/3"]),
    "c4": _spec(kind="cauchy", ring="rational", xs=["1", "2", "3", "4"], ys=["0", "1", "2", "3"]),
    "c-json-ints": '{"xs":[1,2,3],"ys":[4,5,-6]}',
    "c-exp": _spec(xs=["1e3", "2.5"], ys=["-0.25", "1E-2"]),
    "c-f101": _spec(ring={"prime": 101}, xs=["3", "5", "200"], ys=["7", "100", "-1"]),
    "c-f2^31-1": _spec(ring={"prime": 2**31 - 1}, xs=["3", "5"], ys=["7", "2147483646"]),
    "c-extra-key": _spec(xs=["1", "2"], ys=["3", "5"], note="ignored"),
    # singular Cauchy specs and zero pair sums
    "c-repeat-x": _spec(xs=["1", "1"], ys=["3", "5"]),
    "c-repeat-y": _spec(xs=["1", "2", "3"], ys=["4", "6", "4"]),
    "c-zero-sum": _spec(xs=["1", "2"], ys=["-1", "5"]),
    "c-f7-repeat": _spec(ring={"prime": 7}, xs=["1", "8"], ys=["2", "3"]),
    "c-f7-zero-sum": _spec(ring={"prime": 7}, xs=["1", "2"], ys=["6", "3"]),
    # min specs
    "m1": _spec(kind="min", xs=["5/2"], ys=["1"]),
    "m2": _spec(kind="min", xs=["1", "3"], ys=["2", "4"]),
    "m-zero-det": _spec(kind="min", xs=["1", "2"], ys=["3", "4"]),
    "m-unsorted": _spec(kind="min", xs=["4", "2"], ys=["3", "1"]),
    "m3": _spec(kind="min", xs=["1/3", "-2", "7"], ys=["0", "5/4", "-1"]),
    "m-tie": _spec(kind="min", xs=["1", "1"], ys=["2", "3"]),
    "m-f101": _spec(kind="min", ring={"prime": 101}, xs=["1"], ys=["2"]),
    # hostile specs
    "one-over-zero": _spec(xs=["1/0"], ys=["1"]),
    "mismatched": _spec(xs=["1"], ys=["1", "2"]),
    "empty": _spec(xs=[], ys=[]),
    "m-one-over-zero": _spec(kind="min", xs=["1/0"], ys=["1"]),
    "m-word": _spec(kind="min", xs=["one"], ys=["1"]),
    "word": _spec(xs=["two"], ys=["1"]),
    "float-scalar": '{"xs":[1.5],"ys":["1"]}',
    "null-scalar": '{"xs":[null],"ys":["1"]}',
    "bool-scalar": '{"xs":[true],"ys":["2"]}',
    "xs-string": _spec(xs="12", ys="34"),
    "missing-ys": _spec(xs=["1"]),
    "kind-other": _spec(kind="hankel", xs=["1"], ys=["2"]),
    "kind-long": _spec(kind="k" * 300, xs=["1"], ys=["2"]),
    "prime-huge": _spec(ring={"prime": 3317044064679887385961981}, xs=["1"], ys=["2"]),
    "prime-composite": _spec(ring={"prime": 100}, xs=["1"], ys=["2"]),
    "prime-list": _spec(ring={"prime": [101]}, xs=["1"], ys=["2"]),
    "prime-float": '{"ring":{"prime":101.9},"xs":["1"],"ys":["2"]}',
    "prime-bool": _spec(ring={"prime": True}, xs=["1"], ys=["2"]),
    "ring-word": _spec(ring="complex", xs=["1"], ys=["2"]),
    "exp-huge": _spec(xs=["1e999999999"], ys=["1"]),
    "m-exp-tiny": _spec(kind="min", xs=["1E-4301"], ys=["1"]),
    "long-text": _spec(xs=["1" * 4301], ys=["1"]),
    "long-int": '{"xs":[' + "1" * 5000 + '],"ys":["1"]}',
    "deep": '{"xs":' + "[" * 3000 + "]" * 3000 + ',"ys":["1"]}',
    "wide": '{"xs":[' + ",".join(["[1]"] * 1022) + '],"ys":["1"]}',  # 1025 arrays and objects
    "malformed": '{"xs":["1"],',
    "array": "[1]",
    "string": '"abc"',
    "scalar": "42",
}
FORMATS = ((), ("--format", "json"), ("--format", "csv"), ("--format", "text"))
SETTINGS = (
    ("--minus-convention",),
    ("--ring", "prime:101"),
    ("--ring", "prime:101", "--minus-convention"),
    ("--ring", "prime:7"),
    ("--ring", "prime:2147483647", "--minus-convention"),
    ("--ring", "prime:100"),
    ("--ring", "bogus"),
)
FILES = {  # name -> bytes of a file in the working directory, None for a directory
    "spec.json": SPECS["c2"].encode(),
    "min.json": SPECS["m2"].encode(),
    "bad.json": b"\xff\xfe",
    "42": SPECS["c3"].encode(),
    "adir": None,
}
HUGE = " " * (2**24 + 1)  # a spec one character past the read bound, as huge.json and stdin
FLAG_ARGS = (
    ("--ring", "rational"), ("--seed", "1"), ("--trials", "2"), ("--n", "3"), ("--kind", "min"),
    ("--minus-convention",), ("--allow-degenerate",), ("--format", "text"), ("--bogus",),
)


def corpus() -> dict:
    """key -> (argv, stdin text or None) of every call, in a fixed order;
    a call generated twice is one row."""
    calls = {}

    def add(argv, stdin=None, names=None):
        shown = [names.get(a, a) if names else a for a in argv]
        calls[" ".join(shown)] = (list(argv), stdin)

    for name, text in SPECS.items():
        names = {text: f"@{name}"}
        for command in SPEC_COMMANDS:
            for extra in FORMATS + SETTINGS:
                add([command, text, *extra], names=names)
    for command in SPEC_COMMANDS:
        for name in ("c2", "c-repeat-x", "m-unsorted", "malformed", "scalar"):
            add([command, "-"], stdin=SPECS[name], names={"-": f"- <@{name}"})
        add([command, "-", "--ring", "prime:101"], stdin=SPECS["c3"], names={"-": "- <@c3"})
        add([command, "-"], stdin="", names={"-": "- <empty"})
        for path in FILES:
            add([command, path])
        add([command, "missing.json"])
        add([command, "42", "--ring", "prime:101"])
        add([command])
    add(["det", "-"], stdin=HUGE, names={"-": "- <huge.json"})
    add(["det", "huge.json"])
    for seed in (0, 1, 2):
        for n in (1, 2, 5, 8):
            for kind_ring in ((), ("--ring", "prime:101"), ("--kind", "min"),
                              ("--kind", "min", "--ring", "prime:101")):
                for degenerate in ((), ("--allow-degenerate",)):
                    add(["gen", "--seed", str(seed), "--n", str(n), *kind_ring, *degenerate])
    for n in (1, 2, 3):
        add(["gen", "--seed", "4", "--n", str(n), "--ring", "prime:7"])
    add(["gen", "--seed", "4", "--n", "4", "--ring", "prime:7"])  # unsatisfiable
    add(["gen", "--ring", "prime:2147483647"])
    add(["gen", "--kind", "other"])
    for seed in (0, 1, 2, 3):
        for trials, n in ((1, 1), (1, 3), (2, 2)):
            for fmt in FORMATS:
                add(["verify", "--seed", str(seed), "--trials", str(trials), "--n", str(n), *fmt])
    for seed in (0, 1, 2):
        for n in (1, 3, 8):
            for trials in (1, 3):
                for ring in ((), ("--ring", "prime:101"), ("--ring", "prime:2")):
                    for fmt in FORMATS:
                        add(["lemma-ab", "--seed", str(seed), "--n", str(n), "--trials", str(trials),
                             *ring, *fmt])
    for n in ((), ("--n", "1"), ("--n", "2"), ("--n", "4"), ("--n", "6")):
        for fmt in FORMATS:
            add(["canary", *n, *fmt])
    for command in ("gen", "lemma-ab", "verify", "canary", *SPEC_COMMANDS):
        spec = [SPECS["c2"]] if command in SPEC_COMMANDS else []
        for flag in FLAG_ARGS:
            add([command, *spec, *flag], names={SPECS["c2"]: "@c2"})
    for argv in (["verify", "--trials", "0"], ["verify", "--n", "9"], ["verify", "--n", "0"],
                 ["verify", "--seed", "x"], ["lemma-ab", "--trials", "-1"], ["canary", "--n", "0"],
                 ["verify", "--trials", "1001"], ["verify", "--trials", "1000000000"],
                 ["lemma-ab", "--trials", "1000", "--n", "1", "--format", "csv"], ["lemma-ab", "--trials", "1001"],
                 ["lemma-ab", "--trials", "1000000000"],
                 # a non-integer value of each int flag: argparse names the type "int"
                 ["verify", "--trials", "x"], ["verify", "--n", "x"], ["lemma-ab", "--trials", "x"],
                 ["lemma-ab", "--n", "x"], ["gen", "--n", "x"], ["canary", "--n", "x"],
                 ["canary", "--format", "xml"], ["gen", "--n", "9"], ["det", SPECS["c2"], "--format", "csv"],
                 [], ["nosuch"], ["--format", "json"]):
        add(argv, names={SPECS["c2"]: "@c2"})
    return calls


def _without_elapsed(argv, out: str) -> str:
    if not argv or argv[0] != "canary" or not out:
        return out
    if "text" in argv:
        return out
    if "csv" in argv:
        return "".join(line.rpartition(",")[0] + "\n" for line in out.splitlines())
    reports = json.loads(out)
    for r in reports:
        del r["elapsed"]
    return json.dumps(reports)


def _run(argv, stdin) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = err.getvalue()
    except SystemExit as exc:  # argparse: its error line, not its usage layout
        code, errors = exc.code, err.getvalue().splitlines()[-1]
    finally:
        sys.stdin = saved_stdin
    row = json.dumps([code, _without_elapsed(argv, out.getvalue()), errors])
    return hashlib.sha256(row.encode()).hexdigest()[:16]


def run_corpus() -> dict:
    """key -> hash of every call, run in a scratch working directory that
    holds :data:`FILES` and :data:`HUGE`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in {**FILES, "huge.json": HUGE.encode()}.items():
            if data is None:
                Path(tmp, name).mkdir()
            else:
                Path(tmp, name).write_bytes(data)
        os.chdir(tmp)
        try:
            return {key: _run(argv, stdin) for key, (argv, stdin) in corpus().items()}
        finally:
            os.chdir(cwd)


def test_every_row_matches_the_table():
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    got = run_corpus()
    assert len(got) >= 3000
    assert sorted(got) == sorted(pinned), "the generated calls differ from the table's rows"
    changed = [key for key in got if got[key] != pinned[key]]
    assert not changed, f"{len(changed)} rows changed, first: " + "; ".join(
        key[:200] for key in changed[:10])


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    table = run_corpus()
    TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} rows written to {TABLE}")
