"""Command-line front end.

Subcommands either compute (build, det, inv, gen) or verify (everything
else). Verification subcommands print reports carrying both the closed
form and the oracle value; exit status 0 means every report passed, 1
means some identity check failed, 2 means the input was unusable, and
141 means the output could not be written: the reader closed stdout before
it was written, or stdout was closed from the start.

A subcommand takes only the flags its handler reads; any other exits 2.
``--format`` is json|text for det, json|csv|text for the verification
subcommands; build, inv and gen print JSON only.

Specs are JSON: {"kind": "cauchy"|"min", "ring": "rational"|{"prime": p},
"xs": [...], "ys": [...]}. The SPEC argument is a file path, ``-`` for
stdin, or the JSON text itself when it starts with ``{``, ``[`` or ``"``
or is a JSON scalar that names no file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import reprlib
import sys

from . import canary as canary_mod
from . import cauchy, minmat, verify
from .densela import matrix_to_json
from .ring import CauchyKitError, PrimeField, RationalRing, RingContext

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout before the output was written


def _parse_ring(text: str) -> RingContext:
    if text == "rational":
        return RationalRing()
    if text.startswith("prime:"):
        try:
            return PrimeField(int(verify._bounded_scalar_text(text.split(":", 1)[1])))
        except ValueError as exc:
            raise verify.SpecFormatError(f"bad ring {reprlib.repr(text)}: {exc}") from exc
    raise verify.SpecFormatError(f'ring must be "rational" or "prime:P", got {reprlib.repr(text)}')


MAX_TRIALS = 1000  # verify --trials 1000 --n 8, the largest call, runs in a few seconds


def _int_in(lo: int, hi: float, what: str):
    """An argparse type for an int in lo..hi, ``what`` its out-of-range
    message. It is named ``int``, so a non-integer value reads "invalid int
    value" whichever flag it came from."""

    def check(text: str) -> int:
        v = int(text)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(what)
        return v

    check.__name__ = "int"
    return check


def _loads(text: str):
    # JSON integers are scalar text too, bounded before int() parses them
    return json.loads(text, parse_int=lambda s: int(verify._bounded_scalar_text(s)))


def _read_bounded(fh) -> str:
    text = fh.read(verify._MAX_SPEC_TEXT + 1)
    if len(text) > verify._MAX_SPEC_TEXT:
        raise verify.SpecFormatError(f"spec longer than {verify._MAX_SPEC_TEXT} characters")
    return text


def _read_spec_arg(arg: str):
    """The parsed JSON of a SPEC argument, of any type: spec_from_json
    rejects one that is not an object."""
    try:
        if arg.lstrip().startswith(("{", "[", '"')):
            return _loads(arg)
        if arg == "-":
            if sys.stdin is None:  # the interpreter started with descriptor 0 closed
                raise verify.SpecFormatError("stdin is closed")
            return _loads(_read_bounded(sys.stdin))
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = _read_bounded(fh)
        except FileNotFoundError:
            try:  # a JSON scalar such as 42 that names no file is taken as JSON
                return _loads(arg)
            except json.JSONDecodeError:
                pass
            raise
        return _loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise verify.SpecFormatError(f"spec is not valid UTF-8 JSON: {exc}") from exc


def _load_spec(args, kind: str | None = None, prepare=None):
    """The SPEC argument's spec, which must be of ``kind`` if given, mapped by ``prepare`` if given."""
    spec = verify.spec_from_json(
        _read_spec_arg(args.spec),
        default_ring=_parse_ring(args.ring),
        negate_ys=args.minus_convention,
    )
    if kind is not None and isinstance(spec, minmat.MinSpec) != (kind == "min"):
        raise verify.SpecFormatError(f"this subcommand needs a {kind} spec")
    return spec if prepare is None else prepare(spec)


_CONTAINERS = (list, tuple, dict)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, at the
    speed of json's C encoder, which json itself skips when given an indent.

    A list, tuple or dict whose members are all strings, numbers, booleans
    or None is laid out by one call of a C encoder made for its depth: its
    item separator is "," plus that depth's newline and indent, and its keys
    are sorted. Any other container is walked here, member by member, and a
    walked container object met again at the same depth reuses its text. The
    encoders and that memo live for one call. A key that is not a string is
    written by the C encoder, as json writes it. Without the ``_json``
    accelerator this is plain ``json.dumps``."""
    make = json.encoder.c_make_encoder
    if make is None or not isinstance(obj, _CONTAINERS):
        return json.dumps(obj, indent=2, sort_keys=True)
    esc, default, encoders, memo = json.encoder.encode_basestring_ascii, json.JSONEncoder().default, [], {}

    def lay(o, depth):  # the text of the container o, whose members sit depth levels in
        while len(encoders) <= depth:
            sep = ",\n" + "  " * len(encoders)
            encoders.append((sep, make(None, default, esc, None, ": ", sep, True, False, True)))
        sep, enc = encoders[depth]
        is_dict = isinstance(o, dict)
        if _SCALARS.issuperset(map(type, o.values() if is_dict else o)):
            text = "".join(enc(o, 0))
            return text[0] + sep[1:] + text[1:-1] + sep[1:-2] + text[-1] if o else text
        key = id(o), depth
        if key not in memo:  # walked: each member after its key, a non-empty container laid out below
            items = sorted(o.items()) if is_dict else [(None, v) for v in o]
            memo[key] = "[{"[is_dict] + sep[1:] + sep.join([
                ((esc(k) if type(k) is str else "".join(enc({k: 0}, 0))[1:-4]) + ": " if is_dict else "")
                + (lay(v, depth + 1) if isinstance(v, _CONTAINERS) and v
                   else esc(v) if type(v) is str else "".join(enc(v, 0)))
                for k, v in items]) + sep[1:-2] + "]}"[is_dict]
        return memo[key]

    return lay(obj, 1)


def _emit_reports(reports, fmt: str, envelope: dict | None = None) -> int:
    """Print ``reports`` in ``fmt`` and return their exit code."""
    if fmt == "json":
        dicts = [r.to_json_dict() for r in reports]
        if envelope is not None:
            passed = sum(r.passed for r in reports)
            print(_dump({**envelope, "reports": dicts, "passed": passed,
                         "failed": len(reports) - passed, "ok": passed == len(reports)}))
        elif len(dicts) == 1:
            print(_dump(dicts[0]))
        else:
            print(_dump(dicts))
    elif fmt == "csv":
        import csv

        w = csv.writer(sys.stdout)
        w.writerow(["identity", "lhs", "rhs", "pass", "seed"])
        for r in reports:
            w.writerow([r.identity, r.lhs, r.rhs, str(r.passed).lower(), r.seed])
    else:
        for r in reports:
            state = "PASS" if r.passed else "FAIL"
            print(f"{r.identity}: lhs={r.lhs} rhs={r.rhs} {state}")
        if len(reports) > 1:
            bad = sum(not r.passed for r in reports)
            print(f"{len(reports) - bad}/{len(reports)} passed")
    return _exit_code_for(reports)


def _exit_code_for(reports) -> int:
    return EXIT_OK if all(r.passed for r in reports) else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    ctx = _parse_ring(args.ring)
    if args.kind == "min":
        if not isinstance(ctx, RationalRing):
            raise verify.SpecFormatError("min specs are rational-only")
        if args.allow_degenerate:
            raise verify.SpecFormatError("--allow-degenerate applies to cauchy specs only")
        spec = verify.random_min_spec(rng, args.n)
    else:
        spec = verify.random_cauchy_spec(rng, ctx, args.n, strongly_distinct=not args.allow_degenerate)
        if args.allow_degenerate:
            spec = verify.force_repeated_value(rng, spec)
    print(_dump(verify.spec_to_json(spec)))
    return EXIT_OK


def cmd_matrix(args) -> int:
    kind, matrix_of = args.runs
    print(_dump(matrix_to_json(matrix_of(_load_spec(args, kind)))))
    return EXIT_OK


def cmd_det(args) -> int:
    spec = _load_spec(args, "cauchy")
    value = spec.ctx.render(cauchy.det_closed(spec))
    if args.format == "text":
        print(value)
    else:
        print(_dump({"det": value, "spec_echo": verify.spec_to_json(spec)}))
    return EXIT_OK


def cmd_check(args) -> int:
    identity, kind, prepare = args.runs
    return _emit_reports([verify.check_identity(identity, _load_spec(args, kind, prepare))], args.format)


def cmd_lemma_ab(args) -> int:
    rng = random.Random(args.seed)
    ctx = _parse_ring(args.ring)
    reports = [verify.random_lemma_ab(rng, ctx, args.n, args.seed) for _ in range(args.trials)]
    return _emit_reports(reports, args.format)


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.seed, args.trials, args.n)
    envelope = {"command": "verify", "seed": args.seed, "trials": args.trials, "n_max": args.n}
    return _emit_reports(reports, args.format, envelope)


def cmd_canary(args) -> int:
    sizes = [n for n in (3, 6, 9, 12) if n <= args.n] or [args.n]
    reports = [r for n in sizes for r in canary_mod.run_canary(canary_mod.hilbert_spec(n))]
    if args.format == "json":
        print(_dump([vars(r) for r in reports]))
    elif args.format == "text":
        print(f"{'n':>3} {'method':>12} {'entry_sum_residual':>20} {'identity_residual':>20}")
        for r in reports:
            print(f"{r.n:>3} {r.method:>12} {r.entry_sum_residual:>20.6e} {r.identity_residual:>20.6e}")
    else:
        print(canary_mod.CSV_HEADER)
        for r in reports:
            print(r.csv_row())
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per process; parse_args makes a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchykit",
        description="Exact Cauchy/min matrix identities, verified against brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {  # a subcommand registers only the flags it reads; argparse rejects the rest
        "spec": dict(help="spec file path, '-' for stdin, or inline JSON"),
        "--ring": dict(default="rational", help="rational | prime:P (default rational)"),
        "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
        "--trials": dict(type=_int_in(1, MAX_TRIALS, f"trial count must be in 1..{MAX_TRIALS}"),
                         default=20, help=f"random trials, 1..{MAX_TRIALS} (default 20)"),
        "--n": dict(type=_int_in(1, 8, "size bound must be in 1..8"), default=6,
                    help="max random size, 1..8 (default 6)"),
        "--kind": dict(choices=("cauchy", "min"), default="cauchy", help="spec kind to generate"),
        "--minus-convention": dict(
            action="store_true", help="negate the ys on ingestion (input uses 1/(x - y) entries)"
        ),
        "--allow-degenerate": dict(
            action="store_true", help="skip the strong-distinctness rejection and force a repeat"
        ),
        "--format": dict(choices=("json", "csv", "text"), default="json", help="output format"),
    }
    overrides = {  # (subcommand, flag): settings that differ from the flag's row above
        ("canary", "--n"): dict(type=_int_in(1, float("inf"), "must be at least 1"), default=12, help=(
            "largest Hilbert size; the ladder 3, 6, 9, 12 is filtered to <= n (default 12)")),
        ("det", "--format"): dict(choices=("json", "text"), default="json", help="output format"),
    }
    spec_flags = ("spec", "--ring", "--minus-convention")

    def check(identity, kind, help_text, prepare=None):  # a cmd_check row
        return cmd_check, spec_flags + ("--format",), help_text, (identity, kind, prepare)

    # name: (handler, the flags it reads, help, what it runs, as cmd_matrix and cmd_check read it)
    specs = {
        "gen": (cmd_gen, ("--ring", "--seed", "--n", "--kind", "--allow-degenerate"),
                "emit a random spec", None),
        "build": (cmd_matrix, spec_flags, "build the matrix for a spec",
                  (None, verify.build_matrix)),
        "det": (cmd_det, spec_flags + ("--format",), "closed-form determinant", None),
        "inv": (cmd_matrix, spec_flags, "closed-form inverse matrix",
                ("cauchy", cauchy.inverse_closed)),
        "invsum": check("inverse_entry_sum", "cauchy", "check the inverse entry-sum identity"),
        "adjsum": check("adjugate_entry_sum", "cauchy", "check the adjugate entry-sum identity"),
        "border": check("bordered_det", "cauchy", "check the bordered-determinant identity"),
        "lemma-ab": (cmd_lemma_ab, ("--ring", "--seed", "--trials", "--n", "--format"),
                     "check the weighted trace identity on random A, B", None),
        # the determinant closed form wants each vector ascending but no x/y swap
        "min-det": check("min_det", "min", "check the min-matrix determinant closed form",
                         lambda spec: minmat.MinSpec(sorted(spec.xs), sorted(spec.ys))),
        "min-invsum": check("min_inverse_entry_sum", "min", "check the min-matrix inverse entry sum"),
        "min-colsums": check("min_inverse_column_sums", "min",
                             "check the min-matrix inverse column sums", minmat.normalize),
        "verify": (cmd_verify, ("--seed", "--trials", "--n", "--format"),
                   "run the full seeded identity suite", None),
        "canary": (cmd_canary, ("--n", "--format"),
                   "float ill-conditioning canary on Hilbert matrices", None),
    }
    for name, (handler, reads, help_text, runs) in specs.items():
        p = sub.add_parser(name, help=help_text)
        for flag in reads:
            p.add_argument(flag, **overrides.get((name, flag), flags[flag]))
        p.set_defaults(handler=handler, runs=runs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Exact results may pass Python's 4300-digit int-to-str limit: lift it
    # while the command runs, as spec parsing bounds scalar text itself, and
    # restore it after, since main also runs in-process.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args)
        if sys.stdout is None:  # descriptor 1 was closed at start, so print wrote nothing
            return EXIT_PIPE
        sys.stdout.flush()  # a closed stdout shows up here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader is gone: stdout to devnull, so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (CauchyKitError, OSError) as exc:
        try:  # stderr is line-buffered, so a descriptor that refuses writes fails here
            sys.stderr.write(f"error: {exc}\n")
        except (AttributeError, OSError):  # stderr is closed (None or refusing): the code alone tells
            pass
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
