"""cauchykit benchmark: one command, three workloads, one JSON result line.

    python3 bench/run.py --workload {suite,closed-q,closed-fp} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``cauchykit`` from ``src/``
next to this directory and nothing else. One process, one thread.

A run replays the workload's fixed operation list in whole rounds until
the next round would overrun ``--seconds``. Each round first sets up
afresh (an import of the package plus the construction of every spec
object the workload uses), and the reference kernel is timed right after
each set-up; ``setup_s`` is the median ratio of set-up to kernel time, in
seconds at the reference speed KERNEL_REF_S. Each operation is timed on
its own, followed by the reference kernel, and its outputs are then
checked by ``checker`` (untimed). With ``--trace 1`` the
program's layers are wrapped by ``tracing`` and the per-layer metrics are
printed instead of the end-to-end ones. Raw per-run records and traces go
to ``bench/out/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import typing
from fractions import Fraction
from pathlib import Path

import checker
import inputs
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUPS_PER_ROUND = 4
KERNELS_PER_SETUP = 4
# The reference kernel's time on the reference host (README). ``setup_s`` is
# set-up time measured in kernel times and expressed at this speed.
KERNEL_REF_S = 0.0025
P31 = inputs.P31


def reference_kernel():
    """Fixed stdlib-only work, timed after every operation: exact rational
    summation with growing denominators (gcd normalisation and bignum
    growth, as in the rational closed forms) and Fermat inversions modulo
    2^31 - 1 (as in the F_p closed forms). ``rel_time`` divides operation
    time by the time of this kernel, measured in the same moments, so a
    host that runs everything slower for a while moves both alike."""
    acc = Fraction(0)
    r = 1
    for k in range(1, 121):
        acc += Fraction(k, 2 * k + 1)
        r = r * pow(k + 2, P31 - 2, P31) % P31
        r = r * pow(k + 3, P31 - 2, P31) % P31
    return acc, r


# ---------------------------------------------------------------------------
# Loading the program


def load_cauchykit(with_cli: bool):
    """Import ``cauchykit`` afresh from ``src/`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "cauchykit" or m.startswith("cauchykit.")]:
        del sys.modules[name]
    ck = importlib.import_module("cauchykit")
    if Path(ck.__file__).parent != SRC / "cauchykit":
        raise ImportError(f"cauchykit was imported from {ck.__file__}, not from {SRC}")
    if with_cli:
        importlib.import_module("cauchykit.cli")
    return ck


def _plain(v):
    """An F_p residue as its int; rationals are already plain Fractions."""
    return v.value if hasattr(v, "p") else v


def _rows(m):
    return [[_plain(e) for e in m.row(i)] for i in range(m.rows)]


# ---------------------------------------------------------------------------
# Workloads. Each has setup(ck) -> list of zero-argument operations and
# check(i, result) -> list of problems with operation i's result.


class Suite:
    """``cauchykit verify`` then ``cauchykit canary``, in process."""

    with_cli = True

    def __init__(self, items):
        self.items = items
        self.verified = set()  # verify outputs already re-derived in full

    def setup(self, ck):
        cli = sys.modules["cauchykit.cli"]
        return [functools.partial(self._op, cli, seed) for seed in self.items]

    @staticmethod
    def _op(cli, seed):
        argv = ["verify", "--seed", str(seed), "--trials", str(inputs.SUITE_TRIALS),
                "--n", str(inputs.SUITE_N), "--format", "json"]
        out, can = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        with contextlib.redirect_stdout(can):
            rc_can = cli.main(["canary"])
        return rc, out.getvalue(), rc_can, can.getvalue()

    def check(self, i, result):
        rc, text, rc_can, can_text = result
        errs = checker.check_canary(rc_can, can_text)
        key = (rc, text)
        if key not in self.verified:
            v_errs = checker.check_verify(
                rc, text, self.items[i], inputs.SUITE_TRIALS, inputs.SUITE_N
            )
            if not v_errs:
                self.verified.add(key)
            errs += v_errs
        return errs


def cauchy_battery(cauchy, spec):
    return {
        "build": cauchy.build(spec),
        "det": cauchy.det_closed(spec),
        "inverse": cauchy.inverse_closed(spec),
        "inverse_entry_sum": cauchy.inverse_entry_sum(spec),
        "adjugate_entry_sum": cauchy.adjugate_entry_sum_closed(spec),
        "bordered_det": cauchy.bordered_det_closed(spec),
        "invertible": cauchy.is_invertible_spec(spec),
    }


def min_battery(minmat, not_invertible, spec):
    s = minmat.normalize(spec)
    out = {"normalized": s, "det": minmat.det_closed(s), "det_zero": minmat.det_zero_predicate(s)}
    for key, fn, arg in (
        ("inverse_entry_sum", minmat.inverse_entry_sum, spec),
        ("column_sums", minmat.inverse_column_sums, s),
    ):
        try:
            out[key] = fn(arg)
        except not_invertible as exc:
            out[key] = type(exc).__name__
    return out


def plain_cauchy(out):
    return {
        "build": _rows(out["build"]),
        "det": _plain(out["det"]),
        "inverse": _rows(out["inverse"]),
        "inverse_entry_sum": _plain(out["inverse_entry_sum"]),
        "adjugate_entry_sum": _plain(out["adjugate_entry_sum"]),
        "bordered_det": _plain(out["bordered_det"]),
        "invertible": out["invertible"].invertible,
    }


def plain_min(out):
    s = out["normalized"]
    return {**out, "normalized": (s.xs, s.ys, s.swapped)}


class ClosedQ:
    """Cauchy battery on a rational spec plus min battery on a min spec."""

    with_cli = False

    def __init__(self, items):
        self.items = items
        self.cases = [
            (checker.CauchyCase(c.xs, c.ys, None), checker.MinCase(m.xs, m.ys)) for c, m in items
        ]

    def setup(self, ck):
        q = ck.RationalRing()
        specs = [(ck.CauchySpec(c.xs, c.ys, q), ck.MinSpec(m.xs, m.ys)) for c, m in self.items]
        cauchy, minmat = sys.modules["cauchykit.cauchy"], sys.modules["cauchykit.minmat"]
        return [
            functools.partial(self._op, cauchy, minmat, ck.NotInvertibleError, cs, ms)
            for cs, ms in specs
        ]

    @staticmethod
    def _op(cauchy, minmat, not_invertible, cs, ms):
        return cauchy_battery(cauchy, cs), min_battery(minmat, not_invertible, ms)

    def check(self, i, result):
        c_case, m_case = self.cases[i]
        return checker.check_cauchy(c_case, plain_cauchy(result[0])) + checker.check_min(
            m_case, plain_min(result[1])
        )


class ClosedFp:
    """Cauchy battery over F_p, p = 2^31 - 1."""

    with_cli = False

    def __init__(self, items):
        self.items = items
        self.cases = [checker.CauchyCase(c.xs, c.ys, P31) for c in items]

    def setup(self, ck):
        f = ck.PrimeField(P31)
        specs = [ck.CauchySpec(c.xs, c.ys, f) for c in self.items]
        cauchy = sys.modules["cauchykit.cauchy"]
        return [functools.partial(cauchy_battery, cauchy, s) for s in specs]

    def check(self, i, result):
        return checker.check_cauchy(self.cases[i], plain_cauchy(result))


WORKLOADS = {"suite": Suite, "closed-q": ClosedQ, "closed-fp": ClosedFp}


# ---------------------------------------------------------------------------
# Measurement


def set_up(workload, tracer):
    """One fresh set-up: import ``cauchykit`` and build the workload's spec
    objects. Returns the operations and the set-up time in seconds."""
    # typing caches Union[...] and Optional[...] of cauchykit's classes, which
    # would keep every earlier import alive and make peak RSS grow with the
    # number of rounds (about 0.25 MiB a round on closed-q). Clear it untimed.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    t0 = time.perf_counter()
    ck = load_cauchykit(workload.with_cli)
    if tracer is not None:
        tracing.install(tracer)
        tracer.request = "setup"
    ops = workload.setup(ck)
    return ops, time.perf_counter() - t0


def measure(workload, seconds, tracer):
    """Whole rounds until the next one would overrun ``seconds``. A round
    sets up SETUPS_PER_ROUND times, each followed by KERNELS_PER_SETUP
    reference kernels, which spreads the set-up samples over the run, and
    then runs every operation of the last set-up once."""
    setup_s, setup_kernel_s, op_ns, kernel_ns = [], [], None, []
    failed = rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            ops, t = set_up(workload, tracer)
            t0 = time.perf_counter()
            for _ in range(KERNELS_PER_SETUP):
                reference_kernel()
            setup_kernel_s.append((time.perf_counter() - t0) / KERNELS_PER_SETUP)
            setup_s.append(t)
        op_ns = op_ns or [[] for _ in ops]
        gc.collect()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter_ns()
            try:
                result = op()
                error = None
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            reference_kernel()
            t2 = time.perf_counter_ns()
            op_ns[i].append(t1 - t0)
            kernel_ns.append(t2 - t1)
            errs = [error] if error else workload.check(i, result)
            if errs:
                failed += 1
                if failed <= 5:
                    print(f"operation {i} failed: {'; '.join(errs)}", file=sys.stderr)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return setup_s, setup_kernel_s, op_ns, kernel_ns, rounds, failed


TAIL_BEYOND = 10


def end_to_end(setup_times, setup_kernel_s, op_ns, kernel_ns):
    """The gated end-to-end metrics (those in BENCHMARK.json). Like
    ``rel_time``, ``setup_s`` is measured in kernel times, which cancels most
    of the host's drift; it is then scaled to seconds at KERNEL_REF_S."""
    ratios = [t / k for t, k in zip(setup_times, setup_kernel_s)]
    return {
        "setup_s": (statistics.median(ratios) * KERNEL_REF_S, "s"),
        "rel_time": (sum(map(sum, op_ns)) / sum(kernel_ns), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def wall_clock(op_ns, setup_times):
    """Raw wall-clock timings, kept in the run record but not gated: they
    follow the shared host's speed, which drifts by a fifth to a third
    over minutes, so their ten-run spread does not hold a bound."""
    per_op_ms = sorted(statistics.median(v) / 1e6 for v in op_ns)
    return {
        "setup_raw_s": statistics.median(setup_times),
        "throughput_per_s": sum(map(len, op_ns)) / (sum(map(sum, op_ns)) / 1e9),
        "call_p50_ms": statistics.median(per_op_ms),
        "call_tail_ms": per_op_ms[len(per_op_ms) - 1 - TAIL_BEYOND],
    }


def per_layer(tr: tracing.Tracer, rounds: int, setups: int):
    def count(layer):
        c = tr.count(layer)
        return c // rounds if c % rounds == 0 else c / rounds

    def ms(*layers):
        return sum(tr.self_ms(layer) for layer in layers) / rounds

    return {
        "ring.inv_calls": (count("ring.inv"), "count"),
        "ring.inv_ms": (ms("ring.inv"), "ms"),
        "cauchy.spec_ms": (tr.self_ms("cauchy.spec", "setup") / setups + ms("cauchy.spec"), "ms"),
        "cauchy.build_ms": (ms("cauchy.build"), "ms"),
        "cauchy.det_closed_ms": (ms("cauchy.det_closed"), "ms"),
        "cauchy.inverse_closed_ms": (ms("cauchy.inverse_closed"), "ms"),
        "cauchy.sums_ms": (ms("cauchy.sums"), "ms"),
        "densela.det_fast_calls": (count("densela.det_fast"), "count"),
        "densela.det_fast_ms": (ms("densela.det_fast"), "ms"),
        "densela.adjugate_ms": (ms("densela.adjugate"), "ms"),
        "densela.inverse_ms": (ms("densela.inverse"), "ms"),
        "densela.matmul_ms": (ms("densela.matmul"), "ms"),
        "minmat.closed_ms": (ms("minmat.closed", "minmat.inverse"), "ms"),
        "minmat.nonsingular_det_ms": (tr.nonsingular_det_ns / 1e6 / rounds, "ms"),
        "verify.check_self_ms": (ms("verify.check"), "ms"),
        "verify.reports": (count("verify.check"), "count"),
        "cli.main_self_ms": (ms("cli.main"), "ms"),
        "canary.run_ms": (ms("canary.run"), "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cauchykit" / "__init__.py").is_file():
        print(f"error: no cauchykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](inputs.GENERATORS[args.workload](args.seed))
    tracer = tracing.Tracer() if args.trace else None
    setup_times, setup_kernel_s, op_ns, kernel_ns, rounds, failed = measure(
        workload, args.seconds, tracer
    )

    metrics = end_to_end(setup_times, setup_kernel_s, op_ns, kernel_ns)
    layers = per_layer(tracer, rounds, len(setup_times)) if tracer is not None else {}
    attempted = rounds * len(op_ns)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_times,
        "setup_kernel_s": setup_kernel_s,
        "op_ns": op_ns,
        "kernel_ns": kernel_ns,
        "metrics": {k: v for k, (v, _) in {**metrics, **layers}.items()},
        "wall_clock": wall_clock(op_ns, setup_times),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed,
                                                   "rounds": rounds})

    shown = layers if tracer is not None else metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
