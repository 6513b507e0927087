"""Time cold starts of cauchykit in one or more checkouts.

Each run is a fresh interpreter under ``python -S`` (no site hook, no .pth
file) running one of two commands:

* ``import``: ``python -S -c "import cauchykit"``
* ``verify``: ``python -S -m cauchykit verify --seed 1 --trials 1 --n 3``

in each of two bytecode states:

* ``none``: ``PYTHONDONTWRITEBYTECODE=1`` on a copy of the checkout's
  ``src`` that holds no ``__pycache__``, so every cauchykit module is
  compiled from source on every run, while the standard library reads its
  installed bytecode. This is what the benchmark's set-up pays.
* ``cached``: ``PYTHONPYCACHEPREFIX`` pointing at a temporary tree that an
  untimed run of the same command wrote first, so nothing is compiled.

The runs alternate between checkouts, and the order of the checkouts flips
from one round to the next. For each checkout, command and state the script
prints the median wall time and the interquartile range, in ms. The sources
are copied into a temporary directory first, so nothing is written into a
checkout::

    python3 tools/cold_start.py /path/to/parent /path/to/change --runs 30

The interpreter that runs the script is the one timed. Standard library
only; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "import": ["-c", "import cauchykit"],
    "verify": ["-m", "cauchykit", "verify", "--seed", "1", "--trials", "1", "--n", "3"],
}
STATES = ("none", "cached")


def environment(src: Path, state: str, pycache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    if state == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(command: str, env: dict, cwd: Path) -> float:
    """Wall time in ms of one cold run; a run that fails stops the script."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", *COMMANDS[command]], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path, help="repository roots, each with src/cauchykit")
    parser.add_argument("--runs", type=int, default=30, help="timed runs per checkout, command and state")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4, for quartiles")
    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        copies = []
        for k, checkout in enumerate(args.checkouts):
            src = Path(tmp, str(k), "src")
            shutil.copytree(checkout / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.append((src, Path(tmp, str(k), "pycache")))
        for src, pycache in copies:  # write the cached state's bytecode
            for command in COMMANDS:
                run_once(command, environment(src, "cached", pycache), src.parent)
        times = {}
        for r in range(args.runs):
            order = list(enumerate(copies))
            if r % 2:
                order.reverse()
            for command in COMMANDS:
                for state in STATES:
                    for k, (src, pycache) in order:
                        ms = run_once(command, environment(src, state, pycache), src.parent)
                        times.setdefault((k, command, state), []).append(ms)
    print(f"{args.runs} alternating cold runs each, {sys.executable} -S")
    print(f"{'checkout':<40} {'command':<7} {'bytecode':<8} {'median ms':>9}  IQR ms")
    for (k, command, state), samples in times.items():
        q1, med, q3 = statistics.quantiles(samples, n=4)
        print(f"{str(args.checkouts[k]):<40} {command:<7} {state:<8} {med:>9.1f}  {q1:.1f}-{q3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
