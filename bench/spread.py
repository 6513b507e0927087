"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload closed-fp --seeds 1-10 --seconds 30 [--trace 1]

Runs are sequential, one process at a time. For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between the quartiles as a share of the median, and it writes the
same to ``bench/out/spread-<workload>-<first seed>-<last seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    runs, wall = [], []
    for seed in range(first, last + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        stem = f"{args.workload}-seed{seed}-trace{args.trace}"
        wall.append(json.loads((HERE / "out" / f"{stem}.json").read_text())["wall_clock"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)

    summary = {}
    table = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    table.update({f"{name} (not gated)": [w[name] for w in wall] for name in wall[0]})
    for name, values in table.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else None, "values": values}
        share = f"{(q3 - q1) / med:.3f}" if med else "-"
        print(f"{name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  iqr/median {share}")
    failed_share = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(failed_share)}")
    out = HERE / "out" / f"spread-{args.workload}-{first}-{last}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "seeds": [first, last], "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
