"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wl6_codesign --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end
metric its median over the runs and the distance between the first and
third quartile as a share of the median, next to a third of the metric's
bound.  With ``--out`` the raw per-run reports are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(report)
        print(f"seed {seed}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']}",
              file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound/3':>8}")
    worst = 0.0
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:<18} {median:>12.4f} {spread:>8.3f} {bound / 3:>8.3f}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
