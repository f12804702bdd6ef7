"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/report.py --seeds 1 2 3 4 5

Each (workload, seed) is one ``run.py --trace 0`` in a fresh process, for
every workload in ``BENCHMARK.json`` and its ``run_seconds``.  For
each workload it prints, per metric and with its unit, the median, the
quartiles and the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound in ``BENCHMARK.json``, and each run's value; then the fail
rate (ops without a verified output over attempted ops, ``1 - verified_ratio``)
with the op count and the program errors among them; then failures per
input family, one op per item and seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    summary = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), summary


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        attempted = sum(r["attempted"] for r, _ in runs)
        unverified = sum(s["unverified"] for _, s in runs)
        errors = sum(r["failed"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs)
        print(f"== {workload}  seeds {args.seeds}  {seconds:g} s per run  "
              f"correct={correct}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            median = statistics.median(values)
            line = f"  {name:15s} median {median:10.4f} {unit:4s}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += (f"  quartiles {q1:.4f} .. {q3:.4f}  spread "
                         f"{(q3 - q1) / median:.3f} (bound {bounds[name]})")
            print(line + "\n    runs: " + " ".join(f"{v:.4g}" for v in values))
        per_run = sorted(r["attempted"] for r, _ in runs)
        print(f"  {'fail_rate':15s} {unverified / attempted:.4f} ratio  ({unverified} "
              f"of {attempted} ops, {errors} of them program errors; latencies "
              f"per run over its {per_run[0]} to {per_run[-1]} attempted ops)")
        families = defaultdict(lambda: [0, 0, defaultdict(int)])
        for _, summary in runs:
            for family, row in summary["by_family"].items():
                families[family][0] += row["attempted"]
                families[family][1] += row["failed"]
                for reason, count in row["reasons"].items():
                    families[family][2][reason] += count
        for family, (n, bad, reasons) in families.items():
            why = ", ".join(f"{k} {v}" for k, v in sorted(reasons.items()))
            print(f"    {family:30s} failed {bad:4d} of {n:4d}  {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
