"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads sweep,calibrate,screen] \\
        --seeds 1-10 [--seconds S] [--trace 0] [--out FILE]

For each workload in turn, runs ``bench/run.py`` once per seed, one run
after another, and prints every result line and, for each metric, the
median and the quartile spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  This is the steadiness test the bounds in BENCHMARK.json are set
against.  ``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.
Exits non-zero at the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,calibrate,screen")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        run_seconds = json.load(f)["run_seconds"]
    parser.add_argument("--seconds", default=str(run_seconds))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **line})
            print(workload, seed, json.dumps(line), flush=True)

        summary = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": metric["unit"],
                             "median": statistics.median(values),
                             "spread": spread(values) if len(values) > 1
                             else 0.0,
                             "values": values}
            print(f"{workload:9s} {name:36s} median "
                  f"{summary[name]['median']:<12.6g} {metric['unit']:8s} "
                  f"spread {summary[name]['spread']:.4f}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
