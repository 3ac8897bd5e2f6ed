"""dockopt benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload {sweep,calibrate,screen} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program under test is the ``src/dockopt`` next to
this directory, never an installed copy.  One client issues calls in a
closed loop, in passes over the workload's items, until S seconds have
passed and at least one pass is complete.
With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` every item runs once untraced and once traced,
in alternating order, and the line carries the per-layer metrics and the
tracing overhead.  End-to-end op times are scaled to a reference
machine speed by a reference task timed between ops (see ``speed.py``);
the unscaled figures go to the result file.  Outputs are checked after
the timed region; a failed check sets ``correct`` to false and the exit
code to 1, and ``failed`` counts the ops whose output failed a check.  A
result file with provenance (and, when traced, the spans) goes to
``bench/results/``.
See bench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; set-up processes inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
SETUP_PROBE = os.path.join(BENCH_DIR, "setup_probe.py")
SETUP_CONFIG = os.path.join(BENCH_DIR, "scenario.yaml")
SETUP_REPEATS = 5
EDGE_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_config_ms": "ms",
    "scenarios.nm_self_s": "s",
    "scenarios.restarts": "count",
    "scenarios.evaluations": "count",
    "scenarios.residual": "sumsq",
    "solver.self_s": "s",
    "solver.self_share": "fraction",
    "solver.starts_per_solve": "count",
    "solver.value_grad_per_solve": "count",
    "solver.cost_evals_per_solve": "count",
    "solver.newton_steps": "count",
    "solver.stages": "count",
    "solver.lhs_ms": "ms",
    "solver.converged_frac": "fraction",
    "objective.scalar_calls": "count",
    "objective.scalar_us_per_call": "us",
    "objective.self_share": "fraction",
    "objective.bulk_ns_per_design": "ns",
    "objective.bulk_bytes_per_design": "B",
    "oracle.ns_per_sample": "ns",
    "oracle.bytes_per_sample": "B",
    "oracle.reliability_correlation_ms": "ms",
    "trace.overhead_frac": "fraction",
}

SCALAR_SPANS = ("objective.gradient_at", "objective.total_cost_arrays",
                "objective.total_cost")


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def weighted_percentile(values: list[float], weights: list[float],
                        q: float) -> float:
    """Smallest value whose cumulative weight reaches q of the total."""
    pairs = sorted(zip(values, weights))
    target = q * math.fsum(weights)
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target:
            return value
    return pairs[-1][0]


def measure_setup(repeats: int) -> dict:
    """Median wall time of fresh processes that import ``dockopt.cli`` and
    load a scenario file.  The caller has imported ``dockopt.cli`` first,
    so a fresh checkout's bytecode caches are already written.  Not
    scaled: import work does not track the reference tasks."""
    env = {k: v for k, v in os.environ.items() if k != "DOCKOPT_SEED"}
    env["PYTHONPATH"] = SRC
    walls, imports, loads = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, SETUP_PROBE, SETUP_CONFIG],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["scenario"] != "general":
            raise RuntimeError(f"set-up loaded scenario {report['scenario']!r}")
        walls.append(wall)
        imports.append(report["import_s"])
        loads.append(report["load_config_ms"])
    return {"setup_s": statistics.median(walls),
            "import_s": statistics.median(imports),
            "load_config_ms": statistics.median(loads),
            "samples": walls}


def _item_order(n_items: int, seconds: float, whole_passes: bool):
    """(pass, item) pairs until ``seconds`` have elapsed and at least one
    pass is complete; with ``whole_passes`` the last pass is finished."""
    deadline = time.perf_counter() + seconds
    p = 0
    while p == 0 or time.perf_counter() < deadline:
        for i in range(n_items):
            if p and not whole_passes and time.perf_counter() >= deadline:
                return
            yield p, i
        p += 1


class Recorder:
    """Executions per item; keeps the first output of each item for the
    checks and verifies that every repeat has the same fingerprint."""

    def __init__(self) -> None:
        self.runs: dict[int, list] = defaultdict(list)
        self.first: dict[int, object] = {}
        self.mismatch: dict[int, str] = {}

    def add(self, i: int, ex) -> None:
        if i in self.first:
            if ex.fingerprint != self.runs[i][0].fingerprint:
                self.mismatch[i] = (f"item {i}: {ex.fingerprint!r} != "
                                    f"{self.runs[i][0].fingerprint!r}")
            ex.output = None
        else:
            self.first[i] = ex.output
        self.runs[i].append(ex)

    def executions(self):
        return [ex for runs in self.runs.values() for ex in runs]

    def ops(self, items) -> int:
        return sum(len(ex.op_seconds) for i in items for ex in self.runs[i])


def untraced_loop(wl, seconds: float, track) -> tuple[Recorder, int]:
    """Closed loop over the items; ``track`` times its reference task
    between ops, and a few times before and after the loop."""
    rec = Recorder()
    passes = 0
    for _ in range(EDGE_PROBES):
        track.probe()
    for p, i in _item_order(len(wl), seconds, whole_passes=False):
        rec.add(i, wl.execute(i, pause=track.pause))
        passes = p + 1
    for _ in range(EDGE_PROBES):
        track.probe()
    return rec, passes


def traced_loop(wl, seconds: float, tracer) -> tuple[Recorder, Recorder, int]:
    from tracing import patched

    plain, traced = Recorder(), Recorder()
    passes = 0
    # Whole passes, so that counts per solve repeat exactly for a seed.
    for p, i in _item_order(len(wl), seconds, whole_passes=True):
        for with_trace in ((False, True) if (p + i) % 2 == 0 else (True, False)):
            if with_trace:
                with patched(tracer):
                    traced.add(i, wl.execute(i, tracer))
            else:
                plain.add(i, wl.execute(i))
        passes = p + 1
    return plain, traced, passes


def _unscaled(seconds: float, t: float) -> float:
    return seconds


def end_to_end(rec: Recorder, setup: dict, rss_mb: float,
               scaled=_unscaled) -> dict:
    """Throughput from the median time of each item; latency percentiles
    over every op, each item weighted equally.  ``scaled(seconds, t)``
    turns a wall time whose midpoint is ``t`` into the reported time."""
    ops = 0
    item_seconds = 0.0
    latencies, weights = [], []
    for runs in rec.runs.values():
        ops += len(runs[0].op_seconds)
        item_seconds += statistics.median(
            scaled(ex.seconds, ex.start + 0.5 * ex.seconds) for ex in runs)
        for ex in runs:
            latencies.extend(scaled(dt, t + 0.5 * dt)
                             for dt, t in zip(ex.op_seconds, ex.op_starts))
            weights.extend([1.0 / len(runs)] * len(ex.op_seconds))
    return {
        "setup_s": setup["setup_s"],
        "ops_per_s": ops / item_seconds,
        "op_p50_ms": weighted_percentile(latencies, weights, 0.5) * 1e3,
        "op_p90_ms": weighted_percentile(latencies, weights, 0.9) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced: Recorder, plain: Recorder, wl, setup: dict,
              passes: int) -> dict:
    from workloads import BULK_BYTES_PER_DESIGN, ORACLE_BYTES_PER_SAMPLE

    solves = [r for ex in traced.executions() for r in ex.solves]
    n_solves = tracer.calls("solver.multi_start_solve")
    solve_ns = tracer.total_ns("solver.multi_start_solve")
    self_ns = tracer.self_times_ns()
    scalar_calls = sum(tracer.calls(n) for n in SCALAR_SPANS)
    scalar_ns = sum(tracer.total_ns(n) for n in SCALAR_SPANS)
    designs = tracer.calls("objective.bulk") * wl.sizes.get("designs_per_round", 0)
    samples = tracer.calls("screen.round") * wl.sizes.get("samples_per_round", 0)
    correlations = tracer.calls("oracle.reliability_correlation")
    traced_s = math.fsum(ex.seconds for ex in traced.executions())
    plain_s = math.fsum(ex.seconds for ex in plain.executions())
    quality = wl.quality(traced.first)
    cal_passes = passes if tracer.calls("scenarios.calibrate") else 0
    return {
        "cli.import_s": setup["import_s"],
        "cli.load_config_ms": setup["load_config_ms"],
        "scenarios.nm_self_s": _per(self_ns.get("scenarios.minimize", 0) / 1e9,
                                    cal_passes),
        "scenarios.restarts": _per(tracer.calls("scenarios.minimize"),
                                   cal_passes),
        "scenarios.evaluations": quality.get("evaluations", 0),
        "scenarios.residual": quality.get("residual", 0.0),
        "solver.self_s": _per(self_ns.get("solver.multi_start_solve", 0) / 1e9,
                              n_solves),
        "solver.self_share": _per(self_ns.get("solver.multi_start_solve", 0),
                                  solve_ns),
        "solver.starts_per_solve": _per(tracer.counts["solver.starts"],
                                        n_solves),
        "solver.value_grad_per_solve": _per(
            tracer.calls("objective.gradient_at"), n_solves),
        "solver.cost_evals_per_solve": _per(
            tracer.calls("objective.total_cost_arrays"), n_solves),
        "solver.newton_steps": _per(sum(r.iterations for r in solves),
                                    n_solves),
        "solver.stages": _per(sum(len(r.outer_trace) for r in solves),
                              n_solves),
        "solver.lhs_ms": _per(tracer.total_ns("solver.lhs") / 1e6, n_solves),
        "solver.converged_frac": _per(sum(r.converged for r in solves),
                                      n_solves),
        "objective.scalar_calls": _per(scalar_calls, n_solves),
        "objective.scalar_us_per_call": _per(scalar_ns / 1e3, scalar_calls),
        "objective.self_share": _per(scalar_ns, solve_ns),
        "objective.bulk_ns_per_design": _per(
            tracer.total_ns("objective.bulk"), designs),
        "objective.bulk_bytes_per_design": BULK_BYTES_PER_DESIGN if designs
        else 0,
        "oracle.ns_per_sample": _per(tracer.outer_ns("oracle."), samples),
        "oracle.bytes_per_sample": ORACLE_BYTES_PER_SAMPLE if samples else 0,
        "oracle.reliability_correlation_ms": _per(
            tracer.total_ns("oracle.reliability_correlation") / 1e6,
            correlations),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(wl, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": wl.sizes,
        "load": "closed loop, one client, one process",
    }


def run(workload: str, seed: int, seconds: float, trace: int,
        size: str = "full", out_dir: str | None = None) -> dict:
    """Run one workload and return the result line as a dict."""
    import checks
    import dockopt.cli  # noqa: F401  (writes bytecode caches before set-up)
    import workloads
    from speed import SpeedTrack
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload](seed, workloads.SIZES[size])
    setup = measure_setup(SETUP_REPEATS if size == "full" else 1)
    wl.warm_up()
    tracer = track = None
    if trace:
        tracer = Tracer()
        plain, traced, passes = traced_loop(wl, seconds, tracer)
        recorders = (plain, traced)
    else:
        track = SpeedTrack(wl.speed)
        plain, passes = untraced_loop(wl, seconds, track)
        recorders = (plain,)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each problem names an item; every op of that item counts as failed.
    bad = {i: m for rec in recorders for i, m in rec.mismatch.items()}
    if trace:
        bad.update({i: f"item {i}: traced output {runs[0].fingerprint!r} != "
                       f"untraced {plain.runs[i][0].fingerprint!r}"
                    for i, runs in traced.runs.items()
                    if runs[0].fingerprint != plain.runs[i][0].fingerprint})
    for i in sorted(plain.first):
        try:
            wl.check_item(i, plain.first[i])
        except checks.CheckFailed as exc:
            bad[i] = f"item {i}: {exc}"
    problems = [bad[i] for i in sorted(bad)]

    raw = None
    if trace:
        values = per_layer(tracer, traced, plain, wl, setup, passes)
        units = PER_LAYER
    else:
        values = end_to_end(plain, setup, rss_mb, track.scaled)
        raw = end_to_end(plain, setup, rss_mb)
        units = END_TO_END
    executions = [ex for rec in recorders for ex in rec.executions()]
    line = {
        "correct": not problems,
        "attempted": sum(len(ex.op_seconds) for ex in executions),
        "failed": sum(rec.ops(bad) for rec in recorders),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }

    out_dir = out_dir or RESULTS
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}")
    statuses = Counter(r.status.value for ex in executions for r in ex.solves)
    record = {"result": line, "problems": problems, "passes": passes,
              "solve_statuses": dict(statuses),
              "unscaled_metrics": raw,
              "speed": track.summary() if track else None,
              "setup_samples_s": setup["samples"],
              "provenance": provenance(wl, seed, seconds, trace),
              "items": {i: [ex.seconds for ex in runs]
                        for i, runs in plain.runs.items()}}
    if trace:
        tracer.dump(stem + "-spans.jsonl")
        record["spans"] = os.path.basename(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "calibrate", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dockopt", "__init__.py")):
        print(f"no dockopt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, SRC)
    # One CPU for the loop, the reference task and the set-up processes,
    # so that the reference task sees the speed the workload sees.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    line = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
