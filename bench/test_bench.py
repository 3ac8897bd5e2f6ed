"""Smoke tests of the benchmark itself: metric names and units, and that
each correctness check rejects a corrupted output.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from dockopt import DesignVector, SimulationReport, total_cost  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

SMOKE = workloads.SIZES["smoke"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "calibrate", "screen"])
def test_every_metric_emitted_with_unit(workload, trace, tmp_path):
    line = run.run(workload, seed=3, seconds=0.01, trace=trace, size="smoke",
                   out_dir=str(tmp_path))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json")
                        .read_text())
    assert record["provenance"]["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert record["provenance"]["seed"] == 3


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_for_a_seed(tmp_path):
    first = run.run("calibrate", 5, 0.01, 1, "smoke", str(tmp_path))
    again = run.run("calibrate", 5, 0.01, 1, "smoke", str(tmp_path))
    for name in ("solver.value_grad_per_solve", "solver.starts_per_solve",
                 "scenarios.evaluations", "scenarios.residual"):
        assert first["metrics"][name] == again["metrics"][name]


@pytest.fixture(scope="module")
def sweep_solve():
    wl = workloads.Sweep(1, SMOKE)
    result = wl.execute(0).output
    ref = checks.reference_optimum(wl.weights[0], wl.coeff, wl.bounds, wl.cons)
    return wl, result, ref


def test_solve_check_accepts_solver_output(sweep_solve):
    wl, result, ref = sweep_solve
    checks.check_solve(result, wl.weights[0], wl.coeff, wl.bounds, wl.cons, ref)


def _toward_centre(x, wl):
    """Move the box-only variables u and e a tenth of the way to the
    centre: still feasible, but no longer optimal."""
    lo, hi = wl.bounds.lower, wl.bounds.upper
    return {"u": x.u + 0.1 * ((lo.u + hi.u) / 2 - x.u),
            "e": x.e + 0.1 * ((lo.e + hi.e) / 2 - x.e)}


@pytest.mark.parametrize("change", [
    _toward_centre,
    lambda x, wl: {"A": wl.bounds.upper.A + 0.01},
    lambda x, wl: {"eta": 0.0},
], ids=["worse-cost", "outside-box", "violates-g2"])
def test_solve_check_rejects_perturbed_x(sweep_solve, change):
    wl, result, ref = sweep_solve
    moved = dataclasses.replace(result.x_star, **change(result.x_star, wl))
    bad = dataclasses.replace(result, x_star=moved,
                              objective=total_cost(moved, wl.weights[0],
                                                   wl.coeff))
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(bad, wl.weights[0], wl.coeff, wl.bounds, wl.cons,
                           ref)


def test_solve_check_rejects_wrong_reported_cost(sweep_solve):
    wl, result, ref = sweep_solve
    bad = dataclasses.replace(result, objective=dataclasses.replace(
        result.objective, J=result.objective.J - 1e-3))
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(bad, wl.weights[0], wl.coeff, wl.bounds, wl.cons,
                           ref)


@pytest.fixture(scope="module")
def calibration():
    wl = workloads.Calibrate(2, SMOKE)
    return wl, wl.execute(0).output


def test_calibration_check_accepts_output(calibration):
    wl, result = calibration
    checks.check_calibration(result, wl.scenarios[0], wl.settings, wl.budget)


def test_calibration_check_rejects_perturbed_x(calibration):
    wl, result = calibration
    x = result.x_star.as_tuple()
    bad = dataclasses.replace(result, x_star=DesignVector(x[0], x[1] + 1e-6,
                                                          *x[2:]))
    with pytest.raises(checks.CheckFailed):
        checks.check_calibration(bad, wl.scenarios[0], wl.settings, wl.budget)


def test_calibration_check_rejects_wrong_residual(calibration):
    wl, result = calibration
    bad = dataclasses.replace(result, residual=result.residual * 0.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_calibration(bad, wl.scenarios[0], wl.settings, wl.budget)


@pytest.fixture(scope="module")
def screen():
    wl = workloads.Screen(4, SMOKE)
    return wl, wl.execute(0).output


def test_screen_checks_accept_output(screen):
    wl, _ = screen
    wl.check_item(0, wl.execute(0).output)


def test_bulk_check_rejects_perturbed_value(screen):
    wl, (values, _, _) = screen
    bad = values.copy()
    bad[wl.check_rows[0]] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_bulk(bad, wl.batches[0], wl.w, wl.coeff, wl.check_rows)


def test_simulation_check_rejects_wrong_rate(screen):
    wl, (_, report, _) = screen
    bad = SimulationReport(success_rate=report.success_rate - 0.05,
                           ci_halfwidth_95=report.ci_halfwidth_95,
                           samples=report.samples)
    with pytest.raises(checks.CheckFailed):
        checks.check_simulation(bad, wl.sim[0].geometry.clearance, wl.sigma_c)


def test_correlation_check_rejects_weak_correlation():
    checks.check_correlation(0.99)
    with pytest.raises(checks.CheckFailed):
        checks.check_correlation(0.95)


def test_repeat_with_other_output_is_reported():
    rec = run.Recorder()
    rec.add(0, workloads.Execution(1.0, [1.0], fingerprint=(1.0,)))
    rec.add(0, workloads.Execution(1.0, [1.0], fingerprint=(1.5,)))
    assert len(rec.mismatch) == 1


def test_speed_scale_uses_nearby_reference_times(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW_S", 1.0)
    track = speed.SpeedTrack("newton")
    track.times = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    track.seconds = [0.02, 0.02, 0.02, 0.01, 0.01, 0.05, 0.01, 0.01]
    ref = track.reference_s
    # The window around t=11 holds five probes; the trimmed mean drops
    # the slow outlier and the fastest one.
    assert track.scaled(2.0, 11.0) == pytest.approx(2.0 * ref / 0.01)
    # Three probes lie near t=0.5; the two nearest later ones widen the
    # window to five, and the trim leaves 0.01, 0.02 and 0.02.
    assert track.scale(0.5) == pytest.approx(ref / (0.05 / 3))


def test_pause_probes_at_most_once_per_interval(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 3600.0)
    track = speed.SpeedTrack("bulk")
    assert track.pause() > 0.0
    track.pause()
    assert len(track.seconds) == 1


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    monkeypatch.setattr(workloads, "SIZES", {"full": SMOKE})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(checks, "MIN_CORRELATION", 1.0)
    code = run.main(["--workload", "screen", "--seed", "1", "--seconds",
                     "0.01", "--trace", "0"])
    assert code != 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed",
                                             "1", "--seconds", "1", "--trace",
                                             "0"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
