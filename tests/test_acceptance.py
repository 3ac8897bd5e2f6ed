"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (prints are captured without ``-s``).  The calibration used by
criteria 5 and 6 runs once per session through the command-line interface.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from dockopt import (ConstraintSet, DesignVector, DockGeometry,
                     KinematicProfile, ObjectiveCoefficients, SimulationConfig,
                     SolverSettings, WeightVector, control_fidelity,
                     default_bounds, docking_tolerance, entry_area_fraction,
                     rayleigh_success_probability, reference_coefficients,
                     reliability_correlation, saturate, simulate_docking)
from dockopt.cli import main
from dockopt.objective import gradient_at, total_cost_arrays
from dockopt.scenarios import builtin_scenarios, scenario_by_name
from dockopt.solver import multi_start_solve
from helpers import (grid_min_cost, grid_resolution_slack,
                     quadrature_entry_fraction)

BOUNDS = default_bounds()
CONS = ConstraintSet()

CALIBRATION_BUDGET = 2000
CALIBRATION_SOLVER = {"multistart_count": 4, "seed": 0}


@pytest.fixture(scope="session")
def calibration_record(tmp_path_factory):
    """Criterion 5's calibration, run once through the CLI."""
    tmp = tmp_path_factory.mktemp("calibration")
    record_path = tmp / "calibration.json"
    config_path = tmp / "calibrate.yaml"
    config_path.write_text(yaml.safe_dump({
        "scenario": "general",
        "solver": CALIBRATION_SOLVER,
        "output": {"result": str(record_path)},
    }), encoding="utf-8")
    started = time.perf_counter()
    code = main(["calibrate", str(config_path),
                 "--budget", str(CALIBRATION_BUDGET)])
    elapsed = time.perf_counter() - started
    assert code == 0
    record = json.loads(record_path.read_text())
    record["elapsed_seconds"] = elapsed
    return record


def test_criterion_1_entry_area_formula():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        theta = np.sort(rng.uniform(0.0, 2 * math.pi, 2))
        phi = np.sort(rng.uniform(0.0, math.pi, 2))
        geom = DockGeometry(theta[0], theta[1], phi[0], phi[1], 0.0)
        oracle = quadrature_entry_fraction(*theta, *phi)
        worst = max(worst, abs(entry_area_fraction(geom) - oracle))
    assert worst < 1e-9

    hemisphere = DockGeometry(0.0, 2 * math.pi, 0.0, math.pi / 2, 0.0)
    # 0.5 exactly up to one ulp of the IEEE closed-form evaluation
    assert abs(entry_area_fraction(hemisphere) - 0.5) < 1e-15

    low = entry_area_fraction(DockGeometry(0.0, math.pi, math.pi / 4,
                                           math.pi / 2, 0.0))
    high = entry_area_fraction(DockGeometry(0.0, 2 * math.pi, 0.0,
                                            3 * math.pi / 4, 0.0))
    assert abs(low - 0.177) < 5e-3
    assert abs(high - 0.855) < 5e-3

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: entry area vs quadrature (worst {worst:.2e}, "
          f"hemisphere exact, span bounds within 5e-3) in {elapsed:.2f}s")


def test_criterion_2_derived_variable_goldens():
    assert saturate(0.5) == 0.5
    assert saturate(3.7) == 1.0
    assert saturate(-0.2) == 0.0

    assert control_fidelity(KinematicProfile(6, 0.1, 1.0, 1.0), 0.04) == 1.0
    assert control_fidelity(KinematicProfile(1, 10.0, 1.0, 1.0), 0.01) \
        == (1.0 * (1 / 6) + 1.0 * 0.01) / 2.0
    assert control_fidelity(KinematicProfile(3, 0.5, 2.0, 1.0), 0.0625) == 0.5

    assert docking_tolerance(0.2, 0.1) == 1.0
    assert docking_tolerance(0.1, 0.1) == 0.0
    assert docking_tolerance(0.15, 0.1) == (0.15 - 0.1) / 0.1

    print("criterion 2 PASS: saturate/control-fidelity/docking-tolerance "
          "examples reproduced exactly")


def test_criterion_3_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    lb = np.array(BOUNDS.lower.as_tuple())
    ub = np.array(BOUNDS.upper.as_tuple())
    worst = 0.0
    for _ in range(10):
        w = WeightVector(*(rng.random(4) * 2.0))
        coeff = ObjectiveCoefficients(*(rng.random(11) * 2.0 + 0.05))
        for _ in range(100):
            x = lb + rng.random(5) * (ub - lb)
            analytic = gradient_at(*x, w, coeff)
            fd = np.empty(5)
            for i in range(5):
                h = 1e-6 * (ub[i] - lb[i])
                plus, minus = x.copy(), x.copy()
                plus[i] += h
                minus[i] -= h
                fd[i] = (total_cost_arrays(*plus, w, coeff)
                         - total_cost_arrays(*minus, w, coeff)) / (2 * h)
            worst = max(worst, float(
                np.linalg.norm(fd - analytic)
                / max(np.linalg.norm(analytic), 1e-12)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-5
    assert elapsed < 1.0
    print(f"criterion 3 PASS: analytic vs central differences "
          f"(worst rel {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_4_solver_vs_grid_oracle():
    started = time.perf_counter()
    coeff = ObjectiveCoefficients()
    rng = np.random.default_rng(17)
    weight_sets = [s.weights for s in builtin_scenarios()]
    weight_sets += [WeightVector(*(rng.random(4) * 1.9 + 0.1))
                    for _ in range(10)]
    settings = SolverSettings()
    converged = 0
    for w in weight_sets:
        result = multi_start_solve(w, coeff, BOUNDS, CONS, settings)
        x = result.x_star
        assert BOUNDS.contains(x)
        g1, g2 = CONS.values(x)
        assert g1 >= -1e-9 and g2 >= -1e-9
        if result.converged:
            converged += 1
            assert result.kkt_residual <= 1e-8
        grid_best = grid_min_cost(w, coeff, BOUNDS, CONS, points_per_axis=20)
        slack = grid_resolution_slack(w, coeff, BOUNDS, points_per_axis=20)
        assert result.objective.J <= grid_best + slack
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 4 PASS: {len(weight_sets)} weight sets beat the 20^5 "
          f"grid within resolution slack ({converged} converged) "
          f"in {elapsed:.1f}s")


def test_criterion_5_calibrated_case_reproduction(calibration_record):
    target = scenario_by_name("general").expected_x_star
    solved = calibration_record["x_star"]
    rel = {key: abs(solved[key] - want) / want
           for key, want in zip(("A", "l", "u", "e", "eta"),
                                target.as_tuple())}
    assert max(rel.values()) <= 0.15
    assert calibration_record["elapsed_seconds"] < 300.0
    detail = " ".join(f"{k}={v:.3f}" for k, v in rel.items())
    print(f"criterion 5 PASS: calibrated general optimum within 15% "
          f"componentwise ({detail}) in "
          f"{calibration_record['elapsed_seconds']:.0f}s")


def test_criterion_6_directional_transfer(calibration_record):
    started = time.perf_counter()
    coeff = ObjectiveCoefficients(**calibration_record["coefficients"])
    settings = SolverSettings()
    xs = {}
    for scenario in builtin_scenarios():
        result = multi_start_solve(scenario.weights, coeff, scenario.bounds,
                                   scenario.constraints, settings)
        xs[scenario.name] = result.x_star.as_tuple()
    for i, name in ((2, "u"), (3, "e"), (4, "eta")):
        assert xs["low-cost"][i] < xs["general"][i] < xs["survey"][i], name
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ordering = ", ".join(
        f"{name}: {xs['low-cost'][i]:.3f} < {xs['general'][i]:.3f} "
        f"< {xs['survey'][i]:.3f}" for i, name in ((2, "u"), (3, "e"),
                                                   (4, "eta")))
    print(f"criterion 6 PASS: strict low-cost < general < survey ({ordering}) "
          f"in {elapsed:.1f}s")


def test_criterion_7_weight_scaling_invariance():
    started = time.perf_counter()
    coeff = reference_coefficients()
    settings = SolverSettings()
    worst = 0.0
    for scenario in builtin_scenarios():
        base = multi_start_solve(scenario.weights, coeff, scenario.bounds,
                                 scenario.constraints, settings)
        scaled = multi_start_solve(scenario.weights.scaled(10.0), coeff,
                                   scenario.bounds, scenario.constraints,
                                   settings)
        diff = float(np.max(np.abs(np.array(base.x_star.as_tuple())
                                   - np.array(scaled.x_star.as_tuple()))))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    assert elapsed < 60.0
    print(f"criterion 7 PASS: x*(w) = x*(10w) within {worst:.2e} "
          f"(tolerance 1e-6) in {elapsed:.1f}s")


def test_criterion_8_monte_carlo_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_sigma_ratio = 0.0
    for _ in range(50):
        sigma = rng.uniform(0.05, 2.0)
        clearance = rng.uniform(0.2, 3.0) * sigma
        geometry = DockGeometry(0.0, 2 * math.pi, 0.0, math.pi / 2, clearance)
        report = simulate_docking(SimulationConfig(
            geometry=geometry, sigma_c=sigma, samples=100_000,
            seed=int(rng.integers(2**31))))
        expected = rayleigh_success_probability(clearance, sigma)
        gap = abs(report.success_rate - expected)
        assert gap < 3 * report.ci_halfwidth_95
        worst_sigma_ratio = max(worst_sigma_ratio,
                                gap / report.ci_halfwidth_95)

    designs = [DesignVector(0.1, 1.0, 0.5, 0.5, float(e))
               for e in np.linspace(0.0, 1.0, 11)]
    corr = reliability_correlation(
        designs, ObjectiveCoefficients(au=0.0, ae=0.0, a_eta=1.0),
        sigma_c=0.1, samples=100_000, seed=0)
    assert corr > 0.97
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 8 PASS: 50 MC runs within 3 CI halfwidths (worst "
          f"{worst_sigma_ratio:.2f}), eta-grid correlation {corr:.4f} > 0.97 "
          f"in {elapsed:.1f}s")


def test_criterion_9_sweep_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for run in ("first", "second"):
        csv_path = tmp_path / f"{run}.csv"
        config_path = tmp_path / f"{run}.yaml"
        config_path.write_text(yaml.safe_dump({
            "scenario": "general",
            "solver": {"multistart_count": 4, "seed": 0},
            "output": {"csv": str(csv_path)},
        }), encoding="utf-8")
        assert main(["sweep", str(config_path), "--axis", "q=1:2:5"]) == 0
        outputs.append(csv_path.read_bytes())
    elapsed = time.perf_counter() - started
    assert outputs[0] == outputs[1]
    assert elapsed < 60.0
    print(f"criterion 9 PASS: repeated sweep byte-identical "
          f"({len(outputs[0])} bytes) in {elapsed:.1f}s")
