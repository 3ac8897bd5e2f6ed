"""What a command imports, and the module names the benchmark's tracer
replaces.

scipy takes far longer to import than a solve takes to run, so only
calibration loads it (``scipy.optimize``, never ``scipy.stats``), and numpy
loads only on the array paths.  The import checks run ``python -X
importtime`` in a fresh interpreter and read the modules it logs, so they
assert what is loaded, not how long it takes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import dockopt.scenarios
import dockopt.solver
from dockopt import (ObjectiveCoefficients, SolverSettings, calibrate,
                     scenario_by_name)

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(tmp_path, *args):
    """Run ``python -X importtime *args`` from a checkout (``src`` on
    PYTHONPATH); return the exit code and the set of modules it imported."""
    env = {k: v for k, v in os.environ.items() if k != "DOCKOPT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in done.stderr.splitlines()
               if line.startswith("import time:")}
    assert "dockopt" in modules, done.stderr[-2000:]
    return done.returncode, modules


def heavy(modules):
    return sorted(m for m in modules if m.split(".")[0] in ("numpy", "scipy"))


def write_config(tmp_path, **document):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(document), encoding="utf-8")
    return str(path)


def test_importing_the_cli_loads_neither_scipy_nor_numpy(tmp_path):
    code, modules = imported_modules(tmp_path, "-c", "import dockopt.cli")
    assert code == 0
    assert "dockopt.cli" in modules
    assert heavy(modules) == []


def test_solve_loads_neither_scipy_nor_numpy(tmp_path):
    cfg = write_config(tmp_path, scenario="general")
    code, modules = imported_modules(tmp_path, "-m", "dockopt", "solve", cfg)
    assert code == 0
    assert heavy(modules) == []


def test_calibrate_loads_scipy_on_first_use(tmp_path):
    cfg = write_config(tmp_path, scenario="general",
                       solver={"multistart_count": 2, "seed": 0})
    code, modules = imported_modules(tmp_path, "-m", "dockopt", "calibrate",
                                     cfg, "--budget", "1")
    assert code == 0
    assert "scipy.optimize" in modules
    # calibrate needs least_squares alone, and the solver no scipy at all
    assert "scipy.stats" not in modules


def test_multi_start_solve_loads_neither_scipy_nor_numpy(tmp_path):
    code, modules = imported_modules(tmp_path, "-c", (
        "import dockopt.solver as s\n"
        "from dockopt.domain import WeightVector, default_bounds\n"
        "from dockopt.objective import ObjectiveCoefficients\n"
        "r = s.multi_start_solve(WeightVector(1.0, 1.0, 1.0, 1.0),\n"
        "    ObjectiveCoefficients(), default_bounds(), s.ConstraintSet(),\n"
        "    s.SolverSettings(multistart_count=16, seed=0))\n"
        "assert r.converged, r\n"))
    assert code == 0
    assert heavy(modules) == []


def test_float_only_bulk_cost_loads_no_numpy(tmp_path):
    code, modules = imported_modules(tmp_path, "-c", (
        "import dockopt.objective, dockopt.oracle\n"
        "from dockopt.domain import WeightVector\n"
        "J = dockopt.objective.total_cost_arrays(\n"
        "    0.3, 1.5, 0.5, 0.5, 0.7, WeightVector(1.0, 1.0, 1.0, 1.0),\n"
        "    dockopt.objective.ObjectiveCoefficients())\n"
        "assert type(J) is float, type(J)\n"))
    assert code == 0
    assert heavy(modules) == []


def test_infeasible_config_fails_before_calibrate_loads_scipy(tmp_path):
    # on the default box A*l <= 3, so no design meets a volume floor of 5
    cfg = write_config(tmp_path, problem={
        "weights": {"p": 1, "q": 1, "r": 1, "s": 1},
        "constraints": {"volume_min": 5.0},
        "expected_x_star": {"A": 0.5, "l": 2.0, "u": 0.5, "e": 0.5,
                            "eta": 0.7}})
    code, modules = imported_modules(tmp_path, "-m", "dockopt", "calibrate",
                                     cfg, "--budget", "2")
    assert code == 1
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_qmc_resolves_to_scipy_stats_qmc():
    from scipy.stats import qmc as scipy_qmc

    from dockopt.solver import qmc
    assert qmc is scipy_qmc
    with pytest.raises(AttributeError, match="no_such_name"):
        dockopt.solver.no_such_name  # noqa: B018


def test_calibrate_is_one_least_squares_fit(monkeypatch):
    import scipy.optimize

    calls = []
    original = scipy.optimize.least_squares

    def recording(fun, x0, **kwargs):
        calls.append(kwargs)
        return original(fun, x0, **kwargs)

    def unused(*args, **kwargs):
        raise AssertionError("calibrate called minimize")

    monkeypatch.setattr(scipy.optimize, "least_squares", recording)
    monkeypatch.setattr(dockopt.scenarios, "minimize", unused)
    result = calibrate(scenario_by_name("general"), ObjectiveCoefficients(),
                       budget=3,
                       settings=SolverSettings(multistart_count=2, seed=0))
    assert calls == [{"jac": "2-point", "bounds": (-7.0, 6.0),
                      "method": "trf"}]
    assert result.evaluations == 3
