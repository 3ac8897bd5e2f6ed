"""What a command imports, and the module names the benchmark's tracer
replaces.

scipy takes far longer to import than a solve takes to run, so only
calibration loads it, and numpy loads only on the array paths.  The
import checks run ``python -X importtime`` in a fresh interpreter and read
the modules it logs, so they assert what is loaded, not how long it takes.
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
                     multi_start_solve, scenario_by_name)

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
    assert {"scipy.optimize", "scipy.stats"} <= modules


def test_qmc_resolves_to_scipy_stats_qmc():
    from scipy.stats import qmc as scipy_qmc

    from dockopt.solver import qmc
    assert qmc is scipy_qmc
    with pytest.raises(AttributeError, match="no_such_name"):
        dockopt.solver.no_such_name  # noqa: B018


def test_multi_start_draws_its_starts_through_the_module_qmc(monkeypatch):
    calls = []
    base = dockopt.solver.qmc.LatinHypercube

    class RecordingLatinHypercube(base):
        def __init__(self, *args, **kwargs):
            calls.append(("init", kwargs))
            super().__init__(*args, **kwargs)

        def random(self, n=1, **kwargs):
            calls.append(("random", n))
            return super().random(n, **kwargs)

    class StandIn:
        LatinHypercube = RecordingLatinHypercube

    scenario = scenario_by_name("general")
    settings = SolverSettings(multistart_count=3, seed=7)
    args = (scenario.weights, ObjectiveCoefficients(), scenario.bounds,
            scenario.constraints, settings)
    expected = multi_start_solve(*args)
    monkeypatch.setattr(dockopt.solver, "qmc", StandIn)
    assert repr(multi_start_solve(*args)) == repr(expected)
    assert calls == [("init", {"d": 5, "seed": 7}), ("random", 3)]


def test_calibrate_calls_the_module_minimize(monkeypatch):
    calls = []
    original = dockopt.scenarios.minimize

    def recording(fun, x0, **kwargs):
        calls.append(kwargs["method"])
        return original(fun, x0, **kwargs)

    monkeypatch.setattr(dockopt.scenarios, "minimize", recording)
    result = calibrate(scenario_by_name("general"), ObjectiveCoefficients(),
                       budget=3,
                       settings=SolverSettings(multistart_count=2, seed=0))
    assert calls and set(calls) == {"Nelder-Mead"}
    assert result.evaluations == 3
