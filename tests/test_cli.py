"""Command-line interface: configs, reports, CSV contract, exit codes."""

import copy
import json
import math
from dataclasses import fields

import pytest
import yaml

from dockopt import (ConstraintSet, DesignVector, DockGeometry,
                     ObjectiveCoefficients, SolverSettings, WeightVector,
                     solve)
from dockopt.cli import CSV_HEADER, ConfigError, load_config, main
from dockopt.scenarios import scenario_by_name
from dockopt.solver import multi_start_solve

FAST_SOLVER = {"multistart_count": 4, "seed": 0}


def write_config(tmp_path, name="config.yaml", **document):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(document), encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_general_scenario_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="general",
                           solver=FAST_SOLVER,
                           output={"result": str(tmp_path / "result.json")})
        code = main(["solve", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "Converged" in out
        assert "realized vehicle" in out
        record = json.loads((tmp_path / "result.json").read_text())
        assert record["status"] == "Converged"
        # all-ones coefficients put the optimum at A=1/3, l=1, u->1
        assert record["x_star"]["A"] == pytest.approx(1 / 3, abs=1e-3)
        assert record["x_star"]["l"] == pytest.approx(1.0, abs=1e-3)
        assert record["kkt_residual"] <= 1e-8

    def test_negative_weight_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           problem={"weights": {"p": 1, "q": -0.5,
                                                "r": 1, "s": 1}})
        code = main(["solve", cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert "problem.weights" in err and "q" in err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        # the barrier tolerance is fixed, so a config that sets it fails
        for key in ("bogus_knob", "kkt_tolerance"):
            cfg = write_config(tmp_path, scenario="general",
                               solver={key: 3})
            assert main(["solve", cfg]) == 1
            assert f"solver.{key}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.yaml")]) == 1

    def test_non_converged_settings_exit_two(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr("dockopt.solver._MU_SCHEDULE", (1.0,))
        cfg = write_config(tmp_path, scenario="general", solver={"seed": 0})
        code = main(["solve", cfg])
        out = capsys.readouterr().out
        assert code == 2
        assert "IterationLimit" in out
        assert "optimal design" in out  # best iterate still reported

    def test_inline_problem(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"weights": {"p": 1, "q": 1, "r": 1, "s": 1},
                     "x_init": {"A": 0.03, "l": 1.5, "u": 0.5,
                                "e": 0.5, "eta": 0.5}},
            solver=FAST_SOLVER)
        assert main(["solve", cfg]) == 0

    def test_scenario_and_problem_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="general",
                           problem={"weights": {"p": 1, "q": 1,
                                                "r": 1, "s": 1}})
        assert main(["solve", cfg]) == 1


class TestSweepCommand:
    def run_sweep(self, tmp_path, capsys, axes, steps="q=1:2:5"):
        csv_path = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, scenario="general", solver=FAST_SOLVER,
                           output={"csv": str(csv_path)})
        code = main(["sweep", cfg] + axes)
        capsys.readouterr()
        return code, csv_path

    def test_csv_contract(self, tmp_path, capsys):
        code, csv_path = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:5"])
        assert code == 0
        data = csv_path.read_bytes()
        assert b"\r" not in data  # LF endings only
        lines = data.decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert lines[-1].startswith("1,2,1,1,")

    def test_endpoint_matches_low_cost_scenario(self, tmp_path, capsys):
        _, csv_path = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:5"])
        last = csv_path.read_text().splitlines()[-1].split(",")
        scenario = scenario_by_name("low-cost")
        reference = solve(scenario.weights, scenario_coeff(),
                          scenario.bounds, scenario.constraints,
                          scenario.x_init)
        for got, want in zip(last[4:9], reference.x_star.as_tuple()):
            assert float(got) == pytest.approx(want, abs=1e-8)

    def test_monotone_fidelity_under_cost_pressure(self, tmp_path, capsys):
        _, csv_path = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:5"])
        rows = [line.split(",") for line in
                csv_path.read_text().splitlines()[1:]]
        fidelity = [float(r[6]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(fidelity, fidelity[1:]))

    def test_single_point_sweep_matches_solve(self, tmp_path, capsys):
        code, csv_path = self.run_sweep(tmp_path, capsys,
                                        ["--axis", "q=1:1:1"])
        assert code == 0
        row = csv_path.read_text().splitlines()[1].split(",")
        cfg = write_config(tmp_path, name="solve.yaml", scenario="general",
                           solver=FAST_SOLVER,
                           output={"result": str(tmp_path / "r.json")})
        assert main(["solve", cfg]) == 0
        capsys.readouterr()
        record = json.loads((tmp_path / "r.json").read_text())
        for got, key in zip(row[4:9], ("A", "l", "u", "e", "eta")):
            assert float(got) == pytest.approx(record["x_star"][key], abs=1e-6)

    def test_two_axis_grid(self, tmp_path, capsys):
        code, csv_path = self.run_sweep(
            tmp_path, capsys, ["--axis", "q=1:2:2", "--axis", "r=1:1.2:2"])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid
        weights = [tuple(line.split(",")[:4]) for line in lines[1:]]
        assert weights == [("1", "1", "1", "1"), ("1", "1", "1.2", "1"),
                           ("1", "2", "1", "1"), ("1", "2", "1.2", "1")]

    def test_deterministic_byte_identical(self, tmp_path, capsys):
        _, first = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:3"])
        first_bytes = first.read_bytes()
        _, second = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:3"])
        assert first_bytes == second.read_bytes()

    def test_axis_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="general")
        assert main(["sweep", cfg, "--axis", "z=1:2:5"]) == 1
        assert main(["sweep", cfg, "--axis", "q=1:2"]) == 1
        assert main(["sweep", cfg, "--axis", "q=1:2:3",
                     "--axis", "q=1:2:3"]) == 1
        capsys.readouterr()

    def test_never_runs_multi_start(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran a multi-start solve")
        monkeypatch.setattr("dockopt.solver.multi_start_solve", refuse)
        monkeypatch.setattr("dockopt.scenarios.multi_start_solve", refuse)
        code, _ = self.run_sweep(tmp_path, capsys, ["--axis", "q=1:2:2"])
        assert code == 0

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, scenario="general")
        monkeypatch.setenv("DOCKOPT_SEED", "not-a-number")
        assert main(["solve", cfg]) == 1
        assert "DOCKOPT_SEED" in capsys.readouterr().err


class TestSimulateCommand:
    def test_two_sigma_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            simulation={"samples": 100_000, "seed": 3, "sigma_c": 0.1,
                        "geometry": {"theta1": 0.0, "theta2": 2 * math.pi,
                                     "phi1": 0.0, "phi2": math.pi / 2,
                                     "clearance": 0.2}},
            output={"result": str(tmp_path / "sim.json")})
        assert main(["simulate", cfg]) == 0
        out = capsys.readouterr().out
        assert "0.8646" in out  # Rayleigh closed form 1 - exp(-2)
        record = json.loads((tmp_path / "sim.json").read_text())
        expected = 1 - math.exp(-2.0)
        assert record["closed_form"] == pytest.approx(expected, abs=1e-9)
        assert abs(record["success_rate"] - expected) \
            < 3 * record["ci_halfwidth_95"]

    def test_env_seed_overrides_config(self, tmp_path, capsys, monkeypatch):
        def run(name, seed, env_seed=None):
            result = tmp_path / f"{name}.json"
            cfg = write_config(tmp_path, name=f"{name}.yaml",
                               simulation={"samples": 1000, "seed": seed,
                                           "geometry": _GEOMETRY},
                               output={"result": str(result)})
            if env_seed is None:
                monkeypatch.delenv("DOCKOPT_SEED", raising=False)
            else:
                monkeypatch.setenv("DOCKOPT_SEED", env_seed)
            assert main(["simulate", cfg]) == 0
            capsys.readouterr()
            return result.read_bytes()

        seeded_0 = run("a", 0)
        assert run("b", 5) != seeded_0  # the seed changes the output
        assert run("c", 5, env_seed="0") == seeded_0

    @pytest.mark.parametrize("sigma_c, clearance", [(1.0e-200, 1.3e-200),
                                                    (1.0e200, 1.3e200)])
    def test_extreme_length_scale(self, tmp_path, capsys, sigma_c,
                                  clearance):
        geometry = {**_GEOMETRY, "clearance": clearance}
        cfg = write_config(tmp_path,
                           simulation={"samples": 1000, "sigma_c": sigma_c,
                                       "geometry": geometry},
                           output={"result": str(tmp_path / "sim.json")})
        assert main(["simulate", cfg]) == 0
        capsys.readouterr()
        record = json.loads((tmp_path / "sim.json").read_text())
        assert record["closed_form"] \
            == pytest.approx(1 - math.exp(-1.3**2 / 2), abs=1e-9)

    def test_geometry_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"samples": 1000})
        assert main(["simulate", cfg]) == 1
        assert "geometry" in capsys.readouterr().err


class TestCheckGradientsCommand:
    def test_defaults_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="general")
        assert main(["check-gradients", cfg]) == 0
        assert "worst relative error" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_self_consistent_target_has_tiny_residual(self, tmp_path, capsys):
        # target the optimum the default coefficients already produce
        scenario = scenario_by_name("general")
        settings = SolverSettings(multistart_count=2, seed=0)
        result = multi_start_solve(scenario.weights, scenario_coeff(),
                                   scenario.bounds, scenario.constraints,
                                   settings)
        x = result.x_star
        cfg = write_config(
            tmp_path,
            problem={"weights": {"p": 1, "q": 1, "r": 1, "s": 1},
                     "expected_x_star": {"A": x.A, "l": x.l, "u": x.u,
                                         "e": x.e, "eta": x.eta}},
            solver={"multistart_count": 2, "seed": 0},
            output={"result": str(tmp_path / "cal.json")})
        assert main(["calibrate", cfg, "--budget", "20"]) == 0
        capsys.readouterr()
        record = json.loads((tmp_path / "cal.json").read_text())
        assert record["residual"] < 1e-8
        for name in ("kl", "ke", "k_eta", "ae", "a_eta", "bl", "bu"):
            assert record["coefficients"][name] == pytest.approx(1.0, abs=0.2)

    def test_scenario_without_target_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            problem={"weights": {"p": 1, "q": 1, "r": 1, "s": 1}})
        assert main(["calibrate", cfg, "--budget", "5"]) == 1
        assert "expected_x_star" in capsys.readouterr().err


def scenario_coeff():
    return ObjectiveCoefficients()


def test_command_required(capsys):
    assert main([]) == 1
    capsys.readouterr()


# --- Config sections built from dataclass fields ---------------------------
#
# Each dataclass-backed section takes exactly the field names of the class
# it builds.  The cases below are generated from ``dataclasses.fields``, so
# a new field is covered without editing this table.

_X = {"A": 0.03, "l": 1.5, "u": 0.5, "e": 0.5, "eta": 0.5}
_GEOMETRY = {"theta1": 0.0, "theta2": 2 * math.pi, "phi1": 0.0,
             "phi2": math.pi / 2, "clearance": 0.2}
_BASE_DOCUMENT = {
    "problem": {"weights": {"p": 1.0, "q": 1.0, "r": 1.0, "s": 1.0},
                "x_init": dict(_X), "expected_x_star": dict(_X),
                "bounds": {"lower": {"A": 0.01, "l": 0.5, "u": 0.083,
                                     "e": 0.177, "eta": 0.0},
                           "upper": {"A": 1.0, "l": 3.0, "u": 1.0,
                                     "e": 0.855, "eta": 1.0}},
                "constraints": {}},
    "coefficients": {},
    "solver": {},
    "simulation": {"geometry": dict(_GEOMETRY)},
}
# (dotted path, class, built object from a RunConfig, fields required?)
_SECTIONS = [
    ("problem.weights", WeightVector, lambda c: c.scenario.weights, True),
    ("problem.x_init", DesignVector, lambda c: c.scenario.x_init, True),
    ("problem.expected_x_star", DesignVector,
     lambda c: c.scenario.expected_x_star, True),
    ("problem.bounds.lower", DesignVector,
     lambda c: c.scenario.bounds.lower, True),
    ("problem.bounds.upper", DesignVector,
     lambda c: c.scenario.bounds.upper, True),
    ("problem.constraints", ConstraintSet,
     lambda c: c.scenario.constraints, False),
    ("coefficients", ObjectiveCoefficients, lambda c: c.coefficients, False),
    ("solver", SolverSettings, lambda c: c.settings, False),
    ("simulation.geometry", DockGeometry,
     lambda c: c.simulation_geometry, True),
]


def _field_cases(required_only=False):
    return [pytest.param(path, cls, built, f.name, id=f"{path}.{f.name}")
            for path, cls, built, required in _SECTIONS
            if required or not required_only for f in fields(cls)]


def _section(document, path):
    node = document
    for key in path.split("."):
        node = node[key]
    return node


def _document_with(path, name, value):
    document = copy.deepcopy(_BASE_DOCUMENT)
    _section(document, path)[name] = value
    return document


def _load(tmp_path, document):
    return load_config(write_config(tmp_path, **document))


def _old_value(path, cls, name):
    section = _section(_BASE_DOCUMENT, path)
    return section[name] if name in section else getattr(cls(), name)


@pytest.mark.parametrize("path, cls, built, name", _field_cases())
def test_each_field_reaches_the_built_object(tmp_path, path, cls, built,
                                             name):
    old = _old_value(path, cls, name)
    new = old + 1 if isinstance(old, int) else old * 0.8 + 0.01
    assert new != old
    config = _load(tmp_path, _document_with(path, name, new))
    got = getattr(built(config), name)
    assert got == pytest.approx(new)
    assert isinstance(got, int) == isinstance(old, int)


@pytest.mark.parametrize("path, cls, built, required", _SECTIONS,
                         ids=[s[0] for s in _SECTIONS])
def test_unknown_key_named_with_full_path(tmp_path, path, cls, built,
                                          required):
    with pytest.raises(ConfigError, match=rf"unknown key {path}\.bogus"):
        _load(tmp_path, _document_with(path, "bogus", 1.0))


@pytest.mark.parametrize("path, cls, built, name",
                         _field_cases(required_only=True))
def test_missing_required_key_named(tmp_path, path, cls, built, name):
    document = copy.deepcopy(_BASE_DOCUMENT)
    del _section(document, path)[name]
    with pytest.raises(ConfigError, match=rf"{path}\.{name}\b"):
        _load(tmp_path, document)


@pytest.mark.parametrize("path, cls, built, name", _field_cases())
def test_non_number_rejected(tmp_path, path, cls, built, name):
    for value in ("abc", True, None, [1.0]):
        with pytest.raises(ConfigError, match=rf"{path}\.{name}\b"):
            _load(tmp_path, _document_with(path, name, value))


@pytest.mark.parametrize("path, cls, built, name", _field_cases())
def test_non_finite_number_rejected(tmp_path, path, cls, built, name):
    for value in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ConfigError, match=rf"{path}\.{name}\b"):
            _load(tmp_path, _document_with(path, name, value))


def test_integral_float_accepted_for_integer_field(tmp_path):
    config = _load(tmp_path, {"scenario": "general",
                              "solver": {"multistart_count": 3.0}})
    assert config.settings.multistart_count == 3
    assert isinstance(config.settings.multistart_count, int)


# --- JSON record contracts ---------------------------------------------------

def _key_paths(record, prefix=""):
    paths = set()
    for key, value in record.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


_X_KEYS = {"A", "l", "u", "e", "eta"}


def _nested(name, keys):
    return {name} | {f"{name}.{k}" for k in keys}


def test_solve_record_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="general", solver=FAST_SOLVER,
                       output={"result": str(tmp_path / "r.json")})
    assert main(["solve", cfg]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "r.json").read_text())
    assert _key_paths(record) == (
        {"scenario", "kkt_residual", "active_set", "iterations", "status",
         "outer_trace"}
        | _nested("weights", "pqrs") | _nested("x_star", _X_KEYS)
        | _nested("objective", {"h", "c", "d", "v", "J"})
        | _nested("constraint_values", {"volume", "tolerance_ratio"}))


def test_solve_record_carries_the_barrier_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="general",
                       output={"result": str(tmp_path / "r.json")})
    assert main(["solve", cfg]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "r.json").read_text())
    general = scenario_by_name("general")
    result = solve(general.weights, ObjectiveCoefficients(), general.bounds,
                   general.constraints, general.x_init)
    assert [set(stage) for stage in record["outer_trace"]] \
        == [{"mu", "cost", "stationarity", "inner_iterations"}] \
        * len(result.outer_trace)
    assert [stage["mu"] for stage in record["outer_trace"]] \
        == [stage.mu for stage in result.outer_trace]


def test_calibrate_record_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="general",
                       solver={"multistart_count": 2, "seed": 0},
                       output={"result": str(tmp_path / "cal.json")})
    assert main(["calibrate", cfg, "--budget", "2"]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "cal.json").read_text())
    assert _key_paths(record) == (
        {"scenario", "residual", "evaluations"}
        | _nested("coefficients", {"kA", "kl", "ku", "ke", "k_eta", "au",
                                   "ae", "a_eta", "bA", "bl", "bu", "A_max",
                                   "l_max"})
        | _nested("x_star", _X_KEYS) | _nested("target", _X_KEYS))


def test_simulate_record_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, simulation={"samples": 1000,
                                             "geometry": _GEOMETRY},
                       output={"result": str(tmp_path / "sim.json")})
    assert main(["simulate", cfg]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "sim.json").read_text())
    assert _key_paths(record) == {"samples", "success_rate",
                                  "ci_halfwidth_95", "closed_form"}


# --- Bad input is a config error before any work ----------------------------

@pytest.fixture
def no_solve(monkeypatch):
    """Make any solve or calibration in the CLI fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran on a bad config")
    for name in ("solve", "calibrate"):
        monkeypatch.setattr(f"dockopt.cli.{name}", refuse)


def config_error(capsys, argv, *names):
    """Run the CLI, expect exit 1 with a config error naming every name."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    for name in names:
        assert name in err
    return err


@pytest.mark.parametrize("key, value", [
    ("sigma_c", -0.1), ("sigma_c", math.nan), ("sigma_c", 0.0),
    ("authority_weight", -1.0), ("accuracy_weight", -1.0),
    ("authority_weight", math.nan), ("accuracy_weight", math.inf)])
def test_bad_simulation_value_rejected_before_solve(tmp_path, capsys,
                                                   no_solve, key, value):
    cfg = write_config(tmp_path, scenario="general", simulation={key: value})
    config_error(capsys, ["solve", cfg], "simulation", key)


@pytest.mark.parametrize("key, value", [("samples", 0), ("samples", 2.5),
                                        ("seed", -1), ("seed", 1.5)])
def test_bad_simulate_count_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, simulation={key: value,
                                             "geometry": _GEOMETRY})
    config_error(capsys, ["simulate", cfg], "simulation", key)


def test_negative_solver_seed_rejected(tmp_path, capsys, no_solve):
    cfg = write_config(tmp_path, scenario="general", solver={"seed": -1})
    config_error(capsys, ["solve", cfg], "solver", "seed")


def test_negative_env_seed_rejected(tmp_path, capsys, no_solve, monkeypatch):
    cfg = write_config(tmp_path, scenario="general")
    monkeypatch.setenv("DOCKOPT_SEED", "-1")
    config_error(capsys, ["solve", cfg], "DOCKOPT_SEED")


# max_outer_iterations is no longer a setting (the barrier schedule is
# fixed), so a config written for it fails at load and names its path
@pytest.mark.parametrize("key, value", [("max_outer_iterations", 2.9),
                                        ("multistart_count", 2.9),
                                        ("multistart_count", 0.5),
                                        ("seed", 1e-3)])
def test_non_integral_solver_count_rejected(tmp_path, capsys, no_solve, key,
                                            value):
    cfg = write_config(tmp_path, scenario="general", solver={key: value})
    err = config_error(capsys, ["solve", cfg], f"solver.{key}")
    assert "positive" not in err


@pytest.mark.parametrize("argv, key", [(["sweep", "--axis", "q=1:2:2"], "csv"),
                                       (["solve"], "result")],
                         ids=["sweep", "solve"])
def test_missing_output_directory_rejected_before_solve(tmp_path, capsys,
                                                        no_solve, argv, key):
    cfg = write_config(tmp_path, scenario="general",
                       output={key: str(tmp_path / "missing" / "out")})
    config_error(capsys, [argv[0], cfg, *argv[1:]], f"output.{key}")


def test_zero_budget_rejected(tmp_path, capsys, no_solve):
    cfg = write_config(tmp_path, scenario="general")
    config_error(capsys, ["calibrate", cfg, "--budget", "0"], "budget")


@pytest.mark.parametrize("axis", ["q=-1:2:3", "q=nan:2:3", "q=2:-1:3",
                                  "q=inf:1:1"])
def test_bad_sweep_axis_rejected_before_solve(tmp_path, capsys, no_solve,
                                              axis):
    cfg = write_config(tmp_path, scenario="general")
    config_error(capsys, ["sweep", cfg, "--axis", "r=1:2:2", "--axis", axis],
                 "q")


def test_calibrate_reports_fitted_count(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="general",
                       solver={"multistart_count": 2, "seed": 0})
    assert main(["calibrate", cfg, "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("calibrated 7 coefficients")


# On the default box A*l <= 3, so a volume floor of 5 leaves no feasible
# design; expected_x_star lets calibrate get as far as its first solve.
_INFEASIBLE_PROBLEM = {"weights": {"p": 1, "q": 1, "r": 1, "s": 1},
                       "constraints": {"volume_min": 5.0},
                       "expected_x_star": {"A": 0.5, "l": 2.0, "u": 0.5,
                                           "e": 0.5, "eta": 0.7}}


def test_infeasible_problem_fails_when_the_config_loads(tmp_path):
    cfg = write_config(tmp_path, problem=_INFEASIBLE_PROBLEM)
    with pytest.raises(ConfigError, match=r"^problem: no point inside the "
                       r"bounds .* volume_min = 5 "):
        load_config(cfg)


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--axis", "q=1:2:2"],
                                  ["calibrate", "--budget", "2"]],
                         ids=["solve", "sweep", "calibrate"])
def test_infeasible_problem_is_a_config_error(tmp_path, capsys, argv):
    csv = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, problem=_INFEASIBLE_PROBLEM,
                       solver={"multistart_count": 2, "seed": 0},
                       output={"csv": str(csv)})
    assert main([argv[0], cfg, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert captured.err.count("\n") == 1
    assert "volume_min = 5" in captured.err
    assert "tolerance_ratio_min = 1.5" in captured.err
    assert not csv.exists()
