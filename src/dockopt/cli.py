"""Command-line front end.

Subcommands::

    dockopt solve CONFIG            one optimization run + report
    dockopt sweep CONFIG --axis ... weight sweep to CSV (Pareto exploration)
    dockopt calibrate CONFIG        fit surrogate coefficients to a target
    dockopt simulate CONFIG         Monte Carlo docking simulation
    dockopt check-gradients CONFIG  analytic-vs-finite-difference audit

Configuration is a YAML/JSON document with sections ``scenario`` (built-in
name) or ``problem`` (inline weights/bounds/constraints/x_init), plus
optional ``coefficients``, ``solver``, ``simulation``, and ``output``.

The keys of a section that builds a dataclass are that class's field
names: ``problem.weights`` (WeightVector), ``problem.x_init``,
``problem.expected_x_star`` and ``problem.bounds.lower``/``upper``
(DesignVector), ``problem.constraints`` (ConstraintSet), ``coefficients``
(ObjectiveCoefficients), ``solver`` (SolverSettings) and
``simulation.geometry`` (DockGeometry).  ``solve`` and ``sweep`` run one
barrier solve per weight vector from the problem's ``x_init``, and
``calibrate`` one per evaluation from ``solver.interior_anchor``.  So
``solver.seed`` sets only the default seed of ``simulate`` and
``check-gradients``, and ``solver.multistart_count`` is accepted (an
integer >= 1) and changes nothing; the barrier schedule and tolerances
are fixed.
Integer fields take integral values only (``3`` or ``3.0``).  Every bad
value, an unknown key included, is a configuration error naming its path,
raised before any work starts.
The environment variable ``DOCKOPT_SEED`` (integer) overrides every
configured seed.

Each JSON record is its result dataclass's fields (a SolveResult, its
packed barrier trace ``outer_trace`` written as a list of BarrierStage
records; a CalibrationResult; a SimulationReport) plus the run's
``scenario``, ``weights``, ``target`` or ``closed_form``.  The sweep
CSV's columns are the WeightVector, DesignVector and ObjectiveValues
fields, then the status.

Bounds and constraints that leave no strictly feasible design are a
configuration error too, found from the bounds and constraints alone
when the config loads (``solver.interior_anchor``), so ``calibrate``
reports it without importing scipy.

Only ``calibrate`` imports scipy (scipy.optimize alone, once it starts),
and only ``calibrate``, ``simulate`` and ``check-gradients``
import numpy; ``solve`` and ``sweep`` run on plain floats and load
neither.  ``python -m dockopt`` runs this front end from
a checkout with ``src`` on PYTHONPATH.

Exit codes: 0 success/converged, 1 usage or configuration error,
2 solver did not converge (or a numerical audit failed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace

import yaml

from .domain import (DesignBounds, DesignVector, DockGeometry,
                     InfeasibleRealizationError, KinematicProfile,
                     WeightVector, default_bounds, realize_design)
from .objective import (ObjectiveCoefficients, ObjectiveValues, gradient_at,
                        total_cost_arrays)
from .oracle import (SimulationConfig, rayleigh_success_probability,
                     simulate_docking)
from .scenarios import (DEFAULT_X_INIT, FREE_COEFFICIENTS, Scenario,
                        calibrate, scenario_by_name)
from .solver import (ConstraintSet, SolveResult, SolverSettings,
                     interior_anchor, solve)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2

CSV_HEADER = ",".join([*(f.name for cls in (WeightVector, DesignVector,
                                              ObjectiveValues)
                           for f in fields(cls)), "status"])


class ConfigError(ValueError):
    """Configuration document is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document."""

    scenario: Scenario
    coefficients: ObjectiveCoefficients
    settings: SolverSettings
    sigma_c: float
    authority_weight: float
    accuracy_weight: float
    simulation_samples: int
    simulation_seed: int
    simulation_geometry: DockGeometry | None
    output_result: str | None
    output_csv: str | None


def _mapping(node, path: str, allowed) -> dict:
    """``node`` as a mapping whose keys all appear in ``allowed``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got "
                          f"{type(node).__name__}")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path
                              else f"unknown key {key}")
    return node


def _number(value, path: str, integer: bool = False) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _construct(path: str, build, *args, **kwargs):
    """Call ``build``; a ValueError from it becomes a ConfigError at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build(cls, node, path: str, base=None):
    """Build dataclass ``cls`` from a mapping keyed by its field names.

    A key missing from ``node`` keeps its value in ``base`` and is required
    when there is no ``base``.  A field whose ``base`` value is an int is
    read as an integer.
    """
    names = [f.name for f in fields(cls)]
    node = _mapping(node, path, names)
    values = {}
    for name in names:
        if name in node:
            values[name] = _number(node[name], f"{path}.{name}",
                                   isinstance(getattr(base, name, None), int))
        elif base is None:
            raise ConfigError(f"{path}.{name} is required")
    if base is None:
        return _construct(path, cls, **values)
    return _construct(path, replace, base, **values)


def _parse_problem(node, path: str) -> Scenario:
    node = _mapping(node, path, ("weights", "bounds", "constraints",
                                 "x_init", "expected_x_star"))
    weights = _build(WeightVector, node.get("weights"), f"{path}.weights")

    bounds = default_bounds()
    if "bounds" in node:
        bnode = _mapping(node["bounds"], f"{path}.bounds", ("lower", "upper"))
        bounds = _construct(
            f"{path}.bounds", DesignBounds,
            lower=_build(DesignVector, bnode.get("lower"),
                         f"{path}.bounds.lower"),
            upper=_build(DesignVector, bnode.get("upper"),
                         f"{path}.bounds.upper"))

    constraints = _build(ConstraintSet, node.get("constraints", {}),
                         f"{path}.constraints", ConstraintSet())
    x_init = DEFAULT_X_INIT
    if "x_init" in node:
        x_init = _build(DesignVector, node["x_init"], f"{path}.x_init")
    expected = None
    if "expected_x_star" in node:
        expected = _build(DesignVector, node["expected_x_star"],
                          f"{path}.expected_x_star")
    _construct(path, interior_anchor, bounds, constraints)
    return Scenario(name="custom", weights=weights, bounds=bounds,
                    constraints=constraints, x_init=x_init,
                    expected_x_star=expected)


def load_config(path: str, need_problem: bool = True) -> RunConfig:
    """Parse and validate a configuration file into typed objects."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if document is None:
        document = {}
    document = _mapping(document, "", ("scenario", "problem", "coefficients",
                                       "solver", "simulation", "output"))

    if "scenario" in document and "problem" in document:
        raise ConfigError("config sets both scenario and problem; choose one")
    if "scenario" in document:
        name = document["scenario"]
        if not isinstance(name, str):
            raise ConfigError(f"scenario: expected a name, got {name!r}")
        try:
            scenario = scenario_by_name(name)
        except KeyError as exc:
            raise ConfigError(f"scenario: {exc.args[0]}") from exc
    elif "problem" in document:
        scenario = _parse_problem(document["problem"], "problem")
    elif need_problem:
        raise ConfigError("config needs a scenario name or a problem section")
    else:
        scenario = scenario_by_name("general")

    coefficients = _build(ObjectiveCoefficients,
                          document.get("coefficients", {}), "coefficients",
                          ObjectiveCoefficients())
    settings = _build(SolverSettings, document.get("solver", {}), "solver",
                      SolverSettings())

    simulation = {"sigma_c": 0.1, "authority_weight": 1.0,
                  "accuracy_weight": 1.0, "samples": 100_000,
                  "seed": settings.seed}
    mnode = _mapping(document.get("simulation", {}), "simulation",
                     (*simulation, "geometry"))
    geometry = None
    for key, value in mnode.items():
        if key == "geometry":
            geometry = _build(DockGeometry, value, "simulation.geometry")
        else:
            simulation[key] = _number(value, f"simulation.{key}",
                                      isinstance(simulation[key], int))

    env_seed = os.environ.get("DOCKOPT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"DOCKOPT_SEED must be an integer, got "
                              f"{env_seed!r}") from exc
        settings = _construct("DOCKOPT_SEED", replace, settings, seed=seed)
        simulation["seed"] = seed

    # The vehicle profile and the simulation own these rules; checking them
    # here stops a bad value before any solve or sampling starts.
    _construct("simulation", KinematicProfile, 1, simulation["sigma_c"],
               simulation["authority_weight"], simulation["accuracy_weight"])
    if geometry is not None:
        _construct("simulation", SimulationConfig, geometry,
                   simulation["sigma_c"], simulation["samples"],
                   simulation["seed"])

    output = _mapping(document.get("output", {}), "output", ("result", "csv"))
    for key, value in output.items():
        if not isinstance(value, str):
            raise ConfigError(f"output.{key}: expected a path string")
        if not os.path.isdir(os.path.dirname(value) or "."):
            raise ConfigError(f"output.{key}: directory of {value!r} does "
                              "not exist")

    return RunConfig(scenario=scenario, coefficients=coefficients,
                     settings=settings, sigma_c=simulation["sigma_c"],
                     authority_weight=simulation["authority_weight"],
                     accuracy_weight=simulation["accuracy_weight"],
                     simulation_samples=simulation["samples"],
                     simulation_seed=simulation["seed"],
                     simulation_geometry=geometry,
                     output_result=output.get("result"),
                     output_csv=output.get("csv"))


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _result_record(result: SolveResult, weights: WeightVector) -> dict:
    return {**asdict(result), "weights": asdict(weights),
            "outer_trace": [asdict(stage) for stage in result.outer_trace],
            "constraint_values": dict(zip(("volume", "tolerance_ratio"),
                                          result.constraint_values)),
            "status": result.status.value}


def _print_report(scenario: Scenario, result: SolveResult,
                  config: RunConfig) -> None:
    x = result.x_star
    print(f"scenario: {scenario.name}")
    print(f"status:   {result.status.value}  (KKT residual "
          f"{result.kkt_residual:.3e}, {result.iterations} inner iterations)")
    print("optimal design:")
    units = {"A": "m^2", "l": "m"}
    for key, value in asdict(x).items():
        print(f"  {key:3s} = {value:.6g} {units.get(key, '')}".rstrip())
    o = result.objective
    print(f"objectives: h={o.h:.6g} c={o.c:.6g} d={o.d:.6g} v={o.v:.6g}  "
          f"J={o.J:.6g}")
    g1, g2 = result.constraint_values
    print(f"constraints: A*l - volume_min = {g1:.6g} m^3, "
          f"eta/A - ratio_min = {g2:.6g} 1/m^2")
    print(f"active set: {', '.join(result.active_set) if result.active_set else '(none)'}")
    try:
        profile, geometry = realize_design(x, config.sigma_c,
                                           config.authority_weight,
                                           config.accuracy_weight)
        print(f"realized vehicle: {profile.dof_count} controlled DOF, "
              f"control error sigma = {profile.control_error_sigma:.6g} m")
        print(f"realized dock: azimuth span [{geometry.theta1:.6g}, "
              f"{geometry.theta2:.6g}] rad, polar span [{geometry.phi1:.6g}, "
              f"{geometry.phi2:.6g}] rad, clearance D = "
              f"{geometry.clearance:.6g} m")
    except InfeasibleRealizationError as exc:
        print(f"realization: not achievable ({exc})")


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_solve(config_path: str) -> int:
    """Run one optimization and report the optimal design."""
    config = load_config(config_path)
    scenario = config.scenario
    result = solve(scenario.weights, config.coefficients, scenario.bounds,
                   scenario.constraints, scenario.x_init)
    _print_report(scenario, result, config)
    if config.output_result:
        record = _result_record(result, scenario.weights)
        record["scenario"] = scenario.name
        _write_json(config.output_result, record)
        print(f"result record written to {config.output_result}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _parse_axis(spec: str) -> tuple[str, float, float, int]:
    try:
        component, _, rest = spec.partition("=")
        start_s, stop_s, steps_s = rest.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError as exc:
        raise ConfigError(f"axis spec {spec!r} must look like "
                          "COMPONENT=START:STOP:STEPS") from exc
    names = tuple(f.name for f in fields(WeightVector))
    if component not in names:
        raise ConfigError(f"axis component must be one of {names}, "
                          f"got {component!r}")
    if steps < 1:
        raise ConfigError(f"axis steps must be >= 1, got {steps}")
    return component, start, stop, steps


def _axis_values(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def cmd_sweep(config_path: str, axis_specs: list[str]) -> int:
    """Sweep one or two weight components and emit a CSV trade-off table."""
    if not 1 <= len(axis_specs) <= 2:
        raise ConfigError("sweep needs one or two --axis specifications")
    config = load_config(config_path)
    scenario = config.scenario
    axes = [_parse_axis(spec) for spec in axis_specs]
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError("sweep axes must use distinct weight components")

    grids = [_axis_values(start, stop, steps)
             for _, start, stop, steps in axes]
    points = [dict(zip([axis[0] for axis in axes], values))
              for values in itertools.product(*grids)]

    # Every weight vector is checked before the first solve runs.
    sweep_weights = [
        _construct("--axis " + ", ".join(f"{k}={v:g}"
                                         for k, v in overrides.items()),
                   replace, scenario.weights, **overrides)
        for overrides in points]

    rows = []
    all_converged = True
    for weights in sweep_weights:
        result = solve(weights, config.coefficients, scenario.bounds,
                       scenario.constraints, scenario.x_init)
        all_converged &= result.converged
        values = [*astuple(weights), *astuple(result.x_star),
                  *astuple(result.objective)]
        rows.append(",".join(_fmt(v) for v in values)
                    + f",{result.status.value}")

    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if config.output_csv:
        with open(config.output_csv, "w", encoding="utf-8", newline="\n") as f:
            f.write(csv_text)
        print(f"{len(rows)} rows written to {config.output_csv}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_calibrate(config_path: str, budget: int = 1500) -> int:
    """Fit surrogate coefficients to the scenario's expected optimum."""
    if budget < 1:
        raise ConfigError(f"--budget must be >= 1, got {budget}")
    config = load_config(config_path)
    scenario = config.scenario
    if scenario.expected_x_star is None:
        raise ConfigError(f"scenario {scenario.name!r} carries no "
                          "expected_x_star to calibrate against")
    outcome = calibrate(scenario, config.coefficients, budget,
                        config.settings)
    print(f"calibrated {len(FREE_COEFFICIENTS)} coefficients "
          f"against scenario {scenario.name!r}")
    print(f"evaluations: {outcome.evaluations}  residual (L2^2): "
          f"{outcome.residual:.6g}")
    for key, value in asdict(outcome.coefficients).items():
        print(f"  {key:6s} = {value:.9g}")
    print("solved optimum vs target:")
    x_star = asdict(outcome.x_star)
    target = asdict(scenario.expected_x_star)
    for key, got in x_star.items():
        want = target[key]
        rel = abs(got - want) / abs(want) if want else math.inf
        print(f"  {key:3s} = {got:.6g}  target {want:.6g}  rel err {rel:.3f}")
    if config.output_result:
        _write_json(config.output_result, {**asdict(outcome),
                                           "scenario": scenario.name,
                                           "target": target})
        print(f"calibration record written to {config.output_result}")
    return EXIT_OK


def cmd_simulate(config_path: str) -> int:
    """Monte Carlo docking simulation for the configured geometry."""
    config = load_config(config_path, need_problem=False)
    if config.simulation_geometry is None:
        raise ConfigError("simulation.geometry is required for simulate")
    sim = SimulationConfig(geometry=config.simulation_geometry,
                           sigma_c=config.sigma_c,
                           samples=config.simulation_samples,
                           seed=config.simulation_seed)
    report = simulate_docking(sim)
    closed_form = rayleigh_success_probability(
        config.simulation_geometry.clearance, config.sigma_c)
    print(f"samples:          {report.samples}")
    print(f"success rate:     {report.success_rate:.6f} "
          f"+/- {report.ci_halfwidth_95:.6f} (95% CI)")
    print(f"closed form:      {closed_form:.6f} (Rayleigh CDF)")
    print(f"difference:       {abs(report.success_rate - closed_form):.6f}")
    if config.output_result:
        _write_json(config.output_result, {**asdict(report),
                                           "closed_form": closed_form})
        print(f"simulation record written to {config.output_result}")
    return EXIT_OK


def cmd_check_gradients(config_path: str) -> int:
    """Compare analytic gradients against central finite differences."""
    import numpy as np

    config = load_config(config_path, need_problem=False)
    bounds = config.scenario.bounds
    lb = np.array(bounds.lower.as_tuple())
    ub = np.array(bounds.upper.as_tuple())
    rng = np.random.default_rng(config.settings.seed)

    worst = 0.0
    for _ in range(10):
        weights = WeightVector(*(rng.random(4) * 2.0))
        coeff = ObjectiveCoefficients(*(rng.random(11) * 2.0 + 0.05))
        for _ in range(100):
            x = lb + rng.random(5) * (ub - lb)
            analytic = gradient_at(*x, weights, coeff)
            fd = np.empty(5)
            for i in range(5):
                h = 1e-6 * (ub[i] - lb[i])
                plus, minus = x.copy(), x.copy()
                plus[i] += h
                minus[i] -= h
                fd[i] = (total_cost_arrays(*plus, weights, coeff)
                         - total_cost_arrays(*minus, weights, coeff)) / (2 * h)
            norm = np.linalg.norm(analytic)
            worst = max(worst, float(np.linalg.norm(fd - analytic)
                                     / max(norm, 1e-12)))
    print(f"checked 10 weight/coefficient sets x 100 points; worst relative "
          f"error {worst:.3e} (tolerance 1e-05)")
    return EXIT_OK if worst < 1e-5 else EXIT_NOT_CONVERGED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dockopt",
        description="Co-design optimization for AUV docking systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one optimization")
    p_solve.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="weight sweep to CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", action="append", required=True,
                         metavar="COMPONENT=START:STOP:STEPS",
                         help="weight axis to sweep; repeat for a 2-D grid")

    p_cal = sub.add_parser("calibrate", help="fit surrogate coefficients")
    p_cal.add_argument("config")
    p_cal.add_argument("--budget", type=int, default=1500,
                       help="objective-evaluation budget (default 1500)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo docking simulation")
    p_sim.add_argument("config")

    p_grad = sub.add_parser("check-gradients",
                            help="finite-difference gradient audit")
    p_grad.add_argument("config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        if args.command == "solve":
            return cmd_solve(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.axis)
        if args.command == "calibrate":
            return cmd_calibrate(args.config, budget=args.budget)
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "check-gradients":
            return cmd_check_gradients(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
