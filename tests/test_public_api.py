"""The package's public surface: exported names and the solve result's
fields.  A change to either is a change to the API and must be made
here on purpose."""

from dataclasses import fields

import dockopt

PUBLIC_NAMES = [
    "BarrierStage", "CalibrationResult", "ConstraintSet", "DesignBounds",
    "DesignVector", "DockGeometry", "InfeasibleRealizationError",
    "KinematicProfile", "ObjectiveCoefficients", "ObjectiveValues",
    "Scenario", "SimulationConfig", "SimulationReport", "SolveResult",
    "SolverSettings", "SolverStatus", "WeightVector", "barrier_objective",
    "builtin_scenarios", "calibrate", "control_fidelity", "default_bounds",
    "docking_reliability", "docking_tolerance", "entry_area_fraction",
    "hydro_loss", "monetary_cost", "multi_start_solve",
    "rayleigh_success_probability", "realize_design",
    "reference_coefficients", "reliability_correlation", "saturate",
    "scenario_by_name", "simulate_docking", "solve", "total_cost",
    "versatility",
]


def test_exported_names():
    assert sorted(dockopt.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in dockopt.__all__:
        assert getattr(dockopt, name) is not None, name


def test_solve_result_fields():
    assert [f.name for f in fields(dockopt.SolveResult)] == [
        "x_star", "objective", "kkt_residual", "constraint_values",
        "active_set", "iterations", "status", "outer_trace"]
