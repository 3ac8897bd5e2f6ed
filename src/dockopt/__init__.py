"""Co-design optimization toolkit for AUV docking systems."""

from .domain import (DesignBounds, DesignVector, DockGeometry,
                     InfeasibleRealizationError, KinematicProfile,
                     WeightVector, control_fidelity, default_bounds,
                     docking_tolerance, entry_area_fraction, realize_design,
                     saturate)
from .objective import (ObjectiveCoefficients, ObjectiveValues,
                        docking_reliability, hydro_loss, monetary_cost,
                        total_cost, versatility)
from .oracle import (SimulationConfig, SimulationReport,
                     rayleigh_success_probability, reliability_correlation,
                     simulate_docking)
from .scenarios import (CalibrationResult, Scenario, builtin_scenarios,
                        calibrate, reference_coefficients, scenario_by_name)
from .solver import (BarrierStage, ConstraintSet, SolveResult, SolverSettings,
                     SolverStatus, barrier_objective, multi_start_solve,
                     solve)

__all__ = [
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

__version__ = "0.1.0"
