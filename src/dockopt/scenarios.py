"""Built-in design-intent scenarios and surrogate-coefficient calibration.

Three reference scenarios encode common AUV-dock design intents over the
standard search box and constraints:

* general:  every objective weighted equally.
* low-cost: the monetary-cost weight doubled; favors small, simple
  vehicles with modest entry area and tolerance.
* survey:   efficiency and versatility emphasized for a resident,
  payload-carrying surveying vehicle.

Each scenario carries the published optimal design it should reproduce.
The exact surrogate coefficients behind those optima are not recoverable,
so ``calibrate`` fits the free coefficients to a target optimum by
Nelder-Mead over log-coefficients, with one coefficient per surrogate
pinned at 1 to remove the normalization null direction.

``calibrate`` is the only code here that loads scipy (``scipy.optimize``
alone, through ``minimize``) and numpy, each on its first call; the
solver draws its Latin-hypercube starts with numpy and never loads
``scipy.stats``.  Importing this module loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .domain import (DesignBounds, DesignVector, WeightVector, check_integer,
                     default_bounds)
from .objective import ObjectiveCoefficients
# multi_start_solve and minimize stay names of this module: bench/tracing.py
# wraps them by name.
from .solver import ConstraintSet, SolverSettings, multi_start_solve

# Coefficients the calibration adjusts; kA, ku, au, bA stay pinned at 1.
FREE_COEFFICIENTS = ("kl", "ke", "k_eta", "ae", "a_eta", "bl", "bu")

DEFAULT_X_INIT = DesignVector(A=0.03, l=1.5, u=0.5, e=0.5, eta=0.5)


@dataclass(frozen=True)
class Scenario:
    """A named co-design problem with an optional regression target."""

    name: str
    weights: WeightVector
    bounds: DesignBounds
    constraints: ConstraintSet
    x_init: DesignVector
    expected_x_star: DesignVector | None = None
    expected_tolerance: float = 0.15


@dataclass(frozen=True)
class CalibrationResult:
    coefficients: ObjectiveCoefficients
    residual: float
    evaluations: int
    x_star: DesignVector


def builtin_scenarios() -> list[Scenario]:
    """The three reference design intents with their target optima."""
    bounds = default_bounds()
    cons = ConstraintSet()
    return [
        Scenario(
            name="general",
            weights=WeightVector(1.0, 1.0, 1.0, 1.0),
            bounds=bounds, constraints=cons, x_init=DEFAULT_X_INIT,
            expected_x_star=DesignVector(0.506, 2.1, 0.55, 0.61, 0.76),
        ),
        Scenario(
            name="low-cost",
            weights=WeightVector(1.0, 2.0, 1.0, 1.0),
            bounds=bounds, constraints=cons, x_init=DEFAULT_X_INIT,
            expected_x_star=DesignVector(0.38, 2.11, 0.275, 0.30, 0.57),
        ),
        Scenario(
            name="survey",
            weights=WeightVector(2.0, 1.0, 1.2, 2.0),
            bounds=bounds, constraints=cons, x_init=DEFAULT_X_INIT,
            expected_x_star=DesignVector(0.604, 2.09, 0.70, 0.73, 0.91),
        ),
    ]


def scenario_by_name(name: str) -> Scenario:
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r}; built-ins: {known}")


def reference_coefficients() -> ObjectiveCoefficients:
    """Coefficients fitted to the general design intent's target optimum.

    Frozen output of ``calibrate`` on the general scenario from all-ones
    coefficients; shipped so downstream studies can reproduce the
    reference optima without re-fitting.  The recipe that regenerates
    them bit for bit (2,500 evaluations) is::

        calibrate(scenario_by_name("general"), ObjectiveCoefficients(),
                  budget=2500,
                  settings=SolverSettings(multistart_count=4, seed=0))
    """
    return ObjectiveCoefficients(**_REFERENCE_COEFFICIENTS)


# Regenerate with the recipe in the reference_coefficients docstring.
_REFERENCE_COEFFICIENTS: dict[str, float] = {
    "kl": 0.0009119206473071695,
    "ke": 8.538577351421722,
    "k_eta": 0.117356985318783,
    "ae": 403.4287934927351,
    "a_eta": 7.604668350637141,
    "bl": 0.0014355203123521299,
    "bu": 0.12406885671697528,
}


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def calibrate(target: Scenario, initial_coeff: ObjectiveCoefficients,
              budget: int, settings: SolverSettings = SolverSettings(),
              ) -> CalibrationResult:
    """Fit free surrogate coefficients so the solved optimum matches the
    target scenario's expected design.

    Minimizes the squared distance between the multi-start solution and
    ``target.expected_x_star`` by Nelder-Mead in log-coefficient space
    (keeping every coefficient positive), spending at most ``budget``
    objective evaluations; each evaluation is a full multi-start solve.
    The search restarts with a fresh simplex around the incumbent until
    the budget runs out or a restart stops improving.  Never fails hard:
    the best coefficient set seen is returned with its residual.
    """
    import numpy as np

    if target.expected_x_star is None:
        raise ValueError(f"scenario {target.name!r} has no expected optimum "
                         "to calibrate against")
    check_integer("budget", budget, 1)

    expected = np.array(target.expected_x_star.as_tuple())
    pinned = replace(initial_coeff, kA=1.0, ku=1.0, au=1.0, bA=1.0)
    t_start = np.array([math.log(max(getattr(pinned, name), 1e-8))
                        for name in FREE_COEFFICIENTS])

    best: dict = {"residual": math.inf, "coeff": pinned, "x": None,
                  "t": t_start}
    evaluations = 0

    def unpack(t: np.ndarray) -> ObjectiveCoefficients:
        # The floor (~1e-3) keeps every design variable actively priced;
        # below it the optimum in that variable is set by the barrier
        # instead of the surrogates, which is numerically fragile.
        changes = {name: float(np.exp(np.clip(ti, -7.0, 6.0)))
                   for name, ti in zip(FREE_COEFFICIENTS, t)}
        return replace(pinned, **changes)

    def residual_of(t: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        coeff = unpack(t)
        result = multi_start_solve(target.weights, coeff, target.bounds,
                                   target.constraints, settings)
        r = float(np.sum((np.array(result.x_star.as_tuple()) - expected) ** 2))
        if r < best["residual"]:
            best.update(residual=r, coeff=coeff, x=result.x_star, t=t.copy())
        return r

    while evaluations < budget:
        before = best["residual"]
        minimize(residual_of, best["t"], method="Nelder-Mead",
                 options={"maxfev": budget - evaluations, "xatol": 1e-4,
                          "fatol": 1e-12, "adaptive": True})
        if best["residual"] >= before - 1e-12:
            break  # a full restart brought nothing new

    return CalibrationResult(coefficients=best["coeff"],
                             residual=best["residual"],
                             evaluations=evaluations,
                             x_star=best["x"])
