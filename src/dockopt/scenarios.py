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
so ``calibrate`` fits the free coefficients to a target optimum by one
bounded least-squares fit over log-coefficients, with one coefficient per
surrogate pinned at 1 to remove the normalization null direction.

``calibrate`` is the only code here that loads scipy (``scipy.optimize``
alone, for ``least_squares``) and numpy, each on its first call; the
solver loads neither.  Importing this module loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .domain import (DesignBounds, DesignVector, WeightVector, check_integer,
                     default_bounds)
from .objective import ObjectiveCoefficients
# calibrate calls multi_start_solve through this module's name because
# bench/ wraps it there to time each solve.
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
    them bit for bit is::

        calibrate(scenario_by_name("general"), ObjectiveCoefficients(),
                  budget=2500)

    The solver settings change no answer, so the recipe names none.  The
    fit ends on its own after 194 solves, with kl, ke and k_eta on the
    e^-7 floor of the log-coefficient bounds.
    """
    return ObjectiveCoefficients(**_REFERENCE_COEFFICIENTS)


# Regenerate with the recipe in the reference_coefficients docstring.
_REFERENCE_COEFFICIENTS: dict[str, float] = {
    "kl": 0.0009118945682098223,
    "ke": 0.0009118820429821466,
    "k_eta": 0.0009118865934200256,
    "ae": 0.0011131845387075973,
    "a_eta": 0.0013869112147247159,
    "bl": 0.0013295394292910342,
    "bu": 0.04111308494578543,
}


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.  Unused
    here: it stays only because bench/tracing.py wraps it by name, and goes
    once bench/ stops wrapping it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class _BudgetSpent(Exception):
    """Raised by an evaluation past the budget to end the fit."""


def calibrate(target: Scenario, initial_coeff: ObjectiveCoefficients,
              budget: int, settings: SolverSettings = SolverSettings(),
              ) -> CalibrationResult:
    """Fit free surrogate coefficients so the solved optimum matches the
    target scenario's expected design.

    One trust-region-reflective least-squares fit (``least_squares``,
    method ``trf``, 2-point Jacobian) over the log-coefficients, bounded
    to [-7, 6].  The misses are (x* - x_target) / scale, where scale is
    the target component if it is > 0 and the box range otherwise, so
    the built-in targets are fitted by relative miss.  Each evaluation is
    one barrier solve from ``interior_anchor`` (``multi_start_solve``), the
    Jacobian's included, and at most ``budget`` of them are spent.  Never
    fails hard: the point with the least squared scaled miss seen is
    returned, with ``residual`` its squared distance to the target.
    ``settings`` selects nothing; it stays only because bench/ passes it.
    """
    import numpy as np
    from scipy.optimize import least_squares

    if target.expected_x_star is None:
        raise ValueError(f"scenario {target.name!r} has no expected optimum "
                         "to calibrate against")
    check_integer("budget", budget, 1)

    expected = np.array(target.expected_x_star.as_tuple())
    lo, hi = target.bounds.lower.as_tuple(), target.bounds.upper.as_tuple()
    scale = np.where(expected > 0.0, expected, np.subtract(hi, lo))
    pinned = replace(initial_coeff, kA=1.0, ku=1.0, au=1.0, bA=1.0)
    t_start = [min(max(math.log(max(getattr(pinned, name), 1e-8)), -7.0), 6.0)
               for name in FREE_COEFFICIENTS]

    best: dict = {"cost": math.inf}
    evaluations = 0

    def unpack(t: np.ndarray) -> ObjectiveCoefficients:
        # The fit's bounds.  The e^-7 floor keeps every quadratic term of J
        # positive, so J is strictly convex and x* is unique and moves
        # smoothly with the coefficients, as the 2-point Jacobian needs.
        # min/max on the scalar clips as np.clip does, nan included, at a
        # fraction of its per-call cost.
        changes = {name: float(np.exp(min(max(ti, -7.0), 6.0)))
                   for name, ti in zip(FREE_COEFFICIENTS, t)}
        return replace(pinned, **changes)

    def misses(t: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        if evaluations == budget:
            raise _BudgetSpent
        evaluations += 1
        coeff = unpack(t)
        result = multi_start_solve(target.weights, coeff, target.bounds,
                                   target.constraints, settings)
        miss = (np.array(result.x_star.as_tuple()) - expected) / scale
        cost = float(miss @ miss)
        if cost < best["cost"]:
            best.update(cost=cost, coeff=coeff, x=result.x_star)
        return miss

    try:
        least_squares(misses, t_start, jac="2-point", bounds=(-7.0, 6.0),
                      method="trf")
    except _BudgetSpent:
        pass

    x = np.array(best["x"].as_tuple())
    return CalibrationResult(coefficients=best["coeff"],
                             residual=float(np.sum((x - expected) ** 2)),
                             evaluations=evaluations, x_star=best["x"])
