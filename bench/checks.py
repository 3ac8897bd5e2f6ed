"""Correctness checks on the outputs the benchmark times.

Each check raises ``CheckFailed`` naming what is wrong.  The sweep
reference is an independent SciPy SLSQP solve of the same convex problem,
with J written out here from the surrogate formulas rather than taken from
``dockopt.objective``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

import dockopt.solver
from dockopt import (CalibrationResult, ConstraintSet, DesignBounds,
                     DesignVector, ObjectiveCoefficients, Scenario,
                     SimulationReport, SolveResult, SolverSettings,
                     WeightVector, rayleigh_success_probability, total_cost)

FEASIBILITY_TOL = 1e-9
REFERENCE_GAP = 1e-6
J_TOL = 1e-12
MC_HALFWIDTHS = 4.0
MIN_CORRELATION = 0.97


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def reference_cost(x: np.ndarray, w: WeightVector,
                   c: ObjectiveCoefficients) -> float:
    """J = p h + q c - r d - s v, written out from the surrogate formulas."""
    A, l, u, e, eta = x
    An, ln = A / c.A_max, l / c.l_max
    h = (c.kA * An**2 + c.kl * ln**2) / (c.kA + c.kl)
    cost = (c.ku * u**2 + c.ke * e**2 + c.k_eta * eta**2) \
        / (c.ku + c.ke + c.k_eta)
    d = (c.au * u + c.ae * e + c.a_eta * eta) / (c.au + c.ae + c.a_eta)
    v = (c.bA * An + c.bl * ln + c.bu * u) / (c.bA + c.bl + c.bu)
    return float(w.p * h + w.q * cost - w.r * d - w.s * v)


def reference_optimum(w: WeightVector, c: ObjectiveCoefficients,
                      bounds: DesignBounds, cons: ConstraintSet) -> float:
    """Best feasible J found by SLSQP from two starts: one deep in the box
    (it may violate eta >= R*A) and one strictly feasible low-A corner.

    The tolerance-ratio floor eta/A >= R is posed as eta - R*A >= 0, which
    is the same set for A > 0 and keeps the problem convex.
    """
    lo = np.array(bounds.lower.as_tuple())
    hi = np.array(bounds.upper.as_tuple())
    constraints = (
        {"type": "ineq", "fun": lambda x: x[0] * x[1] - cons.volume_min},
        {"type": "ineq",
         "fun": lambda x: x[4] - cons.tolerance_ratio_min * x[0]},
    )
    corner = np.array([lo[0] + 0.01 * (hi[0] - lo[0]), hi[1], 0.5, 0.5, hi[4]])
    best = math.inf
    for start in (0.25 * lo + 0.75 * hi, corner):
        res = minimize(reference_cost, start, args=(w, c), method="SLSQP",
                       bounds=list(zip(lo, hi)), constraints=constraints,
                       options={"ftol": 1e-14, "maxiter": 500})
        x = np.clip(res.x, lo, hi)
        if x[0] * x[1] - cons.volume_min >= -FEASIBILITY_TOL \
                and x[4] - cons.tolerance_ratio_min * x[0] >= -FEASIBILITY_TOL:
            best = min(best, reference_cost(x, w, c))
    if not math.isfinite(best):
        raise CheckFailed("SLSQP reference found no feasible point")
    return best


def check_solve(result: SolveResult, w: WeightVector,
                c: ObjectiveCoefficients, bounds: DesignBounds,
                cons: ConstraintSet, reference_j: float) -> None:
    """x* lies in the box and meets both constraints to 1e-9, its reported J
    is J(x*), and J is no worse than the SLSQP reference by more than
    1e-6 * max(1, |J|)."""
    x = np.array(result.x_star.as_tuple())
    lo = np.array(bounds.lower.as_tuple())
    hi = np.array(bounds.upper.as_tuple())
    if np.any(x < lo) or np.any(x > hi):
        raise CheckFailed(f"x* {x.tolist()} leaves the design box")
    g1, g2 = cons.values(result.x_star)
    if g1 < -FEASIBILITY_TOL or g2 < -FEASIBILITY_TOL:
        raise CheckFailed(f"x* violates a constraint: g1={g1:.3e}, "
                          f"g2={g2:.3e}")
    j = reference_cost(x, w, c)
    if abs(result.objective.J - j) > J_TOL * max(1.0, abs(j)):
        raise CheckFailed(f"reported J {result.objective.J!r} is not J(x*) "
                          f"= {j!r}")
    gap = j - reference_j
    if gap > REFERENCE_GAP * max(1.0, abs(j)):
        raise CheckFailed(f"J {j:.12g} is worse than the SLSQP reference "
                          f"{reference_j:.12g} by {gap:.3e}")


def check_calibration(result: CalibrationResult, scenario: Scenario,
                      settings: SolverSettings, budget: int) -> None:
    """Re-solving with the returned coefficients reproduces the returned
    x_star and residual, within the evaluation budget."""
    if not 1 <= result.evaluations <= budget:
        raise CheckFailed(f"{scenario.name}: {result.evaluations} evaluations "
                          f"outside the budget {budget}")
    again = dockopt.solver.multi_start_solve(
        scenario.weights, result.coefficients, scenario.bounds,
        scenario.constraints, settings)
    x = np.array(again.x_star.as_tuple())
    if not np.array_equal(x, np.array(result.x_star.as_tuple())):
        raise CheckFailed(f"{scenario.name}: re-solve gives x* {x.tolist()}, "
                          f"calibration returned "
                          f"{list(result.x_star.as_tuple())}")
    expected = np.array(scenario.expected_x_star.as_tuple())
    residual = float(np.sum((x - expected) ** 2))
    if residual != result.residual:
        raise CheckFailed(f"{scenario.name}: re-solve residual {residual!r} "
                          f"differs from returned {result.residual!r}")


def check_bulk(values: np.ndarray, designs: np.ndarray, w: WeightVector,
               c: ObjectiveCoefficients, sample: np.ndarray) -> None:
    """Vectorised J matches scalar ``total_cost`` on the sampled rows."""
    for i in sample:
        scalar = total_cost(DesignVector(*designs[:, i].tolist()), w, c).J
        if abs(float(values[i]) - scalar) > J_TOL * max(1.0, abs(scalar)):
            raise CheckFailed(f"design {i}: vectorised J {values[i]!r} != "
                              f"scalar J {scalar!r}")


def check_simulation(report: SimulationReport, clearance: float,
                     sigma_c: float) -> None:
    """The Monte Carlo rate lies within 4 CI half-widths of the Rayleigh
    success probability."""
    exact = rayleigh_success_probability(clearance, sigma_c)
    miss = abs(report.success_rate - exact)
    if not miss <= MC_HALFWIDTHS * report.ci_halfwidth_95:
        raise CheckFailed(f"simulated rate {report.success_rate!r} misses "
                          f"the Rayleigh value {exact!r} by {miss:.3e} "
                          f"(> {MC_HALFWIDTHS} x {report.ci_halfwidth_95:.3e})")


def check_correlation(rho: float) -> None:
    if not rho > MIN_CORRELATION:
        raise CheckFailed(f"reliability correlation {rho!r} is not > "
                          f"{MIN_CORRELATION}")
