"""One constrained solve, step by step.

Minimizes the scalarized cost over the standard search box subject to the
volume floor (A*l >= 0.025 m^3) and the tolerance-ratio floor
(eta/A >= 1.5 1/m^2) with the log-barrier interior-point solver, then
walks through everything the result reports: the barrier continuation
trace, KKT diagnostics, active set, and the realized hardware parameters.
"""

from dockopt import (ConstraintSet, ObjectiveCoefficients, WeightVector,
                     default_bounds, realize_design, solve)
from dockopt.scenarios import DEFAULT_X_INIT

weights = WeightVector(p=1.0, q=1.0, r=1.0, s=1.0)
coeff = ObjectiveCoefficients()
result = solve(weights, coeff, default_bounds(), ConstraintSet(),
               DEFAULT_X_INIT)

# ---------------------------------------------------------------------------
# The barrier continuation: each stage re-solves with a smaller weight mu
# on the log barrier, tracking the central path toward the constrained
# optimum.  The true cost J decreases monotonically along the path.
# ---------------------------------------------------------------------------

print(f"{'mu':>10s} {'J':>14s} {'stationarity':>14s} {'inner':>6s}")
for stage in result.outer_trace:
    print(f"{stage.mu:10.1e} {stage.cost:14.9f} "
          f"{stage.stationarity:14.2e} {stage.inner_iterations:6d}")

# ---------------------------------------------------------------------------
# The solution record.
# ---------------------------------------------------------------------------

x = result.x_star
print(f"\nstatus {result.status.value} after {result.iterations} inner "
      f"iterations, KKT residual {result.kkt_residual:.2e}")
print(f"x* = [A={x.A:.4f} m^2, l={x.l:.4f} m, u={x.u:.4f}, "
      f"e={x.e:.4f}, eta={x.eta:.4f}]")
o = result.objective
print(f"objectives: h={o.h:.4f} c={o.c:.4f} d={o.d:.4f} v={o.v:.4f} "
      f"-> J={o.J:.6f}")
g1, g2 = result.constraint_values
print(f"constraint slack: volume {g1:.4f} m^3, tolerance ratio {g2:.4f} 1/m^2")
print(f"active set: {result.active_set or '(none)'}")

# Map the abstract optimum back onto vehicle/dock hardware numbers.
profile, geometry = realize_design(x, sigma_c_target=0.1)
print(f"\nrealized: {profile.dof_count} DOF, sigma_c = "
      f"{profile.control_error_sigma:.3f} m, dock spans "
      f"theta=[0, {geometry.theta2:.3f}] phi=[0, {geometry.phi2:.3f}], "
      f"D = {geometry.clearance:.3f} m")
