"""Trade-off exploration by sweeping the cost weight.

Sweeping one objective weight while re-solving traces a slice of the
Pareto front of the underlying multi-objective problem.  Here the cost
weight q runs from 0.5 to 3: as cost matters more, the optimizer trades
away control fidelity, entry area, and docking tolerance, and the
achieved cost score c falls while reliability d falls with it.
"""

import numpy as np

from dockopt import (ConstraintSet, WeightVector, default_bounds,
                     reference_coefficients, solve)
from dockopt.scenarios import DEFAULT_X_INIT

coeff = reference_coefficients()
bounds = default_bounds()
cons = ConstraintSet()

q_values = np.linspace(0.5, 3.0, 11)
rows = []
for q in q_values:
    weights = WeightVector(p=1.0, q=float(q), r=1.0, s=1.0)
    result = solve(weights, coeff, bounds, cons, DEFAULT_X_INIT)
    rows.append((q, result))

print(f"{'q':>5s} {'A':>7s} {'l':>6s} {'u':>6s} {'e':>6s} {'eta':>6s} "
      f"{'c':>7s} {'d':>7s} {'J':>8s} status")
for q, result in rows:
    x = result.x_star
    o = result.objective
    print(f"{q:5.2f} {x.A:7.3f} {x.l:6.2f} {x.u:6.3f} {x.e:6.3f} "
          f"{x.eta:6.3f} {o.c:7.4f} {o.d:7.4f} {o.J:8.4f} "
          f"{result.status.value}")

# ---------------------------------------------------------------------------
# The cost-reliability front: each sweep point is one non-dominated
# (c, d) pair; lowering achievable cost necessarily surrenders
# reliability.
# ---------------------------------------------------------------------------

print("\ncost-reliability trade-off along the sweep:")
for q, result in rows[::2]:
    o = result.objective
    bar = "#" * int(round(o.d * 40))
    print(f"  q={q:4.2f}  c={o.c:6.4f}  d={o.d:6.4f} {bar}")

fidelity = [r.x_star.u for _, r in rows]
print("\ncontrol fidelity is monotone under cost pressure:",
      "yes" if all(a >= b - 1e-9 for a, b in zip(fidelity, fidelity[1:]))
      else "no")
