"""Three design intents, three different optimal systems.

The built-in scenarios express common AUV-dock design intents purely
through the objective weights: a general-purpose system, a cost-driven
system, and a survey-grade resident system.  Solving all three with the
fitted reference coefficients shows the co-design consequences: cost
pressure shrinks control fidelity, entry area, and tolerance together,
while the survey intent grows all three.
"""

from dockopt import reference_coefficients, solve
from dockopt.scenarios import builtin_scenarios

coeff = reference_coefficients()

results = {}
for scenario in builtin_scenarios():
    results[scenario.name] = solve(scenario.weights, coeff, scenario.bounds,
                                   scenario.constraints, scenario.x_init)

# ---------------------------------------------------------------------------
# Side-by-side optima.
# ---------------------------------------------------------------------------

print(f"{'scenario':10s} {'weights [p,q,r,s]':20s} "
      f"{'A':>7s} {'l':>6s} {'u':>6s} {'e':>6s} {'eta':>6s} {'J':>8s}")
for scenario in builtin_scenarios():
    r = results[scenario.name]
    w = scenario.weights
    x = r.x_star
    print(f"{scenario.name:10s} [{w.p:g}, {w.q:g}, {w.r:g}, {w.s:g}]"
          f"{'':6s} {x.A:7.3f} {x.l:6.2f} {x.u:6.3f} {x.e:6.3f} "
          f"{x.eta:6.3f} {r.objective.J:8.4f}")

print("\ntargets from the scenario catalog:")
for scenario in builtin_scenarios():
    t = scenario.expected_x_star
    print(f"{scenario.name:10s} {'':26s} {t.A:7.3f} {t.l:6.2f} "
          f"{t.u:6.3f} {t.e:6.3f} {t.eta:6.3f}")

# ---------------------------------------------------------------------------
# Movement between intents: the low-cost intent suppresses u, e, eta; the
# survey intent raises them above the general-purpose solution.
# ---------------------------------------------------------------------------

print("\ndirectional movement (low-cost < general < survey):")
for index, name in ((2, "u"), (3, "e"), (4, "eta")):
    low = results["low-cost"].x_star.as_tuple()[index]
    mid = results["general"].x_star.as_tuple()[index]
    high = results["survey"].x_star.as_tuple()[index]
    marker = "ok" if low < mid < high else "violated"
    print(f"  {name:3s}: {low:.3f} < {mid:.3f} < {high:.3f}  [{marker}]")
