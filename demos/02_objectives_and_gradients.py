"""The four objective surrogates and the scalarized cost.

Hydrodynamic loss h and monetary cost c are minimized, docking
reliability d and versatility v are maximized, all normalized into
[0, 1]:

    J = p h + q c - r d - s v

This script evaluates the surrogates across designs, shows how weights
express design intent, and verifies the closed-form gradient against
central finite differences.
"""

import numpy as np

from dockopt import (DesignVector, ObjectiveCoefficients, WeightVector,
                     total_cost)
from dockopt.objective import gradient_at, total_cost_arrays

coeff = ObjectiveCoefficients()  # all-ones defaults, Table-style normalizers

# ---------------------------------------------------------------------------
# Objective breakdown across a small design family.
# ---------------------------------------------------------------------------

designs = {
    "compact":  DesignVector(A=0.05, l=0.8, u=0.30, e=0.25, eta=0.20),
    "balanced": DesignVector(A=0.30, l=1.8, u=0.60, e=0.50, eta=0.60),
    "capable":  DesignVector(A=0.70, l=2.7, u=0.95, e=0.80, eta=0.95),
}
weights = WeightVector(p=1.0, q=1.0, r=1.0, s=1.0)

print(f"{'design':10s} {'h':>7s} {'c':>7s} {'d':>7s} {'v':>7s} {'J':>8s}")
for name, x in designs.items():
    o = total_cost(x, weights, coeff)
    print(f"{name:10s} {o.h:7.4f} {o.c:7.4f} {o.d:7.4f} {o.v:7.4f} {o.J:8.4f}")

# Doubling the cost weight punishes the capable design hardest.
expensive = WeightVector(p=1.0, q=2.0, r=1.0, s=1.0)
print("\nwith the cost weight doubled:")
for name, x in designs.items():
    print(f"  {name:10s} J = {total_cost(x, expensive, coeff).J:8.4f}")

# ---------------------------------------------------------------------------
# Gradient audit: closed form vs central differences.
# ---------------------------------------------------------------------------

x = designs["balanced"]
analytic = gradient_at(*x.as_tuple(), weights, coeff)
numeric = np.empty(5)
point = np.array(x.as_tuple())
for i in range(5):
    h = 1e-6
    plus, minus = point.copy(), point.copy()
    plus[i] += h
    minus[i] -= h
    numeric[i] = (total_cost_arrays(*plus, weights, coeff)
                  - total_cost_arrays(*minus, weights, coeff)) / (2 * h)

print("\ngradient dJ/d[A, l, u, e, eta] at the balanced design:")
print("  analytic :", np.array2string(analytic, precision=6))
print("  numeric  :", np.array2string(numeric, precision=6))
print(f"  relative error {np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic):.2e}")
