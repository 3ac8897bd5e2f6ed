"""Monte Carlo docking simulation against the reliability surrogate.

A docking attempt is modeled as a 2-D Gaussian lateral error against the
dock aperture: success means the error stays inside the single-side
clearance D.  The error magnitude is Rayleigh distributed, giving the
closed form P = 1 - exp(-D^2 / (2 sigma^2)) to validate the sampler, and
the sampler in turn grounds the linear reliability surrogate: simulated
success rates correlate strongly with the surrogate across the docking
tolerance range.
"""

import math

import numpy as np

from dockopt import (DesignVector, DockGeometry, ObjectiveCoefficients,
                     SimulationConfig, docking_reliability,
                     rayleigh_success_probability, reliability_correlation,
                     simulate_docking)

SIGMA = 0.1
HEMISPHERE = (0.0, 2 * math.pi, 0.0, math.pi / 2)

# ---------------------------------------------------------------------------
# Sampler vs closed form over a range of clearances.
# ---------------------------------------------------------------------------

print(f"{'D/sigma':>8s} {'simulated':>10s} {'closed form':>12s} {'abs diff':>9s}")
for ratio in (0.5, 1.0, 1.5, 2.0, 3.0):
    clearance = ratio * SIGMA
    report = simulate_docking(SimulationConfig(
        geometry=DockGeometry(*HEMISPHERE, clearance),
        sigma_c=SIGMA, samples=200_000, seed=11))
    exact = rayleigh_success_probability(clearance, SIGMA)
    print(f"{ratio:8.1f} {report.success_rate:10.5f} {exact:12.5f} "
          f"{abs(report.success_rate - exact):9.5f}")

# eta = 1 corresponds to D = 2 sigma: about an 86.5% capture rate when
# the vehicle aims at the ideal entry point.
print(f"\nat full tolerance (eta = 1): P = {rayleigh_success_probability(2 * SIGMA, SIGMA):.4f}")

# ---------------------------------------------------------------------------
# Grounding the linear surrogate d: across designs that span the docking
# tolerance range, simulated success tracks the surrogate tightly.  All
# designs are scored on one shared draw of attempts per seed, so they
# differ only in their clearance D = (1 + eta) sigma.
# ---------------------------------------------------------------------------

etas = np.linspace(0.0, 1.0, 11)
designs = [DesignVector(A=0.1, l=1.0, u=0.5, e=0.5, eta=float(e))
           for e in etas]
coeff = ObjectiveCoefficients(au=0.0, ae=0.0, a_eta=1.0)  # isolate eta

corr = reliability_correlation(designs, coeff, sigma_c=SIGMA,
                               samples=100_000, seed=0)
print(f"\nPearson correlation, simulation vs surrogate over the eta grid: "
      f"{corr:.4f}")

# Each rate below is one that the correlation above paired: a standalone
# simulation with the same seed and sample count draws the same attempts.
print(f"\n{'eta':>5s} {'surrogate d':>12s} {'simulated P':>12s}")
for x in designs[::2]:
    geom = DockGeometry(*HEMISPHERE, (1 + x.eta) * SIGMA)
    report = simulate_docking(SimulationConfig(
        geometry=geom, sigma_c=SIGMA, samples=100_000, seed=0))
    print(f"{x.eta:5.2f} {docking_reliability(x, coeff):12.4f} "
          f"{report.success_rate:12.4f}")
