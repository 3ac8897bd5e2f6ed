"""Monte Carlo docking-attempt simulator.

Independent, physics-grounded check on the reliability surrogate and the
tolerance definition: a docking attempt is modeled as a 2-D isotropic
Gaussian lateral error against the dock aperture, succeeding when the
error magnitude stays within the single-side clearance D.  The magnitude
of that error is Rayleigh distributed, so the exact success probability

    P(success) = 1 - exp(-D^2 / (2 sigma_c^2))

is available in closed form as the reference for the sampled estimate.
The simulator exercises only the clearance channel; entry-direction and
control-fidelity effects are outside its success condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import DesignVector, DockGeometry, check_integer
from .objective import ObjectiveCoefficients, docking_reliability

_CHUNK = 1_000_000


@dataclass(frozen=True)
class SimulationConfig:
    geometry: DockGeometry
    sigma_c: float
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("samples", self.samples, 1)
        check_integer("seed", self.seed, 0)
        if not (math.isfinite(self.sigma_c) and self.sigma_c > 0.0):
            raise ValueError("sigma_c must be positive and finite")


@dataclass(frozen=True)
class SimulationReport:
    success_rate: float
    ci_halfwidth_95: float
    samples: int


def rayleigh_success_probability(clearance: float, sigma_c: float) -> float:
    """Closed-form docking success probability for the 2-D Gaussian error
    model: the Rayleigh CDF evaluated at the clearance."""
    if not (math.isfinite(sigma_c) and sigma_c > 0.0):
        raise ValueError(f"sigma_c must be positive and finite, got {sigma_c}")
    if not math.isfinite(clearance):
        raise ValueError(f"clearance must be finite, got {clearance}")
    if clearance < 0.0:
        return 0.0
    return 1.0 - math.exp(-clearance**2 / (2.0 * sigma_c**2))


def simulate_docking(cfg: SimulationConfig) -> SimulationReport:
    """Sample docking attempts and report the empirical success rate.

    Lateral error components are independent N(0, sigma_c^2) draws; an
    attempt succeeds when the error vector lies within the clearance
    circle of the dock entry.  The 95% confidence halfwidth uses the
    normal approximation 1.96 * sqrt(p(1-p)/n).
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    clearance = cfg.geometry.clearance
    successes = 0
    remaining = cfg.samples
    while remaining > 0:
        n = min(remaining, _CHUNK)
        errors = rng.normal(0.0, cfg.sigma_c, size=(n, 2))
        successes += int(np.count_nonzero(np.hypot(errors[:, 0], errors[:, 1])
                                          <= clearance))
        remaining -= n
    rate = successes / cfg.samples
    halfwidth = 1.96 * math.sqrt(rate * (1.0 - rate) / cfg.samples)
    return SimulationReport(success_rate=rate, ci_halfwidth_95=halfwidth,
                            samples=cfg.samples)


def reliability_correlation(designs: list[DesignVector],
                            coeff: ObjectiveCoefficients, sigma_c: float,
                            samples: int, seed: int) -> float:
    """Pearson correlation between simulated success rates and the
    reliability surrogate across a set of designs.

    Each design's clearance is realized as D = (1 + eta) * sigma_c and
    simulated independently (deterministic child seeds).  Meaningful only
    for designs spanning a range of eta; at least 10 spanning [0, 1] is
    recommended.  Raises ValueError when either series is degenerate.
    """
    import numpy as np

    if len(designs) < 2:
        raise ValueError("need at least two designs to correlate")
    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2**63 - 1, size=len(designs))

    surrogate = np.array([docking_reliability(x, coeff) for x in designs])
    rates = np.empty(len(designs))
    for i, x in enumerate(designs):
        geom = DockGeometry(0.0, 2.0 * math.pi, 0.0, math.pi / 2.0,
                            clearance=(1.0 + x.eta) * sigma_c)
        cfg = SimulationConfig(geometry=geom, sigma_c=sigma_c,
                               samples=samples, seed=int(child_seeds[i]))
        rates[i] = simulate_docking(cfg).success_rate

    if np.std(surrogate) == 0.0 or np.std(rates) == 0.0:
        raise ValueError("degenerate design set: reliability values or "
                         "simulated rates have zero variance")
    return float(np.corrcoef(rates, surrogate)[0, 1])
