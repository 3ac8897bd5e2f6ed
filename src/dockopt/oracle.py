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

The test runs in units of sigma_c: an attempt with standard normal draws
(z0, z1) succeeds when z0^2 + z1^2 <= (D / sigma_c)^2.  ``normal(0,
sigma_c)`` is sigma_c times the same ``standard_normal`` stream, so this
is the test |error| <= D without scaling each sample and without
``hypot``.  Squaring the scaled errors instead (x^2 + y^2 <= D^2) would
underflow to a success rate of 1 for D = sigma_c = 1e-200 and overflow for
1e200; the ratio D / sigma_c has neither problem, and the closed form is
computed from it too.  Samples are drawn in chunks of ``_CHUNK``, which
continue one stream, so the count does not depend on the chunk size.

A seed names one stream of attempts, and every clearance is counted
against it: ``reliability_correlation`` scores all of its designs on the
attempts that ``simulate_docking`` draws for the same seed and sample
count (common random numbers).  The designs then differ only in their
clearance, so the simulated rates rise with it as the true probabilities
do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import DesignVector, DockGeometry, check_integer
from .objective import ObjectiveCoefficients, docking_reliability

# Samples per draw: a (65536, 2) float64 block is 1 MiB.
_CHUNK = 65_536


def _check_draw(sigma_c: float, samples: int, seed: int) -> None:
    check_integer("samples", samples, 1)
    check_integer("seed", seed, 0)
    if not (math.isfinite(sigma_c) and sigma_c > 0.0):
        raise ValueError("sigma_c must be positive and finite")


@dataclass(frozen=True)
class SimulationConfig:
    geometry: DockGeometry
    sigma_c: float
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_draw(self.sigma_c, self.samples, self.seed)


@dataclass(frozen=True)
class SimulationReport:
    success_rate: float
    ci_halfwidth_95: float
    samples: int


def _radius_sq(clearance: float, sigma_c: float) -> float:
    """The clearance in units of sigma_c, squared: the product, not ** 2,
    so a ratio beyond sqrt(float max) gives inf instead of raising."""
    radius = clearance / sigma_c
    return radius * radius


def rayleigh_success_probability(clearance: float, sigma_c: float) -> float:
    """Closed-form docking success probability for the 2-D Gaussian error
    model: the Rayleigh CDF evaluated at the clearance."""
    if not (math.isfinite(sigma_c) and sigma_c > 0.0):
        raise ValueError(f"sigma_c must be positive and finite, got {sigma_c}")
    if not math.isfinite(clearance):
        raise ValueError(f"clearance must be finite, got {clearance}")
    if clearance < 0.0:
        return 0.0
    return 1.0 - math.exp(-_radius_sq(clearance, sigma_c) / 2.0)


def _success_counts(seed: int, samples: int,
                    radii_sq: list[float]) -> list[int]:
    """Per squared radius, the number of ``samples`` attempts of the
    stream of ``seed`` whose squared error z0^2 + z1^2 is at most it.

    The draws go into one reused block of at most ``_CHUNK`` rows, whose
    squared row sums are counted against every radius in turn.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = min(samples, _CHUNK)
    block = np.empty((rows, 2))
    dist_sq = np.empty(rows)
    inside = np.empty(rows, dtype=bool)
    counts = [0] * len(radii_sq)
    remaining = samples
    while remaining > 0:
        n = min(remaining, _CHUNK)
        z, d, hit = block[:n], dist_sq[:n], inside[:n]
        rng.standard_normal(out=z)
        np.multiply(z, z, out=z)
        np.add(z[:, 0], z[:, 1], out=d)
        for k, radius_sq in enumerate(radii_sq):
            np.less_equal(d, radius_sq, out=hit)
            counts[k] += int(np.count_nonzero(hit))
        remaining -= n
    return counts


def simulate_docking(cfg: SimulationConfig) -> SimulationReport:
    """Sample docking attempts and report the empirical success rate.

    Lateral error components are independent N(0, sigma_c^2) draws; an
    attempt succeeds when the error vector lies within the clearance
    circle of the dock entry.  The 95% confidence halfwidth uses the
    normal approximation 1.96 * sqrt(p(1-p)/n).
    """
    [successes] = _success_counts(
        cfg.seed, cfg.samples,
        [_radius_sq(cfg.geometry.clearance, cfg.sigma_c)])
    rate = successes / cfg.samples
    halfwidth = 1.96 * math.sqrt(rate * (1.0 - rate) / cfg.samples)
    return SimulationReport(success_rate=rate, ci_halfwidth_95=halfwidth,
                            samples=cfg.samples)


def reliability_correlation(designs: list[DesignVector],
                            coeff: ObjectiveCoefficients, sigma_c: float,
                            samples: int, seed: int) -> float:
    """Pearson correlation between simulated success rates and the
    reliability surrogate across a set of designs.

    Each design's clearance is realized as D = (1 + eta) * sigma_c, and
    every design is counted on the one stream of ``samples`` attempts
    that ``seed`` draws: a design's rate equals the ``simulate_docking``
    success rate of a ``SimulationConfig`` with that clearance, sigma_c,
    ``samples`` and ``seed``.  Meaningful only for designs spanning a
    range of eta; at least 10 spanning [0, 1] is recommended.  Raises
    ValueError on bad arguments before drawing, and when either series
    is degenerate.
    """
    import numpy as np

    if len(designs) < 2:
        raise ValueError("need at least two designs to correlate")
    _check_draw(sigma_c, samples, seed)
    radii_sq = []
    for x in designs:
        clearance = (1.0 + x.eta) * sigma_c
        if not math.isfinite(clearance):
            raise ValueError(f"clearance (1 + eta) * sigma_c overflows for "
                             f"eta = {x.eta}, sigma_c = {sigma_c}")
        radii_sq.append(_radius_sq(clearance, sigma_c))

    surrogate = np.array([docking_reliability(x, coeff) for x in designs])
    rates = np.array([count / samples for count in
                      _success_counts(seed, samples, radii_sq)])
    if np.std(surrogate) == 0.0 or np.std(rates) == 0.0:
        raise ValueError("degenerate design set: reliability values or "
                         "simulated rates have zero variance")
    return float(np.corrcoef(rates, surrogate)[0, 1])
