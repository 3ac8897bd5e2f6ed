"""Monte Carlo docking simulator against the Rayleigh closed form."""

import math

import numpy as np
import pytest

from dockopt import (DesignVector, DockGeometry, ObjectiveCoefficients,
                     SimulationConfig, docking_reliability,
                     rayleigh_success_probability, reliability_correlation,
                     simulate_docking)

HEMISPHERE = (0.0, 2 * math.pi, 0.0, math.pi / 2)


def config(clearance: float, sigma_c: float = 0.1, samples: int = 100_000,
           seed: int = 0) -> SimulationConfig:
    return SimulationConfig(geometry=DockGeometry(*HEMISPHERE, clearance),
                            sigma_c=sigma_c, samples=samples, seed=seed)


class TestClosedForm:
    def test_one_sigma_clearance(self):
        assert rayleigh_success_probability(0.1, 0.1) \
            == pytest.approx(1 - math.exp(-0.5))

    def test_two_sigma_clearance(self):
        assert rayleigh_success_probability(0.2, 0.1) \
            == pytest.approx(1 - math.exp(-2.0))

    def test_zero_clearance(self):
        assert rayleigh_success_probability(0.0, 0.1) == 0.0

    @pytest.mark.parametrize("clearance, sigma_c", [
        (0.1, math.nan), (math.nan, 0.1), (0.1, math.inf), (math.inf, 0.1)])
    def test_non_finite_input_rejected(self, clearance, sigma_c):
        with pytest.raises(ValueError):
            rayleigh_success_probability(clearance, sigma_c)


class TestSimulateDocking:
    def test_matches_rayleigh_at_one_sigma(self):
        report = simulate_docking(config(clearance=0.1))
        expected = 1 - math.exp(-0.5)  # ~0.3935
        assert abs(report.success_rate - expected) < 3 * report.ci_halfwidth_95

    def test_matches_rayleigh_at_two_sigma(self):
        report = simulate_docking(config(clearance=0.2))
        expected = 1 - math.exp(-2.0)  # ~0.8647
        assert abs(report.success_rate - expected) < 3 * report.ci_halfwidth_95

    def test_zero_clearance_never_docks(self):
        report = simulate_docking(config(clearance=0.0, samples=10_000))
        assert report.success_rate == 0.0

    def test_ci_formula(self):
        report = simulate_docking(config(clearance=0.15))
        p = report.success_rate
        assert report.ci_halfwidth_95 == pytest.approx(
            1.96 * math.sqrt(p * (1 - p) / report.samples))

    def test_deterministic(self):
        a = simulate_docking(config(clearance=0.13, seed=7))
        b = simulate_docking(config(clearance=0.13, seed=7))
        assert a == b

    def test_converges_for_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            sigma = rng.uniform(0.05, 2.0)
            clearance = rng.uniform(0.2, 3.0) * sigma
            report = simulate_docking(config(clearance, sigma,
                                             seed=int(rng.integers(2**31))))
            expected = rayleigh_success_probability(clearance, sigma)
            assert abs(report.success_rate - expected) \
                < 3 * report.ci_halfwidth_95

    def test_monotone_in_clearance(self):
        sigma = 0.1
        grid = np.linspace(0.0, 0.5, 20)
        closed = [rayleigh_success_probability(d, sigma) for d in grid]
        assert all(a <= b for a, b in zip(closed, closed[1:]))
        # MC spot checks, allowing CI-level noise
        rates = [simulate_docking(config(d, sigma, seed=5)).success_rate
                 for d in grid[::4]]
        for a, b in zip(rates, rates[1:]):
            assert a <= b + 2e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(clearance=0.1, samples=0)
        with pytest.raises(ValueError):
            config(clearance=0.1, sigma_c=0.0)

    @pytest.mark.parametrize("key, value", [
        ("samples", math.inf), ("samples", 2.5), ("seed", 1.5)])
    def test_non_integral_count_rejected(self, key, value):
        # an infinite sample count would keep simulate_docking sampling forever
        with pytest.raises(ValueError, match=key):
            config(clearance=0.1, **{key: value})


class TestReliabilityCorrelation:
    ETA_GRID = np.linspace(0.0, 1.0, 11)
    ETA_ONLY = ObjectiveCoefficients(au=0.0, ae=0.0, a_eta=1.0)

    def designs(self):
        return [DesignVector(0.1, 1.0, 0.5, 0.5, float(e))
                for e in self.ETA_GRID]

    def test_eta_grid_correlation(self):
        corr = reliability_correlation(self.designs(), self.ETA_ONLY,
                                       sigma_c=0.1, samples=20_000, seed=0)
        assert corr > 0.97
        # frozen from the seeded run; the Rayleigh closed form gives 0.99410
        assert corr == pytest.approx(0.9936499768253164, abs=1e-12)

    def test_matches_closed_form_oracle(self):
        rates = np.array([1 - math.exp(-(1 + e) ** 2 / 2)
                          for e in self.ETA_GRID])
        oracle = float(np.corrcoef(rates, self.ETA_GRID)[0, 1])
        assert oracle == pytest.approx(0.9940960305236495, abs=1e-12)
        corr = reliability_correlation(self.designs(), self.ETA_ONLY,
                                       sigma_c=0.1, samples=50_000, seed=3)
        assert corr == pytest.approx(oracle, abs=5e-3)

    def test_shuffled_pairing_destroys_correlation(self):
        rates = np.array([1 - math.exp(-(1 + e) ** 2 / 2)
                          for e in self.ETA_GRID])
        matched = float(np.corrcoef(rates, self.ETA_GRID)[0, 1])
        shuffled = float(np.corrcoef(
            rates, self.ETA_GRID[np.random.default_rng(1).permutation(11)])[0, 1])
        assert abs(shuffled) < matched - 0.2

    def test_identical_designs_rejected(self):
        pair = [DesignVector(0.1, 1.0, 0.5, 0.5, 0.4)] * 2
        with pytest.raises(ValueError):
            reliability_correlation(pair, self.ETA_ONLY, sigma_c=0.1,
                                    samples=1_000, seed=0)

    def test_single_design_rejected(self):
        with pytest.raises(ValueError):
            reliability_correlation([DesignVector(0.1, 1.0, 0.5, 0.5, 0.4)],
                                    self.ETA_ONLY, sigma_c=0.1,
                                    samples=1_000, seed=0)

    def test_correlates_with_full_surrogate(self):
        # mixed coefficients still track the simulator through the eta channel
        corr = reliability_correlation(self.designs(), ObjectiveCoefficients(),
                                       sigma_c=0.1, samples=20_000, seed=2)
        assert corr > 0.97

    def test_surrogate_values_enter_the_pairing(self):
        coeff = ObjectiveCoefficients()
        expected = [docking_reliability(x, coeff) for x in self.designs()]
        assert expected == sorted(expected)
