"""Monte Carlo docking simulator against the Rayleigh closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockopt import (DesignVector, DockGeometry, ObjectiveCoefficients,
                     SimulationConfig, docking_reliability,
                     rayleigh_success_probability, reliability_correlation,
                     simulate_docking)
from dockopt.oracle import _CHUNK, _success_counts

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

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(0.01, 10.0), ratio=st.floats(0.0, 4.0),
           j=st.integers(-600, 600))
    def test_value_is_invariant_to_the_length_unit(self, sigma, ratio, j):
        # Squaring D and sigma_c apart would overflow at 1e200 and divide
        # zero by zero at 1e-200; their ratio is exact under 2**j.
        k = 2.0**j
        clearance = ratio * sigma
        assert rayleigh_success_probability(clearance * k, sigma * k) \
            == rayleigh_success_probability(clearance, sigma)


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

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.01, 10.0), ratio=st.floats(0.0, 4.0),
           j=st.integers(-600, 600), seed=st.integers(0, 2**31))
    def test_count_is_invariant_to_the_length_unit(self, sigma, ratio, j,
                                                    seed):
        # Scaling D and sigma_c by a power of two changes no sample's
        # verdict; squaring the scaled errors would underflow or overflow.
        k = 2.0**j
        clearance = ratio * sigma
        base = simulate_docking(config(clearance, sigma, 2_000, seed))
        scaled = simulate_docking(config(clearance * k, sigma * k, 2_000,
                                         seed))
        assert scaled == base

    # Draw sizes at the edges of the reused block: one row, a part block,
    # one full block, a block and one row, several blocks and a part.
    @pytest.mark.parametrize("seed, n", [
        *(pytest.param(0, n, id=f"n={n}")
          for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1)),
        *(pytest.param(seed, 3 * _CHUNK + 17, id=str(seed))
          for seed in (0, 1, 2))])
    def test_chunked_count_matches_a_one_shot_hypot_reference(self, seed, n):
        sigma, clearance = 0.1, 0.13
        errors = np.random.default_rng(seed).normal(0.0, sigma, (n, 2))
        expected = int(np.count_nonzero(np.hypot(*errors.T) <= clearance))
        report = simulate_docking(config(clearance, sigma, n, seed))
        assert report.success_rate == expected / n

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), samples=st.integers(1, 2 * _CHUNK + 3),
           radii_sq=st.lists(st.floats(0.0, math.inf), min_size=1,
                             max_size=8))
    def test_counts_do_not_decrease_with_the_radius(self, seed, samples,
                                                    radii_sq):
        radii_sq.sort()
        counts = _success_counts(seed, samples, radii_sq)
        assert counts == sorted(counts)
        assert 0 <= counts[0] and counts[-1] <= samples

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
        assert corr == pytest.approx(0.9931528827853451, abs=1e-12)

    @pytest.mark.parametrize("samples, seed", [(20_000, 0),
                                               (3 * _CHUNK + 17, 4)])
    def test_equals_the_correlation_of_standalone_simulations(self, samples,
                                                              seed):
        # Every design is counted on the attempts that simulate_docking
        # draws for the same seed and sample count.
        coeff, sigma = ObjectiveCoefficients(), 0.1
        rates = [simulate_docking(config((1.0 + x.eta) * sigma, sigma,
                                         samples, seed)).success_rate
                 for x in self.designs()]
        surrogate = [docking_reliability(x, coeff) for x in self.designs()]
        assert reliability_correlation(self.designs(), coeff, sigma, samples,
                                       seed) \
            == float(np.corrcoef(rates, surrogate)[0, 1])

    @pytest.mark.parametrize("key, value", [
        ("samples", 0), ("samples", 2.5), ("samples", math.inf),
        ("seed", 1.5), ("seed", -1),
        ("sigma_c", 0.0), ("sigma_c", math.nan), ("sigma_c", math.inf)])
    def test_bad_argument_rejected_before_any_draw(self, monkeypatch, key,
                                                   value):
        def no_draw(*args, **kwargs):
            raise AssertionError("attempts drawn for a bad argument")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        args = {"sigma_c": 0.1, "samples": 1_000, "seed": 0, key: value}
        with pytest.raises(ValueError, match=key):
            reliability_correlation(self.designs(), self.ETA_ONLY, **args)

    def test_overflowing_clearance_rejected(self):
        # (1 + eta) * sigma_c is inf for eta near 1: no geometry has it
        with pytest.raises(ValueError, match="clearance"):
            reliability_correlation(self.designs(), self.ETA_ONLY,
                                    sigma_c=1e308, samples=1_000, seed=0)

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
