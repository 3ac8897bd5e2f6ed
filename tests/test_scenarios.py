"""Built-in design intents, calibration behavior, and directional transfer."""

import dataclasses
import math

import numpy as np
import pytest

from dockopt import (ObjectiveCoefficients, SolverSettings, WeightVector,
                     calibrate, multi_start_solve, reference_coefficients)
from dockopt.scenarios import (FREE_COEFFICIENTS, Scenario, builtin_scenarios,
                               scenario_by_name)

FAST = SolverSettings(multistart_count=4, seed=0)


class TestBuiltinScenarios:
    def test_catalog(self):
        scenarios = builtin_scenarios()
        assert [s.name for s in scenarios] == ["general", "low-cost", "survey"]

    def test_weights(self):
        by_name = {s.name: s for s in builtin_scenarios()}
        assert by_name["general"].weights == WeightVector(1, 1, 1, 1)
        assert by_name["low-cost"].weights == WeightVector(1, 2, 1, 1)
        assert by_name["survey"].weights == WeightVector(2, 1, 1.2, 2)

    def test_expected_optima(self):
        by_name = {s.name: s for s in builtin_scenarios()}
        assert by_name["general"].expected_x_star.as_tuple() \
            == (0.506, 2.1, 0.55, 0.61, 0.76)
        assert by_name["low-cost"].expected_x_star.as_tuple() \
            == (0.38, 2.11, 0.275, 0.30, 0.57)
        assert by_name["survey"].expected_x_star.as_tuple() \
            == (0.604, 2.09, 0.70, 0.73, 0.91)

    def test_shared_problem_setup(self):
        for s in builtin_scenarios():
            assert s.bounds.lower.as_tuple() == (0.01, 0.5, 0.083, 0.177, 0.0)
            assert s.bounds.upper.as_tuple() == (1.0, 3.0, 1.0, 0.855, 1.0)
            assert s.constraints.volume_min == 0.025
            assert s.constraints.tolerance_ratio_min == 1.5
            assert s.x_init.as_tuple() == (0.03, 1.5, 0.5, 0.5, 0.5)
            assert s.expected_tolerance == 0.15

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("bogus")


class TestCalibrate:
    def test_self_consistent_target_is_a_fixed_point(self):
        general = scenario_by_name("general")
        produced = multi_start_solve(general.weights, ObjectiveCoefficients(),
                                     general.bounds, general.constraints, FAST)
        target = Scenario(name="self", weights=general.weights,
                          bounds=general.bounds,
                          constraints=general.constraints,
                          x_init=general.x_init,
                          expected_x_star=produced.x_star)
        outcome = calibrate(target, ObjectiveCoefficients(), budget=30,
                            settings=FAST)
        assert outcome.residual < 1e-8
        for name in FREE_COEFFICIENTS:
            assert getattr(outcome.coefficients, name) \
                == pytest.approx(1.0, abs=0.15)

    def test_deterministic(self):
        general = scenario_by_name("general")
        first = calibrate(general, ObjectiveCoefficients(), budget=40,
                          settings=FAST)
        second = calibrate(general, ObjectiveCoefficients(), budget=40,
                           settings=FAST)
        assert first.residual == second.residual
        assert first.coefficients == second.coefficients
        assert first.x_star.as_tuple() == second.x_star.as_tuple()

    def test_frozen_small_budget_golden(self):
        # regeneration recipe: calibrate(general, all-ones, budget=150,
        # settings=SolverSettings(multistart_count=4, seed=0))
        general = scenario_by_name("general")
        outcome = calibrate(general, ObjectiveCoefficients(), budget=150,
                            settings=FAST)
        assert outcome.residual == pytest.approx(GOLDEN_150_RESIDUAL,
                                                 rel=1e-9)
        for name, value in GOLDEN_150_COEFFICIENTS.items():
            assert getattr(outcome.coefficients, name) \
                == pytest.approx(value, rel=1e-9)

    def test_validation(self):
        general = scenario_by_name("general")
        with pytest.raises(ValueError):
            calibrate(general, ObjectiveCoefficients(), budget=0,
                      settings=FAST)
        # a fractional budget would overspend it, and nan would spend one
        for budget in (2.5, math.nan):
            with pytest.raises(ValueError, match="budget"):
                calibrate(general, ObjectiveCoefficients(), budget=budget,
                          settings=FAST)
        no_target = Scenario(name="bare", weights=general.weights,
                             bounds=general.bounds,
                             constraints=general.constraints,
                             x_init=general.x_init)
        with pytest.raises(ValueError):
            calibrate(no_target, ObjectiveCoefficients(), budget=5,
                      settings=FAST)


class TestReferenceCoefficients:
    def test_reproduces_general_target_within_tolerance(self):
        general = scenario_by_name("general")
        result = multi_start_solve(general.weights, reference_coefficients(),
                                   general.bounds, general.constraints, FAST)
        assert result.converged
        got = np.array(result.x_star.as_tuple())
        want = np.array(general.expected_x_star.as_tuple())
        assert np.all(np.abs(got - want) / want <= general.expected_tolerance)

    def solve_all(self, coeff):
        out = {}
        for scenario in builtin_scenarios():
            result = multi_start_solve(scenario.weights, coeff,
                                       scenario.bounds, scenario.constraints,
                                       FAST)
            out[scenario.name] = np.array(result.x_star.as_tuple())
        return out

    def test_directional_transfer_is_strict(self):
        xs = self.solve_all(reference_coefficients())
        for i in (2, 3, 4):  # u, e, eta
            assert xs["low-cost"][i] < xs["general"][i] < xs["survey"][i]

    def test_directional_transfer_under_perturbed_coefficients(self):
        # within 2x of the calibrated values the movement direction never
        # reverses; components that saturate at a shared bound may tie
        # (the spec of a bounded variable makes strictness impossible there)
        base = reference_coefficients()
        bounds = scenario_by_name("general").bounds
        hi = np.array(bounds.upper.as_tuple())
        lo = np.array(bounds.lower.as_tuple())
        rng = np.random.default_rng(7)
        for _ in range(6):
            factors = np.exp(rng.uniform(np.log(0.5), np.log(2.0),
                                         len(FREE_COEFFICIENTS)))
            perturbed = dataclasses.replace(base, **{
                name: getattr(base, name) * f
                for name, f in zip(FREE_COEFFICIENTS, factors)})
            xs = self.solve_all(perturbed)
            for i in (2, 3, 4):
                low, mid, high = (xs["low-cost"][i], xs["general"][i],
                                  xs["survey"][i])
                for a, b in ((low, mid), (mid, high)):
                    at_bound = (min(hi[i] - a, a - lo[i]) < 1e-6
                                and min(hi[i] - b, b - lo[i]) < 1e-6)
                    if at_bound:
                        assert a <= b + 1e-6
                    else:
                        assert a < b


def test_reference_coefficients_regenerate_by_recipe():
    # the recipe in the reference_coefficients docstring, run as written
    fitted = calibrate(scenario_by_name("general"), ObjectiveCoefficients(),
                       budget=2500,
                       settings=SolverSettings(multistart_count=4, seed=0))
    shipped = reference_coefficients()
    for name in FREE_COEFFICIENTS:
        assert getattr(fitted.coefficients, name) == getattr(shipped, name)


# Frozen output of the budget-150 calibration recipe above.
GOLDEN_150_RESIDUAL = 1.115640024995412
GOLDEN_150_COEFFICIENTS = {
    "kl": 0.8986077595214063,
    "ke": 0.9814663966802728,
    "k_eta": 1.0042051896950108,
    "ae": 1.0218297805936951,
    "a_eta": 1.0645009868529922,
    "bl": 1.1222489084530622,
    "bu": 0.9108237882631842,
}
