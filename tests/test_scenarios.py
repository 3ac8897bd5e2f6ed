"""Built-in design intents, calibration behavior, and directional transfer."""

import dataclasses
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import dockopt.scenarios
from dockopt import (ObjectiveCoefficients, SolverSettings, WeightVector,
                     calibrate, reference_coefficients)
from dockopt.scenarios import (FREE_COEFFICIENTS, Scenario, builtin_scenarios,
                               scenario_by_name)
from dockopt.solver import multi_start_solve

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
        # regeneration recipe: calibrate(general, all-ones, budget=150),
        # under any solver settings (see the test below)
        general = scenario_by_name("general")
        outcome = calibrate(general, ObjectiveCoefficients(), budget=150,
                            settings=FAST)
        assert outcome.residual == pytest.approx(GOLDEN_150_RESIDUAL,
                                                 rel=1e-9)
        for name, value in GOLDEN_150_COEFFICIENTS.items():
            assert getattr(outcome.coefficients, name) \
                == pytest.approx(value, rel=1e-9)

    def test_the_solver_settings_change_no_calibration(self):
        # the settings select nothing: every evaluation is the one solve
        # from the anchor, so every evaluation, and the whole fit, is the
        # same bit for bit
        general = scenario_by_name("general")
        first, *others = (
            calibrate(general, ObjectiveCoefficients(), budget=150,
                      settings=SolverSettings(count, seed))
            for count, seed in ((1, 0), (4, 0), (16, 0), (4, 7)))
        assert all(repr(other) == repr(first) for other in others)

    def test_unpack_clips_as_np_clip_does(self, monkeypatch):
        import scipy.optimize

        # log-coefficients below, at and above both ends of [-7, 6],
        # inside it, infinite and nan, each unpacked by one evaluation
        cases = [-math.inf, -1e300, -7.5, math.nextafter(-7.0, -math.inf),
                 -7.0, math.nextafter(-7.0, 0.0), -3.25, -0.0, 0.0, 2.5,
                 math.nextafter(6.0, 0.0), 6.0, math.nextafter(6.0, math.inf),
                 6.5, 1e300, math.inf, math.nan]
        n = len(FREE_COEFFICIENTS)
        cases += [0.5] * (-len(cases) % n)
        ts = [np.array(cases[i:i + n]) for i in range(0, len(cases), n)]
        general = scenario_by_name("general")
        unpacked = []

        def evaluate_each(fun, t0, **kwargs):
            for t in ts:
                fun(t)
            return SimpleNamespace(x=t0)

        def recorded_replace(coeff, **changes):
            if set(changes) == set(FREE_COEFFICIENTS):
                unpacked.append(changes)  # before any validation
                return coeff
            return dataclasses.replace(coeff, **changes)

        monkeypatch.setattr(scipy.optimize, "least_squares", evaluate_each)
        monkeypatch.setattr(dockopt.scenarios, "replace", recorded_replace)
        monkeypatch.setattr(dockopt.scenarios, "multi_start_solve",
                            lambda *args: SimpleNamespace(
                                x_star=general.expected_x_star))
        calibrate(general, ObjectiveCoefficients(), budget=len(ts),
                  settings=FAST)
        assert len(unpacked) == len(ts)
        for t, changes in zip(ts, unpacked):
            for name, ti in zip(FREE_COEFFICIENTS, t):
                expected = float(np.exp(np.clip(ti, -7.0, 6.0)))
                assert struct.pack("<d", changes[name]) \
                    == struct.pack("<d", expected), (name, ti)

    @pytest.mark.parametrize("name", ["e", "eta"])
    def test_a_zero_target_component_is_fitted_on_its_box_range(self, name):
        # a relative miss is undefined at 0; that component's miss is
        # scaled by its box range instead
        general = scenario_by_name("general")
        target = dataclasses.replace(
            general, expected_x_star=dataclasses.replace(
                general.expected_x_star, **{name: 0.0}))
        outcome = calibrate(target, ObjectiveCoefficients(), budget=12,
                            settings=FAST)
        assert math.isfinite(outcome.residual)
        assert outcome.evaluations == 12

    def test_every_solve_counts_against_the_budget(self, monkeypatch):
        solves = []
        inner = dockopt.scenarios.multi_start_solve

        def counted(*args):
            solves.append(args)
            return inner(*args)

        monkeypatch.setattr(dockopt.scenarios, "multi_start_solve", counted)
        general, ones = scenario_by_name("general"), ObjectiveCoefficients()
        # a start below the e^-7 floor is clipped onto it
        low = ObjectiveCoefficients(kl=0.0, ke=1e-300)
        self_target = dataclasses.replace(general, expected_x_star=inner(
            general.weights, ones, general.bounds, general.constraints,
            FAST).x_star)
        # budgets 1 to 9 end inside the first Jacobian or at the first
        # step, and the self-consistent fit ends on its own
        for target, coeff, budget, spent in (
                *((general, ones, b, True) for b in range(1, 10)),
                (general, low, 3, True), (general, ones, 40, True),
                (self_target, ones, 40, False)):
            solves.clear()
            outcome = calibrate(target, coeff, budget=budget, settings=FAST)
            assert outcome.evaluations == len(solves) <= budget
            assert (outcome.evaluations == budget) is spent

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
                       budget=2500)
    shipped = reference_coefficients()
    for name in FREE_COEFFICIENTS:
        assert getattr(fitted.coefficients, name) == getattr(shipped, name)


# Frozen output of the budget-150 calibration recipe above.
GOLDEN_150_RESIDUAL = 0.0016110262058912353
GOLDEN_150_COEFFICIENTS = {
    "kl": 0.0010636753638936479,
    "ke": 0.0010444413326845584,
    "k_eta": 0.0010122584582736897,
    "ae": 0.0012751006265037902,
    "a_eta": 0.0015396773029509757,
    "bl": 0.001550934743616375,
    "bu": 0.04112815660809945,
}


def test_area_on_the_tolerance_ratio_face_is_the_closed_form():
    # With g2 the only active face among g1, g2 and the A, l and eta
    # bounds, eta = R*A, l leaves A's equation, and A* minimises
    # (p*alpha + q*delta*R^2)*A^2 - (s*beta + r*R*gamma)*A.  The low-cost
    # optimum on the reference coefficients is such a case.
    low_cost = scenario_by_name("low-cost")
    c, w = reference_coefficients(), low_cost.weights
    result = multi_start_solve(w, c, low_cost.bounds, low_cost.constraints,
                               FAST)
    assert result.converged
    coupled = {f"{name}_{side}" for name in ("A", "l", "eta")
               for side in ("lower", "upper")} | {"volume_min",
                                                  "tolerance_ratio_min"}
    assert coupled & set(result.active_set) == {"tolerance_ratio_min"}
    R = low_cost.constraints.tolerance_ratio_min
    alpha = c.kA / (c.A_max**2 * (c.kA + c.kl))
    beta = c.bA / (c.A_max * (c.bA + c.bl + c.bu))
    gamma = c.a_eta / (c.au + c.ae + c.a_eta)
    delta = c.k_eta / (c.ku + c.ke + c.k_eta)
    area = (w.s * beta + w.r * R * gamma) \
        / (2.0 * (w.p * alpha + w.q * delta * R * R))
    assert result.x_star.A == pytest.approx(area, rel=1e-12, abs=0.0)
