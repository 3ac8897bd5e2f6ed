"""Interior-point solver: barrier construction, convergence, oracles."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import dockopt.solver
from dockopt import (ConstraintSet, DesignVector, ObjectiveCoefficients,
                     SolverSettings, SolverStatus, WeightVector,
                     barrier_objective, default_bounds, multi_start_solve,
                     reference_coefficients, solve, total_cost)
from dockopt.scenarios import DEFAULT_X_INIT, builtin_scenarios
from dockopt.solver import InfeasibleProblemError
from helpers import grid_min_cost, grid_resolution_slack

ONES = ObjectiveCoefficients()
BOUNDS = default_bounds()
CONS = ConstraintSet()
W1111 = WeightVector(1, 1, 1, 1)
FAST = SolverSettings(multistart_count=4, seed=0)


class TestBarrierObjective:
    def test_mu_zero_is_exactly_the_cost(self):
        x = DEFAULT_X_INIT
        expected = total_cost(x, W1111, ONES).J
        assert barrier_objective(x, 0.0, W1111, ONES, CONS, BOUNDS) == expected

    def test_default_initial_guess_is_strictly_interior(self):
        g1, g2 = CONS.values(DEFAULT_X_INIT)
        assert g1 == pytest.approx(0.045 - 0.025)
        assert g2 == pytest.approx(0.5 / 0.03 - 1.5)
        value = barrier_objective(DEFAULT_X_INIT, 1.0, W1111, ONES, CONS, BOUNDS)
        assert math.isfinite(value)

    def test_diverges_toward_a_bound(self):
        # l chosen so the volume constraint stays satisfied as A -> 0.01
        values = [barrier_objective(
            DesignVector(A=0.01 + slack, l=2.8, u=0.5, e=0.5, eta=0.5),
            1.0, W1111, ONES, CONS, BOUNDS)
            for slack in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        mid = barrier_objective(DEFAULT_X_INIT, 1.0, W1111, ONES, CONS, BOUNDS)
        assert values[-1] > mid + 10.0

    def test_non_interior_names_the_violated_slack(self):
        at_bound = DesignVector(A=0.01, l=2.8, u=0.5, e=0.5, eta=0.5)
        with pytest.raises(ValueError, match="A_lower"):
            barrier_objective(at_bound, 1.0, W1111, ONES, CONS, BOUNDS)
        ratio_violated = DesignVector(A=0.9, l=1.5, u=0.5, e=0.5, eta=0.5)
        with pytest.raises(ValueError, match="tolerance_ratio_min"):
            barrier_objective(ratio_violated, 1.0, W1111, ONES, CONS, BOUNDS)

    @pytest.mark.parametrize("name", ["volume_min", "tolerance_ratio_min"])
    def test_subnormal_threshold_keeps_the_value_finite(self, name):
        # the threshold scales the constraint's slack; 1/1e-311 overflows
        tiny = ConstraintSet(**{name: 1e-311})
        zero = ConstraintSet(**{name: 0.0})  # scale 1
        value = barrier_objective(DEFAULT_X_INIT, 1.0, W1111, ONES, tiny,
                                  BOUNDS)
        base = barrier_objective(DEFAULT_X_INIT, 1.0, W1111, ONES, zero,
                                 BOUNDS)
        assert math.isfinite(value)
        assert value - base == pytest.approx(math.log(1e-311), rel=1e-12)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            barrier_objective(DEFAULT_X_INIT, -1.0, W1111, ONES, CONS, BOUNDS)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu"):
            barrier_objective(DEFAULT_X_INIT, mu, W1111, ONES, CONS, BOUNDS)


class TestSolve:
    def test_converges_on_defaults(self):
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.Converged
        assert result.kkt_residual <= 1e-8

    def test_feasibility_postconditions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = WeightVector(*(rng.random(4) * 2 + 0.1))
            result = solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
            x = result.x_star
            assert BOUNDS.contains(x)
            g1, g2 = CONS.values(x)
            assert g1 >= -1e-9 and g2 >= -1e-9
            if result.converged:
                assert result.kkt_residual <= 1e-8

    def test_area_pushed_to_lower_bound_matches_dense_grid(self):
        # pure quadratic frontal-area objective; l, u, e, eta are flat
        w = WeightVector(1, 0, 0, 0)
        coeff = ObjectiveCoefficients(kl=0.0)
        result = solve(w, coeff, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.converged
        assert result.x_star.A == pytest.approx(0.01, abs=1e-4)
        grid_best = grid_min_cost(w, coeff, BOUNDS, CONS, points_per_axis=50)
        assert abs(result.objective.J - grid_best) <= 1e-4

    def test_infeasible_start_is_repaired(self):
        outside = DesignVector(A=0.9, l=0.6, u=0.9, e=0.8, eta=0.1)
        assert CONS.values(outside)[1] < 0.0
        result = solve(W1111, ONES, BOUNDS, CONS, outside)
        assert result.converged
        reference = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        got = np.array(result.x_star.as_tuple())
        want = np.array(reference.x_star.as_tuple())
        assert np.max(np.abs(got - want)) < 1e-5

    def test_repair_finds_the_feasible_corner_of_a_tight_box(self):
        # only designs with large A, long l and high eta are feasible
        cons = ConstraintSet(volume_min=1.8, tolerance_ratio_min=1.45)
        feasible = DesignVector(A=0.64, l=2.9, u=0.5, e=0.5, eta=0.99)
        assert min(cons.values(feasible)) > 0.0
        start = DesignVector(A=0.3, l=1.0, u=0.5, e=0.5, eta=0.5)
        for result in (solve(W1111, ONES, BOUNDS, cons, start),
                       multi_start_solve(W1111, ONES, BOUNDS, cons, FAST)):
            assert result.status is SolverStatus.Converged
            assert min(cons.values(result.x_star)) >= -1e-9

    def test_iteration_cap_reports_limit(self, monkeypatch):
        monkeypatch.setattr(dockopt.solver, "_MU_SCHEDULE", (1.0,))
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.IterationLimit
        assert BOUNDS.contains(result.x_star)

    def test_failed_line_search_ends_the_stage_without_progress(
            self, monkeypatch):
        # a line search that finds no step ends each stage like a step
        # that leaves z in place: every stage runs, none takes a step
        monkeypatch.setattr(dockopt.solver, "_line_search",
                            lambda *args, **kwargs: None)
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.IterationLimit
        assert [stage.mu for stage in result.outer_trace] \
            == list(dockopt.solver._MU_SCHEDULE)
        assert result.iterations == 0
        assert result.x_star == DEFAULT_X_INIT

    def test_iterations_are_the_trace_total(self):
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.iterations == sum(stage.inner_iterations
                                        for stage in result.outer_trace) > 0

    def test_status_is_converged_or_iteration_limit(self):
        assert [s.name for s in SolverStatus] \
            == ["Converged", "IterationLimit"]

    def test_active_set_on_binding_constraint(self):
        # a moderate reliability weight drives eta and u to their upper
        # bounds (a heavy weight would push the active-slack stationarity
        # floor above the KKT tolerance, see test below)
        w = WeightVector(0.01, 0.01, 0.3, 0.01)
        result = solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.converged
        assert "eta_upper" in result.active_set
        assert "u_upper" in result.active_set

    def test_strongly_active_bound_reports_honest_residual(self):
        # multipliers near 1 put the f64 slack-quantization floor above
        # the 1e-8 tolerance: the solver must report that, not fake it
        w = WeightVector(0.01, 0.01, 5.0, 0.01)
        result = solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is not SolverStatus.Converged
        assert 1e-8 < result.kkt_residual < 1e-6
        assert "u_upper" in result.active_set

    def test_barrier_path_cost_is_monotone(self):
        for scenario in builtin_scenarios():
            result = solve(scenario.weights, ONES, scenario.bounds,
                           scenario.constraints, scenario.x_init)
            costs = [stage.cost for stage in result.outer_trace]
            drops = sum(1 for a, b in zip(costs, costs[1:]) if b <= a + 1e-10)
            assert drops >= 0.95 * (len(costs) - 1)


class TestMultiStart:
    def test_single_start_equals_one_latin_point(self):
        settings = SolverSettings(multistart_count=1, seed=123)
        first = multi_start_solve(W1111, ONES, BOUNDS, CONS, settings)
        again = multi_start_solve(W1111, ONES, BOUNDS, CONS, settings)
        assert first.x_star.as_tuple() == again.x_star.as_tuple()

    @pytest.mark.parametrize("statuses, winner, runs_made", [
        # the first converged start, though start 2 would have lower J
        pytest.param("ICC", 1, 2, id="ICC-1"),
        # no start converged: every start runs, the first is returned
        pytest.param("III", 0, 3, id="III-0"),
        pytest.param("CII", 0, 1, id="CII-0"),
    ])
    def test_winner_is_first_converged_start(self, monkeypatch, statuses,
                                             winner, runs_made):
        base = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        runs = []

        def fake_run(problem, z):
            # each later start reports a lower J
            status = SolverStatus.Converged if statuses[len(runs)] == "C" \
                else SolverStatus.IterationLimit
            objective = replace(base.objective,
                                J=base.objective.J - len(runs))
            runs.append(replace(base, status=status, objective=objective))
            return runs[-1]

        monkeypatch.setattr(dockopt.solver, "_solve_from_z", fake_run)
        settings = SolverSettings(multistart_count=len(statuses), seed=0)
        result = multi_start_solve(W1111, ONES, BOUNDS, CONS, settings)
        assert len(runs) == runs_made  # no start runs after a converged one
        assert result is runs[winner]

    def test_builtin_scenarios_agree_across_starts(self):
        for scenario in builtin_scenarios():
            result = multi_start_solve(scenario.weights, ONES, scenario.bounds,
                                       scenario.constraints, FAST)
            assert result.converged
            # convex problem: one start reaches the multi-start optimum
            single = solve(scenario.weights, ONES, scenario.bounds,
                           scenario.constraints, scenario.x_init)
            J = result.objective.J
            assert abs(single.objective.J - J) <= 1e-9 * max(1.0, abs(J))

    def test_deterministic_bitwise(self):
        a = multi_start_solve(W1111, ONES, BOUNDS, CONS, FAST)
        b = multi_start_solve(W1111, ONES, BOUNDS, CONS, FAST)
        assert a.x_star.as_tuple() == b.x_star.as_tuple()
        assert a.objective.J == b.objective.J
        assert a.kkt_residual == b.kkt_residual
        assert a.iterations == b.iterations
        assert a.outer_trace == b.outer_trace

    def test_weight_scaling_leaves_argmin_unchanged(self):
        # run on the calibrated coefficients: the all-ones general case is
        # degenerate (optimum exactly on the tolerance-ratio boundary with
        # a vanishing multiplier), where the barrier displacement scales
        # as sqrt(mu) and 1e-6 agreement is not attainable at f64
        coeff = reference_coefficients()
        for scenario in builtin_scenarios():
            base = multi_start_solve(scenario.weights, coeff, scenario.bounds,
                                     scenario.constraints, FAST)
            scaled = multi_start_solve(scenario.weights.scaled(10.0), coeff,
                                       scenario.bounds, scenario.constraints,
                                       FAST)
            diff = np.abs(np.array(base.x_star.as_tuple())
                          - np.array(scaled.x_star.as_tuple()))
            assert np.max(diff) < 1e-6
            # both solves sit within their own barrier displacement of the
            # common optimum, so the scaled costs agree only to that level
            assert scaled.objective.J == pytest.approx(10 * base.objective.J,
                                                       rel=1e-7)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            multi_start_solve(W1111, ONES, BOUNDS, CONS,
                              SolverSettings(multistart_count=0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", [
    (cls, f.name)
    for cls in (ObjectiveCoefficients, ConstraintSet, SolverSettings)
    for f in fields(cls)])
def test_non_finite_field_rejected(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("name, value", [("multistart_count", 2.5),
                                         ("multistart_count", 4.0),
                                         ("seed", 0.5)])
def test_solver_settings_take_integers(name, value):
    with pytest.raises(ValueError, match=name):
        SolverSettings(**{name: value})


def test_infeasible_problem_raises_for_every_start():
    # on BOUNDS A*l <= 3, so no design meets a volume floor of 5
    cons = ConstraintSet(volume_min=5.0)
    match = "volume_min = 5 and eta/A > tolerance_ratio_min = 1.5"
    with pytest.raises(InfeasibleProblemError, match=match):
        solve(W1111, ONES, BOUNDS, cons, DEFAULT_X_INIT)
    with pytest.raises(InfeasibleProblemError, match=match):
        multi_start_solve(W1111, ONES, BOUNDS, cons, FAST)
    assert issubclass(InfeasibleProblemError, ValueError)


class TestGridOracle:
    def test_solver_at_least_as_good_as_lattice(self):
        rng = np.random.default_rng(17)
        weight_sets = [s.weights for s in builtin_scenarios()]
        weight_sets += [WeightVector(*(rng.random(4) * 1.9 + 0.1))
                        for _ in range(4)]
        for w in weight_sets:
            result = multi_start_solve(w, ONES, BOUNDS, CONS, FAST)
            assert result.converged
            grid_best = grid_min_cost(w, ONES, BOUNDS, CONS, points_per_axis=20)
            slack = grid_resolution_slack(w, ONES, BOUNDS, points_per_axis=20)
            assert result.objective.J <= grid_best + slack
