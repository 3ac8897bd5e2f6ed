"""Interior-point solver: barrier construction, convergence, oracles."""

import copy
import gc
import itertools
import math
import pickle
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

import dockopt.solver
from dockopt import (ConstraintSet, DesignVector, ObjectiveCoefficients,
                     SolverSettings, SolverStatus, WeightVector,
                     barrier_objective, default_bounds, reference_coefficients,
                     solve, total_cost)
from dockopt.scenarios import DEFAULT_X_INIT, builtin_scenarios
from dockopt.solver import (BarrierStage, BarrierTrace, InfeasibleProblemError,
                            _bracketed_root, multi_start_solve)
from helpers import (certified_answer, enumerated_min_cost, grid_min_cost,
                     grid_resolution_slack)

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

    def test_a_repair_makes_one_interior_test(self, monkeypatch):
        # one evaluation of the clipped start, then the anchor if that
        # fails, counted through the problem's evaluate while the repair
        # runs: 16 Latin-hypercube starts that the tight box rejects, then
        # one it keeps
        from scipy.stats import qmc

        repair, counts = dockopt.solver._repair_to_interior, []

        def counted(problem, z):
            evaluate = problem.evaluate

            def counting(*args):
                counts[-1] += 1
                return evaluate(*args)

            counts.append(0)
            problem.evaluate = counting
            try:
                return repair(problem, z)
            finally:
                del problem.evaluate

        monkeypatch.setattr(dockopt.solver, "_repair_to_interior", counted)
        cons = ConstraintSet(volume_min=1.8, tolerance_ratio_min=1.45)
        for z in qmc.LatinHypercube(d=5, seed=0).random(16).tolist():
            x_init = DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
                BOUNDS.lower.as_tuple(), BOUNDS.upper.as_tuple(), z)))
            assert solve(W1111, ONES, BOUNDS, cons, x_init).converged
        assert solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT).converged
        assert counts == [1] * 17

    def test_iteration_cap_reports_limit(self, monkeypatch):
        monkeypatch.setattr(dockopt.solver, "_MU_SCHEDULE", (1.0,))
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.IterationLimit
        assert BOUNDS.contains(result.x_star)

    def test_failed_line_search_ends_the_stage_without_progress(
            self, monkeypatch):
        # a line search that finds no step ends each stage like a step
        # that leaves z in place: every stage runs, none takes a step.
        # Every trial of a line search is an evaluation bounded by its
        # Armijo test (f_max), and each is rejected here.
        evaluate = dockopt.solver._BarrierProblem.evaluate
        monkeypatch.setattr(
            dockopt.solver._BarrierProblem, "evaluate",
            lambda problem, z, mu, f_max=None, point=None:
            None if f_max is not None else evaluate(problem, z, mu, None,
                                                    point))
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
        # multipliers near 1 put the f64 slack-quantization floor of the
        # barrier above the 1e-8 tolerance; the polish then solves the
        # reduced problem exactly and reports the true KKT residual there
        w = WeightVector(0.01, 0.01, 5.0, 0.01)
        result = solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.Converged
        assert np.max(np.abs(np.array(result.x_star.as_tuple())
                             - (1 / 3, 1.0, 1.0, 0.855, 1.0))) <= 1e-12
        assert result.kkt_residual <= 1e-8
        assert {"u_upper", "e_upper", "eta_upper"} <= set(result.active_set)

    def test_rejected_polish_reports_the_stalled_residual(self,
                                                          monkeypatch):
        # a polish that fails verification leaves the barrier's answer,
        # with its residual above the tolerance, as it was
        monkeypatch.setattr(dockopt.solver, "_polish",
                            lambda *args, **kwargs: None)
        w = WeightVector(0.01, 0.01, 5.0, 0.01)
        result = solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.IterationLimit
        assert 1e-8 < result.kkt_residual < 1e-6
        assert "u_upper" in result.active_set

    @pytest.mark.parametrize("above, status", [
        (False, SolverStatus.Converged), (True, SolverStatus.IterationLimit)],
        ids=["within-4-ulp", "above-4-ulp"])
    def test_an_exact_point_costlier_than_the_best_stage_is_not_certified(
            self, monkeypatch, above, status):
        # the exact point is certified only if its J is at most the best
        # stage's J plus 4 ulp of max(1, |J|); one float above that, the
        # barrier's best stage is the answer, as if the polish had failed
        polish, raised = dockopt.solver._polish, []

        def costlier(problem):
            x, _, *rest = polish(problem)
            return (x, raised[-1], *rest)

        for scenario in builtin_scenarios():
            args = (scenario.weights, reference_coefficients(),
                    scenario.bounds, scenario.constraints, scenario.x_init)
            certified = solve(*args)
            with monkeypatch.context() as patch:
                patch.setattr(dockopt.solver, "_polish", lambda problem: None)
                barrier = solve(*args)
            # the best stage is the first of least residual
            best = min(barrier.outer_trace,
                       key=lambda stage: max(stage.stationarity, stage.mu))
            bound = best.cost + 4.0 * math.ulp(max(1.0, abs(best.cost)))
            raised.append(math.nextafter(bound, math.inf) if above else bound)
            with monkeypatch.context() as patch:
                patch.setattr(dockopt.solver, "_polish", costlier)
                result = solve(*args)
            assert result.status is status
            assert repr(result) == repr(barrier if above else certified)

    @pytest.mark.parametrize("w", [WeightVector(0.01, 1.0, 0.01, 20.0),
                                   WeightVector(0.01, 0.01, 5.0, 5.0)],
                             ids=["eta-on-the-ratio-face", "eta-free"])
    def test_a_vertex_on_the_ratio_face_is_certified(self, w):
        # with R = eta_hi/A_hi, the optimum puts A and eta on their upper
        # bounds and so meets g2 as well: g2's multiplier is not unique
        # where the free eta lies below R*A, and g2 is active with g2 == 0
        # in both
        cons = ConstraintSet(0.025, 1.0)
        result = solve(w, ONES, BOUNDS, cons, DEFAULT_X_INIT)
        assert result.status is SolverStatus.Converged
        assert result.kkt_residual <= 1e-8
        assert result.constraint_values == (2.975, 0.0)
        assert {"A_upper", "eta_upper", "tolerance_ratio_min"} \
            <= set(result.active_set)
        J = result.objective.J
        assert abs(J - enumerated_min_cost(w, ONES, BOUNDS, cons)) \
            <= 1e-12 * max(1.0, abs(J))
        if w.s == 20.0:
            assert result.x_star.as_tuple() == (1.0, 3.0, 1.0, 0.177, 1.0)
            assert J == pytest.approx(-19.320147, abs=1e-12)

    def test_a_flat_area_slope_is_bisected_to_its_root(self):
        # kA = 0 leaves phi'' = 0 where no constraint couples A, and phi'
        # is negative at the barrier's A: a Newton step is undefined there,
        # so the root search bisects instead of stopping at its start
        w = WeightVector(3.3013115848182437, 0.9916169031594363,
                         1.8983983053513458, 0.22313873848015803)
        coeff = ObjectiveCoefficients(
            kA=0.0, kl=0.007087510274339303, ku=0.00969755207408767,
            ke=49.39419628360412, k_eta=0.021767771713030765,
            au=41.7010806572798, ae=0.000988318764260469,
            a_eta=0.0019350574537041797, bA=0.002012445336235548,
            bl=165.89342601030742, bu=37.50518539155744)
        result = solve(w, coeff, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.status is SolverStatus.Converged
        assert result.kkt_residual <= 1e-8
        assert abs(result.x_star.A - 0.068356) <= 1e-6
        assert "tolerance_ratio_min" in result.active_set
        assert abs(result.objective.J
                   - enumerated_min_cost(w, coeff, BOUNDS, CONS)) <= 1e-12

    def test_only_a_certified_solve_converges(self, monkeypatch):
        # a barrier that meets the KKT tolerance on its own still needs
        # the polish's certificate
        monkeypatch.setattr(dockopt.solver, "_polish",
                            lambda *args, **kwargs: None)
        result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
        assert result.kkt_residual <= 1e-8
        assert result.status is SolverStatus.IterationLimit

    def test_the_sweep_stall_reproducer_ends_at_its_converged_stage(self):
        # a benchmark sweep item (seed 1) that converges at mu = 1e-9; the
        # full schedule spent 200 steps more in its mu = 1e-11 stage
        w = WeightVector(1.5137892422443797, 2.1417264701457674,
                         1.5648124901311866, 2.190030353172781)
        coeff = reference_coefficients()
        problem = dockopt.solver._BarrierProblem(w, coeff, BOUNDS, CONS)
        result = dockopt.solver._solve_from_z(
            problem, dockopt.solver.interior_anchor(BOUNDS, CONS))
        assert repr(multi_start_solve(w, coeff, BOUNDS, CONS)) == repr(result)
        assert result.converged
        assert result.outer_trace[-1].mu == 1e-9
        assert all(stage.inner_iterations
                   < dockopt.solver._MAX_INNER_ITERATIONS
                   for stage in result.outer_trace)

    def test_a_failed_polish_reports_the_floor_stage(self, monkeypatch):
        # the stall reproducer again, with a polish that fails: the
        # continuation still ends at its converged mu = 1e-9 stage, and
        # that stage's point and residual are the IterationLimit answer
        monkeypatch.setattr(dockopt.solver, "_polish",
                            lambda *args, **kwargs: None)
        w = WeightVector(1.5137892422443797, 2.1417264701457674,
                         1.5648124901311866, 2.190030353172781)
        problem = dockopt.solver._BarrierProblem(
            w, reference_coefficients(), BOUNDS, CONS)
        result = dockopt.solver._solve_from_z(
            problem, dockopt.solver.interior_anchor(BOUNDS, CONS))
        last = result.outer_trace[-1]
        assert result.status is SolverStatus.IterationLimit
        assert [stage.mu for stage in result.outer_trace] \
            == list(dockopt.solver._MU_SCHEDULE[:10])
        assert result.iterations == 72
        assert result.kkt_residual == max(last.stationarity, last.mu) \
            <= dockopt.solver._INNER_FLOOR
        assert result.objective.J == pytest.approx(last.cost, abs=1e-12)

    def test_a_floor_stage_that_stalls_ends_the_continuation(self):
        # a benchmark sweep item (seed 1) whose mu = 1e-9 stage stalls
        # above the inner floor, under the step cap: the stages after it
        # aim at the same floor, so the continuation ends there (without
        # that exit it runs 11 stages and 92 steps)
        w = WeightVector(0.908862560229202, 1.5021101958936687,
                         0.8357530854370073, 2.222895601711595)
        coeff = reference_coefficients()
        problem = dockopt.solver._BarrierProblem(w, coeff, BOUNDS, CONS)
        result = dockopt.solver._solve_from_z(
            problem, dockopt.solver.interior_anchor(BOUNDS, CONS))
        assert repr(multi_start_solve(w, coeff, BOUNDS, CONS)) == repr(result)
        assert result.converged
        last = result.outer_trace[-1]
        assert last.mu == 1e-9
        assert last.stationarity > dockopt.solver._INNER_FLOOR
        assert last.inner_iterations < dockopt.solver._MAX_INNER_ITERATIONS
        assert len(result.outer_trace) == 10 and result.iterations == 81

    def test_the_first_stage_from_the_anchor_takes_one_step(self):
        # the anchor puts l and eta halfway between each constraint's floor
        # and the top, not 1e-3 below their upper faces, so the mu = 1 stage
        # has no faces to move away from (it took 9 steps from there)
        coeff = reference_coefficients()
        anchor = dockopt.solver.interior_anchor(BOUNDS, CONS)
        for w in itertools.product([0.5, 1.5, 2.5], repeat=4):
            problem = dockopt.solver._BarrierProblem(
                WeightVector(*w), coeff, BOUNDS, CONS)
            first = dockopt.solver._solve_from_z(problem, anchor).outer_trace[0]
            assert (first.mu, first.inner_iterations) == (1.0, 1)

    def test_a_stage_takes_its_last_trial_where_the_armijo_bound_rounds(self):
        # a random problem whose mu = 1e-4 stage reaches 7.7e-9 only through
        # trials at Armijo bounds that round to f; ending the line search
        # before any such trial stalls it at 1.4e-4, above the polish gate
        w = WeightVector(3.3508567357913797, 2.9685437303765405,
                         2.5739937317217754, 1.2659015074352382)
        coeff = ObjectiveCoefficients(
            kA=0.0021686710134107352, kl=0.003547327663867038,
            ku=0.010045630321438771, ke=187.69389002164834,
            k_eta=102.49560144415496, au=19.80174182386842,
            ae=0.011819587173678913, a_eta=0.4600014228880745,
            bA=0.00424807045026885, bl=4.293789880350427,
            bu=0.8879949218419633)
        cons = ConstraintSet(1.5582006917399953, 0.05608998382206769)
        start = DesignVector(1e-06, 2.489831704562248, 1.0,
                             0.34315365087197713, 0.7640427408151425)
        result = solve(w, coeff, BOUNDS, cons, start)
        x_star = DesignVector(0.7305210929688553, 2.1329989054900937, 1.0,
                              0.177, 0.040974916286302294)
        assert certified_answer(result) == repr((
            SolverStatus.Converged, x_star, total_cost(x_star, w, coeff),
            8.912141857830846e-16, (0.0, 0.0),
            ("e_lower", "u_upper", "volume_min", "tolerance_ratio_min")))
        assert result.objective.J == -1.6877507130460403

    def test_barrier_path_cost_is_monotone(self):
        for scenario in builtin_scenarios():
            result = solve(scenario.weights, ONES, scenario.bounds,
                           scenario.constraints, scenario.x_init)
            costs = [stage.cost for stage in result.outer_trace]
            drops = sum(1 for a, b in zip(costs, costs[1:]) if b <= a + 1e-10)
            assert drops >= 0.95 * (len(costs) - 1)


def _flat_then_rising(root):
    # phi' = -1 with phi'' = 0 below the root, then 10*(x - root)
    return lambda x: (-1.0, 0.0) if x < root else (10.0 * (x - root), 10.0)


def _linear_without_curvature(root):
    # phi' rises through the root, but phi'' reads 0 everywhere
    return lambda x: (x - root, 0.0)


@pytest.mark.parametrize("slope, offset", [(_flat_then_rising, 0.7),
                                           (_linear_without_curvature, 0.3)],
                         ids=["flat-then-rising", "no-curvature"])
@pytest.mark.parametrize("a", [0.0, 0.2, 0.9])
def test_bracketed_root_bisects_where_the_slope_is_flat(slope, offset, a):
    # the search starts at the midpoint of the bracket [a, a + 1], where
    # phi'' = 0: it has no Newton step there, and bisects toward the root
    # instead of stopping where it started
    root = a + offset
    found = _bracketed_root(slope(root), a, a + 1.0)
    assert abs(found - root) <= 1e-15


def test_barrier_trace_is_an_immutable_sequence_of_stages():
    result = solve(W1111, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
    trace = result.outer_trace
    stages = list(trace)
    assert len(trace) == len(stages) > 2
    assert all(isinstance(stage, BarrierStage) for stage in stages)
    assert [trace[i] for i in range(-len(trace), len(trace))] \
        == stages + stages
    values = [v for stage in stages for v in astuple(stage)]
    assert trace == BarrierTrace(values)
    assert hash(trace) == hash(BarrierTrace(values))
    assert trace[1:3] == BarrierTrace(values[4:12])
    assert list(trace[::-1]) == stages[::-1]
    assert trace != BarrierTrace(values[:-4])
    assert pickle.loads(pickle.dumps(result)) == result
    assert copy.deepcopy(trace) is trace
    with pytest.raises(IndexError):
        trace[len(trace)]
    with pytest.raises(AttributeError):
        trace._data = None


def _stage_values(trace):
    return [astuple(stage) for stage in trace]


def test_barrier_trace_compares_stage_values_as_floats():
    zero, negative_zero = BarrierTrace([0.0, 1.0, 2.0, 3]), \
        BarrierTrace([-0.0, 1.0, 2.0, 3])
    assert zero == negative_zero
    assert hash(zero) == hash(negative_zero)
    assert math.copysign(1.0, negative_zero[0].mu) == -1.0  # kept as packed
    with_nan = BarrierTrace([1.0, math.nan, 2.0, 3])
    assert with_nan != BarrierTrace([1.0, math.nan, 2.0, 3])
    assert with_nan != with_nan
    assert BarrierTrace([1.0, 2.0, 3.0, 4]) != BarrierTrace([1.0, 2.0, 3.0, 5])
    assert BarrierTrace() == BarrierTrace([]) and len(BarrierTrace()) == 0


def test_barrier_trace_round_trips_its_stages():
    values = [v for k in range(5)
              for v in (10.0**-k, 1.5 - k, 2.0**-40 * k, 65535 - k)]
    trace = BarrierTrace(values)
    stages = [tuple(values[i:i + 4]) for i in range(0, len(values), 4)]
    assert _stage_values(trace) == stages
    assert all(type(stage.inner_iterations) is int for stage in trace)
    for index in (slice(1, 3), slice(None, None, -1), slice(None, None, 2),
                  slice(4, 1, -2), slice(3, 3), slice(-2, None)):
        assert isinstance(trace[index], BarrierTrace)
        assert _stage_values(trace[index]) == stages[index]
    assert _stage_values(reversed(trace)) == stages[::-1]
    for copied in (pickle.loads(pickle.dumps(trace)), copy.copy(trace),
                   copy.deepcopy(trace)):
        assert copied == trace and _stage_values(copied) == stages


@pytest.mark.parametrize("count", [2.5, 3.0, -1, 65536, "3", None, math.nan])
def test_barrier_trace_rejects_a_count_outside_uint16(count):
    assert dockopt.solver._MAX_INNER_ITERATIONS <= 65535
    with pytest.raises(ValueError, match="inner iteration count"):
        BarrierTrace([1.0, 2.0, 3.0, count])


@pytest.mark.parametrize("w", [WeightVector(0.01, 0.01, 0.3, 0.01),
                               WeightVector(0.01, 0.01, 5.0, 0.01)],
                         ids=["barrier", "polished"])
def test_results_share_one_tuple_per_active_set(w):
    first, again = (solve(w, ONES, BOUNDS, CONS, DEFAULT_X_INIT)
                    for _ in range(2))
    assert "eta_upper" in first.active_set
    assert again.active_set is first.active_set


def test_kept_solve_results_stay_small():
    # Bytes one SolveResult keeps alive, by tracemalloc (deterministic, not
    # timed), averaged over 50 solves of a weight sweep.  Measured 2,126 B
    # with the trace as a tuple of BarrierStage objects, 1,133 B packed in
    # an array('d'), and 1,010 B packed in bytes with shared active sets.
    # Each weight is solved once before the window opens, so that the
    # active-set tuples, made once per process and shared, are not counted.
    coeff = reference_coefficients()
    weights = [WeightVector(0.5 + 0.04 * i, 1.0 + 0.02 * i, 2.5 - 0.04 * i,
                            1.5) for i in range(50)]
    for w in weights:
        solve(w, coeff, BOUNDS, CONS, DEFAULT_X_INIT)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [solve(w, coeff, BOUNDS, CONS, DEFAULT_X_INIT)
                for w in weights]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(kept) <= 1024


class TestMultiStart:
    def test_a_failing_solve_runs_once(self, monkeypatch):
        # one stage cannot converge, and the one solve from the anchor is
        # returned: no other start is tried
        monkeypatch.setattr(dockopt.solver, "_MU_SCHEDULE", (1.0,))
        run, runs = dockopt.solver._solve_from_z, []

        def counted(problem, z):
            runs.append(z)
            return run(problem, z)

        monkeypatch.setattr(dockopt.solver, "_solve_from_z", counted)
        result = multi_start_solve(W1111, ONES, BOUNDS, CONS,
                                   SolverSettings(multistart_count=16, seed=0))
        assert result.status is SolverStatus.IterationLimit
        assert runs == [dockopt.solver.interior_anchor(BOUNDS, CONS)]

    def test_builtin_scenarios_agree_across_starts(self):
        for scenario in builtin_scenarios():
            result = multi_start_solve(scenario.weights, ONES, scenario.bounds,
                                       scenario.constraints, FAST)
            assert result.converged
            # the certified answer depends on the problem alone
            single = solve(scenario.weights, ONES, scenario.bounds,
                           scenario.constraints, scenario.x_init)
            assert certified_answer(single) == certified_answer(result)

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
