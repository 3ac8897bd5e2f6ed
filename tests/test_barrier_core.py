"""The solver's plain-float barrier core: the cost's 10-constant form
against the surrogates, the fused evaluation against ``dockopt.objective``
bit for bit and against the numpy reference, its interior test, the
Hessian at an evaluated point against the one rebuilt from z and against
central differences, a stage's first point read from the last stage's
point against the evaluated one, the arrowhead Newton solve's backward
error, the steepest-descent fallback, the evaluation bounded by a line
search's Armijo test and that line search against full backtracking, the
written-out Newton step, stage and solve against the reference units of
tests/helpers.py, the repair to a strictly feasible start (the clipped
start if it is interior, else the anchor), the centred anchor against the
top-point feasibility oracle and the same certified answers from both,
each stage's end against the stopping rule, the continuation's end after
the first stage at the inner floor, whole solves against two exact
oracles (a bisection on the reduced derivative and an enumeration of
active faces, at vertices where a constraint meets two bounds too), and
certified answers that are the same from every start.  Weights and
coefficients are drawn with zeros wherever their validators allow
them."""

import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dockopt.solver
from dockopt import (ConstraintSet, DesignBounds, DesignVector,
                     ObjectiveCoefficients, SolverStatus, WeightVector,
                     default_bounds, reference_coefficients, solve,
                     total_cost)
from dockopt.objective import gradient_at, total_cost_arrays
from dockopt.scenarios import builtin_scenarios
from dockopt.solver import (_INNER_FLOOR, _MARGIN, _MAX_INNER_ITERATIONS,
                            _MU_SCHEDULE, InfeasibleProblemError,
                            _BarrierProblem, _newton_stage,
                            _repair_to_interior, _solve_from_z,
                            interior_anchor, latin_hypercube)
from helpers import (ReferenceBarrier, arrowhead_solve,
                     backtracking_line_search, certified_answer,
                     enumerated_min_cost, exact_min_cost, hessian, largest,
                     line_search, newton_direction, newton_stage)

EPS = np.finfo(float).eps

def _some_nonzero(values, groups):
    """``values`` with the first member of each group that is all zero set
    to 1: WeightVector needs a positive weight, and ObjectiveCoefficients a
    positive coefficient in each surrogate."""
    values = list(values)
    for group in groups:
        if not any(values[i] for i in group):
            values[group[0]] = 1.0
    return values


# each weight 0 or in [0.05, 5], at least one of them positive
weights = st.lists(st.one_of(st.floats(0.05, 5.0), st.just(0.0)),
                   min_size=4, max_size=4).map(
    lambda t: WeightVector(*_some_nonzero(t, [range(4)])))


def coefficient_sets(low, high):
    """kA .. bu each 0 or log-uniform in e^[low, high], at least one
    positive per surrogate (kA, kl | ku, ke, k_eta | au, ae, a_eta |
    bA, bl, bu); A_max and l_max keep their defaults."""
    return st.lists(
        st.one_of(st.floats(low, high).map(math.exp), st.just(0.0)),
        min_size=11, max_size=11).map(
        lambda t: ObjectiveCoefficients(*_some_nonzero(
            t, [range(0, 2), range(2, 5), range(5, 8), range(8, 11)])))


coefficients = coefficient_sets(-4.0, 4.0)
barrier_weights = st.one_of(st.just(0.0),
                            st.floats(-10.0, 0.0).map(lambda k: 10.0**k))


def _box(A, l, u, e, eta):
    """Bounds from one pair per variable: (lower, width) for A and l, and
    (lower, share) for u, e and eta, whose upper bound lies that share of
    the way from lower to 1."""
    (A0, dA), (l0, dl) = A, l
    lower = [A0, l0] + [lo for lo, _ in (u, e, eta)]
    upper = [A0 + dA, l0 + dl] + [lo + f * (1.0 - lo) for lo, f in (u, e, eta)]
    return DesignBounds(DesignVector(*lower), DesignVector(*upper))


shares = st.floats(0.05, 1.0)
boxes = st.one_of(st.just(default_bounds()), st.builds(
    _box, st.tuples(st.floats(1e-3, 0.5), st.floats(0.01, 1.0)),
    st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 3.0)),
    st.tuples(st.floats(0.01, 0.5), shares),
    st.tuples(st.floats(0.0, 0.5), shares),
    st.tuples(st.floats(0.0, 0.5), shares)))
points = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=5, max_size=5)
# half of the threshold fractions leave both constraints nearly active
threshold_fractions = st.one_of(st.floats(0.0, 0.99), st.floats(0.9, 0.99))


@st.composite
def instances(draw, points=points):
    """A box (A_lo > 0), a point z of ``points`` and constraint thresholds
    V = a*A*l and R = b*eta/A, with a, b in [0, 0.99], that the design at
    z satisfies strictly."""
    bounds = draw(boxes)
    z = draw(points)
    A, l, _, _, eta = (lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z))
    a, b = draw(threshold_fractions), draw(threshold_fractions)
    return bounds, ConstraintSet(a * A * l, b * eta / A), z


def _dense(hess):
    """The 5x5 matrix of an arrowhead ``(diag, h_Al, h_Aeta)``."""
    diag, h01, h04 = hess
    H = np.diag(diag)
    H[0, 1] = H[1, 0] = h01
    H[0, 4] = H[4, 0] = h04
    return H


def _interior(problem, z):
    """The definition of a strictly interior z: every z_i in (0, 1) (nan
    is not) and both constraints strictly positive at x(z)."""
    if not all(0.0 < zi < 1.0 for zi in z):
        return False
    g1, g2 = problem.constraints(problem.x_of_z(z))
    return g1 > 0.0 and g2 > 0.0


def _rebuilt(problem, z):
    """A point for ``hessian`` rebuilt from z alone; the value, gradient,
    cost and log-barrier slots are not read by the Hessian."""
    A, l, _, _, eta = x = problem.x_of_z(z)
    return (z, None, None, None, A, l, eta, *problem.constraints(x), None)


ARROWHEAD = np.eye(5, dtype=bool)
ARROWHEAD[0, 1] = ARROWHEAD[1, 0] = ARROWHEAD[0, 4] = ARROWHEAD[4, 0] = True


def _axis_distances(problem, z):
    """Distance in z from z to the nearest face of the feasible set along
    each coordinate axis (box faces, g1 = 0 and g2 = 0)."""
    A, l, _, _, eta = x = problem.x_of_z(z)
    g1, g2 = problem.constraints(x)
    r0, r1, _, _, r4 = problem.range
    R = problem.cons.tolerance_ratio_min
    box = [min(zi, 1.0 - zi) for zi in z]
    return [min(box[0], g1 / (l * r0),
                A * g2 / (R * r0) if R > 0.0 else math.inf),
            min(box[1], g1 / (A * r1)),
            box[2], box[3],
            min(box[4], A * g2 / r4)]


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_barrier_core_matches_numpy_reference(w, coeff, instance, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    reference = ReferenceBarrier(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)

    _, value, grad, cost = point[:4]
    ref_value, ref_grad = reference.value_grad(np.array(z), mu)
    # math.log may differ from numpy's vectorised log by one ulp, so the
    # value is compared relative to the size of the terms it sums.  Each
    # constraint enters as log(g) - log(threshold), which stays finite
    # for a threshold far below its slack.
    g1, g2 = problem.constraints(problem.x_of_z(z))
    logs = [*(math.log(zi) for zi in z), *(math.log1p(-zi) for zi in z),
            math.log(g1), math.log(problem.g1_scale),
            math.log(g2), math.log(problem.g2_scale)]
    terms = abs(cost) + mu * sum(map(abs, logs))
    assert math.isfinite(value)
    assert abs(value - ref_value) <= 1e-12 * terms
    assert np.max(np.abs(np.array(grad) - ref_grad)) \
        <= 1e-12 * np.max(np.abs(ref_grad))

    # the arrowhead holds every nonzero entry of the reference Hessian
    hess = _dense(hessian(problem, point, mu))
    ref_hess = reference.hessian(np.array(z), mu)
    assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
    assert not np.any(ref_hess[~ARROWHEAD])


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_fused_cost_and_gradient_are_the_objective_bit_for_bit(w, coeff,
                                                              instance, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    x = problem.x_of_z(z)
    cost = float(total_cost_arrays(*x, w, coeff))
    grad = [gi * r for gi, r in zip(gradient_at(*x, w, coeff).tolist(),
                                    problem.range)]
    assert point[3] == cost
    _, value, gradient, _ = problem.evaluate(z, 0.0)[:4]
    assert value == cost
    assert gradient == grad


def _surrogate_gradient(x, w, c):
    """dJ/dx of J = p h + q c - r d - s v, differentiated from the
    surrogate formulas: per component, the rising and the falling part."""
    A, l, u, e, eta = x
    sum_h, sum_c = c.kA + c.kl, c.ku + c.ke + c.k_eta
    sum_d, sum_v = c.au + c.ae + c.a_eta, c.bA + c.bl + c.bu
    return [(w.p * 2.0 * c.kA * A / (c.A_max**2 * sum_h),
             w.s * c.bA / (c.A_max * sum_v)),
            (w.p * 2.0 * c.kl * l / (c.l_max**2 * sum_h),
             w.s * c.bl / (c.l_max * sum_v)),
            (w.q * 2.0 * c.ku * u / sum_c,
             w.r * c.au / sum_d + w.s * c.bu / sum_v),
            (w.q * 2.0 * c.ke * e / sum_c, w.r * c.ae / sum_d),
            (w.q * 2.0 * c.k_eta * eta / sum_c, w.r * c.a_eta / sum_d)]


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances())
def test_quadratic_form_is_the_surrogates(w, coeff, instance):
    # J and its gradient from the 10 constants of quadratic_form, against
    # the h/c/d/v breakdown and the derivative of the surrogate formulas
    bounds, _, z = instance
    x = [lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z)]
    J = total_cost(DesignVector(*x), w, coeff).J
    assert abs(float(total_cost_arrays(*x, w, coeff)) - J) \
        <= 1e-12 * max(1.0, abs(J))
    for gi, (rise, fall) in zip(gradient_at(*x, w, coeff).tolist(),
                                _surrogate_gradient(x, w, coeff)):
        assert abs(gi - (rise - fall)) <= 1e-12 * (rise + fall)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_hessian_at_an_evaluated_point_is_the_one_rebuilt_from_z(
        w, coeff, instance, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    assert hessian(problem, point, mu) \
        == hessian(problem, _rebuilt(problem, z), mu)
    # and at the point that a Newton line search accepts
    trial = line_search(problem, point, newton_direction(problem, point, mu),
                        mu)
    if trial is not None:
        assert hessian(problem, trial, mu) \
            == hessian(problem, _rebuilt(problem, trial[0]), mu)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights,
       st.sampled_from(_MU_SCHEDULE))
def test_a_stage_start_from_the_last_point_is_the_evaluated_one(
        w, coeff, instance, mu, next_mu):
    # a stage starts where the last ended, at the schedule's next mu,
    # reading the mu-free parts from the last stage's point
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    assert repr(problem.evaluate(z, next_mu, None, point)) \
        == repr(problem.evaluate(z, next_mu))
    # and from the point that a Newton line search accepts
    trial = line_search(problem, point, newton_direction(problem, point, mu),
                        mu)
    if trial is not None:
        assert repr(problem.evaluate(trial[0], next_mu, None, trial)) \
            == repr(problem.evaluate(trial[0], next_mu))


class PerTermBarrier(_BarrierProblem):
    """The barrier with its ten box logs summed term by term, one log or
    log1p per term, instead of as the logs of two products.  A given
    ``point`` only saves work, so it is not read."""

    def evaluate(self, z, mu, f_max=None, point=None):
        point = super().evaluate(z, mu)
        if point is None:
            return None
        z0, z1, z2, z3, z4 = z
        _, _, g, cost, A, l, eta, g1, g2, _ = point
        log_z = math.log(z0) + math.log(z1) + math.log(z2) + math.log(z3) \
            + math.log(z4)
        log_1mz = math.log1p(-z0) + math.log1p(-z1) + math.log1p(-z2) \
            + math.log1p(-z3) + math.log1p(-z4)
        logs = log_z + log_1mz + math.log(g1) + math.log(g2) \
            - self.log_scales
        f = cost - mu * logs
        if f_max is not None and not f <= f_max:
            return None
        return z, f, g, cost, A, l, eta, g1, g2, logs


@pytest.mark.parametrize("mu", [1.0, 1e-6])
@pytest.mark.parametrize("z", [[1e-160, 0.9, 1e-160, 0.5, 0.5],
                               [1e-200, 0.9, 1e-200, 0.5, 0.5],
                               [0.5, 0.5, 0.5, 1e-310, 0.9]],
                         ids=["subnormal", "zero", "subnormal-second"])
def test_a_box_product_below_the_normal_floats_is_summed_per_term(z, mu):
    # z0(1-z0)z1(1-z1)z2(1-z2) (or z3(1-z3)z4(1-z4)) is subnormal or 0:
    # its log would have lost its precision or raised
    problem = _BarrierProblem(WeightVector(1, 1, 1, 1),
                              ObjectiveCoefficients(), default_bounds(),
                              ConstraintSet())
    box = [zi * (1.0 - zi) for zi in z]
    assert min(box[0] * box[1] * box[2], box[3] * box[4]) \
        < sys.float_info.min
    point = problem.evaluate(z, mu)
    assert point is not None
    expected = PerTermBarrier(problem.w, problem.coeff, problem.bounds,
                              problem.cons).evaluate(z, mu)
    g1, g2 = point[7:9]
    logs = [*(math.log(zi) for zi in z), *(math.log1p(-zi) for zi in z),
            math.log(g1), math.log(problem.g1_scale),
            math.log(g2), math.log(problem.g2_scale)]
    terms = abs(point[3]) + mu * sum(map(abs, logs))
    assert math.isfinite(point[1])
    assert abs(point[1] - expected[1]) <= 1e-12 * terms


@settings(max_examples=100, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_an_interior_point_takes_at_most_four_logs(w, coeff, instance, mu):
    # two for the box products and one per constraint, wherever both
    # products are normal floats
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    box = [zi * (1.0 - zi) for zi in z]
    assume(min(box[0] * box[1] * box[2], box[3] * box[4])
           >= sys.float_info.min)
    calls = []

    def counted(f):
        return lambda value: calls.append(value) or f(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "log", counted(math.log))
        patch.setattr(dockopt.solver, "log1p", counted(math.log1p))
        point = problem.evaluate(z, mu)
    assume(point is not None)
    assert len(calls) <= 4


edge_values = st.sampled_from([0.0, 1.0, math.nan, 5e-324, 1.0 - EPS / 2])


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(),
       st.lists(st.one_of(st.none(), edge_values), min_size=5, max_size=5),
       barrier_weights)
def test_evaluate_rejects_exactly_the_points_outside_the_interior(
        w, coeff, instance, edges, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    z = [zi if ei is None else ei for zi, ei in zip(z, edges)]
    assert (problem.evaluate(z, mu) is not None) == _interior(problem, z)


# Both thresholds 0: the centre of the default box is strictly interior.
OPEN = _BarrierProblem(WeightVector(1, 1, 1, 1), ObjectiveCoefficients(),
                       default_bounds(), ConstraintSet(0.0, 0.0))


# OPEN with eta's lower bound raised from 0 to 0.05: every lower bound is
# positive, so both constraints hold on every face of the box, and the box
# test alone rejects a coordinate on it.
LIFTED = _BarrierProblem(OPEN.w, OPEN.coeff, DesignBounds(
    DesignVector(*OPEN.lb[:4], 0.05), default_bounds().upper), OPEN.cons)


@pytest.mark.parametrize("value", [0.0, 1.0, math.nan], ids=["0", "1", "nan"])
@pytest.mark.parametrize("i", range(5))
def test_a_coordinate_on_or_off_the_box_is_not_interior(i, value):
    z = [0.5] * 5
    assert LIFTED.evaluate(z, 1.0) is not None
    z[i] = value
    assert min(LIFTED.constraints(LIFTED.x_of_z(z))) > 0.0 \
        or math.isnan(value)
    assert LIFTED.evaluate(z, 1.0) is None
    assert not _interior(LIFTED, z)


@pytest.mark.parametrize("name", ["volume_min", "tolerance_ratio_min"])
def test_a_constraint_at_exactly_zero_is_not_interior(name):
    z = [0.5] * 5
    A, l, _, _, eta = OPEN.x_of_z(z)
    on_face = A * l if name == "volume_min" else eta / A
    # g = 0 exactly on the face, and one ulp of the threshold inside it
    for threshold, interior in ((on_face, False),
                                (math.nextafter(on_face, 0.0), True)):
        problem = _BarrierProblem(OPEN.w, OPEN.coeff, default_bounds(),
                                  ConstraintSet(**{"volume_min": 0.0,
                                                   "tolerance_ratio_min": 0.0,
                                                   name: threshold}))
        assert (problem.evaluate(z, 1.0) is not None) is interior
        assert _interior(problem, z) is interior


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_hessian_matches_central_differences_of_gradient(w, coeff, instance,
                                                         mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    hess = _dense(hessian(problem, point, mu))
    distances = _axis_distances(problem, z)
    # every barrier gradient term is mu over a distance to a face, so this
    # bounds the size of the gradient's terms and hence their rounding
    term_size = max(map(abs, problem.evaluate(z, 0.0)[2])) \
        + 4.0 * mu / min(distances)
    for j in range(5):
        h = 1e-4 * distances[j]
        plus, minus = list(z), list(z)
        plus[j] += h
        minus[j] -= h
        fd = (np.array(problem.evaluate(plus, mu)[2])
              - np.array(problem.evaluate(minus, mu)[2])) / (2.0 * h)
        column = hess[:, j]
        tolerance = 1e-5 * np.max(np.abs(column)) + 16.0 * EPS * term_size / h
        assert np.max(np.abs(fd - column)) <= tolerance, j


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_cholesky_direction_is_backward_stable(w, coeff, instance, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    grad = point[2]
    p = arrowhead_solve(hessian(problem, point, mu), grad)
    # the barrier Hessian is positive definite for mu > 0 (see solver.py)
    assert p is not None or mu == 0.0
    assume(p is not None)
    # the residual is measured on the reference's dense Hessian
    H = ReferenceBarrier(w, coeff, bounds, cons).hessian(np.array(z), mu)
    g, p = np.array(grad), np.array(p)
    h_norm = np.max(np.sum(np.abs(H), axis=1))
    residual = np.max(np.abs(H @ p + g))
    assert residual <= 1e-12 * (h_norm * np.max(np.abs(p)) + np.max(np.abs(g)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=5, max_size=5),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5))
def test_cholesky_solve_is_backward_stable_on_dense_matrices(k, h01, h04, g):
    # arrowheads drawn apart from the barrier: the four eliminated pivots
    # and the Schur complement span 1e-6..1e6, and the residual is taken
    # on the dense 5x5 matrix
    s, dl, du, de, deta = (10.0**ki for ki in k)
    dA = s + h01 * h01 / dl + h04 * h04 / deta
    hess = ([dA, dl, du, de, deta], h01, h04)
    p = arrowhead_solve(hess, g)
    assume(p is not None)  # rounding can leave a tiny Schur complement <= 0
    H, p, g = _dense(hess), np.array(p), np.array(g)
    h_norm = np.max(np.sum(np.abs(H), axis=1))
    residual = np.max(np.abs(H @ p + g))
    assert residual <= 1e-12 * (h_norm * np.max(np.abs(p)) + np.max(np.abs(g)))


# (diagonal, (A, l) entry, (A, eta) entry)
INDEFINITE = ([2.0, -3.0, 1.0, 4.0, 1.5], 0.5, 0.3)
GRADIENT = [1.0, -0.5, 0.25, 2.0, -1.0]
NAN_HESSIAN = ([2.0, 3.0, math.nan, 4.0, 1.5], 0.5, 0.3)
ZERO_ETA_PIVOT = ([2.0, 3.0, 1.0, 4.0, 0.0], 0.5, 0.3)
# only the (z, f, g) head of an evaluated point is read with a given Hessian
HEAD = ([0.5] * 5, 0.0, GRADIENT)


@pytest.mark.parametrize("hess", [INDEFINITE, NAN_HESSIAN, ZERO_ETA_PIVOT],
                         ids=["indefinite", "nan", "zero-eta-pivot"])
def test_steepest_descent_when_cholesky_fails(hess):
    assert arrowhead_solve(hess, GRADIENT) is None
    assert newton_direction(None, HEAD, 1.0, hess) \
        == [-gi for gi in GRADIENT]


@pytest.mark.parametrize("i", range(5))
def test_steepest_descent_when_the_newton_step_overflows(i):
    # a subnormal pivot sends one component of p to +-inf
    diag = [2.0, 3.0, 1.0, 4.0, 1.5]
    diag[i] = 5e-324
    p = arrowhead_solve((diag, 0.0, 0.0), GRADIENT)
    assert p is not None and math.isinf(p[i])
    assert newton_direction(None, HEAD, 1.0, (diag, 0.0, 0.0)) \
        == [-gi for gi in GRADIENT]


# A cost-Hessian entry that breaks the elimination (None keeps the
# problem's): a negative pivot, a nan, or, at mu = 0, a subnormal pivot
# that sends p to +-inf.  Each leaves the step on -g.
broken_curvatures = st.one_of(st.none(), st.tuples(
    st.integers(0, 4), st.sampled_from([-1e300, math.nan, 5e-324])))


def _stage_problem(w, coeff, instance, broken, stalled):
    """A barrier problem with its cost Hessian broken as drawn; if
    ``stalled``, its evaluations reject every line-search trial."""
    bounds, cons, _ = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    if broken is not None:
        i, value = broken
        diag = list(problem.cost_hess_diag)
        diag[i] = value
        problem.cost_hess_diag = tuple(diag)
    if stalled:
        evaluate = problem.evaluate
        problem.evaluate = lambda z, mu, f_max=None, point=None: (
            None if f_max is not None else evaluate(z, mu, None, point))
    return problem


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("value", [-1e300, math.nan, 5e-324],
                         ids=["negative", "nan", "subnormal"])
@pytest.mark.parametrize("i", range(5))
def test_a_stage_steps_along_minus_g_where_the_elimination_fails(i, value,
                                                                 mu):
    # a broken cost-Hessian entry in the open problem, at a point where
    # no component of the gradient is 0: the reference direction is -g,
    # except where mu's box curvature repairs a subnormal pivot, and the
    # stage takes the reference step
    problem = _stage_problem(OPEN.w, OPEN.coeff, (default_bounds(),
                                                  OPEN.cons, None),
                             (i, value), False)
    point = problem.evaluate([0.3, 0.6, 0.4, 0.7, 0.2], mu)
    direction = newton_direction(problem, point, mu)
    assert (direction == [-gi for gi in point[2]]) \
        is (mu == 0.0 or value != 5e-324)
    expected = line_search(problem, point, direction, mu)
    assert expected is not None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "_MAX_INNER_ITERATIONS", 1)
        assert repr(_newton_stage(problem, point, mu, -1.0)) \
            == repr((expected, 1))


@pytest.mark.parametrize("others", ["zero", "evaluated"])
@pytest.mark.parametrize("i", range(5))
def test_a_nan_gradient_component_ends_the_stage_in_place(i, others):
    # A nan in any position of the gradient, the others 0 (below tol) or
    # as evaluated (above it): the stage takes no step and returns its
    # point unchanged.  max(abs(g0), ...) reads the nan as converged in
    # position 0 only; elsewhere the step from it, along a direction with
    # a nan, has only trials with a nan coordinate, and none is interior.
    mu = 1e-3
    point = OPEN.evaluate([0.3, 0.6, 0.4, 0.7, 0.2], mu)
    g = [0.0] * 5 if others == "zero" else list(point[2])
    assert others == "zero" or min(map(abs, g)) > 3e-9
    g[i] = math.nan
    point = (*point[:2], g, *point[3:])
    problem = _BarrierProblem(OPEN.w, OPEN.coeff, OPEN.bounds, OPEN.cons)
    trials = []

    def recorded(z, mu, f_max=None):
        trials.append(z)
        return OPEN.evaluate(z, mu, f_max)

    problem.evaluate = recorded
    end, steps = _newton_stage(problem, point, mu, 3e-9)
    assert steps == 0 and end is point
    assert all(any(map(math.isnan, z)) for z in trials)


@settings(max_examples=50, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_a_stage_calls_no_abs_or_max(w, coeff, instance, mu):
    # the stage's gradient and no-progress tests are chained comparisons
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    calls = []

    def counted(f):
        return lambda *args: calls.append(f) or f(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "abs", counted(abs), raising=False)
        patch.setattr(dockopt.solver, "max", counted(max), raising=False)
        _newton_stage(problem, point, mu, max(3e-9, mu))
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights,
       broken_curvatures, st.booleans())
def test_a_stage_step_is_the_reference_units_step(w, coeff, instance, mu,
                                                  broken, stalled):
    # one step of the written-out stage against the Hessian, elimination,
    # direction and line search taken apart: the Newton step, its -g
    # fallback, and the exit where the line search finds no step
    problem = _stage_problem(w, coeff, instance, broken, stalled)
    point = problem.evaluate(instance[2], mu)
    assume(point is not None)
    expected = line_search(problem, point,
                           newton_direction(problem, point, mu), mu)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "_MAX_INNER_ITERATIONS", 1)
        stepped, steps = _newton_stage(problem, point, mu, -1.0)
    if expected is None:
        assert steps == 0 and stepped is point
    else:
        assert steps == 1 and repr(stepped) == repr(expected)
    if stalled:
        assert expected is None


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights,
       broken_curvatures, st.booleans(),
       st.floats(-12.0, 0.0).map(lambda k: 10.0**k))
def test_a_stage_is_the_reference_units_stage(w, coeff, instance, mu,
                                              broken, stalled, tol):
    # every step of a whole stage, and where it ends
    problem = _stage_problem(w, coeff, instance, broken, stalled)
    point = problem.evaluate(instance[2], mu)
    assume(point is not None)
    assert repr(_newton_stage(problem, point, mu, tol)) \
        == repr(newton_stage(problem, point, mu, tol))


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights,
       st.floats(-12.0, 0.0).map(lambda k: 10.0**k))
def test_an_accepted_step_meets_a_resolved_bound_or_is_the_one_last_trial(
        w, coeff, instance, mu, tol):
    # A stage's trials are read through its evaluations, each with its
    # bound f_max.  While the Armijo bound is below the point's f, a trial
    # that the evaluation returns meets it and is the step.  At the first
    # bound that is not below f, f cannot resolve the decrease: that trial
    # is the line search's last, and it is the step only if f did not rise
    # or the largest |g_i| fell.  A rejected last trial ends the stage.
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    start = problem.evaluate(z, mu)
    assume(start is not None)
    evaluate, trials = problem.evaluate, []

    def recorded(z, mu, f_max=None, point=None):
        trial = evaluate(z, mu, f_max, point)
        trials.append((f_max, trial))
        return trial

    problem.evaluate = recorded
    end, steps = _newton_stage(problem, start, mu, tol)
    point, accepted = start, 0
    for i, (f_max, trial) in enumerate(trials):
        if f_max < point[1]:
            if trial is not None:
                assert trial[1] <= f_max
                point, accepted = trial, accepted + 1
            continue
        # the one trial at an unresolved bound: the stage moves on from it,
        # or it is the stage's last evaluation
        kept = trial is not None and (i + 1 < len(trials) or trial is end)
        if not kept:
            assert i + 1 == len(trials)
            break
        assert trial[1] <= point[1] or largest(trial[2]) < largest(point[2])
        point, accepted = trial, accepted + 1
    assert accepted == steps and point is end


# A bound on f: a float, or an int k for the point's own f moved by k ulps
# (from 0.0 if z is not interior).
f_bounds = st.one_of(st.integers(-2, 2),
                     st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(),
       st.one_of(st.none(), st.lists(st.one_of(st.none(), edge_values),
                                     min_size=5, max_size=5)),
       st.one_of(barrier_weights, st.just(math.nan)), f_bounds)
def test_a_bounded_evaluation_is_the_full_one_or_none(w, coeff, instance,
                                                      edges, mu, bound):
    # edges, if drawn, move z onto or off the box as above; a nan mu makes
    # f nan: returned without a bound, rejected by any bound
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    if edges is not None:
        z = [zi if ei is None else ei for zi, ei in zip(z, edges)]
    full = problem.evaluate(z, mu)
    f_max = bound
    if isinstance(bound, int):
        f_max = full[1] if full is not None else 0.0
        for _ in range(abs(bound)):
            f_max = math.nextafter(f_max, math.copysign(math.inf, bound))
    bounded = problem.evaluate(z, mu, f_max)
    if full is None or not full[1] <= f_max:
        assert bounded is None
    else:
        assert repr(bounded) == repr(full)


# a direction: the Newton direction (None), or any, zeros and nan included
directions = st.one_of(st.none(), st.lists(
    st.one_of(st.floats(-10.0, 10.0), st.just(0.0), st.just(math.nan)),
    min_size=5, max_size=5))


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights, directions)
def test_line_search_accepts_the_point_of_full_backtracking(w, coeff, instance,
                                                            mu, direction):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    point = problem.evaluate(z, mu)
    assume(point is not None)
    p = newton_direction(problem, point, mu) if direction is None \
        else direction
    assert repr(line_search(problem, point, p, mu)) \
        == repr(backtracking_line_search(problem, point, p, mu))


# strictly inside the box that _repair_to_interior clips to (margin 1e-3)
clipped_points = st.lists(st.floats(1e-3, 1.0 - 1e-3, exclude_min=True,
                                    exclude_max=True), min_size=5, max_size=5)
# a start for the repair, in the box, on it or outside it
starts = st.lists(st.floats(-1.0, 2.0), min_size=5, max_size=5)


@settings(max_examples=150, deadline=None)
@given(instances(clipped_points), starts)
def test_repair_reaches_the_interior_whenever_the_clipped_box_is_feasible(
        instance, start):
    bounds, cons, z = instance
    problem = _BarrierProblem(WeightVector(1, 1, 1, 1),
                              ObjectiveCoefficients(), bounds, cons)
    assume(_interior(problem, z))
    assert _interior(problem, _repair_to_interior(problem, start))


@st.composite
def shared_thresholds(draw):
    """A box and thresholds V and R, each a share in [0, 1.5] of the box's
    largest A*l or eta/A, so that about half of the draws leave no
    strictly feasible point."""
    bounds = draw(boxes)
    lo, hi = bounds.lower, bounds.upper
    a, b = draw(st.floats(0.0, 1.5)), draw(st.floats(0.0, 1.5))
    return bounds, ConstraintSet(a * hi.A * hi.l, b * hi.eta / lo.A)


def _with_start(instance, start):
    return (*instance[:2], start)


# The starts a repair meets: a clipped start that is strictly interior by
# construction, or a start in [-1, 2]^5 on a feasible instance or on
# thresholds that may leave no strictly feasible point.
repair_cases = st.one_of(
    instances(clipped_points),
    st.builds(_with_start, instances(), starts),
    st.builds(_with_start, shared_thresholds(), starts))


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, repair_cases)
def test_a_solve_starts_at_its_clipped_start_if_interior_else_the_anchor(
        w, coeff, instance):
    bounds, cons, start = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    clipped = [min(max(zi, _MARGIN), 1.0 - _MARGIN) for zi in start]
    if _interior(problem, clipped):
        assert repr(_repair_to_interior(problem, start)) == repr(clipped)
        return
    try:
        anchor = interior_anchor(bounds, cons)
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            _repair_to_interior(problem, start)
        return
    assert repr(_repair_to_interior(problem, start)) == repr(anchor)
    from_start = _solve_from_z(problem, start)
    from_anchor = _solve_from_z(problem, anchor)
    assert repr(from_start) == repr(from_anchor)
    assert repr(from_start.outer_trace) == repr(from_anchor.outer_trace)


def _top_anchor_from_the_problem(problem):
    """The feasibility oracle, built from a _BarrierProblem's own x(z): l
    and eta at 1 - _MARGIN, u and e at 0.5, A at the middle of the band
    where A*l > V and eta/A > R.  None when the problem rejects it: then no
    point of the clipped box is strictly feasible."""
    top = 1.0 - _MARGIN
    _, l, _, _, eta = problem.x_of_z([top] * 5)
    V, R = problem.cons.volume_min, problem.cons.tolerance_ratio_min
    A_lb, r_A = problem.lb[0], problem.range[0]
    low = max(_MARGIN, (V / l - A_lb) / r_A)
    high = min(top, (eta / R - A_lb) / r_A) if R > 0.0 else top
    anchor = [0.5 * (low + high), top, 0.5, 0.5, top]
    return anchor if problem.evaluate(anchor, 0.0) is not None else None


def _anchor_from_the_problem(problem):
    """The repair anchor as built from a _BarrierProblem's own x(z): the
    top anchor's A, with l and eta halfway between their floors V/A and
    R*A (at least _MARGIN) and 1 - _MARGIN, or the top anchor itself when
    the problem rejects that point.  None when there is no top anchor."""
    top_anchor = _top_anchor_from_the_problem(problem)
    if top_anchor is None:
        return None
    top = 1.0 - _MARGIN
    A = problem.x_of_z(top_anchor)[0]
    V, R = problem.cons.volume_min, problem.cons.tolerance_ratio_min
    (_, l_lb, _, _, eta_lb), (_, r_l, _, _, r_eta) = problem.lb, problem.range
    anchor = [top_anchor[0],
              0.5 * (max(_MARGIN, (V / A - l_lb) / r_l) + top), 0.5, 0.5,
              0.5 * (max(_MARGIN, (R * A - eta_lb) / r_eta) + top)]
    return anchor if problem.evaluate(anchor, 0.0) is not None else top_anchor


@settings(max_examples=300, deadline=None)
@given(shared_thresholds())
# a band of A a few ulp wide, where the centred point is not strictly
# interior and the anchor is the top point
@example((default_bounds(),
          ConstraintSet(1.7401275388165316, 1.7208523129497582)))
def test_interior_anchor_needs_only_bounds_and_constraints(instance):
    # it raises if and only if the top-point oracle finds no strictly
    # interior point, and is the centred anchor otherwise
    bounds, cons = instance
    problem = _BarrierProblem(WeightVector(1, 1, 1, 1),
                              ObjectiveCoefficients(), bounds, cons)
    if _top_anchor_from_the_problem(problem) is None:
        with pytest.raises(InfeasibleProblemError):
            interior_anchor(bounds, cons)
    else:
        expected = _anchor_from_the_problem(problem)
        assert interior_anchor(bounds, cons) == expected
        assert _interior(problem, expected)


def test_the_anchor_is_the_box_centre_where_no_constraint_binds():
    assert interior_anchor(default_bounds(), ConstraintSet(0.0, 0.0)) \
        == [0.5] * 5


def _solved(w, coeff, instance):
    bounds, cons, z = instance
    x_init = DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z)))
    result = solve(w, coeff, bounds, cons, x_init)
    assert result.status is SolverStatus.Converged
    assert result.kkt_residual <= 1e-8
    return result.objective.J


@settings(max_examples=100, deadline=None)
@given(weights, coefficients, instances(clipped_points))
def test_a_solve_is_the_one_made_of_reference_stages(w, coeff, instance):
    # a whole solve, where an ulp that one step's rounding hides can show
    bounds, cons, z = instance
    x_init = DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z)))
    fused = solve(w, coeff, bounds, cons, x_init)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "_newton_stage", newton_stage)
        reference = solve(w, coeff, bounds, cons, x_init)
    assert repr(fused) == repr(reference)
    assert repr(fused.outer_trace) == repr(reference.outer_trace)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(clipped_points))
def test_solve_converges_to_the_exact_optimum(w, coeff, instance):
    # every Converged answer is the polish's certified exact optimum
    J = _solved(w, coeff, instance)
    bounds, cons, _ = instance
    best = exact_min_cost(w, coeff, bounds, cons)
    assert abs(J - best) <= 1e-12 * max(1.0, abs(J))


@st.composite
def vertex_instances(draw):
    """A box, a point z and thresholds that put a vertex of the box on a
    constraint face: R = eta_b/A_b for a bound A_b of A and a bound eta_b
    of eta, and V either a share of the box's largest A*l or A_b*l_b for a
    bound of A and one of l.  Thresholds that leave no strictly feasible
    point are not drawn."""
    bounds = draw(boxes)
    lo, hi = bounds.lower, bounds.upper
    R = draw(st.sampled_from([lo.eta, hi.eta])) \
        / draw(st.sampled_from([lo.A, hi.A]))
    V = draw(st.one_of(
        threshold_fractions.map(lambda a: a * hi.A * hi.l),
        st.builds(operator.mul, st.sampled_from([lo.A, hi.A]),
                  st.sampled_from([lo.l, hi.l]))))
    cons = ConstraintSet(V, R)
    try:
        interior_anchor(bounds, cons)
    except InfeasibleProblemError:
        assume(False)
    return bounds, cons, draw(clipped_points)


@settings(max_examples=300, deadline=None)
@given(weights, coefficients,
       st.one_of(instances(clipped_points), vertex_instances()))
# a quartic root near 1e265, which the oracle must not polish
@example(WeightVector(0.0, 1.0, 1.0, 1.0),
         ObjectiveCoefficients(ku=0.0, ke=0.0, bl=0.0, bu=0.0),
         (default_bounds(), ConstraintSet(0.0, 3.1006530971110753e-133),
          [0.5] * 5))
def test_solve_matches_the_active_set_enumeration(w, coeff, instance):
    # at a vertex instance, where a bound fixes A and l (eta) meets a bound
    # and g1 (g2), g1's (g2's) multiplier is not unique
    J = _solved(w, coeff, instance)
    bounds, cons, _ = instance
    best = enumerated_min_cost(w, coeff, bounds, cons)
    assert abs(J - best) <= 1e-12 * max(1.0, abs(J))


@settings(max_examples=150, deadline=None)
@given(weights, coefficients,
       st.one_of(shared_thresholds(),
                 vertex_instances().map(lambda instance: instance[:2])))
def test_the_centred_anchor_certifies_what_the_top_anchor_does(w, coeff,
                                                               instance):
    # the start moves the barrier's path, not a certified answer: where a
    # solve from the top anchor is Converged, the one from interior_anchor
    # is too, with the same answer bit for bit
    bounds, cons = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    top_anchor = _top_anchor_from_the_problem(problem)
    assume(top_anchor is not None)
    from_top = _solve_from_z(problem, top_anchor)
    assume(from_top.converged)
    from_anchor = _solve_from_z(problem, interior_anchor(bounds, cons))
    assert certified_answer(from_anchor) == certified_answer(from_top)


LATIN_STARTS = [DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
    default_bounds().lower.as_tuple(), default_bounds().upper.as_tuple(), z)))
    for z in latin_hypercube(16, 0)]


@settings(max_examples=60, deadline=None)
@given(weights, coefficient_sets(-7.0, 6.0))  # the calibration's range
def test_the_certified_answer_does_not_depend_on_the_start(w, coeff):
    # the polish reads the problem alone, so every start is certified with
    # the same x*, J, residual and active set, bit for bit
    results = [solve(w, coeff, default_bounds(), ConstraintSet(), x_init)
               for x_init in LATIN_STARTS]
    assert all(result.converged for result in results)
    assert len({certified_answer(result) for result in results}) == 1


@settings(max_examples=100, deadline=None)
@given(weights, coefficient_sets(-7.0, 6.0),
       st.one_of(instances(), vertex_instances()))
def test_the_grouped_log_sum_changes_no_answer(w, coeff, instance):
    # the barrier's log sum reaches no certified answer: a solve whose
    # kernel sums the box logs term by term gives the same status, x*, J,
    # residual, constraint values and active set, bit for bit
    bounds, cons, z = instance
    x_init = DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z)))
    grouped = solve(w, coeff, bounds, cons, x_init)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "_BarrierProblem", PerTermBarrier)
        per_term = solve(w, coeff, bounds, cons, x_init)
    assert certified_answer(grouped) == certified_answer(per_term)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances())
def test_the_continuation_ends_after_the_first_stage_at_the_floor(
        w, coeff, instance):
    # a trace runs a prefix of the schedule and ends at its first stage
    # that meets an exit, or runs the whole schedule.  The exits: a
    # residual at the inner floor; or, once the best residual is within
    # the polish gate, a stage at mu <= the floor that stalls under the
    # step cap (the stages after it aim at the same floor), or a residual
    # above ten times the best (refinement exhausted)
    bounds, cons, z = instance
    trace = _solve_from_z(_BarrierProblem(w, coeff, bounds, cons),
                          z).outer_trace
    mus = [stage.mu for stage in trace]
    assert mus == list(_MU_SCHEDULE[:len(mus)])
    exits, best = [], math.inf
    for stage in trace:
        residual = max(stage.stationarity, stage.mu)
        best = min(best, residual)
        stalled_at_the_floor = stage.mu <= _INNER_FLOOR \
            and stage.inner_iterations < _MAX_INNER_ITERATIONS
        exits.append(residual <= _INNER_FLOOR
                     or best <= dockopt.solver._POLISH_RESIDUAL
                     and (stalled_at_the_floor or residual > 10.0 * best))
    assert not any(exits[:-1])
    assert exits[-1] or len(trace) == len(_MU_SCHEDULE)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(builtin_scenarios()), weights,
       st.one_of(st.just(reference_coefficients()), coefficients))
def test_a_stage_ends_once_its_residual_cannot_fall(scenario, w, coeff):
    # A stage's residual is max(stationarity, mu): it steps only while its
    # gradient is above max(3e-9, mu), and ends below that unless it hits
    # the step cap or stalls, that is, its last line search finds no step
    # or one that leaves z in place.  The stage's steps are read through
    # the evaluations that it makes: a line search's trials are the
    # evaluations bounded by its Armijo test, and the accepted one is the
    # next step's point.  A last trial at an Armijo bound that rounds to f
    # is evaluated against f_max = inf, and is not a step if the stage
    # rejects it: it is then the stage's last evaluation, and not the
    # point that the stage returns.
    stage, evaluate = dockopt.solver._newton_stage, _BarrierProblem.evaluate
    stages = []

    def recorded_stage(problem, point, mu, tol):
        stages.append((problem, [point]))
        end = stage(problem, point, mu, tol)
        points = stages[-1][1]
        if points[-1] is not end[0]:
            points.pop()
        return end

    def recorded_evaluate(problem, z, mu, f_max=None, last=None):
        point = evaluate(problem, z, mu, f_max, last)
        if f_max is not None and point is not None:
            stages[-1][1].append(point)
        return point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dockopt.solver, "_newton_stage", recorded_stage)
        patch.setattr(_BarrierProblem, "evaluate", recorded_evaluate)
        result = solve(w, coeff, scenario.bounds, scenario.constraints,
                       scenario.x_init)
    assert len(stages) == len(result.outer_trace)
    for (problem, points), traced in zip(stages, result.outer_trace):
        mu, stationarity = traced.mu, traced.stationarity
        gradients = [max(map(abs, point[2])) for point in points]
        assert len(points) - 1 == traced.inner_iterations
        assert gradients[-1] == stationarity
        assert all(gradient > max(3e-9, mu) for gradient in gradients[:-1])
        if stationarity <= max(3e-9, mu):
            if mu >= 3e-9:
                assert max(stationarity, mu) == mu
        elif traced.inner_iterations < _MAX_INNER_ITERATIONS:
            # the last step left z in place, or no step is left to take
            end = points[-1]
            assert len(points) > 1 and max(
                abs(a - b) for a, b in zip(end[0], points[-2][0])) < 1e-15 \
                or line_search(problem, end,
                               newton_direction(problem, end, mu), mu) is None
