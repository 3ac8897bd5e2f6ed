"""The solver's plain-float barrier core: the cost's 10-constant form
against the surrogates, the fused evaluation against ``dockopt.objective``
bit for bit and against the numpy reference, its interior test, the
Hessian at an evaluated point against the one rebuilt from z and against
central differences, the arrowhead Newton solve's backward error, the
steepest-descent fallback, the repair to a strictly feasible start, and
whole solves against an exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dockopt import (ConstraintSet, DesignBounds, DesignVector,
                     ObjectiveCoefficients, SolverStatus, WeightVector,
                     default_bounds, solve, total_cost)
from dockopt.objective import gradient_at, total_cost_arrays
from dockopt.solver import (_MARGIN, InfeasibleProblemError,
                            _arrowhead_solve, _BarrierProblem, _line_search,
                            _newton_direction, _repair_to_interior,
                            interior_anchor)
from helpers import ReferenceBarrier, exact_min_cost

EPS = np.finfo(float).eps

weights = st.tuples(*[st.floats(0.05, 5.0)] * 4).map(
    lambda t: WeightVector(*t))
# kA .. bu log-uniform in e^[-4, 4]; A_max and l_max keep their defaults
coefficients = st.lists(st.floats(-4.0, 4.0), min_size=11, max_size=11).map(
    lambda t: ObjectiveCoefficients(*map(math.exp, t)))
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
    """A point for ``hessian`` rebuilt from z alone; the value, gradient
    and cost slots are not read by the Hessian."""
    A, l, _, _, eta = x = problem.x_of_z(z)
    return (z, None, None, None, A, l, eta, *problem.constraints(x))


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
    hess = _dense(problem.hessian(point, mu))
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
    assert problem.hessian(point, mu) \
        == problem.hessian(_rebuilt(problem, z), mu)
    # and at the point that a Newton line search accepts
    trial = _line_search(problem, point, _newton_direction(problem, point, mu),
                         mu)
    if trial is not None:
        assert problem.hessian(trial, mu) \
            == problem.hessian(_rebuilt(problem, trial[0]), mu)


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


@pytest.mark.parametrize("value", [0.0, 1.0, math.nan], ids=["0", "1", "nan"])
@pytest.mark.parametrize("i", range(5))
def test_a_coordinate_on_or_off_the_box_is_not_interior(i, value):
    z = [0.5] * 5
    assert OPEN.evaluate(z, 1.0) is not None
    z[i] = value
    assert OPEN.evaluate(z, 1.0) is None
    assert not _interior(OPEN, z)


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
    hess = _dense(problem.hessian(point, mu))
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
    p = _arrowhead_solve(problem.hessian(point, mu), grad)
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
    p = _arrowhead_solve(hess, g)
    assume(p is not None)  # rounding can leave a tiny Schur complement <= 0
    H, p, g = _dense(hess), np.array(p), np.array(g)
    h_norm = np.max(np.sum(np.abs(H), axis=1))
    residual = np.max(np.abs(H @ p + g))
    assert residual <= 1e-12 * (h_norm * np.max(np.abs(p)) + np.max(np.abs(g)))


class _FixedHessian:
    """Stands in for the barrier problem: every Hessian is ``hess``."""

    def __init__(self, hess):
        self.hess = hess

    def hessian(self, point, mu):
        diag, h01, h04 = self.hess
        return list(diag), h01, h04


# (diagonal, (A, l) entry, (A, eta) entry)
INDEFINITE = ([2.0, -3.0, 1.0, 4.0, 1.5], 0.5, 0.3)
GRADIENT = [1.0, -0.5, 0.25, 2.0, -1.0]
NAN_HESSIAN = ([2.0, 3.0, math.nan, 4.0, 1.5], 0.5, 0.3)
ZERO_ETA_PIVOT = ([2.0, 3.0, 1.0, 4.0, 0.0], 0.5, 0.3)


@pytest.mark.parametrize("hess", [INDEFINITE, NAN_HESSIAN, ZERO_ETA_PIVOT],
                         ids=["indefinite", "nan", "zero-eta-pivot"])
def test_steepest_descent_when_cholesky_fails(hess):
    assert _arrowhead_solve(hess, GRADIENT) is None
    # only the (z, f, g) head of an evaluated point is read
    p = _newton_direction(_FixedHessian(hess), ([0.5] * 5, 0.0, GRADIENT),
                          1.0)
    assert p == [-gi for gi in GRADIENT]


# strictly inside the box that _repair_to_interior clips to (margin 1e-3)
clipped_points = st.lists(st.floats(1e-3, 1.0 - 1e-3, exclude_min=True,
                                    exclude_max=True), min_size=5, max_size=5)


@settings(max_examples=150, deadline=None)
@given(instances(clipped_points),
       st.lists(st.floats(-1.0, 2.0), min_size=5, max_size=5))
def test_repair_reaches_the_interior_whenever_the_clipped_box_is_feasible(
        instance, start):
    bounds, cons, z = instance
    problem = _BarrierProblem(WeightVector(1, 1, 1, 1),
                              ObjectiveCoefficients(), bounds, cons)
    assume(_interior(problem, z))
    assert _interior(problem, _repair_to_interior(problem, start))


def _anchor_from_the_problem(problem):
    """The repair anchor as built from a _BarrierProblem's own x(z), or
    None when the problem rejects it."""
    top = 1.0 - _MARGIN
    _, l, _, _, eta = problem.x_of_z([top] * 5)
    V, R = problem.cons.volume_min, problem.cons.tolerance_ratio_min
    A_lb, r_A = problem.lb[0], problem.range[0]
    low = max(_MARGIN, (V / l - A_lb) / r_A)
    high = min(top, (eta / R - A_lb) / r_A) if R > 0.0 else top
    anchor = [0.5 * (low + high), top, 0.5, 0.5, top]
    return anchor if problem.evaluate(anchor, 0.0) is not None else None


@settings(max_examples=300, deadline=None)
@given(boxes, st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_interior_anchor_needs_only_bounds_and_constraints(bounds, a, b):
    # thresholds from a share of the box's largest A*l and eta/A, so about
    # half of the examples leave no strictly feasible point
    lo, hi = bounds.lower, bounds.upper
    cons = ConstraintSet(a * hi.A * hi.l, b * hi.eta / lo.A)
    problem = _BarrierProblem(WeightVector(1, 1, 1, 1),
                              ObjectiveCoefficients(), bounds, cons)
    expected = _anchor_from_the_problem(problem)
    if expected is None:
        with pytest.raises(InfeasibleProblemError):
            interior_anchor(bounds, cons)
    else:
        assert interior_anchor(bounds, cons) == expected
        assert _interior(problem, expected)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(clipped_points))
def test_solve_converges_to_the_exact_optimum(w, coeff, instance):
    # a solve whose best barrier stage misses the KKT tolerance was
    # finished by the polish, which solves the reduced problem exactly
    bounds, cons, z = instance
    x_init = DesignVector(*(lo + zi * (hi - lo) for lo, hi, zi in zip(
        bounds.lower.as_tuple(), bounds.upper.as_tuple(), z)))
    result = solve(w, coeff, bounds, cons, x_init)
    assert result.status is SolverStatus.Converged
    J, best = result.objective.J, exact_min_cost(w, coeff, bounds, cons)
    scale = max(1.0, abs(J))
    assert abs(J - best) <= 1e-6 * scale
    if min(max(s.stationarity, s.mu) for s in result.outer_trace) > 1e-8:
        assert abs(J - best) <= 1e-12 * scale
