"""The solver's plain-float barrier core: value, gradient and Hessian
against the numpy reference, the Hessian against central differences, the
Cholesky direction's backward error, the steepest-descent fallback and
the repair to a strictly feasible start."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dockopt import (ConstraintSet, DesignBounds, DesignVector,
                     ObjectiveCoefficients, WeightVector, default_bounds)
from dockopt.solver import (_BarrierProblem, _cholesky_solve,
                            _newton_direction, _repair_to_interior)
from helpers import ReferenceBarrier

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
    assume(problem.interior(z))

    value, grad = problem.value_grad(z, mu)
    ref_value, ref_grad = reference.value_grad(np.array(z), mu)
    # math.log may differ from numpy's vectorised log by one ulp, so the
    # value is compared relative to the size of the terms it sums.  A
    # threshold far below its slack overflows the scaled slack, and both
    # values are then -inf.
    terms = abs(problem.cost(z))
    if mu > 0.0:
        terms += mu * sum(abs(math.log(s)) for s in problem.scaled_slacks(z))
    assert value == ref_value or abs(value - ref_value) <= 1e-12 * terms
    assert np.max(np.abs(np.array(grad) - ref_grad)) \
        <= 1e-12 * np.max(np.abs(ref_grad))

    hess = np.array(problem.hessian(z, mu))
    ref_hess = reference.hessian(np.array(z), mu)
    assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
    assert np.array_equal(hess, hess.T)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_hessian_matches_central_differences_of_gradient(w, coeff, instance,
                                                         mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    assume(problem.interior(z))
    hess = np.array(problem.hessian(z, mu))
    distances = _axis_distances(problem, z)
    # every barrier gradient term is mu over a distance to a face, so this
    # bounds the size of the gradient's terms and hence their rounding
    term_size = max(map(abs, problem.value_grad(z, 0.0)[1])) \
        + 4.0 * mu / min(distances)
    for j in range(5):
        h = 1e-4 * distances[j]
        plus, minus = list(z), list(z)
        plus[j] += h
        minus[j] -= h
        fd = (np.array(problem.value_grad(plus, mu)[1])
              - np.array(problem.value_grad(minus, mu)[1])) / (2.0 * h)
        column = hess[:, j]
        tolerance = 1e-5 * np.max(np.abs(column)) + 16.0 * EPS * term_size / h
        assert np.max(np.abs(fd - column)) <= tolerance, j


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, instances(), barrier_weights)
def test_cholesky_direction_is_backward_stable(w, coeff, instance, mu):
    bounds, cons, z = instance
    problem = _BarrierProblem(w, coeff, bounds, cons)
    assume(problem.interior(z))
    _, grad = problem.value_grad(z, mu)
    hess = problem.hessian(z, mu)
    p = _cholesky_solve(hess, grad)
    # the barrier Hessian is positive definite for mu > 0 (see solver.py)
    assert p is not None or mu == 0.0
    assume(p is not None)
    H, g, p = np.array(hess), np.array(grad), np.array(p)
    h_norm = np.max(np.sum(np.abs(H), axis=1))
    residual = np.max(np.abs(H @ p + g))
    assert residual <= 1e-12 * (h_norm * np.max(np.abs(p)) + np.max(np.abs(g)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=25, max_size=25),
       st.floats(-6.0, 2.0), st.lists(st.floats(-1e3, 1e3), min_size=5,
                                      max_size=5))
def test_cholesky_solve_is_backward_stable_on_dense_matrices(entries, k, g):
    # barrier Hessians couple only (A, l) and (A, eta), which leaves most
    # of the factor zero; dense positive definite matrices exercise all of it
    M = np.array(entries).reshape(5, 5)
    H = M @ M.T + 10.0**k * np.eye(5)
    p = _cholesky_solve(H.tolist(), g)
    assume(p is not None)  # rounding can leave a nearly singular H indefinite
    p, g = np.array(p), np.array(g)
    h_norm = np.max(np.sum(np.abs(H), axis=1))
    residual = np.max(np.abs(H @ p + g))
    assert residual <= 1e-12 * (h_norm * np.max(np.abs(p)) + np.max(np.abs(g)))


class _FixedHessian:
    """Stands in for the barrier problem: every Hessian is ``hess``."""

    def __init__(self, hess):
        self.hess = hess

    def hessian(self, z, mu):
        return [list(row) for row in self.hess]


INDEFINITE = [[2.0, 0.5, 0.0, 0.0, 0.3],
              [0.5, -3.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 4.0, 0.0],
              [0.3, 0.0, 0.0, 0.0, 1.5]]
GRADIENT = [1.0, -0.5, 0.25, 2.0, -1.0]
NAN_HESSIAN = [list(row) for row in INDEFINITE]
NAN_HESSIAN[2][2] = math.nan


@pytest.mark.parametrize("hess", [INDEFINITE, NAN_HESSIAN],
                         ids=["indefinite", "nan"])
def test_steepest_descent_when_cholesky_fails(hess):
    assert _cholesky_solve(hess, GRADIENT) is None
    p = _newton_direction(_FixedHessian(hess), [0.5] * 5, 1.0, GRADIENT)
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
    assume(problem.interior(z))
    assert problem.interior(_repair_to_interior(problem, start))
