"""The solver's plain-float barrier core: value, gradient and Hessian
against the numpy reference, the Hessian against central differences, the
Cholesky direction's backward error, and the damping fallback."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dockopt import (ConstraintSet, ObjectiveCoefficients, WeightVector,
                     default_bounds)
from dockopt.solver import (_BarrierProblem, _newton_direction,
                            _shifted_cholesky_solve)
from helpers import ReferenceBarrier

BOUNDS = default_bounds()
CONS = ConstraintSet()
EPS = np.finfo(float).eps

weights = st.tuples(*[st.floats(0.05, 5.0)] * 4).map(
    lambda t: WeightVector(*t))
# kA .. bu log-uniform in e^[-4, 4]; A_max and l_max keep their defaults
coefficients = st.lists(st.floats(-4.0, 4.0), min_size=11, max_size=11).map(
    lambda t: ObjectiveCoefficients(*map(math.exp, t)))
points = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=5, max_size=5)
barrier_weights = st.one_of(st.just(0.0),
                            st.floats(-10.0, 0.0).map(lambda k: 10.0**k))


def _axis_distances(problem, z):
    """Distance in z from z to the nearest face of the feasible set along
    each coordinate axis (box faces, g1 = 0 and g2 = 0)."""
    A, l, _, _, eta = x = problem.x_of_z(z)
    g1, g2 = problem.constraints(x)
    r0, r1, _, _, r4 = problem.range
    box = [min(zi, 1.0 - zi) for zi in z]
    return [min(box[0], g1 / (l * r0),
                A * g2 / (CONS.tolerance_ratio_min * r0)),
            min(box[1], g1 / (A * r1)),
            box[2], box[3],
            min(box[4], A * g2 / r4)]


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, points, barrier_weights)
def test_barrier_core_matches_numpy_reference(w, coeff, z, mu):
    problem = _BarrierProblem(w, coeff, BOUNDS, CONS)
    reference = ReferenceBarrier(w, coeff, BOUNDS, CONS)
    assume(problem.interior(z))

    value, grad = problem.value_grad(z, mu)
    ref_value, ref_grad = reference.value_grad(np.array(z), mu)
    # math.log may differ from numpy's vectorised log by one ulp, so the
    # value is compared relative to the size of the terms it sums
    terms = abs(problem.cost(z)) + mu * sum(abs(math.log(s))
                                            for s in problem.scaled_slacks(z))
    assert abs(value - ref_value) <= 1e-12 * terms
    assert np.max(np.abs(np.array(grad) - ref_grad)) \
        <= 1e-12 * np.max(np.abs(ref_grad))

    hess = np.array(problem.hessian(z, mu))
    ref_hess = reference.hessian(np.array(z), mu)
    assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
    assert np.array_equal(hess, hess.T)


@settings(max_examples=150, deadline=None)
@given(weights, coefficients, points, barrier_weights)
def test_hessian_matches_central_differences_of_gradient(w, coeff, z, mu):
    problem = _BarrierProblem(w, coeff, BOUNDS, CONS)
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
@given(weights, coefficients, points, barrier_weights)
def test_cholesky_direction_is_backward_stable(w, coeff, z, mu):
    problem = _BarrierProblem(w, coeff, BOUNDS, CONS)
    assume(problem.interior(z))
    _, grad = problem.value_grad(z, mu)
    hess = problem.hessian(z, mu)
    p = _shifted_cholesky_solve(hess, 0.0, grad)
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
    p = _shifted_cholesky_solve(H.tolist(), 0.0, g)
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


def test_damping_escalates_on_an_indefinite_hessian():
    H = np.array(INDEFINITE)
    lowest = float(np.min(np.linalg.eigvalsh(H)))
    assert lowest < 0.0
    assert _shifted_cholesky_solve(INDEFINITE, 0.0, GRADIENT) is None

    p = _newton_direction(_FixedHessian(INDEFINITE), [0.5] * 5, 1.0, GRADIENT)
    assert all(map(math.isfinite, p))
    assert float(np.dot(GRADIENT, p)) < 0.0
    # p solves (H + damping * I) p = -g for one damping on the escalation
    # schedule 1e-12 * max|diag H| * 100^k that makes H + damping * I
    # positive definite
    shift = -(H @ np.array(p) + np.array(GRADIENT)) / np.array(p)
    assert shift == pytest.approx(np.full(5, shift[0]), rel=1e-9)
    assert shift[0] > -lowest
    steps = math.log(shift[0] / (1e-12 * 4.0), 100.0)
    assert steps == pytest.approx(round(steps), abs=1e-9)
    assert round(steps) >= 1


def test_steepest_descent_when_no_damping_helps():
    broken = [list(row) for row in INDEFINITE]
    broken[2][2] = math.nan
    p = _newton_direction(_FixedHessian(broken), [0.5] * 5, 1.0, GRADIENT)
    assert p == [-gi for gi in GRADIENT]
