"""Shared test oracles: brute-force grid search, numerical quadrature and
a numpy reference of the solver's barrier.

These deliberately avoid the solver's machinery: the grid oracle scans an
exhaustive feasible lattice for the lowest cost, the quadrature oracle
integrates sin(phi) numerically instead of using the closed form, and the
reference barrier evaluates the value, gradient and Hessian with numpy
arrays instead of the solver's plain-float code.
"""

import functools
import math

import numpy as np

from dockopt import DesignBounds, ObjectiveCoefficients, WeightVector
from dockopt.objective import gradient_at, gradient_bound, total_cost_arrays
from dockopt.solver import ConstraintSet


def grid_min_cost(w: WeightVector, coeff: ObjectiveCoefficients,
                  bounds: DesignBounds, cons: ConstraintSet,
                  points_per_axis: int) -> float:
    """Lowest J over the feasible points of a regular lattice."""
    lb = np.array(bounds.lower.as_tuple())
    ub = np.array(bounds.upper.as_tuple())
    axes = [np.linspace(lb[i], ub[i], points_per_axis) for i in range(5)]
    mesh_l, mesh_u, mesh_e, mesh_eta = np.meshgrid(*axes[1:], indexing="ij",
                                                   sparse=True)
    best = np.inf
    for area in axes[0]:
        feasible = (area * mesh_l >= cons.volume_min) \
            & (mesh_eta / area >= cons.tolerance_ratio_min)
        if not np.any(feasible):
            continue
        cost = total_cost_arrays(area, mesh_l, mesh_u, mesh_e, mesh_eta,
                                 w, coeff)
        best = min(best, float(np.min(np.where(feasible, cost, np.inf))))
    return best


def grid_resolution_slack(w: WeightVector, coeff: ObjectiveCoefficients,
                          bounds: DesignBounds, points_per_axis: int) -> float:
    """Upper bound on how much J can change across one grid cell."""
    lb = np.array(bounds.lower.as_tuple())
    ub = np.array(bounds.upper.as_tuple())
    spacing = (ub - lb) / (points_per_axis - 1)
    lipschitz = gradient_bound(w, coeff, A_hi=float(ub[0]), l_hi=float(ub[1]))
    return float(np.sum(lipschitz * spacing))


def quadrature_entry_fraction(theta1: float, theta2: float,
                              phi1: float, phi2: float, order: int = 48) -> float:
    """Gauss-Legendre quadrature of the spherical-patch integral
    (1/4pi) * int int sin(phi) dphi dtheta over the spans."""
    nodes, weights = _leggauss(order)
    phi = 0.5 * (phi2 - phi1) * nodes + 0.5 * (phi2 + phi1)
    phi_weights = 0.5 * (phi2 - phi1) * weights
    theta = 0.5 * (theta2 - theta1) * nodes + 0.5 * (theta2 + theta1)
    theta_weights = 0.5 * (theta2 - theta1) * weights
    integrand = np.sin(phi)[None, :] * np.ones_like(theta)[:, None]
    value = float(theta_weights @ integrand @ phi_weights)
    return value / (4.0 * np.pi)


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, computed once per order (an
    eigenvalue solve) and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class ReferenceBarrier:
    """Numpy evaluation of the solver's barrier objective in box-normalized
    coordinates z: B(z, mu) = J(x(z)) - mu * sum(log(scaled slacks)).

    Same formulas as ``dockopt.solver._BarrierProblem``, written on 5-element
    arrays, so the solver's plain-float code can be checked against it."""

    def __init__(self, w: WeightVector, coeff: ObjectiveCoefficients,
                 bounds: DesignBounds, cons: ConstraintSet) -> None:
        self.w = w
        self.coeff = coeff
        self.cons = cons
        self.lb = np.array(bounds.lower.as_tuple())
        self.range = np.array(bounds.upper.as_tuple()) - self.lb
        self.g1_scale = cons.volume_min if cons.volume_min > 0.0 else 1.0
        self.g2_scale = cons.tolerance_ratio_min if cons.tolerance_ratio_min > 0.0 else 1.0

    def _constraints(self, x: np.ndarray) -> tuple[float, float]:
        return (float(x[0] * x[1] - self.cons.volume_min),
                float(x[4] / x[0] - self.cons.tolerance_ratio_min))

    def _g1_grad_z(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(5)
        g[0] = x[1] * self.range[0]
        g[1] = x[0] * self.range[1]
        return g

    def _g2_grad_z(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(5)
        g[0] = -x[4] / x[0]**2 * self.range[0]
        g[4] = 1.0 / x[0] * self.range[4]
        return g

    def value_grad(self, z: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        z = np.asarray(z, dtype=float)
        x = self.lb + z * self.range
        g1, g2 = self._constraints(x)
        cost = float(total_cost_arrays(x[0], x[1], x[2], x[3], x[4],
                                       self.w, self.coeff))
        grad = gradient_at(x[0], x[1], x[2], x[3], x[4], self.w, self.coeff) \
            * self.range
        if mu == 0.0:
            return cost, grad
        value = cost - mu * (float(np.sum(np.log(z))) + float(np.sum(np.log1p(-z)))
                             + math.log(g1) - math.log(self.g1_scale)
                             + math.log(g2) - math.log(self.g2_scale))
        grad = grad - mu / z + mu / (1.0 - z)
        grad -= mu / g1 * self._g1_grad_z(x)
        grad -= mu / g2 * self._g2_grad_z(x)
        return value, grad

    def hessian(self, z: np.ndarray, mu: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x = self.lb + z * self.range
        g1, g2 = self._constraints(x)
        c, w = self.coeff, self.w
        quad = np.array([
            w.p * 2.0 * c.kA / (c.A_max**2 * (c.kA + c.kl)),
            w.p * 2.0 * c.kl / (c.l_max**2 * (c.kA + c.kl)),
            w.q * 2.0 * c.ku / (c.ku + c.ke + c.k_eta),
            w.q * 2.0 * c.ke / (c.ku + c.ke + c.k_eta),
            w.q * 2.0 * c.k_eta / (c.ku + c.ke + c.k_eta),
        ])
        hess = np.diag(quad * self.range**2
                       + mu * (1.0 / z**2 + 1.0 / (1.0 - z)**2))

        u1 = self._g1_grad_z(x)
        hess += mu / g1**2 * np.outer(u1, u1)
        cross = mu / g1 * self.range[0] * self.range[1]  # d2(A*l)/dAdl = 1
        hess[0, 1] -= cross
        hess[1, 0] -= cross

        u2 = self._g2_grad_z(x)
        hess += mu / g2**2 * np.outer(u2, u2)
        hess[0, 0] -= mu / g2 * 2.0 * x[4] / x[0]**3 * self.range[0]**2
        cross = mu / g2 * (-1.0 / x[0]**2) * self.range[0] * self.range[4]
        hess[0, 4] -= cross
        hess[4, 0] -= cross
        return hess
