"""Shared test oracles: brute-force grid search, an exact reduced solve,
an active-set enumeration, numerical quadrature and a numpy reference of
the solver's barrier.

These deliberately avoid the solver's machinery: the grid oracle scans an
exhaustive feasible lattice for the lowest cost, the exact oracle bisects
the derivative of the cost reduced to the frontal area, the enumeration
solves the stationarity equations of every combination of active faces,
the quadrature
oracle integrates sin(phi) numerically instead of using the closed form,
the reference barrier evaluates the value, gradient and Hessian with
numpy arrays instead of the solver's plain-float code, and the reference
line search evaluates every trial in full before its Armijo test.
"""

import functools
import itertools
import math

import numpy as np

from dockopt import DesignBounds, ObjectiveCoefficients, WeightVector
from dockopt.objective import gradient_at, total_cost_arrays
from dockopt.solver import (_ARMIJO_C, _BACKTRACK_FACTOR, _BOUNDARY_FRACTION,
                            _MIN_STEP, ConstraintSet)


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


def exact_min_cost(w: WeightVector, coeff: ObjectiveCoefficients,
                   bounds: DesignBounds, cons: ConstraintSet) -> float:
    """Lowest J over the feasible set, by a global bisection on the
    derivative of J reduced to A.

    J = sum(q_i*x_i**2 - b_i*x_i), with q and b read off the surrogate
    formulas, is separable: u and e minimise alone at clip(b/2q, box).  For
    a fixed A, l*(A) = clip(l_free, max(l_lo, V/A), l_hi) and eta*(A) =
    clip(eta_free, max(eta_lo, R*A), eta_hi), and phi(A) = J(A, l*(A), u*,
    e*, eta*(A)) is convex on [max(A_lo, V/l_hi), min(A_hi, eta_hi/R)]
    (partial minimisation of a convex problem), so phi' changes sign once.
    phi' includes the coupling of l (or eta) to A only where the free
    minimiser lies on the constraint's side of its floor V/A (or R*A).
    """
    c, V, R = coeff, cons.volume_min, cons.tolerance_ratio_min
    sum_h, sum_c = c.kA + c.kl, c.ku + c.ke + c.k_eta
    sum_d, sum_v = c.au + c.ae + c.a_eta, c.bA + c.bl + c.bu
    q = [w.p * c.kA / (c.A_max**2 * sum_h), w.p * c.kl / (c.l_max**2 * sum_h),
         w.q * c.ku / sum_c, w.q * c.ke / sum_c, w.q * c.k_eta / sum_c]
    b = [w.s * c.bA / (c.A_max * sum_v), w.s * c.bl / (c.l_max * sum_v),
         w.r * c.au / sum_d + w.s * c.bu / sum_v, w.r * c.ae / sum_d,
         w.r * c.a_eta / sum_d]
    free = [bi / (2.0 * qi) if qi > 0.0 else math.inf for qi, bi in zip(q, b)]
    lo, hi = bounds.lower.as_tuple(), bounds.upper.as_tuple()

    def clip(value, low, high):
        return min(max(value, low), high)

    def design(A):
        return (A, clip(free[1], max(lo[1], V / A), hi[1]),
                clip(free[2], lo[2], hi[2]), clip(free[3], lo[3], hi[3]),
                clip(free[4], max(lo[4], R * A), hi[4]))

    def slope(A):
        # inside the interval the floors V/A and R*A are <= l_hi and eta_hi
        value = 2.0 * q[0] * A - b[0]
        if V / A > lo[1] and free[1] < V / A:
            value -= (2.0 * q[1] * (V / A) - b[1]) * V / (A * A)
        if R * A > lo[4] and free[4] < R * A:
            value += (2.0 * q[4] * (R * A) - b[4]) * R
        return value

    left = max(lo[0], V / hi[1])
    right = min(hi[0], hi[4] / R) if R > 0.0 else hi[0]
    if slope(left) >= 0.0:
        right = left
    elif slope(right) <= 0.0:
        left = right
    while left < (mid := 0.5 * (left + right)) < right:
        if slope(mid) > 0.0:
            right = mid
        else:
            left = mid
    return min(float(total_cost_arrays(*design(A), w, coeff))
               for A in (left, right))


def enumerated_min_cost(w: WeightVector, coeff: ObjectiveCoefficients,
                        bounds: DesignBounds, cons: ConstraintSet) -> float:
    """Lowest J over the feasible set, by enumerating every combination of
    active faces among g1, g2 and the A, l and eta bounds.

    On (A, l, eta), with g2 written as eta - R*A >= 0, the Lagrangian is
    f - m1*(A*l - V) - m2*(eta - R*A), where f = sum(c2_i*x_i**2 - c1_i*x_i)
    over the three and u and e minimise alone at clip(c1/2c2, box).  Each
    combination fixes some variables: a bound fixes its variable, and an
    active g1 (g2) whose l (eta) sits on a bound fixes A at V/l (eta/R).  A
    combination that fixes A twice is skipped: a subset of its faces gives
    the same point.  Otherwise l follows A as its bound, V/A (g1 active)
    or its free minimiser, and eta as its bound, R*A (g2 active) or its
    free minimiser.  An A left free solves its stationarity equation with
    the multipliers read off the l and eta equations; with g1 active,
    times A**3, that is the quartic
    (2a + 2c*R**2)*A**4 - (b + R*d)*A**3 + k*V*A - 2h*V**2 = 0, with
    a, b (h, k; c, d) the quadratic and linear constants of A (l; eta) and
    the R terms only where g2 holds a free eta.  Every feasible candidate
    is kept, and the least J among them is returned: the problem is
    convex, so its minimiser is a stationary point of some combination.
    """
    c, V, R = coeff, cons.volume_min, cons.tolerance_ratio_min
    hull = c.kA + c.kl
    price = c.ku + c.ke + c.k_eta
    drag = c.au + c.ae + c.a_eta
    reach = c.bA + c.bl + c.bu
    a, h = w.p * c.kA / c.A_max**2 / hull, w.p * c.kl / c.l_max**2 / hull
    b, k = w.s * c.bA / c.A_max / reach, w.s * c.bl / c.l_max / reach
    cu, ce = w.q * c.ku / price, w.q * c.ke / price
    c_eta = w.q * c.k_eta / price
    du = w.r * c.au / drag + w.s * c.bu / reach
    de, d_eta = w.r * c.ae / drag, w.r * c.a_eta / drag
    lo, hi = bounds.lower.as_tuple(), bounds.upper.as_tuple()
    u = min(max(du / (2.0 * cu), lo[2]), hi[2])
    e = min(max(de / (2.0 * ce), lo[3]), hi[3])

    def polished(poly, A):
        # Newton steps on the polynomial from numpy's eigenvalue root
        slope = np.polyder(poly)
        for _ in range(8):
            d = np.polyval(slope, A)
            if d == 0.0:
                break
            A -= np.polyval(poly, A) / d
        return float(A)

    best = math.inf
    for on_A, on_l, on_eta, g1, g2 in itertools.product(
            (None, lo[0], hi[0]), (None, lo[1], hi[1]),
            (None, lo[4], hi[4]), (False, True), (False, True)):
        fixes = [] if on_A is None else [on_A]
        if g1 and on_l is not None:
            fixes.append(V / on_l)
        if g2 and on_eta is not None:
            if R == 0.0:
                continue  # eta = 0 is the bound itself
            fixes.append(on_eta / R)
        if len(fixes) > 1:
            continue
        coupled = g2 and on_eta is None
        if fixes:
            areas = fixes
        elif g1:
            poly = [2.0 * a + (2.0 * c_eta * R * R if coupled else 0.0),
                    -(b + (R * d_eta if coupled else 0.0)), 0.0, k * V,
                    -2.0 * h * V * V]
            areas = [polished(poly, r.real) for r in np.roots(poly)
                     if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]
        else:
            areas = [(b + (R * d_eta if coupled else 0.0))
                     / (2.0 * a + (2.0 * c_eta * R * R if coupled else 0.0))]
        for A in areas:
            if not A > 0.0:
                continue
            l = on_l if on_l is not None else V / A if g1 else k / (2.0 * h)
            eta = (on_eta if on_eta is not None else R * A if g2
                   else d_eta / (2.0 * c_eta))
            x = (A, l, u, e, eta)
            if not (all(low - 1e-14 * max(1.0, abs(low)) <= xi
                        <= high + 1e-14 * max(1.0, abs(high))
                        for low, xi, high in zip(lo, x, hi))
                    and A * l - V >= -1e-14 * V
                    and eta / A - R >= -1e-14 * R):
                continue
            best = min(best, float(total_cost_arrays(*x, w, coeff)))
    return best


def grid_resolution_slack(w: WeightVector, coeff: ObjectiveCoefficients,
                          bounds: DesignBounds, points_per_axis: int) -> float:
    """Upper bound on how much J can change across one grid cell."""
    lb = np.array(bounds.lower.as_tuple())
    ub = np.array(bounds.upper.as_tuple())
    spacing = (ub - lb) / (points_per_axis - 1)
    return float(np.sum(_gradient_bound(w, coeff, ub) * spacing))


def _gradient_bound(w: WeightVector, coeff: ObjectiveCoefficients,
                    upper: np.ndarray) -> np.ndarray:
    """Componentwise bound on |dJ/dx| over a box in the positive orthant
    with upper corner ``upper``, read off the surrogate formulas.

    Each partial derivative of J = p h + q c - r d - s v is the derivative
    of a quadratic term, which grows with its variable, minus the slopes of
    the linear d and v terms; both parts are bounded at the upper corner.
    """
    c = coeff
    A_hi, l_hi, u_hi, e_hi, eta_hi = upper
    sum_h = c.kA + c.kl
    sum_c = c.ku + c.ke + c.k_eta
    sum_d = c.au + c.ae + c.a_eta
    sum_v = c.bA + c.bl + c.bu
    return np.array([
        w.p * 2 * c.kA * A_hi / (c.A_max**2 * sum_h)
        + w.s * c.bA / (c.A_max * sum_v),
        w.p * 2 * c.kl * l_hi / (c.l_max**2 * sum_h)
        + w.s * c.bl / (c.l_max * sum_v),
        w.q * 2 * c.ku * u_hi / sum_c + w.r * c.au / sum_d
        + w.s * c.bu / sum_v,
        w.q * 2 * c.ke * e_hi / sum_c + w.r * c.ae / sum_d,
        w.q * 2 * c.k_eta * eta_hi / sum_c + w.r * c.a_eta / sum_d])


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


def backtracking_line_search(problem, point, p, mu):
    """Armijo backtracking along p from an evaluated point of a
    ``dockopt.solver._BarrierProblem``, looped over the coordinates.  The
    first step is the smaller of 1 and 0.995 of the step to the nearest
    box face ahead.  Every trial is evaluated in full (value and gradient),
    and the first one that is strictly interior with f <= f0 + c*alpha*g.p
    is returned; the step halves down to 1e-16, and None means no trial
    passed.  The solver's line search must accept the same point, bit for
    bit."""
    z, f, g = point[:3]
    gp = g[0] * p[0]
    for gi, pi in zip(g[1:], p[1:]):
        gp += gi * pi
    nearest = math.inf
    for zi, pi in zip(z, p):
        if pi < 0.0:
            limit = zi / -pi
        elif pi > 0.0:
            limit = (1.0 - zi) / pi
        else:
            continue
        if 0.0 < limit < nearest:
            nearest = limit
    alpha = min(1.0, _BOUNDARY_FRACTION * nearest)
    while alpha > _MIN_STEP:
        trial = problem.evaluate([zi + alpha * pi for zi, pi in zip(z, p)], mu)
        if trial is not None and trial[1] <= f + _ARMIJO_C * alpha * gp:
            return trial
        alpha *= _BACKTRACK_FACTOR
    return None
