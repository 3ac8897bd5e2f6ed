"""Shared test oracles: brute-force grid search, an exact reduced solve,
an active-set enumeration, numerical quadrature, a numpy reference of
the solver's barrier, and the reference units of one Newton step.

These deliberately avoid the solver's machinery: the grid oracle scans an
exhaustive feasible lattice for the lowest cost, the exact oracle bisects
the derivative of the cost reduced to the frontal area, the enumeration
solves the stationarity equations of every combination of active faces,
the quadrature
oracle integrates sin(phi) numerically instead of using the closed form,
the reference barrier evaluates the value, gradient and Hessian with
numpy arrays instead of the solver's plain-float code, and the reference
line search evaluates every trial in full before its Armijo test.

``hessian``, ``arrowhead_solve``, ``newton_direction`` and ``line_search``
are one Newton step of ``dockopt.solver._newton_stage`` taken apart: the
same expressions in the same order, one unit each, and ``newton_stage``
is the stage's loop over them.  The solver writes them out in one loop;
the tests hold its steps and stages to these units bit for bit, and each
unit to an independent oracle above.
"""

import functools
import itertools
import math

import numpy as np

from dockopt import DesignBounds, ObjectiveCoefficients, WeightVector
from dockopt.objective import gradient_at, total_cost_arrays
from dockopt.solver import (_ARMIJO_C, _BACKTRACK_FACTOR, _BOUNDARY_FRACTION,
                            _MAX_INNER_ITERATIONS, _MIN_STEP, ConstraintSet)


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
    the R terms only where g2 holds a free eta.  A free variable with no
    quadratic term has no stationary point inside the box: its candidate
    is dropped, and a combination with that variable on a bound gives the
    minimiser (u and e, minimised alone, go to their upper bound).  Every
    feasible candidate is kept, and the least J among them is returned:
    the problem is convex, so its minimiser is a stationary point of some
    combination.
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

    def minimiser(quadratic, linear):
        # of quadratic*x**2 - linear*x on the line, or inf with no
        # quadratic term: linear >= 0 then makes the upper bound of any
        # box a minimiser
        return linear / (2.0 * quadratic) if quadratic > 0.0 else math.inf

    u = min(max(minimiser(cu, du), lo[2]), hi[2])
    e = min(max(minimiser(ce, de), lo[3]), hi[3])

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
            # only roots within a factor of 2 of A's bounds: the rest are
            # infeasible, and a far one overflows the polish
            areas = [polished(poly, r.real) for r in np.roots(poly)
                     if abs(r.imag) <= 1e-9 * abs(r)
                     and 0.5 * lo[0] <= r.real <= 2.0 * hi[0]]
        else:
            areas = [minimiser(
                a + (c_eta * R * R if coupled else 0.0),
                b + (R * d_eta if coupled else 0.0))]
        for A in areas:
            if not 0.0 < A < math.inf:
                continue
            l = on_l if on_l is not None else V / A if g1 \
                else minimiser(h, k)
            eta = (on_eta if on_eta is not None else R * A if g2
                   else minimiser(c_eta, d_eta))
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
    passed.  ``line_search``, and so each step of the solver's stage, must
    accept the same point, bit for bit."""
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


def hessian(problem, point, mu):
    """Exact barrier Hessian in z coordinates at a point from
    ``_BarrierProblem.evaluate``, as an arrowhead: the 5 diagonal entries,
    then the (A, l) and (A, eta) entries, the only nonzero ones off the
    diagonal (g1 ties A to l, g2 ties A to eta)."""
    (z0, z1, z2, z3, z4), _, _, _, A, l, eta, g1, g2, _ = point
    k0, k1, k2, k3, k4 = problem.cost_hess_diag
    r0, r1, _, _, r4 = problem.range
    # The cost's curvature plus both box terms', per coordinate.
    w0, w1, w2, w3, w4 = 1.0 - z0, 1.0 - z1, 1.0 - z2, 1.0 - z3, 1.0 - z4
    d0 = k0 + mu * (1.0 / (z0 * z0) + 1.0 / (w0 * w0))
    d1 = k1 + mu * (1.0 / (z1 * z1) + 1.0 / (w1 * w1))
    d2 = k2 + mu * (1.0 / (z2 * z2) + 1.0 / (w2 * w2))
    d3 = k3 + mu * (1.0 / (z3 * z3) + 1.0 / (w3 * w3))
    d4 = k4 + mu * (1.0 / (z4 * z4) + 1.0 / (w4 * w4))
    # g1 = A*l - V: outer product of its gradient, then d2(A*l)/dAdl = 1.
    u0, u1 = l * r0, A * r1
    c1 = mu / g1**2
    d0 += c1 * (u0 * u0)
    d1 += c1 * (u1 * u1)
    h01 = c1 * (u0 * u1) - mu / g1 * r0 * r1
    # g2 = eta/A - R: outer product of its gradient, then its curvature.
    v0, v4 = -eta / A**2 * r0, 1.0 / A * r4
    c2 = mu / g2**2
    d0 += c2 * (v0 * v0)
    d4 += c2 * (v4 * v4)
    h04 = c2 * (v0 * v4)
    d0 -= mu / g2 * 2.0 * eta / A**3 * r0**2
    h04 -= mu / g2 * (-1.0 / A**2) * r0 * r4
    return [d0, d1, d2, d3, d4], h01, h04


def arrowhead_solve(hess, g):
    """Solve hess p = -g for the arrowhead ``(diag, h_Al, h_Aeta)``: u and
    e on their own, l and eta eliminated onto A through the Schur
    complement s.  Returns None when a pivot is not positive (the matrix
    is not positive definite, or holds a nan)."""
    (dA, dl, du, de, deta), hAl, hAeta = hess
    if not (dl > 0.0 and du > 0.0 and de > 0.0 and deta > 0.0):
        return None
    s = dA - hAl * hAl / dl - hAeta * hAeta / deta
    if not s > 0.0:
        return None
    gA, gl, gu, ge, geta = g
    pA = -(gA - hAl * gl / dl - hAeta * geta / deta) / s
    return [pA, -(gl + hAl * pA) / dl, -gu / du, -ge / de,
            -(geta + hAeta * pA) / deta]


def newton_direction(problem, point, mu, hess=None):
    """Newton direction at an evaluated point, by one arrowhead solve of
    ``hess`` (by default the barrier Hessian there); -g where the
    elimination fails or p is not finite or not a descent direction."""
    g0, g1, g2, g3, g4 = g = point[2]
    p = arrowhead_solve(hessian(problem, point, mu) if hess is None else hess,
                        g)
    if p is not None:
        p0, p1, p2, p3, p4 = p
        if (math.isfinite(p0) and math.isfinite(p1) and math.isfinite(p2)
                and math.isfinite(p3) and math.isfinite(p4)
                and g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4 < 0.0):
            return p
    return [-g0, -g1, -g2, -g3, -g4]


def line_search(problem, point, p, mu):
    """Armijo backtracking from an evaluated point, starting from the
    largest box-respecting step; trial points outside the strict interior
    shrink the step further.  Returns the accepted point, or None.  Each
    trial is evaluated against the Armijo bound (``evaluate``'s f_max)."""
    (z0, z1, z2, z3, z4), f, (g0, g1, g2, g3, g4) = point[:3]
    p0, p1, p2, p3, p4 = p
    gp = g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4
    # The step to each coordinate's box face along p (inf if p_i is 0 or
    # nan); a limit that is not positive is not a face ahead.
    nearest = math.inf
    for limit in (z0 / -p0 if p0 < 0.0 else (1.0 - z0) / p0 if p0 > 0.0
                  else math.inf,
                  z1 / -p1 if p1 < 0.0 else (1.0 - z1) / p1 if p1 > 0.0
                  else math.inf,
                  z2 / -p2 if p2 < 0.0 else (1.0 - z2) / p2 if p2 > 0.0
                  else math.inf,
                  z3 / -p3 if p3 < 0.0 else (1.0 - z3) / p3 if p3 > 0.0
                  else math.inf,
                  z4 / -p4 if p4 < 0.0 else (1.0 - z4) / p4 if p4 > 0.0
                  else math.inf):
        if 0.0 < limit < nearest:
            nearest = limit
    alpha = min(1.0, _BOUNDARY_FRACTION * nearest)
    while alpha > _MIN_STEP:
        trial = problem.evaluate([z0 + alpha * p0, z1 + alpha * p1,
                                  z2 + alpha * p2, z3 + alpha * p3,
                                  z4 + alpha * p4],
                                 mu, f + _ARMIJO_C * alpha * gp)
        if trial is not None:
            return trial
        alpha *= _BACKTRACK_FACTOR
    return None


def newton_stage(problem, point, mu, tol):
    """``dockopt.solver._newton_stage`` as a loop over the units above:
    Newton steps while the gradient is above tol and under the step cap,
    ended early by a line search that finds no step or a step that moves
    z by less than 1e-15."""
    z, _, g = point[:3]
    iterations = 0
    while max(map(abs, g)) > tol and iterations < _MAX_INNER_ITERATIONS:
        trial = line_search(problem, point, newton_direction(problem, point, mu),
                            mu)
        if trial is None:
            break
        moved = max(abs(t - zi) for t, zi in zip(trial[0], z))
        point, (z, _, g) = trial, trial[:3]
        iterations += 1
        if moved < 1e-15:
            break
    return point, iterations


def certified_answer(result) -> str:
    """The parts of a SolveResult that its problem alone fixes, as one
    repr, so that equal means equal bit for bit: the status, x*, the
    objective, the KKT residual, the constraint values and the active
    set."""
    return repr((result.status, result.x_star, result.objective,
                 result.kkt_residual, result.constraint_values,
                 result.active_set))
