"""Log-barrier interior-point solver for the co-design problem.

Minimizes the scalarized cost J over the design box plus two nonlinear
inequality constraints:

    g1(x) = A * l   - volume_min          >= 0   (vehicle volume floor)
    g2(x) = eta / A - tolerance_ratio_min >= 0   (tolerance grows with size)

The solver works in box-normalized coordinates z in (0, 1)^5 and runs a
standard barrier continuation: for a decreasing barrier weight mu, the
barrier objective

    B(z, mu) = J(x(z)) - mu * sum(log(scaled slacks))

is minimized by Newton steps on the exact barrier Hessian with Armijo
backtracking (sufficient-decrease constant 1e-4, step halved on each
rejection), shrinking any step that would leave the strict interior.
Slack arguments are scaled by the variable ranges (bounds) or by the
constraint thresholds, so mu acts uniformly across heterogeneous units.
Each constraint's log slack is taken as log(g) - log(threshold), which
stays finite for any positive threshold.

The continuation runs the fixed schedule mu = 10^-k, k = 0..11.  A stage
ends at a gradient of max(3e-9, mu/10), after 200 Newton steps, or when
no step makes progress (the line search finds none, or the accepted one
leaves z in place).  First-order optimality is measured with primal
multiplier estimates lambda_i = mu / slack_i; the reported KKT residual is
max(stationarity, mu), mu being the complementarity gap the barrier
leaves against the original problem.  A solve is Converged when the best
stage's residual is at most 1e-8, and IterationLimit otherwise.

The barrier is strictly convex on the interior for mu > 0 (Boyd &
Vandenberghe, Convex Optimization, sections 3.1 and 11.2):

* J is a sum of convex quadratics and linear terms, because weights and
  coefficients are >= 0.
* The box terms -log z and -log(1 - z) are strictly convex.
* -log(A*l - V) has Hessian [[l^2, V], [V, A^2]] / f^2 in (A, l), with
  f = A*l - V > 0: its diagonal is >= 0 and its determinant
  (A^2 l^2 - V^2) / f^4 is > 0.
* -log(eta/A - R) = -log(eta - R*A) + log A.  The curvature -1/A^2 of
  log A is dominated by the A-lower box term's 1/(A - A_lo)^2, because
  DesignVector makes A_lo > 0.

So the Hessian is positive definite.  It is also an arrowhead: besides
the diagonal, only the (A, l) entry (from g1) and the (A, eta) entry (from
g2) are nonzero.  The Newton system is solved by block elimination (Boyd &
Vandenberghe, appendix C.4): u and e on their own, then l and eta
eliminated onto A through the Schur complement

    s = d_A - h_Al^2 / d_l - h_Aeta^2 / d_eta,

which is Cholesky on the reordered matrix and so fails only on a nan or an
overflow; the direction is then -g.

So one solve from any start reaches the optimum, and ``solve`` is the
solver.  ``multi_start_solve`` runs it from Latin-hypercube start points
(deterministic in the seed), one start at a time, and stops at the first
run that converged.  It remains because calibration uses it: the
reference coefficients and the calibration goldens were fitted with it,
and the benchmark re-solves with it.  Its starts come from
``latin_hypercube``, numpy's generator driven exactly as
``scipy.stats.qmc.LatinHypercube`` drives it, so they are the points
those fits used, bit for bit, without loading scipy.stats.  The module
attribute ``qmc`` (scipy.stats.qmc, imported on first access) is no
longer used here; it stays only because bench/tracing.py reads and
restores it.  Importing this module and calling ``solve`` load neither
scipy nor numpy.

The solve loop works on plain Python floats: points, gradients and
directions are lists of 5 floats and the Hessian is its 5 diagonal
entries plus the two couplings, evaluated with ``math.log``/``math.log1p``.
On vectors this short, numpy's per-call overhead costs far more than the
arithmetic.  Each trial point is evaluated once, in one fused pass
(``_BarrierProblem.evaluate``): it rejects a point that is not strictly
interior, then computes x, g1, g2, J, the barrier value and its gradient,
and keeps A, l, eta, g1 and g2 so that the Hessian at an accepted point
reuses them.  J and its gradient are built on
``dockopt.objective.cost_constants``, computed once per problem, with the
operations, in the order, of ``total_cost_arrays`` and ``gradient_at``, so
they are those functions' floats bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from math import log, log1p

from .domain import DesignBounds, DesignVector, WeightVector, check_integer
# gradient_at and total_cost_arrays are not called here, but stay names of
# this module: bench/tracing.py wraps them by name.
from .objective import (ObjectiveCoefficients, ObjectiveValues,
                        cost_constants, gradient_at, total_cost,
                        total_cost_arrays)

_VAR_NAMES = tuple(f.name for f in fields(DesignVector))
_MIN_STEP = 1e-16
_ACTIVE_SLACK = 1e-6
# Barrier weights of the continuation, mu = 10^-k for k = 0..11, as
# repeated multiplication by 0.1 rounds them, restarted at exactly 1e-8 (the
# KKT tolerance), so the stage that can meet the tolerance has mu <= 1e-8.
_MU_SCHEDULE = (1.0, 0.1, 0.010000000000000002, 0.0010000000000000002,
                0.00010000000000000003, 1.0000000000000004e-05,
                1.0000000000000004e-06, 1.0000000000000005e-07, 1e-08, 1e-09,
                1.0000000000000002e-10, 1.0000000000000003e-11)
_KKT_TOLERANCE = 1e-8
_MAX_INNER_ITERATIONS = 200
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_BOUNDARY_FRACTION = 0.995  # of the distance to the nearest box face
_MARGIN = 1e-3  # range-relative clip of a start point inside the box


def __getattr__(name: str):
    """``qmc`` is ``scipy.stats.qmc``, imported on first access and then
    kept as a module global (PEP 562).  Nothing in dockopt uses it: it
    stays only because bench/tracing.py reads ``qmc`` and restores it after
    a traced run."""
    if name == "qmc":
        from scipy.stats import qmc
        globals()["qmc"] = qmc
        return qmc
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InfeasibleProblemError(ValueError):
    """No point of the design box strictly satisfies both constraints."""


@dataclass(frozen=True)
class ConstraintSet:
    """Nonlinear inequality thresholds: minimum hull volume A*l (m^3) and
    minimum docking-tolerance-to-area ratio eta/A (1/m^2)."""

    volume_min: float = 0.025
    tolerance_ratio_min: float = 1.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"constraint threshold {f.name} must be "
                                 f"finite and >= 0, got {value}")

    def values(self, x: DesignVector) -> tuple[float, float]:
        """Raw constraint values (g1, g2); feasible iff both >= 0."""
        return (x.A * x.l - self.volume_min,
                x.eta / x.A - self.tolerance_ratio_min)


@dataclass(frozen=True)
class SolverSettings:
    """Multi-start controls: the most Latin-hypercube starts a solve runs
    (it stops at the first that converges) and their seed."""

    multistart_count: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("multistart_count", self.multistart_count, 1)
        check_integer("seed", self.seed, 0)


class SolverStatus(enum.Enum):
    Converged = "Converged"
    IterationLimit = "IterationLimit"


@dataclass(frozen=True, slots=True)
class BarrierStage:
    """One continuation stage: barrier weight, J at the stage solution,
    stationarity of the barrier objective, inner iterations spent."""

    mu: float
    cost: float
    stationarity: float
    inner_iterations: int


@dataclass(frozen=True, slots=True)
class SolveResult:
    x_star: DesignVector
    objective: ObjectiveValues
    kkt_residual: float
    constraint_values: tuple[float, float]
    active_set: tuple[str, ...]
    iterations: int
    status: SolverStatus
    outer_trace: tuple[BarrierStage, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.status is SolverStatus.Converged


class _BarrierProblem:
    """The barrier problem in box-normalized coordinates.  Points are
    lists of 5 floats; the bounds, ranges, slack scales, cost constants
    and cost-Hessian diagonal are fixed at construction."""

    def __init__(self, w: WeightVector, coeff: ObjectiveCoefficients,
                 bounds: DesignBounds, cons: ConstraintSet) -> None:
        self.w = w
        self.coeff = coeff
        self.bounds = bounds
        self.cons = cons
        self.lb = bounds.lower.as_tuple()
        self.range = tuple(hi - lo for lo, hi in zip(self.lb,
                                                     bounds.upper.as_tuple()))
        self.g1_scale = cons.volume_min if cons.volume_min > 0.0 else 1.0
        self.g2_scale = cons.tolerance_ratio_min if cons.tolerance_ratio_min > 0.0 else 1.0
        self.log_scales = math.log(self.g1_scale) + math.log(self.g2_scale)
        self.k = cost_constants(w, coeff)
        self.cost_hess_diag = self._cost_hessian_diag()

    def x_of_z(self, z: list[float]) -> list[float]:
        return [lo + zi * r for lo, zi, r in zip(self.lb, z, self.range)]

    def z_of_x(self, x: tuple[float, ...]) -> list[float]:
        return [(xi - lo) / r for xi, lo, r in zip(x, self.lb, self.range)]

    def constraints(self, x: list[float]) -> tuple[float, float]:
        return (x[0] * x[1] - self.cons.volume_min,
                x[4] / x[0] - self.cons.tolerance_ratio_min)

    def scaled_slacks(self, z: list[float]) -> list[float]:
        """Slacks of all 12 inequality faces, each scaled to O(1):
        5 lower bounds, 5 upper bounds, g1, g2."""
        g1, g2 = self.constraints(self.x_of_z(z))
        return [*z, *(1.0 - zi for zi in z),
                g1 / self.g1_scale, g2 / self.g2_scale]

    def evaluate(self, z: list[float], mu: float) -> tuple | None:
        """The barrier at z in one pass, or None unless z is strictly
        interior (every z_i in (0, 1), g1 > 0 and g2 > 0; nan fails).

        Returns the point ``(z, f, g, cost, A, l, eta, g1, g2)``: the
        barrier value f and its gradient g in z, J at x(z), and the parts
        of x and the constraint values that ``hessian`` reuses.  With
        mu = 0, f and g are J and its gradient.
        """
        z0, z1, z2, z3, z4 = z
        if not (0.0 < z0 < 1.0 and 0.0 < z1 < 1.0 and 0.0 < z2 < 1.0
                and 0.0 < z3 < 1.0 and 0.0 < z4 < 1.0):
            return None
        lo0, lo1, lo2, lo3, lo4 = self.lb
        r0, r1, r2, r3, r4 = self.range
        A = lo0 + z0 * r0
        l = lo1 + z1 * r1
        u = lo2 + z2 * r2
        e = lo3 + z3 * r3
        eta = lo4 + z4 * r4
        g1 = A * l - self.cons.volume_min
        g2 = eta / A - self.cons.tolerance_ratio_min
        if not (g1 > 0.0 and g2 > 0.0):
            return None

        # J and dJ/dx with the operations, in the order, of
        # objective_terms, total_cost_arrays and gradient_at.
        (A_max, l_max, kA, kl, ku, ke, k_eta, au, ae, a_eta, bA, bl, bu,
         sum_h, sum_c, sum_d, sum_v, p, q, r, s,
         slope_A, curv_A, lin_A, slope_l, curv_l, lin_l,
         slope_u, rel_u, ver_u, slope_e, rel_e, slope_eta, rel_eta) = self.k
        An = A / A_max
        ln = l / l_max
        h = (kA * An**2 + kl * ln**2) / sum_h
        c = (ku * u**2 + ke * e**2 + k_eta * eta**2) / sum_c
        d = (au * u + ae * e + a_eta * eta) / sum_d
        v = (bA * An + bl * ln + bu * u) / sum_v
        cost = p * h + q * c - r * d - s * v

        log_z = log(z0) + log(z1) + log(z2) + log(z3) + log(z4)
        log_1mz = log1p(-z0) + log1p(-z1) + log1p(-z2) + log1p(-z3) \
            + log1p(-z4)
        f = cost - mu * (log_z + log_1mz + log(g1) + log(g2)
                         - self.log_scales)
        # Gradient in z: dJ/dx_i times the range, the two box terms, then
        # mu/g times each constraint's gradient, summed in that order.
        c1 = mu / g1
        c2 = mu / g2
        g = [(slope_A * A / curv_A - lin_A) * r0 - mu / z0
             + mu / (1.0 - z0) - c1 * (l * r0) - c2 * (-eta / A**2 * r0),
             (slope_l * l / curv_l - lin_l) * r1 - mu / z1
             + mu / (1.0 - z1) - c1 * (A * r1),
             (slope_u * u / sum_c - rel_u - ver_u) * r2 - mu / z2
             + mu / (1.0 - z2),
             (slope_e * e / sum_c - rel_e) * r3 - mu / z3 + mu / (1.0 - z3),
             (slope_eta * eta / sum_c - rel_eta) * r4 - mu / z4
             + mu / (1.0 - z4) - c2 * (1.0 / A * r4)]
        return z, f, g, cost, A, l, eta, g1, g2

    def _cost_hessian_diag(self) -> tuple[float, ...]:
        """Diagonal of the (separable) cost Hessian in z coordinates."""
        k = self.k
        quad = (k.slope_A / k.curv_A, k.slope_l / k.curv_l,
                k.slope_u / k.sum_c, k.slope_e / k.sum_c,
                k.slope_eta / k.sum_c)
        return tuple(qi * (r * r) for qi, r in zip(quad, self.range))

    def hessian(self, point: tuple, mu: float,
                ) -> tuple[list[float], float, float]:
        """Exact barrier Hessian in z coordinates at a point from
        ``evaluate``, as an arrowhead: the 5 diagonal entries, then the
        (A, l) and (A, eta) entries, the only nonzero ones off the diagonal
        (g1 ties A to l, g2 ties A to eta)."""
        z, _, _, _, A, l, eta, g1, g2 = point
        r0, r1, _, _, r4 = self.range
        diag = [ci + mu * (1.0 / (zi * zi) + 1.0 / ((1.0 - zi) * (1.0 - zi)))
                for ci, zi in zip(self.cost_hess_diag, z)]
        # g1 = A*l - V: outer product of its gradient, then d2(A*l)/dAdl = 1.
        u0, u1 = l * r0, A * r1
        c1 = mu / g1**2
        diag[0] += c1 * (u0 * u0)
        diag[1] += c1 * (u1 * u1)
        h01 = c1 * (u0 * u1) - mu / g1 * r0 * r1
        # g2 = eta/A - R: outer product of its gradient, then its curvature.
        v0, v4 = -eta / A**2 * r0, 1.0 / A * r4
        c2 = mu / g2**2
        diag[0] += c2 * (v0 * v0)
        diag[4] += c2 * (v4 * v4)
        h04 = c2 * (v0 * v4)
        diag[0] -= mu / g2 * 2.0 * eta / A**3 * r0**2
        h04 -= mu / g2 * (-1.0 / A**2) * r0 * r4
        return diag, h01, h04


def _slack_names() -> tuple[str, ...]:
    lower = tuple(f"{n}_lower" for n in _VAR_NAMES)
    upper = tuple(f"{n}_upper" for n in _VAR_NAMES)
    return lower + upper + ("volume_min", "tolerance_ratio_min")


def barrier_objective(x: DesignVector, mu: float, w: WeightVector,
                      coeff: ObjectiveCoefficients, cons: ConstraintSet,
                      bounds: DesignBounds) -> float:
    """Barrier-augmented cost at a strictly interior design.

    With mu = 0 this is exactly J(x).  Raises ValueError for a mu that
    is not finite and >= 0, and naming the violated slack if x touches or
    crosses any bound or constraint.
    """
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    problem = _BarrierProblem(w, coeff, bounds, cons)
    z = problem.z_of_x(x.as_tuple())
    point = problem.evaluate(z, mu)
    if point is None:
        slacks = problem.scaled_slacks(z)
        low = slacks.index(min(slacks))
        raise ValueError(f"point is not strictly interior: slack on "
                         f"{_slack_names()[low]} is non-positive")
    return point[1]


def interior_anchor(bounds: DesignBounds, cons: ConstraintSet) -> list[float]:
    """The strictly feasible point, in box-normalized coordinates, toward
    which ``_repair_to_interior`` pulls a start; it depends on the bounds
    and constraints alone, so a configuration can be checked before any
    solve.

    Both constraints grow with l and eta, so the anchor puts them at
    1 - _MARGIN, u and e at 0.5, and A at the middle of the band where
    A*l > V and eta/A > R, clipped to [_MARGIN, 1 - _MARGIN].  If that
    anchor is not strictly feasible, no point of the clipped box is, and
    this raises InfeasibleProblemError.
    """
    lb = bounds.lower.as_tuple()
    ranges = [hi - lo for lo, hi in zip(lb, bounds.upper.as_tuple())]
    top = 1.0 - _MARGIN
    l = lb[1] + top * ranges[1]
    eta = lb[4] + top * ranges[4]
    V, R = cons.volume_min, cons.tolerance_ratio_min
    low = max(_MARGIN, (V / l - lb[0]) / ranges[0])
    high = min(top, (eta / R - lb[0]) / ranges[0]) if R > 0.0 else top
    z_A = 0.5 * (low + high)
    # As _BarrierProblem.evaluate tests the point; nan fails.
    A = lb[0] + z_A * ranges[0]
    if not (0.0 < z_A < 1.0 and A * l - V > 0.0 and eta / A - R > 0.0):
        raise InfeasibleProblemError(
            f"no point inside the bounds strictly satisfies A*l > volume_min "
            f"= {V:g} and eta/A > tolerance_ratio_min = {R:g}; check bounds "
            "against constraints")
    return [z_A, top, 0.5, 0.5, top]


def _repair_to_interior(problem: _BarrierProblem,
                        z: list[float]) -> list[float]:
    """Clip into the box with a range-relative margin, then pull along a
    segment toward ``interior_anchor`` until the nonlinear constraints hold
    strictly.  Deterministic.

    The first strictly feasible point on a 1/64 grid of the segment from
    the clipped start is returned; the anchor itself is the last point of
    that grid.  Raises InfeasibleProblemError when the clipped start is
    not strictly feasible and no anchor exists.
    """
    z = [min(max(zi, _MARGIN), 1.0 - _MARGIN) for zi in z]
    if problem.evaluate(z, 0.0) is not None:
        return z

    anchor = interior_anchor(problem.bounds, problem.cons)
    for k in range(1, 64):
        t = k / 64
        candidate = [(1.0 - t) * zi + t * ai for zi, ai in zip(z, anchor)]
        if problem.evaluate(candidate, 0.0) is not None:
            return candidate
    return anchor


def _dot(a: list[float], b: list[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4]


def _line_search(problem: _BarrierProblem, point: tuple, p: list[float],
                 mu: float) -> tuple | None:
    """Armijo backtracking from an evaluated point, starting from the
    largest box-respecting step; trial points outside the strict interior
    shrink the step further.  Returns the accepted point, or None."""
    z, f, g = point[:3]
    gp = _dot(g, p)
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
        # trial[1] is the barrier value at the trial point
        if trial is not None and trial[1] <= f + _ARMIJO_C * alpha * gp:
            return trial
        alpha *= _BACKTRACK_FACTOR
    return None


def _arrowhead_solve(hess: tuple[list[float], float, float],
                     g: list[float]) -> list[float] | None:
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


def _newton_direction(problem: _BarrierProblem, point: tuple,
                      mu: float) -> list[float]:
    """Newton direction at an evaluated point on the exact barrier
    Hessian, by one arrowhead solve.  The Hessian is positive definite at
    every interior point (see the module docstring), so the elimination
    fails, or p is not finite or not a descent direction, only on a nan or
    an overflow; the direction is then -g.
    """
    g = point[2]
    p = _arrowhead_solve(problem.hessian(point, mu), g)
    if p is not None and all(map(math.isfinite, p)) and _dot(g, p) < 0.0:
        return p
    return [-gi for gi in g]


def _newton_stage(problem: _BarrierProblem, z: list[float], mu: float,
                  tol: float) -> tuple[tuple, int]:
    """Minimize the barrier objective at fixed mu by Newton steps with
    Armijo backtracking, from a strictly interior z.

    Stops at the gradient tolerance, at the step cap, or when no step
    makes progress: the line search finds none, or the accepted one
    leaves z in place (near-active slacks are position-quantized at f64
    resolution).  Returns the evaluated iterate and the steps taken.
    """
    point = problem.evaluate(z, mu)
    iterations = 0

    # point[0] is the iterate z and point[2] its gradient
    while max(map(abs, point[2])) > tol \
            and iterations < _MAX_INNER_ITERATIONS:
        p = _newton_direction(problem, point, mu)
        trial = _line_search(problem, point, p, mu)
        if trial is None:
            break  # no acceptable step: no progress possible
        moved = max(abs(a - b) for a, b in zip(trial[0], point[0]))
        point = trial
        iterations += 1
        if moved < 1e-15:
            break  # below position resolution; no progress possible

    return point, iterations


def _solve_from_z(problem: _BarrierProblem, z0: list[float]) -> SolveResult:
    z = _repair_to_interior(problem, z0)
    trace: list[BarrierStage] = []
    best_residual = math.inf
    best_z = z

    for mu in _MU_SCHEDULE:
        inner_tol = max(0.3 * _KKT_TOLERANCE, 0.1 * mu)
        point, inner = _newton_stage(problem, z, mu, inner_tol)
        z, _, g, cost = point[:4]
        stationarity = max(map(abs, g))
        # Primal multiplier estimates give lambda_i * slack_i = mu exactly,
        # so mu itself is the complementarity gap against the true problem.
        residual = max(stationarity, mu)
        trace.append(BarrierStage(mu=mu, cost=cost,
                                  stationarity=stationarity,
                                  inner_iterations=inner))
        if residual < best_residual:
            best_residual, best_z = residual, z
        if best_residual <= _KKT_TOLERANCE \
                and residual > 10.0 * best_residual:
            break  # refinement exhausted; keep the best stage

    x = problem.x_of_z(best_z)
    x_star = DesignVector(*x)
    slacks = problem.scaled_slacks(best_z)
    active = tuple(name for name, s in zip(_slack_names(), slacks)
                   if s < _ACTIVE_SLACK)
    return SolveResult(
        x_star=x_star,
        objective=total_cost(x_star, problem.w, problem.coeff),
        kkt_residual=best_residual,
        constraint_values=problem.constraints(x),
        active_set=active,
        iterations=sum(stage.inner_iterations for stage in trace),
        status=(SolverStatus.Converged if best_residual <= _KKT_TOLERANCE
                else SolverStatus.IterationLimit),
        outer_trace=tuple(trace),
    )


def solve(w: WeightVector, coeff: ObjectiveCoefficients, bounds: DesignBounds,
          cons: ConstraintSet, x_init: DesignVector) -> SolveResult:
    """Barrier continuation from a single start point.

    A non-interior x_init is repaired by clipping into the box with a
    1e-3-range margin and, if a nonlinear constraint is violated, pulling
    along a segment toward one computed strictly feasible anchor (see
    ``_repair_to_interior``); InfeasibleProblemError means no point of the
    clipped box is strictly feasible.
    """
    problem = _BarrierProblem(w, coeff, bounds, cons)
    z0 = problem.z_of_x(x_init.as_tuple())
    return _solve_from_z(problem, z0)


def latin_hypercube(n: int, seed: int) -> list[list[float]]:
    """n Latin-hypercube points in (0, 1]^5, equal bit for bit to
    ``scipy.stats.qmc.LatinHypercube(d=5, seed=seed).random(n)``: its
    ``_random_lhs`` with the same draws from the same generator."""
    import numpy as np

    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, 5))
    perms = np.tile(np.arange(1, n + 1), (5, 1))
    for row in perms:
        rng.shuffle(row)
    return ((perms.T - u) / n).tolist()


def multi_start_solve(w: WeightVector, coeff: ObjectiveCoefficients,
                      bounds: DesignBounds, cons: ConstraintSet,
                      settings: SolverSettings = SolverSettings()) -> SolveResult:
    """Run the solver from the Latin-hypercube start points in turn and
    return the first run that converged, or else the first run.

    The problem is convex, so converged starts agree on the optimum, and
    the starts after the first converged one are not run.  The starts are
    ``latin_hypercube(settings.multistart_count, settings.seed)``, the
    points scipy's sampler gives for the same seed.  The module's ``qmc``
    is not read; it stays only for bench/tracing.py (see ``__getattr__``).
    """
    problem = _BarrierProblem(w, coeff, bounds, cons)
    first = None
    for z in latin_hypercube(settings.multistart_count, settings.seed):
        result = _solve_from_z(problem, z)
        if result.converged:
            return result
        if first is None:
            first = result
    return first
