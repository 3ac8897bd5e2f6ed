"""Log-barrier interior-point solver for the co-design problem.

Minimizes the scalarized cost J over the design box plus two nonlinear
inequality constraints:

    g1(x) = A * l   - volume_min          >= 0   (vehicle volume floor)
    g2(x) = eta / A - tolerance_ratio_min >= 0   (tolerance grows with size)

The solver works in box-normalized coordinates z in (0, 1)^5 and runs a
standard barrier continuation: for a decreasing barrier weight mu, the
barrier objective

    B(z, mu) = J(x(z)) - mu * sum(log(scaled slacks))

is minimized by Newton steps on the exact (closed-form, 5x5) barrier
Hessian with Armijo backtracking, shrinking any step that would leave the
strict interior.  Slack arguments are scaled by the variable ranges
(bounds) or by the constraint thresholds, so mu acts uniformly across
heterogeneous units.  First-order optimality is measured with primal
multiplier estimates lambda_i = mu / slack_i; the reported KKT residual
is max(stationarity, mu), mu being the complementarity gap the barrier
leaves against the original problem.

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

So the Hessian is positive definite and one Cholesky solve gives a
descent direction; it fails only on a nan or an overflow.  Every start
that converges reaches the same optimum.  Multi-start draws
Latin-hypercube start points over the box (deterministic in the seed),
repairs them to the interior and returns the best run.

The solve loop works on plain Python floats: points, gradients and
directions are lists of 5 floats and the Hessian is a 5x5 list of lists,
evaluated with ``math.log``/``math.log1p``.  On vectors this short, numpy's
per-call overhead costs far more than the arithmetic.  The cost and its
gradient still come from ``dockopt.objective`` (``total_cost_arrays`` and
``gradient_at``, called on floats), so the formulas live in one module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

from scipy.stats import qmc

from .domain import DesignBounds, DesignVector, WeightVector
from .objective import (ObjectiveCoefficients, ObjectiveValues, gradient_at,
                        total_cost, total_cost_arrays)

_VAR_NAMES = tuple(f.name for f in fields(DesignVector))
_MIN_STEP = 1e-16
_ACTIVE_SLACK = 1e-6


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
    barrier_initial: float = 1.0
    barrier_shrink: float = 0.1
    barrier_floor: float = 1e-10
    kkt_tolerance: float = 1e-8
    max_outer_iterations: int = 50
    max_inner_iterations: int = 200
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    multistart_count: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            least = ">= 0" if f.name == "seed" else "positive"
            if not (math.isfinite(value)
                    and (value >= 0 if f.name == "seed" else value > 0)):
                raise ValueError(f"solver setting {f.name} must be finite "
                                 f"and {least}, got {value}")
        if self.barrier_shrink >= 1.0:
            raise ValueError("barrier_shrink must be in (0, 1)")
        if self.backtrack_factor >= 1.0:
            raise ValueError("backtrack_factor must be in (0, 1)")


class SolverStatus(enum.Enum):
    Converged = "Converged"
    IterationLimit = "IterationLimit"
    LineSearchFailure = "LineSearchFailure"


@dataclass(frozen=True)
class BarrierStage:
    """One continuation stage: barrier weight, J at the stage solution,
    stationarity of the barrier objective, inner iterations spent."""

    mu: float
    cost: float
    stationarity: float
    inner_iterations: int


@dataclass(frozen=True)
class SolveResult:
    x_star: DesignVector
    objective: ObjectiveValues
    kkt_residual: float
    constraint_values: tuple[float, float]
    active_set: tuple[str, ...]
    iterations: int
    status: SolverStatus
    start_index: int = 0
    outer_trace: tuple[BarrierStage, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.status is SolverStatus.Converged


class _BarrierProblem:
    """Barrier objective, gradient and Hessian in box-normalized
    coordinates.  Points are lists of 5 floats; the bounds, ranges,
    slack scales and cost-Hessian diagonal are float tuples fixed at
    construction."""

    def __init__(self, w: WeightVector, coeff: ObjectiveCoefficients,
                 bounds: DesignBounds, cons: ConstraintSet) -> None:
        self.w = w
        self.coeff = coeff
        self.cons = cons
        self.lb = bounds.lower.as_tuple()
        self.range = tuple(hi - lo for lo, hi in zip(self.lb,
                                                     bounds.upper.as_tuple()))
        self.g1_scale = cons.volume_min if cons.volume_min > 0.0 else 1.0
        self.g2_scale = cons.tolerance_ratio_min if cons.tolerance_ratio_min > 0.0 else 1.0
        self.cost_hess_diag = self._cost_hessian_diag()

    def x_of_z(self, z: list[float]) -> list[float]:
        return [lo + zi * r for lo, zi, r in zip(self.lb, z, self.range)]

    def z_of_x(self, x: tuple[float, ...]) -> list[float]:
        return [(xi - lo) / r for xi, lo, r in zip(x, self.lb, self.range)]

    def constraints(self, x: list[float]) -> tuple[float, float]:
        return (x[0] * x[1] - self.cons.volume_min,
                x[4] / x[0] - self.cons.tolerance_ratio_min)

    def interior(self, z: list[float]) -> bool:
        for zi in z:
            if not 0.0 < zi < 1.0:  # also rejects nan
                return False
        g1, g2 = self.constraints(self.x_of_z(z))
        return g1 > 0.0 and g2 > 0.0

    def cost(self, z: list[float]) -> float:
        A, l, u, e, eta = self.x_of_z(z)
        return float(total_cost_arrays(A, l, u, e, eta, self.w, self.coeff))

    def scaled_slacks(self, z: list[float]) -> list[float]:
        """Slacks of all 12 inequality faces, each scaled to O(1):
        5 lower bounds, 5 upper bounds, g1, g2."""
        g1, g2 = self.constraints(self.x_of_z(z))
        return [*z, *(1.0 - zi for zi in z),
                g1 / self.g1_scale, g2 / self.g2_scale]

    def value(self, z: list[float], mu: float) -> float:
        slacks = self.scaled_slacks(z)
        low = slacks.index(min(slacks))
        if not slacks[low] > 0.0:
            raise ValueError(f"point is not strictly interior: slack on "
                             f"{_slack_names()[low]} is non-positive")
        base = self.cost(z)
        if mu == 0.0:
            return base
        return base - mu * math.fsum(math.log(s) for s in slacks)

    def value_grad(self, z: list[float], mu: float,
                   ) -> tuple[float, list[float]]:
        A, l, u, e, eta = x = self.x_of_z(z)
        g1, g2 = self.constraints(x)
        cost = float(total_cost_arrays(A, l, u, e, eta, self.w, self.coeff))
        grad = [gi * r for gi, r in zip(
            gradient_at(A, l, u, e, eta, self.w, self.coeff).tolist(),
            self.range)]
        if mu == 0.0:
            return cost, grad
        z0, z1, z2, z3, z4 = z
        r0, r1, _, _, r4 = self.range
        log_z = math.log(z0) + math.log(z1) + math.log(z2) \
            + math.log(z3) + math.log(z4)
        log_1mz = math.log1p(-z0) + math.log1p(-z1) + math.log1p(-z2) \
            + math.log1p(-z3) + math.log1p(-z4)
        value = cost - mu * (log_z + log_1mz + math.log(g1 / self.g1_scale)
                             + math.log(g2 / self.g2_scale))
        grad = [gi - mu / zi + mu / (1.0 - zi) for gi, zi in zip(grad, z)]
        c1 = mu / g1
        grad[0] -= c1 * (l * r0)
        grad[1] -= c1 * (A * r1)
        c2 = mu / g2
        grad[0] -= c2 * (-eta / A**2 * r0)
        grad[4] -= c2 * (1.0 / A * r4)
        return value, grad

    def _cost_hessian_diag(self) -> tuple[float, ...]:
        """Diagonal of the (separable) cost Hessian in z coordinates."""
        c = self.coeff
        w = self.w
        quad = (
            w.p * 2.0 * c.kA / (c.A_max**2 * (c.kA + c.kl)),
            w.p * 2.0 * c.kl / (c.l_max**2 * (c.kA + c.kl)),
            w.q * 2.0 * c.ku / (c.ku + c.ke + c.k_eta),
            w.q * 2.0 * c.ke / (c.ku + c.ke + c.k_eta),
            w.q * 2.0 * c.k_eta / (c.ku + c.ke + c.k_eta),
        )
        return tuple(qi * (r * r) for qi, r in zip(quad, self.range))

    def hessian(self, z: list[float], mu: float) -> list[list[float]]:
        """Exact barrier Hessian in z coordinates (5x5, closed form).

        Only the diagonal and the (A, l) and (A, eta) couplings are
        nonzero: g1 ties A to l, g2 ties A to eta."""
        A, l, _, _, eta = x = self.x_of_z(z)
        g1, g2 = self.constraints(x)
        r0, r1, _, _, r4 = self.range
        hess = [[0.0] * 5 for _ in range(5)]
        for i, (ci, zi) in enumerate(zip(self.cost_hess_diag, z)):
            hess[i][i] = ci + mu * (1.0 / (zi * zi)
                                    + 1.0 / ((1.0 - zi) * (1.0 - zi)))
        # g1 = A*l - V: outer product of its gradient, then d2(A*l)/dAdl = 1.
        u0, u1 = l * r0, A * r1
        c1 = mu / g1**2
        hess[0][0] += c1 * (u0 * u0)
        hess[1][1] += c1 * (u1 * u1)
        h01 = c1 * (u0 * u1) - mu / g1 * r0 * r1
        # g2 = eta/A - R: outer product of its gradient, then its curvature.
        v0, v4 = -eta / A**2 * r0, 1.0 / A * r4
        c2 = mu / g2**2
        hess[0][0] += c2 * (v0 * v0)
        hess[4][4] += c2 * (v4 * v4)
        h04 = c2 * (v0 * v4)
        hess[0][0] -= mu / g2 * 2.0 * eta / A**3 * r0**2
        h04 -= mu / g2 * (-1.0 / A**2) * r0 * r4
        hess[0][1] = hess[1][0] = h01
        hess[0][4] = hess[4][0] = h04
        return hess


def _slack_names() -> tuple[str, ...]:
    lower = tuple(f"{n}_lower" for n in _VAR_NAMES)
    upper = tuple(f"{n}_upper" for n in _VAR_NAMES)
    return lower + upper + ("volume_min", "tolerance_ratio_min")


def barrier_objective(x: DesignVector, mu: float, w: WeightVector,
                      coeff: ObjectiveCoefficients, cons: ConstraintSet,
                      bounds: DesignBounds) -> float:
    """Barrier-augmented cost at a strictly interior design.

    With mu = 0 this is exactly J(x).  Raises ValueError naming the
    violated slack if x touches or crosses any bound or constraint.
    """
    if mu < 0.0:
        raise ValueError("mu must be >= 0")
    problem = _BarrierProblem(w, coeff, bounds, cons)
    return problem.value(problem.z_of_x(x.as_tuple()), mu)


def _repair_to_interior(problem: _BarrierProblem, z: list[float],
                        margin: float = 1e-3) -> list[float]:
    """Clip into the box with a range-relative margin, then pull along a
    segment toward a strictly feasible anchor until the nonlinear
    constraints hold strictly.  Deterministic.

    Both constraints grow with l and eta, so the anchor puts them at
    1 - margin, u and e at 0.5, and A at the middle of the band where
    A*l > V and eta/A > R, clipped to [margin, 1 - margin].  If that
    anchor is not strictly feasible, no point of the clipped box is, and
    this raises ValueError.  Otherwise the first strictly feasible point
    on a 1/64 grid of the segment from the clipped start is returned; the
    anchor itself is the last point of that grid.
    """
    z = [min(max(zi, margin), 1.0 - margin) for zi in z]
    if problem.interior(z):
        return z

    top = 1.0 - margin
    _, l, _, _, eta = problem.x_of_z([top] * 5)
    V, R = problem.cons.volume_min, problem.cons.tolerance_ratio_min
    A_lb, r_A = problem.lb[0], problem.range[0]
    low = max(margin, (V / l - A_lb) / r_A)
    high = min(top, (eta / R - A_lb) / r_A) if R > 0.0 else top
    anchor = [0.5 * (low + high), top, 0.5, 0.5, top]
    if not problem.interior(anchor):
        raise ValueError("could not repair start point to a strictly feasible "
                         "interior point; check bounds against constraints")
    for k in range(1, 64):
        t = k / 64
        candidate = [(1.0 - t) * zi + t * ai for zi, ai in zip(z, anchor)]
        if problem.interior(candidate):
            return candidate
    return anchor


def _dot(a: list[float], b: list[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4]


def _line_search(problem: _BarrierProblem, z: list[float], f: float,
                 g: list[float], p: list[float], mu: float,
                 settings: SolverSettings, boundary_fraction: float,
                 ) -> tuple[list[float], float, list[float], float] | None:
    """Armijo backtracking, starting from the largest box-respecting step;
    trial points outside the strict interior shrink the step further."""
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
    alpha = min(1.0, boundary_fraction * nearest)

    while alpha > _MIN_STEP:
        z_trial = [zi + alpha * pi for zi, pi in zip(z, p)]
        if problem.interior(z_trial):
            f_trial, g_trial = problem.value_grad(z_trial, mu)
            if f_trial <= f + settings.armijo_c * alpha * gp:
                return z_trial, f_trial, g_trial, alpha
        alpha *= settings.backtrack_factor
    return None


def _cholesky_solve(hess: list[list[float]],
                    g: list[float]) -> list[float] | None:
    """Solve hess p = -g by a closed-form 5x5 Cholesky factorisation
    L L^T, reading the lower triangle of ``hess``.  Returns None when a
    pivot is not positive (the matrix is not positive definite, or holds
    a nan)."""
    (h00, *_), (h10, h11, *_), (h20, h21, h22, *_), \
        (h30, h31, h32, h33, _), (h40, h41, h42, h43, h44) = hess
    d = h00
    if not d > 0.0:
        return None
    l00 = math.sqrt(d)
    l10, l20, l30, l40 = h10 / l00, h20 / l00, h30 / l00, h40 / l00
    d = h11 - l10 * l10
    if not d > 0.0:
        return None
    l11 = math.sqrt(d)
    l21 = (h21 - l20 * l10) / l11
    l31 = (h31 - l30 * l10) / l11
    l41 = (h41 - l40 * l10) / l11
    d = h22 - l20 * l20 - l21 * l21
    if not d > 0.0:
        return None
    l22 = math.sqrt(d)
    l32 = (h32 - l30 * l20 - l31 * l21) / l22
    l42 = (h42 - l40 * l20 - l41 * l21) / l22
    d = h33 - l30 * l30 - l31 * l31 - l32 * l32
    if not d > 0.0:
        return None
    l33 = math.sqrt(d)
    l43 = (h43 - l40 * l30 - l41 * l31 - l42 * l32) / l33
    d = h44 - l40 * l40 - l41 * l41 - l42 * l42 - l43 * l43
    if not d > 0.0:
        return None
    l44 = math.sqrt(d)

    # Forward substitution L y = -g, then back substitution L^T p = y.
    g0, g1, g2, g3, g4 = g
    y0 = -g0 / l00
    y1 = (-g1 - l10 * y0) / l11
    y2 = (-g2 - l20 * y0 - l21 * y1) / l22
    y3 = (-g3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    y4 = (-g4 - l40 * y0 - l41 * y1 - l42 * y2 - l43 * y3) / l44
    p4 = y4 / l44
    p3 = (y3 - l43 * p4) / l33
    p2 = (y2 - l32 * p3 - l42 * p4) / l22
    p1 = (y1 - l21 * p2 - l31 * p3 - l41 * p4) / l11
    p0 = (y0 - l10 * p1 - l20 * p2 - l30 * p3 - l40 * p4) / l00
    return [p0, p1, p2, p3, p4]


def _newton_direction(problem: _BarrierProblem, z: list[float], mu: float,
                      g: list[float]) -> list[float]:
    """Newton direction on the exact barrier Hessian, by one Cholesky
    solve.  The Hessian is positive definite at every interior point (see
    the module docstring), so the factorisation fails, or p is not finite
    or not a descent direction, only on a nan or an overflow; the
    direction is then -g.
    """
    p = _cholesky_solve(problem.hessian(z, mu), g)
    if p is not None and all(map(math.isfinite, p)) and _dot(g, p) < 0.0:
        return p
    return [-gi for gi in g]


def _newton_stage(problem: _BarrierProblem, z: list[float], mu: float,
                  tol: float, settings: SolverSettings,
                  ) -> tuple[list[float], list[float], int, bool]:
    """Minimize the barrier objective at fixed mu by Newton steps with
    Armijo backtracking.

    Returns the iterate, its gradient, iterations used, and whether the
    line search stalled.  Near-active slacks are position-quantized at
    f64 resolution, so a stall with a vanishing step means the numerical
    floor was reached, not that the direction failed.
    """
    f, g = problem.value_grad(z, mu)
    stalled = False
    iterations = 0

    while max(map(abs, g)) > tol \
            and iterations < settings.max_inner_iterations:
        p = _newton_direction(problem, z, mu, g)
        step = _line_search(problem, z, f, g, p, mu, settings,
                            boundary_fraction=0.995)
        if step is None:
            stalled = True
            break
        z_new, f_new, g_new, _ = step
        moved = max(abs(a - b) for a, b in zip(z_new, z))
        z, f, g = z_new, f_new, g_new
        iterations += 1
        if moved < 1e-15:
            break  # below position resolution; no progress possible

    return z, g, iterations, stalled


def _solve_from_z(problem: _BarrierProblem, z0: list[float],
                  settings: SolverSettings, start_index: int) -> SolveResult:
    z = _repair_to_interior(problem, z0)
    mu = settings.barrier_initial
    trace: list[BarrierStage] = []
    total_inner = 0
    stalled_last = False
    best_residual = math.inf
    best_z = z
    best_mu = mu

    exited_by_stall = False
    for _ in range(settings.max_outer_iterations):
        inner_tol = max(0.3 * settings.kkt_tolerance, 0.1 * mu)
        z, g, inner, stalled_last = _newton_stage(problem, z, mu, inner_tol,
                                                  settings)
        total_inner += inner
        stationarity = max(map(abs, g))
        # Primal multiplier estimates give lambda_i * slack_i = mu exactly,
        # so mu itself is the complementarity gap against the true problem.
        residual = max(stationarity, mu)
        trace.append(BarrierStage(mu=mu, cost=problem.cost(z),
                                  stationarity=stationarity,
                                  inner_iterations=inner))
        if residual < best_residual:
            best_residual, best_z, best_mu = residual, z, mu
        if stalled_last and residual > best_residual:
            # Position-quantized slack: smaller mu only raises the
            # stationarity floor, so stop the continuation here.
            exited_by_stall = True
            break
        if best_residual <= settings.kkt_tolerance \
                and residual > 10.0 * best_residual:
            break  # refinement exhausted; keep the best stage
        if mu <= settings.barrier_floor:
            break
        mu *= settings.barrier_shrink
        # Snap accumulated float dust so the default schedule lands exactly
        # on the tolerance instead of a few ulps above it.
        if abs(mu - settings.kkt_tolerance) <= 1e-6 * settings.kkt_tolerance:
            mu = settings.kkt_tolerance

    if best_residual <= settings.kkt_tolerance:
        status = SolverStatus.Converged
    elif exited_by_stall or stalled_last:
        status = SolverStatus.LineSearchFailure
    else:
        status = SolverStatus.IterationLimit

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
        iterations=total_inner,
        status=status,
        start_index=start_index,
        outer_trace=tuple(trace),
    )


def solve(w: WeightVector, coeff: ObjectiveCoefficients, bounds: DesignBounds,
          cons: ConstraintSet, x_init: DesignVector,
          settings: SolverSettings = SolverSettings()) -> SolveResult:
    """Barrier continuation from a single start point.

    A non-interior x_init is repaired by clipping into the box with a
    1e-3-range margin and, if a nonlinear constraint is violated, pulling
    along a segment toward one computed strictly feasible anchor (see
    ``_repair_to_interior``); a ValueError means no point of the clipped
    box is strictly feasible.
    """
    problem = _BarrierProblem(w, coeff, bounds, cons)
    z0 = problem.z_of_x(x_init.as_tuple())
    return _solve_from_z(problem, z0, settings, start_index=0)


def multi_start_solve(w: WeightVector, coeff: ObjectiveCoefficients,
                      bounds: DesignBounds, cons: ConstraintSet,
                      settings: SolverSettings = SolverSettings()) -> SolveResult:
    """Run the solver from Latin-hypercube start points and keep the best.

    Converged runs win over non-converged ones; ties in J (within 1e-12)
    break toward the lowest start index for determinism.  The problem is
    convex, so converged starts agree on the optimum; the winner's own
    result is returned.
    """
    problem = _BarrierProblem(w, coeff, bounds, cons)
    sampler = qmc.LatinHypercube(d=5, seed=settings.seed)
    starts = sampler.random(settings.multistart_count).tolist()

    results = [_solve_from_z(problem, starts[i], settings, start_index=i)
               for i in range(settings.multistart_count)]

    converged = [r for r in results if r.converged]
    pool = converged if converged else results
    best = pool[0]
    for r in pool[1:]:
        if r.objective.J < best.objective.J - 1e-12:
            best = r
    return best
