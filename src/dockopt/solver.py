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

Once the Armijo bound f + 1e-4 * alpha * g.p is not below f, f cannot
show the decrease at that alpha or any smaller one, and halving on would
only try steps that f64 cannot resolve (Boyd & Vandenberghe, section
9.5).  So the line search makes one last trial there: it is the step if
its f meets the bound or its largest |g_i| is below the point's, and
otherwise no step is found and the stage ends.

The continuation runs the schedule mu = 10^-k, k = 0..11, at most.  A
stage ends at a gradient of max(3e-9, mu), 3e-9 being the inner floor
0.3 * 1e-8, after 200 Newton steps, or when no step makes progress (the
line search finds none, or the accepted one leaves z in place).
First-order optimality is measured with primal multiplier estimates
lambda_i = mu / slack_i; a stage's KKT residual is max(stationarity, mu),
mu being the complementarity gap the barrier leaves against the original
problem.  So a stage's residual cannot fall below its mu, and Newton
steps that take the gradient below mu would only polish a point that the
next stage moves anyway: intermediate centering need not be exact (Boyd &
Vandenberghe, section 11.3.3).  The first stage whose residual is at most
the inner floor ends the continuation, as the barrier method stops once
its gap bound meets the tolerance (ibid., section 11.3.1): every later
stage aims at the same floor, and the polish, gated at 1e-4, needs no
lower residual.  No stage above mu = 1e-9 can get there, since its
residual is at least its mu, so a solve that converges ends after its
mu = 1e-9 stage.  Once the best residual so far is at most 1e-4, two
more stages end the continuation.  One is a stage at mu <= 3e-9, whose
gradient target is the floor itself, that stalls above the floor under
the step cap: the stages after it aim at the same floor from nearer the
faces.  The other is a stage whose residual is above ten times the best:
refinement is exhausted.  These exits leave every certified answer as it
was, since the polish reads the problem alone.  Only a solve whose
polish fails there reports a different IterationLimit iterate: its best
stage so far, where the whole schedule may have reached a later stage
with a lower residual.

A solve is Converged only when ``_polish`` certifies it.  Whenever the
best stage's residual is at most 1e-4, the polish solves the problem
exactly: J is separable, u and e minimise alone, l and eta follow A in
closed form through g1 and g2, and the optimal A is the root of the
reduced derivative, found by Newton steps from the bracket's midpoint,
bisecting where the reduced curvature is not positive.  The exact point is
accepted only if it is feasible, its explicit multipliers for the 10 box
faces, g1 and g2 (from stationarity) are >= -1e-8, and its free components
are stationary to 1e-8.  The polish reads the problem alone, not the
barrier's point, so the certified x* depends on the problem alone: not on
the start, the barrier's path or the solver settings.  One cross-check
reads the barrier: the exact J must be at most the best stage's J plus 4
ulp of max(1, |J|), both in the kernel's expression
sum((q_i*x_i - b_i)*x_i), since the exact J can round that far above a
tightly converged barrier's.  The certified point is reported with its own
residual and active set, and the barrier's iterations and trace.
Otherwise, and whenever the best residual is above 1e-4 (the barrier
itself failed: a truncated schedule, a line search that finds no step),
the barrier's best stage is reported as IterationLimit.

``SolveResult.outer_trace`` is a ``BarrierTrace``: each stage's mu, cost
and stationarity as float64 and its inner count as uint16, 26 bytes per
stage in one ``bytes`` object, read back as ``BarrierStage`` objects.
Results with the same active set share one tuple of its names, made once
per process.  A kept result takes 912 B (tracemalloc, over a 50-point
weight sweep whose active sets were met before; 10.00 stages a solve),
against 1.1 KB with the trace in an ``array('d')`` and 2.1 KB with a
tuple of stage objects (both measured on 12 stages a solve).

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
run that converged.  No answer depends on the starts: each of the 243
problems of the benchmark's sweep (seeds 1-3) and 500 random ones gives
the same x*, bit for bit, from all 16 starts of ``latin_hypercube(16, 0)``.
It remains because calibration uses it and bench/ calls and wraps it.
Its starts are numpy's generator driven exactly as
``scipy.stats.qmc.LatinHypercube`` drives it, without loading scipy.stats,
drawn once per (count, seed) and kept.  The module attribute ``qmc``
(scipy.stats.qmc, imported on first access) is no longer used here; it
stays only because bench/tracing.py reads and restores it.  Importing
this module and calling ``solve`` load neither scipy nor numpy.

The solve loop works on plain Python floats, evaluated with
``math.log``/``math.log1p``.  On vectors this short, numpy's per-call
overhead costs far more than the arithmetic, and so do the per-element
bytecode of ``zip``, ``map`` and comprehensions and the calls and lists of
small helper functions and builtins.  So one Newton step is written out on
the five scalars inside ``_newton_stage``'s loop: the arrowhead Hessian
(its 5 diagonal entries and the two couplings), its elimination, the
descent test and the Armijo line search.  The only function of this
module that a step calls is the trial evaluation, and the only list it
builds is each trial point.  Its expressions are, in their order, those
of the reference units that the tests hold each step to: the Hessian,
the arrowhead solve, the Newton direction and the line search in
tests/helpers.py.  A stage's gradient test and its no-progress test are
chained comparisons, -tol <= g_i <= tol and -1e-15 < t_i - z_i < 1e-15,
not a max of abs values: on finite values they decide alike.  A nan
gradient component fails the gradient test (max(abs(...)) would read it
as converged in position 0 only), and the step from it finds no interior
trial, so such a stage takes no step either way.  ``_polish`` and the
per-stage bookkeeping of ``_solve_from_z`` are written out on scalars
too.

Each trial point is evaluated once, in one fused pass
(``_BarrierProblem.evaluate``): it rejects a point that is not strictly
interior, then computes x, g1, g2, J and the barrier value, and the line
search rejects a trial whose value fails the Armijo bound there, before
its gradient is built (122 of the 4,512 trials of the benchmark's 81-point
weight sweep, seed 1).  A last trial at a bound that rounds to f is
evaluated in full (316 of those trials: 283 kept on f, 31 on the
gradient, 2 rejected).  An accepted point carries its value and
gradient and keeps A, l, eta, g1 and g2, and the next step's Hessian
reads them from it.  J and its gradient are built on the 10 constants of
``dockopt.objective.quadratic_form`` (J = sum((q_i*x_i - b_i)*x_i),
dJ/dx_i = 2q_i*x_i - b_i), computed once per problem, with the
operations, in the order, of ``total_cost_arrays`` and ``gradient_at``,
so they are those functions' floats bit for bit.

The log-barrier sum is held to no other function's floats.  Its ten box
terms are the logs of two products, z0(1-z0)z1(1-z1)z2(1-z2) and
z3(1-z3)z4(1-z4), each factor in (0, 1/4]: with log(g1) and log(g2),
four log calls per trial instead of twelve.  Where a product is below the
smallest normal float, the ten terms are summed one by one: a subnormal
product has lost its precision, and math.log raises on 0.  The two
constraint logs stay apart, because a slack can be as small as its
threshold and ConstraintSet accepts subnormal ones.  The grouping moves
the barrier value by a few ulp of its log terms, so at most it could move
which trial a line search accepts.  It reaches no certified answer: a
Converged result's x*, J, residual and active set come from ``_polish``,
which reads the problem alone, and the cross-check compares J, not
barrier values.  (Measured against the term-by-term sum: every solve of
the benchmark's sweep seeds 1-3, its calibration seeds 1-2 and 1,500
random problems took the same Newton steps and the same trace.)

Each stage's first point is ``evaluate`` at the z where the last stage
ended, at the stage's mu, given the last stage's point: x, g1, g2, J and
the log-barrier sum do not depend on mu, so they are read from it, and
only f and g are computed, in the same expressions.  Each solve repairs
its own start (``_repair_to_interior``): one evaluation of the clipped
start, and ``interior_anchor`` in its place if that is not strictly
interior.  So a solve reads no state that another solve left, and nothing
is kept between them but the active-set names and the Latin-hypercube
starts.  The anchor puts l and eta halfway between their constraint floors
and the top of the box, not 1e-3 below their upper faces: the barrier's
cost depends on how far its start is from the central path (Boyd &
Vandenberghe, section 11.3).  On the benchmark's sweep, where every solve
starts there, the mu = 1 stage ends after 1 Newton step instead of 9.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import struct
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from math import isfinite, log, log1p, ulp

from .domain import DesignBounds, DesignVector, WeightVector, check_integer
# gradient_at and total_cost_arrays are not called here, but stay names of
# this module: bench/tracing.py wraps them by name.
from .objective import (ObjectiveCoefficients, ObjectiveValues, gradient_at,
                        quadratic_form, total_cost, total_cost_arrays)

_VAR_NAMES = tuple(f.name for f in fields(DesignVector))
# The 12 inequality faces in the order of _BarrierProblem.scaled_slacks.
_SLACK_NAMES = (*(f"{n}_lower" for n in _VAR_NAMES),
                *(f"{n}_upper" for n in _VAR_NAMES),
                "volume_min", "tolerance_ratio_min")
# Each active set is kept once and shared by every result that has it,
# keyed by its faces as bits (bit i for _SLACK_NAMES[i]), so it holds at
# most 2^12 entries.
_ACTIVE_SETS: dict[int, tuple[str, ...]] = {}
_MIN_STEP = 1e-16
_ACTIVE_SLACK = 1e-6
# The polish certifies every continuation whose best stage's KKT residual
# is within this: a converged one, or one stalled next to active faces
# (between 1e-8 and 1e-6).  A larger residual means the barrier itself
# failed (a truncated schedule, a line search that finds no step), and
# that is reported as IterationLimit.
_POLISH_RESIDUAL = 1e-4
_MAX_ROOT_STEPS = 100
# Barrier weights of the continuation, mu = 10^-k for k = 0..11: the most
# stages a solve runs.  It ends after the first stage whose residual is at
# most _INNER_FLOOR, which a converged mu = 1e-9 stage is, or, once the
# best residual is within _POLISH_RESIDUAL, after a stage at mu <=
# _INNER_FLOOR that stalls above the floor under the step cap.
_MU_SCHEDULE = tuple(10.0 ** -k for k in range(12))
_KKT_TOLERANCE = 1e-8
# The least gradient a stage aims at, and the residual that ends the
# continuation: every later stage would aim at the same floor.
_INNER_FLOOR = 0.3 * _KKT_TOLERANCE
_MAX_INNER_ITERATIONS = 200
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_BOUNDARY_FRACTION = 0.995  # of the distance to the nearest box face
_MARGIN = 1e-3  # range-relative clip of a start point inside the box
_MIN_NORMAL = sys.float_info.min  # a box product below it lost precision


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
    stationarity of the barrier objective, inner iterations spent.

    A ``BarrierTrace`` stores these four numbers per stage and builds a
    BarrierStage each time a stage is read."""

    mu: float
    cost: float
    stationarity: float
    inner_iterations: int


# One stage of a BarrierTrace: mu, cost and stationarity as float64, then
# the inner iteration count as uint16 (at most _MAX_INNER_ITERATIONS).
_STAGE = struct.Struct("<3dH")


class BarrierTrace(Sequence):
    """The stages of one barrier continuation, packed.

    Built from the flat values (mu, cost, stationarity, inner_iterations)
    of each stage in turn, held in one ``bytes`` object of 26 bytes per
    stage (``_STAGE``: three float64 and a uint16 count; a count that is
    not an integer in [0, 65535] raises ValueError).  Indexing and
    iteration build ``BarrierStage`` objects on access, and a slice is a
    BarrierTrace.  The trace is immutable and hashable, equal to a trace
    of the same stage values (compared as floats, so 0.0 == -0.0 and a nan
    is unequal to itself), and deep-copies to itself.  The 10 stages of a
    solve that converges at mu = 1e-9 take 293 bytes this way, against
    400 in an ``array('d')`` of 40 values and about 1.7 KB (tracemalloc)
    as a tuple of BarrierStage objects, each holding its boxed floats.
    """

    __slots__ = ("_data",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        values = tuple(values)
        if len(values) % 4:
            raise ValueError("a barrier trace holds 4 values per stage")
        try:
            data = struct.pack(f"<{'3dH' * (len(values) // 4)}", *values)
        except struct.error as exc:
            raise ValueError(f"a barrier stage holds three floats and an "
                             f"inner iteration count in [0, 65535]: {exc}",
                             ) from None
        object.__setattr__(self, "_data", data)

    @classmethod
    def _packed(cls, data: bytes) -> BarrierTrace:
        trace = object.__new__(cls)
        object.__setattr__(trace, "_data", data)
        return trace

    def __len__(self) -> int:
        return len(self._data) // _STAGE.size

    def __getitem__(self, index):
        size, data = _STAGE.size, self._data
        if isinstance(index, slice):
            return BarrierTrace._packed(b"".join(
                data[size * i:size * i + size]
                for i in range(*index.indices(len(self)))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("barrier trace index out of range")
        return BarrierStage(*_STAGE.unpack_from(data, size * i))

    def __iter__(self):
        for values in _STAGE.iter_unpack(self._data):
            yield BarrierStage(*values)

    def _values(self) -> tuple[tuple[float, float, float, int], ...]:
        return tuple(_STAGE.iter_unpack(self._data))

    def __eq__(self, other) -> bool:
        if isinstance(other, BarrierTrace):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())  # equal floats hash alike, -0.0 too

    def __repr__(self) -> str:
        return f"BarrierTrace({list(self)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("BarrierTrace is immutable")

    def __delattr__(self, name):
        raise AttributeError("BarrierTrace is immutable")

    def __reduce__(self):
        return BarrierTrace._packed, (self._data,)

    def __deepcopy__(self, memo) -> BarrierTrace:
        return self


@dataclass(frozen=True, slots=True)
class SolveResult:
    """One solve's outcome.

    ``x_star`` is the certified exact optimum if ``status`` is Converged,
    else the barrier's best iterate (see the module docstring);
    ``kkt_residual`` is that point's KKT residual and ``active_set`` its
    active faces by name (``A_lower`` .. ``eta_upper``, ``volume_min``,
    ``tolerance_ratio_min``; a constraint with g == 0 is active).  A
    Converged result's x_star, objective, kkt_residual, constraint_values
    and active_set depend on the problem alone, not on the start or the
    solver settings.  ``iterations`` counts the barrier's Newton steps and
    ``outer_trace`` holds its stages; they depend on the start.
    """

    x_star: DesignVector
    objective: ObjectiveValues
    kkt_residual: float
    constraint_values: tuple[float, float]
    active_set: tuple[str, ...]
    iterations: int
    status: SolverStatus
    outer_trace: BarrierTrace = field(default=BarrierTrace(), repr=False)

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
        self.ub = bounds.upper.as_tuple()
        self.range = tuple(hi - lo for lo, hi in zip(self.lb, self.ub))
        self.V, self.R = cons.volume_min, cons.tolerance_ratio_min
        self.g1_scale = cons.volume_min if cons.volume_min > 0.0 else 1.0
        self.g2_scale = cons.tolerance_ratio_min if cons.tolerance_ratio_min > 0.0 else 1.0
        self.log_scales = math.log(self.g1_scale) + math.log(self.g2_scale)
        # J = sum((q_i*x_i - b_i)*x_i), so dJ/dx_i = q2_i*x_i - b_i with
        # q2 = 2q, and the cost Hessian in z is diagonal: q2_i * range_i^2.
        self.q, self.q2, self.b = quadratic_form(w, coeff)
        self.cost_hess_diag = tuple(qi * (r * r)
                                    for qi, r in zip(self.q2, self.range))

    def x_of_z(self, z: list[float]) -> list[float]:
        return [lo + zi * r for lo, zi, r in zip(self.lb, z, self.range)]

    def z_of_x(self, x: tuple[float, ...]) -> list[float]:
        return [(xi - lo) / r for xi, lo, r in zip(x, self.lb, self.range)]

    def constraints(self, x: list[float]) -> tuple[float, float]:
        return x[0] * x[1] - self.V, x[4] / x[0] - self.R

    def scaled_slacks(self, z: list[float]) -> list[float]:
        """Slacks of all 12 inequality faces, each scaled to O(1):
        5 lower bounds, 5 upper bounds, g1, g2."""
        g1, g2 = self.constraints(self.x_of_z(z))
        return [*z, *(1.0 - zi for zi in z),
                g1 / self.g1_scale, g2 / self.g2_scale]

    def evaluate(self, z: list[float], mu: float, f_max: float | None = None,
                 point: tuple | None = None) -> tuple | None:
        """The barrier at z in one pass, or None unless z is strictly
        interior (every z_i in (0, 1), g1 > 0 and g2 > 0; nan fails).

        Returns the point ``(z, f, g, cost, A, l, eta, g1, g2, logs)``:
        the barrier value f and its gradient g in z, J at x(z), the parts
        of x and the constraint values that the Newton step's Hessian
        reuses (see ``_newton_stage``), and the log-barrier sum,
        f = cost - mu * logs.  With mu = 0, f and g are J and its gradient.
        Given ``f_max``, a point whose f fails ``f <= f_max`` (a nan f too)
        is None as well, and its gradient is never built: a line search
        rejects it on f alone.  Given ``point``, a point that this returned
        for z at any mu, the parts that do not depend on mu (the interior
        test, x, g1, g2, J and the log sum) are read from it: only f and g
        are computed, in the same expressions, so the result is the full
        evaluation's bit for bit.  Each barrier stage starts this way.
        """
        z0, z1, z2, z3, z4 = z
        lo0, lo1, lo2, lo3, lo4 = self.lb
        r0, r1, r2, r3, r4 = self.range
        b0, b1, b2, b3, b4 = self.b
        if point is None:
            if not (0.0 < z0 < 1.0 and 0.0 < z1 < 1.0 and 0.0 < z2 < 1.0
                    and 0.0 < z3 < 1.0 and 0.0 < z4 < 1.0):
                return None
            A = lo0 + z0 * r0
            l = lo1 + z1 * r1
            eta = lo4 + z4 * r4
            g1 = A * l - self.V
            g2 = eta / A - self.R
            if not (g1 > 0.0 and g2 > 0.0):
                return None
            u = lo2 + z2 * r2
            e = lo3 + z3 * r3

            # J and dJ/dx with the operations, in the order, of
            # total_cost_arrays and gradient_at.
            q0, q1, q2, q3, q4 = self.q
            cost = ((q0 * A - b0) * A + (q1 * l - b1) * l
                    + (q2 * u - b2) * u + (q3 * e - b3) * e
                    + (q4 * eta - b4) * eta)

            # The ten box logs as the logs of two products, each factor in
            # (0, 1/4]; per term where a product is not a normal float.
            box_a = z0 * (1.0 - z0) * z1 * (1.0 - z1) * z2 * (1.0 - z2)
            box_b = z3 * (1.0 - z3) * z4 * (1.0 - z4)
            if box_a >= _MIN_NORMAL and box_b >= _MIN_NORMAL:
                log_box = log(box_a) + log(box_b)
            else:
                log_box = ((log(z0) + log(z1) + log(z2) + log(z3) + log(z4))
                           + (log1p(-z0) + log1p(-z1) + log1p(-z2)
                              + log1p(-z3) + log1p(-z4)))
            logs = log_box + log(g1) + log(g2) - self.log_scales
        else:
            _, _, _, cost, A, l, eta, g1, g2, logs = point
            u = lo2 + z2 * r2
            e = lo3 + z3 * r3
        f = cost - mu * logs
        if f_max is not None and not f <= f_max:
            return None
        # Gradient in z: dJ/dx_i times the range, the two box terms, then
        # mu/g times each constraint's gradient, summed in that order.
        s0, s1, s2, s3, s4 = self.q2  # dJ/dx_i = s_i*x_i - b_i
        c1 = mu / g1
        c2 = mu / g2
        g = [(s0 * A - b0) * r0 - mu / z0 + mu / (1.0 - z0)
             - c1 * (l * r0) - c2 * (-eta / A**2 * r0),
             (s1 * l - b1) * r1 - mu / z1 + mu / (1.0 - z1) - c1 * (A * r1),
             (s2 * u - b2) * r2 - mu / z2 + mu / (1.0 - z2),
             (s3 * e - b3) * r3 - mu / z3 + mu / (1.0 - z3),
             (s4 * eta - b4) * r4 - mu / z4 + mu / (1.0 - z4)
             - c2 * (1.0 / A * r4)]
        return z, f, g, cost, A, l, eta, g1, g2, logs


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
                         f"{_SLACK_NAMES[low]} is non-positive")
    return point[1]


def interior_anchor(bounds: DesignBounds, cons: ConstraintSet) -> list[float]:
    """The strictly feasible point, in box-normalized coordinates, at which
    a solve starts when its clipped start is not strictly interior (see
    ``_repair_to_interior``); it depends on the bounds and constraints
    alone, so a configuration can be checked before any solve.

    Both constraints grow with l and eta, so A is placed with them at the
    top, 1 - _MARGIN: at the middle of the band where A*l > V and
    eta/A > R, clipped to [_MARGIN, 1 - _MARGIN].  If that top point is
    not strictly feasible, no point of the clipped box is, and this raises
    InfeasibleProblemError.  Otherwise the anchor keeps that A, puts u and
    e at 0.5, and moves l and eta to halfway between the top and their
    floors at that A, V/A and R*A (each at least _MARGIN of its range):
    where no constraint binds, that is the centre of the box.  If rounding
    leaves this point not strictly interior (a band of A a few ulp wide),
    the anchor is the top point.
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
    # The top point is feasible, so each floor is at most 1 in z, and z_l
    # and z_eta lie in [0.5, 1): only the constraints can fail, by rounding.
    z_l = 0.5 * (max(_MARGIN, (V / A - lb[1]) / ranges[1]) + top)
    z_eta = 0.5 * (max(_MARGIN, (R * A - lb[4]) / ranges[4]) + top)
    l, eta = lb[1] + z_l * ranges[1], lb[4] + z_eta * ranges[4]
    if A * l - V > 0.0 and eta / A - R > 0.0:
        return [z_A, z_l, 0.5, 0.5, z_eta]
    return [z_A, top, 0.5, 0.5, top]


def _repair_to_interior(problem: _BarrierProblem,
                        z: list[float]) -> list[float]:
    """The barrier's first point: the start clipped into the box with a
    range-relative margin if that is strictly interior (one ``evaluate`` at
    mu = 0), else ``interior_anchor``.  Raises InfeasibleProblemError when
    the clipped start is not strictly interior and no anchor exists.

    The barrier needs only some strictly feasible start, and the certified
    answer does not depend on which (see ``_polish``); the anchor is
    centred in the feasible band only because the barrier takes fewer
    Newton steps from there.
    """
    z = [min(max(zi, _MARGIN), 1.0 - _MARGIN) for zi in z]
    if problem.evaluate(z, 0.0) is not None:
        return z
    return interior_anchor(problem.bounds, problem.cons)


def _newton_stage(problem: _BarrierProblem, point: tuple, mu: float,
                  tol: float) -> tuple[tuple, int]:
    """Minimize the barrier objective at fixed mu by Newton steps with
    Armijo backtracking, from a point evaluated at mu.

    Each step is written out on the five scalars:
    * the exact barrier Hessian at the point, as an arrowhead: the 5
      diagonal entries and the (A, l) and (A, eta) entries, the only
      nonzero ones off the diagonal (g1 ties A to l, g2 ties A to eta);
    * the Newton direction by block elimination: u and e on their own, l
      and eta eliminated onto A through the Schur complement.  It is -g
      where a pivot is not positive, or p is not finite or not a descent
      direction, which on this positive definite Hessian (see the module
      docstring) happens only on a nan or an overflow;
    * Armijo backtracking from the largest box-respecting step, each
      trial evaluated against the Armijo bound (``evaluate``'s
      ``f_max``), so that a rejected trial costs its value alone.  At
      the first alpha where the bound is not below f, one last trial is
      evaluated against f_max = inf (a point that is not interior, or
      whose f is nan, is still rejected) and kept if its f meets the
      bound or its largest |g_i| is below the point's.

    Stops at the gradient tolerance, at the step cap, or when no step
    makes progress: the line search finds none (every trial fails the
    Armijo bound or leaves the interior, or the last trial at a bound
    that rounds to f is not kept), or the accepted one leaves z in place
    (near-active slacks are position-quantized at f64 resolution).
    Returns the evaluated iterate and the steps taken.
    """
    k0, k1, k2, k3, k4 = problem.cost_hess_diag
    r0, r1, _, _, r4 = problem.range
    evaluate = problem.evaluate
    # The constraint values g1 and g2 are s1 and s2 here; g is the gradient.
    (z0, z1, z2, z3, z4), f, (g0, g1, g2, g3, g4), _, A, l, eta, s1, s2, _ \
        = point
    iterations = 0
    low = -tol

    # max(|g_i|) > tol as chained comparisons: the same decision on finite
    # values, without the abs and max calls (see the module docstring).
    while not (low <= g0 <= tol and low <= g1 <= tol and low <= g2 <= tol
               and low <= g3 <= tol and low <= g4 <= tol) \
            and iterations < _MAX_INNER_ITERATIONS:
        # The Hessian: the cost's curvature plus both box terms', per
        # coordinate.
        w0, w1, w2, w3, w4 = 1.0 - z0, 1.0 - z1, 1.0 - z2, 1.0 - z3, 1.0 - z4
        d0 = k0 + mu * (1.0 / (z0 * z0) + 1.0 / (w0 * w0))
        d1 = k1 + mu * (1.0 / (z1 * z1) + 1.0 / (w1 * w1))
        d2 = k2 + mu * (1.0 / (z2 * z2) + 1.0 / (w2 * w2))
        d3 = k3 + mu * (1.0 / (z3 * z3) + 1.0 / (w3 * w3))
        d4 = k4 + mu * (1.0 / (z4 * z4) + 1.0 / (w4 * w4))
        # g1 = A*l - V: outer product of its gradient, then d2(A*l)/dAdl = 1.
        u0, u1 = l * r0, A * r1
        c1 = mu / s1**2
        d0 += c1 * (u0 * u0)
        d1 += c1 * (u1 * u1)
        h01 = c1 * (u0 * u1) - mu / s1 * r0 * r1
        # g2 = eta/A - R: outer product of its gradient, then its curvature.
        v0, v4 = -eta / A**2 * r0, 1.0 / A * r4
        c2 = mu / s2**2
        d0 += c2 * (v0 * v0)
        d4 += c2 * (v4 * v4)
        h04 = c2 * (v0 * v4)
        d0 -= mu / s2 * 2.0 * eta / A**3 * r0**2
        h04 -= mu / s2 * (-1.0 / A**2) * r0 * r4

        # The Newton direction, kept if finite and downhill (g.p < 0).
        gp = 0.0
        if d1 > 0.0 and d2 > 0.0 and d3 > 0.0 and d4 > 0.0:
            schur = d0 - h01 * h01 / d1 - h04 * h04 / d4
            if schur > 0.0:
                p0 = -(g0 - h01 * g1 / d1 - h04 * g4 / d4) / schur
                p1 = -(g1 + h01 * p0) / d1
                p2 = -g2 / d2
                p3 = -g3 / d3
                p4 = -(g4 + h04 * p0) / d4
                if (isfinite(p0) and isfinite(p1) and isfinite(p2)
                        and isfinite(p3) and isfinite(p4)):
                    gp = g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4
        if not gp < 0.0:
            p0, p1, p2, p3, p4 = -g0, -g1, -g2, -g3, -g4
            gp = g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4

        # The step to each coordinate's box face along p (inf if p_i is 0
        # or nan); a limit that is not positive is not a face ahead.
        nearest = math.inf
        limit = z0 / -p0 if p0 < 0.0 else w0 / p0 if p0 > 0.0 else math.inf
        if 0.0 < limit < nearest:
            nearest = limit
        limit = z1 / -p1 if p1 < 0.0 else w1 / p1 if p1 > 0.0 else math.inf
        if 0.0 < limit < nearest:
            nearest = limit
        limit = z2 / -p2 if p2 < 0.0 else w2 / p2 if p2 > 0.0 else math.inf
        if 0.0 < limit < nearest:
            nearest = limit
        limit = z3 / -p3 if p3 < 0.0 else w3 / p3 if p3 > 0.0 else math.inf
        if 0.0 < limit < nearest:
            nearest = limit
        limit = z4 / -p4 if p4 < 0.0 else w4 / p4 if p4 > 0.0 else math.inf
        if 0.0 < limit < nearest:
            nearest = limit
        alpha = min(1.0, _BOUNDARY_FRACTION * nearest)

        trial = None
        while alpha > _MIN_STEP:
            bound = f + _ARMIJO_C * alpha * gp
            z_trial = [z0 + alpha * p0, z1 + alpha * p1, z2 + alpha * p2,
                       z3 + alpha * p3, z4 + alpha * p4]
            if not bound < f:
                # f cannot show the decrease at this alpha or any smaller
                # one: one last trial, kept if it meets the bound or if
                # its largest |g_i| is below the point's.
                trial = evaluate(z_trial, mu, math.inf)
                if trial is not None and not trial[1] <= bound:
                    top = 0.0
                    for gi in (g0, g1, g2, g3, g4):
                        if gi > top:
                            top = gi
                        elif -gi > top:
                            top = -gi
                    t0, t1, t2, t3, t4 = trial[2]
                    if not (-top < t0 < top and -top < t1 < top
                            and -top < t2 < top and -top < t3 < top
                            and -top < t4 < top):
                        trial = None
                break
            trial = evaluate(z_trial, mu, bound)
            if trial is not None:
                break
            alpha *= _BACKTRACK_FACTOR
        if trial is None:
            break  # no acceptable step: no progress possible

        point = trial
        (t0, t1, t2, t3, t4), f, (g0, g1, g2, g3, g4), _, A, l, eta, s1, s2, \
            _ = trial
        in_place = (-1e-15 < t0 - z0 < 1e-15 and -1e-15 < t1 - z1 < 1e-15
                    and -1e-15 < t2 - z2 < 1e-15
                    and -1e-15 < t3 - z3 < 1e-15
                    and -1e-15 < t4 - z4 < 1e-15)
        z0, z1, z2, z3, z4 = t0, t1, t2, t3, t4
        iterations += 1
        if in_place:
            break  # below position resolution; no progress possible

    return point, iterations


def _solve_from_z(problem: _BarrierProblem, z0: list[float]) -> SolveResult:
    z = _repair_to_interior(problem, z0)
    pack = _STAGE.pack
    stages: list[bytes] = []  # mu, cost, stationarity, inner of each stage
    iterations = 0
    best_residual, best_z, best_cost = math.inf, z, math.inf
    point = None

    for mu in _MU_SCHEDULE:
        # Below mu, a smaller gradient cannot lower the residual.
        inner_tol = max(_INNER_FLOOR, mu)
        # Each stage starts where the last ended, from its point.
        point, inner = _newton_stage(
            problem, problem.evaluate(z, mu, None, point), mu, inner_tol)
        z, _, (g0, g1, g2, g3, g4), cost = point[:4]
        stationarity = max(abs(g0), abs(g1), abs(g2), abs(g3), abs(g4))
        # Primal multiplier estimates give lambda_i * slack_i = mu exactly,
        # so mu itself is the complementarity gap against the true problem.
        residual = max(stationarity, mu)
        stages.append(pack(mu, cost, stationarity, inner))
        iterations += inner
        if residual < best_residual:
            best_residual, best_z, best_cost = residual, z, cost
        if residual <= _INNER_FLOOR:
            break  # every later stage aims at this floor too
        if best_residual <= _POLISH_RESIDUAL:
            if mu <= _INNER_FLOOR and inner < _MAX_INNER_ITERATIONS:
                break  # a floor stage stalled: later ones aim at it too
            if residual > 10.0 * best_residual:
                break  # refinement exhausted: polish the best stage

    # The exact point is the answer if its J is at most the best stage's
    # plus 4 ulp, both in the kernel's expression.
    exact = _polish(problem) if best_residual <= _POLISH_RESIDUAL else None
    if exact is not None \
            and exact[1] <= best_cost + 4.0 * ulp(max(1.0, abs(best_cost))):
        x, _, residual, constraint_values, mask = exact
        status = SolverStatus.Converged
    else:
        x = problem.x_of_z(best_z)
        residual, constraint_values = best_residual, problem.constraints(x)
        mask = sum(1 << i for i, s in enumerate(problem.scaled_slacks(best_z))
                   if s < _ACTIVE_SLACK)
        status = SolverStatus.IterationLimit
    x_star = DesignVector(*x)
    return SolveResult(x_star, total_cost(x_star, problem.w, problem.coeff),
                       residual, constraint_values, _active_set(mask),
                       iterations, status,
                       BarrierTrace._packed(b"".join(stages)))


def _active_set(mask: int) -> tuple[str, ...]:
    """The names of the faces whose bits are set in ``mask`` (bit i for
    ``_SLACK_NAMES[i]``), as the one tuple that every result with this set
    shares."""
    active = _ACTIVE_SETS.get(mask)
    if active is None:
        active = _ACTIVE_SETS[mask] = tuple(
            name for i, name in enumerate(_SLACK_NAMES) if mask >> i & 1)
    return active


def _polish(problem: _BarrierProblem) -> tuple | None:
    """The exact optimum, read from the problem alone, as ``(x, J,
    residual, (g1, g2), mask)``, or None if it fails verification: x as
    five floats, J in the kernel's expression ``sum((q_i*x_i - b_i)*x_i)``,
    and the active faces as bits (bit i for ``_SLACK_NAMES[i]``).

    Solve, with dJ/dx_i = quad_i*x_i - lin_i (J is separable; quad = 2q
    and lin = b of ``quadratic_form``): u and e minimise alone at
    clip(lin/quad, box); for a fixed A,
    l*(A) = clip(l_free, max(l_lo, V/A), l_hi) and
    eta*(A) = clip(eta_free, max(eta_lo, R*A), eta_hi); and
    phi(A) = J(A, l*(A), u*, e*, eta*(A)) is convex on
    [max(A_lo, V/l_hi), min(A_hi, eta_hi/R)], because it partially
    minimises a convex problem (Boyd & Vandenberghe, section 3.2.5).  So A*
    is where phi' changes sign, found by ``_bracketed_root``.  The active
    set is the faces that x* meets, a constraint with g == 0 included.
    Verify: x* is in the box and meets g1 >= 0 and g2 >= 0, every
    multiplier (from stationarity, in the barrier's scaled units) is
    >= -1e-8, and the free components' stationarity is <= 1e-8.  The
    residual is the largest of those violations.  Where l (eta) meets both
    a bound and g1 (g2), more faces meet than (A, l, eta) can determine
    when a bound or the other constraint's corner fixes A too.  g1's
    (g2's) multiplier is then not unique, and the residual is the least
    over its breakpoints: 0, the value that zeroes l's (eta's) bound
    multiplier and the value that A's equation gives.  The work is written
    out on the five scalars, as ``_newton_stage``'s is.
    """
    lo0, lo1, lo2, lo3, lo4 = problem.lb
    hi0, hi1, hi2, hi3, hi4 = problem.ub
    qA, ql, qu, qe, qeta = problem.q2
    bA, bl, bu, be, beta = problem.b
    r0, r1, r2, r3, r4 = problem.range
    V, R = problem.V, problem.R
    # Where a component has no quadratic term, its linear one pushes it
    # to a bound.
    free_l = bl / ql if ql > 0.0 else math.inf if bl > 0.0 else -math.inf
    free_u = bu / qu if qu > 0.0 else math.inf if bu > 0.0 else -math.inf
    free_e = be / qe if qe > 0.0 else math.inf if be > 0.0 else -math.inf
    free_eta = (beta / qeta if qeta > 0.0
                else math.inf if beta > 0.0 else -math.inf)

    def slope(A: float) -> tuple[float, float]:
        """phi'(A) and phi''(A).  g1 (g2) holds l (eta) at its floor V/A
        (R*A) only where the free minimiser lies below that floor."""
        value, curvature = qA * A - bA, qA
        if V / A > lo1 and free_l < V / A:
            dl = ql * (V / A) - bl
            value -= dl * V / (A * A)
            curvature += (ql * V / (A * A) + 2.0 * dl / A) * V / (A * A)
        if R * A > lo4 and free_eta < R * A:
            value += (qeta * (R * A) - beta) * R
            curvature += qeta * R * R
        return value, curvature

    # The bracket, with V/l_hi rounded up and eta_hi/R rounded down so
    # that l_hi and eta_hi stay feasible at its ends.  At such an end, g1
    # (or g2) is active whatever the free minimiser.
    a, b = lo0, hi0
    end_g1 = V / hi1 > a
    if end_g1:
        a = V / hi1
        while a * hi1 < V:
            a = math.nextafter(a, math.inf)
    end_g2 = R > 0.0 and hi4 / R < b
    if end_g2:
        b = hi4 / R
        while hi4 / b < R:
            b = math.nextafter(b, 0.0)
    if not a <= b:
        return None
    if slope(a)[0] >= 0.0:
        A = a
    elif slope(b)[0] <= 0.0:
        A = b
    else:
        A = _bracketed_root(slope, a, b)

    # Corners, where l (eta) meets a bound and g1 (g2) at once: the ends
    # that V/l_hi and eta_hi/R set, and the jumps of phi' at V/l_lo (if
    # l_free < l_lo) and eta_lo/R (if eta_free < eta_lo).  A root within
    # 1e-12 of a jump is taken to be that corner.
    l_corner = hi1 if end_g1 and A == a else None
    eta_corner = hi4 if end_g2 and A == b else None
    if free_l < lo1 and abs(A * lo1 - V) <= 1e-12 * V:
        A, l_corner = V / lo1, lo1
        while A * lo1 < V:
            A = math.nextafter(A, math.inf)
    if free_eta < lo4 and R > 0.0 and abs(lo4 / A - R) <= 1e-12 * R:
        A, eta_corner = lo4 / R, lo4
        while lo4 / A < R:
            A = math.nextafter(A, 0.0)

    on_g1 = V / A > lo1 and free_l < V / A
    on_g2 = R * A > lo4 and free_eta < R * A
    l = min(max(free_l, lo1), hi1)
    u = min(max(free_u, lo2), hi2)
    e = min(max(free_e, lo3), hi3)
    eta = min(max(free_eta, lo4), hi4)
    if l_corner is not None:
        on_g1, l = True, l_corner
    elif on_g1:
        l = V / A
        while A * l < V:
            l = math.nextafter(l, math.inf)
    if eta_corner is not None:
        on_g2, eta = True, eta_corner
    elif on_g2:
        eta = R * A
        while eta / A < R:
            eta = math.nextafter(eta, math.inf)
    g1 = A * l - V
    g2 = eta / A - R
    if not (lo0 <= A <= hi0 and lo1 <= l <= hi1 and lo2 <= u <= hi2
            and lo3 <= e <= hi3 and lo4 <= eta <= hi4
            and g1 >= 0.0 and g2 >= 0.0):
        return None

    # Multipliers from stationarity in z: dJ/dz_i = sum of multiplier times
    # face gradient, the faces being z_i >= 0, 1 - z_i >= 0, g1/g1_scale
    # and g2/g2_scale.
    lo_A, lo_l, lo_u, lo_e, lo_eta = (A == lo0, l == lo1, u == lo2, e == lo3,
                                      eta == lo4)
    hi_A, hi_l, hi_u, hi_e, hi_eta = (A == hi0, l == hi1, u == hi2, e == hi3,
                                      eta == hi4)
    corner_g1 = on_g1 and (lo_l or hi_l)
    corner_g2 = on_g2 and (lo_eta or hi_eta)
    dA = (qA * A - bA) * r0
    dl = (ql * l - bl) * r1
    du = (qu * u - bu) * r2
    de = (qe * e - be) * r3
    deta = (qeta * eta - beta) * r4
    g1_A, g1_l = l * r0 / problem.g1_scale, A * r1 / problem.g1_scale
    g2_A = -eta / (A * A) * r0 / problem.g2_scale
    g2_eta = r4 / A / problem.g2_scale
    rest_u = -du if lo_u else du if hi_u else abs(du)
    rest_e = -de if lo_e else de if hi_e else abs(de)

    # The largest violation with multipliers mu1 and mu2 of g1 and g2: the
    # rest of each component's gradient is the multiplier of a lower face it
    # meets, minus an upper face's (gradient -1), else its stationarity.
    def violation(mu1: float, mu2: float) -> float:
        rest = dA - mu1 * g1_A - mu2 * g2_A
        rest_A = -rest if lo_A else rest if hi_A else abs(rest)
        rest = dl - mu1 * g1_l
        rest_l = -rest if lo_l else rest if hi_l else abs(rest)
        rest = deta - mu2 * g2_eta
        rest_eta = -rest if lo_eta else rest if hi_eta else abs(rest)
        return max(0.0, -mu1, -mu2, rest_A, rest_l, rest_u, rest_e, rest_eta)

    # g1's multiplier is 0 off g1, l's equation gives it where g1 holds a
    # free l, and where l meets a bound and g1 (a corner) it is free; g2's
    # likewise with eta.  The least violation is taken over the vertices
    # of the free multipliers' polyhedron: its candidates, 0 and the value
    # that zeroes l's (eta's) bound multiplier, paired where a bound holds
    # A, and each with the value that A's equation then gives the other.
    mu1s = (0.0, dl / g1_l) if corner_g1 else (dl / g1_l,) if on_g1 \
        else (0.0,)
    mu2s = (0.0, deta / g2_eta) if corner_g2 else (deta / g2_eta,) if on_g2 \
        else (0.0,)
    pairs = [(mu1, mu2) for mu1 in mu1s for mu2 in mu2s] \
        if lo_A or hi_A or not (corner_g1 or corner_g2) else []
    if corner_g1:
        pairs += [((dA - mu2 * g2_A) / g1_A, mu2) for mu2 in mu2s]
    if corner_g2:
        pairs += [(mu1, (dA - mu1 * g1_A) / g2_A) for mu1 in mu1s]
    residual = min(violation(mu1, mu2) for mu1, mu2 in pairs)
    if not residual <= _KKT_TOLERANCE:
        return None
    q0, q1, q2, q3, q4 = problem.q
    J = ((q0 * A - bA) * A + (q1 * l - bl) * l + (q2 * u - bu) * u
         + (q3 * e - be) * e + (q4 * eta - beta) * eta)
    return ((A, l, u, e, eta), J, residual, (g1, g2),
            lo_A | lo_l << 1 | lo_u << 2 | lo_e << 3 | lo_eta << 4
            | hi_A << 5 | hi_l << 6 | hi_u << 7 | hi_e << 8 | hi_eta << 9
            | (on_g1 or g1 == 0.0) << 10 | (on_g2 or g2 == 0.0) << 11)


def _bracketed_root(slope, a: float, b: float) -> float:
    """The root of the nondecreasing ``slope(x)[0]`` on [a, b], where it is
    negative at a and positive at b: Newton steps on ``slope(x)[1]`` from
    the midpoint, which the bracket alone fixes, replaced by bisection
    wherever that curvature is not positive (where phi is flat, a Newton
    step is undefined) or a step would leave the bracket."""
    x = 0.5 * (a + b)
    for _ in range(_MAX_ROOT_STEPS):
        value, curvature = slope(x)
        if value == 0.0:
            break
        if value < 0.0:
            a = x
        else:
            b = x
        step = x - value / curvature if curvature > 0.0 else 0.5 * (a + b)
        if step == x:
            break
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:
                break  # a and b are adjacent floats
        x = step
    return x


def solve(w: WeightVector, coeff: ObjectiveCoefficients, bounds: DesignBounds,
          cons: ConstraintSet, x_init: DesignVector) -> SolveResult:
    """Barrier continuation from a single start point.

    x_init is clipped into the box with a 1e-3-range margin; if that point
    is not strictly interior, the solve starts at ``interior_anchor``
    instead (see ``_repair_to_interior``).  InfeasibleProblemError means
    no point of the clipped box is strictly feasible.
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


@functools.lru_cache(maxsize=16)
def _starts(n: int, seed: int) -> tuple[tuple[float, ...], ...]:
    """``latin_hypercube(n, seed)`` as tuples, drawn once per (n, seed):
    a weight study or a calibration solves many problems from the same
    starts."""
    return tuple(map(tuple, latin_hypercube(n, seed)))


def multi_start_solve(w: WeightVector, coeff: ObjectiveCoefficients,
                      bounds: DesignBounds, cons: ConstraintSet,
                      settings: SolverSettings = SolverSettings()) -> SolveResult:
    """Run the solver from the Latin-hypercube start points in turn and
    return the first run that converged, or else the first run.

    The problem is convex, so converged starts agree on the optimum, and
    the starts after the first converged one are not run.  The starts are
    ``latin_hypercube(settings.multistart_count, settings.seed)``, the
    points scipy's sampler gives for the same seed, drawn on the first
    call for that count and seed and kept for later calls.  The module's
    ``qmc`` is not read; it stays only for bench/tracing.py (see
    ``__getattr__``).
    """
    problem = _BarrierProblem(w, coeff, bounds, cons)
    first = None
    for z in _starts(settings.multistart_count, settings.seed):
        result = _solve_from_z(problem, list(z))
        if result.converged:
            return result
        if first is None:
            first = result
    return first
