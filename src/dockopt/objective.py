"""Objective surrogates for the co-design cost function.

Four normalized polynomial surrogates map a design vector to objective
scores in [0, 1]:

* hydrodynamic loss  h = [kA (A/A_max)^2 + kl (l/l_max)^2] / (kA + kl)
* monetary cost      c = [ku u^2 + ke e^2 + k_eta eta^2] / (ku + ke + k_eta)
* docking reliability d = [au u + ae e + a_eta eta] / (au + ae + a_eta)
* system versatility  v = [bA (A/A_max) + bl (l/l_max) + bu u] / (bA + bl + bu)

and the scalarized total is J = p h + q c - r d - s v, so reliability and
versatility are maximized while loss and cost are minimized.  All
coefficients are exposed for calibration; the convex-combination form
keeps every score inside [0, 1] on any design within the normalizers.

The helpers suffixed ``_terms``/``_arrays`` accept numpy arrays for
vectorized evaluation over design grids.  ``objective_terms`` gives the
four scores, and ``total_cost`` reports them with J.  Expanded, J is the
separable quadratic sum((q_i*x_i - b_i)*x_i) over x = (A, l, u, e, eta),
whose 10 constants ``quadratic_form`` computes once per (weights,
coefficients).  ``total_cost_arrays``, ``gradient_at`` (2q*x - b) and the
solver's barrier kernel are built on them, each as the same expressions
in the same order, so the kernel's J and gradient are those functions'
floats bit for bit.  The J of ``total_cost`` sums the four scores, so it
may differ from them in the last bits.

``total_cost_arrays`` on large arrays is limited by memory traffic, not
arithmetic.  So inputs of more than ``_BLOCK`` elements are evaluated in
blocks of ``_BLOCK`` (``numpy.nditer``, buffered) into one output: each
term of a block is computed in place, in the output or in one
block-sized scratch buffer, and added into the output, so the work stays
in cache and nothing of the inputs' length is allocated but the output.
Every element goes through the same operations as in one pass, so the
result is the same floats.  Inputs of at most ``_BLOCK`` elements, floats
included, take the one-pass expression, and so do arrays whose terms
differ in dtype.  Only ``gradient_at`` and the blocked path import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .domain import DesignVector, WeightVector

# Elements per block of the bulk path of total_cost_arrays: a float64 block
# of the output and the scratch buffer take 128 KiB each and stay in cache.
_BLOCK = 16_384


@dataclass(frozen=True)
class ObjectiveCoefficients:
    """Surrogate coefficients and dimension normalizers.

    kA/kl weigh the frontal-area and skin-friction terms of h; ku/ke/k_eta
    the quadratic cost terms; au/ae/a_eta the linear reliability terms;
    bA/bl/bu the versatility terms.  A_max and l_max nondimensionalize
    area and length (defaults match the standard search box uppers).
    """

    kA: float = 1.0
    kl: float = 1.0
    ku: float = 1.0
    ke: float = 1.0
    k_eta: float = 1.0
    au: float = 1.0
    ae: float = 1.0
    a_eta: float = 1.0
    bA: float = 1.0
    bl: float = 1.0
    bu: float = 1.0
    A_max: float = 1.0
    l_max: float = 3.0

    def __post_init__(self) -> None:
        for name in _COEFFICIENT_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"coefficient {name} must be finite and "
                                 f">= 0, got {value}")
        if self.kA + self.kl <= 0.0:
            raise ValueError("hydrodynamic coefficients kA + kl must be positive")
        if self.ku + self.ke + self.k_eta <= 0.0:
            raise ValueError("cost coefficients ku + ke + k_eta must be positive")
        if self.au + self.ae + self.a_eta <= 0.0:
            raise ValueError("reliability coefficients au + ae + a_eta must be positive")
        if self.bA + self.bl + self.bu <= 0.0:
            raise ValueError("versatility coefficients bA + bl + bu must be positive")
        if self.A_max <= 0.0 or self.l_max <= 0.0:
            raise ValueError("normalizers A_max, l_max must be positive")


# Computed once: __post_init__ runs on every calibration evaluation.
_COEFFICIENT_NAMES = tuple(f.name for f in fields(ObjectiveCoefficients))


@dataclass(frozen=True, slots=True)
class ObjectiveValues:
    """Objective breakdown at one design: the four scores and the total."""

    h: float
    c: float
    d: float
    v: float
    J: float


def hydro_loss(x: DesignVector, coeff: ObjectiveCoefficients) -> float:
    """Normalized hydrodynamic loss: quadratic in frontal area (form drag)
    and in length (skin friction), with the area term dominating through
    its coefficient."""
    h, _, _, _ = objective_terms(x.A, x.l, x.u, x.e, x.eta, coeff)
    return float(h)


def monetary_cost(x: DesignVector, coeff: ObjectiveCoefficients) -> float:
    """Normalized build cost: quadratic in control fidelity, entry area,
    and docking tolerance."""
    _, c, _, _ = objective_terms(x.A, x.l, x.u, x.e, x.eta, coeff)
    return float(c)


def docking_reliability(x: DesignVector, coeff: ObjectiveCoefficients) -> float:
    """Normalized docking success score: linear in control fidelity,
    entry area, and docking tolerance."""
    _, _, d, _ = objective_terms(x.A, x.l, x.u, x.e, x.eta, coeff)
    return float(d)


def versatility(x: DesignVector, coeff: ObjectiveCoefficients) -> float:
    """Normalized versatility score: rewards size and control fidelity,
    countering the shrink pressure of the loss and cost terms."""
    _, _, _, v = objective_terms(x.A, x.l, x.u, x.e, x.eta, coeff)
    return float(v)


def total_cost(x: DesignVector, w: WeightVector,
               coeff: ObjectiveCoefficients) -> ObjectiveValues:
    """Evaluate all four surrogates and the scalarized total J."""
    h, c, d, v = objective_terms(x.A, x.l, x.u, x.e, x.eta, coeff)
    return ObjectiveValues(h=float(h), c=float(c), d=float(d), v=float(v),
                           J=w.p * float(h) + w.q * float(c)
                             - w.r * float(d) - w.s * float(v))


def objective_terms(A, l, u, e, eta, coeff: ObjectiveCoefficients):
    """Vectorized surrogate evaluation; accepts floats or numpy arrays.

    Inputs are used as given, so float inputs give float scores at
    scalar speed and array inputs give arrays."""
    An = A / coeff.A_max
    ln = l / coeff.l_max

    h = (coeff.kA * An**2 + coeff.kl * ln**2) / (coeff.kA + coeff.kl)
    c = (coeff.ku * u**2 + coeff.ke * e**2 + coeff.k_eta * eta**2) \
        / (coeff.ku + coeff.ke + coeff.k_eta)
    d = (coeff.au * u + coeff.ae * e + coeff.a_eta * eta) \
        / (coeff.au + coeff.ae + coeff.a_eta)
    v = (coeff.bA * An + coeff.bl * ln + coeff.bu * u) \
        / (coeff.bA + coeff.bl + coeff.bu)
    return h, c, d, v


def quadratic_form(w: WeightVector, coeff: ObjectiveCoefficients,
                   ) -> tuple[tuple[float, ...], tuple[float, ...],
                              tuple[float, ...]]:
    """J as the separable quadratic ``sum((q_i*x_i - b_i)*x_i)`` over
    x = (A, l, u, e, eta): returns q, 2q and b.

    Expanding p h + q c - r d - s v gives q = (p kA/(A_max^2 sum_h),
    p kl/(l_max^2 sum_h), q ku/sum_c, q ke/sum_c, q k_eta/sum_c) and
    b = (s bA/(A_max sum_v), s bl/(l_max sum_v), r au/sum_d + s bu/sum_v,
    r ae/sum_d, r a_eta/sum_d), the sums being the surrogates'
    denominators.  dJ/dx_i = 2q_i*x_i - b_i."""
    c = coeff
    sum_h = c.kA + c.kl
    sum_c = c.ku + c.ke + c.k_eta
    sum_d = c.au + c.ae + c.a_eta
    sum_v = c.bA + c.bl + c.bu
    q = (w.p * c.kA / (c.A_max**2 * sum_h), w.p * c.kl / (c.l_max**2 * sum_h),
         w.q * c.ku / sum_c, w.q * c.ke / sum_c, w.q * c.k_eta / sum_c)
    b = (w.s * c.bA / (c.A_max * sum_v), w.s * c.bl / (c.l_max * sum_v),
         w.r * c.au / sum_d + w.s * c.bu / sum_v, w.r * c.ae / sum_d,
         w.r * c.a_eta / sum_d)
    return q, tuple(2.0 * qi for qi in q), b


def total_cost_arrays(A, l, u, e, eta, w: WeightVector,
                      coeff: ObjectiveCoefficients):
    """Vectorized J = sum((q_i*x_i - b_i)*x_i) (see ``quadratic_form``).

    Inputs of at most ``_BLOCK`` elements each, floats included, are
    evaluated in one pass.  Larger arrays are evaluated in blocks of
    ``_BLOCK`` elements into one output, with the same operations on every
    element, so the result is the one-pass result bit for bit, in its
    dtype and broadcast shape.  Arrays whose terms would differ in dtype
    (float32 beside float64, say) take the one pass whatever their size:
    a partial sum of theirs is rounded to a dtype the output does not
    have."""
    q, _, b = quadratic_form(w, coeff)
    inputs = (A, l, u, e, eta)
    if max(getattr(x, "size", 1) for x in inputs) <= _BLOCK:
        return _total_cost(*inputs, q, b)

    import numpy as np

    # Only arrays are iterated; scalars (Python or numpy, 0-d arrays) enter
    # every block as they are, which keeps numpy's promotion of each term.
    blocked = [i for i, x in enumerate(inputs)
               if isinstance(x, np.ndarray) and x.ndim > 0]
    empty = list(inputs)
    for i in blocked:
        empty[i] = np.empty(0, inputs[i].dtype)
    dtype = _total_cost(*empty, q, b).dtype
    if any(np.result_type(inputs[i], 1.0) != dtype for i in blocked):
        return _total_cost(*inputs, q, b)
    it = np.nditer([inputs[i] for i in blocked] + [None],
                   flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * len(blocked)
                   + [["writeonly", "allocate"]],
                   op_dtypes=[None] * len(blocked) + [dtype],
                   buffersize=_BLOCK)
    scratch = np.empty(_BLOCK, dtype)
    args = list(inputs)
    with it:
        for *chunks, out in it:
            for i, chunk in zip(blocked, chunks):
                args[i] = chunk
            _total_cost_into(out, scratch[:out.size], args, blocked, q, b)
        return it.operands[-1]


def _total_cost(A, l, u, e, eta, q, b):
    return ((q[0] * A - b[0]) * A + (q[1] * l - b[1]) * l
            + (q[2] * u - b[2]) * u + (q[3] * e - b[3]) * e
            + (q[4] * eta - b[4]) * eta)


def _total_cost_into(out, scratch, args, blocked, q, b) -> None:
    """One block of ``_total_cost`` written into ``out``.  The term of each
    blocked input is computed in place, in ``out`` (the first) or in
    ``scratch``, and added into ``out`` in the one-pass order; the terms of
    scalars before the first of them are summed as scalars, as in one pass.
    """
    import numpy as np

    total = None
    for k, (x, qk, bk) in enumerate(zip(args, q, b)):
        if k in blocked:
            t = scratch if total is out else out
            np.multiply(qk, x, out=t)
            t -= bk
            t *= x
        else:
            t = (qk * x - bk) * x
        if total is None:
            total = t
        elif total is out:
            out += t
        elif t is out:
            out += total  # total + t; addition commutes
            total = out
        else:
            total = total + t


def gradient_at(A, l, u, e, eta, w: WeightVector,
                coeff: ObjectiveCoefficients) -> np.ndarray:
    """Gradient of J at raw component values (vectorized over the last
    axis): 2q*x - b."""
    import numpy as np

    _, q2, b = quadratic_form(w, coeff)
    return np.array([q2[0] * A - b[0], q2[1] * l - b[1], q2[2] * u - b[2],
                     q2[3] * e - b[3], q2[4] * eta - b[4]], dtype=float)
