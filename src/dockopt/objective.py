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
vectorized evaluation over design grids.  ``cost_constants`` computes once
per (weights, coefficients) the scalar constants of J and its gradient,
each the same expression in the same evaluation order as in
``objective_terms``/``total_cost_arrays``/``gradient_at``, so scalar code
built on them (the solver's barrier kernel) reproduces those functions'
floats bit for bit.  Only ``gradient_at``, which returns an array,
imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .domain import DesignVector, WeightVector


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


def total_cost_arrays(A, l, u, e, eta, w: WeightVector,
                      coeff: ObjectiveCoefficients):
    """Vectorized J = p h + q c - r d - s v."""
    h, c, d, v = objective_terms(A, l, u, e, eta, coeff)
    return w.p * h + w.q * c - w.r * d - w.s * v


class CostConstants(NamedTuple):
    """Scalar constants of J and its gradient for one (weights,
    coefficients) pair; see ``cost_constants``."""

    # J: normalizers, coefficients, the surrogates' denominators, weights
    A_max: float
    l_max: float
    kA: float
    kl: float
    ku: float
    ke: float
    k_eta: float
    au: float
    ae: float
    a_eta: float
    bA: float
    bl: float
    bu: float
    sum_h: float
    sum_c: float
    sum_d: float
    sum_v: float
    p: float
    q: float
    r: float
    s: float
    # dJ/dA = slope_A * A / curv_A - lin_A, and likewise for l
    slope_A: float
    curv_A: float
    lin_A: float
    slope_l: float
    curv_l: float
    lin_l: float
    # dJ/du = slope_u * u / sum_c - rel_u - ver_u; e and eta have no ver_
    slope_u: float
    rel_u: float
    ver_u: float
    slope_e: float
    rel_e: float
    slope_eta: float
    rel_eta: float


def cost_constants(w: WeightVector,
                   coeff: ObjectiveCoefficients) -> CostConstants:
    """The constants that ``objective_terms``, ``total_cost_arrays`` and
    ``gradient_at`` evaluate on every call, computed once."""
    c = coeff
    sum_h = c.kA + c.kl
    sum_c = c.ku + c.ke + c.k_eta
    sum_d = c.au + c.ae + c.a_eta
    sum_v = c.bA + c.bl + c.bu
    return CostConstants(
        c.A_max, c.l_max, c.kA, c.kl, c.ku, c.ke, c.k_eta, c.au, c.ae,
        c.a_eta, c.bA, c.bl, c.bu, sum_h, sum_c, sum_d, sum_v,
        w.p, w.q, w.r, w.s,
        w.p * 2.0 * c.kA, c.A_max**2 * sum_h, w.s * c.bA / (c.A_max * sum_v),
        w.p * 2.0 * c.kl, c.l_max**2 * sum_h, w.s * c.bl / (c.l_max * sum_v),
        w.q * 2.0 * c.ku, w.r * c.au / sum_d, w.s * c.bu / sum_v,
        w.q * 2.0 * c.ke, w.r * c.ae / sum_d,
        w.q * 2.0 * c.k_eta, w.r * c.a_eta / sum_d)


def gradient_at(A, l, u, e, eta, w: WeightVector,
                coeff: ObjectiveCoefficients) -> np.ndarray:
    """Gradient of J at raw component values (vectorized over the last axis)."""
    import numpy as np

    k = cost_constants(w, coeff)
    dA = k.slope_A * A / k.curv_A - k.lin_A
    dl = k.slope_l * l / k.curv_l - k.lin_l
    du = k.slope_u * u / k.sum_c - k.rel_u - k.ver_u
    de = k.slope_e * e / k.sum_c - k.rel_e
    deta = k.slope_eta * eta / k.sum_c - k.rel_eta
    return np.array([dA, dl, du, de, deta], dtype=float)
