"""Design variables for AUV-dock co-design and their physical derivations.

The optimizer works on five abstract design variables: vehicle frontal
area ``A`` (m^2), vehicle length ``l`` (m), control fidelity ``u``,
relative dock entry area ``e``, and docking tolerance ``eta`` (the last
three dimensionless in [0, 1]).  The dimensionless variables are derived
from concrete vehicle and dock parameters (controlled degrees of freedom,
motion-error standard deviation, dock entry angle spans, lateral
clearance); this module holds both the forward derivations and a
deterministic inverse mapping back to physical parameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

FULL_SPHERE = 4.0 * math.pi

# Span choices that generate the default entry-area bounds: a half-azimuth
# belt between 45 degrees and the equator (~0.177) and a full-azimuth cap
# reaching 45 degrees past the equator (~0.854).
ENTRY_SPAN_MIN = (0.0, math.pi, math.pi / 4.0, math.pi / 2.0)
ENTRY_SPAN_MAX = (0.0, 2.0 * math.pi, 0.0, 3.0 * math.pi / 4.0)


class InfeasibleRealizationError(ValueError):
    """No physical parameter set can reproduce the requested design variables."""


def check_integer(name: str, value, least: int, most: int | None = None,
                  ) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) in
    ``[least, most]``; no upper limit when ``most`` is None."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


@dataclass(frozen=True, slots=True)
class DesignVector:
    """Abstract co-design variables ``[A, l, u, e, eta]``.

    A: frontal area in m^2; l: vehicle length in m; u: control fidelity;
    e: relative dock entry area; eta: docking tolerance.
    """

    A: float
    l: float
    u: float
    e: float
    eta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValueError("design vector components must be finite")
        if self.A <= 0.0:
            raise ValueError(f"frontal area A must be positive, got {self.A}")
        if self.l <= 0.0:
            raise ValueError(f"length l must be positive, got {self.l}")
        if not 0.0 < self.u <= 1.0:
            raise ValueError(f"control fidelity u must be in (0, 1], got {self.u}")
        if not 0.0 <= self.e <= 1.0:
            raise ValueError(f"entry area fraction e must be in [0, 1], got {self.e}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"docking tolerance eta must be in [0, 1], got {self.eta}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.A, self.l, self.u, self.e, self.eta)


@dataclass(frozen=True)
class WeightVector:
    """Design-intent weights: p (hydrodynamic loss), q (cost), r (docking
    success), s (versatility).

    Stored as nonnegative magnitudes; the scalarizer applies the
    minus signs on the maximized objectives internally.
    """

    p: float
    q: float
    r: float
    s: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"weight {f.name} must be finite and >= 0, got {value}")
        if self.p + self.q + self.r + self.s <= 0.0:
            raise ValueError("at least one weight must be strictly positive")

    def scaled(self, factor: float) -> "WeightVector":
        return WeightVector(self.p * factor, self.q * factor,
                            self.r * factor, self.s * factor)


@dataclass(frozen=True)
class DesignBounds:
    """Componentwise box bounds for the design vector."""

    lower: DesignVector
    upper: DesignVector

    def __post_init__(self) -> None:
        for f in fields(DesignVector):
            lo, hi = getattr(self.lower, f.name), getattr(self.upper, f.name)
            if not lo < hi:
                raise ValueError(f"bound on {f.name} requires lower < upper, "
                                 f"got [{lo}, {hi}]")

    def contains(self, x: DesignVector, slack: float = 0.0) -> bool:
        return all(lo - slack <= v <= hi + slack for lo, v, hi in
                   zip(self.lower.as_tuple(), x.as_tuple(), self.upper.as_tuple()))


def default_bounds() -> DesignBounds:
    """Standard search box: A in [0.01, 1] m^2, l in [0.5, 3] m,
    u in [0.083, 1], e in [0.177, 0.855], eta in [0, 1]."""
    return DesignBounds(
        lower=DesignVector(A=0.01, l=0.5, u=0.083, e=0.177, eta=0.0),
        upper=DesignVector(A=1.0, l=3.0, u=1.0, e=0.855, eta=1.0),
    )


@dataclass(frozen=True)
class KinematicProfile:
    """Vehicle-side control parameters.

    dof_count: independently controlled degrees of freedom (1..6);
    control_error_sigma: standard deviation of linear motion control
    error in m; authority_weight / accuracy_weight: user prioritization
    between control authority and control accuracy.
    """

    dof_count: int
    control_error_sigma: float
    authority_weight: float = 1.0
    accuracy_weight: float = 1.0

    def __post_init__(self) -> None:
        check_integer("dof_count", self.dof_count, 1, 6)
        if not (math.isfinite(self.control_error_sigma) and self.control_error_sigma > 0.0):
            raise ValueError(f"control error sigma_c must be positive and "
                             f"finite, got {self.control_error_sigma}")
        if not all(math.isfinite(w) and w >= 0.0
                   for w in (self.authority_weight, self.accuracy_weight)):
            raise ValueError(f"authority_weight and accuracy_weight must be "
                             f"finite and >= 0, got {self.authority_weight}, "
                             f"{self.accuracy_weight}")
        if self.authority_weight + self.accuracy_weight <= 0.0:
            raise ValueError("authority_weight + accuracy_weight must be positive")


@dataclass(frozen=True)
class DockGeometry:
    """Dock-side entry geometry on the unit sphere plus lateral clearance.

    Azimuthal span [theta1, theta2] within [0, 2*pi], polar span
    [phi1, phi2] within [0, pi] measured from the +z pole, and the
    single-side clearance D in m.  D < sigma_c is permitted as a
    "no dock margin" input; the tolerance mapping saturates it to 0.
    """

    theta1: float
    theta2: float
    phi1: float
    phi2: float
    clearance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta1 <= self.theta2 <= 2.0 * math.pi + 1e-12:
            raise ValueError(f"need 0 <= theta1 <= theta2 <= 2*pi, got "
                             f"[{self.theta1}, {self.theta2}]")
        if not 0.0 <= self.phi1 <= self.phi2 <= math.pi + 1e-12:
            raise ValueError(f"need 0 <= phi1 <= phi2 <= pi, got "
                             f"[{self.phi1}, {self.phi2}]")
        if not (math.isfinite(self.clearance) and self.clearance >= 0.0):
            raise ValueError("clearance must be finite and >= 0")


def saturate(x: float) -> float:
    """Clamp a dimensionless value to [0, 1].

    The ceiling keeps ratio-derived quantities at most 1; the floor keeps
    them nonnegative when the numerator goes negative (e.g. clearance
    smaller than the control error).
    """
    if not math.isfinite(x):
        raise ValueError(f"saturate requires a finite value, got {x}")
    return min(max(x, 0.0), 1.0)


def control_fidelity(profile: KinematicProfile, frontal_area: float) -> float:
    """Composite control fidelity in (0, 1].

    Weighted mean of control authority (fraction of the six rigid-body
    degrees of freedom under independent control) and control accuracy
    (vehicle scale sqrt(A) relative to the motion error sigma_c,
    saturated at 1).
    """
    if not (math.isfinite(frontal_area) and frontal_area > 0.0):
        raise ValueError("frontal_area must be positive and finite")
    w1 = profile.authority_weight
    w2 = profile.accuracy_weight
    authority = profile.dof_count / 6.0
    accuracy = saturate(math.sqrt(frontal_area) / profile.control_error_sigma)
    return (w1 * authority + w2 * accuracy) / (w1 + w2)


def entry_area_fraction(geom: DockGeometry) -> float:
    """Fraction of the unit sphere covered by the dock entry patch.

    Equals the exact spherical-patch integral of sin(phi) over the angle
    spans, normalized by the full sphere area 4*pi, clamped to [0, 1].
    """
    patch = abs(math.cos(geom.phi2) - math.cos(geom.phi1)) * (geom.theta2 - geom.theta1)
    return min(max(patch / FULL_SPHERE, 0.0), 1.0)


def docking_tolerance(clearance: float, sigma_c: float) -> float:
    """Normalized lateral clearance remaining after one standard deviation
    of control error: sat((D - sigma_c) / sigma_c) in [0, 1]."""
    if not (math.isfinite(sigma_c) and sigma_c > 0.0):
        raise ValueError(f"sigma_c must be positive and finite, got {sigma_c}")
    if not math.isfinite(clearance):
        raise ValueError("clearance must be finite")
    return saturate((clearance - sigma_c) / sigma_c)


def min_control_fidelity(w1: float, w2: float) -> float:
    """Infimum of achievable control fidelity (dof_count=1, accuracy -> 0).

    Open from below: the accuracy term is strictly positive for any
    positive frontal area and finite sigma_c.
    """
    return (w1 / 6.0) / (w1 + w2)


def realize_design(x: DesignVector, sigma_c_target: float,
                   w1: float = 1.0, w2: float = 1.0,
                   ) -> tuple[KinematicProfile, DockGeometry]:
    """Invert the derivations: find physical parameters reproducing x.

    Deterministic choice among the many valid inversions:

    * dof_count starts at round(6*u) and is stepped until the residual
      accuracy requirement lands in (0, 1]; the reported sigma_c is then
      fitted so the accuracy term matches exactly (u reproduced exactly
      whenever w2 > 0, within 1/12 otherwise).
    * entry geometry uses theta1 = phi1 = 0 and the equator phi2 = pi/2,
      growing theta2 up to 2*pi and only then opening phi2 further.
    * clearance D = (1 + eta) * sigma_c reproduces eta exactly.

    Raises ValueError naming a weight that is not finite and >= 0, and
    InfeasibleRealizationError when u is at or below the authority floor
    w1/(6*(w1+w2)), which no accuracy value can compensate.
    """
    if not (math.isfinite(sigma_c_target) and sigma_c_target > 0.0):
        raise ValueError("sigma_c_target must be positive and finite")
    for name, weight in (("w1", w1), ("w2", w2)):
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError(f"weight {name} must be finite and >= 0, "
                             f"got {weight}")
    if w1 + w2 <= 0.0:
        raise ValueError("w1 + w2 must be positive")

    profile = _invert_fidelity(x.u, x.A, sigma_c_target, w1, w2)
    geometry = _invert_entry_area(x.e, clearance=(1.0 + x.eta) * profile.control_error_sigma)
    return profile, geometry


def _invert_fidelity(u: float, frontal_area: float, sigma_c_target: float,
                     w1: float, w2: float) -> KinematicProfile:
    nearest_dof = min(max(int(math.floor(6.0 * u + 0.5)), 1), 6)

    if w2 == 0.0:
        # Authority-only profile; u must sit within half a DOF step.
        if abs(nearest_dof / 6.0 - u) > 1.0 / 12.0 + 1e-12:
            achievable = min(max(nearest_dof / 6.0, 1.0 / 6.0), 1.0)
            raise InfeasibleRealizationError(
                f"u={u} not realizable with accuracy weight 0; closest "
                f"achievable fidelity is {achievable:.6f}")
        return KinematicProfile(nearest_dof, sigma_c_target, w1, w2)

    candidates = [nearest_dof]
    candidates += [c for c in range(nearest_dof + 1, 7)]
    candidates += [c for c in range(nearest_dof - 1, 0, -1)]
    for dof in candidates:
        accuracy = ((w1 + w2) * u - w1 * (dof / 6.0)) / w2
        if 0.0 < accuracy <= 1.0:
            if accuracy < 1.0:
                sigma_c = math.sqrt(frontal_area) / accuracy
            else:
                # Any sigma_c at or below sqrt(A) saturates accuracy at 1;
                # keep the requested value when possible.
                sigma_c = min(sigma_c_target, math.sqrt(frontal_area))
            return KinematicProfile(dof, sigma_c, w1, w2)

    floor = min_control_fidelity(w1, w2)
    raise InfeasibleRealizationError(
        f"u={u} is at or below the authority floor; achievable fidelity "
        f"requires u > {floor:.6f}")


def _invert_entry_area(e: float, clearance: float) -> DockGeometry:
    if e <= 0.5:
        # Grow the azimuthal span along the equatorial half-dome.
        theta2 = FULL_SPHERE * e  # |cos(pi/2) - cos(0)| = 1
        return DockGeometry(0.0, min(theta2, 2.0 * math.pi), 0.0, math.pi / 2.0,
                            clearance)
    phi2 = math.acos(1.0 - 2.0 * e)  # full azimuth: e = (1 - cos(phi2)) / 2
    return DockGeometry(0.0, 2.0 * math.pi, 0.0, phi2, clearance)
