"""Design-variable derivations: formulas, inversions, and properties."""

import math

import numpy as np
import pytest

from dockopt import (DesignVector, DockGeometry, InfeasibleRealizationError,
                     KinematicProfile, ObjectiveCoefficients,
                     SimulationConfig, SolverSettings, WeightVector,
                     calibrate, control_fidelity, default_bounds,
                     docking_tolerance, entry_area_fraction, realize_design,
                     saturate, scenario_by_name)
from dockopt.domain import ENTRY_SPAN_MAX, ENTRY_SPAN_MIN, min_control_fidelity
from helpers import quadrature_entry_fraction


class TestSaturate:
    def test_interior_identity(self):
        assert saturate(0.5) == 0.5

    def test_ceiling(self):
        assert saturate(3.7) == 1.0
        assert saturate(1.0) == 1.0

    def test_floor(self):
        assert saturate(-0.2) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            saturate(bad)


class TestControlFidelity:
    def test_full_authority_and_accuracy(self):
        profile = KinematicProfile(6, 0.1, 1.0, 1.0)
        # alpha_c = 1, sqrt(0.04)/0.1 = 2 saturates to 1
        assert control_fidelity(profile, 0.04) == 1.0

    def test_low_fidelity_hand_value(self):
        profile = KinematicProfile(1, 10.0, 1.0, 1.0)
        expected = (1.0 * (1 / 6) + 1.0 * 0.01) / 2.0
        assert control_fidelity(profile, 0.01) == expected

    def test_weighted_hand_value(self):
        profile = KinematicProfile(3, 0.5, 2.0, 1.0)
        # (2*0.5 + 1*0.5) / 3
        assert control_fidelity(profile, 0.0625) == 0.5

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            KinematicProfile(3, 0.5, 0.0, 0.0)

    def test_nonpositive_area_rejected(self):
        profile = KinematicProfile(3, 0.5)
        with pytest.raises(ValueError):
            control_fidelity(profile, 0.0)

    def test_monotone_in_dof_and_sigma(self):
        values = [control_fidelity(KinematicProfile(dof, 0.8), 0.09)
                  for dof in range(1, 7)]
        assert values == sorted(values)
        sigmas = np.linspace(0.05, 5.0, 40)
        fid = [control_fidelity(KinematicProfile(3, s), 0.09) for s in sigmas]
        assert all(a >= b - 1e-15 for a, b in zip(fid, fid[1:]))


class TestEntryAreaFraction:
    def test_full_sphere(self):
        geom = DockGeometry(0.0, 2 * math.pi, 0.0, math.pi, 0.1)
        assert entry_area_fraction(geom) == 1.0

    def test_hemisphere(self):
        geom = DockGeometry(0.0, 2 * math.pi, 0.0, math.pi / 2, 0.1)
        # exact value is 0.5; IEEE evaluation of the closed form is 1 ulp off
        assert abs(entry_area_fraction(geom) - 0.5) < 1e-15

    def test_belt_hand_integral(self):
        # half azimuth between 45 degrees and the equator: sqrt(2)/2 * pi/(4pi)
        geom = DockGeometry(0.0, math.pi, math.pi / 4, math.pi / 2, 0.1)
        assert entry_area_fraction(geom) == pytest.approx(math.sqrt(2) / 8,
                                                          abs=1e-15)

    def test_bound_generating_spans(self):
        low = entry_area_fraction(DockGeometry(*ENTRY_SPAN_MIN, 0.0))
        high = entry_area_fraction(DockGeometry(*ENTRY_SPAN_MAX, 0.0))
        assert low == pytest.approx(0.177, abs=5e-3)
        assert high == pytest.approx(0.855, abs=5e-3)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            theta = np.sort(rng.uniform(0.0, 2 * math.pi, 2))
            phi = np.sort(rng.uniform(0.0, math.pi, 2))
            geom = DockGeometry(theta[0], theta[1], phi[0], phi[1], 0.0)
            oracle = quadrature_entry_fraction(theta[0], theta[1],
                                               phi[0], phi[1])
            assert abs(entry_area_fraction(geom) - oracle) < 1e-9

    def test_monotone_in_spans(self):
        thetas = np.linspace(0.1, 2 * math.pi, 30)
        vals = [entry_area_fraction(DockGeometry(0.0, t, 0.2, 1.2, 0.0))
                for t in thetas]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        phis = np.linspace(0.05, math.pi / 2, 30)
        vals = [entry_area_fraction(DockGeometry(0.0, math.pi, 0.0, p, 0.0))
                for p in phis]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_angle_invariants_enforced(self):
        with pytest.raises(ValueError):
            DockGeometry(1.0, 0.5, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            DockGeometry(0.0, 1.0, 2.0, 1.0, 0.1)


class TestDockingTolerance:
    def test_saturation_ceiling(self):
        assert docking_tolerance(0.2, 0.1) == 1.0
        assert docking_tolerance(5.0, 0.1) == 1.0

    def test_zero_remaining_clearance(self):
        assert docking_tolerance(0.1, 0.1) == 0.0

    def test_half_clearance(self):
        assert docking_tolerance(0.15, 0.1) == (0.15 - 0.1) / 0.1

    def test_no_dock_sentinel(self):
        # clearance below one sigma saturates to zero instead of going negative
        assert docking_tolerance(0.0, 0.1) == 0.0
        assert docking_tolerance(0.05, 0.1) == 0.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            docking_tolerance(0.1, 0.0)
        with pytest.raises(ValueError):
            docking_tolerance(0.1, -1.0)

    def test_monotone_in_clearance(self):
        grid = np.linspace(0.0, 0.5, 50)
        vals = [docking_tolerance(d, 0.1) for d in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestRealizeDesign:
    def test_full_fidelity_hemisphere(self):
        x = DesignVector(A=0.04, l=1.0, u=1.0, e=0.5, eta=1.0)
        profile, geom = realize_design(x, sigma_c_target=0.1)
        assert profile.dof_count == 6
        assert profile.control_error_sigma == pytest.approx(0.1)
        assert geom.theta2 == pytest.approx(2 * math.pi)
        assert geom.phi2 == pytest.approx(math.pi / 2)
        assert geom.clearance == pytest.approx(0.2)

    def test_full_sphere_for_unit_entry_area(self):
        x = DesignVector(A=0.04, l=1.0, u=1.0, e=1.0, eta=1.0)
        _, geom = realize_design(x, sigma_c_target=0.1)
        assert geom.theta2 == pytest.approx(2 * math.pi)
        assert geom.phi2 == pytest.approx(math.pi)
        assert entry_area_fraction(geom) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tolerance_clearance(self):
        x = DesignVector(A=0.04, l=1.0, u=1.0, e=0.5, eta=0.0)
        profile, geom = realize_design(x, sigma_c_target=0.05)
        assert geom.clearance == pytest.approx(profile.control_error_sigma)
        assert geom.clearance == pytest.approx(0.05)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        bounds = default_bounds()
        floor = min_control_fidelity(1.0, 1.0)
        for _ in range(300):
            lo = np.array(bounds.lower.as_tuple())
            hi = np.array(bounds.upper.as_tuple())
            raw = lo + rng.random(5) * (hi - lo)
            raw[2] = max(raw[2], floor + 1e-3)
            x = DesignVector(*raw)
            profile, geom = realize_design(x, sigma_c_target=0.1)
            assert abs(control_fidelity(profile, x.A) - x.u) <= 1 / 12
            assert abs(entry_area_fraction(geom) - x.e) < 1e-9
            rederived = docking_tolerance(geom.clearance,
                                          profile.control_error_sigma)
            assert abs(rederived - x.eta) < 1e-12

    def test_exact_u_recovery_with_accuracy_weight(self):
        x = DesignVector(A=0.25, l=2.0, u=0.4, e=0.3, eta=0.5)
        profile, _ = realize_design(x, sigma_c_target=0.1, w1=1.0, w2=3.0)
        assert control_fidelity(profile, x.A) == pytest.approx(0.4, abs=1e-12)

    def test_authority_floor_infeasible(self):
        x = DesignVector(A=0.01, l=0.5, u=0.083, e=0.3, eta=0.5)
        with pytest.raises(InfeasibleRealizationError) as err:
            realize_design(x, sigma_c_target=0.1)
        assert "0.0833" in str(err.value)

    def test_authority_only_requires_sixth_steps(self):
        x_ok = DesignVector(A=0.04, l=1.0, u=0.5, e=0.5, eta=0.5)
        profile, _ = realize_design(x_ok, sigma_c_target=0.1, w1=1.0, w2=0.0)
        assert profile.dof_count == 3
        # below 1/12 no DOF count lands within half a step
        x_bad = DesignVector(A=0.04, l=1.0, u=0.05, e=0.5, eta=0.5)
        with pytest.raises(InfeasibleRealizationError):
            realize_design(x_bad, sigma_c_target=0.1, w1=1.0, w2=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["w1", "w2"])
    def test_non_finite_weight_named(self, name, bad):
        x = DesignVector(A=0.25, l=2.0, u=0.4, e=0.3, eta=0.5)
        with pytest.raises(ValueError, match=f"weight {name} ") as err:
            realize_design(x, 0.1, **{"w1": 1.0, "w2": 1.0, name: bad})
        assert not isinstance(err.value, InfeasibleRealizationError)


_GEOMETRY = DockGeometry(0.0, math.pi, 0.0, math.pi / 2, 0.2)


@pytest.mark.parametrize("name, build", [
    ("multistart_count", lambda v: SolverSettings(multistart_count=v)),
    ("seed", lambda v: SolverSettings(seed=v)),
    ("samples", lambda v: SimulationConfig(_GEOMETRY, 0.1, samples=v)),
    ("seed", lambda v: SimulationConfig(_GEOMETRY, 0.1, seed=v)),
    ("dof_count", lambda v: KinematicProfile(v, 0.1)),
    ("budget", lambda v: calibrate(scenario_by_name("general"),
                                   ObjectiveCoefficients(), budget=v)),
], ids=["solver-starts", "solver-seed", "samples", "simulation-seed",
        "dof_count", "budget"])
@pytest.mark.parametrize("value", [True, 2.0, 2.5, math.nan])
def test_integer_inputs_reject_bools_and_floats(name, build, value):
    """Every integer input shares one rule: an int, never a bool or a
    float, even an integral one."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(value)


class TestTypeInvariants:
    def test_design_vector_ranges(self):
        with pytest.raises(ValueError):
            DesignVector(A=-0.1, l=1.0, u=0.5, e=0.5, eta=0.5)
        with pytest.raises(ValueError):
            DesignVector(A=0.1, l=1.0, u=0.0, e=0.5, eta=0.5)
        with pytest.raises(ValueError):
            DesignVector(A=0.1, l=1.0, u=0.5, e=1.2, eta=0.5)

    def test_weights_nonnegative_one_positive(self):
        with pytest.raises(ValueError):
            WeightVector(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            WeightVector(1.0, -0.1, 0.0, 0.0)

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            bounds = default_bounds()
            type(bounds)(lower=bounds.upper, upper=bounds.lower)

    def test_default_bounds_values(self):
        bounds = default_bounds()
        assert bounds.lower.as_tuple() == (0.01, 0.5, 0.083, 0.177, 0.0)
        assert bounds.upper.as_tuple() == (1.0, 3.0, 1.0, 0.855, 1.0)


def test_derived_values_stay_in_range_fuzz():
    rng = np.random.default_rng(99)
    n = 100_000
    dof = rng.integers(1, 7, n)
    sigma = rng.uniform(1e-3, 10.0, n)
    w1 = rng.uniform(0.0, 5.0, n)
    w2 = rng.uniform(0.0, 5.0, n)
    keep = w1 + w2 > 0
    area = rng.uniform(1e-4, 4.0, n)
    authority = dof / 6.0
    accuracy = np.clip(np.sqrt(area) / sigma, 0.0, 1.0)
    fidelity = (w1 * authority + w2 * accuracy) / (w1 + w2)
    assert np.all((fidelity[keep] > 0.0) & (fidelity[keep] <= 1.0))

    theta = np.sort(rng.uniform(0.0, 2 * math.pi, (n, 2)), axis=1)
    phi = np.sort(rng.uniform(0.0, math.pi, (n, 2)), axis=1)
    fraction = np.abs(np.cos(phi[:, 1]) - np.cos(phi[:, 0])) \
        * (theta[:, 1] - theta[:, 0]) / (4 * math.pi)
    fraction = np.clip(fraction, 0.0, 1.0)
    assert np.all((fraction >= 0.0) & (fraction <= 1.0))

    clearance = rng.uniform(0.0, 5.0, n)
    tolerance = np.clip((clearance - sigma) / sigma, 0.0, 1.0)
    assert np.all((tolerance >= 0.0) & (tolerance <= 1.0))

    # spot-check the scalar implementations against the vectorized fuzz
    for i in rng.integers(0, n, 200):
        if w1[i] + w2[i] <= 0:
            continue
        profile = KinematicProfile(int(dof[i]), float(sigma[i]),
                                   float(w1[i]), float(w2[i]))
        assert control_fidelity(profile, float(area[i])) == pytest.approx(
            float(fidelity[i]), abs=1e-12)
        assert docking_tolerance(float(clearance[i]), float(sigma[i])) \
            == pytest.approx(float(tolerance[i]), abs=1e-12)
