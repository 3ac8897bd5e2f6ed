"""Objective surrogates: hand-computed values, gradients, range properties."""

import tracemalloc

import numpy as np
import pytest

from dockopt import (DesignVector, ObjectiveCoefficients, WeightVector,
                     docking_reliability, hydro_loss, monetary_cost,
                     total_cost, versatility)
import dockopt.objective
from dockopt.objective import (_BLOCK, gradient_at, objective_terms,
                               quadratic_form, total_cost_arrays)

ONES = ObjectiveCoefficients()
A_MAX, L_MAX = ONES.A_max, ONES.l_max


def design(A=0.03, l=1.5, u=0.5, e=0.5, eta=0.5):
    return DesignVector(A=A, l=l, u=u, e=e, eta=eta)


class TestHydroLoss:
    def test_normalized_maximum(self):
        assert hydro_loss(design(A=A_MAX, l=L_MAX), ONES) == 1.0
        skewed = ObjectiveCoefficients(kA=3.0, kl=0.2)
        assert hydro_loss(design(A=A_MAX, l=L_MAX), skewed) == pytest.approx(1.0)

    def test_half_area_hand_value(self):
        # (1 * 0.5^2 + 1 * 0) / 2 with a vanishing length contribution
        x = design(A=0.5 * A_MAX, l=1e-12)
        assert hydro_loss(x, ONES) == pytest.approx(0.125, abs=1e-9)

    def test_pure_area_term(self):
        coeff = ObjectiveCoefficients(kA=1.0, kl=0.0)
        assert hydro_loss(design(A=0.1 * A_MAX), coeff) == pytest.approx(0.01)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveCoefficients(kA=0.0, kl=0.0)


class TestMonetaryCost:
    def test_normalized_maximum(self):
        assert monetary_cost(design(u=1.0, e=1.0, eta=1.0), ONES) == 1.0

    def test_hand_value(self):
        assert monetary_cost(design(u=0.5, e=0.5, eta=0.5), ONES) == 0.25

    def test_dropped_term_is_flat(self):
        coeff = ObjectiveCoefficients(ke=0.0)
        lo = monetary_cost(design(e=0.2), coeff)
        hi = monetary_cost(design(e=0.8), coeff)
        assert lo == hi

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveCoefficients(ku=0.0, ke=0.0, k_eta=0.0)


class TestDockingReliability:
    def test_normalized_maximum(self):
        assert docking_reliability(design(u=1.0, e=1.0, eta=1.0), ONES) == 1.0

    def test_single_component(self):
        x = design(u=1.0, e=1e-12, eta=1e-12)
        assert docking_reliability(x, ONES) == pytest.approx(1 / 3, abs=1e-9)

    def test_vanishing_components(self):
        x = design(u=1e-12, e=1e-12, eta=1e-12)
        assert docking_reliability(x, ONES) == pytest.approx(0.0, abs=1e-9)


class TestVersatility:
    def test_normalized_maximum(self):
        assert versatility(design(A=A_MAX, l=L_MAX, u=1.0), ONES) == 1.0

    def test_hand_value(self):
        x = design(A=0.5 * A_MAX, l=0.5 * L_MAX, u=0.5)
        assert versatility(x, ONES) == pytest.approx(0.5)

    def test_dropped_fidelity_term(self):
        coeff = ObjectiveCoefficients(bu=0.0)
        assert versatility(design(u=0.1), coeff) == versatility(design(u=0.9),
                                                                coeff)


class TestTotalCost:
    def test_symmetric_cancellation(self):
        # h = c = d = v = 1 at the normalized maximum corner
        x = design(A=A_MAX, l=L_MAX, u=1.0, e=1.0, eta=1.0)
        values = total_cost(x, WeightVector(1, 1, 1, 1), ONES)
        assert values.h == values.c == values.d == values.v == 1.0
        assert values.J == 0.0

    def test_single_term_selection(self):
        x = design()
        values = total_cost(x, WeightVector(1, 0, 0, 0), ONES)
        assert values.J == values.h == hydro_loss(x, ONES)

    def test_scalarization_identity(self):
        x = design(A=0.4, l=2.2, u=0.7, e=0.3, eta=0.9)
        w = WeightVector(0.3, 1.7, 0.9, 0.2)
        values = total_cost(x, w, ONES)
        assert values.J == w.p * values.h + w.q * values.c \
            - w.r * values.d - w.s * values.v

    def test_golden_at_default_initial_guess(self):
        # hand evaluation with all-ones coefficients:
        # h = (0.03^2 + 0.5^2)/2, c = 0.25, d = 0.5, v = (0.03 + 0.5 + 0.5)/3
        values = total_cost(design(), WeightVector(1, 1, 1, 1), ONES)
        assert values.h == pytest.approx((0.0009 + 0.25) / 2, abs=1e-15)
        assert values.c == pytest.approx(0.25, abs=1e-15)
        assert values.d == pytest.approx(0.5, abs=1e-15)
        assert values.v == pytest.approx(1.03 / 3, abs=1e-15)
        assert values.J == pytest.approx(0.12545 + 0.25 - 0.5 - 1.03 / 3,
                                         abs=1e-12)


class TestGradient:
    def test_zero_weights_zero_gradient(self):
        # an all-zero weight vector is rejected by the type, so probe the
        # gradient path directly
        g = gradient_at(0.3, 1.5, 0.5, 0.5, 0.5,
                        WeightVector(1e-300, 1e-300, 1e-300, 1e-300), ONES)
        assert np.allclose(g, 0.0, atol=1e-290)

    def test_pure_quadratic_area_slope(self):
        coeff = ObjectiveCoefficients(kl=0.0)
        w = WeightVector(1, 0, 0, 0)
        for area in (0.05, 0.3, 0.9):
            g = gradient_at(*design(A=area).as_tuple(), w, coeff)
            assert g[0] == pytest.approx(2 * area / A_MAX**2, rel=1e-12)
            assert np.allclose(g[1:], 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        lb = np.array([0.01, 0.5, 0.083, 0.177, 0.0])
        ub = np.array([1.0, 3.0, 1.0, 0.855, 1.0])
        for _ in range(10):
            w = WeightVector(*(rng.random(4) * 2.0))
            coeff = ObjectiveCoefficients(*(rng.random(11) * 2.0 + 0.05))
            for _ in range(100):
                x = lb + rng.random(5) * (ub - lb)
                analytic = gradient_at(*x, w, coeff)
                fd = np.empty(5)
                for i in range(5):
                    h = 1e-6 * (ub[i] - lb[i])
                    plus, minus = x.copy(), x.copy()
                    plus[i] += h
                    minus[i] -= h
                    fd[i] = (total_cost_arrays(*plus, w, coeff)
                             - total_cost_arrays(*minus, w, coeff)) / (2 * h)
                rel = np.linalg.norm(fd - analytic) \
                    / max(np.linalg.norm(analytic), 1e-12)
                assert rel < 1e-5

    def test_reliability_only_eta_slope_is_negative(self):
        # with no cost weight, raising eta can only improve (lower) J
        w = WeightVector(1.0, 0.0, 1.0, 1.0)
        for eta in np.linspace(0.0, 1.0, 7):
            g = gradient_at(*design(eta=max(eta, 1e-9)).as_tuple(), w, ONES)
            assert g[4] < 0.0

    def test_eta_slope_sign_structure(self):
        coeff = ObjectiveCoefficients()
        w = WeightVector(1.0, 1.0, 1.0, 1.0)
        for eta in (0.1, 0.5, 0.9):
            predicted = 2 * w.q * coeff.k_eta * eta / 3 - w.r * coeff.a_eta / 3
            g = gradient_at(*design(eta=eta).as_tuple(), w, coeff)
            assert g[4] == pytest.approx(predicted, rel=1e-12)


def test_scores_stay_in_unit_range_fuzz():
    rng = np.random.default_rng(77)
    n = 100_000
    A = rng.uniform(0.01, 1.0, n)
    l = rng.uniform(0.5, 3.0, n)
    u = rng.uniform(1e-6, 1.0, n)
    e = rng.uniform(0.0, 1.0, n)
    eta = rng.uniform(0.0, 1.0, n)
    for coeff in (ONES, ObjectiveCoefficients(*(np.linspace(0.2, 2.2, 11)))):
        h, c, d, v = objective_terms(A, l, u, e, eta, coeff)
        for name, term in (("h", h), ("c", c), ("d", d), ("v", v)):
            assert np.all(term >= 0.0), name
            assert np.all(term <= 1.0 + 1e-12), name


def test_weight_scaling_is_linear_in_J():
    x = design(A=0.4, l=2.0, u=0.6, e=0.4, eta=0.8)
    w = WeightVector(0.7, 1.3, 0.4, 2.0)
    base = total_cost(x, w, ONES).J
    for factor in (2.0, 10.0, 0.25):
        scaled = total_cost(x, w.scaled(factor), ONES).J
        assert scaled == pytest.approx(factor * base, rel=1e-12)


class TestBlockedBulkCost:
    """Inputs larger than one block are evaluated block by block; the
    result must be the one-pass expression's, bit for bit, in its dtype
    and shape."""

    W = WeightVector(0.7, 1.3, 0.4, 2.0)
    # Python floats, so float32 inputs give a float32 J
    COEFF = ObjectiveCoefficients(*map(float, np.linspace(0.2, 2.2, 11)))

    def unblocked(self, A, l, u, e, eta):
        q, _, b = quadratic_form(self.W, self.COEFF)
        return ((q[0] * A - b[0]) * A + (q[1] * l - b[1]) * l
                + (q[2] * u - b[2]) * u + (q[3] * e - b[3]) * e
                + (q[4] * eta - b[4]) * eta)

    def assert_same(self, *x):
        got = total_cost_arrays(*x, self.W, self.COEFF)
        expected = self.unblocked(*x)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        return got

    @staticmethod
    def rows(n, seed=3, dtype=float):
        return (np.random.default_rng(seed).random((5, n)) + 0.01) \
            .astype(dtype)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 17])
    def test_sizes_around_the_block(self, n):
        self.assert_same(*self.rows(n))

    def test_each_block_is_one_evaluation(self, monkeypatch):
        calls = []
        original = dockopt.objective._total_cost_into

        def counting(out, scratch, args, *rest):
            calls.append((out.size, scratch.size,
                          [np.size(x) for x in args]))
            return original(out, scratch, args, *rest)

        monkeypatch.setattr(dockopt.objective, "_total_cost_into", counting)
        total_cost_arrays(*self.rows(3 * _BLOCK + 17), self.W, self.COEFF)
        # one call per block, each on block-sized pieces of all five inputs
        assert calls == [(n, n, [n] * 5) for n in [_BLOCK] * 3 + [17]]

    def test_bulk_path_allocates_one_output_and_cache_sized_buffers(self):
        # tracemalloc sees numpy's buffers: beyond the output, the blocked
        # path may hold at most 4 blocks of float64 at any time
        x = self.rows(1_000_000)
        total_cost_arrays(*x, self.W, self.COEFF)  # imports and caches
        tracemalloc.start()
        try:
            got = total_cost_arrays(*x, self.W, self.COEFF)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.nbytes == 8 * 1_000_000
        assert peak - got.nbytes <= 4 * _BLOCK * 8

    def test_python_float_broadcast_against_large_arrays(self):
        A, l, u, e, eta = self.rows(2 * _BLOCK + 5)
        self.assert_same(0.3, l, u, 0.5, eta)
        self.assert_same(A, 1.5, 0.25, e, 0.75)
        self.assert_same(0.3, 1.5, u, 0.5, eta)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_int_and_float32_inputs(self, dtype):
        x = self.rows(_BLOCK + 1, dtype=np.float64)
        if dtype is np.int64:
            x = np.round(10 * x)
        x = x.astype(dtype)
        got = self.assert_same(*x)
        assert got.dtype == (np.float64 if dtype is np.int64 else np.float32)
        self.assert_same(x[0], 1.5, *x[2:].astype(np.float64))

    def test_non_contiguous_views(self):
        columns = self.rows(2 * _BLOCK + 9).T.copy()  # (n, 5), C order
        self.assert_same(*(columns[:, i] for i in range(5)))
        self.assert_same(*(row[::2] for row in self.rows(3 * _BLOCK + 1)))

    def test_multidimensional_broadcast(self):
        A, l, u, e, eta = self.rows(_BLOCK + 3)
        self.assert_same(A[:, None], l[:3][None, :], u[:, None],
                         e[:3][None, :], 0.5)

    def test_sparse_meshes(self):
        # as in tests/helpers.grid_min_cost: small axes, one float
        axes = [np.linspace(0.1, 1.0, 20) for _ in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        self.assert_same(0.4, *mesh)
        # one axis larger than a block
        big = np.meshgrid(np.linspace(0.1, 1.0, _BLOCK + 2),
                          np.linspace(0.2, 0.9, 3), indexing="ij",
                          sparse=True)
        self.assert_same(big[0], big[1], 0.5, big[1], big[0])
