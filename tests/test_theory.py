import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrec._common import default_zero_tol
from genrec.generator import Activation, forward, random_gaussian_net
from genrec.theory import (ConditionReport, estimate_rho_star,
                           every_r_rows_full_rank, k_majority_condition,
                           l0_recovery_bruteforce, l0_separation, latent_grid,
                           leaky_beta, leaky_layer_ratios, norm_bounds_check,
                           relu_path_kinks, relu_path_slope, relu_path_value,
                           rho_star_from_reports, worst_support)

from conftest import make_linear_net


class TestL0Separation:
    def test_same_point_is_zero(self, rng):
        net = random_gaussian_net([2, 5, 7], Activation("relu"), 1)
        mat = rng.standard_normal((4, 7))
        z = rng.standard_normal(2)
        assert l0_separation(net, mat, z, z, 1e-12) == 0

    def test_all_ones_column(self):
        # W = [1,1,1]^T, M = I: z=1 vs z0=0 differs in all 3 coordinates,
        # so l = 1 is admissible (3 >= 2*1+1)
        net = make_linear_net([[[1.0], [1.0], [1.0]]])
        sep = l0_separation(net, np.eye(3), [1.0], [0.0], 1e-12)
        assert sep == 3

    def test_matches_recount_oracle(self, rng):
        net = random_gaussian_net([3, 8, 12], Activation("leaky_relu", 0.3), 2)
        mat = rng.standard_normal((9, 12))
        for _ in range(100):
            z, z0 = rng.standard_normal((2, 3))
            tol = default_zero_tol(mat @ forward(net, z0))
            got = l0_separation(net, mat, z, z0, tol)
            diff = mat @ forward(net, z) - mat @ forward(net, z0)
            oracle = sum(1 for d in diff if abs(d) > tol)
            assert got == oracle


class TestL0RecoveryBruteforce:
    def test_no_outliers_recovers_on_any_grid(self, rng):
        net = random_gaussian_net([1, 6], Activation("identity"), 3)
        mat = rng.standard_normal((8, 6))
        grid = latent_grid(1, points=101)
        z0 = grid[37]
        recovered, e = l0_recovery_bruteforce(net, mat, z0, 0, grid)
        assert recovered
        assert not np.any(e)

    def test_tie_defeats_uniqueness(self):
        # composite output touches exactly 2 coordinates: separation == 2*l
        w = np.zeros((6, 1))
        w[:2, 0] = 1.0
        net = make_linear_net([w])
        grid = latent_grid(1, points=41)
        z0 = grid[20]
        recovered, e = l0_recovery_bruteforce(net, np.eye(6), z0, 1, grid)
        assert not recovered
        assert np.count_nonzero(e) == 1

    def test_wide_separation_recovers_with_outliers(self, rng):
        net = random_gaussian_net([1, 10], Activation("identity"), 4)
        mat = rng.standard_normal((15, 10))
        grid = latent_grid(1, points=151)
        z0 = grid[75]
        tol = default_zero_tol(mat @ forward(net, z0))
        seps = [l0_separation(net, mat, z, z0, tol)
                for z in grid if not np.array_equal(z, z0)]
        assert min(seps) >= 5  # 2*2+1
        recovered, e = l0_recovery_bruteforce(net, mat, z0, 2, grid)
        assert recovered
        assert np.count_nonzero(e) == 2

    def test_grid_must_contain_z0(self, rng):
        net = random_gaussian_net([1, 6], Activation("identity"), 3)
        mat = rng.standard_normal((8, 6))
        with pytest.raises(ValueError):
            l0_recovery_bruteforce(net, mat, [0.123456], 1, latent_grid(1, 21))

    def test_k_above_two_rejected(self, rng):
        net = random_gaussian_net([3, 6], Activation("identity"), 3)
        mat = rng.standard_normal((6, 6))
        with pytest.raises(ValueError):
            l0_recovery_bruteforce(net, mat, np.zeros(3), 1, np.zeros((1, 3)))


class TestEveryRRowsFullRank:
    def test_identity_square(self):
        rep = every_r_rows_full_rank(np.eye(3), 3)
        assert rep.failures == 0
        assert rep.trials == 1
        assert rep.min_margin > 0

    def test_random_composite_all_792_submatrices(self, rng):
        w = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 3))
        rep = every_r_rows_full_rank(w, 7)
        assert rep.trials == 792
        assert rep.failures == 0

    def test_duplicated_rows_fail(self):
        w = np.array([[1.0, 2.0], [1.0, 2.0]])
        rep = every_r_rows_full_rank(w, 2)
        assert rep.failures == 1
        assert rep.min_margin <= rep.params["sv_tol"]

    def test_budget_exceeded_advises_sampling(self, rng):
        w = rng.standard_normal((40, 3))
        with pytest.raises(ValueError, match="sample"):
            every_r_rows_full_rank(w, 20, budget=1000)


class TestLeakyBeta:
    def test_same_sign_positive(self):
        assert leaky_beta(2.0, 1.0, 0.5) == 1.0

    def test_mixed_sign(self):
        assert leaky_beta(2.0, -2.0, 0.5) == 0.75

    def test_same_sign_negative(self):
        assert leaky_beta(-1.0, -3.0, 0.5) == 0.5

    def test_equal_arguments_rejected(self):
        with pytest.raises(ValueError):
            leaky_beta(1.0, 1.0, 0.5)

    @given(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8),
           st.floats(1e-9, 1.0, exclude_min=False))
    @settings(max_examples=500, deadline=None)
    def test_always_in_h_one(self, x, y, h):
        if x == y:
            return
        beta = leaky_beta(x, y, h)
        assert h <= beta <= 1.0

    def test_large_random_sweep_exact(self, rng):
        for _ in range(100_000):
            x, y = rng.standard_normal(2)
            if x == y:
                continue
            h = rng.uniform(1e-6, 1.0)
            beta = leaky_beta(x, y, h)
            assert h <= beta <= 1.0

    def test_layer_lift_within_bounds(self, rng):
        h = 0.3
        net = random_gaussian_net([4, 9, 15], Activation("leaky_relu", h), 5)
        for _ in range(50):
            z, z0 = rng.standard_normal((2, 4))
            for ratios in leaky_layer_ratios(net, z, z0):
                finite = ratios[np.isfinite(ratios)]
                assert np.all(finite >= h) and np.all(finite <= 1.0)

    def test_layer_lift_reconstructs_differences(self, rng):
        # sigma(a) - sigma(b) must equal ratio * (a - b) coordinate-wise
        h = 0.25
        net = random_gaussian_net([3, 7, 11], Activation("leaky_relu", h), 6)
        z, z0 = rng.standard_normal((2, 3))
        a, b = z.copy(), z0.copy()
        for (w, bias), ratios in zip(zip(net.weights, net.biases),
                                     leaky_layer_ratios(net, z, z0)):
            pre_a, pre_b = w @ a + bias, w @ b + bias
            a, b = net.activation.apply(pre_a), net.activation.apply(pre_b)
            mask = np.isfinite(ratios)
            np.testing.assert_allclose((a - b)[mask],
                                       (ratios * (pre_a - pre_b))[mask],
                                       rtol=1e-10, atol=1e-12)


class TestKMajority:
    def test_empty_support_holds(self, rng):
        net = random_gaussian_net([3, 8, 12], Activation("leaky_relu", 0.5), 7)
        r, c = rng.standard_normal((2, 3))
        holds, margin = k_majority_condition(net, r, c, [])
        delta = forward(net, r + c) - forward(net, r)
        assert holds
        assert margin == pytest.approx(np.sum(np.abs(delta)))

    def test_full_support_fails(self, rng):
        net = random_gaussian_net([3, 8, 12], Activation("leaky_relu", 0.5), 7)
        r, c = rng.standard_normal((2, 3))
        holds, margin = k_majority_condition(net, r, c, range(net.n))
        delta = forward(net, r + c) - forward(net, r)
        assert not holds
        assert margin == pytest.approx(-np.sum(np.abs(delta)))

    def test_equal_magnitudes_majority(self):
        # all-ones single column: every |delta_i| equal, so any |K| < n/2 holds
        net = make_linear_net([np.ones((9, 1))])
        holds, margin = k_majority_condition(net, [0.0], [1.0], [0, 1, 2, 3])
        assert holds and margin == pytest.approx(1.0)

    def test_zero_c_rejected(self):
        net = make_linear_net([np.ones((4, 1))])
        with pytest.raises(ValueError):
            k_majority_condition(net, [0.0], [0.0], [0])

    def test_worst_support_dominates_exhaustively(self, rng):
        # for every size s, the largest-|.| support maximizes |delta_K|_1
        delta = rng.standard_normal(10)
        for s in range(11):
            best = np.sum(np.abs(delta)[worst_support(delta, s)])
            for subset in itertools.combinations(range(10), s):
                assert np.sum(np.abs(delta[list(subset)])) <= best + 1e-12


class TestEstimateRhoStar:
    def test_tiny_rho_never_fails(self):
        net = random_gaussian_net([4, 16, 64], Activation("leaky_relu", 0.5), 8)
        reports = estimate_rho_star(net, trials=50, rho_grid=[0.001], seed=1)
        assert reports[0].failures == 0
        assert reports[0].params["K_size"] == 0

    def test_huge_rho_always_fails(self):
        net = random_gaussian_net([4, 16, 64], Activation("leaky_relu", 0.5), 8)
        reports = estimate_rho_star(net, trials=50, rho_grid=[0.99],
                                    K_mode="worst_by_magnitude", seed=1)
        assert reports[0].failures == 50

    def test_positive_correctable_fraction_exists(self):
        net = random_gaussian_net([10, 40, 160], Activation("leaky_relu", 0.5), 9)
        reports = estimate_rho_star(net, trials=1000, rho_grid=[0.02, 0.5],
                                    K_mode="worst_by_magnitude", seed=2)
        assert rho_star_from_reports(reports) >= 0.02

    def test_random_mode_and_determinism(self):
        net = random_gaussian_net([4, 16, 64], Activation("leaky_relu", 0.5), 8)
        a = estimate_rho_star(net, trials=30, rho_grid=[0.05], K_mode="random", seed=3)
        b = estimate_rho_star(net, trials=30, rho_grid=[0.05], K_mode="random", seed=3)
        assert a[0].failures == b[0].failures
        assert a[0].min_margin == b[0].min_margin


class TestReluPathSlope:
    def test_zero_direction(self):
        assert relu_path_slope([1.0, -2.0], [0.0, 0.0], 0.5) == 0.0

    def test_single_active_term(self):
        assert relu_path_slope([1.0], [2.0], 0.0) == 2.0

    def test_inactive_term(self):
        assert relu_path_slope([-1.0], [-2.0], 0.1) == 0.0

    def test_matches_forward_difference_within_piece(self, rng):
        n = 50
        cases = 0
        while cases < 20 * 3:
            hcol = rng.standard_normal(n)
            gc = rng.standard_normal(n)
            t = float(rng.uniform(0.0, 3.0))
            kinks = relu_path_kinks(hcol, gc)
            ahead = kinks[kinks > t]
            gap = float(ahead[0] - t) if ahead.size else 1.0
            if gap < 4e-4 or np.any((kinks <= t) & (kinks > t - 1e-9)):
                continue
            cases += 1
            eps = min(gap / 2.0, 0.5)
            fd = (relu_path_value(hcol, gc, t + eps)
                  - relu_path_value(hcol, gc, t)) / eps
            assert abs(relu_path_slope(hcol, gc, t) - fd) <= 1e-9

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            relu_path_slope([1.0], [1.0], -0.1)


class TestNormBounds:
    def test_unit_basis_vector(self):
        # H = identity rows padded with zeros: |H e_1|_1 = 1
        h = np.vstack([np.eye(3), np.zeros((3, 3))])
        v = np.array([1.0, 0.0, 0.0])
        assert np.sum(np.abs(h @ v)) == 1.0

    def test_monte_carlo_envelope_positive(self):
        rng = np.random.default_rng(10)
        mat = rng.standard_normal((200, 100))
        rep = norm_bounds_check(mat, trials=500, h=0.5, seed=11)
        assert rep.failures == 0
        assert rep.min_margin > 0
        assert rep.params["lambda_min_hat"] > 0
        assert rep.params["lambda_max_hat"] >= rep.params["lambda_min_hat"]
        assert 0 < rep.params["largest_admissible_rho"] < 1

    def test_full_support_never_below_half(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((50, 25))
        rep = norm_bounds_check(mat, trials=100, h=1.0, rho_grid=[0.999], seed=13)
        # |K| = n means the adversarial partial sum equals the whole norm
        assert rep.params["largest_admissible_rho"] == 0.0


class TestConditionReport:
    def test_failures_bounded(self):
        with pytest.raises(ValueError):
            ConditionReport("x", trials=2, failures=3, min_margin=0.0)

    def test_json_shape(self):
        rep = ConditionReport("x", 5, 0, 0.5, {"a": 1})
        d = rep.to_dict()
        assert set(d) == {"condition_name", "trials", "failures", "min_margin",
                          "params"}


class TestSeparationRecoveryRoundTrip:
    def test_separation_predicts_recovery(self, rng):
        # mix of generic (wide separation) and engineered (tight) instances
        for case in range(10):
            if case % 2 == 0:
                net = random_gaussian_net([1, 8], Activation("identity"),
                                          100 + case)
                mat = rng.standard_normal((11, 8))
                l = 2
            else:
                w = np.zeros((7, 1))
                w[: 2 * (case % 3 + 1), 0] = 1.0
                net = make_linear_net([w])
                mat = np.eye(7)
                l = case % 3 + 1
            grid = latent_grid(1, points=61)
            z0 = grid[int(rng.integers(61))]
            tol = default_zero_tol(mat @ forward(net, z0))
            seps = [l0_separation(net, mat, z, z0, tol)
                    for z in grid if not np.array_equal(z, z0)]
            predicted = min(seps) >= 2 * l + 1
            recovered, _ = l0_recovery_bruteforce(net, mat, z0, l, grid)
            assert recovered == predicted
