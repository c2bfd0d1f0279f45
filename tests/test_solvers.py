import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from genrec import solvers
from genrec._common import matvec
from genrec.generator import (Activation, forward, forward_pattern, jacobian,
                              random_gaussian_net, region_maps, compose_linear, zero_bias)
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import (SolverConfig, SolverDiverged, admm_l1,
                            gd_squared_l1, gd_squared_l2, metrics,
                            multi_restart, pseudo_inverse, soft_threshold)

from conftest import make_linear_net


def lp_l1_argmin(A, b):
    """Basis-pursuit oracle: argmin_z ||A z - b||_1 by linear programming."""
    m, k = A.shape
    c = np.concatenate([np.zeros(k), np.ones(m)])
    eye = np.eye(m)
    a_ub = np.block([[A, -eye], [-A, -eye]])
    b_ub = np.concatenate([b, -b])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + m),
                  method="highs")
    assert res.success
    return res.x[:k], res.fun


def linear_outlier_instance(seed, m=40, n=60, l=3):
    net = random_gaussian_net([5, 30, n], Activation("identity"), seed)
    model = MeasurementModel(m=m, n=n, outlier_count=l, seed=seed + 1)
    return net, build_instance(net, model, seed=seed + 2)


class TestSoftThreshold:
    @pytest.mark.parametrize("v,tau,expected", [
        (2.5, 1.0, 1.5),
        (0.3, 1.0, 0.0),
        (-2.0, 0.5, -1.5),
    ])
    def test_known_values(self, v, tau, expected):
        assert soft_threshold(np.array([v]), tau)[0] == expected

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_requires_positive_tau(self, tau):
        with pytest.raises(ValueError, match="^tau must be > 0"):
            soft_threshold(np.zeros(3), tau)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_shrinks_toward_zero(self, v, tau):
        out = soft_threshold(np.array([v]), tau)[0]
        if abs(v) <= tau:
            assert out == 0.0
        else:
            assert out == v - np.sign(v) * tau
            assert abs(out) < abs(v)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_array_equal(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-15)

    def test_full_rank_left_inverse(self, rng):
        a = rng.standard_normal((40, 20))
        assert np.max(np.abs(pseudo_inverse(a) @ a - np.eye(20))) < 1e-8

    def test_penrose_identity(self, rng):
        a = rng.standard_normal((10, 30))
        api = pseudo_inverse(a)
        assert np.max(np.abs(a @ api @ a - a)) / np.max(np.abs(a)) < 1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, np.nan]]))


class TestAdmmL1:
    def test_fixed_point_converges_immediately(self, rng):
        net = random_gaussian_net([3, 10, 12], Activation("leaky_relu", 0.3), 5)
        mat = rng.standard_normal((8, 12))
        z0 = rng.standard_normal(3)
        y = mat @ forward(net, z0)
        cfg = SolverConfig(method="admm-l1", max_iters=50)
        res = admm_l1(net, mat, y, cfg, z0=z0)
        assert res.eps_m <= 1e-8
        assert res.iters_used <= 2
        assert res.converged

    def test_linear_net_exact_recovery_vs_lp_oracle(self):
        net, inst = linear_outlier_instance(seed=900)
        cfg = SolverConfig(method="admm-l1", max_iters=1000, restarts=10, seed=3)
        res = multi_restart(net, inst.M, inst.y, cfg)
        rel = np.linalg.norm(res.z_hat - inst.z0) / np.linalg.norm(inst.z0)
        assert rel < 1e-4

        w = compose_linear(net)
        offset = forward(net, np.zeros(net.k))
        z_lp, lp_val = lp_l1_argmin(inst.M @ w, inst.y - inst.M @ offset)
        assert np.linalg.norm(res.z_hat - z_lp) / np.linalg.norm(z_lp) < 1e-4
        assert res.eps_m <= lp_val * (1 + 1e-6) + 1e-9

    def test_cross_agreement_with_gd_on_leaky_net(self):
        net = random_gaussian_net([5, 30, 60], Activation("leaky_relu", 0.2), 500)
        model = MeasurementModel(m=40, n=60, outlier_count=3, seed=600)
        inst = build_instance(net, model, seed=700)
        cfg_a = SolverConfig(method="admm-l1", max_iters=1500, restarts=10, seed=0)
        cfg_g = SolverConfig(method="gd-l1sq", max_iters=1500, restarts=10, seed=0)
        res_a = multi_restart(net, inst.M, inst.y, cfg_a)
        res_g = multi_restart(net, inst.M, inst.y, cfg_g)
        assert abs(res_a.eps_m - res_g.eps_m) < 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_trace(self, rng):
        net = random_gaussian_net([2, 4, 6], Activation("identity"), 1)
        mat = rng.standard_normal((5, 6))
        y = np.full(5, np.inf)
        with pytest.raises(SolverDiverged) as err:
            admm_l1(net, mat, y, SolverConfig(method="admm-l1", max_iters=5),
                    z0=np.zeros(2))
        assert len(err.value.trace) >= 1

    def test_w_update_matches_prox_oracle_and_z_update_solves_normal_equations(self, rng):
        net, inst = linear_outlier_instance(seed=950, m=20, n=30, l=2)
        states = []
        cfg = SolverConfig(method="admm-l1", max_iters=25)
        admm_l1(net, inst.M, inst.y, cfg, z0=rng.standard_normal(5),
                probe=states.append)
        assert len(states) == 25
        for state in states[:10]:
            v = state["w_input"]
            rho = state["rho"]
            w = state["w"]
            for i in range(v.size):
                assert abs(w[i] - _prox_abs_oracle(v[i], rho)) <= 1e-10
            # dense-grid sanity on a few coordinates
            for i in range(0, v.size, 7):
                grid = np.linspace(-abs(v[i]) - 2, abs(v[i]) + 2, 2001)
                g = np.abs(grid) + rho / 2 * (v[i] - grid) ** 2
                assert abs(w[i]) + rho / 2 * (v[i] - w[i]) ** 2 <= g.min() + 1e-9
            a, rhs, z_new = state["A"], state["rhs"], state["z_new"]
            resid = np.linalg.norm(a.T @ (a @ z_new - rhs))
            assert resid <= 1e-8 * (np.linalg.norm(a.T @ rhs) + 1.0)


def _prox_abs_oracle(v, rho):
    """Independent minimizer of |w| + rho/2 (v - w)^2: best of the three
    stationary candidates from the w>0 / w=0 / w<0 branches."""
    cands = [0.0]
    if v - 1.0 / rho > 0:
        cands.append(v - 1.0 / rho)
    if v + 1.0 / rho < 0:
        cands.append(v + 1.0 / rho)
    return min(cands, key=lambda w: abs(w) + rho / 2 * (v - w) ** 2)


class TestDualUpdate:
    """ADMM's multiplier step: after w = prox(v) with v = M G(z) - y + lam/rho,
    the new lam/rho is v - w, which is v clipped to [-1/rho, 1/rho]."""

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("leaky_relu", 0.2)])
    def test_scaled_multiplier_is_the_clipped_prox_input(self, kind, h):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), 61)
        inst = build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2, seed=62),
                              seed=63)
        states = []
        cfg = SolverConfig(method="admm-l1", rho=0.7, max_iters=60)
        res = admm_l1(net, inst.M, inst.y, cfg, z0=np.random.default_rng(64).standard_normal(4),
                      probe=states.append)
        assert len(states) == len(res.trace) - 1 >= 20
        clipped = inside = 0
        for state in states:
            v, w, rho = state["w_input"], state["w"], state["rho"]
            u = state["lam"] / rho
            tol = 1e-12 * np.maximum(1.0, np.abs(v))
            assert np.all(np.abs(u - np.clip(v, -1.0 / rho, 1.0 / rho)) <= tol)
            assert np.all(np.abs(u - (v - w)) <= tol)
            clipped += int(np.sum(np.abs(v) > 1.0 / rho))
            inside += int(np.sum(np.abs(v) < 1.0 / rho))
        assert clipped and inside   # both branches of the clip were taken


class TestGdSquaredL1:
    def test_zero_residual_returns_immediately(self, rng):
        net = random_gaussian_net([3, 8, 10], Activation("relu"), 2)
        mat = rng.standard_normal((6, 10))
        z0 = rng.standard_normal(3)
        y = mat @ forward(net, z0)
        res = gd_squared_l1(net, mat, y, SolverConfig(method="gd-l1sq"), z0=z0)
        assert res.iters_used == 0
        assert res.converged
        np.testing.assert_array_equal(res.z_hat, z0)

    def test_scalar_convex_toy(self):
        net = make_linear_net([[[1.0]]])
        res = gd_squared_l1(net, [[1.0]], [3.0],
                            SolverConfig(method="gd-l1sq", max_iters=200),
                            z0=[0.0])
        assert res.trace[-1].objective < 1e-10
        assert abs(res.z_hat[0] - 3.0) < 1e-5

    def test_objective_nonincreasing_on_accepted_steps(self):
        net = random_gaussian_net([4, 16, 24], Activation("relu"), 3)
        model = MeasurementModel(m=18, n=24, outlier_count=2, seed=4)
        inst = build_instance(net, model, seed=5)
        res = gd_squared_l1(net, inst.M, inst.y,
                            SolverConfig(method="gd-l1sq", max_iters=300, seed=6))
        objs = [rec.objective for rec in res.trace]
        assert all(b <= a for a, b in zip(objs, objs[1:]))


class TestGdSquaredL2:
    def test_zero_residual_immediate(self, rng):
        net = random_gaussian_net([3, 8, 10], Activation("relu"), 2)
        mat = rng.standard_normal((6, 10))
        z0 = rng.standard_normal(3)
        y = mat @ forward(net, z0)
        res = gd_squared_l2(net, mat, y, SolverConfig(method="gd-l2sq"), z0=z0)
        assert res.iters_used == 0 and res.converged

    def test_least_squares_oracle_clean_linear(self):
        net = random_gaussian_net([5, 20, 30], Activation("identity"), 7)
        model = MeasurementModel(m=25, n=30, outlier_count=0, seed=8)
        inst = build_instance(net, model, seed=9)
        cfg = SolverConfig(method="gd-l2sq", max_iters=3000, restarts=3,
                           tol_step=1e-12, seed=10)
        res = multi_restart(net, inst.M, inst.y, cfg)
        mets = metrics(net, inst.M, inst.y, res.z_hat, inst.x0)
        assert mets.eps_r < 1e-8
        # normal-equations oracle on the reduced linear problem
        a = inst.M @ compose_linear(net)
        b = inst.y - inst.M @ forward(net, np.zeros(net.k))
        z_ls = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.linalg.norm(res.z_hat - z_ls) < 1e-5

    def test_outliers_blow_up_l2_but_not_l1(self):
        net, inst = linear_outlier_instance(seed=980)
        cfg_l2 = SolverConfig(method="gd-l2sq", max_iters=1000, restarts=5, seed=1)
        cfg_l1 = SolverConfig(method="admm-l1", max_iters=1000, restarts=5, seed=1)
        res_l2 = multi_restart(net, inst.M, inst.y, cfg_l2)
        res_l1 = multi_restart(net, inst.M, inst.y, cfg_l1)
        er_l2 = metrics(net, inst.M, inst.y, res_l2.z_hat, inst.x0).eps_r
        er_l1 = metrics(net, inst.M, inst.y, res_l1.z_hat, inst.x0).eps_r
        assert er_l2 >= 1e3 * max(er_l1, 1e-300)

    def test_ridge_term_pulls_solution_toward_origin(self):
        net = random_gaussian_net([4, 12, 16], Activation("identity"), 11)
        model = MeasurementModel(m=12, n=16, outlier_count=0, seed=12)
        inst = build_instance(net, model, seed=13)
        plain = multi_restart(net, inst.M, inst.y,
                              SolverConfig(method="gd-l2sq", max_iters=500, seed=14))
        ridge = multi_restart(net, inst.M, inst.y,
                              SolverConfig(method="gd-l2sq-reg", lambda_reg=10.0,
                                           max_iters=500, seed=14))
        assert np.linalg.norm(ridge.z_hat) < np.linalg.norm(plain.z_hat)

    def test_scale_equivariance_of_objective(self, rng):
        # positive homogeneity: scaling y and z0 by a scales the whole GD
        # trajectory, so the final objective scales by a^2
        net = zero_bias(random_gaussian_net([3, 10, 14], Activation("relu"), 15))
        mat = rng.standard_normal((9, 14))
        y = mat @ forward(net, rng.standard_normal(3)) + rng.standard_normal(9)
        z_start = rng.standard_normal(3)
        a = 3.5
        cfg = SolverConfig(method="gd-l2sq", max_iters=60, tol_step=1e-300)
        res1 = gd_squared_l2(net, mat, y, cfg, z0=z_start)
        res2 = gd_squared_l2(net, mat, a * y, cfg, z0=a * z_start)
        assert res2.trace[-1].objective == pytest.approx(
            a**2 * res1.trace[-1].objective, rel=1e-6)


class TestMultiRestart:
    def test_single_restart_identical_to_single_run(self):
        net, inst = linear_outlier_instance(seed=990, m=15, n=20, l=1)
        cfg = SolverConfig(method="gd-l1sq", max_iters=100, restarts=1, seed=17)
        res_multi = multi_restart(net, inst.M, inst.y, cfg)
        res_single = gd_squared_l1(net, inst.M, inst.y, cfg)
        assert res_multi.z_hat.tobytes() == res_single.z_hat.tobytes()
        assert res_multi.restart_index == 0

    def test_returns_min_eps_m_over_restarts(self):
        net, inst = linear_outlier_instance(seed=991, m=15, n=20, l=1)
        cfg = SolverConfig(method="gd-l1sq", max_iters=40, restarts=10, seed=18)
        res = multi_restart(net, inst.M, inst.y, cfg)
        per_restart = []
        for i in range(10):
            rng = np.random.default_rng(np.random.SeedSequence(18, spawn_key=(i,)))
            z0 = rng.normal(0.0, cfg.init_scale, size=net.k)
            per_restart.append(gd_squared_l1(net, inst.M, inst.y, cfg, z0=z0).eps_m)
        assert res.eps_m == min(per_restart)
        assert res.restart_index == int(np.argmin(per_restart))

    @pytest.mark.parametrize("method, solver", [
        ("admm-l1", admm_l1), ("gd-l1sq", gd_squared_l1),
        ("gd-l2sq", gd_squared_l2), ("gd-l2sq-reg", gd_squared_l2)])
    def test_block_equals_best_of_single_runs(self, method, solver):
        net = random_gaussian_net([4, 16, 24], Activation("leaky_relu", 0.2), 31)
        inst = build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2, seed=32),
                              seed=33)
        cfg = SolverConfig(method=method, max_iters=150, restarts=6, seed=34,
                           lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0)
        singles = []
        for i in range(cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(34, spawn_key=(i,)))
            z0 = rng.normal(0.0, cfg.init_scale, size=net.k)
            singles.append(solver(net, inst.M, inst.y, cfg, z0=z0))
        best = min(range(len(singles)), key=lambda i: singles[i].eps_m)
        res = multi_restart(net, inst.M, inst.y, cfg)
        assert res.restart_index == best
        assert _fields(res) == _fields(singles[best])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method, solver", [
        ("admm-l1", admm_l1), ("gd-l1sq", gd_squared_l1), ("gd-l2sq", gd_squared_l2)])
    def test_overflowing_row_is_dropped(self, method, solver):
        net, inst = linear_outlier_instance(seed=992, m=15, n=20, l=1)
        cfg = SolverConfig(method=method, max_iters=60)
        block = np.random.default_rng(35).standard_normal((3, net.k))
        block[1] = 1e308   # M G(z) overflows: this row diverges at once
        res = solver(net, inst.M, inst.y, cfg, z0=block)
        finite = {i: solver(net, inst.M, inst.y, cfg, z0=block[i]) for i in (0, 2)}
        best = min(finite, key=lambda i: finite[i].eps_m)
        assert res.restart_index == best
        assert _fields(res) == _fields(finite[best])
        with pytest.raises(SolverDiverged):
            solver(net, inst.M, inst.y, cfg, z0=np.full((2, net.k), 1e308))

    def test_ties_go_to_the_first_row(self):
        net, inst = linear_outlier_instance(seed=994, m=15, n=20, l=1)
        z = np.random.default_rng(36).standard_normal(net.k)
        for method, solver in (("admm-l1", admm_l1), ("gd-l1sq", gd_squared_l1)):
            cfg = SolverConfig(method=method, max_iters=40)
            res = solver(net, inst.M, inst.y, cfg, z0=np.stack([z, z]))
            assert res.restart_index == 0

    def test_block_of_starting_points_validated(self):
        net, inst = linear_outlier_instance(seed=993, m=15, n=20, l=1)
        cfg = SolverConfig(method="admm-l1", max_iters=5)
        for bad in (np.zeros((0, net.k)), np.zeros((2, net.k + 1)), np.zeros((1, 2, net.k))):
            with pytest.raises(ValueError):
                admm_l1(net, inst.M, inst.y, cfg, z0=bad)
        with pytest.raises(ValueError):
            admm_l1(net, inst.M, inst.y, cfg, z0=np.zeros((2, net.k)), probe=print)

    def test_mnist_shaped_config_expressible(self):
        cfg = SolverConfig(method="admm-l1", restarts=10, max_iters=1000)
        assert cfg.restarts == 10 and cfg.max_iters == 1000


class TestPatternCache:
    """admm_l1 reuses each row's M J and pseudo-inverse while its activation
    pattern is unchanged; results must not depend on that. An identity net
    is one region: its rows are built once. The descent solvers keep no
    Jacobian."""

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        original = getattr(solvers, name)

        def counted(*args):
            calls.append(len(args[-1]))
            return original(*args)
        monkeypatch.setattr(solvers, name, counted)
        return calls

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    @pytest.mark.parametrize("method", ["admm-l1"])
    def test_results_equal_recomputing_every_row(self, monkeypatch, kind, h, method):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), 37)
        inst = build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2, seed=38),
                              seed=39)
        cfg = SolverConfig(method=method, max_iters=150, restarts=7, seed=40,
                           lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0)
        jac_rows = self._counting(monkeypatch, "jacobian")
        maps_rows = self._counting(monkeypatch, "region_maps")
        cached = multi_restart(net, inst.M, inst.y, cfg)
        rows_cached = sum(jac_rows) + sum(maps_rows)
        # Every row stale after every iteration: below the cut through
        # `_stale`; identity nets, one region model, through `_evaluate`.
        monkeypatch.setattr(solvers, "_stale",
                            lambda _, pattern: np.ones(len(pattern), dtype=bool))
        evaluate = solvers._evaluate

        def all_stale(*args):
            d, pat, left = evaluate(*args)
            return d, pat, np.ones_like(left)
        monkeypatch.setattr(solvers, "_evaluate", all_stale)
        jac_rows.clear()
        maps_rows.clear()
        plain = multi_restart(net, inst.M, inst.y, cfg)
        assert (cached.restart_index, _fields(cached)) == (plain.restart_index, _fields(plain))
        assert rows_cached < sum(jac_rows) + sum(maps_rows)

    @pytest.mark.parametrize("method", ["admm-l1", "gd-l1sq"])
    def test_identity_net_builds_jacobian_once(self, monkeypatch, method):
        # The net's one J comes from `region_maps` of the empty pattern:
        # admm-l1 builds each of its 10 rows' maps at iteration 1, gd-l1sq
        # composes its one problem.
        net, inst = linear_outlier_instance(seed=996)
        jac_rows = self._counting(monkeypatch, "jacobian")
        maps_shapes = []
        original = solvers.region_maps

        def counted(net_, pattern):
            maps_shapes.append(np.shape(pattern))
            return original(net_, pattern)
        monkeypatch.setattr(solvers, "region_maps", counted)
        pinv_rows = self._counting(monkeypatch, "pseudo_inverse")
        res = multi_restart(net, inst.M, inst.y,
                            SolverConfig(method=method, max_iters=1000, restarts=10, seed=41))
        assert res.iters_used > 1
        assert jac_rows == []
        assert maps_shapes == ([(10, 0)] if method == "admm-l1" else [(0,)])
        assert pinv_rows == ([10] if method == "admm-l1" else [])


class TestBackwardPassGradient:
    """The descent solvers get each gradient by one backward pass through
    the layers, with no Jacobian."""

    KINDS = [("identity", 1.0), ("relu", 1.0), ("leaky_relu", 0.2)]

    @staticmethod
    def _instance(kind, h):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), 37)
        return net, build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2, seed=38),
                                   seed=39)

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", ["gd-l1sq", "gd-l2sq", "gd-l2sq-reg"])
    def test_descent_calls_no_jacobian(self, monkeypatch, kind, h, method):
        net, inst = self._instance(kind, h)
        calls = []
        monkeypatch.setattr(solvers, "jacobian", lambda *args: calls.append(args))
        res = multi_restart(net, inst.M, inst.y,
                            SolverConfig(method=method, max_iters=50, restarts=3, seed=40,
                                         lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0))
        assert res.iters_used > 1 and calls == []

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_initial_gradient_is_the_l1sq_subgradient(self, monkeypatch, rng, kind, h):
        net, inst = self._instance(kind, h)
        seen = {}
        original = solvers._descend

        def descend(net_, y, cfg, z, value, grad, *problem):
            seen.update(z=z.copy(), value=value, grad=grad)
            return original(net_, y, cfg, z, value, grad, *problem)
        monkeypatch.setattr(solvers, "_descend", descend)
        gd_squared_l1(net, inst.M, inst.y, SolverConfig(method="gd-l1sq", max_iters=2),
                      z0=rng.standard_normal((4, net.k)))
        z = seen["z"]
        _, r, pres = seen["value"](z)
        got = seen["grad"](z, r, pres)
        # 2 |r|_1 J^T M^T sign(r), with r = M G(z) - y from the layers.
        r = forward(net, z) @ inst.M.T - inst.y
        want = np.stack([2.0 * np.abs(ri).sum() * (jac.T @ (inst.M.T @ np.sign(ri)))
                         for ri, jac in zip(r, jacobian(net, z))])
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


class TestRegionModel:
    """On nets above the size cut, admm_l1 evaluates an iterate that stays in
    its activation region through the region's affine maps. The small nets
    here take that path with the cut lowered to zero."""

    # Fixed beforehand: both paths run the same iterations, and their
    # iterates part by rounding alone (the worst gap seen afterwards, over
    # 108 small solves, was 4e-14 relative).
    TOL = 1e-10

    @pytest.fixture
    def model(self, monkeypatch):
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)

    @staticmethod
    def _counting_maps(monkeypatch):
        rows = []
        original = solvers.region_maps

        def counted(net, pattern):
            rows.append(len(pattern))
            return original(net, pattern)
        monkeypatch.setattr(solvers, "region_maps", counted)
        return rows

    @staticmethod
    def _instance(kind, h, seed=37):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), seed)
        return net, build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2,
                                                         seed=seed + 1), seed=seed + 2)

    def test_cut_separates_paper_scale_from_small_nets(self):
        def uses(dims, m):
            return solvers._uses_region_model(
                random_gaussian_net(dims, Activation("leaky_relu", 0.2), 0), m)
        assert uses([20, 500, 500, 784], 200)
        assert not any(uses(dims, m) for dims, m in (([4, 20, 60], 48), ([5, 30, 60], 40),
                                                     ([4, 16, 24], 18), ([10, 40, 160], 160)))

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    @pytest.mark.parametrize("seed", [37, 51])
    def test_matches_layered_evaluation(self, monkeypatch, kind, h, seed):
        net, inst = self._instance(kind, h, seed)
        cfg = SolverConfig(method="admm-l1", max_iters=150, restarts=7, seed=40)
        layered = multi_restart(net, inst.M, inst.y, cfg)
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        maps_rows = self._counting_maps(monkeypatch)
        model = multi_restart(net, inst.M, inst.y, cfg)
        assert sum(maps_rows) > 0
        assert (model.iters_used, model.restart_index, model.converged) == \
            (layered.iters_used, layered.restart_index, layered.converged)
        scale = np.linalg.norm(layered.z_hat)
        assert np.linalg.norm(model.z_hat - layered.z_hat) <= self.TOL * scale
        assert abs(model.eps_m - layered.eps_m) <= self.TOL * layered.eps_m

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    def test_results_equal_rebuilding_every_row(self, monkeypatch, model, kind, h):
        # Rank-r updates of the maps part from full rebuilds by rounding alone.
        net, inst = self._instance(kind, h)
        cfg = SolverConfig(method="admm-l1", max_iters=150, restarts=7, seed=40)
        maps_rows = self._counting_maps(monkeypatch)
        updated = multi_restart(net, inst.M, inst.y, cfg)
        rows_updated = sum(maps_rows)
        monkeypatch.setattr(solvers, "_UPDATE_MAX_COST", 0.0)   # every re-linearisation rebuilds
        maps_rows.clear()
        rebuilt = multi_restart(net, inst.M, inst.y, cfg)
        assert (updated.iters_used, updated.restart_index, updated.converged) == \
            (rebuilt.iters_used, rebuilt.restart_index, rebuilt.converged)
        scale = np.linalg.norm(rebuilt.z_hat)
        assert np.linalg.norm(updated.z_hat - rebuilt.z_hat) <= self.TOL * scale
        assert abs(updated.eps_m - rebuilt.eps_m) <= self.TOL * rebuilt.eps_m
        # Identity nets never leave their region: nothing to update.
        assert 0 < rows_updated <= sum(maps_rows)
        assert (rows_updated < sum(maps_rows)) == (kind != "identity")

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    def test_evaluate_takes_the_model_inside_and_the_layers_outside(self, per_row):
        net, inst = self._instance("leaky_relu", 0.2)
        rng = np.random.default_rng(36)
        built = rng.standard_normal((4, net.k))
        M, y = inst.M, inst.y
        if per_row:
            M = M + 0.1 * rng.standard_normal((4,) + M.shape)
            y = y + 0.1 * rng.standard_normal((4,) + y.shape)
        _, pat = forward_pattern(net, built)
        maps = region_maps(net, pat)
        a, b = M @ maps.J, y - matvec(M, maps.g)
        z = built.copy()
        z[1::2] += 3.0 * rng.standard_normal((2, net.k))   # rows 1 and 3 leave their region
        d, pat_new, left = solvers._evaluate(net, M, y, z, pat, a, b, maps[:2])
        assert left.tolist() == [False, True, False, True]
        assert pat_new.tobytes() == forward_pattern(net, z)[1].tobytes()
        for i in range(4):
            mi, yi = (M[i], y[i]) if per_row else (M, y)
            want = a[i] @ z[i] - b[i] if i % 2 == 0 else mi @ forward(net, z[i]) - yi
            assert d[i].tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_row_is_dropped(self, model):
        net, inst = self._instance("leaky_relu", 0.2)
        cfg = SolverConfig(method="admm-l1", max_iters=60)
        block = np.random.default_rng(35).standard_normal((3, net.k))
        block[1] = 1e308   # M G(z) overflows: this row diverges at once
        res = admm_l1(net, inst.M, inst.y, cfg, z0=block)
        finite = {i: admm_l1(net, inst.M, inst.y, cfg, z0=block[i]) for i in (0, 2)}
        best = min(finite, key=lambda i: finite[i].eps_m)
        assert res.restart_index == best
        assert _fields(res) == _fields(finite[best])
        with pytest.raises(SolverDiverged):
            admm_l1(net, inst.M, inst.y, cfg, z0=np.full((2, net.k), 1e308))


class TestBatchedLineSearch:
    """_descend evaluates several Armijo trial steps of every row per pass;
    results must equal trying one step per pass (the pass budget at 0)."""

    # Fixed before the batched search was written; one step per pass took
    # 7.5 (gd-l1sq) and 8.1 (gd-l2sq) passes per iteration on the README sweep.
    MAX_PASSES_PER_ITER = 3.0

    @pytest.fixture
    def one_step(self, monkeypatch):
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)

    @staticmethod
    def _counting(monkeypatch):
        """Per solve: the objectives returned by each `value` call and the
        number of `grad` calls (one at the start, then one per iteration)."""
        solves = []
        original = solvers._descend

        def descend(net, y, cfg, z, value, grad, *problem):
            calls = {"f": [], "grad": 0}
            solves.append(calls)

            def counted_value(z):
                out = value(z)
                calls["f"].append(out[0])
                return out

            def counted_grad(*args):
                calls["grad"] += 1
                return grad(*args)
            return original(net, y, cfg, z, counted_value, counted_grad, *problem)
        monkeypatch.setattr(solvers, "_descend", descend)
        return solves

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    @pytest.mark.parametrize("method", ["gd-l1sq", "gd-l2sq", "gd-l2sq-reg"])
    def test_results_equal_one_step_per_pass(self, monkeypatch, kind, h, method):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), 37)
        inst = build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2, seed=38),
                              seed=39)
        cfg = SolverConfig(method=method, max_iters=150, restarts=7, seed=40,
                           lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0)
        solves = self._counting(monkeypatch)
        batched = multi_restart(net, inst.M, inst.y, cfg)
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)
        single = multi_restart(net, inst.M, inst.y, cfg)
        assert (batched.restart_index, _fields(batched)) == (single.restart_index,
                                                             _fields(single))
        assert solves[0]["grad"] == solves[1]["grad"]
        assert len(solves[0]["f"]) < len(solves[1]["f"])

    @pytest.mark.parametrize("width", [30, 7, 100])
    def test_stall_stops_after_the_trial_cap(self, monkeypatch, width):
        # Every trial point scores 2 against 1 at the start, so each row
        # tries exactly _MAX_BACKTRACKS steps and stops, not converged.
        net = make_linear_net([np.eye(2)])
        y, rows = np.zeros(3), 3
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS",
                            width * rows * solvers._row_macs(net, y.size))
        tried = []

        def value(z):
            tried.append(z.copy())
            r = np.zeros((len(z), y.size))
            return np.where(np.any(z, axis=-1), 2.0, 1.0), r, [z.copy()]

        # A shrink factor that is not a power of 2, so t s^j can differ from
        # multiplying by s j times.
        cfg = SolverConfig(method="gd-l1sq", step_init=8.0, armijo_shrink=0.7, max_iters=5)
        res = solvers._descend(net, y, cfg, np.zeros((rows, 2)), value,
                               lambda z, r, jac: np.ones_like(z))
        assert (res.iters_used, res.converged, res.restart_index) == (0, False, 0)
        passes = tried[1:]
        assert [len(p) // rows for p in passes] == \
            [width] * (100 // width) + ([100 % width] if 100 % width else [])
        steps = [8.0]
        for _ in range(99):
            steps.append(steps[-1] * cfg.armijo_shrink)
        per_row = np.concatenate([-p[:, 0].reshape(rows, -1) for p in passes], axis=1)
        assert per_row.tobytes() == np.tile(steps, (rows, 1)).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method, solver, scale", [("gd-l1sq", gd_squared_l1, 1e150),
                                                       ("gd-l2sq", gd_squared_l2, 1e152)])
    def test_row_with_overflowing_trials_is_dropped(self, monkeypatch, method, solver,
                                                    scale):
        net, inst = linear_outlier_instance(seed=992, m=15, n=20, l=1)
        cfg = SolverConfig(method=method, max_iters=60)
        block = np.random.default_rng(35).standard_normal((3, net.k))
        block[1] *= scale   # finite at the start, every trial step overflows
        solves = self._counting(monkeypatch)
        res = solver(net, inst.M, inst.y, cfg, z0=block)
        assert np.isfinite(solves[0]["f"][0][1])
        assert not np.isfinite(solves[0]["f"][1]).all()
        finite = {i: solver(net, inst.M, inst.y, cfg, z0=block[i]) for i in (0, 2)}
        best = min(finite, key=lambda i: finite[i].eps_m)
        assert res.restart_index == best
        assert _fields(res) == _fields(finite[best])
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)
        single = solver(net, inst.M, inst.y, cfg, z0=block)
        assert (res.restart_index, _fields(res)) == (single.restart_index, _fields(single))

    @pytest.mark.parametrize("method", ["gd-l1sq", "gd-l2sq"])
    def test_few_passes_per_iteration_on_the_readme_sweep(self, monkeypatch, method):
        solves = self._counting(monkeypatch)
        batched = self._readme_passes_per_iteration(method, solves)
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)
        single = self._readme_passes_per_iteration(method, solves)
        assert batched < self.MAX_PASSES_PER_ITER < single

    @staticmethod
    def _readme_passes_per_iteration(method, solves):
        """Trial passes per iteration over README-sweep-shaped solves."""
        solves.clear()
        net = random_gaussian_net([4, 20, 60], Activation("leaky_relu", 0.2), 3)
        for m, seed in ((10, 41), (28, 42), (48, 43)):
            inst = build_instance(net, MeasurementModel(m=m, n=60, outlier_count=3,
                                                        seed=seed), seed=seed + 100)
            multi_restart(net, inst.M, inst.y,
                          SolverConfig(method=method, max_iters=400, restarts=5, seed=seed))
        # Each solve makes one value call and one grad call before iterating.
        passes = sum(len(s["f"]) - 1 for s in solves)
        return passes / sum(s["grad"] - 1 for s in solves)


def _fields(res):
    """Every field of a result, with arrays as bytes and floats by repr (the
    NaN primal residuals of GD traces then compare equal)."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.converged, [tuple(map(repr, (r.iteration, r.objective, r.primal_residual,
                                             r.eps_m))) for r in res.trace])


class TestMetrics:
    def test_exact_fit_gives_zero_eps_m(self, rng):
        net = random_gaussian_net([2, 6, 8], Activation("relu"), 19)
        mat = rng.standard_normal((5, 8))
        z = rng.standard_normal(2)
        y = mat @ forward(net, z)
        assert metrics(net, mat, y, z).eps_m == 0.0

    def test_exact_signal_gives_zero_eps_r(self, rng):
        net = random_gaussian_net([2, 6, 8], Activation("relu"), 19)
        mat = rng.standard_normal((5, 8))
        z = rng.standard_normal(2)
        m = metrics(net, mat, mat @ forward(net, z) + 1.0, z, x0=forward(net, z))
        assert m.eps_r == 0.0
        assert m.eps_r_per_pixel == 0.0

    def test_hand_assembled_recomputation(self):
        # G(z) = [z1, 2 z1], M = [[1, 0], [0, 1]], y = [1, 1], x0 = [0, 0]
        net = make_linear_net([[[1.0], [2.0]]])
        z = np.array([1.0])
        m = metrics(net, np.eye(2), np.array([1.0, 1.0]), z, x0=np.zeros(2))
        # independent recomputation: x_hat = [1, 2]; |y - x|_1 = 0 + 1
        assert m.eps_m == pytest.approx(abs(1 - 1) + abs(1 - 2))
        assert m.eps_r == pytest.approx(1.0**2 + 2.0**2)
        assert m.eps_r_per_pixel == pytest.approx(m.eps_r / 2)


class TestDeterminism:
    def test_same_seed_reproduces_bytes(self):
        net, inst = linear_outlier_instance(seed=995, m=15, n=20, l=1)
        for method in ("admm-l1", "gd-l1sq", "gd-l2sq"):
            cfg = SolverConfig(method=method, max_iters=50, restarts=2, seed=23)
            a = multi_restart(net, inst.M, inst.y, cfg)
            b = multi_restart(net, inst.M, inst.y, cfg)
            assert a.z_hat.tobytes() == b.z_hat.tobytes()
            assert [(r.iteration, r.objective, r.eps_m) for r in a.trace] == \
                   [(r.iteration, r.objective, r.eps_m) for r in b.trace]


class TestConfig:
    def test_json_round_trip(self):
        cfg = SolverConfig(method="gd-l2sq-reg", lambda_reg=0.1, max_iters=77,
                           restarts=3, seed=9)
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("kwargs", [
        {"method": "nope"},
        {"rho": 0.0},
        {"max_iters": 0},
        {"restarts": 0},
        {"armijo_c": 1.5},
        {"tol_step": 0.0},
        {"lambda_reg": -1.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="'rhoo', 'zz'"):
            SolverConfig.from_dict({"method": "admm-l1", "zz": 1, "rhoo": 2.0})

    def test_method_mismatch_rejected(self, rng):
        net = random_gaussian_net([2, 4], Activation("identity"), 0)
        with pytest.raises(ValueError):
            admm_l1(net, np.eye(4), np.zeros(4), SolverConfig(method="gd-l1sq"))
