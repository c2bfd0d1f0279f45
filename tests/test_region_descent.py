"""The descent solvers' region-model path: on ReLU and leaky-ReLU nets above
the size cut, a row whose activation pattern holds over a step keeps its
region's affine model, measures trial points that stay in the region on
A z - b and takes their gradient as A^T times the residual's weight. The
small nets here take that path with the cut lowered to zero."""

import numpy as np
import pytest

from genrec import solvers
from genrec.generator import Activation, random_gaussian_net
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import (SolverConfig, SolverDiverged, gd_squared_l1, gd_squared_l2,
                            multi_restart, solve_trials)

# The tolerance of admm_l1's region-model tests (tests/test_solvers.py):
# both paths run the same iterations and part by rounding alone (the worst
# gap seen, over 30 small solves, was 4e-12 relative).
TOL = 1e-10

KINDS = [("relu", 1.0), ("leaky_relu", 0.2)]
METHODS = ["gd-l1sq", "gd-l2sq", "gd-l2sq-reg"]
SOLVERS = {"gd-l1sq": gd_squared_l1, "gd-l2sq": gd_squared_l2, "gd-l2sq-reg": gd_squared_l2}


def _fields(res):
    """Every field of a result but restart_index, with arrays as bytes and
    floats by repr."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.converged,
            [tuple(map(repr, (r.iteration, r.objective, r.primal_residual, r.eps_m)))
             for r in res.trace])


def _config(method, **kw):
    return SolverConfig(method=method, lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0,
                        **kw)


def _instances(kind, h, trials=1, seed=61, dims=(4, 16, 24), m=18):
    net = random_gaussian_net(list(dims), Activation(kind, h), seed)
    return net, [build_instance(net, MeasurementModel(m=m, n=dims[-1], outlier_count=2,
                                                      seed=seed + 1 + t), seed=seed + 2 + t)
                 for t in range(trials)]


def _close(got, want):
    """Same iterations, restart and stop, and z_hat and eps_m within TOL."""
    assert (got.iters_used, got.restart_index, got.converged) == \
        (want.iters_used, want.restart_index, want.converged)
    assert np.linalg.norm(got.z_hat - want.z_hat) <= TOL * np.linalg.norm(want.z_hat)
    assert abs(got.eps_m - want.eps_m) <= TOL * want.eps_m


@pytest.fixture
def rows_through(monkeypatch):
    """Rows evaluated by each wrapped function, by name: `layer_preactivations`
    (a forward pass through the layers), `pullback` given pre-activations (a
    backward pass; without them it passes its vector through) and
    `region_maps` (model builds)."""
    rows = {"layer_preactivations": 0, "pullback": 0, "region_maps": 0}

    def counting(name, count):
        original = getattr(solvers, name)

        def counted(*args):
            rows[name] += count(*args)
            return original(*args)
        monkeypatch.setattr(solvers, name, counted)

    counting("layer_preactivations", lambda net, z: len(z))
    counting("pullback", lambda net, pres, v: len(v) if len(pres) else 0)
    counting("region_maps", lambda net, pattern: len(pattern))
    return rows


class TestRegionDescent:
    @pytest.fixture
    def model(self, monkeypatch):
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [37, 61])
    def test_matches_layered_evaluation(self, monkeypatch, rows_through, kind, h, method,
                                        seed):
        net, [inst] = _instances(kind, h, seed=seed)
        cfg = _config(method, max_iters=150, restarts=7, seed=40)
        layered = multi_restart(net, inst.M, inst.y, cfg)
        assert rows_through["region_maps"] == 0
        before = dict(rows_through)
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        model = multi_restart(net, inst.M, inst.y, cfg)
        _close(model, layered)
        after = {name: rows_through[name] - before[name] for name in before}
        assert after["region_maps"] >= 1
        assert after["layer_preactivations"] < before["layer_preactivations"]
        assert after["pullback"] < before["pullback"]

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_trial_points_that_leave_fall_back_to_the_layers(self, monkeypatch, kind, h,
                                                              method):
        # A row's trial point that leaves the region of the model it holds
        # goes through the layers, with several trial steps per pass and
        # with one (the pass budget at 0).
        net, [inst] = _instances(kind, h)
        cfg = _config(method, max_iters=150, restarts=7, seed=40)
        layered = multi_restart(net, inst.M, inst.y, cfg)
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        left = []
        leaves = solvers._leaves

        def counted(z, pat, region):
            out = leaves(z, pat, region)
            left.append(int(out[1].sum()))
            return out
        monkeypatch.setattr(solvers, "_leaves", counted)
        for budget in (solvers._LINE_SEARCH_PASS_MACS, 0):
            monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", budget)
            left.clear()
            _close(multi_restart(net, inst.M, inst.y, cfg), layered)
            assert sum(left) > 0 and any(n == 0 for n in left)

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_builds_wait_for_a_pattern_that_holds(self, monkeypatch, model, kind, h, method):
        # A row builds or moves its model only to the pattern of an accepted
        # point whose predecessor had that pattern too, and only when it
        # holds no model for that pattern.
        net, [inst] = _instances(kind, h)
        before, moved = [], []
        settle, move = solvers._settle_regions, solvers._move_region

        def watched_settle(net_, s):
            before.append((s.pat.copy(), s.held.copy(), s.region[2].copy()))
            settle(net_, s)

        def watched_move(net_, M, pat, stale, *args):
            previous, held, built = before[-1]
            assert (previous[stale] == pat[stale]).all()
            assert not (held[stale] & (built[stale] == pat[stale]).all(axis=1)).any()
            moved.append(int(stale.sum()))
            return move(net_, M, pat, stale, *args)
        monkeypatch.setattr(solvers, "_settle_regions", watched_settle)
        monkeypatch.setattr(solvers, "_move_region", watched_move)
        multi_restart(net, inst.M, inst.y, _config(method, max_iters=150, restarts=4, seed=40))
        # Fewer moves than iterations: most steps keep the model they have.
        assert 0 < len(moved) < len(before) / 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("where", ["start", "trials"])
    def test_overflowing_row_is_dropped(self, model, method, where):
        net, [inst] = _instances("leaky_relu", 0.2)
        solver, cfg = SOLVERS[method], _config(method, max_iters=60)
        block = np.random.default_rng(35).standard_normal((3, net.k))
        if where == "start":
            block[1] = 1e308   # M G(z) overflows: this row diverges at once
        else:
            block[1] *= 1e150   # finite at the start, every trial step overflows
        res = solver(net, inst.M, inst.y, cfg, z0=block)
        finite = {i: solver(net, inst.M, inst.y, cfg, z0=block[i]) for i in (0, 2)}
        best = min(finite, key=lambda i: finite[i].eps_m)
        assert res.restart_index == best
        assert _fields(res) == _fields(finite[best])
        with pytest.raises(SolverDiverged):
            solver(net, inst.M, inst.y, cfg, z0=np.full((2, net.k), 1e308))

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_solve_trials_equals_multi_restart(self, model, rows_through, kind, h, method):
        net, insts = _instances(kind, h, trials=3)
        cfgs = [_config(method, max_iters=120, restarts=4, seed=50 + t) for t in range(3)]
        block = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        assert rows_through["region_maps"] > 0
        alone = [multi_restart(net, i.M, i.y, c) for i, c in zip(insts, cfgs)]
        assert [(r.restart_index, _fields(r)) for r in block] == \
            [(r.restart_index, _fields(r)) for r in alone]

    @pytest.mark.parametrize("method", ["gd-l1sq", "gd-l2sq"])
    def test_net_above_the_cut(self, monkeypatch, rows_through, method):
        net, insts = _instances("leaky_relu", 0.2, trials=2, seed=3, dims=(10, 400, 500),
                                m=100)
        assert solvers._uses_region_model(net, 100)
        cfgs = [_config(method, max_iters=60, restarts=2, seed=s) for s in (6, 7)]
        block = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        assert rows_through["region_maps"] > 0
        alone = [multi_restart(net, i.M, i.y, c) for i, c in zip(insts, cfgs)]
        assert [(r.restart_index, _fields(r)) for r in block] == \
            [(r.restart_index, _fields(r)) for r in alone]
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 10**9)
        for res, inst, cfg in zip(block, insts, cfgs):
            _close(res, multi_restart(net, inst.M, inst.y, cfg))

    def test_readme_net_stays_layered(self, rows_through):
        net, [inst] = _instances("leaky_relu", 0.2, dims=(4, 20, 60), m=48)
        assert not solvers._uses_region_model(net, 48)
        for method in METHODS:
            multi_restart(net, inst.M, inst.y, _config(method, max_iters=100, restarts=3))
        assert rows_through["region_maps"] == 0
