"""A sweep point's trials run as one solver block (`solve_trials`, and the
solvers' (T, m, n) problem stacks). Each trial's result must equal solving
it alone with `multi_restart`, field for field."""

import math
from dataclasses import replace

import numpy as np
import pytest

from genrec import harness, solvers
from genrec._common import child_seeds
from genrec.generator import Activation, random_gaussian_net
from genrec.harness import ExperimentSpec, run_sweep
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import (SolverConfig, SolverDiverged, admm_l1, gd_squared_l1,
                            gd_squared_l2, metrics, multi_restart, solve_trials)

README_SWEEP = {
    "name": "error-vs-measurements",
    "net": {"dims": [4, 20, 60], "activation": {"kind": "leaky_relu", "h": 0.2}, "seed": 3},
    "measurement": {"matrix_kind": "gaussian", "outlier_count": 3,
                    "outlier_range": [5000, 10000], "noise_target": 0.0},
    "sweep": {"axis": "measurements", "values": [6, 10, 16, 28, 48]},
    "solvers": [{"method": "admm-l1", "max_iters": 400, "restarts": 5},
                {"method": "gd-l1sq", "max_iters": 400, "restarts": 5},
                {"method": "gd-l2sq", "max_iters": 400, "restarts": 5}],
    "trials_per_point": 3,
    "seed": 11,
}

OUTLIER_SWEEP = {
    "name": "error-vs-outliers",
    "net": {"dims": [3, 12, 30], "activation": {"kind": "relu"}, "seed": 4},
    "measurement": {"m": 24, "outlier_range": [100, 200], "outlier_signed": True,
                    "noise_target": 0.1},
    "sweep": {"axis": "outliers", "values": [0, 2, 5]},
    "solvers": [{"method": "admm-l1", "max_iters": 150, "restarts": 3},
                {"method": "gd-l2sq-reg", "lambda_reg": 0.1, "max_iters": 150, "restarts": 3},
                {"method": "gd-l1sq", "max_iters": 150, "restarts": 3}],
    "trials_per_point": 4,
    "seed": 8,
}

DIVERGING = [("admm-l1", admm_l1), ("gd-l1sq", gd_squared_l1), ("gd-l2sq", gd_squared_l2)]


def reference_rows(spec):
    """The sweep's result rows from a plain loop: multi_restart on each
    (point, trial, solver) in turn, a diverged solve as a NaN row."""
    net = harness.build_net(spec.net)
    rows = []
    for pi, value in enumerate(spec.sweep["values"]):
        for trial in range(spec.trials_per_point):
            model_seed, inst_seed = child_seeds(spec.seed, 2, spawn_key=(pi, trial))
            model = harness._measurement_model(spec, net.n, value, model_seed)
            inst = build_instance(net, model, seed=inst_seed)
            for si, cfg in enumerate(spec.solvers):
                seed = child_seeds(spec.seed, 1, spawn_key=(pi, trial, si))[0]
                try:
                    res = multi_restart(net, inst.M, inst.y, replace(cfg, seed=seed))
                    mets = metrics(net, inst.M, inst.y, res.z_hat, inst.x0)
                    out = (*mets, res.iters_used, res.restart_index)
                except SolverDiverged:
                    out = (math.nan, math.nan, math.nan, 0, -1)
                rows.append(dict(zip(("eps_m", "eps_r", "eps_r_per_pixel", "iters",
                                      "restart_index"), out),
                                 sweep_value=value, trial=trial, solver=cfg.method,
                                 seed=inst_seed))
    return rows


def non_timing(rows):
    return [{k: repr(row[k]) for k in harness.RESULT_COLUMNS if k != "wall_ms"}
            for row in rows]


def _trace(trace):
    return [tuple(map(repr, (r.iteration, r.objective, r.primal_residual, r.eps_m)))
            for r in trace]


def _fields(res):
    """Every field of a result, with arrays as bytes and floats by repr."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.restart_index, res.converged, _trace(res.trace))


def _instances(dims=(4, 16, 24), kind="leaky_relu", h=0.2, m=18, trials=3, seed=37):
    net = random_gaussian_net(list(dims), Activation(kind, h), seed)
    insts = [build_instance(net, MeasurementModel(m=m, n=dims[-1], outlier_count=2,
                                                  seed=seed + 1 + t), seed=seed + 100 + t)
             for t in range(trials)]
    return net, insts


def _stacks(insts):
    return np.stack([i.M for i in insts]), np.stack([i.y for i in insts])


class TestSweepRows:
    @pytest.mark.parametrize("seed", [11, 12345])
    def test_readme_sweep_equals_per_trial_solves(self, seed):
        spec = ExperimentSpec.from_dict(dict(README_SWEEP, seed=seed))
        rows, _ = run_sweep(spec)
        assert non_timing(rows) == non_timing(reference_rows(spec))

    def test_outlier_sweep_equals_per_trial_solves(self):
        spec = ExperimentSpec.from_dict(OUTLIER_SWEEP)
        rows, _ = run_sweep(spec)
        assert non_timing(rows) == non_timing(reference_rows(spec))

    def test_one_trial_per_point_equals_per_trial_solves(self):
        spec = ExperimentSpec.from_dict(dict(README_SWEEP, trials_per_point=1, seed=5,
                                             sweep={"axis": "measurements",
                                                    "values": [6, 16, 48]}))
        rows, _ = run_sweep(spec)
        assert non_timing(rows) == non_timing(reference_rows(spec))

    def test_one_block_per_point_and_solver(self, monkeypatch):
        blocks = []

        def counted(net, problems, cfgs):
            blocks.append((len(problems), cfgs[0].method))
            return solve_trials(net, problems, cfgs)
        monkeypatch.setattr(harness, "solve_trials", counted)
        spec = ExperimentSpec.from_dict(OUTLIER_SWEEP)
        run_sweep(spec)
        methods = [cfg.method for cfg in spec.solvers]
        assert blocks == [(4, method) for _ in spec.sweep["values"] for method in methods]

    def test_wall_ms_sums_to_the_blocks(self, monkeypatch):
        # The block's time is split over its trials, so the column still
        # adds up to the time spent solving.
        spent = []
        timed = solvers.solve_trials

        def counted(*args):
            t0 = harness.time.perf_counter()
            out = timed(*args)
            spent.append((harness.time.perf_counter() - t0) * 1e3)
            return out
        monkeypatch.setattr(harness, "solve_trials", counted)
        rows, _ = run_sweep(ExperimentSpec.from_dict(OUTLIER_SWEEP))
        assert sum(r["wall_ms"] for r in rows) >= sum(spent) * 0.99


class TestSolveTrials:
    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    @pytest.mark.parametrize("method", ["admm-l1", "gd-l1sq", "gd-l2sq", "gd-l2sq-reg"])
    def test_equals_multi_restart_per_trial(self, kind, h, method):
        net, insts = _instances(kind=kind, h=h)
        cfgs = [SolverConfig(method=method, max_iters=120, restarts=4, seed=50 + t,
                             lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0)
                for t in range(len(insts))]
        block = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        alone = [multi_restart(net, i.M, i.y, c) for i, c in zip(insts, cfgs)]
        assert [_fields(r) for r in block] == [_fields(r) for r in alone]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_restart_index_counts_within_the_trial(self):
        net, insts = _instances(trials=2)
        cfg = SolverConfig(method="admm-l1", max_iters=60)
        z0 = np.random.default_rng(5).standard_normal((2, 3, net.k))
        z0[1, :2] = 1e308   # trial 1 keeps only its last row, row 5 of the block
        M, y = _stacks(insts)
        out = admm_l1(net, M, y, cfg, z0=z0)
        assert out[1].restart_index == 2
        assert _fields(out[1]) == _fields(admm_l1(net, insts[1].M, insts[1].y, cfg,
                                                  z0=z0[1]))
        cfgs = [SolverConfig(method="gd-l1sq", max_iters=80, restarts=6, seed=s)
                for s in (3, 4)]
        for res, inst, cfg in zip(solve_trials(net, [(i.M, i.y) for i in insts], cfgs),
                                  insts, cfgs):
            assert 0 <= res.restart_index < cfg.restarts
            assert res.restart_index == multi_restart(net, inst.M, inst.y, cfg).restart_index

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method, solver", DIVERGING)
    def test_diverged_trial_leaves_the_others(self, method, solver):
        net, insts = _instances()
        cfg = SolverConfig(method=method, max_iters=60)
        z0 = np.random.default_rng(35).standard_normal((3, 4, net.k))
        z0[1] = 1e308   # M G(z) overflows: every row of trial 1 diverges at once
        z0[2, 1] = 1e308
        out = solver(net, *_stacks(insts), cfg, z0=z0)
        assert isinstance(out[1], SolverDiverged)
        with pytest.raises(SolverDiverged) as alone:
            solver(net, insts[1].M, insts[1].y, cfg, z0=z0[1])
        assert str(out[1]) == str(alone.value)
        assert _trace(out[1].trace) == _trace(alone.value.trace)
        for t in (0, 2):
            assert _fields(out[t]) == _fields(solver(net, insts[t].M, insts[t].y, cfg,
                                                     z0=z0[t]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method, solver, scale", [("gd-l1sq", gd_squared_l1, 1e150),
                                                       ("gd-l2sq", gd_squared_l2, 1e152)])
    def test_row_with_overflowing_trial_steps(self, method, solver, scale):
        # Finite at the start, every trial step of that row overflows: the
        # row stalls while the rest of the block keeps searching.
        net, insts = _instances()
        cfg = SolverConfig(method=method, max_iters=60)
        z0 = np.random.default_rng(36).standard_normal((3, 3, net.k))
        z0[1, 1] *= scale
        out = solver(net, *_stacks(insts), cfg, z0=z0)
        for t in range(3):
            assert _fields(out[t]) == _fields(solver(net, insts[t].M, insts[t].y, cfg,
                                                     z0=z0[t]))

    def test_a_single_trial_block_is_a_list(self):
        net, insts = _instances(trials=1)
        cfg = SolverConfig(method="gd-l2sq", max_iters=40, restarts=2, seed=9)
        [res] = solve_trials(net, [(insts[0].M, insts[0].y)], [cfg])
        assert _fields(res) == _fields(multi_restart(net, insts[0].M, insts[0].y, cfg))

    def test_inputs_validated(self):
        net, insts = _instances(trials=2)
        problems = [(i.M, i.y) for i in insts]
        cfg = SolverConfig(method="admm-l1", max_iters=5, restarts=2)
        with pytest.raises(ValueError, match="differ only in seed"):
            solve_trials(net, problems, [cfg, replace(cfg, max_iters=6)])
        with pytest.raises(ValueError, match="one config per problem"):
            solve_trials(net, problems, [cfg])
        with pytest.raises(ValueError, match="one config per problem"):
            solve_trials(net, [], [])
        with pytest.raises(ValueError, match="share one shape"):
            solve_trials(net, [problems[0], (insts[1].M[:-1], insts[1].y[:-1])], [cfg, cfg])
        M, y = _stacks(insts)
        for z0 in (None, np.zeros((2, net.k)), np.zeros((3, 2, net.k)),
                   np.zeros((2, 0, net.k)), np.zeros((2, 2, net.k + 1))):
            with pytest.raises(ValueError, match=r"2 problems need z0 as a \(2, R, 4\) block"):
                admm_l1(net, M, y, cfg, z0=z0)
        with pytest.raises(ValueError, match="y has shape"):
            gd_squared_l1(net, M, y[:, :-1], replace(cfg, method="gd-l1sq"),
                          z0=np.zeros((2, 1, net.k)))
        with pytest.raises(ValueError, match="3-D stack"):
            admm_l1(net, M[None], y, cfg, z0=np.zeros((2, 1, net.k)))


class TestRegionModelBlocks:
    """admm_l1's region-model path with one problem per row: the rebuilds,
    M J on stale rows and the layered fallback take each row's own M."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    def test_small_nets_with_the_cut_lowered(self, monkeypatch, kind, h):
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        net, insts = _instances(kind=kind, h=h)
        cfg = SolverConfig(method="admm-l1", max_iters=150)
        z0 = np.random.default_rng(40).standard_normal((3, 5, net.k))
        z0[0, 2] = 1e308
        out = admm_l1(net, *_stacks(insts), cfg, z0=z0)
        for t in range(3):
            assert _fields(out[t]) == _fields(admm_l1(net, insts[t].M, insts[t].y, cfg,
                                                      z0=z0[t]))

    def test_net_above_the_cut(self):
        net, insts = _instances(dims=(10, 400, 500), m=100, trials=2, seed=3)
        assert solvers._uses_region_model(net, 100)
        cfgs = [SolverConfig(method="admm-l1", max_iters=40, restarts=2, seed=s)
                for s in (6, 7)]
        block = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        alone = [multi_restart(net, i.M, i.y, c) for i, c in zip(insts, cfgs)]
        assert [_fields(r) for r in block] == [_fields(r) for r in alone]
