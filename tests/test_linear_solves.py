"""Identity nets are solved on their composed affine map, the maps of their
one activation region (`region_maps` of the empty pattern): G(z) = J z + g,
so M G(z) - y = A z - b with A = M J and b = y - M g, and no solver
iteration runs the layer loop. Also the size cap on `solve_trials` blocks
and the lazy `numpy.random` import."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from genrec import generator, solvers
from genrec._common import matvec
from genrec.generator import Activation, compose_linear, forward, random_gaussian_net
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import SolverConfig, metrics, multi_restart, solve_trials

METHODS = ["admm-l1", "gd-l1sq", "gd-l2sq", "gd-l2sq-reg"]


def _config(method, **kw):
    return SolverConfig(method=method, lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0, **kw)


def _instances(kind="identity", h=1.0, dims=(5, 30, 60), m=40, trials=3, seed=61):
    net = random_gaussian_net(dims, Activation(kind, h), seed)
    insts = [build_instance(net, MeasurementModel(m=m, n=dims[-1], outlier_count=3,
                                                  seed=seed + 1 + t), seed=seed + 100 + t)
             for t in range(trials)]
    return net, insts


def _fields(res):
    """Every field of a result or SolverDiverged, arrays as bytes and floats
    by repr (the NaN primal residuals of GD traces then compare equal)."""
    if isinstance(res, solvers.SolverDiverged):
        return str(res)
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.restart_index, res.converged,
            [tuple(map(repr, (r.iteration, r.objective, r.primal_residual, r.eps_m)))
             for r in res.trace])


class TestComposedEvaluation:
    # Fixed beforehand: A z - b and the layers part by rounding alone.
    TOL = 1e-12

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [61, 73])
    def test_eps_m_agrees_with_layered_metrics(self, monkeypatch, method, seed):
        """Every row's logged eps_m, at every iteration, and the result's
        eps_m equal |y - M G(z)|_1 evaluated through the layers."""
        net, insts = _instances(seed=seed, trials=1)
        M, y = insts[0].M, insts[0].y
        logged = []
        record = solvers._Block.record

        def logging(self, objective, primal, eps_m, z):
            logged.append((np.array(eps_m), np.array(z)))
            return record(self, objective, primal, eps_m, z)
        monkeypatch.setattr(solvers._Block, "record", logging)
        res = multi_restart(net, M, y, _config(method, max_iters=200, restarts=5, seed=seed))
        assert len(logged) > 10
        for eps_m, z in logged:
            layered = np.abs(y - forward(net, z) @ M.T).sum(axis=1)
            np.testing.assert_allclose(eps_m, layered, rtol=self.TOL, atol=0)
        # ADMM returns its best iterate, the descent methods their last.
        trace = np.array([r.eps_m for r in res.trace])
        assert res.eps_m == (trace.min() if method == "admm-l1" else trace[-1])
        assert res.eps_m == pytest.approx(metrics(net, M, y, res.z_hat).eps_m,
                                          rel=self.TOL, abs=0)


class TestOneRegion:
    """An identity net is the region model's case of one region, with an
    empty activation pattern."""

    @pytest.mark.parametrize("dims", [(5, 30, 60), (3, 8), (4, 6, 9, 12)])
    @pytest.mark.parametrize("m", [6, 40])
    def test_composed_problem_equals_the_composed_weights(self, rng, dims, m):
        net = random_gaussian_net(dims, Activation("identity"), sum(dims) + m)
        cfg = SolverConfig(method="gd-l1sq")
        M, y = rng.standard_normal((m, net.n)), rng.standard_normal(m)
        a, b, _ = solvers._problem(net, M, y, cfg, np.zeros(net.k), compose=True)
        assert a.tobytes() == (M @ compose_linear(net)).tobytes()
        assert b.tobytes() == (y - matvec(M, forward(net, np.zeros(net.k)))).tobytes()
        # T = 3 problems with R = 2 starting points each: one product per problem.
        M, y = rng.standard_normal((3, m, net.n)), rng.standard_normal((3, m))
        a, b, _ = solvers._problem(net, M, y, cfg, np.zeros((3, 2, net.k)), compose=True)
        want_a = np.repeat(M @ compose_linear(net), 2, axis=0)
        want_b = np.repeat(y - matvec(M, forward(net, np.zeros(net.k))), 2, axis=0)
        assert (a.tobytes(), b.tobytes()) == (want_a.tobytes(), want_b.tobytes())

    def test_evaluate_on_an_empty_pattern_is_the_composed_residual(self, monkeypatch, rng):
        net, insts = _instances(trials=1)
        M, y = insts[0].M, insts[0].y
        maps = generator.region_maps(net, np.zeros((4, 0), dtype=bool))
        a, b = M @ maps.J, y - matvec(M, maps.g)
        z, pat = rng.standard_normal((4, net.k)), np.zeros((4, 0), dtype=bool)

        def no_pattern_test(*args):
            raise AssertionError("an empty pattern has no region to leave")
        monkeypatch.setattr(solvers, "_leaves", no_pattern_test)
        d, pat_new, stale = solvers._evaluate(net, M, y, z, pat, a, b, maps[:2])
        assert d.tobytes() == (matvec(a, z) - b).tobytes()
        assert pat_new.shape == (4, 0) and stale.tolist() == [False] * 4


class TestNoLayerLoopPerIteration:
    """Counts every pass through a net's layers, wherever it is made."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = generator.layer_preactivations

        def counted(net, z):
            calls.append(len(np.atleast_2d(z)))
            return original(net, z)
        # forward, forward_pattern and jacobian look the loop up in generator;
        # the descent solvers call it by their own name.
        monkeypatch.setattr(generator, "layer_preactivations", counted)
        monkeypatch.setattr(solvers, "layer_preactivations", counted)
        return calls

    @pytest.mark.parametrize("trials", [False, True], ids=["one-problem", "three-trials"])
    @pytest.mark.parametrize("method", METHODS)
    def test_identity_net_passes_do_not_grow_with_iterations(self, monkeypatch, method,
                                                             trials):
        net, insts = _instances()
        calls = self._counting(monkeypatch)
        counts, iters = [], []
        for max_iters in (3, 15):
            calls.clear()
            cfgs = [_config(method, max_iters=max_iters, restarts=4, seed=s) for s in (1, 2, 3)]
            if trials:
                out = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
            else:
                out = [multi_restart(net, insts[0].M, insts[0].y, cfgs[0])]
            counts.append(len(calls))
            iters.append(max(r.iters_used for r in out))
        assert iters[0] < iters[1]
        # The starting points' first pass (admm-l1) and the winners' x_hat.
        assert counts[0] == counts[1] <= 6

    def test_relu_net_passes_grow_with_iterations(self, monkeypatch):
        net, insts = _instances(kind="relu")
        calls = self._counting(monkeypatch)
        counts = []
        for max_iters in (3, 15):
            calls.clear()
            multi_restart(net, insts[0].M, insts[0].y,
                          _config("gd-l1sq", max_iters=max_iters, restarts=4))
            counts.append(len(calls))
        assert counts[1] > counts[0] + 10


class TestTrialChunks:
    @pytest.mark.parametrize("cap_trials", [1, 2])
    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("leaky_relu", 0.2)])
    @pytest.mark.parametrize("method", METHODS)
    def test_chunks_equal_one_block(self, monkeypatch, method, kind, h, cap_trials):
        net, insts = _instances(kind=kind, h=h, dims=(4, 16, 24), m=18, trials=5)
        problems = [(i.M, i.y) for i in insts]
        cfgs = [_config(method, max_iters=80, restarts=3, seed=70 + t) for t in range(5)]
        whole = solve_trials(net, problems, cfgs)
        blocks = []
        solver = solvers._SOLVERS[method]

        def counted(net, M, y, cfg, z0):
            blocks.append(len(M))
            return solver(net, M, y, cfg, z0=z0)
        monkeypatch.setitem(solvers._SOLVERS, method, counted)
        monkeypatch.setattr(solvers, "_TRIAL_BLOCK_DOUBLES", cap_trials * 3 * 18 * 24 + 1)
        chunked = solve_trials(net, problems, cfgs)
        assert blocks == ([1] * 5 if cap_trials == 1 else [2, 2, 1])
        assert [_fields(r) for r in chunked] == [_fields(r) for r in whole]

    def test_a_trial_above_the_cap_is_a_chunk_of_its_own(self, monkeypatch):
        net, insts = _instances(kind="relu", dims=(4, 16, 24), m=18, trials=2)
        monkeypatch.setattr(solvers, "_TRIAL_BLOCK_DOUBLES", 1)
        cfgs = [SolverConfig(method="gd-l1sq", max_iters=30, restarts=2, seed=s) for s in (1, 2)]
        out = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        assert [_fields(r) for r in out] == \
            [_fields(multi_restart(net, i.M, i.y, c)) for i, c in zip(insts, cfgs)]

    def test_readme_sweep_point_is_one_chunk(self):
        # [4,20,60] net, m up to 48, 3 trials x 5 restarts.
        assert 3 * 5 * 48 * 60 <= solvers._TRIAL_BLOCK_DOUBLES

    @pytest.mark.parametrize("method", ["admm-l1", "gd-l1sq"])
    def test_wide_net_block_memory_is_bounded(self, method):
        # 8 trials x 8 restarts of m=200, n=500: one block would repeat M to
        # 64 copies, 51 MB; a chunk holds one trial's 8 copies, 6.4 MB.
        net, insts = _instances(kind="leaky_relu", h=0.2, dims=(10, 60, 500), m=200,
                                trials=8)
        problems = [(i.M, i.y) for i in insts]
        cfgs = [SolverConfig(method=method, max_iters=2, restarts=8, seed=s) for s in range(8)]
        tracemalloc.start()
        try:
            out = solve_trials(net, problems, cfgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 8
        assert peak < 20e6


def test_import_does_not_load_numpy_random():
    src = str(Path(solvers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def loaded(module):
        code = f"import sys, {module}; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        return out[-1] == "True"

    if loaded("numpy"):
        pytest.skip("this numpy imports numpy.random itself")
    assert not loaded("genrec.cli")
