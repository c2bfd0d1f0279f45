"""admm_l1's rank-r updates of a row's region model (P, p, A, c) and the
Cholesky z-operator that goes with them, on small nets with the region-model
cut lowered to zero."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrec import solvers
from genrec.generator import (Activation, GeneratorNetwork, forward_pattern, random_gaussian_net,
                              region_maps)
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import SolverConfig, admm_l1, multi_restart, pseudo_inverse, solve_trials

# Fixed beforehand. Over 300 random chains on small ReLU and leaky nets,
# the worst gap measured afterwards was 2e-16 of the bound below after one
# update, 5e-16 within 64 updates and 1e-15 within 200.
# Relative to that bound, not to the new maps: a ReLU pattern can shut
# whole layers off, so that the fresh maps are exactly zero while the
# updated ones keep the rounding of the terms that cancelled.
TOL = 1e-12

KINDS = [("relu", 1.0), ("leaky_relu", 0.2)]


def _fields(res):
    """Every field of a result but restart_index, with arrays as bytes and
    floats by repr."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.converged,
            [tuple(map(repr, (r.iteration, r.objective, r.primal_residual, r.eps_m)))
             for r in res.trace])


def _fresh(net, M, pattern):
    maps = region_maps(net, pattern)
    return maps.P, maps.p, M @ maps.J, M @ maps.g


def _bound(net, M):
    """Norms that bound every region's P, p, A and c: those of the maps of
    |W|, |b| and |M| with every unit active, which bound each entry of any
    region's maps, and of the products an update sums, as every slope lies
    in [0, 1]."""
    positive = GeneratorNetwork(net.dims, tuple(map(np.abs, net.weights)),
                                tuple(map(np.abs, net.biases)), net.activation)
    maps = region_maps(positive, np.ones(sum(net.dims[1:]), dtype=bool))
    return [np.linalg.norm(x) for x in (maps.P, maps.p, np.abs(M) @ maps.J,
                                        np.abs(M) @ maps.g)]


def _built(net, M, patterns):
    """A, its z-operator, the region tuple and c of rows first built at `patterns`."""
    rows, m = len(patterns), len(M)
    a, a_pinv, c = np.empty((rows, m, net.k)), np.empty((rows, net.k, m)), np.empty((rows, m))
    region = (np.empty(patterns.shape + (net.k,)), np.empty(patterns.shape),
              np.empty_like(patterns), np.full(rows, solvers._UPDATE_REFRESH))
    solvers._relinearize(net, M, patterns, np.ones(rows, dtype=bool), a, a_pinv, region, c)
    return a, a_pinv, region, c


def _counting(monkeypatch, name):
    calls = []
    original = getattr(solvers, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(solvers, name, counted)
    return calls


@st.composite
def update_chains(draw):
    kind, h = draw(st.sampled_from(KINDS))
    dims = [draw(st.integers(1, 5))] + draw(st.lists(st.integers(1, 12), min_size=1,
                                                     max_size=4))
    net = random_gaussian_net(dims, Activation(kind, h), draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = rng.standard_normal((draw(st.integers(1, 12)), net.n))
    _, start = forward_pattern(net, rng.standard_normal(net.k))
    # Flip sets of 1 to `most` units anywhere in the net: single units and
    # sets spanning several layers, chained up to the refresh count.
    most = draw(st.integers(1, len(start)))
    steps = draw(st.integers(1, solvers._UPDATE_REFRESH))
    flips = [rng.choice(len(start), size=rng.integers(1, most + 1), replace=False)
             for _ in range(steps)]
    return net, M, start, flips


class TestUpdate:
    @settings(max_examples=60, deadline=None)
    @given(update_chains())
    def test_chains_of_updates_match_fresh_maps(self, chain):
        net, M, pattern, flips = chain
        state = [x.copy() for x in _fresh(net, M, pattern)]
        bound = _bound(net, M)
        for units in flips:
            new = pattern.copy()
            new[units] ^= True
            solvers._update(net, M, *state, pattern, new)
            pattern = new
            for got, want, b in zip(state, _fresh(net, M, pattern), bound):
                assert np.linalg.norm(got - want) <= TOL * b

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_single_unit_in_each_layer(self, kind, h):
        net = random_gaussian_net([3, 7, 9, 11], Activation(kind, h), 5)
        M = np.random.default_rng(6).standard_normal((6, net.n))
        _, pattern = forward_pattern(net, np.random.default_rng(7).standard_normal(net.k))
        bound = _bound(net, M)
        for unit in range(len(pattern)):
            new = pattern.copy()
            new[unit] ^= True
            state = [x.copy() for x in _fresh(net, M, pattern)]
            solvers._update(net, M, *state, pattern, new)
            for got, want, b in zip(state, _fresh(net, M, new), bound):
                assert np.linalg.norm(got - want) <= TOL * b

    def test_cost_counts_each_layer_after_the_flip(self):
        net = random_gaussian_net([20, 500, 500, 784], Activation("leaky_relu", 0.2), 0)
        per_flip, full = solvers._update_macs(net, 200)
        assert full == 20 * (500 * 500 + 784 * 500 + 200 * 784)
        assert per_flip.tolist() == [784 * 500 + 200 * 784 + 21 * (500 + 784 + 200),
                                     200 * 784 + 21 * (784 + 200), 21 * 200]


class TestZOperator:
    @pytest.mark.parametrize("shape", [(200, 20), (18, 4), (40, 5), (5, 5)])
    def test_equals_pseudo_inverse_on_full_rank(self, rng, shape):
        a = rng.standard_normal(shape)
        op, pinv = solvers._z_operator(a), pseudo_inverse(a)
        assert op is not None
        assert np.linalg.norm(op - pinv) <= 1e-12 * np.linalg.norm(pinv)

    def test_rank_deficient_and_ill_conditioned_give_none(self, rng):
        # A ReLU pattern with two live units in the first layer leaves J, and
        # so A = M J, with rank 2 < k = 4.
        net = random_gaussian_net([4, 6, 10], Activation("relu"), 5)
        pattern = np.ones(16, dtype=bool)
        pattern[2:6] = False
        a = rng.standard_normal((8, net.n)) @ region_maps(net, pattern).J
        assert np.linalg.matrix_rank(a) == 2
        assert solvers._z_operator(a) is None
        u, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        cond = 10 * solvers._Z_OPERATOR_MAX_COND
        assert solvers._z_operator(u * np.geomspace(1.0, 1.0 / cond, 5)) is None

    def test_rank_deficient_update_falls_back_to_a_rebuild(self, monkeypatch, rng):
        net = random_gaussian_net([4, 6, 10], Activation("relu"), 5)
        M = rng.standard_normal((8, net.n))
        old = np.ones((1, 16), dtype=bool)
        new = old.copy()
        new[0, 2:6] = False
        a, a_pinv, region, c = _built(net, M, old)
        monkeypatch.setattr(solvers, "_UPDATE_MAX_COST", 1e9)   # let it try the update
        updates = _counting(monkeypatch, "_update")
        maps = _counting(monkeypatch, "region_maps")
        solvers._relinearize(net, M, new, np.ones(1, dtype=bool), a, a_pinv, region, c)
        assert len(updates) == 1 and len(maps) == 1
        want = M @ region_maps(net, new).J
        assert a.tobytes() == want.tobytes()
        assert a_pinv.tobytes() == pseudo_inverse(want).tobytes()
        assert region[2].tobytes() == new.tobytes() and region[3].tolist() == [0]

    def test_well_conditioned_update_takes_the_cholesky_operator(self, monkeypatch):
        net = random_gaussian_net([4, 6, 10], Activation("leaky_relu", 0.2), 5)
        M = np.random.default_rng(8).standard_normal((8, net.n))
        old = np.ones((1, 16), dtype=bool)
        new = old.copy()
        new[0, 3] = False
        a, a_pinv, region, c = _built(net, M, old)
        pinv = _counting(monkeypatch, "pseudo_inverse")
        maps = _counting(monkeypatch, "region_maps")
        solvers._relinearize(net, M, new, np.ones(1, dtype=bool), a, a_pinv, region, c)
        assert pinv == [] and maps == [] and region[3].tolist() == [1]
        assert a_pinv[0].tobytes() == solvers._z_operator(a[0]).tobytes()
        want = pseudo_inverse(M @ region_maps(net, new).J)
        assert np.linalg.norm(a_pinv[0] - want) <= TOL * np.linalg.norm(want)

    def test_refresh_after_the_stated_number_of_updates(self, monkeypatch):
        monkeypatch.setattr(solvers, "_UPDATE_REFRESH", 3)
        net = random_gaussian_net([4, 6, 10], Activation("leaky_relu", 0.2), 5)
        M = np.random.default_rng(8).standard_normal((8, net.n))
        pattern = np.ones((1, 16), dtype=bool)
        a, a_pinv, region, c = _built(net, M, pattern)
        maps = _counting(monkeypatch, "region_maps")
        seen = []
        for unit in range(5):
            pattern = pattern.copy()
            pattern[0, unit] ^= True
            solvers._relinearize(net, M, pattern, np.ones(1, dtype=bool), a, a_pinv, region, c)
            seen.append((len(maps), int(region[3][0])))
        assert seen == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]


class TestPerRowIndependence:
    """Each row's update history is its own: blocks, trials and restarts
    give the bytes of solving each row alone."""

    @pytest.fixture(autouse=True)
    def model(self, monkeypatch):
        monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        self.updates = _counting(monkeypatch, "_update")

    @staticmethod
    def _instances(kind, h, trials=3, seed=61):
        net = random_gaussian_net([4, 16, 24], Activation(kind, h), seed)
        return net, [build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2,
                                                          seed=seed + 1 + t), seed=seed + 50 + t)
                     for t in range(trials)]

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_solve_trials_equals_multi_restart(self, kind, h):
        net, insts = self._instances(kind, h)
        cfgs = [SolverConfig(method="admm-l1", max_iters=150, restarts=4, seed=70 + t)
                for t in range(len(insts))]
        block = solve_trials(net, [(i.M, i.y) for i in insts], cfgs)
        assert self.updates
        alone = [multi_restart(net, i.M, i.y, c) for i, c in zip(insts, cfgs)]
        assert [(r.restart_index, _fields(r)) for r in block] == \
            [(r.restart_index, _fields(r)) for r in alone]

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_every_row_of_a_block_equals_its_single_run(self, kind, h):
        net, [inst] = self._instances(kind, h, trials=1)
        cfg = SolverConfig(method="admm-l1", max_iters=150, restarts=6, seed=71)
        z0 = solvers._starts(net, cfg)
        # One problem per row: the rows run in lockstep and each reports its own result.
        rows = admm_l1(net, np.stack([inst.M] * len(z0)), np.stack([inst.y] * len(z0)), cfg,
                       z0=z0[:, None])
        assert self.updates
        singles = [admm_l1(net, inst.M, inst.y, cfg, z0=z) for z in z0]
        assert [_fields(r) for r in rows] == [_fields(r) for r in singles]
        best = multi_restart(net, inst.M, inst.y, cfg)
        assert _fields(best) == _fields(singles[best.restart_index])
        first = multi_restart(net, inst.M, inst.y, SolverConfig(method="admm-l1", max_iters=150,
                                                                seed=71))
        assert _fields(first) == _fields(singles[0])
