"""Stop bookkeeping of the block solvers. An iteration in which no row stops
calls no `_Block.stop`; a row that goes non-finite at any stop site leaves
the block while the other rows carry on, as if each were solved alone; and
a winner's trace does not depend on when the other rows of its block stop.
"""

import re

import numpy as np
import pytest

from genrec import solvers
from genrec.generator import Activation, forward, random_gaussian_net
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import (SolverConfig, SolverDiverged, admm_l1, gd_squared_l1,
                            gd_squared_l2)

SOLVERS = {"admm-l1": admm_l1, "gd-l1sq": gd_squared_l1, "gd-l2sq": gd_squared_l2}


def _fields(res):
    """Every field of a result but restart_index, arrays as bytes and floats
    by repr (the NaN primal residuals of GD traces then compare equal)."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.converged, [tuple(map(repr, (r.iteration, r.objective, r.primal_residual,
                                             r.eps_m))) for r in res.trace])


def _instances(trials=3, seed=37):
    net = random_gaussian_net([4, 16, 24], Activation("leaky_relu", 0.2), seed)
    insts = [build_instance(net, MeasurementModel(m=18, n=24, outlier_count=2,
                                                  seed=seed + 1 + t), seed=seed + 100 + t)
             for t in range(trials)]
    return net, insts


def _stacks(problems):
    return np.stack([M for M, _ in problems]), np.stack([y for _, y in problems])


def _poison(monkeypatch, net, where, call, row):
    """Set row `row` (of the running rows) of one quantity to NaN on its
    `call`-th evaluation: z_new (ADMM's product with the cached
    pseudo-inverse), w (ADMM's soft-threshold), or a descent solve's
    objective (`value`) or gradient (`grad`)."""
    calls = []

    def hit(out):
        calls.append(None)
        if len(calls) == call:
            out[row] = np.nan
        return out

    if where == "z":
        matvec = solvers.matvec
        monkeypatch.setattr(solvers, "matvec", lambda a, x: (
            hit(matvec(a, x)) if a.ndim == 3 and a.shape[1] == net.k else matvec(a, x)))
    elif where == "w":
        soft_threshold = solvers.soft_threshold
        monkeypatch.setattr(solvers, "soft_threshold", lambda v, tau: hit(soft_threshold(v, tau)))
    else:
        descend = solvers._descend

        def poisoned(net, y, cfg, z, value, grad, *problem):
            def value_(*args):
                f, r, pres = value(*args)
                return (hit(f) if where == "value" else f), r, pres

            def grad_(*args):
                g = grad(*args)
                return hit(g) if where == "grad" else g
            return descend(net, y, cfg, z, value_, grad_, *problem)
        monkeypatch.setattr(solvers, "_descend", poisoned)


# (method, poisoned quantity, its call, the stop site's message, trace length
# of a row that stops there). GD evaluates the objective and the gradient
# once at the initial point; its iteration q takes the (q + 1)-th gradient.
SITES = [
    ("admm-l1", "z", 3, "non-finite z iterate at iteration 3", 3),
    ("admm-l1", "w", 3, "non-finite w/lambda at iteration 3", 3),
    ("gd-l1sq", "value", 1, "non-finite objective at the initial point", 0),
    ("gd-l1sq", "grad", 1, "non-finite gradient at the initial point", 0),
    ("gd-l1sq", "grad", 4, "non-finite iterate at iteration 3", 3),
    ("gd-l2sq", "value", 1, "non-finite objective at the initial point", 0),
    ("gd-l2sq", "grad", 1, "non-finite gradient at the initial point", 0),
    ("gd-l2sq", "grad", 4, "non-finite iterate at iteration 3", 3),
]


class TestDivergenceSites:
    @pytest.mark.parametrize("method, where, call, site, logged", SITES)
    def test_one_row_diverges_and_the_others_carry_on(self, monkeypatch, method, where,
                                                      call, site, logged):
        net, insts = _instances()
        problems = [(i.M, i.y) for i in insts]
        solver, cfg = SOLVERS[method], SolverConfig(method=method, max_iters=40)
        z0 = np.random.default_rng(7).standard_normal((3, 2, net.k))
        alone = [solver(net, M, y, cfg, z0=z) for (M, y), z in zip(problems, z0)]
        survivor = solver(net, *problems[1], cfg, z0=z0[1, 1:])

        # Row 2 of the block, trial 1's first row, goes non-finite there.
        _poison(monkeypatch, net, where, call, row=2)
        out = solver(net, *_stacks(problems), cfg, z0=z0)
        assert [_fields(out[t]) for t in (0, 2)] == [_fields(alone[t]) for t in (0, 2)]
        assert [out[t].restart_index for t in (0, 2)] == [alone[t].restart_index
                                                          for t in (0, 2)]
        assert out[1].restart_index == 1
        assert _fields(out[1]) == _fields(survivor)

        monkeypatch.undo()
        _poison(monkeypatch, net, where, call, row=0)
        with pytest.raises(SolverDiverged, match=re.escape(f"(restart 0: {site})")) as err:
            solver(net, *problems[1], cfg, z0=z0[1, :1])
        assert len(err.value.trace) == logged


class TestStopBookkeeping:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_no_stop_call_while_no_row_stops(self, monkeypatch, method):
        net, insts = _instances(trials=1)
        z0 = np.random.default_rng(9).standard_normal((4, net.k))
        calls = []
        stop = solvers._Block.stop

        def counted(self, mask, *state, **kw):
            calls.append(int(mask.sum()))
            return stop(self, mask, *state, **kw)
        monkeypatch.setattr(solvers._Block, "stop", counted)
        counts = {}
        for iters in (5, 25):
            calls.clear()
            res = SOLVERS[method](net, insts[0].M, insts[0].y,
                                  SolverConfig(method=method, max_iters=iters), z0=z0)
            assert res.iters_used == iters and not res.converged
            counts[iters] = list(calls)
        # GD tests its starting points for a zero gradient once, before the loop.
        assert counts[5] == counts[25] == ([] if method == "admm-l1" else [0])

    @pytest.mark.parametrize("method", SOLVERS)
    def test_winner_trace_whether_it_stops_first_or_last(self, method):
        # Trial 0 is noiseless and starts one row at its code: that row is a
        # fixed point and stops at once, before every other row of the block.
        # Trial 1's winner runs on after trial 0's rows have all stopped.
        net, insts = _instances(trials=2)
        exact = (insts[0].M, insts[0].M @ forward(net, insts[0].z0))
        problems = [exact, (insts[1].M, insts[1].y)]
        solver, cfg = SOLVERS[method], SolverConfig(method=method, max_iters=150)
        z0 = np.random.default_rng(10).standard_normal((2, 3, net.k))
        z0[0, 1] = insts[0].z0
        out = solver(net, *_stacks(problems), cfg, z0=z0)
        alone = [solver(net, M, y, cfg, z0=z) for (M, y), z in zip(problems, z0)]
        assert [_fields(r) for r in out] == [_fields(r) for r in alone]
        assert [r.restart_index for r in out] == [r.restart_index for r in alone]
        assert out[0].restart_index == 1 and out[0].converged
        assert out[0].iters_used <= 2 < out[1].iters_used
        # Each winner, trace included, equals its row solved on its own.
        for (M, y), z, res in zip(problems, z0, out):
            single = solver(net, M, y, cfg, z0=z[res.restart_index])
            assert _fields(single) == _fields(res)


class TestRowState:
    """Every `stop` and `diverge` leaves each entry of the block's row state
    `_Block.s` with one row per running row, and a problem that all rows
    share is the caller's own array, never compacted or copied."""

    # (region model, method, poisoned quantity, its call, the stop site's
    # message): each divergence site of SITES, and ADMM's also on the region
    # model with the cut lowered.
    CASES = [(False, *site[:4]) for site in SITES] + \
        [(True, *site[:4]) for site in SITES if site[0] == "admm-l1"]

    @staticmethod
    def _checking(monkeypatch, shared):
        """Wrap `stop` and `diverge` to check the row state after each call;
        `shared` is the caller's (M, y) of one problem, or None. A `stop`
        must also leave exactly the rows outside its mask running. Returns
        the blocks checked, one entry per call."""
        blocks = []

        def check(blk, running):
            blocks.append(blk)
            assert running is None or len(blk.s.rows) == running
            for name in blk.s.__slots__:
                value = getattr(blk.s, name, None)
                if value is None:
                    continue
                if shared is not None and name in ("M", "y"):
                    assert value is shared[name == "y"], name
                    continue
                for a in value if isinstance(value, tuple) else (value,):
                    assert len(a) == len(blk.s.rows), name

        for name in ("stop", "diverge"):
            def checked(self, *args, _name=name, _original=getattr(solvers._Block, name), **kw):
                running = len(self.s.rows) - int(np.sum(args[0])) if _name == "stop" else None
                _original(self, *args, **kw)
                check(self, running)
            monkeypatch.setattr(solvers._Block, name, checked)
        return blocks

    @pytest.mark.parametrize("trials", [False, True], ids=["one-problem", "three-trials"])
    @pytest.mark.parametrize("region_model, method, where, call, site", CASES)
    def test_every_entry_is_compacted_and_a_shared_problem_kept(
            self, monkeypatch, trials, region_model, method, where, call, site):
        if region_model:
            monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        net, insts = _instances()
        solver, cfg = SOLVERS[method], SolverConfig(method=method, max_iters=40)
        if trials:
            M, y = _stacks([(i.M, i.y) for i in insts])
            z0 = np.random.default_rng(7).standard_normal((3, 2, net.k))
        else:
            M, y = insts[0].M, insts[0].y
            z0 = np.random.default_rng(7).standard_normal((3, net.k))
        blocks = self._checking(monkeypatch, None if trials else (M, y))
        _poison(monkeypatch, net, where, call, row=1)
        out = solver(net, M, y, cfg, z0=z0)
        assert all(not isinstance(res, SolverDiverged) for res in (out if trials else [out]))
        assert list(blocks[-1].errors.values()) == [site]
