"""The Armijo screen of the descent solvers' backtracking: a pass whose
sufficient-decrease bounds f - c t |g|^2 all lie below `_OBJECTIVE_FLOOR`,
under which no objective falls, counts its trial steps as failed without
evaluating them. Every result must equal the unscreened search's (the floor
at -inf), byte for byte."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genrec import solvers
from genrec.generator import Activation, random_gaussian_net
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import SolverConfig, multi_restart, solve_trials

from conftest import make_linear_net

KINDS = [("identity", 1.0), ("relu", 1.0), ("leaky_relu", 0.2)]
METHODS = ["gd-l1sq", "gd-l2sq", "gd-l2sq-reg"]
UNSCREENED = float("-inf")


def _fields(res):
    """Every field of a result, with arrays as bytes and floats by repr."""
    return (res.z_hat.tobytes(), res.x_hat.tobytes(), repr(res.eps_m), res.iters_used,
            res.restart_index, res.converged,
            [tuple(map(repr, (r.iteration, r.objective, r.primal_residual, r.eps_m)))
             for r in res.trace])


def _config(method, **kw):
    return SolverConfig(method=method, lambda_reg=0.5 if method == "gd-l2sq-reg" else 0.0,
                        **kw)


def _instances(kind, h, trials=1, seed=37, dims=(4, 16, 24), m=18):
    net = random_gaussian_net(list(dims), Activation(kind, h), seed)
    return net, [build_instance(net, MeasurementModel(m=m, n=dims[-1], outlier_count=2,
                                                      seed=seed + 1 + t), seed=seed + 2 + t)
                 for t in range(trials)]


@pytest.fixture
def calls(monkeypatch):
    """Per `_descend` call, the events of its solve in order: ("value", rows)
    for each `value` call and "grad" for each `grad` call (one at the start,
    then one per iteration)."""
    solves = []
    original = solvers._descend

    def descend(net, y, cfg, z, value, grad, *problem):
        events = []
        solves.append(events)

        def counted_value(z, *args, **kw):
            events.append(("value", len(z)))
            return value(z, *args, **kw)

        def counted_grad(*args):
            events.append("grad")
            return grad(*args)
        return original(net, y, cfg, z, counted_value, counted_grad, *problem)
    monkeypatch.setattr(solvers, "_descend", descend)
    return solves


def _value_calls(solves):
    return sum(event != "grad" for events in solves for event in events)


def _both(monkeypatch, calls, solve):
    """solve() screened and unscreened, and the `value` calls each made."""
    out = []
    for floor in (solvers._OBJECTIVE_FLOOR, UNSCREENED):
        monkeypatch.setattr(solvers, "_OBJECTIVE_FLOOR", floor)
        calls.clear()
        out += [solve(), _value_calls(calls)]
    return out


class TestScreenedEqualsUnscreened:
    @pytest.mark.parametrize("path", ["layered", "model"])
    @pytest.mark.parametrize("step_init", [1e8, 1e10, 1e12])
    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_one_step_per_pass(self, monkeypatch, calls, method, kind, h, step_init, path):
        # One trial step per pass, as at paper scale: every large first step
        # is a pass of its own, and those below the floor are screened.
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)
        if path == "model":
            monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        net, [inst] = _instances(kind, h)
        cfg = _config(method, max_iters=60, restarts=5, seed=40, step_init=step_init)
        screened, fewer, unscreened, more = _both(
            monkeypatch, calls, lambda: multi_restart(net, inst.M, inst.y, cfg))
        assert _fields(screened) == _fields(unscreened)
        assert fewer < more

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_default_pass_width(self, monkeypatch, calls, method, kind, h):
        net, [inst] = _instances(kind, h)
        cfg = _config(method, max_iters=60, restarts=5, seed=40, step_init=1e12)
        screened, fewer, unscreened, more = _both(
            monkeypatch, calls, lambda: multi_restart(net, inst.M, inst.y, cfg))
        assert _fields(screened) == _fields(unscreened)
        assert fewer <= more

    @pytest.mark.parametrize("path", ["layered", "model"])
    @pytest.mark.parametrize("method", METHODS)
    def test_solve_trials_block(self, monkeypatch, calls, method, path):
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS", 0)
        if path == "model":
            monkeypatch.setattr(solvers, "_REGION_MODEL_MIN_MACS", 0)
        net, insts = _instances("leaky_relu", 0.2, trials=3)
        cfgs = [_config(method, max_iters=60, restarts=4, seed=50 + t, step_init=1e10)
                for t in range(3)]
        screened, fewer, unscreened, more = _both(
            monkeypatch, calls, lambda: solve_trials(net, [(i.M, i.y) for i in insts], cfgs))
        assert list(map(_fields, screened)) == list(map(_fields, unscreened))
        assert fewer < more


def _synthetic(gradients):
    """A two-coordinate problem for `_descend`: the objective is 1 at z = 0
    and 0.5 elsewhere; the gradient at z = 0 is gradients[0] times ones and
    elsewhere gradients[1] times ones. Returns (net, y, value, grad, tried),
    where `tried` collects the trial steps of each `value` call after the
    first, read back from the trial points z = -t g."""
    net, y, tried = make_linear_net([np.eye(2)]), np.zeros(3), []

    def value(z):
        if tried or np.any(z):
            tried.append(-z[:, 0] / gradients[0])
        else:
            tried.append(None)   # the starting point
        return np.where(np.any(z, axis=-1), 0.5, 1.0), np.zeros((len(z), y.size)), [z.copy()]

    def grad(z, r, pres):
        return np.where(np.any(z, axis=-1), gradients[1], gradients[0])[:, None] * \
            np.ones_like(z)
    return net, y, value, grad, tried


class TestNoWastedEvaluation:
    @pytest.mark.parametrize("width", [1, 7, 30])
    def test_no_pass_below_the_floor_is_evaluated(self, monkeypatch, width):
        # At z = 0, f = 1 and |g|^2 = 2e12: step t passes the Armijo bound
        # 1 - 1e-4 t 2e12 >= 0 only from t <= 5e-9, the 31st step from 8.
        rows = 3
        monkeypatch.setattr(solvers, "_LINE_SEARCH_PASS_MACS",
                            width * rows * solvers._row_macs(make_linear_net([np.eye(2)]), 3))
        net, y, value, grad, tried = _synthetic((1e6, 1e6))
        cfg = SolverConfig(method="gd-l1sq", step_init=8.0, armijo_shrink=0.5, max_iters=1)
        res = solvers._descend(net, y, cfg, np.zeros((rows, 2)), value, grad)
        passes = [t.reshape(rows, -1) for t in tried[1:]]
        first = 8.0 * 0.5 ** np.arange(100)
        above = int(np.argmax(1.0 - cfg.armijo_c * first * 2e12 >= 0))
        # Each evaluated pass has a step at or above the floor; the passes
        # before it were skipped whole, so the first evaluated pass starts
        # at the first pass boundary at or past (above // width) * width.
        assert all((1.0 - cfg.armijo_c * p[:, -1] * 2e12 >= 0).any() for p in passes)
        assert np.array_equal(passes[0][0], first[above // width * width:][:width])
        assert res.iters_used == 1

    def test_stall_below_the_floor(self, monkeypatch):
        # The first iteration accepts step 8; at the point it reaches the
        # gradient is 1e20 per entry, so all 100 trial steps of the second
        # iteration lie below the floor. The row stops there, not converged,
        # as the unscreened search stops it after evaluating all 100.
        out = []
        for floor in (solvers._OBJECTIVE_FLOOR, UNSCREENED):
            monkeypatch.setattr(solvers, "_OBJECTIVE_FLOOR", floor)
            net, y, value, grad, tried = _synthetic((1.0, 1e20))
            cfg = SolverConfig(method="gd-l1sq", step_init=8.0, max_iters=20)
            res = solvers._descend(net, y, cfg, np.zeros((1, 2)), value, grad)
            out.append((_fields(res), len(tried)))
        (screened, screened_calls), (unscreened, unscreened_calls) = out
        assert screened == unscreened
        assert screened[3:6] == (1, 0, False)   # iters_used, restart_index, converged
        # The start and the first iteration's one pass; the unscreened
        # search evaluates the second iteration's trial steps too.
        assert screened_calls == 2 < unscreened_calls


def _values(method, kind, h):
    """The `value` function of a descent method on a small net, as the
    solver hands it to `_descend`."""
    net, [inst] = _instances(kind, h)
    got = []
    with mock.patch.object(solvers, "_descend", lambda *args: got.append(args[4])):
        solvers._SOLVERS[method](net, inst.M, inst.y, _config(method), z0=np.zeros(net.k))
    return net, got[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestObjectiveFloor:
    """Every descent objective is >= 0 or NaN at any finite point, through
    the layers and on a composed A z - b: the screen's premise."""

    VALUES = {(method, kind): _values(method, kind, h)
              for method in METHODS for kind, h in KINDS}

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(VALUES)),
           z=hnp.arrays(np.float64, (3, 4), elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)),
           composed=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_value_is_at_least_the_floor(self, key, z, composed, seed):
        net, value = self.VALUES[key]
        with np.errstate(all="ignore"):
            if composed:
                rng = np.random.default_rng(seed)
                a, b = rng.standard_normal((3, 18, net.k)), rng.standard_normal((3, 18))
                f = value(z, a, b, composed=True)[0]
            else:
                f = value(z)[0]
        assert f.shape == (3,)
        assert np.all((f >= solvers._OBJECTIVE_FLOOR) | np.isnan(f))


class TestAboveTheCut:
    def test_first_iteration_trials(self, calls):
        # [10,400,500] with m = 100 is above the region-model cut: a pass
        # holds one trial step per row. From step_init = 1 the first
        # iteration's large steps lie below the floor and are not evaluated.
        net, [inst] = _instances("leaky_relu", 0.2, seed=3, dims=(10, 400, 500), m=100)
        assert solvers._uses_region_model(net, 100)
        multi_restart(net, inst.M, inst.y, _config("gd-l1sq", max_iters=3, restarts=1, seed=6))
        [events] = calls
        first, second = [i for i, event in enumerate(events) if event == "grad"][:2]
        trials = sum(rows for _, rows in events[first + 1:second])
        assert 1 <= trials <= 14
