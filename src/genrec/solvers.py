"""Recovery solvers for min_z || M G(z) - y || objectives.

Four methods: linearized ADMM on the l1 objective, and gradient descent on
the squared l1, squared l2, and ridge-regularized squared l2 objectives.
Shared primitives (soft-thresholding, SVD pseudo-inverse, Armijo line search
with a Barzilai-Borwein trial step, multi-restart driver) live here too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from ._common import as_matrix, as_rows, as_vector, matvec, substream
from .generator import GeneratorNetwork, forward, forward_pattern, jacobian

ADMM_L1 = "admm-l1"
GD_L1SQ = "gd-l1sq"
GD_L2SQ = "gd-l2sq"
GD_L2SQ_REG = "gd-l2sq-reg"
METHODS = (ADMM_L1, GD_L1SQ, GD_L2SQ, GD_L2SQ_REG)

_MAX_BACKTRACKS = 100


class SolverDiverged(RuntimeError):
    """Raised when a solver produces non-finite iterates. Carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class SolverConfig:
    method: str = ADMM_L1
    rho: float = 1.0                # ADMM penalty
    lambda_reg: float = 0.0         # ridge weight for gd-l2sq-reg
    max_iters: int = 1000
    restarts: int = 1
    init_scale: float = 1.0         # sd of the random z0
    step_init: float = 1.0
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    tol_primal: float | None = None  # default 1e-6 * sqrt(m), resolved per run
    tol_step: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be >= 0")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if not 0 < self.armijo_c < 1 or not 0 < self.armijo_shrink < 1:
            raise ValueError("armijo_c and armijo_shrink must lie in (0, 1)")
        if self.step_init <= 0 or self.tol_step <= 0:
            raise ValueError("step_init and tol_step must be > 0")
        if self.tol_primal is not None and self.tol_primal <= 0:
            raise ValueError("tol_primal must be > 0 when given")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")

    def to_dict(self) -> dict:
        return {
            "method": self.method, "rho": self.rho, "lambda_reg": self.lambda_reg,
            "max_iters": self.max_iters, "restarts": self.restarts,
            "init_scale": self.init_scale, "step_init": self.step_init,
            "armijo_c": self.armijo_c, "armijo_shrink": self.armijo_shrink,
            "tol_primal": self.tol_primal, "tol_step": self.tol_step,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown solver config keys {unknown}")
        return cls(**d)


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    primal_residual: float
    eps_m: float


@dataclass
class RecoveryResult:
    z_hat: np.ndarray
    x_hat: np.ndarray
    eps_m: float
    eps_r: float | None = None
    iters_used: int = 0
    trace: list[TraceRecord] = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False


class Metrics(NamedTuple):
    eps_m: float
    eps_r: float | None
    eps_r_per_pixel: float | None


def soft_threshold(v, tau: float) -> np.ndarray:
    """Element-wise shrink toward zero by tau (proximal operator of |.|_1)."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD, of one matrix or of each matrix
    in a (B, p, q) stack.

    Singular values below eps * max(p, q) * sigma_max are treated as zero.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"A must be 2-D or a 3-D stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("pseudo_inverse requires finite entries")
    rcond = np.finfo(np.float64).eps * max(a.shape[-2:])
    return np.linalg.pinv(a, rcond=rcond)


def default_zero_tol(y) -> float:
    """Threshold for l0 counting of residuals against measurement scale."""
    y = np.asarray(y, dtype=np.float64)
    peak = float(np.max(np.abs(y))) if y.size else 0.0
    return 1e-8 * (1.0 + peak)


def metrics(net: GeneratorNetwork, M, y, z_hat, x0=None) -> Metrics:
    """Measurement misfit eps_m = |y - M G(z)|_1 and, when the ground truth
    x0 is known, the reconstruction error eps_r = |x0 - G(z)|_2^2 together
    with its per-pixel variant eps_r / n."""
    M = as_matrix(M, name="M")
    y = as_vector(y, M.shape[0], "y")
    x_hat = forward(net, z_hat)
    eps_m = float(np.sum(np.abs(y - M @ x_hat)))
    if x0 is None:
        return Metrics(eps_m, None, None)
    x0 = as_vector(x0, net.n, "x0")
    eps_r = float(np.sum((x0 - x_hat) ** 2))
    return Metrics(eps_m, eps_r, eps_r / net.n)


def _initial_z(net: GeneratorNetwork, cfg: SolverConfig, restart: int) -> np.ndarray:
    rng = substream(cfg.seed, (restart,))
    return rng.normal(0.0, cfg.init_scale, size=net.k)


def _check_method(cfg: SolverConfig, *allowed: str) -> None:
    if cfg.method not in allowed:
        raise ValueError(f"config method {cfg.method!r} does not match solver {allowed}")


def _problem(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0):
    """Validated (M, y) and the (B, k) block of starting points: z0 as one
    code or a block of codes, or restart 0's draw when z0 is None."""
    M = as_matrix(M, name="M")
    y = as_vector(y, M.shape[0], "y")
    if M.shape[1] != net.n:
        raise ValueError(f"M has {M.shape[1]} columns, net outputs {net.n}")
    z = np.array(_initial_z(net, cfg, 0) if z0 is None else as_rows(z0, net.k, "z0"),
                 ndmin=2)
    if not len(z):
        raise ValueError("z0 needs at least one starting point")
    return M, y, z


# Row-wise reductions over a (b, m) block. Dots go through stacked 1 x 1
# products, so each row rounds as the 1-D `a @ b` and np.linalg.norm do.
def _l1(r: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(r), axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _finite(a: np.ndarray) -> np.ndarray:
    return np.all(np.isfinite(a), axis=-1)


def _stale(cached: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Rows whose activation pattern differs from the one their cached
    Jacobian (and M J and its pseudo-inverse) was built for. J depends on z
    only through the pattern, so the other rows reuse theirs unchanged."""
    return np.any(cached != pattern, axis=-1)


class _Block:
    """Per-row bookkeeping for a block of starting points run in lockstep.

    `rows` holds the original indices of the rows still running, in order;
    the solver keeps its own state compacted to those rows. Each row keeps
    its result (its last iterate, or with `keep_best` the one with the
    smallest eps_m) and its stop state. Traces are logged as one entry per
    iteration and assembled only for the row that wins.
    """

    def __init__(self, z: np.ndarray, keep_best: bool):
        self.rows = np.arange(len(z))
        self.keep_best = keep_best
        self.z_hat = z.copy()
        self.eps_m = np.full(len(z), np.nan)
        self.converged = np.zeros(len(z), dtype=bool)
        self.errors: dict[int, str] = {}
        self._log: list[tuple] = []

    def record(self, objective, primal, eps_m, z) -> None:
        """Log one iteration of the running rows and update their results.
        `primal` None logs NaN."""
        self._log.append((self.rows, objective, primal, eps_m))
        rows = self.rows
        if self.keep_best and len(self._log) > 1:
            better = eps_m < self.eps_m[rows]
            rows, eps_m, z = rows[better], eps_m[better], z[better]
        self.eps_m[rows] = eps_m
        self.z_hat[rows] = z

    def stop(self, mask, *state, converged=False, error=None) -> tuple:
        """Stop the running rows where `mask` holds, as converged or as
        diverged with `error`, and return `state` compacted to the others."""
        if not mask.any():
            return state
        stopped = self.rows[mask]
        self.converged[stopped] = converged
        if error is not None:
            self.errors.update(dict.fromkeys(stopped.tolist(), error))
        self.rows = self.rows[~mask]
        return tuple(v[~mask] for v in state)

    def trace(self, row: int) -> list[TraceRecord]:
        out = []
        for q, (rows, objective, primal, eps_m) in enumerate(self._log):
            pos = int(np.searchsorted(rows, row))
            if pos == len(rows) or rows[pos] != row:
                break
            out.append(TraceRecord(q, float(objective[pos]),
                                   float("nan") if primal is None else float(primal[pos]),
                                   float(eps_m[pos])))
        return out

    def result(self, net: GeneratorNetwork) -> RecoveryResult:
        """The first row with the smallest eps_m among those that did not
        diverge; SolverDiverged, with the last row's trace, if all did."""
        best = None
        for i in range(len(self.eps_m)):
            if i not in self.errors and (best is None or self.eps_m[i] < self.eps_m[best]):
                best = i
        if best is None:
            last = len(self.eps_m) - 1
            raise SolverDiverged(f"all restarts diverged (restart {last}: {self.errors[last]})",
                                 self.trace(last))
        trace = self.trace(best)
        z = self.z_hat[best].copy()
        return RecoveryResult(z_hat=z, x_hat=forward(net, z), eps_m=float(self.eps_m[best]),
                              iters_used=len(trace) - 1, trace=trace, restart_index=best,
                              converged=bool(self.converged[best]))


def admm_l1(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0=None,
            probe: Callable[[dict], None] | None = None) -> RecoveryResult:
    """Linearized ADMM for min_z ||M G(z) - y||_1.

    Each iteration linearizes G at the current iterate, solves the resulting
    least-squares z-subproblem through the pseudo-inverse, soft-thresholds
    the split variable w, and takes a dual ascent step on the multiplier.
    Initialization: w0 = M G(z0) - y (feasible, so the first primal residual
    is zero by construction) and multiplier 0. Because the trajectory need
    not be monotone on a nonconvex G, the iterate with the smallest l1
    measurement misfit is returned, not the last one.

    z0 may be a (B, k) block of starting points: the rows run in lockstep,
    each with its own w, multiplier, best iterate and stopping test, and the
    best row is returned with its index as restart_index. A row that goes
    non-finite is dropped; SolverDiverged is raised only if every row does.
    Each row keeps A = M J(z) and its pseudo-inverse until its activation
    pattern changes.

    `probe`, when given, is called once per iteration with the internal
    quantities (A, rhs, z_new, w_input, w, lam) for diagnostics; it needs a
    single starting point.
    """
    _check_method(cfg, ADMM_L1)
    M, y, z = _problem(net, M, y, cfg, z0)
    if probe is not None and len(z) != 1:
        raise ValueError("probe needs a single starting point")
    rho = cfg.rho
    tol_primal = cfg.tol_primal if cfg.tol_primal is not None else 1e-6 * math.sqrt(M.shape[0])
    blk = _Block(z, keep_best=True)
    x, pat = forward_pattern(net, z)
    mgz = matvec(M, x)
    w = mgz - y
    lam = np.zeros_like(w)
    eps_m = _l1(y - mgz)
    blk.record(eps_m, _norm(mgz - w - y), eps_m, z)

    # Each row's cached A and its pseudo-inverse, rebuilt where `stale`.
    a = np.empty((len(z), M.shape[0], net.k))
    a_pinv = np.empty((len(z), net.k, M.shape[0]))
    stale = np.ones(len(z), dtype=bool)
    for q in range(1, cfg.max_iters + 1):
        if stale.any():
            a[stale] = M @ jacobian(net, z[stale])
            a_pinv[stale] = pseudo_inverse(a[stale])
        rhs = w + y - lam / rho - (mgz - matvec(a, z))
        z_new = matvec(a_pinv, rhs)
        z, z_new, mgz, pat, w, lam, a, a_pinv, rhs = blk.stop(
            ~_finite(z_new), z, z_new, mgz, pat, w, lam, a, a_pinv, rhs,
            error=f"non-finite z iterate at iteration {q}")
        if not blk.rows.size:
            break
        x_new, pat_new = forward_pattern(net, z_new)
        mgz_new = matvec(M, x_new)
        w_input = mgz_new - y + lam / rho
        w = soft_threshold(w_input, 1.0 / rho)
        lam = lam + rho * (mgz_new - w - y)
        z, z_new, mgz_new, pat, pat_new, w_input, w, lam, a, a_pinv, rhs = blk.stop(
            ~(_finite(w) & _finite(lam)),
            z, z_new, mgz_new, pat, pat_new, w_input, w, lam, a, a_pinv, rhs,
            error=f"non-finite w/lambda at iteration {q}")
        if not blk.rows.size:
            break

        primal = _norm(mgz_new - w - y)
        eps_m = _l1(y - mgz_new)
        blk.record(eps_m, primal, eps_m, z_new)
        if probe is not None:
            # A copy: the cached A is overwritten in place when the pattern changes.
            probe({"iteration": q, "A": a[0].copy(), "rhs": rhs[0], "z_prev": z[0],
                   "z_new": z_new[0], "w_input": w_input[0], "w": w[0], "lam": lam[0],
                   "rho": rho})

        step = _norm(z_new - z)
        stale = _stale(pat, pat_new)
        z, mgz, pat, stale, w, lam, a, a_pinv = blk.stop(
            (primal < tol_primal) & (step < cfg.tol_step),
            z_new, mgz_new, pat_new, stale, w, lam, a, a_pinv, converged=True)
        if not blk.rows.size:
            break
    return blk.result(net)


def _descend(net: GeneratorNetwork, y, cfg: SolverConfig, z,
             value: Callable, grad: Callable) -> RecoveryResult:
    """Armijo-backtracked descent with a Barzilai-Borwein trial step, run in
    lockstep on the (B, k) block of starting points z.

    `value(z) -> (f, r, pattern)` returns the objectives, residuals
    M G(z) - y and activation patterns of a block of rows; `grad(z, r, jac)
    -> g` their (sub)gradients given their Jacobians. Each row keeps its
    own objective, gradient, trial step and Jacobian, the last recomputed
    only when an accepted step changes the row's pattern. Each row stops on
    its own: at max_iters, on ||step|| < tol_step, when backtracking cannot
    find any decrease (a nonsmooth stall), or, dropped as diverged, on a
    non-finite iterate. Accepted steps never increase a row's objective. The
    row whose last iterate has the smallest eps_m is returned.
    """
    blk = _Block(z, keep_best=False)
    f, r, pat = value(z)
    z, f, r, pat = blk.stop(~np.isfinite(f), z, f, r, pat,
                            error="non-finite objective at the initial point")
    jac = jacobian(net, z)
    g = grad(z, r, jac)
    z, f, r, g, pat, jac = blk.stop(~_finite(g), z, f, r, g, pat, jac,
                                    error="non-finite gradient at the initial point")
    blk.record(f, None, _l1(r), z)
    z, f, g, pat, jac = blk.stop(~np.any(g, axis=-1), z, f, g, pat, jac, converged=True)

    t_trial = np.full(len(z), cfg.step_init)
    for q in range(1, cfg.max_iters + 1):
        if not blk.rows.size:
            break
        gg = _dot(g, g)
        z, f, g, gg, t_trial, pat, jac = blk.stop(gg == 0.0, z, f, g, gg, t_trial, pat, jac,
                                                  converged=True)
        # Backtracking: each pass evaluates only the rows still without a step.
        t = t_trial.copy()
        z_new, f_new, r_new = np.empty_like(z), np.empty_like(f), np.empty((len(z), y.size))
        pat_new = np.empty_like(pat)
        todo = np.arange(len(z))
        for _ in range(_MAX_BACKTRACKS):
            z_try = z[todo] - t[todo, None] * g[todo]
            f_try, r_try, pat_try = value(z_try)
            z_new[todo], f_new[todo], r_new[todo], pat_new[todo] = z_try, f_try, r_try, pat_try
            ok = np.isfinite(f_try) & (f_try <= f[todo] - cfg.armijo_c * t[todo] * gg[todo])
            todo = todo[~ok]
            if not todo.size:
                break
            t[todo] *= cfg.armijo_shrink
        stalled = np.zeros(len(z), dtype=bool)
        stalled[todo] = True
        z, g, z_new, f_new, r_new, pat, pat_new, jac = blk.stop(
            stalled, z, g, z_new, f_new, r_new, pat, pat_new, jac)
        stale = _stale(pat, pat_new)
        if stale.any():
            jac[stale] = jacobian(net, z_new[stale])
        g_new = grad(z_new, r_new, jac)
        z, g, z_new, f_new, r_new, g_new, pat_new, jac = blk.stop(
            ~(_finite(z_new) & _finite(g_new)), z, g, z_new, f_new, r_new, g_new, pat_new, jac,
            error=f"non-finite iterate at iteration {q}")

        s = z_new - z
        ss, sy = _dot(s, s), _dot(s, g_new - g)
        bb = (sy > 0) & np.isfinite(sy)
        t_trial = np.full(len(z), cfg.step_init)
        t_trial[bb] = np.minimum(np.maximum(ss[bb] / sy[bb], 1e-20), 1e20)

        z, f, g, pat = z_new, f_new, g_new, pat_new
        blk.record(f, None, _l1(r_new), z)
        z, f, g, t_trial, pat, jac = blk.stop(np.sqrt(ss) < cfg.tol_step,
                                              z, f, g, t_trial, pat, jac, converged=True)
    return blk.result(net)


def gd_squared_l1(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0=None) -> RecoveryResult:
    """Gradient descent on f(z) = ||M G(z) - y||_1^2.

    The descent direction comes from the subgradient
    2 ||r||_1 J^T M^T sign(r) with sign(0) = 0; the objective is
    non-differentiable only on a measure-zero set. z0 may be a (B, k) block
    of starting points, as in `_descend`.
    """
    _check_method(cfg, GD_L1SQ)
    M, y, z = _problem(net, M, y, cfg, z0)

    def value(z):
        x, pat = forward_pattern(net, z)
        r = matvec(M, x) - y
        l1 = _l1(r)
        return l1 * l1, r, pat

    def grad(z, r, jac):
        jt = np.swapaxes(jac, -1, -2)
        return (2.0 * _l1(r))[:, None] * matvec(jt, matvec(M.T, np.sign(r)))

    return _descend(net, y, cfg, z, value, grad)


def gd_squared_l2(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0=None) -> RecoveryResult:
    """Gradient descent on ||M G(z) - y||_2^2, plus lambda_reg ||z||_2^2 for
    the regularized method. z0 may be a (B, k) block of starting points, as
    in `_descend`."""
    _check_method(cfg, GD_L2SQ, GD_L2SQ_REG)
    M, y, z = _problem(net, M, y, cfg, z0)
    lam = cfg.lambda_reg if cfg.method == GD_L2SQ_REG else 0.0

    def value(z):
        x, pat = forward_pattern(net, z)
        r = matvec(M, x) - y
        f = _dot(r, r)
        if lam > 0:
            f = f + lam * _dot(z, z)
        return f, r, pat

    def grad(z, r, jac):
        g = 2.0 * matvec(np.swapaxes(jac, -1, -2), matvec(M.T, r))
        if lam > 0:
            g = g + 2.0 * lam * z
        return g

    return _descend(net, y, cfg, z, value, grad)


_SOLVERS: dict[str, Callable] = {
    ADMM_L1: admm_l1,
    GD_L1SQ: gd_squared_l1,
    GD_L2SQ: gd_squared_l2,
    GD_L2SQ_REG: gd_squared_l2,
}


def multi_restart(net: GeneratorNetwork, M, y, cfg: SolverConfig,
                  solver: Callable | None = None) -> RecoveryResult:
    """Run cfg.restarts independent starts z0 ~ N(0, init_scale^2 I) and keep
    the result with the smallest l1 measurement misfit.

    The starts run in lockstep as one (restarts, k) block passed to `solver`
    as z0; each row stops on its own test, so the result equals running the
    starts one at a time. Restart i draws from the i-th substream of
    cfg.seed, so restart 0 equals a single run with the same config. Rows
    that diverge are dropped; SolverDiverged propagates only if every
    restart diverges.
    """
    if solver is None:
        solver = _SOLVERS[cfg.method]
    z0 = np.stack([_initial_z(net, cfg, i) for i in range(cfg.restarts)])
    return solver(net, M, y, cfg, z0=z0)


def write_trace(trace: list[TraceRecord], path) -> None:
    """Export an iterate trace as CSV rows (iter, objective, primal_residual, eps_m)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "primal_residual", "eps_m"])
        for rec in trace:
            writer.writerow([rec.iteration, repr(rec.objective),
                             repr(rec.primal_residual), repr(rec.eps_m)])
