"""Recovery solvers for min_z || M G(z) - y || objectives.

Four methods: linearized ADMM on the l1 objective, and gradient descent on
the squared l1, squared l2, and ridge-regularized squared l2 objectives.
Shared primitives (soft-thresholding, SVD pseudo-inverse, Armijo line search
with a Barzilai-Borwein trial step, multi-restart driver) live here too.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from ._common import as_matrix, as_rows, as_vector, matvec, substream
from .generator import (GeneratorNetwork, activation_pattern, forward, forward_pattern,
                        jacobian, layer_preactivations, region_maps)

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
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("rho", "lambda_reg", "init_scale", "step_init", "armijo_c",
                     "armijo_shrink", "tol_primal", "tol_step"):
            value = getattr(self, name)
            if name == "tol_primal" and value is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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
        return asdict(self)

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
    in a (B, p, q) stack. Singular values below eps * max(p, q) * sigma_max
    are treated as zero."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"A must be 2-D or a 3-D stack, got shape {a.shape}")
    if not np.isfinite(a).all():
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
    """Validated problem arrays and starting points.

    One problem: M (m, n), y (m,) and z0 one code, a (B, k) block of codes,
    or None for restart 0's draw; z comes back as the (B, k) block.
    T problems: M (T, m, n), y (T, m) and z0 a (T, R, k) block, R starting
    points per problem; M and y come back with one problem per row of z,
    (T R, m, n) and (T R, m), and z as the (T, R, k) block.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim not in (2, 3):
        raise ValueError(f"M must be 2-D, or a 3-D stack of problems, got shape {M.shape}")
    if M.shape[-1] != net.n:
        raise ValueError(f"M has {M.shape[-1]} columns, net outputs {net.n}")
    if M.ndim == 2:
        y = as_vector(y, M.shape[0], "y")
        z = np.array(_initial_z(net, cfg, 0) if z0 is None else as_rows(z0, net.k, "z0"),
                     ndmin=2)
        if not len(z):
            raise ValueError("z0 needs at least one starting point")
        return M, y, z
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != M.shape[:2]:
        raise ValueError(f"y has shape {y.shape}, expected {M.shape[:2]}")
    z = None if z0 is None else np.ascontiguousarray(z0, dtype=np.float64)
    if z is None or z.ndim != 3 or z.shape[0] != len(M) or z.shape[2] != net.k \
            or not z.size:
        raise ValueError(f"{len(M)} problems need z0 as a ({len(M)}, R, {net.k}) block "
                         f"with R >= 1, got {None if z is None else z.shape}")
    return np.repeat(M, z.shape[1], axis=0), np.repeat(y, z.shape[1], axis=0), z


def _rows(M: np.ndarray, rows) -> np.ndarray:
    """M itself when it is one shared problem; its `rows` when it holds one
    problem per row."""
    return M if M.ndim == 2 else M[rows]


def _residual(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M x - y for each row of x. With one problem per row, M (b, m, n) and
    y (b, m), x holds b equal runs of consecutive rows, run i measured with
    M[i] and y[i]: a row's line-search trial points share its M through a
    broadcast, not through copies. Each row rounds as `matvec` does."""
    if M.ndim == 2:
        return matvec(M, x) - y
    x = x.reshape(len(M), -1, x.shape[-1])
    return (matvec(M[:, None], x) - y[:, None]).reshape(-1, y.shape[-1])


# Row-wise reductions over a (b, m) block. Dots go through stacked 1 x 1
# products, so each row rounds as the 1-D `a @ b` and np.linalg.norm do.
def _l1(r: np.ndarray) -> np.ndarray:
    return np.abs(r).sum(axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _finite(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a).all(axis=-1)


def _stale(cached: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Rows whose activation pattern differs from the one their cached
    Jacobian (and M J and its pseudo-inverse) was built for. J depends on z
    only through the pattern, so the other rows reuse theirs unchanged."""
    if not pattern.shape[1]:   # identity nets have no pattern
        return np.zeros(len(pattern), dtype=bool)
    return (cached != pattern).any(axis=-1)


# admm_l1 takes the region model (`_evaluate`) on nets whose layered
# evaluation of M G(z) costs at least this many multiply-adds per row:
# k n_1 + n_1 n_2 + ... + n_(d-1) n + m n. The cut sits at the crossover
# measured on [k, w, w] leaky nets (k = 5 and 20, m = w / 2, 100 iterations
# from random starts, one BLAS thread, B = 1 and B = 10 rows). The ratio of
# layered to model time per iteration was 0.85-1.02 at w = 100 (16k
# multiply-adds), 0.97-1.12 at w = 300 (140k) and 1.06-1.38 at w = 400 (245k).
_REGION_MODEL_MIN_MACS = 200_000

# _descend's backtracking evaluates as many trial steps per pass as keep the
# pass within this many multiply-adds (`_row_macs` per trial), and at least
# one. On small nets a pass costs per-call overhead, not arithmetic. CPU time
# of three README sweeps ([4,20,60] leaky net, 5 restarts, 1 worker, one BLAS
# thread): 19.3 s at one trial per pass, 10.1-10.7 s at 50k-200k, 11.5 s at
# 500k and 14.0 s at 1M. The paper-scale net (809k per row) keeps one.
_LINE_SEARCH_PASS_MACS = 200_000


def _row_macs(net: GeneratorNetwork, m: int) -> int:
    """Multiply-adds of one layered evaluation of M G(z): k n_1 + ... + m n."""
    return sum(a * b for a, b in zip(net.dims, net.dims[1:])) + m * net.n


def _uses_region_model(net: GeneratorNetwork, m: int) -> bool:
    return _row_macs(net, m) >= _REGION_MODEL_MIN_MACS


def _rebuild(net: GeneratorNetwork, M, pat, stale, a, region) -> None:
    """Refill the `stale` rows of admm_l1's region model in place from their
    patterns: A = M J and `region` = (P, p, c = M g)."""
    maps = region_maps(net, pat[stale])
    M = _rows(M, stale)
    a[stale] = M @ maps.J
    region[0][stale], region[1][stale], region[2][stale] = maps.P, maps.p, matvec(M, maps.g)


def _evaluate(net: GeneratorNetwork, M, z, pat, a, region) -> tuple[np.ndarray, np.ndarray]:
    """M G(z) and the activation pattern of each row of z, through the
    region model `region` = (P, p, c): a row whose pre-activations P z + p
    keep the pattern its maps were built for stays in that region, where
    M G(z) = A z + c. Rows that left it go through the layers."""
    big_p, small_p, c = region
    pat_new = matvec(big_p, z) + small_p >= 0.0
    left = (pat_new != pat).any(axis=-1)
    mgz = matvec(a, z) + c
    if left.any():
        x, pat_new[left] = forward_pattern(net, z[left])
        mgz[left] = matvec(_rows(M, left), x)
    return mgz, pat_new


class _RowState:
    """The running rows' state of a block solve, one attribute per quantity:
    an array with one leading entry per running row, or a tuple of such
    arrays. A problem `M` (m, n) and `y` (m,) shared by every row is kept
    whole; with one problem per row, M (b, m, n) and y (b, m) are rows too."""

    # `_Block`'s row indices and results, then the solvers' entries. Slots, not a dict: the
    # solver loops read and write them dozens of times per iteration.
    __slots__ = ("rows", "eps_m", "z_hat", "M", "y", "problem", "z", "z_new", "pat", "pat_new",
                 "r", "r_new", "mgz", "w", "w_input", "lam", "lam_rho", "rhs", "a", "a_pinv",
                 "region", "stale", "f", "f_new", "g", "g_new", "gg", "jac", "t_trial")

    def compact(self, keep: np.ndarray) -> None:
        """Keep the rows where `keep` holds in every entry set but a shared problem
        (`take` gathers small arrays' rows in half the time of a boolean mask)."""
        rows = np.flatnonzero(keep)
        for name in self.__slots__:
            v = getattr(self, name, None)
            if v is not None and not (name in ("M", "y") and self.M.ndim == 2):
                setattr(self, name, tuple(a.take(rows, axis=0) for a in v)
                        if isinstance(v, tuple) else v.take(rows, axis=0))


class _Block:
    """Per-row bookkeeping for a block of starting points run in lockstep.

    The block is one problem's (B, k) starting points, or T problems'
    (T, R, k) starting points flattened to T R rows, each problem (trial)
    a run of R consecutive rows. `s` (a `_RowState`) holds the state of the
    rows still running: their original indices `rows`, in order, their
    results so far, `eps_m` and `z_hat` (the last iterate, or with
    `keep_best` the one with the smallest eps_m), their iterates `z`, and
    every other array that the solver reads again after a `stop` or
    `diverge`, both of which compact all of `s`. Traces are logged as one
    entry per iteration and assembled only for the rows that win. The
    solvers call `stop` only when a row stops and `diverge` tests a finite
    block as a whole: an iteration in which no row stops does no stop
    bookkeeping.
    """

    def __init__(self, z: np.ndarray, keep_best: bool):
        self.per_problem = z.ndim == 3
        self.group = z.shape[-2]   # rows per problem
        z = z.reshape(-1, z.shape[-1])
        self.keep_best = keep_best
        self.z_hat = z.copy()
        self.eps_m = np.full(len(z), np.nan)
        self.s = s = _RowState()
        s.rows, s.eps_m, s.z_hat, s.z = np.arange(len(z)), self.eps_m.copy(), self.z_hat.copy(), z
        self.converged = np.zeros(len(z), dtype=bool)
        self.errors: dict[int, str] = {}
        self._log: list[tuple] = []

    def record(self, objective, primal, eps_m, z) -> None:
        """Log one iteration of the running rows (`primal` None logs NaN) and
        update their results, kept compacted with them until they stop. The
        arrays are kept, not copied: callers do not write into them later."""
        self._log.append((self.s.rows, objective, primal, eps_m))
        if self.keep_best and len(self._log) > 1:
            better = eps_m < self.s.eps_m
            np.copyto(self.s.eps_m, eps_m, where=better)
            np.copyto(self.s.z_hat, z, where=better[:, None])
        else:   # keep_best updates its own copies in place
            self.s.eps_m, self.s.z_hat = (eps_m.copy(), z.copy()) if self.keep_best else (eps_m, z)

    def diverge(self, *checked, error: str) -> None:
        """`stop`, as diverged with `error`, the running rows with a
        non-finite entry in an array of `checked`."""
        if all(np.isfinite(a).all() for a in checked):
            return
        finite = np.logical_and.reduce([_finite(a.reshape(len(a), -1)) for a in checked])
        self.stop(~finite, error=error)

    def stop(self, mask, *, converged=False, error=None) -> None:
        """Stop the running rows where `mask` holds, as converged or as
        diverged with `error`, and compact `s` to the others."""
        stopped, keep = self.s.rows[mask], ~mask
        self.converged[stopped] = converged
        if error is not None:
            self.errors.update(dict.fromkeys(stopped.tolist(), error))
        self.eps_m[stopped], self.z_hat[stopped] = self.s.eps_m[mask], self.s.z_hat[mask]
        self.s.compact(keep)

    def trace(self, row: int) -> list[TraceRecord]:
        """`row`'s entry of each logged iteration it ran. Its position is
        looked up once per run of iterations that share a `rows` array."""
        out = []
        for _, run in groupby(self._log, key=lambda entry: id(entry[0])):
            run = list(run)
            pos = int(np.searchsorted(run[0][0], row))
            if pos == len(run[0][0]) or run[0][0][pos] != row:
                break
            out += [TraceRecord(len(out) + i, objective.item(pos),
                                math.nan if primal is None else primal.item(pos), eps_m.item(pos))
                    for i, (_, objective, primal, eps_m) in enumerate(run)]
        return out

    def _trial(self, net: GeneratorNetwork, start: int):
        """The result of the trial whose rows begin at `start`: its first row
        with the smallest eps_m among those that did not diverge, with
        restart_index counted within the trial; SolverDiverged, with the
        trial's last row's trace, if all did."""
        best = min((i for i in range(start, start + self.group) if i not in self.errors),
                   key=self.eps_m.__getitem__, default=None)
        if best is None:
            last = start + self.group - 1
            return SolverDiverged(f"all restarts diverged (restart {last - start}: "
                                  f"{self.errors[last]})", self.trace(last))
        trace = self.trace(best)
        z = self.z_hat[best].copy()
        return RecoveryResult(z_hat=z, x_hat=forward(net, z), eps_m=float(self.eps_m[best]),
                              iters_used=len(trace) - 1, trace=trace,
                              restart_index=best - start, converged=bool(self.converged[best]))

    def result(self, net: GeneratorNetwork) -> RecoveryResult | list:
        """One problem's result, raising its SolverDiverged; for T problems,
        the list of the T trials' results or SolverDiverged instances."""
        self.eps_m[self.s.rows], self.z_hat[self.s.rows] = self.s.eps_m, self.s.z_hat
        out = [self._trial(net, start) for start in range(0, len(self.eps_m), self.group)]
        if not self.per_problem and isinstance(out[0], SolverDiverged):
            raise out[0]
        return out if self.per_problem else out[0]


def admm_l1(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0=None,
            probe: Callable[[dict], None] | None = None) -> RecoveryResult | list:
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
    pattern changes. T problems, M (T, m, n) and y (T, m), take z0 as a
    (T, R, k) block and give a list with each problem's result, or its
    SolverDiverged, equal to solving it alone (see `_problem` and `_Block`).

    On nets above a size cut (`_REGION_MODEL_MIN_MACS`; the paper's net
    passes it, small nets do not), each row also keeps its region's affine
    maps (`region_maps`), and a new iterate whose pre-activations P z + p
    keep the row's pattern is evaluated as M G(z) = A z + c; rows that leave
    their region go through the layers. That differs from layered
    evaluation in the last bits, but does not depend on the caching.

    `probe`, when given, is called once per iteration with a dict of the
    internal quantities for diagnostics: iteration, A, rhs, z_prev, z_new,
    w_input, w, lam and rho. It needs a single starting point.
    """
    _check_method(cfg, ADMM_L1)
    M, y, z = _problem(net, M, y, cfg, z0)
    if probe is not None and z.size != net.k:
        raise ValueError("probe needs a single starting point")
    rho = cfg.rho
    m = y.shape[-1]
    tol_primal = cfg.tol_primal if cfg.tol_primal is not None else 1e-6 * math.sqrt(m)
    blk = _Block(z, keep_best=True)
    s = blk.s
    s.M, s.y = M, y
    x, s.pat = forward_pattern(net, s.z)
    s.mgz = matvec(M, x)
    s.w = s.mgz - y
    s.lam = np.zeros_like(s.w)
    eps_m = _l1(y - s.mgz)
    blk.record(eps_m, _norm(s.mgz - s.w - y), eps_m, s.z)

    # Each row's cached A, its pseudo-inverse and on the region model
    # `region` = (P, p, c = M g), () below the cut, are rebuilt where `stale`.
    # Below the cut the loop calls no helper per iteration: calling
    # `_evaluate` there made 10-row solves on [5,30,60] nets 3-9% slower.
    rows = len(s.z)
    s.a, s.a_pinv = np.empty((rows, m, net.k)), np.empty((rows, net.k, m))
    s.region = ()
    if _uses_region_model(net, m):
        s.region = (np.empty((rows, s.pat.shape[1], net.k)), np.empty(s.pat.shape),
                    np.empty((rows, m)))
    s.stale = np.ones(rows, dtype=bool)
    for q in range(1, cfg.max_iters + 1):
        if s.stale.any():
            if s.region:
                _rebuild(net, s.M, s.pat, s.stale, s.a, s.region)
            else:
                s.a[s.stale] = _rows(s.M, s.stale) @ jacobian(net, s.z[s.stale])
            s.a_pinv[s.stale] = pseudo_inverse(s.a[s.stale])
        s.lam_rho = s.lam / rho
        s.rhs = s.w + s.y - s.lam_rho - (s.mgz - matvec(s.a, s.z))
        s.z_new = matvec(s.a_pinv, s.rhs)
        blk.diverge(s.z_new, error=f"non-finite z iterate at iteration {q}")
        if not s.rows.size:
            break
        if s.region:
            s.mgz, s.pat_new = _evaluate(net, s.M, s.z_new, s.pat, s.a, s.region)
        else:
            x_new, s.pat_new = forward_pattern(net, s.z_new)
            s.mgz = matvec(s.M, x_new)
        s.w_input = s.mgz - s.y + s.lam_rho
        s.w = soft_threshold(s.w_input, 1.0 / rho)
        s.r = s.mgz - s.w - s.y
        s.lam = s.lam + rho * s.r
        # The multiplier was finite, so the new one is finite only where w is too.
        blk.diverge(s.lam, error=f"non-finite w/lambda at iteration {q}")
        if not s.rows.size:
            break

        primal = _norm(s.r)
        eps_m = _l1(s.y - s.mgz)
        blk.record(eps_m, primal, eps_m, s.z_new)
        if probe is not None:
            # A copy: the cached A is overwritten in place when the pattern changes.
            probe({"iteration": q, "A": s.a[0].copy(), "rhs": s.rhs[0], "z_prev": s.z[0],
                   "z_new": s.z_new[0], "w_input": s.w_input[0], "w": s.w[0],
                   "lam": s.lam[0], "rho": rho})

        s.stale = _stale(s.pat, s.pat_new)
        z_prev, s.z, s.pat = s.z, s.z_new, s.pat_new
        done = primal < tol_primal
        if done.any():   # the step matters only where the primal residual is small
            done &= _norm(s.z - z_prev) < cfg.tol_step
            if done.any():
                blk.stop(done, converged=True)
                if not s.rows.size:
                    break
    return blk.result(net)


def _descend(net: GeneratorNetwork, y, cfg: SolverConfig, z,
             value: Callable, grad: Callable, *problem) -> RecoveryResult | list:
    """Armijo-backtracked descent with a Barzilai-Borwein trial step, run in
    lockstep on the (B, k) block of starting points z.

    `value(z) -> (f, r, pres)` returns the objectives, residuals
    M G(z) - y and `layer_preactivations` of a block of rows; `grad(z, r,
    jac) -> g` their (sub)gradients given their Jacobians. Each row keeps
    its own objective, gradient, trial step and Jacobian, the last
    recomputed only when an accepted step changes the row's activation
    pattern. Each row stops on its own: at max_iters, on ||step|| <
    tol_step, when _MAX_BACKTRACKS trial steps find no decrease (a
    nonsmooth stall), or, dropped as diverged, on a non-finite iterate.
    Accepted steps never increase a row's objective. The row whose last
    iterate has the smallest eps_m is returned.

    For T problems, z is their (T, R, k) block and `problem` holds M and y
    with one problem per row, compacted with the other per-row state;
    `value(z, *problem)` (z an equal run of trial points per problem row)
    and `grad(z, r, jac, *problem)` take those of the rows they evaluate,
    and the result is a list, one entry per problem (see `_Block.result`).

    Backtracking runs in passes. Each pass evaluates, as one block, the next
    trial steps t, t s, t s^2, ... (s = armijo_shrink) of every row still
    without a step, within `_LINE_SEARCH_PASS_MACS` multiply-adds, and each
    row takes its first step that passes the Armijo test: the bytes of
    trying one step at a time, as `value` treats each row on its own.
    """
    blk = _Block(z, keep_best=False)
    s = blk.s
    s.problem = problem
    m = y.shape[-1]
    s.f, s.r, pres = value(s.z, *s.problem)
    s.pat = activation_pattern(net, pres)
    blk.diverge(s.f, error="non-finite objective at the initial point")
    s.jac = jacobian(net, s.z)
    s.g = grad(s.z, s.r, s.jac, *s.problem)
    blk.diverge(s.g, error="non-finite gradient at the initial point")
    blk.record(s.f, None, _l1(s.r), s.z)
    blk.stop(~s.g.any(axis=-1), converged=True)

    macs = _row_macs(net, m)
    s.t_trial = np.full(len(s.z), cfg.step_init)
    for q in range(1, cfg.max_iters + 1):
        if not s.rows.size:
            break
        s.gg = _dot(s.g, s.g)
        if not s.gg.all():
            blk.stop(s.gg == 0.0, converged=True)
        s.z_new, s.f_new, s.r_new = np.empty_like(s.z), np.empty_like(s.f), np.empty((len(s.z), m))
        s.pat_new = np.empty_like(s.pat)
        todo, t, tried = np.arange(len(s.z)), s.t_trial, 0
        while todo.size and tried < _MAX_BACKTRACKS:
            sel = todo if todo.size < len(s.z) else slice(None)   # views on the first pass
            width = min(max(1, _LINE_SEARCH_PASS_MACS // (todo.size * macs)),
                        _MAX_BACKTRACKS - tried)
            # Row i's steps t_i, t_i s, t_i s^2, ...: the accumulation
            # multiplies in turn, as shrinking the step once per trial does.
            steps = np.empty((todo.size, width))
            steps[:, 0], steps[:, 1:] = t, cfg.armijo_shrink
            np.multiply.accumulate(steps, axis=1, out=steps)
            z_try = (s.z[sel, None] - steps[..., None] * s.g[sel, None]).reshape(-1, s.z.shape[1])
            f_try, r_try, pres = value(z_try, *(a[sel] for a in s.problem))
            armijo = s.f[sel, None] - cfg.armijo_c * steps * s.gg[sel, None]
            ok = (np.isfinite(f_try) & (f_try <= armijo.ravel())).reshape(steps.shape)
            hit = ok.any(axis=1)
            pick = np.arange(0, ok.size, width) + ok.argmax(axis=1)
            if hit.all():   # every row has its step: no gathers
                done, todo = sel, todo[:0]
            else:
                pick, done, todo, t = (pick[hit], todo[hit], todo[~hit],
                                       steps[~hit, -1] * cfg.armijo_shrink)
            s.z_new[done], s.f_new[done], s.r_new[done] = z_try[pick], f_try[pick], r_try[pick]
            if s.pat.shape[1]:   # identity nets have no pattern
                s.pat_new[done] = activation_pattern(net, pres)[pick]
            tried += width
        if todo.size:   # rows whose trial steps all failed: stalled
            blk.stop(np.isin(np.arange(len(s.z)), todo))
        stale = _stale(s.pat, s.pat_new)
        if stale.any():
            s.jac[stale] = jacobian(net, s.z_new[stale])
        s.g_new = grad(s.z_new, s.r_new, s.jac, *s.problem)
        blk.diverge(s.z_new, s.g_new, error=f"non-finite iterate at iteration {q}")

        step = s.z_new - s.z
        ss, sy = _dot(step, step), _dot(step, s.g_new - s.g)
        bb = (sy > 0) & np.isfinite(sy)
        s.t_trial = np.where(bb, np.minimum(np.maximum(ss / np.where(bb, sy, 1.0), 1e-20), 1e20),
                             cfg.step_init)

        s.z, s.f, s.g, s.pat = s.z_new, s.f_new, s.g_new, s.pat_new
        blk.record(s.f, None, _l1(s.r_new), s.z)
        done = np.sqrt(ss) < cfg.tol_step
        if done.any():
            blk.stop(done, converged=True)
    return blk.result(net)


def gd_squared_l1(net: GeneratorNetwork, M, y, cfg: SolverConfig,
                  z0=None) -> RecoveryResult | list:
    """Gradient descent on f(z) = ||M G(z) - y||_1^2.

    The descent direction comes from the subgradient
    2 ||r||_1 J^T M^T sign(r) with sign(0) = 0; the objective is
    non-differentiable only on a measure-zero set. z0 may be a (B, k) block
    of starting points, or T problems' (T, R, k) block, as in `_descend`.
    """
    _check_method(cfg, GD_L1SQ)
    M, y, z = _problem(net, M, y, cfg, z0)

    def value(z, M=M, y=y):
        pres = layer_preactivations(net, z)
        r = _residual(M, net.activation.apply(pres[-1]), y)
        l1 = _l1(r)
        return l1 * l1, r, pres

    def grad(z, r, jac, M=M, *_):
        jt = np.swapaxes(jac, -1, -2)
        return (2.0 * _l1(r))[:, None] * matvec(jt, matvec(np.swapaxes(M, -1, -2),
                                                           np.sign(r)))

    return _descend(net, y, cfg, z, value, grad, *((M, y) if M.ndim == 3 else ()))


def gd_squared_l2(net: GeneratorNetwork, M, y, cfg: SolverConfig,
                  z0=None) -> RecoveryResult | list:
    """Gradient descent on ||M G(z) - y||_2^2, plus lambda_reg ||z||_2^2 for
    the regularized method. z0 may be a (B, k) block of starting points, or
    T problems' (T, R, k) block, as in `_descend`."""
    _check_method(cfg, GD_L2SQ, GD_L2SQ_REG)
    M, y, z = _problem(net, M, y, cfg, z0)
    lam = cfg.lambda_reg if cfg.method == GD_L2SQ_REG else 0.0

    def value(z, M=M, y=y):
        pres = layer_preactivations(net, z)
        r = _residual(M, net.activation.apply(pres[-1]), y)
        f = _dot(r, r)
        if lam > 0:
            f = f + lam * _dot(z, z)
        return f, r, pres

    def grad(z, r, jac, M=M, *_):
        g = 2.0 * matvec(np.swapaxes(jac, -1, -2), matvec(np.swapaxes(M, -1, -2), r))
        if lam > 0:
            g = g + 2.0 * lam * z
        return g

    return _descend(net, y, cfg, z, value, grad, *((M, y) if M.ndim == 3 else ()))


_SOLVERS: dict[str, Callable] = {
    ADMM_L1: admm_l1,
    GD_L1SQ: gd_squared_l1,
    GD_L2SQ: gd_squared_l2,
    GD_L2SQ_REG: gd_squared_l2,
}


def _starts(net: GeneratorNetwork, cfg: SolverConfig) -> np.ndarray:
    """The (restarts, k) block of multi_restart's starting points."""
    return np.stack([_initial_z(net, cfg, i) for i in range(cfg.restarts)])


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
    return solver(net, M, y, cfg, z0=_starts(net, cfg))


def solve_trials(net: GeneratorNetwork, problems, cfgs) -> list:
    """`multi_restart` for each trial: problem (M, y) of `problems` with its
    config of `cfgs`, all trials' restarts run in lockstep as one block of
    trials x restarts rows.

    The configs may differ only in seed, and the problems must share their
    shape. Entry i is what multi_restart gives for trial i, byte for byte,
    or, where all of trial i's restarts diverge, its SolverDiverged in place
    of the result; the other trials are unaffected.
    """
    cfgs = list(cfgs)
    if not cfgs or len(problems) != len(cfgs):
        raise ValueError(f"need one config per problem and at least one, got "
                         f"{len(cfgs)} configs for {len(problems)} problems")
    if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
        raise ValueError("the trials' solver configs may differ only in seed")
    try:
        M = np.stack([np.asarray(mat, dtype=np.float64) for mat, _ in problems])
        y = np.stack([np.asarray(vec, dtype=np.float64) for _, vec in problems])
    except ValueError:
        raise ValueError("the trials' problems must share one shape") from None
    z0 = np.stack([_starts(net, c) for c in cfgs])
    return _SOLVERS[cfgs[0].method](net, M, y, cfgs[0], z0=z0)


def write_trace(trace: list[TraceRecord], path) -> None:
    """Export an iterate trace as CSV rows (iter, objective, primal_residual, eps_m)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "primal_residual", "eps_m"])
        writer.writerows([r.iteration, repr(r.objective), repr(r.primal_residual), repr(r.eps_m)]
                         for r in trace)
