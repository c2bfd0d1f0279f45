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

from ._common import as_matrix, as_rows, as_vector, matvec, row_dot, substreams
from ._common import default_zero_tol  # noqa: F401  kept importable from here
from .generator import (IDENTITY, LEAKY_RELU, GeneratorNetwork, compose_linear, forward,
                        forward_pattern, jacobian, layer_preactivations, pullback, region_maps)

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
    iters_used: int = 0
    trace: list[TraceRecord] = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False


class Metrics(NamedTuple):
    eps_m: float
    eps_r: float | None
    eps_r_per_pixel: float | None


def soft_threshold(v, tau: float) -> np.ndarray:
    """Element-wise shrink toward zero by tau (proximal operator of |.|_1):
    v - clip(v, -tau, tau), that is 0 where |v| <= tau and v - sign(v) tau
    elsewhere."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    v = np.asarray(v, dtype=np.float64)
    # Two ufuncs, not np.clip, whose Python wrapper costs more than the work here.
    return v - np.minimum(np.maximum(v, -tau), tau)


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


def _check_method(cfg: SolverConfig, *allowed: str) -> None:
    if cfg.method not in allowed:
        raise ValueError(f"config method {cfg.method!r} does not match solver {allowed}")


def _problem(net: GeneratorNetwork, M, y, cfg: SolverConfig, z0, compose: bool = False):
    """Validated problem arrays and starting points.

    One problem: M (m, n), y (m,) and z0 one code, a (B, k) block of codes,
    or None for restart 0's draw; z comes back as the (B, k) block.
    T problems: M (T, m, n), y (T, m) and z0 a (T, R, k) block, R starting
    points per problem; M and y come back with one problem per row of z,
    (T R, m, n) and (T R, m), and z as the (T, R, k) block.

    With `compose` (identity nets only), M and y come back composed with the
    net, G(z) = W z + g everywhere: A = M W and b = y - M g, (m, k) and (m,)
    or one per row, so that M G(z) - y = A z - b.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim not in (2, 3):
        raise ValueError(f"M must be 2-D, or a 3-D stack of problems, got shape {M.shape}")
    if M.shape[-1] != net.n:
        raise ValueError(f"M has {M.shape[-1]} columns, net outputs {net.n}")
    if M.ndim == 2:
        y = as_vector(y, M.shape[0], "y")
        z = _starts(net, cfg, 1) if z0 is None else np.array(as_rows(z0, net.k, "z0"), ndmin=2)
        if not len(z):
            raise ValueError("z0 needs at least one starting point")
    else:
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.shape != M.shape[:2]:
            raise ValueError(f"y has shape {y.shape}, expected {M.shape[:2]}")
        z = None if z0 is None else np.ascontiguousarray(z0, dtype=np.float64)
        if z is None or z.ndim != 3 or z.shape[0] != len(M) or z.shape[2] != net.k \
                or not z.size:
            raise ValueError(f"{len(M)} problems need z0 as a ({len(M)}, R, {net.k}) block "
                             f"with R >= 1, got {None if z is None else z.shape}")
    if compose:   # before the repeat: one product per problem
        M, y = M @ compose_linear(net), y - matvec(M, _offset(net))
    if M.ndim == 2:
        return M, y, z
    return np.repeat(M, z.shape[1], axis=0), np.repeat(y, z.shape[1], axis=0), z


def _offset(net: GeneratorNetwork) -> np.ndarray:
    """G(0): an identity net's G(z) = J z + G(0) at every z."""
    return forward(net, np.zeros(net.k))


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


# Row-wise reductions over a (b, m) block (see `row_dot` for the rounding).
def _l1(r: np.ndarray) -> np.ndarray:
    return np.abs(r).sum(axis=-1)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(a, a))


def _finite(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a).all(axis=-1)


def _stale(cached: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Rows whose activation pattern differs from the one their cached
    M J and its pseudo-inverse were built for. J depends on z only through
    the pattern, so the other rows reuse theirs unchanged."""
    if not pattern.shape[1]:   # identity nets have no pattern
        return np.zeros(len(pattern), dtype=bool)
    return (cached != pattern).any(axis=-1)


# admm_l1 and the descent solvers take the region model (`_evaluate`,
# `_descend`) on nets whose layered evaluation of M G(z) costs at least this
# many multiply-adds per row: k n_1 + n_1 n_2 + ... + n_(d-1) n + m n. The
# cut sits at admm_l1's crossover, measured on [k, w, w] leaky nets (k = 5
# and 20, m = w / 2, 100 iterations from random starts, one BLAS thread,
# B = 1 and B = 10 rows). The ratio of layered to model time per iteration
# was 0.85-1.02 at w = 100 (16k multiply-adds), 0.97-1.12 at w = 300 (140k)
# and 1.06-1.38 at w = 400 (245k).
_REGION_MODEL_MIN_MACS = 200_000

# _descend's backtracking evaluates as many trial steps per pass as keep the
# pass within this many multiply-adds (`_row_macs` per trial), and at least
# one. On small nets a pass costs per-call overhead, not arithmetic. CPU time
# of three README sweeps ([4,20,60] leaky net, 5 restarts, 1 worker, one BLAS
# thread): 19.3 s at one trial per pass, 10.1-10.7 s at 50k-200k, 11.5 s at
# 500k and 14.0 s at 1M. The paper-scale net (809k per row) keeps one.
# Composed identity problems (see `_problem`) keep the layered count, though
# their A z - b costs only m k: on [5,30,60] with m = 40, 4,350 per trial
# against 200. Charged m k, a pass of 10 rows widens to all 100 trial steps,
# most of them past the accepted one, and gd-l1sq took 2.8x the time per
# recover-linear solve (10.3 -> 28.7 ms, one BLAS thread).
_LINE_SEARCH_PASS_MACS = 200_000

# No descent objective falls below this: `value` returns ||r||_1^2, ||r||_2^2
# or ||r||_2^2 + lambda ||z||_2^2 with lambda >= 0, or NaN. A backtracking
# pass whose Armijo bounds all lie below it can pass no trial step, so
# `_descend` counts its trials as failed without evaluating them. -inf
# evaluates every pass. At paper scale the first iteration's gradient norm
# (|g|^2 near 1e25 against f near 1e13) puts 28 of its ~40 trial steps,
# each its own layered pass, below the floor.
_OBJECTIVE_FLOOR = 0.0

# solve_trials solves its trials in consecutive chunks whose per-row problem
# copies (trials x restarts x m x n doubles: the solvers keep one M per row)
# stay within this many doubles, and at least one trial per chunk.
_TRIAL_BLOCK_DOUBLES = 1 << 20


def _row_macs(net: GeneratorNetwork, m: int) -> int:
    """Multiply-adds of one layered evaluation of M G(z): k n_1 + ... + m n."""
    return sum(a * b for a, b in zip(net.dims, net.dims[1:])) + m * net.n


def _uses_region_model(net: GeneratorNetwork, m: int) -> bool:
    return _row_macs(net, m) >= _REGION_MODEL_MIN_MACS


# A stale row's region model (P, p, A, c) moves to its new pattern by the
# flipped units' rank-r terms (`_update`) when that costs at most this
# fraction of a rebuild's multiply-adds (`_update_macs`), and after
# `_UPDATE_REFRESH` updates in a row rebuilds it from `region_maps`, to bound
# drift. 0 turns updates off. CPU time on [20,500,500,784] with m = 200 (one
# BLAS thread, medians of 15): a rebuild with its pseudo-inverse took
# 3.4-3.9 ms; an update with its z-operator, for flips in layer 1, 0.9 ms at
# one flip (0.04 of a rebuild's multiply-adds), 1.6 ms at 8 (0.29), 1.9 ms at
# 16 (0.58) and 2.8 ms at 32 (1.16); flips in later layers cost less. An
# update is memory-bound (it streams W_(i+1) and M once), so its time grows
# slower than its multiply-adds; at 0.5 it takes about half a rebuild's time.
_UPDATE_MAX_COST = 0.5

# Over 300 random chains of updates on small ReLU and leaky nets, the
# updated maps stayed within 2e-16 of fresh `region_maps` after one update,
# 5e-16 within 64 and 1e-15 within 200, relative to a bound on the maps'
# entries (tests/test_region_updates.py). The paper instances re-linearise
# 7-14 times in 1000 iterations, so the refresh is a safeguard there.
_UPDATE_REFRESH = 64

# An updated row's z-operator comes from a Cholesky factorization of A^T A
# only while |L|_F |L^-1|_F, an upper bound on cond(A) = cond(L), stays
# within this bound (see `_z_operator`); otherwise the row is rebuilt and
# pseudo-inverted. The normal equations lose cond(A)^2 eps: on (200, 20)
# matrices the operator's largest gap to `pseudo_inverse` was 2e-15 relative
# at cond(A) = 3, 8e-15 at 10 and 6e-13 at 100 (20 draws each). The paper
# instances read cond(A) 2.4-2.8, |L|_F |L^-1|_F 23-24 and a gap of 2e-15.
_Z_OPERATOR_MAX_COND = 100.0


def _update_macs(net: GeneratorNetwork, m: int) -> tuple[np.ndarray, int]:
    """Multiply-adds of `_update` per flipped unit of each layer, and of a
    rebuild (`region_maps` and M J). A flip in layer i is carried through
    each later layer j by one mat-vec with the map after it (W_(j+1), or M
    after the last layer), and adds a rank-1 term to layer j's P and p and
    to A and c."""
    k, widths = net.k, net.dims[1:]
    sizes = [rows * width for width, rows in zip(widths, widths[1:] + (m,))]
    per_flip = [sum(sizes[i + 1:]) + (k + 1) * (sum(widths[i + 1:]) + m)
                for i in range(len(widths))]
    return np.array(per_flip), k * sum(sizes)


def _update(net: GeneratorNetwork, M, big_p, small_p, a, c, old, new) -> None:
    """Move one row's region model, P (w, k), p (w,), A (m, k) and c (m,),
    in place from the region of pattern `old` to that of `new`, layer by
    layer.

    Where layer i's pre-activation maps P_i, p_i changed by C B and C beta
    (carried from earlier layers), its post-activation maps D_i P_i and
    D_i p_i change by D_i^old C (B, beta) and, for each flipped unit u with
    slope change ds_u, by e_u ds_u (P_i[u], p_i[u]) at the updated P_i. The
    map after the layer, W_(i+1) or M, turns both into the next change: one
    mat-vec per carried column, and a gathered column W_(i+1)[:, u] per
    flip."""
    low = net.activation.h if net.activation.kind == LEAKY_RELU else 0.0
    cols, coef, offs = np.empty((net.dims[1], 0)), np.empty((0, net.k)), np.empty(0)
    start = 0
    for i, width in enumerate(net.dims[1:]):
        span = slice(start, start + width)
        start += width
        nxt = net.weights[i + 1] if i + 1 < net.depth else M
        units = np.flatnonzero(old[span] != new[span])
        if cols.shape[1]:
            big_p[span] += cols @ coef
            small_p[span] += cols @ offs
            cols = np.concatenate([nxt @ (np.where(old[span], 1.0, low)[:, None] * cols),
                                   nxt[:, units]], axis=1)
        else:
            cols = nxt[:, units]
        ds = np.where(new[span][units], 1.0 - low, low - 1.0)
        coef = np.concatenate([coef, ds[:, None] * big_p[span][units]])
        offs = np.concatenate([offs, ds * small_p[span][units]])
    a += cols @ coef
    c += cols @ offs


def _z_operator(a: np.ndarray) -> np.ndarray | None:
    """(A^T A)^-1 A^T for one (m, k) A, equal to its pseudo-inverse when A
    has full column rank, from a Cholesky factorization A^T A = L L^T; None
    where the factorization fails or cond(A) may exceed
    `_Z_OPERATOR_MAX_COND`. cond(A) = cond(L) <= |L|_F |L^-1|_F."""
    try:
        chol = np.linalg.cholesky(a.T @ a)
        inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(chol) * np.linalg.norm(inv) <= _Z_OPERATOR_MAX_COND:
        return None
    return (inv.T @ inv) @ a.T


def _empty_region(rows: int, width: int, k: int) -> tuple:
    """Unbuilt region models for `rows` rows with `width` pattern units:
    (P, p, the pattern the maps were built for, updates since the last
    rebuild). A row's first build is a rebuild: it counts as due for a
    refresh."""
    return (np.empty((rows, width, k)), np.empty((rows, width)),
            np.empty((rows, width), dtype=bool), np.full(rows, _UPDATE_REFRESH))


def _move_region(net: GeneratorNetwork, M, pat, stale, a, region, c,
                 accept: Callable[[int], bool] | None = None) -> np.ndarray:
    """Bring the `stale` rows of a region model, `region` (see
    `_empty_region`), A and c, to the patterns `pat`: by `_update` where
    that is cheap enough, not yet due for a refresh and taken by `accept`
    (called with the row after its update, when given), else rebuilt from
    `region_maps`. Returns the rows rebuilt. Each row's choice and
    arithmetic are its own."""
    built, updates = region[2], region[3]
    rebuild = stale.copy()
    todo = np.flatnonzero(stale & (updates < _UPDATE_REFRESH))
    if todo.size and pat.shape[1]:   # identity nets have no pattern: nothing to update
        per_flip, full = _update_macs(net, a.shape[1])
        starts = np.cumsum((0,) + net.dims[1:-1])
        flips = np.add.reduceat(built[todo] != pat[todo], starts, axis=1)
        for row, cost in zip(todo, flips @ per_flip):
            if cost > _UPDATE_MAX_COST * full:
                continue
            _update(net, _rows(M, row), region[0][row], region[1][row], a[row], c[row],
                    built[row], pat[row])
            if accept is None or accept(row):
                built[row], rebuild[row] = pat[row], False
                updates[row] += 1
    if rebuild.any():
        maps = region_maps(net, pat[rebuild])
        M = _rows(M, rebuild)
        a[rebuild] = M @ maps.J
        region[0][rebuild], region[1][rebuild], c[rebuild] = maps.P, maps.p, matvec(M, maps.g)
        built[rebuild], updates[rebuild] = pat[rebuild], 0
    return rebuild


def _relinearize(net: GeneratorNetwork, M, pat, stale, a, a_pinv, region, c) -> None:
    """`_move_region` for admm_l1, with each stale row's z-operator: an
    updated row takes `_z_operator`, or is rebuilt where that gives none;
    a rebuilt row takes `pseudo_inverse`."""
    def accept(row):
        op = _z_operator(a[row])
        if op is not None:
            a_pinv[row] = op
        return op is not None

    rebuilt = _move_region(net, M, pat, stale, a, region, c, accept)
    if rebuilt.any():
        a_pinv[rebuilt] = pseudo_inverse(a[rebuilt])


def _leaves(z, pat, region) -> tuple[np.ndarray, np.ndarray]:
    """The activation pattern P z + p >= 0 of each row of z under the region
    model `region` = (P, p, ...), and the rows whose pattern differs from
    `pat`, the one the maps were built for: those left the region. The
    arrays may carry broadcast axes, as long as they line up."""
    big_p, small_p = region[:2]
    pat_new = matvec(big_p, z) + small_p >= 0.0
    return pat_new, (pat_new != pat).any(axis=-1)


def _evaluate(net: GeneratorNetwork, M, z, pat, a, region,
              c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M G(z), the activation pattern of each row of z and the rows whose
    pattern differs from `pat`, through the region model `region` and c: a
    row that stays in its region (see `_leaves`) takes M G(z) = A z + c.
    Rows that left it go through the layers."""
    pat_new, left = _leaves(z, pat, region)
    mgz = matvec(a, z) + c
    if left.any():
        x, pat_new[left] = forward_pattern(net, z[left])
        mgz[left] = matvec(_rows(M, left), x)
    return mgz, pat_new, left


class _RowState:
    """The running rows' state of a block solve, one attribute per quantity:
    an array with one leading entry per running row, or a tuple of such
    arrays. A problem `M` (m, n) and `y` (m,) shared by every row is kept
    whole; with one problem per row, M (b, m, n) and y (b, m) are rows too.
    The solvers set an entry to None after its last read in an iteration,
    so that stops do not gather it."""

    # `_Block`'s row indices and results, then the solvers' entries. Slots, not a dict: the
    # solver loops read and write them dozens of times per iteration.
    __slots__ = ("rows", "eps_m", "z_hat", "M", "y", "z", "z_new", "pat", "pat_new",
                 "r", "r_new", "mgz", "d", "w", "u", "a", "a_pinv", "region", "b", "c",
                 "stale", "held", "inside", "f", "f_new", "g", "g_new", "pres", "pres_new",
                 "t_trial")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)

    def compact(self, keep: np.ndarray) -> None:
        """Keep the rows where `keep` holds in every entry set but a shared problem
        (`take` gathers small arrays' rows in half the time of a boolean mask).
        An array held under several names is gathered once and stays shared."""
        rows = np.flatnonzero(keep)
        # Keyed by id: the arrays looked up all lived, held by their entries,
        # when compaction began, so no two of them share an id.
        taken = {}

        def take(a):
            if id(a) not in taken:
                taken[id(a)] = a.take(rows, axis=0)
            return taken[id(a)]

        shared = self.M is not None and self.M.ndim == 2
        for name in self.__slots__:
            v = getattr(self, name)
            if v is not None and not (shared and name in ("M", "y")):
                setattr(self, name, tuple(map(take, v)) if isinstance(v, tuple) else take(v))


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

    def diverge(self, *checked, error: str, at: int | None = None) -> None:
        """`stop`, as diverged with `error` (followed by " at iteration `at`"
        when `at` is given), the running rows with a non-finite entry in an
        array of `checked`. The message is formatted only when one does."""
        for a in checked:
            if not np.isfinite(a).all():
                break
        else:
            return
        finite = np.logical_and.reduce([_finite(a.reshape(len(a), -1)) for a in checked])
        self.stop(~finite, error=error if at is None else f"{error} at iteration {at}")

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
    """Linearized ADMM for min_z ||M G(z) - y||_1, in scaled form.

    The split variable is w = M G(z) - y and the multiplier is kept scaled,
    u = lambda / rho (Boyd et al. 2011, section 3.1.1). Each iteration
    linearizes G at the current iterate, M G(z') ~ A z' + c, and solves the
    least-squares z-subproblem A z' = w - u + (y - c) through the
    pseudo-inverse. With d = M G(z') - y and v = d + u, it then sets
    w = soft_threshold(v, 1/rho) and u = v - w: the primal residual d - w is
    the change in u. Initialization: w0 = M G(z0) - y (feasible, so the
    first primal residual is zero by construction) and multiplier 0.
    Because the trajectory need not be monotone on a nonconvex G, the
    iterate with the smallest l1 measurement misfit ||d||_1 is returned, not
    the last one.

    z0 may be a (B, k) block of starting points: the rows run in lockstep,
    each with its own w, multiplier, best iterate and stopping test, and the
    best row is returned with its index as restart_index. A row that goes
    non-finite is dropped; SolverDiverged is raised only if every row does.
    Each row keeps A = M J(z) and its z-operator (the pseudo-inverse) until
    its activation pattern changes. T problems, M (T, m, n) and y (T, m), take z0 as a
    (T, R, k) block and give a list with each problem's result, or its
    SolverDiverged, equal to solving it alone (see `_problem` and `_Block`).

    On an identity net, G(z) = J z + g at every z, so each row also keeps
    c = M g and b = y - c, and every iterate is evaluated as
    d = A z - b, with no layer loop. On other nets above a size cut
    (`_REGION_MODEL_MIN_MACS`; the paper's net passes it, small nets do
    not), each row also keeps its region's affine maps (`region_maps`), c
    and b = y - c, and a new iterate whose pre-activations P z + p keep the
    row's pattern is evaluated as M G(z) = A z + c; rows that leave their
    region go through the layers. A row whose pattern changes in a few
    units moves its maps, A and c by the flipped units' rank-r terms and
    takes its z-operator from a Cholesky factorization of A^T A (see
    `_relinearize`). Either path differs from layered evaluation in the last
    bits; above the cut, results also depend on each row's own history of
    updates and rebuilds, at the level of rounding.

    `probe`, when given, is called once per iteration with a dict of the
    internal quantities for diagnostics: iteration, A, rhs, z_prev, z_new,
    w_input (v), w, lam (the unscaled multiplier rho u) and rho. It needs a
    single starting point.
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
    s.u = np.zeros_like(s.w)
    eps_m = _l1(y - s.mgz)
    blk.record(eps_m, _norm(s.mgz - s.w - y), eps_m, s.z)

    # Each row's cached A and its z-operator, and on the region model
    # `region` (see `_relinearize`) and c = M g (() and None below the cut),
    # are brought to the row's pattern where `stale`. An identity net's
    # c = M G(0) holds at every z, so below the cut it is set once. Identity
    # nets and the region model keep b = y - c, refreshed at re-linearisations;
    # identity nets keep no M G(z). Below the cut the loop calls no helper per
    # iteration: calling `_evaluate` there made 10-row solves on [5,30,60]
    # nets 3-9% slower.
    rows = len(s.z)
    linear = net.activation.kind == IDENTITY
    s.a, s.a_pinv = np.empty((rows, m, net.k)), np.empty((rows, net.k, m))
    s.region = ()
    if _uses_region_model(net, m):
        s.region = _empty_region(rows, s.pat.shape[1], net.k)
        s.c = np.empty((rows, m))
    elif linear:
        s.c = np.broadcast_to(matvec(M, _offset(net)), (rows, m))
    if linear:
        s.mgz = None
    s.stale = np.ones(rows, dtype=bool)
    for q in range(1, cfg.max_iters + 1):
        if s.stale.any():
            if s.region:
                _relinearize(net, s.M, s.pat, s.stale, s.a, s.a_pinv, s.region, s.c)
            else:
                s.a[s.stale] = _rows(s.M, s.stale) @ jacobian(net, s.z[s.stale])
                s.a_pinv[s.stale] = pseudo_inverse(s.a[s.stale])
            if linear or s.region:
                s.b = s.y - s.c
        # w - u + (y - c): b = y - c where kept, else c = M G(z) - A z at the
        # point of linearization.
        rhs = s.w - s.u + (s.b if s.b is not None else s.y - (s.mgz - matvec(s.a, s.z)))
        s.z_new = matvec(s.a_pinv, rhs)
        blk.diverge(s.z_new, error="non-finite z iterate", at=q)
        if not s.rows.size:
            break
        if linear:
            s.d, s.pat_new = matvec(s.a, s.z_new) - s.b, s.pat
        else:
            if s.region:
                s.mgz, s.pat_new, s.stale = _evaluate(net, s.M, s.z_new, s.pat, s.a, s.region,
                                                      s.c)
            else:
                x_new, s.pat_new = forward_pattern(net, s.z_new)
                s.mgz = matvec(s.M, x_new)
            s.d = s.mgz - s.y
        w_input = s.d + s.u
        s.w = soft_threshold(w_input, 1.0 / rho)
        u = w_input - s.w
        s.r, s.u = u - s.u, u
        # The old u was finite, so the new one is finite only where d and w are too.
        blk.diverge(s.u, error="non-finite w/lambda", at=q)
        if not s.rows.size:
            break

        primal, eps_m = _norm(s.r), _l1(s.d)
        s.r = s.d = None   # read for the last time
        blk.record(eps_m, primal, eps_m, s.z_new)
        if probe is not None:
            # A copy: the cached A is overwritten in place when the pattern changes.
            probe({"iteration": q, "A": s.a[0].copy(), "rhs": rhs[0], "z_prev": s.z[0],
                   "z_new": s.z_new[0], "w_input": w_input[0], "w": s.w[0],
                   "lam": rho * s.u[0], "rho": rho})

        if linear or not s.region:
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
    M G(z) - y and `layer_preactivations` (none on a composed identity
    problem) of a block of rows; `grad(z, r, pres) -> g` their
    (sub)gradients, by one backward pass from those pre-activations. Each
    row keeps its own objective, gradient and trial step. Each row stops on
    its own: at max_iters, on ||step|| < tol_step, when _MAX_BACKTRACKS
    trial steps find no decrease (a nonsmooth stall), or, dropped as
    diverged, on a non-finite iterate. Accepted steps never increase a
    row's objective. The row whose last iterate has the smallest eps_m is
    returned.

    `problem` holds the problem's M and y: one problem shared by every row,
    which `value` and `grad` also hold, or, for T problems, one per row,
    compacted with the other per-row state; then z is their (T, R, k) block,
    `value(z, M, y)` (z an equal run of trial points per problem row) and
    `grad(z, r, pres, M, y)` take those of the rows they evaluate, and the
    result is a list, one entry per problem (see `_Block.result`).

    On ReLU and leaky-ReLU nets above the region-model cut
    (`_uses_region_model`), a row whose accepted point keeps the activation
    pattern of the one before, and that holds no model for it, builds that
    region's model, as admm_l1 keeps it (`_move_region`: P, p, A = M J,
    c = M g, and b = y - c). While it holds one, a trial point whose
    P z + p keep the model's pattern is measured on the composed problem
    A z - b, `value(z, A, b, composed=True)`, and an accepted point inside
    the region takes `grad(z, r, (), A)`, A^T times the residual's weight;
    points that leave the region go through the layers. Below the cut, and
    when `problem` is empty, every point goes through the layers.

    Backtracking runs in passes. Each pass evaluates, as one block, the next
    trial steps t, t s, t s^2, ... (s = armijo_shrink) of every row still
    without a step, within `_LINE_SEARCH_PASS_MACS` multiply-adds, and each
    row takes its first step that passes the Armijo test: the bytes of
    trying one step at a time, as `value` treats each row on its own. A
    pass whose Armijo bounds f - c t |g|^2 all lie below `_OBJECTIVE_FLOOR`,
    which no objective goes under, is not evaluated: its trial steps count
    as tried and failed, as they would after evaluation. A row's bound grows
    as its step shrinks, so its last step's bound decides.
    """
    blk = _Block(z, keep_best=False)
    s = blk.s
    if problem:
        s.M, s.y = problem
    m = y.shape[-1]
    s.f, s.r, pres = value(s.z, *_problem_rows(s, slice(None)))
    s.pres = tuple(pres)   # one array per layer, compacted with the rows
    blk.diverge(s.f, error="non-finite objective at the initial point")
    s.g = grad(s.z, s.r, s.pres, *_problem_rows(s, slice(None)))
    blk.diverge(s.g, error="non-finite gradient at the initial point")
    blk.record(s.f, None, _l1(s.r), s.z)
    s.r = None   # read for the last time
    blk.stop(~s.g.any(axis=-1), converged=True)

    model = (s.M is not None and net.activation.kind != IDENTITY
             and _uses_region_model(net, m))
    if model:
        rows = len(s.z)
        s.pat = np.concatenate(s.pres, axis=-1) >= 0.0
        s.region = _empty_region(rows, s.pat.shape[1], net.k)
        s.a, s.c = np.empty((rows, m, net.k)), np.zeros((rows, m))
        s.held = np.zeros(rows, dtype=bool)
    macs = _row_macs(net, m)
    s.t_trial = np.full(len(s.z), cfg.step_init)
    for q in range(1, cfg.max_iters + 1):
        if not s.rows.size:
            break
        gg = row_dot(s.g, s.g)
        if not gg.all():
            blk.stop(gg == 0.0, converged=True)
            gg = gg[gg != 0.0]
        s.z_new, s.f_new, s.r_new = np.empty_like(s.z), np.empty_like(s.f), np.empty((len(s.z), m))
        s.pres_new = tuple(np.empty_like(p) for p in s.pres)
        if model:
            s.inside = np.zeros(len(s.z), dtype=bool)
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
            armijo = s.f[sel, None] - cfg.armijo_c * steps * gg[sel, None]
            tried += width
            if (armijo[:, -1] < _OBJECTIVE_FLOOR).all():   # no step can pass
                t = steps[:, -1] * cfg.armijo_shrink
                continue
            z_try = (s.z[sel, None] - steps[..., None] * s.g[sel, None]).reshape(-1, s.z.shape[1])
            if model:
                f_try, r_try, pres, inside = _region_values(s, value, sel, z_try, width)
            else:
                f_try, r_try, pres = value(z_try, *_problem_rows(s, sel))
            # The bound is at most f, which is finite, so a NaN or inf f_try fails it.
            ok = (f_try <= armijo.ravel()).reshape(steps.shape)
            hit = ok.any(axis=1)
            pick = np.arange(0, ok.size, width) + ok.argmax(axis=1)
            if hit.all():   # every row has its step: no gathers
                done, todo = sel, todo[:0]
            else:
                pick, done, todo, t = (pick[hit], todo[hit], todo[~hit],
                                       steps[~hit, -1] * cfg.armijo_shrink)
            s.z_new[done], s.f_new[done], s.r_new[done] = z_try[pick], f_try[pick], r_try[pick]
            for p_new, p in zip(s.pres_new, pres):
                p_new[done] = p[pick]
            if model:
                s.inside[done] = inside[pick]
        if todo.size:   # rows whose trial steps all failed: stalled
            blk.stop(np.isin(np.arange(len(s.z)), todo))
        if model and s.inside.any():
            s.g_new = _region_grad(s, grad)
        else:
            s.g_new = grad(s.z_new, s.r_new, s.pres_new, *_problem_rows(s, slice(None)))
        blk.diverge(s.z_new, s.g_new, error="non-finite iterate", at=q)

        step = s.z_new - s.z
        ss, sy = row_dot(step, step), row_dot(step, s.g_new - s.g)
        bb = (sy > 0) & np.isfinite(sy)
        s.t_trial = np.where(bb, np.minimum(np.maximum(ss / np.where(bb, sy, 1.0), 1e-20), 1e20),
                             cfg.step_init)

        s.z, s.f, s.g, s.pres = s.z_new, s.f_new, s.g_new, s.pres_new
        s.pres_new = None   # the stop below need not gather it again
        blk.record(s.f, None, _l1(s.r_new), s.z)
        s.r_new = None   # read for the last time
        done = np.sqrt(ss) < cfg.tol_step
        if done.any():
            blk.stop(done, converged=True)
        if model:
            _settle_regions(net, s)
    return blk.result(net)


def _problem_rows(s: _RowState, rows) -> tuple:
    """What `value` and `grad` take of a descent block's problem for the
    rows `rows` of `s`: nothing for a problem they hold (shared, or not
    given), else those rows' M and y."""
    return () if s.M is None or s.M.ndim == 2 else (s.M[rows], s.y[rows])


def _region_values(s: _RowState, value: Callable, sel, z_try: np.ndarray, width: int):
    """`value`'s (f, r, pres) at the trial points z_try of `_descend`'s
    rows `sel` of `s`, `width` consecutive points per row, and which points
    stayed in their row's region model. Those are measured on the composed
    A z - b, with no pre-activations (their rows of pres are left unset);
    the others, all points when none stayed, go through the layers."""
    ids = np.arange(len(s.z))[sel]
    inside = np.zeros((len(ids), width), dtype=bool)
    held = np.flatnonzero(s.held[ids])
    if held.size:
        rows = sel if held.size == len(ids) else ids[held]   # views when sel is
        big_p, small_p, built = (a[rows][:, None] for a in s.region[:3])
        _, left = _leaves(z_try.reshape(len(ids), width, -1)[held], built, (big_p, small_p))
        inside[held] = ~left
    inside = inside.ravel()
    if inside.all():   # equal runs of points per row, as the layered call takes them
        return (*value(z_try, s.a[sel], s.b[sel], composed=True), inside)
    if not inside.any():
        return (*value(z_try, *_problem_rows(s, sel)), inside)
    own, out = np.repeat(ids, width), ~inside
    f, r = np.empty(len(z_try)), np.empty((len(z_try), s.a.shape[1]))
    pres = [np.empty((len(z_try),) + p.shape[1:]) for p in s.pres]
    f[inside], r[inside], _ = value(z_try[inside], s.a[own[inside]], s.b[own[inside]],
                                    composed=True)
    if out.any():
        f[out], r[out], layered = value(z_try[out], *_problem_rows(s, own[out]))
        for p, p_out in zip(pres, layered):
            p[out] = p_out
    return f, r, pres, inside


def _region_grad(s: _RowState, grad: Callable) -> np.ndarray:
    """`grad` at `_descend`'s accepted points z_new: A^T times the
    residual's weight for rows whose point stayed in their region model,
    one backward pass through the layers for the others."""
    if s.inside.all():
        return grad(s.z_new, s.r_new, (), s.a)
    g, inside, out = np.empty_like(s.z_new), s.inside, ~s.inside
    g[inside] = grad(s.z_new[inside], s.r_new[inside], (), s.a[inside])
    if out.any():
        g[out] = grad(s.z_new[out], s.r_new[out], tuple(p[out] for p in s.pres_new),
                      *_problem_rows(s, out))
    return g


def _settle_regions(net: GeneratorNetwork, s: _RowState) -> None:
    """Take `_descend`'s accepted points' activation patterns into `s.pat`,
    and build or move (`_move_region`) the region model of each row whose
    pattern held over its last step and that holds no model for it. A row
    whose pattern still changes builds nothing: early on, patterns change
    at most steps, and a model built there would rarely be used."""
    built = s.region[2]
    if s.inside.all():   # every row holds the model of its pattern
        s.pat, s.inside = built.copy(), None
        return
    pat, out = built.copy(), ~s.inside
    pat[out] = np.concatenate([p[out] for p in s.pres], axis=-1) >= 0.0
    due = ~_stale(s.pat, pat) & (~s.held | _stale(built, pat))
    s.pat, s.inside = pat, None
    if due.any():
        _move_region(net, s.M, pat, due, s.a, s.region, s.c)
        s.b = s.y - s.c
        s.held |= due


def _signal(net: GeneratorNetwork, z, linear: bool):
    """What a descent solve measures at each row of z, and the pre-activations
    it came from: G(z) and its `layer_preactivations`, or, on a problem
    composed with an identity net or a region model (`linear`, see
    `_problem` and `_descend`), z and none."""
    if linear:
        return z, ()
    pres = layer_preactivations(net, z)
    return net.activation.apply(pres[-1]), pres


def gd_squared_l1(net: GeneratorNetwork, M, y, cfg: SolverConfig,
                  z0=None) -> RecoveryResult | list:
    """Gradient descent on f(z) = ||M G(z) - y||_1^2.

    The descent direction comes from the subgradient
    2 ||r||_1 J^T M^T sign(r) with sign(0) = 0; the objective is
    non-differentiable only on a measure-zero set. On an identity net the
    solve runs on the composed A z - b (see `_problem`), with gradient
    2 ||r||_1 A^T sign(r); on nets above the region-model cut, so do the
    points that stay in a row's region model (see `_descend`). z0 may be a
    (B, k) block of starting points, or T problems' (T, R, k) block, as in
    `_descend`.
    """
    _check_method(cfg, GD_L1SQ)
    linear = net.activation.kind == IDENTITY
    M, y, z = _problem(net, M, y, cfg, z0, compose=linear)

    def value(z, M=M, y=y, *, composed=linear):
        x, pres = _signal(net, z, composed)
        r = _residual(M, x, y)
        l1 = _l1(r)
        return l1 * l1, r, pres

    def grad(z, r, pres, M=M, *_):
        g = pullback(net, pres, matvec(np.swapaxes(M, -1, -2), np.sign(r)))
        return (2.0 * _l1(r))[:, None] * g

    return _descend(net, y, cfg, z, value, grad, M, y)


def gd_squared_l2(net: GeneratorNetwork, M, y, cfg: SolverConfig,
                  z0=None) -> RecoveryResult | list:
    """Gradient descent on ||M G(z) - y||_2^2, plus lambda_reg ||z||_2^2 for
    the regularized method. On an identity net the solve runs on the
    composed A z - b (see `_problem`); on nets above the region-model cut,
    so do the points that stay in a row's region model (see `_descend`).
    z0 may be a (B, k) block of starting points, or T problems' (T, R, k)
    block, as in `_descend`."""
    _check_method(cfg, GD_L2SQ, GD_L2SQ_REG)
    linear = net.activation.kind == IDENTITY
    M, y, z = _problem(net, M, y, cfg, z0, compose=linear)
    lam = cfg.lambda_reg if cfg.method == GD_L2SQ_REG else 0.0

    def value(z, M=M, y=y, *, composed=linear):
        x, pres = _signal(net, z, composed)
        r = _residual(M, x, y)
        f = row_dot(r, r)
        if lam > 0:
            f = f + lam * row_dot(z, z)
        return f, r, pres

    def grad(z, r, pres, M=M, *_):
        g = 2.0 * pullback(net, pres, matvec(np.swapaxes(M, -1, -2), r))
        if lam > 0:
            g = g + 2.0 * lam * z
        return g

    return _descend(net, y, cfg, z, value, grad, M, y)


_SOLVERS: dict[str, Callable] = {
    ADMM_L1: admm_l1,
    GD_L1SQ: gd_squared_l1,
    GD_L2SQ: gd_squared_l2,
    GD_L2SQ_REG: gd_squared_l2,
}


def _starts(net: GeneratorNetwork, cfg: SolverConfig, count: int | None = None) -> np.ndarray:
    """The (count, k) block of multi_restart's first `count` (default
    cfg.restarts) starting points: restart i draws N(0, init_scale^2 I) from
    substream (i,) of cfg.seed."""
    rngs = substreams(cfg.seed, [(i,) for i in range(cfg.restarts if count is None else count)])
    return np.stack([rng.normal(0.0, cfg.init_scale, size=net.k) for rng in rngs])


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
    config of `cfgs`, the trials' restarts run in lockstep as blocks of
    trials x restarts rows.

    The configs may differ only in seed, and the problems must share their
    shape. Entry i is what multi_restart gives for trial i, byte for byte,
    or, where all of trial i's restarts diverge, its SolverDiverged in place
    of the result; the other trials are unaffected. The trials run in
    consecutive chunks of at least one trial, each within
    `_TRIAL_BLOCK_DOUBLES` of per-row problem copies.
    """
    cfgs = list(cfgs)
    if not cfgs or len(problems) != len(cfgs):
        raise ValueError(f"need one config per problem and at least one, got "
                         f"{len(cfgs)} configs for {len(problems)} problems")
    if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
        raise ValueError("the trials' solver configs may differ only in seed")
    if len({(np.shape(mat), np.shape(vec)) for mat, vec in problems}) != 1:
        raise ValueError("the trials' problems must share one shape")
    solver, z0 = _SOLVERS[cfgs[0].method], np.stack([_starts(net, c) for c in cfgs])
    step = max(1, _TRIAL_BLOCK_DOUBLES // (z0.shape[1] * max(1, np.size(problems[0][0]))))
    out = []
    for chunk in range(0, len(problems), step):
        part = problems[chunk:chunk + step]
        M = np.stack([np.asarray(mat, dtype=np.float64) for mat, _ in part])
        y = np.stack([np.asarray(vec, dtype=np.float64) for _, vec in part])
        out += solver(net, M, y, cfgs[0], z0=z0[chunk:chunk + step])
    return out


def write_trace(trace: list[TraceRecord], path) -> None:
    """Export an iterate trace as CSV rows (iter, objective, primal_residual, eps_m)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "primal_residual", "eps_m"])
        writer.writerows([r.iteration, repr(r.objective), repr(r.primal_residual), repr(r.eps_m)]
                         for r in trace)
