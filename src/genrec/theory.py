"""Executable verification of the recovery conditions on concrete instances.

Each check turns one of the underlying theoretical statements into a finite
computation: exhaustive l0 recovery on tiny grids, submatrix rank
enumeration, leaky-ReLU secant-slope bounds, the K-majority condition for l1
uniqueness, Monte Carlo estimation of the correctable-outlier fraction, and
the exact right-derivative formula for ReLU difference paths. Results are
ConditionReports: trial counts, failure counts, and the smallest slack seen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._common import (as_matrix, as_rows, as_vector, default_zero_tol, matvec, row_chunks,
                      row_dot, substreams)
from ._common import substream  # noqa: F401  a module attribute the tests patch
from .generator import GeneratorNetwork, LEAKY_RELU, forward, layer_preactivations

ENUMERATION_BUDGET = 1_000_000


@dataclass
class ConditionReport:
    """Outcome of one verification check.

    min_margin is the smallest slack observed; positive means the condition
    held on every trial. failures == 0 iff min_margin > 0 (up to the check's
    zero tolerance).
    """

    condition_name: str
    trials: int
    failures: int
    min_margin: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.failures <= self.trials:
            raise ValueError("failures must lie in [0, trials]")

    def to_dict(self) -> dict:
        return {
            "condition_name": self.condition_name,
            "trials": self.trials,
            "failures": self.failures,
            "min_margin": self.min_margin,
            "params": self.params,
        }


def l0_norm(v, zero_tol: float) -> int:
    """Count of entries with |v_i| > zero_tol."""
    return int(np.count_nonzero(np.abs(np.asarray(v, dtype=np.float64)) > zero_tol))


def l0_separation(net: GeneratorNetwork, M, z, z0, zero_tol: float):
    """|| M G(z) - M G(z0) ||_0 counted with threshold zero_tol.

    z is one code, giving an int, or a (B, k) block of codes, giving one
    count per row.
    """
    M = as_matrix(M, name="M")
    z = as_rows(z, net.k, "z")
    diff = matvec(M, forward(net, z)) - M @ forward(net, z0)
    if z.ndim == 1:
        return l0_norm(diff, zero_tol)
    return np.count_nonzero(np.abs(diff) > zero_tol, axis=1)


def latent_grid(k: int, points: int = 201, lo: float = -3.0, hi: float = 3.0) -> np.ndarray:
    """Regular grid of candidate latent codes, shape (points**k, k)."""
    axes = [np.linspace(lo, hi, points)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def l0_recovery_bruteforce(net: GeneratorNetwork, M, z0, l: int, candidate_grid,
                           zero_tol: float | None = None):
    """Exhaustive l0 recovery under the worst-case admissible outlier vector.

    The adversarial e copies min(l, separation) differing entries of
    M G(z*) - M G(z0) for the grid candidate z* with the smallest separation
    from z0 (the necessity construction). Returns (recovered, e): recovered
    is True iff z0 is the unique minimizer of ||M G(z) - y||_0 over the grid
    with y = M G(z0) + e.
    """
    M = as_matrix(M, name="M")
    grid = np.atleast_2d(np.asarray(candidate_grid, dtype=np.float64))
    if net.k > 2:
        raise ValueError("brute-force recovery is limited to k <= 2")
    if grid.shape[1] != net.k:
        raise ValueError(f"grid rows have length {grid.shape[1]}, expected {net.k}")
    if grid.shape[0] > 200_000:
        raise ValueError("candidate grid too large for exhaustive search")
    z0 = as_vector(z0, net.k, "z0")
    z0_rows = np.flatnonzero(np.all(grid == z0, axis=1))
    if z0_rows.size == 0:
        raise ValueError("candidate grid does not contain z0")
    z0_idx = int(z0_rows[0])

    mg0 = M @ forward(net, z0)
    if zero_tol is None:
        zero_tol = default_zero_tol(mg0)

    outputs = np.empty((grid.shape[0], M.shape[0]))
    for rows in row_chunks(grid.shape[0], max(net.dims + M.shape)):
        outputs[rows] = matvec(M, forward(net, grid[rows]))
    diffs = outputs - mg0
    seps = np.count_nonzero(np.abs(diffs) > zero_tol, axis=1)

    others = np.arange(grid.shape[0]) != z0_idx
    if not np.any(others):
        return True, np.zeros(M.shape[0])
    worst = int(np.flatnonzero(others)[np.argmin(seps[others])])

    e = np.zeros(M.shape[0])
    support = np.flatnonzero(np.abs(diffs[worst]) > zero_tol)
    taken = support[: min(l, support.size)]
    e[taken] = diffs[worst][taken]

    y = mg0 + e
    counts = np.count_nonzero(np.abs(outputs - y) > zero_tol, axis=1)
    best = counts.min()
    minimizers = np.flatnonzero(counts == best)
    recovered = minimizers.size == 1 and int(minimizers[0]) == z0_idx
    return recovered, e


def every_r_rows_full_rank(W, r: int, sv_tol: float | None = None,
                           budget: int = ENUMERATION_BUDGET) -> ConditionReport:
    """Check that every r-row submatrix of W has full column rank.

    Enumerates all C(n, r) submatrices and tests the smallest singular value
    against sv_tol (default 1e-10 * sigma_max of the full W). min_margin is
    the smallest sigma_min seen.
    """
    W = as_matrix(W, name="W")
    n, k = W.shape
    if r < k:
        raise ValueError(f"need r >= k, got r={r}, k={k}")
    if r > n:
        raise ValueError(f"need r <= n, got r={r}, n={n}")
    total = math.comb(n, r)
    if total > budget:
        raise ValueError(
            f"C({n},{r}) = {total} submatrices exceed the enumeration budget "
            f"{budget}; sample subsets instead")
    if sv_tol is None:
        sv_tol = 1e-10 * float(np.linalg.svd(W, compute_uv=False)[0])

    failures = 0
    min_sv = math.inf
    subsets = itertools.combinations(range(n), r)
    for rows in row_chunks(total, r * k):
        idx = np.array(list(itertools.islice(subsets, rows.stop - rows.start)))
        # One stacked SVD per chunk; each matrix gets its own LAPACK call,
        # so its singular values are those of the single-matrix SVD.
        sv = np.linalg.svd(W[idx], compute_uv=False)[:, -1]
        min_sv = min(min_sv, float(np.min(sv)))
        failures += int(np.count_nonzero(sv <= sv_tol))
    return ConditionReport(
        condition_name="every_r_rows_full_rank",
        trials=total, failures=failures, min_margin=min_sv,
        params={"n": n, "k": k, "r": r, "sv_tol": sv_tol})


def leaky_beta(x: float, y: float, h: float) -> float:
    """Secant slope (sigma(x) - sigma(y)) / (x - y) of leaky ReLU.

    Computed branch-wise so the result lands in [h, 1] exactly: same-sign
    pairs give the literal 1.0 or h, mixed-sign pairs a convex combination of
    the two. The true value provably lies in [h, 1], so the division result
    is clamped there to absorb half-ulp rounding at the branch boundary.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError(f"need 0 < h <= 1, got {h}")
    if x == y:
        raise ValueError("leaky_beta requires x != y")
    if x >= 0.0 and y >= 0.0:
        return 1.0
    if x < 0.0 and y < 0.0:
        return h
    p, q = (x, y) if x >= 0.0 else (y, x)  # p >= 0 > q
    if p == 0.0:
        return h
    return min(1.0, max(h, (p - h * q) / (p - q)))


def leaky_beta_vector(a, b, h: float) -> np.ndarray:
    """Vectorized leaky_beta; NaN where a_i == b_i (slope undefined)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = np.maximum(a, b)
    q = np.minimum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.clip((p - h * q) / (p - q), h, 1.0)
    # p == 0 > q: the slope is exactly h, as in leaky_beta; the quotient
    # (h q) / q can round one ulp above it.
    beta = np.where(p == 0.0, h, beta)
    beta = np.where((a >= 0.0) & (b >= 0.0), 1.0, beta)
    beta = np.where((a < 0.0) & (b < 0.0), h, beta)
    return np.where(a == b, np.nan, beta)


def leaky_layer_ratios(net: GeneratorNetwork, z, z0) -> list[np.ndarray]:
    """Per-layer element-wise secant slopes between the two forward passes.

    Layer i contributes (sigma(a) - sigma(b)) / (a - b) for the two
    pre-activation vectors a, b reached from z and z0; entries where the
    pre-activations coincide are NaN. All finite entries lie in [h, 1] for a
    leaky-ReLU net. z and z0 are two codes, or two (B, k) blocks of codes
    paired row by row, giving (B, n_i) ratios per layer.
    """
    if net.activation.kind != LEAKY_RELU:
        raise ValueError("layer ratios are defined for leaky-ReLU nets")
    a = as_rows(z, net.k, "z")
    b = as_rows(z0, net.k, "z0")
    if a.shape != b.shape:
        raise ValueError(f"z has shape {a.shape}, z0 has shape {b.shape}")
    # One pass over a block holding both sides: (2, [B,] n_i) per layer.
    pres = layer_preactivations(net, np.stack([a, b]).reshape(-1, net.k))
    return [leaky_beta_vector(*pre.reshape((2,) + a.shape[:-1] + (-1,)), net.activation.h)
            for pre in pres]


def k_majority_condition(net: GeneratorNetwork, r, c, K):
    """Uniqueness condition for l1 recovery with outliers supported on K.

    With delta = G(r + c) - G(r), the condition holds iff
    |delta_K|_1 < |delta_Kc|_1; margin = |delta_Kc|_1 - |delta_K|_1.
    """
    r = as_vector(r, net.k, "r")
    c = as_vector(c, net.k, "c")
    if not np.any(c):
        raise ValueError("c must be nonzero")
    idx = np.asarray(sorted(set(int(i) for i in K)), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= net.n):
        raise ValueError("K contains out-of-range indices")
    delta = forward(net, r + c) - forward(net, r)
    on_k = float(np.sum(np.abs(delta[idx]))) if idx.size else 0.0
    margin = float(np.sum(np.abs(delta))) - 2.0 * on_k
    return margin > 0.0, margin


def worst_support(delta, size: int) -> np.ndarray:
    """Indices of the `size` largest-|.| entries: the adversarial K, which
    dominates every other support of the same size. A (B, n) block of
    deltas gives a (B, size) block of supports, one per row."""
    delta = np.asarray(delta)
    if size == 0:
        return np.empty(delta.shape[:-1] + (0,), dtype=int)
    order = np.argsort(-np.abs(delta), axis=-1, kind="stable")
    return order[..., :size]


# How estimate_rho_star picks the index set K of each trial.
K_MODES = ("random", "worst_by_magnitude")


def estimate_rho_star(net: GeneratorNetwork, trials: int, rho_grid,
                      K_mode: str = "worst_by_magnitude",
                      seed: int = 0) -> list[ConditionReport]:
    """Empirical failure rate of the K-majority condition per outlier fraction.

    For each rho, `trials` pairs (r, c) are drawn with i.i.d. standard normal
    entries on independent substreams; K has floor(rho * n) indices, either
    random or the adversarial largest-|delta| set. The largest grid rho with
    zero failures is the empirical correctable fraction.
    """
    if K_mode not in K_MODES:
        raise ValueError(f"unknown K_mode {K_mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    reports = []
    for ri, rho in enumerate(rho_grid):
        rho = float(rho)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho grid entries must lie in (0, 1), got {rho}")
        size = int(math.floor(rho * net.n))
        failures = 0
        min_margin = math.inf
        for rows in row_chunks(trials, max(net.dims)):
            # Draws stay per trial, each from its own substream and in the
            # original order; everything after them runs on the block.
            count = rows.stop - rows.start
            r = np.empty((count, net.k))
            c = np.empty((count, net.k))
            idx = np.empty((count, size), dtype=np.intp)
            keys = [(ri, t) for t in range(rows.start, rows.stop)]
            for i, rng in enumerate(substreams(seed, keys)):
                r[i] = rng.standard_normal(net.k)
                c[i] = rng.standard_normal(net.k)
                while not np.any(c[i]):
                    c[i] = rng.standard_normal(net.k)
                if K_mode == "random":
                    idx[i] = rng.choice(net.n, size=size, replace=False)
            delta = np.abs(forward(net, r + c) - forward(net, r))
            if K_mode == "worst_by_magnitude":
                idx = worst_support(delta, size)
            margin = np.sum(delta, axis=1) - 2.0 * np.sum(
                np.take_along_axis(delta, idx, axis=1), axis=1)
            min_margin = min(min_margin, float(np.min(margin)))
            failures += int(np.count_nonzero(margin <= 0.0))
        reports.append(ConditionReport(
            condition_name="k_majority",
            trials=trials, failures=failures, min_margin=min_margin,
            params={"rho": rho, "K_size": size, "K_mode": K_mode,
                    "dims": list(net.dims), "activation": net.activation.to_dict(),
                    "regime": "resampled_r", "seed": seed}))
    return reports


def rho_star_from_reports(reports: list[ConditionReport]) -> float:
    """Largest grid rho with zero observed failures (0.0 if none)."""
    passing = [r.params["rho"] for r in reports if r.failures == 0]
    return max(passing) if passing else 0.0


def relu_path_slope(hcol, Hc, t: float) -> float:
    """Right derivative of || sigma(hcol + t Hc) - sigma(hcol) ||_1 in t.

    Equals sum_i 1[hcol_i + t Hc_i >= 0] * |Hc_i|, exact on the interior of
    each linear piece of the (piecewise-linear) path.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    hcol = np.asarray(hcol, dtype=np.float64)
    gc = np.asarray(Hc, dtype=np.float64)
    if hcol.shape != gc.shape:
        raise ValueError("hcol and Hc must have equal length")
    active = (hcol + t * gc) >= 0.0
    return float(np.sum(np.abs(gc)[active]))


def relu_path_value(hcol, Hc, t: float) -> float:
    """|| sigma(hcol + t Hc) - sigma(hcol) ||_1 for ReLU sigma."""
    hcol = np.asarray(hcol, dtype=np.float64)
    gc = np.asarray(Hc, dtype=np.float64)
    return float(np.sum(np.abs(np.maximum(hcol + t * gc, 0.0) - np.maximum(hcol, 0.0))))


def relu_path_kinks(hcol, Hc) -> np.ndarray:
    """Sorted positive t values where some hcol_i + t Hc_i crosses zero."""
    hcol = np.asarray(hcol, dtype=np.float64)
    gc = np.asarray(Hc, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = -hcol / gc
    roots = roots[np.isfinite(roots) & (roots > 0.0)]
    return np.sort(roots)


def norm_bounds_check(H, trials: int, h: float, rho_grid=None,
                      seed: int = 0) -> ConditionReport:
    """Monte Carlo envelopes of |Hv|_1 / n over unit vectors v.

    Records the empirical lower and upper envelopes (scaled by the leaky
    slope h for comparability with the secant bound), the per-rho maxima of
    the adversarial-K partial sums, and the largest rho whose adversarial
    value stays below half the lower envelope. min_margin is the scaled
    lower envelope, which must be positive.
    """
    H = as_matrix(H, name="H")
    n, nm = H.shape
    if not 1 <= nm < n:
        raise ValueError(f"need n > n-m >= 1, got shape {H.shape}")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"need 0 < h <= 1, got {h}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rho_grid is None:
        rho_grid = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
    rho_grid = [float(r) for r in rho_grid]
    sizes = [int(math.floor(r * n)) for r in rho_grid]

    min_ratio = math.inf
    max_ratio = 0.0
    adv_max = [0.0] * len(rho_grid)
    failures = 0
    for rows in row_chunks(trials, n):
        # Draws stay per trial, each from its own substream; everything after
        # them runs on the block.
        rngs = substreams(seed, [(t,) for t in range(rows.start, rows.stop)])
        g = np.stack([rng.standard_normal(nm) for rng in rngs])
        norm = np.sqrt(row_dot(g, g))   # rounds as np.linalg.norm of each row
        for i in np.flatnonzero(norm == 0.0):
            # A zero draw: go on drawing from the trial's substream until the
            # norm is nonzero, as a single trial does.
            while norm[i] == 0.0:
                g[i] = rngs[i].standard_normal(nm)
                norm[i] = np.linalg.norm(g[i])
        hv = np.abs(matvec(H, g / norm[:, None]))
        ratio = np.sum(hv, axis=1) / n
        failures += int(np.count_nonzero(ratio <= 0.0))
        min_ratio = min(min_ratio, float(np.min(ratio)))
        max_ratio = max(max_ratio, float(np.max(ratio)))
        csum = np.cumsum(np.sort(hv, axis=1)[:, ::-1], axis=1)
        for i, size in enumerate(sizes):
            if size:
                adv_max[i] = max(adv_max[i], float(np.max(csum[:, size - 1])) / n)

    admissible = [rho for rho, adv in zip(rho_grid, adv_max) if adv < min_ratio / 2.0]
    return ConditionReport(
        condition_name="norm_bounds",
        trials=trials, failures=failures, min_margin=h * min_ratio,
        params={
            "n": n, "alpha": (n - nm) / n, "h": h,
            "lambda_min_hat": h * min_ratio,
            "lambda_max_hat": h * max_ratio,
            "rho_grid": rho_grid,
            "adversarial_partial": [h * a for a in adv_max],
            "largest_admissible_rho": max(admissible) if admissible else 0.0,
            "seed": seed,
        })
