"""Experiment runner: solver sweeps, the verification suite, and file outputs.

A single JSON config (ExperimentSpec) drives both sweep runs (recovery error
versus measurement count or outlier count) and verification runs (the
configured subset of theory checks). Every run writes a run.json echo of the
fully resolved configuration; result rows carry full seed provenance so any
row can be reproduced.
"""

from __future__ import annotations

import array
import csv
import functools
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from ._common import child_seeds, row_chunks, substream, substreams
from .generator import (Activation, GeneratorNetwork, LEAKY_RELU, forward,
                        random_gaussian_net)
from .measurement import GAUSSIAN, MeasurementModel, build_instance
from .solvers import Metrics, SolverConfig, SolverDiverged, metrics, solve_trials
from . import theory

SWEEP_AXES = ("measurements", "outliers", "rho_grid")

RESULT_COLUMNS = ("sweep_value", "trial", "solver", "eps_m", "eps_r",
                  "eps_r_per_pixel", "iters", "restart_index", "seed", "wall_ms")
SUMMARY_COLUMNS = ("sweep_value", "solver", "trials", "eps_m_median", "eps_m_iqr",
                   "eps_r_median", "eps_r_iqr", "eps_r_per_pixel_median",
                   "eps_r_per_pixel_iqr")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one experiment run."""

    name: str
    net: dict                      # {"dims": [...], "activation": {...}, "seed": int}
    measurement: dict              # matrix_kind / outlier / noise settings
    sweep: dict                    # {"axis": ..., "values": [...]}
    solvers: tuple[SolverConfig, ...]
    trials_per_point: int
    seed: int
    output_dir: str | None = None
    checks: tuple[dict, ...] | None = None   # verify-mode check list; None = default suite

    def __post_init__(self):
        axis = self.sweep.get("axis")
        if axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
        values = list(self.sweep.get("values", []))
        if not values:
            raise ValueError("sweep values must be nonempty")
        if axis in ("measurements", "outliers"):
            for v in values:
                _integer(v, "each of sweep.values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        _known_keys(d, "", [f.name for f in fields(cls)])
        net = d.get("net", {})
        _known_keys(net, "net.", ["dims", "activation", "seed"])
        _known_keys(net.get("activation", {}), "net.activation.", ["kind", "h"])
        _known_keys(d.get("measurement", {}), "measurement.",
                    ["m", "matrix_kind", "outlier_count", "outlier_range", "outlier_signed",
                     "noise_target"])
        if "sweep" not in d:
            raise ValueError("experiment config is missing the required key 'sweep'")
        _known_keys(d["sweep"], "sweep.", ["axis", "values"])
        solvers = tuple(SolverConfig.from_dict(s) for s in d.get("solvers", []))
        checks = d.get("checks")
        return cls(
            name=d.get("name", "experiment"),
            net=d.get("net", {}),
            measurement=d.get("measurement", {}),
            sweep=d["sweep"],
            solvers=solvers,
            trials_per_point=_integer(d.get("trials_per_point", 1), "trials_per_point"),
            seed=_nonnegative(d.get("seed", 0), "seed"),
            output_dir=d.get("output_dir"),
            checks=tuple(checks) if checks is not None else None,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name, "net": self.net, "measurement": self.measurement,
            "sweep": self.sweep, "solvers": [s.to_dict() for s in self.solvers],
            "trials_per_point": self.trials_per_point, "seed": self.seed,
            "output_dir": self.output_dir,
            "checks": list(self.checks) if self.checks is not None else None,
        }


def _known_keys(d: dict, prefix: str, known) -> None:
    """Reject the keys of config section `d` not in `known`, naming them
    with the section's `prefix`: a misspelt key would silently fall back to
    its default."""
    if not isinstance(d, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'the config'} must be a JSON object, "
                         f"got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown config keys {[prefix + key for key in unknown]}")


def _integer(value, key: str) -> int:
    """`value` as an int. Bools, non-numbers and numbers with a fractional
    part, which int() would truncate, raise a ValueError naming `key`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _nonnegative(value, key: str) -> int:
    """`value` as an int, as `_integer` takes it, and >= 0: an RNG seed, or a
    count that may be 0."""
    n = _integer(value, key)
    if n < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {n}")
    return n


def _positive(value, key: str) -> int:
    """`value` as an int, as `_integer` takes it, and >= 1."""
    n = _integer(value, key)
    if n < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {n}")
    return n


def _widths(value, key: str) -> list[int]:
    """`value` as a list of layer widths: at least two ints, each as
    `_positive` takes it."""
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise ValueError(f"{key} must be a list of at least two integers, got {value!r}")
    return [_positive(w, f"{key}[{i}]") for i, w in enumerate(value)]


def build_net(net_spec: dict) -> GeneratorNetwork:
    if "dims" not in net_spec:
        raise ValueError("net config is missing the required key 'net.dims'")
    act = Activation.from_dict(net_spec.get("activation", {"kind": "identity"}))
    dims = [_integer(w, "each of net.dims") for w in net_spec["dims"]]
    return random_gaussian_net(dims, act, _nonnegative(net_spec.get("seed", 0), "net.seed"))


def _measurement_model(spec: ExperimentSpec, n: int, sweep_value: int,
                       model_seed: int) -> MeasurementModel:
    ms = spec.measurement
    axis = spec.sweep["axis"]
    if axis == "outliers" and "m" not in ms:
        raise ValueError("an outliers sweep needs the key 'measurement.m'")
    m = int(sweep_value) if axis == "measurements" else _integer(ms["m"], "measurement.m")
    l = (int(sweep_value) if axis == "outliers"
         else _integer(ms.get("outlier_count", 0), "measurement.outlier_count"))
    return MeasurementModel(
        m=m, n=n,
        matrix_kind=ms.get("matrix_kind", GAUSSIAN),
        outlier_count=l,
        outlier_range=ms.get("outlier_range", (5000.0, 10000.0)),
        outlier_signed=bool(ms.get("outlier_signed", False)),
        noise_target=float(ms.get("noise_target", 0.0)),
        seed=model_seed,
    )


def _run_point(spec: ExperimentSpec, net: GeneratorNetwork, point_idx: int,
               sweep_value, solver_idx: int) -> list[dict]:
    """One sweep point's trials under one solver config, solved as one
    block (`solve_trials`): a result row per trial, in trial order.

    wall_ms is the block's time split evenly over the trials, plus each
    trial's own metrics time.
    """
    cfg = spec.solvers[solver_idx]
    insts, cfgs = [], []
    for trial in range(spec.trials_per_point):
        model_seed, inst_seed = child_seeds(spec.seed, 2, spawn_key=(point_idx, trial))
        model = _measurement_model(spec, net.n, sweep_value, model_seed)
        insts.append(build_instance(net, model, seed=inst_seed))
        solver_seed = child_seeds(spec.seed, 1, spawn_key=(point_idx, trial, solver_idx))[0]
        cfgs.append(replace(cfg, seed=solver_seed))
    t0 = time.perf_counter()
    results = solve_trials(net, [(inst.M, inst.y) for inst in insts], cfgs)
    share_ms = (time.perf_counter() - t0) * 1e3 / len(insts)
    rows = []
    for trial, (inst, res) in enumerate(zip(insts, results)):
        t0 = time.perf_counter()
        if isinstance(res, SolverDiverged):
            nan = float("nan")
            mets, iters, restart = Metrics(nan, nan, nan), 0, -1
        else:
            mets = metrics(net, inst.M, inst.y, res.z_hat, inst.x0)
            iters, restart = res.iters_used, res.restart_index
        rows.append({
            "sweep_value": sweep_value, "trial": trial, "solver": cfg.method,
            "eps_m": mets.eps_m, "eps_r": mets.eps_r,
            "eps_r_per_pixel": mets.eps_r_per_pixel,
            "iters": iters, "restart_index": restart, "seed": inst.seed,
            "wall_ms": share_ms + (time.perf_counter() - t0) * 1e3,
        })
    return rows


def run_sweep(spec: ExperimentSpec, workers: int = 1):
    """Run every sweep point x trial x solver; return (rows, summary_rows).

    Each (sweep point, solver) pair is one task, which solves the point's
    trials as one block. Rows are ordered by (sweep point, trial, solver)
    regardless of worker count; all non-timing columns are deterministic
    functions of the spec. When output_dir is set, writes run.json,
    results.csv, and summary.csv.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    axis = spec.sweep["axis"]
    if axis == "rho_grid":
        raise ValueError("rho_grid sweeps run through run_verify, not run_sweep")
    if not spec.solvers:
        raise ValueError("sweep needs at least one solver config")
    net = build_net(spec.net)
    values = spec.sweep["values"]
    for value in values:   # a bad measurement config fails here, before any solve
        _measurement_model(spec, net.n, value, 0)

    tasks = [(pi, value, si) for pi, value in enumerate(values)
             for si in range(len(spec.solvers))]
    run_point = functools.partial(_run_point, spec, net)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_point, *zip(*tasks)))
    else:
        chunks = list(map(run_point, *zip(*tasks)))
    per_point = len(spec.solvers)
    rows = [row for pi in range(len(values))
            for trial_rows in zip(*chunks[pi * per_point:(pi + 1) * per_point])
            for row in trial_rows]

    summary = summarize_rows(rows)
    if spec.output_dir:
        os.makedirs(spec.output_dir, exist_ok=True)
        _write_run_echo(spec, workers=workers)
        write_csv(os.path.join(spec.output_dir, "results.csv"), RESULT_COLUMNS, rows)
        write_csv(os.path.join(spec.output_dir, "summary.csv"), SUMMARY_COLUMNS, summary)
    return rows, summary


def summarize_rows(rows: list[dict]) -> list[dict]:
    """Per (sweep_value, solver): median and interquartile range of each error."""
    groups: dict[tuple, list[dict]] = {}
    order = []
    for row in rows:
        key = (row["sweep_value"], row["solver"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    def med_iqr(vals):
        arr = np.asarray(vals, dtype=np.float64)
        if np.all(np.isnan(arr)):
            return float("nan"), float("nan")
        return (float(np.nanmedian(arr)),
                float(np.nanpercentile(arr, 75) - np.nanpercentile(arr, 25)))

    summary = []
    for key in order:
        grp = groups[key]
        em_med, em_iqr = med_iqr([g["eps_m"] for g in grp])
        er_med, er_iqr = med_iqr([g["eps_r"] for g in grp])
        ep_med, ep_iqr = med_iqr([g["eps_r_per_pixel"] for g in grp])
        summary.append({
            "sweep_value": key[0], "solver": key[1], "trials": len(grp),
            "eps_m_median": em_med, "eps_m_iqr": em_iqr,
            "eps_r_median": er_med, "eps_r_iqr": er_iqr,
            "eps_r_per_pixel_median": ep_med, "eps_r_per_pixel_iqr": ep_iqr,
        })
    return summary


def write_csv(path, columns, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _write_run_echo(spec: ExperimentSpec, **fields) -> None:
    echo = {"config": spec.to_dict(), **fields, "version": __version__}
    with open(os.path.join(spec.output_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def default_checks() -> list[dict]:
    """The default verification suite: one entry per theory check, with
    desk-scale parameters. Entries marked required must report zero failures."""
    return [
        {"name": "gaussian_full_rank", "shapes": [[12, 7], [40, 20], [100, 784]],
         "trials": 20, "required": True},
        {"name": "every_r_rows_full_rank", "n": 12, "k": 3, "outliers": 2,
         "required": True},
        {"name": "leaky_beta_range", "trials": 10_000, "required": True},
        {"name": "leaky_layer_lift", "dims": [6, 24, 48], "h": 0.2, "pairs": 50,
         "required": True},
        {"name": "k_majority", "dims": [10, 40, 160], "h": 0.2, "trials": 200,
         "rho_grid": [0.02, 0.05, 0.1], "K_mode": "worst_by_magnitude",
         "require_max_rho": 0.02, "required": True},
        {"name": "relu_path_slope", "n": 50, "cases": 200, "tol": 1e-9,
         "required": True},
        {"name": "norm_bounds", "n": 200, "alpha": 0.5, "h": 0.5, "trials": 2000,
         "required": True},
        {"name": "l0_roundtrip", "cases": 12, "required": True},
    ]


# The Gram eigenvalues stand in for the SVD only when the smallest clears this
# fraction of the largest: sigma_min/sigma_max >= 1e-4 then, so the check's
# 1e-10 threshold is passed by a wide margin and every pass/fail decision is
# the one the SVD would make. Below it, the SVD decides.
_GRAM_MIN_RATIO = 1e-8


def _extreme_singular_values(a: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the 2-D array `a`.

    Taken as the square roots of the extreme eigenvalues of the smaller Gram
    matrix G (`a a^T` or `a^T a`) when they are certified: with
    delta = (p + q) * eps * trace(G) for a p x q `a`, which bounds the
    eigenvalue error of the formed G, the smallest must be at least
    max(_GRAM_MIN_RATIO * largest, 100 * delta). Otherwise, near rank
    deficiency where squaring loses sigma_min, from the SVD of `a`.
    """
    p, q = a.shape
    g = a @ a.T if p <= q else a.T @ a
    lam = np.linalg.eigvalsh(g)
    delta = (p + q) * np.finfo(np.float64).eps * float(np.trace(g))
    if lam[0] >= max(_GRAM_MIN_RATIO * lam[-1], 100.0 * delta):
        return math.sqrt(lam[-1]), math.sqrt(lam[0])
    sv = np.linalg.svd(a, compute_uv=False)
    return float(sv[0]), float(sv[-1])


def _check_gaussian_full_rank(params, seed):
    trials = _positive(params.get("trials", 20), "gaussian_full_rank.trials")
    shapes = params.get("shapes", [[12, 7]])
    if not isinstance(shapes, (list, tuple)) or not shapes:
        raise ValueError(f"gaussian_full_rank.shapes must be a nonempty list, got {shapes!r}")
    for si, shape in enumerate(shapes):
        if not isinstance(shape, (list, tuple)) or len(shape) != 2:
            raise ValueError(f"gaussian_full_rank.shapes[{si}] must be a [rows, columns] "
                             f"pair, got {shape!r}")
    shapes = [tuple(_positive(d, f"gaussian_full_rank.shapes[{si}][{j}]")
                    for j, d in enumerate(shape)) for si, shape in enumerate(shapes)]
    failures = 0
    total = 0
    min_margin = math.inf
    # One draw at a time: stacking a shape's draws for batched calls measured
    # no faster, and most of the time is in BLAS and LAPACK.
    for si, shape in enumerate(shapes):
        for rng in substreams(seed, [(si, t) for t in range(trials)]):
            s_max, s_min = _extreme_singular_values(rng.standard_normal(shape))
            margin = s_min - 1e-10 * s_max
            min_margin = min(min_margin, margin)
            total += 1
            if margin <= 0:
                failures += 1
    return [(theory.ConditionReport(
        "gaussian_full_rank", total, failures, min_margin,
        {"shapes": [list(s) for s in shapes], "trials_per_shape": trials,
         "seed": seed}), True)]


def _check_every_r_rows(params, seed):
    if "matrix" in params:
        w = np.asarray(params["matrix"], dtype=np.float64)
        n, k = w.shape
    else:
        n = _positive(params["n"], "every_r_rows_full_rank.n")
        k = _positive(params["k"], "every_r_rows_full_rank.k")
        mid = _positive(params.get("mid", k), "every_r_rows_full_rank.mid")
        rng = substream(seed, ())
        w = rng.standard_normal((n, mid)) @ rng.standard_normal((mid, k))
    l = _nonnegative(params.get("outliers", 2), "every_r_rows_full_rank.outliers")
    r = (_positive(params["r"], "every_r_rows_full_rank.r") if "r" in params
         else n - (2 * l + 1))
    report = theory.every_r_rows_full_rank(w, r)
    report.params.update({"outliers": l, "seed": seed})
    return [(report, True)]


def _check_leaky_beta_range(params, seed):
    trials = _positive(params.get("trials", 10_000), "leaky_beta_range.trials")
    rng = substream(seed, ())
    failures = 0
    min_margin = math.inf
    for rows in row_chunks(trials, 3):
        # One stream for all trials, normal and uniform draws interleaved:
        # the draws stay a loop, the slopes are one leaky_beta_vector call.
        draws = array.array("d")
        # Scalar draws take the same doubles as standard_normal(2) and
        # uniform(1e-6, 1.0), which computes low + (high - low) * random().
        for _ in range(rows.start, rows.stop):
            x, y = rng.standard_normal(), rng.standard_normal()
            while x == y:
                x, y = rng.standard_normal(), rng.standard_normal()
            draws.extend((x, y, 1e-6 + (1.0 - 1e-6) * rng.random()))
        x, y, h = np.frombuffer(draws).reshape(-1, 3).T
        beta = theory.leaky_beta_vector(x, y, h)
        min_margin = min(min_margin, float(np.min(np.minimum(beta - h, 1.0 - beta))))
        failures += int(np.count_nonzero(~((h <= beta) & (beta <= 1.0))))
    return [(theory.ConditionReport(
        "leaky_beta_range", trials, failures, min_margin, {"seed": seed}), True)]


def _check_leaky_layer_lift(params, seed):
    dims = _widths(params.get("dims", [6, 24, 48]), "leaky_layer_lift.dims")
    h = float(params.get("h", 0.2))
    pairs = _positive(params.get("pairs", 50), "leaky_layer_lift.pairs")
    net = random_gaussian_net(dims, Activation(LEAKY_RELU, h), seed)
    failures = 0
    min_margin = math.inf
    for rows in row_chunks(pairs, 2 * max(net.dims)):
        keys = [(t,) for t in range(rows.start, rows.stop)]
        zz = np.stack([rng.standard_normal((2, net.k)) for rng in substreams(seed, keys)])
        for ratios in theory.leaky_layer_ratios(net, zz[:, 0], zz[:, 1]):
            finite = np.isfinite(ratios)
            has = np.any(finite, axis=1)   # a pair-layer with no finite ratio is skipped
            lo = np.min(np.where(finite, ratios, np.inf), axis=1)[has]
            hi = np.max(np.where(finite, ratios, -np.inf), axis=1)[has]
            margin = np.minimum(lo - h, 1.0 - hi)
            min_margin = min(min_margin, float(np.min(margin, initial=math.inf)))
            failures += int(np.count_nonzero(margin < 0))
    return [(theory.ConditionReport(
        "leaky_layer_lift", pairs, failures, min_margin,
        {"dims": dims, "h": h, "bias": "gaussian", "seed": seed}), True)]


def _check_k_majority(params, seed):
    dims = _widths(params.get("dims", [10, 40, 160]), "k_majority.dims")
    h = float(params.get("h", 0.2))
    net = random_gaussian_net(dims, Activation(LEAKY_RELU, h), seed)
    reports = theory.estimate_rho_star(
        net,
        trials=_positive(params.get("trials", 200), "k_majority.trials"),
        rho_grid=params.get("rho_grid", [0.02, 0.05, 0.1]),
        K_mode=params.get("K_mode", "worst_by_magnitude"),
        seed=seed)
    require_max = float(params.get("require_max_rho", 0.0))
    out = []
    for rep in reports:
        rep.params["rho_star_hat"] = theory.rho_star_from_reports(reports)
        rep.params["bias"] = "gaussian"
        out.append((rep, rep.params["rho"] <= require_max))
    return out


def _check_relu_path_slope(params, seed):
    n = _positive(params.get("n", 50), "relu_path_slope.n")
    cases = _positive(params.get("cases", 200), "relu_path_slope.cases")
    tol = float(params.get("tol", 1e-9))
    failures = 0
    worst = 0.0
    # Kept as a loop: _safe_slope_case rejects and redraws from the case's
    # stream, so how many draws a case takes depends on the draws themselves.
    for rng in substreams(seed, [(t,) for t in range(cases)]):
        hcol, gc, tval, eps = _safe_slope_case(rng, n)
        slope = theory.relu_path_slope(hcol, gc, tval)
        fd = (theory.relu_path_value(hcol, gc, tval + eps)
              - theory.relu_path_value(hcol, gc, tval)) / eps
        err = abs(slope - fd)
        worst = max(worst, err)
        if err > tol:
            failures += 1
    return [(theory.ConditionReport(
        "relu_path_slope", cases, failures, tol - worst,
        {"n": n, "tol": tol, "seed": seed}), True)]


def _safe_slope_case(rng, n, min_piece=4e-4):
    """Random (hcol, Hc, t) with t in the interior of a linear piece wide
    enough for an exact forward difference; eps is half the gap to the next
    kink."""
    while True:
        hcol = rng.standard_normal(n)
        gc = rng.standard_normal(n)
        t = rng.uniform(0.0, 3.0)
        kinks = theory.relu_path_kinks(hcol, gc)
        ahead = kinks[kinks > t]
        behind = kinks[(kinks <= t) & (kinks > t - 1e-12)]
        if behind.size:   # t essentially on a kink; resample
            continue
        gap = float(ahead[0] - t) if ahead.size else 1.0
        if gap < min_piece:
            continue
        return hcol, gc, t, min(gap / 2.0, 0.5)


def _check_norm_bounds(params, seed):
    n = _positive(params.get("n", 200), "norm_bounds.n")
    alpha = float(params.get("alpha", 0.5))
    h = float(params.get("h", 0.5))
    trials = _positive(params.get("trials", 2000), "norm_bounds.trials")
    nm = n - int(round(alpha * n))
    rng = substream(seed, ())
    mat = rng.standard_normal((n, nm))
    report = theory.norm_bounds_check(mat, trials, h,
                                      rho_grid=params.get("rho_grid"), seed=seed)
    report.params["seed"] = seed
    return [(report, True)]


def _check_l0_roundtrip(params, seed):
    cases = _positive(params.get("cases", 12), "l0_roundtrip.cases")
    discrepancies = 0
    details = []
    for t, rng in enumerate(substreams(seed, [(t,) for t in range(cases)])):
        good = t % 3 != 2   # two generic cases, then one engineered failure
        if good:
            m, l = 11 + t % 5, 1 + t % 2
            net = random_gaussian_net([1, 6], Activation("identity"), int(rng.integers(2**31)))
            mat = rng.standard_normal((m, net.n))
        else:
            # Composite output touches only 2l coordinates: separation == 2l.
            l = 1
            m = 6
            w = np.zeros((m, 1))
            w[:2 * l, 0] = 1.0
            net = GeneratorNetwork((1, m), (w,), (np.zeros(m),),
                                   Activation("identity"), 0)
            mat = np.eye(m)
        grid = theory.latent_grid(1, points=111)
        z0 = grid[int(rng.integers(grid.shape[0]))]
        others = grid[np.any(grid != z0, axis=1)]
        seps = theory.l0_separation(net, mat, others, z0,
                                    theory.default_zero_tol(mat @ forward(net, z0)))
        predicted = min(seps) >= 2 * l + 1
        recovered, _ = theory.l0_recovery_bruteforce(net, mat, z0, l, grid)
        if recovered != predicted:
            discrepancies += 1
        details.append({"case": t, "l": l, "min_separation": int(min(seps)),
                        "predicted": bool(predicted), "recovered": bool(recovered)})
    margin = 1.0 if discrepancies == 0 else -float(discrepancies)
    return [(theory.ConditionReport(
        "l0_roundtrip", cases, discrepancies, margin,
        {"details": details, "seed": seed}), True)]


_CHECK_RUNNERS = {
    "gaussian_full_rank": _check_gaussian_full_rank,
    "every_r_rows_full_rank": _check_every_r_rows,
    "leaky_beta_range": _check_leaky_beta_range,
    "leaky_layer_lift": _check_leaky_layer_lift,
    "k_majority": _check_k_majority,
    "relu_path_slope": _check_relu_path_slope,
    "norm_bounds": _check_norm_bounds,
    "l0_roundtrip": _check_l0_roundtrip,
}


# Each check's parameters, besides "name" and "required"; run_verify rejects
# any other key, which the check would otherwise ignore for its default.
_CHECK_PARAMS = {
    "gaussian_full_rank": ("shapes", "trials"),
    "every_r_rows_full_rank": ("matrix", "n", "k", "mid", "outliers", "r"),
    "leaky_beta_range": ("trials",),
    "leaky_layer_lift": ("dims", "h", "pairs"),
    "k_majority": ("dims", "h", "trials", "rho_grid", "K_mode", "require_max_rho"),
    "relu_path_slope": ("n", "cases", "tol"),
    "norm_bounds": ("n", "alpha", "h", "trials", "rho_grid"),
    "l0_roundtrip": ("cases",),
}

# The count and width parameters that run_verify converts, each with the
# helper given here, before any check runs: a count of 0 would report a pass
# with nothing checked, or fail deep inside `theory` under no key's name,
# and int() would truncate 2.5 to 2. Each check converts them with the same
# helper too.
_CHECK_COUNTS = {
    "gaussian_full_rank": {"trials": _positive},
    "every_r_rows_full_rank": {"n": _positive, "k": _positive, "mid": _positive,
                               "outliers": _nonnegative, "r": _positive},
    "leaky_beta_range": {"trials": _positive},
    "leaky_layer_lift": {"dims": _widths, "pairs": _positive},
    "k_majority": {"dims": _widths, "trials": _positive},
    "relu_path_slope": {"n": _positive, "cases": _positive},
    "norm_bounds": {"n": _positive, "trials": _positive},
    "l0_roundtrip": {"cases": _positive},
}


def run_verify(spec: ExperimentSpec) -> dict:
    """Execute the configured verification checks and build a manifest.

    The manifest's all_passed is False iff any required check reported
    failures. check_ms holds each suite entry's wall time in milliseconds,
    in suite order; it is the manifest's only timing field. When output_dir
    is set, writes run.json and manifest.json.
    """
    checks = list(spec.checks) if spec.checks is not None else default_checks()
    if spec.checks is None and spec.sweep.get("axis") == "rho_grid":
        for entry in checks:
            if entry["name"] == "k_majority":
                entry["rho_grid"] = list(spec.sweep["values"])
    for entry in checks:
        name = entry.get("name") if isinstance(entry, dict) else None
        if name not in _CHECK_RUNNERS:
            raise ValueError(f"unknown check {name!r}; known: {sorted(_CHECK_RUNNERS)}")
        _known_keys(entry, f"{name}.", ("name", "required") + _CHECK_PARAMS[name])
        for key, convert in _CHECK_COUNTS[name].items():
            if key in entry:
                convert(entry[key], f"{name}.{key}")
    reports = []
    check_ms = []
    for ci, entry in enumerate(checks):
        name = entry["name"]
        required_default = bool(entry.get("required", True))
        seed = child_seeds(spec.seed, 1, spawn_key=(ci,))[0]
        t0 = time.perf_counter()
        results = _CHECK_RUNNERS[name](entry, seed)
        check_ms.append((time.perf_counter() - t0) * 1e3)
        for report, required in results:
            item = report.to_dict()
            item["required"] = required and required_default
            reports.append(item)
    all_passed = all(not r["required"] or r["failures"] == 0 for r in reports)
    manifest = {"name": spec.name, "seed": spec.seed, "version": __version__,
                "reports": reports, "all_passed": all_passed, "check_ms": check_ms}
    if spec.output_dir:
        os.makedirs(spec.output_dir, exist_ok=True)
        _write_run_echo(spec)
        with open(os.path.join(spec.output_dir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
    return manifest


def report_long_format(results_csv_path: str):
    """Melt a results.csv into plot-ready long rows
    (sweep_value, trial, solver, metric, value)."""
    out = []
    with open(results_csv_path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for metric in ("eps_m", "eps_r", "eps_r_per_pixel"):
                out.append({
                    "sweep_value": row["sweep_value"], "trial": row["trial"],
                    "solver": row["solver"], "metric": metric,
                    "value": row[metric],
                })
    return out
