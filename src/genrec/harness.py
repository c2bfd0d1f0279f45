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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from ._common import (_boolean, _integer, _nonnegative, _positive, _real, _widths, as_matrix,
                      child_seeds, default_zero_tol, require_keys, row_chunks, substream,
                      substreams, write_csv)
from .generator import (Activation, GeneratorNetwork, LEAKY_RELU, forward,
                        random_gaussian_net)
from .measurement import GAUSSIAN, MeasurementModel, build_instance
from .solvers import Metrics, SolverConfig, SolverDiverged, metrics, solve_trials
from . import theory

SWEEP_AXES = ("measurements", "outliers", "rho_grid")

# The per-row fields of every output. A result row is keyed by ROW_KEYS and
# scored by `score`; results.csv, summary.csv, report.csv and `solve --out`
# take their metric fields from `Metrics._fields`, so a new per-row metric is
# a new Metrics field and reaches every output from here.
ROW_KEYS = ("sweep_value", "trial", "solver")
RESULT_COLUMNS = ROW_KEYS + Metrics._fields + ("iters", "restart_index", "seed", "wall_ms")
SUMMARY_COLUMNS = ("sweep_value", "solver", "trials") + tuple(
    f"{name}_{stat}" for name in Metrics._fields for stat in ("median", "iqr"))
REPORT_COLUMNS = ROW_KEYS + ("metric", "value")


def score(net: GeneratorNetwork, inst, res) -> dict:
    """A result row's scored fields: the `Metrics` of `res` on `inst`, its
    iterations and restart index; NaN metrics, 0 and -1 for a SolverDiverged."""
    if isinstance(res, SolverDiverged):
        return {**dict.fromkeys(Metrics._fields, math.nan), "iters": 0, "restart_index": -1}
    return {**metrics(net, inst.M, inst.y, res.z_hat, inst.x0)._asdict(),
            "iters": res.iters_used, "restart_index": res.restart_index}


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
        values = self.sweep.get("values", [])
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep.values must be a nonempty list, got {values!r}")
        if axis in ("measurements", "outliers"):
            for v in values:
                _integer(v, "each of sweep.values")
        else:   # rho_grid: run_verify hands the values to the default k_majority entry
            _rho_grid(values, "sweep.values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        _known_keys(d, "", [f.name for f in fields(cls)])
        net = d.get("net", {})
        _known_keys(net, "net.", ["dims", "activation", "seed"])
        if "dims" in net:
            _list(net["dims"], "net.dims")
        _known_keys(net.get("activation", {}), "net.activation.", ["kind", "h"])
        _known_keys(d.get("measurement", {}), "measurement.",
                    ["m", "matrix_kind", "outlier_count", "outlier_range", "outlier_signed",
                     "noise_target"])
        if "sweep" not in d:
            raise ValueError("experiment config is missing the required key 'sweep'")
        _known_keys(d["sweep"], "sweep.", ["axis", "values"])
        solvers = d.get("solvers", [])
        if not isinstance(solvers, (list, tuple)):
            raise ValueError(f"solvers must be a list of solver configs, got {solvers!r}")
        solvers = tuple(_solver_entry(s, f"solvers[{i}]") for i, s in enumerate(solvers))
        checks = d.get("checks")
        if checks is not None:
            _list(checks, "checks")
        output_dir = d.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ValueError(f"output_dir must be a path string, got {output_dir!r}")
        return cls(
            name=d.get("name", "experiment"),
            net=d.get("net", {}),
            measurement=d.get("measurement", {}),
            sweep=d["sweep"],
            solvers=solvers,
            trials_per_point=_integer(d.get("trials_per_point", 1), "trials_per_point"),
            seed=_nonnegative(d.get("seed", 0), "seed"),
            output_dir=output_dir,
            checks=tuple(checks) if checks is not None else None,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _solver_entry(entry, key: str) -> SolverConfig:
    """SolverConfig.from_dict(entry), its errors prefixed with the entry's `key`."""
    require_keys(entry, (), key)
    try:
        return SolverConfig.from_dict(entry)
    except ValueError as err:
        raise ValueError(f"{key}: {err}") from None


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


def _list(value, key: str) -> None:
    """Reject a `value` that is not a JSON list, naming `key`: a number or
    string would fail to iterate, or iterate by character, under no key."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")


def _slope(value, key: str) -> float:
    """`value` as a float in (0, 1], as `_real` takes it: a leaky-ReLU slope."""
    h = _real(value, key)
    if not 0.0 < h <= 1.0:
        raise ValueError(f"{key} must lie in (0, 1], got {h}")
    return h


def _rho_grid(value, key: str) -> list[float]:
    """`value` as a nonempty list of outlier fractions, each a float in
    (0, 1) as `_real` takes it."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{key} must be a nonempty list, got {value!r}")
    grid = [_real(rho, f"{key}[{i}]") for i, rho in enumerate(value)]
    for i, rho in enumerate(grid):
        if not 0.0 < rho < 1.0:
            raise ValueError(f"{key}[{i}] must lie in (0, 1), got {rho}")
    return grid


def _shapes(value, key: str) -> list[tuple[int, int]]:
    """`value` as a nonempty list of [rows, columns] pairs, each entry as
    `_positive` takes it."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{key} must be a nonempty list, got {value!r}")
    for si, shape in enumerate(value):
        if not isinstance(shape, (list, tuple)) or len(shape) != 2:
            raise ValueError(f"{key}[{si}] must be a [rows, columns] pair, got {shape!r}")
    return [tuple(_positive(d, f"{key}[{si}][{j}]") for j, d in enumerate(shape))
            for si, shape in enumerate(value)]


def build_net(net_spec: dict) -> GeneratorNetwork:
    if "dims" not in net_spec:
        raise ValueError("net config is missing the required key 'net.dims'")
    act = net_spec.get("activation", {"kind": "identity"})
    if isinstance(act, dict) and "h" in act:   # named as the sweep config's key
        (_slope if act.get("kind") == LEAKY_RELU else _real)(act["h"], "net.activation.h")
    act = Activation.from_dict(act)
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
        outlier_signed=_boolean(ms.get("outlier_signed", False), "measurement.outlier_signed"),
        noise_target=_real(ms.get("noise_target", 0.0), "measurement.noise_target"),
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
        rows.append({"sweep_value": sweep_value, "trial": trial, "solver": cfg.method,
                     **score(net, inst, res), "seed": inst.seed,
                     "wall_ms": share_ms + (time.perf_counter() - t0) * 1e3})
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
    """Per (sweep_value, solver), in order of first appearance: the median
    and interquartile range of each `Metrics` field."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["sweep_value"], row["solver"]), []).append(row)

    def med_iqr(vals):
        arr = np.asarray(vals, dtype=np.float64)
        if np.all(np.isnan(arr)):
            return float("nan"), float("nan")
        return (float(np.nanmedian(arr)),
                float(np.nanpercentile(arr, 75) - np.nanpercentile(arr, 25)))

    summary = []
    for (value, solver), grp in groups.items():
        row = {"sweep_value": value, "solver": solver, "trials": len(grp)}
        for name in Metrics._fields:
            row[f"{name}_median"], row[f"{name}_iqr"] = med_iqr([g[name] for g in grp])
        summary.append(row)
    return summary


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


def _k_mode(value, key: str) -> str:
    """`value`, one of theory.K_MODES: how k_majority picks its index set K."""
    if value not in theory.K_MODES:
        raise ValueError(f"{key} must be one of {list(theory.K_MODES)}, got {value!r}")
    return value


def _finite(value, key: str) -> float:
    """`value` as a finite float, as `_real` takes it."""
    x = _real(value, key)
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {x}")
    return x


def _tolerance(value, key: str) -> float:
    """`value` as a float, as `_real` takes it, finite and > 0."""
    tol = _real(value, key)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{key} must be a finite number > 0, got {tol}")
    return tol


# Each check's parameters besides "name" and "required", in the order they are
# converted: {key: (converter, default)}. A default of None leaves an absent
# key out, for `_check_params` to derive. run_verify converts every entry's
# parameters before any check runs, and each check its own: a bad value would
# otherwise fail only when its check runs, after every earlier check, often
# deep inside `theory` under no key's name; a count of 0 or a tolerance <= 0
# would run and report nothing useful.
_CHECK_PARAMS = {
    "gaussian_full_rank": {"trials": (_positive, 20), "shapes": (_shapes, [[12, 7]])},
    "every_r_rows_full_rank": {
        "n": (_positive, None), "k": (_positive, None), "mid": (_positive, None),
        "outliers": (_nonnegative, 2), "r": (_positive, None),
        "matrix": (lambda value, key: as_matrix(value, name=key), None)},
    "leaky_beta_range": {"trials": (_positive, 10_000)},
    "leaky_layer_lift": {"dims": (_widths, [6, 24, 48]), "h": (_slope, 0.2),
                         "pairs": (_positive, 50)},
    "k_majority": {
        "K_mode": (_k_mode, "worst_by_magnitude"), "require_max_rho": (_finite, 0.0),
        "dims": (_widths, [10, 40, 160]), "h": (_slope, 0.2), "trials": (_positive, 200),
        "rho_grid": (_rho_grid, [0.02, 0.05, 0.1])},
    "relu_path_slope": {"tol": (_tolerance, 1e-9), "n": (_positive, 50),
                        "cases": (_positive, 200)},
    "norm_bounds": {"n": (_positive, 200), "alpha": (_real, 0.5), "h": (_slope, 0.5),
                    "trials": (_positive, 2000), "rho_grid": (_rho_grid, None)},
    "l0_roundtrip": {"cases": (_positive, 12)},
}


def _check_params(name: str, entry: dict) -> dict:
    """Check `name`'s parameters from its suite entry, converted as
    `_CHECK_PARAMS` says, with the defaults of absent keys; a key the check
    does not take is rejected, and "required" (default true) must be true or
    false. every_r_rows_full_rank's n and k come from its matrix when given,
    mid defaults to k and r to n - (2 outliers + 1); norm_bounds adds
    "columns", n - round(alpha n)."""
    table, prefix = _CHECK_PARAMS[name], f"{name}."
    _known_keys(entry, prefix, ("name", "required", *table))
    p = {key: convert(entry.get(key, default), prefix + key)
         for key, (convert, default) in table.items()
         if key in entry or default is not None}
    p["required"] = _boolean(entry.get("required", True), prefix + "required")
    if name == "every_r_rows_full_rank":
        if "matrix" in p:
            p["n"], p["k"] = p["matrix"].shape
        elif "n" not in p or "k" not in p:
            raise ValueError(f"{prefix}n and {prefix}k are required without {prefix}matrix")
        n, k, l = p["n"], p["k"], p["outliers"]
        p.setdefault("mid", k)
        r = p.setdefault("r", n - (2 * l + 1))
        if not k <= r <= n:
            how = "" if "r" in entry else f" (n - (2 * outliers + 1) with outliers = {l})"
            raise ValueError(f"{prefix}r must lie in [k, n] = [{k}, {n}], got {r}{how}")
    elif name == "norm_bounds":
        n, alpha = p["n"], p["alpha"]
        p["columns"] = n - round(alpha * n) if math.isfinite(alpha) else 0
        if not 1 <= p["columns"] < n:
            raise ValueError(f"{prefix}alpha must give 1 <= n - round(alpha * n) < n, "
                             f"got alpha = {alpha} with n = {n}")
    return p


def _check_gaussian_full_rank(params, seed):
    p = _check_params("gaussian_full_rank", params)
    shapes = p["shapes"]
    failures = 0
    total = 0
    min_margin = math.inf
    # One draw at a time: stacking a shape's draws for batched calls measured
    # no faster, and most of the time is in BLAS and LAPACK.
    for si, shape in enumerate(shapes):
        for rng in substreams(seed, [(si, t) for t in range(p["trials"])]):
            s_max, s_min = _extreme_singular_values(rng.standard_normal(shape))
            margin = s_min - 1e-10 * s_max
            min_margin = min(min_margin, margin)
            total += 1
            if margin <= 0:
                failures += 1
    return [(theory.ConditionReport(
        "gaussian_full_rank", total, failures, min_margin,
        {"shapes": [list(s) for s in shapes], "trials_per_shape": p["trials"],
         "seed": seed}), True)]


def _check_every_r_rows(params, seed):
    p = _check_params("every_r_rows_full_rank", params)
    w = p.get("matrix")
    if w is None:
        rng = substream(seed, ())
        w = rng.standard_normal((p["n"], p["mid"])) @ rng.standard_normal((p["mid"], p["k"]))
    report = theory.every_r_rows_full_rank(w, p["r"])
    report.params.update({"outliers": p["outliers"], "seed": seed})
    return [(report, True)]


def _check_leaky_beta_range(params, seed):
    trials = _check_params("leaky_beta_range", params)["trials"]
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
    p = _check_params("leaky_layer_lift", params)
    dims, h, pairs = p["dims"], p["h"], p["pairs"]
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
    p = _check_params("k_majority", params)
    net = random_gaussian_net(p["dims"], Activation(LEAKY_RELU, p["h"]), seed)
    reports = theory.estimate_rho_star(net, trials=p["trials"], rho_grid=p["rho_grid"],
                                       K_mode=p["K_mode"], seed=seed)
    out = []
    for rep in reports:
        rep.params["rho_star_hat"] = theory.rho_star_from_reports(reports)
        rep.params["bias"] = "gaussian"
        out.append((rep, rep.params["rho"] <= p["require_max_rho"]))
    return out


def _check_relu_path_slope(params, seed):
    p = _check_params("relu_path_slope", params)
    n, cases, tol = p["n"], p["cases"], p["tol"]
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
    p = _check_params("norm_bounds", params)
    mat = substream(seed, ()).standard_normal((p["n"], p["columns"]))
    report = theory.norm_bounds_check(mat, p["trials"], p["h"], rho_grid=p.get("rho_grid"),
                                      seed=seed)
    report.params["seed"] = seed
    return [(report, True)]


def _check_l0_roundtrip(params, seed):
    cases = _check_params("l0_roundtrip", params)["cases"]
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
                                    default_zero_tol(mat @ forward(net, z0)))
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
        if not isinstance(name, str) or name not in _CHECK_PARAMS:
            raise ValueError(f"unknown check {name!r}; known: {sorted(_CHECK_PARAMS)}")
        _check_params(name, entry)
    reports = []
    check_ms = []
    for ci, entry in enumerate(checks):
        name = entry["name"]
        required_default = _check_params(name, entry)["required"]
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
    """Melt a results.csv into plot-ready long rows of REPORT_COLUMNS: a
    row's ROW_KEYS, then one `Metrics` field's name and value. A header
    without one of the ROW_KEYS or `Metrics` columns is a ValueError naming
    them."""
    out = []
    with open(results_csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in ROW_KEYS + Metrics._fields
                   if col not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{results_csv_path}: results.csv lacks the columns {missing}")
        for row in reader:
            keys = [row[col] for col in ROW_KEYS]
            out += [dict(zip(REPORT_COLUMNS, (*keys, name, row[name])))
                    for name in Metrics._fields]
    return out
