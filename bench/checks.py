"""Correctness checks for the benchmark's operations.

Every reference here is computed from the operation's inputs with plain numpy
or the standard library; none of them calls genrec. Each checker returns a
list of problem strings, empty when the output is correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np

RECOVERY_TOL = 1e-3      # relative z error that counts as exact recovery
LSTSQ_TOL = 1e-5         # relative gap to the lstsq solution (2e-7 seen)
EPS_M_TOL = 1e-9         # relative gap between reported and recomputed eps_m


def np_forward(weights, biases, kind, h, z):
    """G(z) for a dense net, layer by layer, without genrec."""
    a = np.asarray(z, dtype=np.float64)
    for w, b in zip(weights, biases):
        pre = w @ a + b
        if kind == "relu":
            a = np.maximum(pre, 0.0)
        elif kind == "leaky_relu":
            a = np.where(pre >= 0.0, pre, h * pre)
        else:
            a = pre
    return a


def compose_affine(weights, biases):
    """(W, b) with G(z) = W z + b for an identity-activation net."""
    w_total = np.eye(weights[0].shape[1])
    b_total = np.zeros(weights[0].shape[1])
    for w, b in zip(weights, biases):
        w_total = w @ w_total
        b_total = w @ b_total + b
    return w_total, b_total


def rel_err(z_hat, z_ref) -> float:
    return float(np.linalg.norm(np.asarray(z_hat) - z_ref) / np.linalg.norm(z_ref))


def check_recovered(label, z_hat, z0, tol=RECOVERY_TOL) -> list[str]:
    err = rel_err(z_hat, z0)
    return [] if err < tol else [f"{label}: relative z error {err:.3g} >= {tol:g}"]


def check_lstsq(label, z_hat, weights, biases, M, y, tol=LSTSQ_TOL) -> list[str]:
    """z_hat must match argmin |M (W z + b) - y|_2 of the composed linear net."""
    w_total, b_total = compose_affine(weights, biases)
    z_ls = np.linalg.lstsq(M @ w_total, y - M @ b_total, rcond=None)[0]
    gap = rel_err(z_hat, z_ls)
    return [] if gap <= tol else [f"{label}: gap to lstsq solution {gap:.3g} > {tol:g}"]


def check_monotone(label, objectives) -> list[str]:
    ups = sum(b > a for a, b in zip(objectives, objectives[1:]))
    return [f"{label}: objective increased {ups} times"] if ups else []


def check_eps_m(label, reported, weights, biases, kind, h, M, y, z_hat,
                tol=EPS_M_TOL) -> list[str]:
    """reported must equal |y - M G(z_hat)|_1 with G from np_forward."""
    ref = float(np.sum(np.abs(y - M @ np_forward(weights, biases, kind, h, z_hat))))
    if math.isclose(reported, ref, rel_tol=tol, abs_tol=0.0):
        return []
    return [f"{label}: eps_m {reported!r} != recomputed {ref!r}"]


# -- verify ------------------------------------------------------------------

def expected_trials(entry: dict) -> list[int]:
    """Trial count of each report a default-suite check entry produces,
    derived from its parameters alone."""
    name = entry["name"]
    if name == "gaussian_full_rank":
        return [len(entry["shapes"]) * int(entry["trials"])]
    if name == "every_r_rows_full_rank":
        n, l = int(entry["n"]), int(entry["outliers"])
        return [math.comb(n, n - (2 * l + 1))]
    if name == "k_majority":
        return [int(entry["trials"])] * len(entry["rho_grid"])
    if name in ("leaky_beta_range", "norm_bounds"):
        return [int(entry["trials"])]
    if name == "leaky_layer_lift":
        return [int(entry["pairs"])]
    if name in ("relu_path_slope", "l0_roundtrip"):
        return [int(entry["cases"])]
    raise ValueError(f"no trial-count rule for check {name!r}")


def check_manifest(manifest: dict, suite: list[dict]) -> list[str]:
    """A run_verify manifest must pass, report zero failures everywhere, and
    carry the trial counts the suite's parameters imply, in suite order."""
    problems = []
    if manifest.get("all_passed") is not True:
        problems.append("verify: all_passed is not true")
    want = [(e["name"], t) for e in suite for t in expected_trials(e)]
    got = [(r["condition_name"], r["trials"]) for r in manifest["reports"]]
    if got != want:
        problems.append(f"verify: reports {got} != expected {want}")
    for r in manifest["reports"]:
        if r["failures"] != 0:
            problems.append(f"verify: {r['condition_name']} has {r['failures']} failures")
    return problems


# -- sweep -------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def quantile(sorted_vals, q: float) -> float:
    """Linear-interpolation quantile (the 'linear' rule of numpy.percentile)."""
    pos = (len(sorted_vals) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _same(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= 1e-9 * scale


def check_summary(results: list[dict], summary: list[dict]) -> list[str]:
    """Each summary row's medians and IQRs must equal values recomputed from
    the results rows of its (sweep_value, solver) group."""
    groups: dict[tuple, list[dict]] = {}
    for row in results:
        groups.setdefault((row["sweep_value"], row["solver"]), []).append(row)
    problems = []
    if [(s["sweep_value"], s["solver"]) for s in summary] != list(groups):
        problems.append("sweep: summary groups differ from results groups")
    for s in summary:
        grp = groups.get((s["sweep_value"], s["solver"]), [])
        if int(s["trials"]) != len(grp):
            problems.append(f"sweep: summary {s['sweep_value']}/{s['solver']} "
                            f"trials {s['trials']} != {len(grp)}")
        for col in ("eps_m", "eps_r", "eps_r_per_pixel"):
            vals = sorted(v for v in (float(r[col]) for r in grp) if not math.isnan(v))
            if vals:
                med, iqr = quantile(vals, 0.5), quantile(vals, 0.75) - quantile(vals, 0.25)
                scale = max(abs(vals[0]), abs(vals[-1]))
            else:
                med = iqr = float("nan")
                scale = 0.0
            for stat, ref in (("median", med), ("iqr", iqr)):
                got = float(s[f"{col}_{stat}"])
                if not _same(got, ref, scale):
                    problems.append(f"sweep: {s['sweep_value']}/{s['solver']} "
                                    f"{col}_{stat} {got!r} != recomputed {ref!r}")
    return problems


def check_sweep_rows(results: list[dict], values, trials: int,
                     solvers: list[str]) -> list[str]:
    """points x trials x solvers rows, in (point, trial, solver) order."""
    want = [(str(v), str(t), s) for v in values for t in range(trials) for s in solvers]
    got = [(r["sweep_value"], r["trial"], r["solver"]) for r in results]
    if got == want:
        return []
    return [f"sweep: {len(got)} rows out of (point, trial, solver) order; "
            f"expected {len(want)}"]


def check_l1_claim(summary: list[dict], point) -> list[str]:
    """The l1-versus-l2 claim on the summary medians at one sweep point: both
    l1 solvers reach eps_r < 1e-6 and gd-l2sq stays above both."""
    med = {s["solver"]: float(s["eps_r_median"]) for s in summary
           if s["sweep_value"] == str(point)}
    l1 = [med.get("admm-l1", math.nan), med.get("gd-l1sq", math.nan)]
    problems = []
    if not all(e < 1e-6 for e in l1):
        problems.append(f"sweep: l1 median eps_r {l1} at {point} not < 1e-6")
    if not med.get("gd-l2sq", math.nan) > max(l1):
        problems.append(f"sweep: gd-l2sq median eps_r {med.get('gd-l2sq')} at {point} "
                        f"not above l1 {l1}")
    return problems


def non_timing(results: list[dict]) -> list[tuple]:
    return [tuple(v for k, v in r.items() if k != "wall_ms") for r in results]
