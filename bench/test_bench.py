"""Tests of the benchmark itself: each checker flags a wrong answer, every
workload runs one checked operation, and the traced metrics match
BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import csv
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

import workloads  # first: it puts the repo's src/ on sys.path
import checks
import hostspeed
import run
import tracing
from genrec import harness
from genrec.generator import Activation, random_gaussian_net
from genrec.measurement import MeasurementModel, build_instance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def linear_case():
    net = random_gaussian_net([5, 30, 60], Activation("identity"), 1)
    inst = build_instance(net, MeasurementModel(m=40, n=60, outlier_count=3, seed=2), seed=3)
    return net, inst


def test_recovery_checks_flag_perturbed_z(linear_case):
    net, inst = linear_case
    w, b = net.weights, net.biases
    bad = inst.z0 + 1e-2
    assert checks.check_recovered("z", inst.z0, inst.z0) == []
    assert checks.check_recovered("z", bad, inst.z0)

    w_total, b_total = checks.compose_affine(w, b)
    z_ls = np.linalg.lstsq(inst.M @ w_total, inst.y - inst.M @ b_total, rcond=None)[0]
    assert checks.check_lstsq("l2", z_ls, w, b, inst.M, inst.y) == []
    assert checks.check_lstsq("l2", z_ls * (1 + 1e-3), w, b, inst.M, inst.y)

    eps = float(np.sum(np.abs(inst.y - inst.M @ checks.np_forward(w, b, "identity", 1.0,
                                                                 inst.z0))))
    assert checks.check_eps_m("e", eps, w, b, "identity", 1.0, inst.M, inst.y, inst.z0) == []
    assert checks.check_eps_m("e", eps, w, b, "identity", 1.0, inst.M, inst.y, bad)
    assert checks.check_monotone("gd", [3.0, 2.0, 2.0]) == []
    assert checks.check_monotone("gd", [3.0, 2.0, 2.5])


def test_np_forward_matches_leaky_definition():
    w = [np.array([[1.0], [-1.0]])]
    b = [np.zeros(2)]
    assert np.array_equal(checks.np_forward(w, b, "leaky_relu", 0.2, [2.0]), [2.0, -0.4])
    assert np.array_equal(checks.np_forward(w, b, "relu", 1.0, [2.0]), [2.0, 0.0])


def test_summary_check_flags_tampered_row(tmp_path):
    rng = np.random.default_rng(0)
    rows = [{"sweep_value": v, "trial": t, "solver": s, "eps_m": float(rng.random()),
             "eps_r": float(rng.random()), "eps_r_per_pixel": float(rng.random()),
             "iters": 1, "restart_index": 0, "seed": 0, "wall_ms": 1.0}
            for v in (6, 10) for t in range(4) for s in ("admm-l1", "gd-l2sq")]
    rows[1]["eps_r"] = float("nan")
    harness.write_csv(tmp_path / "r.csv", harness.RESULT_COLUMNS, rows)
    harness.write_csv(tmp_path / "s.csv", harness.SUMMARY_COLUMNS, harness.summarize_rows(rows))
    results, summary = checks.read_csv(tmp_path / "r.csv"), checks.read_csv(tmp_path / "s.csv")
    assert checks.check_summary(results, summary) == []

    for col in ("eps_r_median", "eps_m_iqr"):
        tampered = copy.deepcopy(summary)
        tampered[2][col] = repr(float(tampered[2][col]) * (1 + 1e-6))
        assert checks.check_summary(results, tampered)
    assert checks.check_summary(results, summary[:-1])


def test_sweep_checks_flag_row_order_and_l2_claim():
    rows = [{"sweep_value": str(v), "trial": str(t), "solver": s}
            for v in (6, 48) for t in range(2) for s in tracing.METHODS]
    assert checks.check_sweep_rows(rows, [6, 48], 2, list(tracing.METHODS)) == []
    assert checks.check_sweep_rows(rows[::-1], [6, 48], 2, list(tracing.METHODS))
    assert checks.check_sweep_rows(rows[:-1], [6, 48], 2, list(tracing.METHODS))

    summary = [{"sweep_value": "48", "solver": s, "eps_r_median": e}
               for s, e in zip(tracing.METHODS, ("1e-12", "1e-13", "5.0"))]
    assert checks.check_l1_claim(summary, 48) == []
    summary[2]["eps_r_median"] = "1e-14"   # gd-l2sq no longer above the l1 solvers
    assert checks.check_l1_claim(summary, 48)
    summary[0]["eps_r_median"] = "2e-4"
    assert len(checks.check_l1_claim(summary, 48)) == 2


def test_manifest_check_flags_wrong_trial_count():
    wl = workloads.Verify()
    manifest = wl.run(0)
    assert checks.check_manifest(manifest, wl.suite) == []
    assert [t for e in wl.suite for t in checks.expected_trials(e)][:2] == [60, 792]

    wrong = copy.deepcopy(manifest)
    wrong["reports"][1]["trials"] = 791
    assert checks.check_manifest(wrong, wl.suite)
    failing = copy.deepcopy(manifest)
    failing["reports"][4]["failures"] = 1
    assert checks.check_manifest(failing, wl.suite)


@pytest.mark.parametrize("name, failed", [("recover-linear", False), ("recover-paper", True),
                                          ("verify-default", False), ("sweep-2w", False)])
def test_smoke_one_operation(name, failed):
    # recover-paper fails through the default-rho ADMM fault, and only that.
    assert workloads.smoke(name, seed=5) == (failed, [])


def test_times_scale_by_the_workloads_kernel_median():
    assert sorted(workloads.HOST_KERNEL) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    assert set(workloads.HOST_KERNEL.values()) <= set(hostspeed.KERNELS)
    slow = 2 * hostspeed.REF_S["blas"]
    out = {"kernel": "blas", "cal_s": [slow, slow, slow, 1.0, 1.0]}
    assert run.speed(out, first=3) == pytest.approx(0.5)
    assert run.speed(out) == pytest.approx(0.5)
    assert len(hostspeed.sample("interp", 0.0, at_least=3)) == 3


def test_self_time_subtracts_direct_children(tmp_path):
    spans = [tracing.Span("a", 0.0, -1, 0), tracing.Span("b", 1.0, 0, 0),
             tracing.Span("c", 1.5, 1, 0), tracing.Span("d", 11.0, -1, None)]
    for span, end in zip(spans, (10.0, 4.0, 2.0, 12.0)):
        span.end = end
    assert tracing.self_times(spans) == [7.0, 2.5, 0.5, 1.0]

    tracing.write_spans(spans, tmp_path / "spans.csv.gz")
    with gzip.open(tmp_path / "spans.csv.gz", "rt", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "start_s", "end_s", "parent", "op"]
    assert rows[3] == ["c", "1.5", "2.0", "1", "0"] and rows[4][-1] == ""


def test_traced_counts_repeat_and_wrappers_are_removed():
    from genrec import solvers
    original = solvers.forward
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            wl = workloads.WORKLOADS["recover-linear"](7)
            tracer.op = 0
            wl.run(0)
        layers = tracing.layer_metrics(tracer.spans, 1)
        counts.append({k: v for k, v in layers.items() if k.endswith((".calls", ".iters",
                                                                       ".restarts", ".evals"))})
    assert counts[0] == counts[1]
    assert counts[0]["solvers.admm-l1.restarts"] == 10
    assert counts[0]["measurement.build_instance.calls"] == len(wl) + 1   # + warm-up
    assert solvers.forward is original


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "ops_per_s", "op_ms.p50", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
