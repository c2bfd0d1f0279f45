import csv
import json
import math
import os
import re

import numpy as np
import pytest

from genrec import cli, harness
from genrec._common import child_seeds, substreams
from genrec.harness import (ExperimentSpec, report_long_format, run_sweep,
                            run_verify, summarize_rows)
from genrec.solvers import SolverDiverged


def sweep_spec(tmp_path=None, **overrides):
    base = {
        "name": "unit",
        "net": {"dims": [4, 12, 24], "activation": {"kind": "identity"}, "seed": 1},
        "measurement": {"matrix_kind": "gaussian", "outlier_count": 0,
                        "noise_target": 0.0},
        "sweep": {"axis": "measurements", "values": [20]},
        "solvers": [{"method": "admm-l1", "max_iters": 200, "restarts": 2}],
        "trials_per_point": 1,
        "seed": 5,
    }
    base.update(overrides)
    if tmp_path is not None:
        base["output_dir"] = str(tmp_path)
    return ExperimentSpec.from_dict(base)


def verify_spec(tmp_path=None, **overrides):
    base = {
        "name": "verify-unit", "net": {}, "measurement": {},
        "sweep": {"axis": "rho_grid", "values": [0.02]},
        "solvers": [], "trials_per_point": 1, "seed": 0,
    }
    base.update(overrides)
    if tmp_path is not None:
        base["output_dir"] = str(tmp_path)
    return ExperimentSpec.from_dict(base)


class TestSpecValidation:
    def test_sweep_values_must_increase(self):
        with pytest.raises(ValueError):
            sweep_spec(sweep={"axis": "measurements", "values": [20, 10]})

    def test_sweep_values_nonempty(self):
        with pytest.raises(ValueError):
            sweep_spec(sweep={"axis": "measurements", "values": []})

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            sweep_spec(trials_per_point=0)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep_spec(sweep={"axis": "bogus", "values": [1]})

    def test_rho_grid_axis_rejected_by_sweep(self):
        spec = verify_spec()
        with pytest.raises(ValueError):
            run_sweep(spec)


class TestRunSweep:
    def test_clean_linear_point_recovers(self, tmp_path):
        rows, summary = run_sweep(sweep_spec(tmp_path))
        assert len(rows) == 1
        assert rows[0]["eps_r"] < 1e-8
        assert os.path.exists(tmp_path / "results.csv")
        assert os.path.exists(tmp_path / "summary.csv")
        assert os.path.exists(tmp_path / "run.json")

    def test_run_echo_fields(self, tmp_path):
        run_sweep(sweep_spec(tmp_path / "sweep"), workers=1)
        run_verify(verify_spec(tmp_path / "verify", checks=[
            {"name": "every_r_rows_full_rank", "n": 6, "k": 2, "outliers": 1}]))
        sweep_echo = json.loads((tmp_path / "sweep" / "run.json").read_text())
        verify_echo = json.loads((tmp_path / "verify" / "run.json").read_text())
        assert list(sweep_echo) == ["config", "workers", "version"]
        assert sweep_echo["workers"] == 1
        assert list(verify_echo) == ["config", "version"]

    def test_csv_schema(self, tmp_path):
        run_sweep(sweep_spec(tmp_path))
        with open(tmp_path / "results.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["sweep_value", "trial", "solver", "eps_m", "eps_r",
                          "eps_r_per_pixel", "iters", "restart_index", "seed",
                          "wall_ms"]

    def test_rerun_identical_up_to_timing(self, tmp_path):
        spec = sweep_spec(None, trials_per_point=2,
                          sweep={"axis": "measurements", "values": [15, 25]})
        rows_a, _ = run_sweep(spec)
        rows_b, _ = run_sweep(spec)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                              for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_worker_pool_matches_serial(self):
        spec = sweep_spec(None, trials_per_point=2,
                          sweep={"axis": "measurements", "values": [15, 25]})
        rows_serial, _ = run_sweep(spec, workers=1)
        rows_pool, _ = run_sweep(spec, workers=2)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                              for r in rows]
        assert strip(rows_serial) == strip(rows_pool)

    def test_outlier_axis(self):
        spec = sweep_spec(
            None,
            measurement={"matrix_kind": "gaussian", "m": 30, "noise_target": 0.0},
            sweep={"axis": "outliers", "values": [0, 2]},
            trials_per_point=1)
        rows, _ = run_sweep(spec)
        assert [r["sweep_value"] for r in rows] == [0, 2]
        assert all(r["eps_r"] < 1e-6 for r in rows)

    def test_measurements_sweep_error_trends(self):
        # synthetic analog of the error-vs-measurements comparison: the l1
        # solvers' median eps_r is nonincreasing in m (up to the FP floor)
        # and ends >= 1e3x below the l2 solver's
        spec = ExperimentSpec.from_dict({
            "name": "fig2-analog",
            "net": {"dims": [4, 20, 60],
                    "activation": {"kind": "leaky_relu", "h": 0.2}, "seed": 3},
            "measurement": {"matrix_kind": "gaussian", "outlier_count": 3,
                            "noise_target": 0.0},
            "sweep": {"axis": "measurements", "values": [6, 10, 16, 28, 48]},
            "solvers": [{"method": "admm-l1", "max_iters": 400, "restarts": 5},
                        {"method": "gd-l1sq", "max_iters": 400, "restarts": 5},
                        {"method": "gd-l2sq", "max_iters": 400, "restarts": 5}],
            "trials_per_point": 3,
            "seed": 11,
        })
        _, summary = run_sweep(spec)
        by_solver = {}
        for s in summary:
            by_solver.setdefault(s["solver"], []).append(
                (s["sweep_value"], s["eps_r_median"]))
        for method in ("admm-l1", "gd-l1sq"):
            meds = [max(v, 1e-12) for _, v in sorted(by_solver[method])]
            assert all(b <= a for a, b in zip(meds, meds[1:])), meds
        l1_final = dict(sorted(by_solver["admm-l1"]))[48]
        l2_final = dict(sorted(by_solver["gd-l2sq"]))[48]
        assert l2_final >= 1e3 * max(l1_final, 1e-300)

    def test_outlier_count_raises_required_measurements(self):
        # more outliers -> more measurements needed for a fixed per-pixel error
        threshold = 1e-3
        needed = {}
        for l in (5, 25, 50):
            values = [mv for mv in (15, 25, 55, 105, 160) if mv > l]
            spec = ExperimentSpec.from_dict({
                "name": f"outliers-{l}",
                "net": {"dims": [4, 20, 60], "activation": {"kind": "identity"},
                        "seed": 3},
                "measurement": {"matrix_kind": "gaussian", "outlier_count": l,
                                "noise_target": 0.0},
                "sweep": {"axis": "measurements", "values": values},
                "solvers": [{"method": "admm-l1", "max_iters": 400, "restarts": 3}],
                "trials_per_point": 2,
                "seed": 21,
            })
            _, summary = run_sweep(spec)
            reach = [s["sweep_value"] for s in summary
                     if s["eps_r_per_pixel_median"] <= threshold]
            needed[l] = min(reach) if reach else float("inf")
        assert needed[5] <= needed[25] <= needed[50]
        assert needed[5] < needed[50]

    def test_summarize_handles_nan_rows(self):
        rows = [
            {"sweep_value": 1, "solver": "x", "eps_m": 1.0, "eps_r": float("nan"),
             "eps_r_per_pixel": float("nan")},
            {"sweep_value": 1, "solver": "x", "eps_m": 3.0, "eps_r": 2.0,
             "eps_r_per_pixel": 0.5},
        ]
        summary = summarize_rows(rows)
        assert summary[0]["eps_m_median"] == 2.0
        assert summary[0]["eps_r_median"] == 2.0


class TestRunVerify:
    def test_default_suite_passes_on_seed_zero(self, tmp_path):
        manifest = run_verify(verify_spec(tmp_path))
        assert manifest["all_passed"]
        required = [r for r in manifest["reports"] if r["required"]]
        assert required and all(r["failures"] == 0 for r in required)
        names = {r["condition_name"] for r in manifest["reports"]}
        assert {"every_r_rows_full_rank", "k_majority", "relu_path_slope",
                "norm_bounds", "l0_roundtrip"} <= names
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["all_passed"]

    def test_relu_path_slope_has_no_false_failures(self):
        # A forward difference that straddles a kink used to fail on 14 of
        # these seeds.
        failures = [report.failures for seed in range(40)
                    for report, _ in harness._check_relu_path_slope({}, seed)]
        assert failures == [0] * 40

    def test_rank_deficient_injection_fails(self):
        deficient = np.ones((6, 2)).tolist()  # every row equal: rank 1
        spec = verify_spec(checks=[{"name": "every_r_rows_full_rank",
                                    "matrix": deficient, "outliers": 1}])
        manifest = run_verify(spec)
        assert not manifest["all_passed"]
        assert manifest["reports"][0]["failures"] > 0

    def test_empty_check_list(self):
        manifest = run_verify(verify_spec(checks=[]))
        assert manifest["reports"] == []
        assert manifest["all_passed"]

    def test_rho_grid_sweep_feeds_k_majority(self):
        spec = verify_spec(sweep={"axis": "rho_grid", "values": [0.01, 0.05]})
        manifest = run_verify(spec)
        rhos = [r["params"]["rho"] for r in manifest["reports"]
                if r["condition_name"] == "k_majority"]
        assert rhos == [0.01, 0.05]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_verify(verify_spec(checks=[{"name": "not-a-check"}]))

    def test_manifest_deterministic(self):
        a = run_verify(verify_spec())
        b = run_verify(verify_spec())
        assert a["reports"] == b["reports"]


def with_singular_values(shape, ratio, seed=0):
    """A matrix of `shape` whose singular values fall geometrically from 1 to
    `ratio` (0 makes it exactly rank-deficient)."""
    rng = np.random.default_rng(seed)
    r = min(shape)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], r)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], r)))
    s = np.geomspace(1.0, ratio, r) if ratio > 0 else np.append(np.ones(r - 1), 0.0)
    return (u * s) @ v.T


def full_rank(s_max, s_min):
    """The check's decision: sigma_min clears 1e-10 * sigma_max."""
    return s_min - 1e-10 * s_max > 0


def reference_gaussian_full_rank(params, seed):
    """The check with every draw's singular values from the SVD."""
    failures, min_margin = 0, np.inf
    for si, shape in enumerate(params["shapes"]):
        for rng in substreams(seed, [(si, t) for t in range(params["trials"])]):
            sv = np.linalg.svd(rng.standard_normal(shape), compute_uv=False)
            margin = float(sv[-1]) - 1e-10 * float(sv[0])
            min_margin = min(min_margin, margin)
            failures += margin <= 0
    return failures, min_margin


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the calls to np.linalg.svd."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestGaussianFullRank:
    """Singular values from the Gram eigenvalues when certified, else the
    SVD: every decision is the SVD's."""

    SHAPES = [(100, 784), (40, 20), (12, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ratio", [1e-3, 1e-9, 1e-11, 0.0])
    def test_decision_equals_the_svds(self, shape, ratio):
        a = with_singular_values(shape, ratio)
        sv = np.linalg.svd(a, compute_uv=False)
        assert full_rank(*harness._extreme_singular_values(a)) == full_rank(sv[0], sv[-1])
        assert full_rank(sv[0], sv[-1]) == (ratio > 1e-10)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_repeated_row_or_column_fails(self, shape):
        a = np.random.default_rng(1).standard_normal(shape)
        if shape[0] <= shape[1]:
            a[-1] = a[0]
        else:
            a[:, -1] = a[:, 0]
        sv = np.linalg.svd(a, compute_uv=False)
        assert not full_rank(sv[0], sv[-1])
        assert not full_rank(*harness._extreme_singular_values(a))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gram_values_are_within_their_certified_bound(self, shape, svd_calls):
        a = with_singular_values(shape, 1e-3)
        got = harness._extreme_singular_values(a)
        assert svd_calls == []
        g = a @ a.T if shape[0] <= shape[1] else a.T @ a
        delta = sum(shape) * np.finfo(np.float64).eps * np.trace(g)
        sv = np.linalg.svd(a, compute_uv=False)
        assert abs(got[0] ** 2 - sv[0] ** 2) <= delta
        assert abs(got[1] ** 2 - sv[-1] ** 2) <= delta

    @pytest.mark.parametrize("ratio", [1e-5, 1e-9])
    def test_svd_runs_below_the_certified_ratio(self, ratio, svd_calls):
        # sigma ratio 1e-5 is lambda ratio 1e-10, under _GRAM_MIN_RATIO.
        harness._extreme_singular_values(with_singular_values((40, 20), ratio))
        assert svd_calls == [(40, 20)]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_default_entry_takes_no_svd_and_keeps_the_svds_decisions(self, seed,
                                                                     svd_calls):
        entry = harness.default_checks()[0]
        assert entry["name"] == "gaussian_full_rank"
        [report] = run_verify(verify_spec(checks=[entry], seed=seed))["reports"]
        assert svd_calls == []
        check_seed = child_seeds(seed, 1, spawn_key=(0,))[0]
        failures, min_margin = reference_gaussian_full_rank(entry, check_seed)
        assert report["trials"] == 60
        assert report["failures"] == failures == 0
        assert report["min_margin"] == pytest.approx(min_margin, rel=1e-12, abs=0)


class TestReport:
    def test_long_format(self, tmp_path):
        run_sweep(sweep_spec(tmp_path))
        rows = report_long_format(str(tmp_path / "results.csv"))
        metrics = {r["metric"] for r in rows}
        assert metrics == {"eps_m", "eps_r", "eps_r_per_pixel"}
        assert len(rows) == 3  # one result row x three metrics


class TestOutputFormats:
    """The per-row formats written out literally: harness derives them from
    `Metrics._fields`, so a change there shows here."""

    METRICS = ["eps_m", "eps_r", "eps_r_per_pixel"]

    @staticmethod
    def _read(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_summary_and_report_headers(self, tmp_path):
        run_sweep(sweep_spec(tmp_path))
        assert self._read(tmp_path / "summary.csv")[0] == [
            "sweep_value", "solver", "trials", "eps_m_median", "eps_m_iqr",
            "eps_r_median", "eps_r_iqr", "eps_r_per_pixel_median", "eps_r_per_pixel_iqr"]
        assert cli.main(["report", "--run", str(tmp_path)]) == 0
        report = self._read(tmp_path / "report.csv")
        assert report[0] == ["sweep_value", "trial", "solver", "metric", "value"]
        assert [row[:4] for row in report[1:]] == [["20", "0", "admm-l1", m]
                                                   for m in self.METRICS]

    def test_solve_out_keys_and_stdout_line(self, tmp_path, capsys):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "10",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "gd-l1sq", "--out", str(out_path)]) == 0
        result = json.loads(out_path.read_text())
        assert list(result) == ["method", "config", "z_hat", "x_hat", *self.METRICS,
                                "iters_used", "restart_index", "converged", "instance_seed"]
        line = capsys.readouterr().out
        assert re.fullmatch(r"gd-l1sq: eps_m=\S+ eps_r=\S+ iters=\d+ restart=0\n", line), line
        assert line.split()[1:3] == [f"eps_m={result['eps_m']:.6g}",
                                     f"eps_r={result['eps_r']:.6g}"]

    def test_a_diverged_trial_scores_nan_and_summarizes_to_nan(self):
        row = harness.score(None, None, SolverDiverged("diverged"))
        assert list(row) == [*self.METRICS, "iters", "restart_index"]
        assert all(math.isnan(row[m]) for m in self.METRICS)
        assert (row["iters"], row["restart_index"]) == (0, -1)
        rows = [dict(row, sweep_value=6, trial=t, solver="gd-l1sq") for t in range(3)]
        [summary] = summarize_rows(rows)
        assert (summary["sweep_value"], summary["solver"], summary["trials"]) == (6, "gd-l1sq", 3)
        assert all(math.isnan(summary[f"{m}_{stat}"])
                   for m in self.METRICS for stat in ("median", "iqr"))

    def test_diverged_rows_in_the_sweep_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "solve_trials", lambda net, problems, cfgs: [
            SolverDiverged("diverged") for _ in problems])
        run_sweep(sweep_spec(tmp_path, trials_per_point=2))
        results = self._read(tmp_path / "results.csv")
        assert [row[:8] for row in results[1:]] == [
            ["20", str(t), "admm-l1", "nan", "nan", "nan", "0", "-1"] for t in range(2)]
        assert self._read(tmp_path / "summary.csv")[1] == ["20", "admm-l1", "2"] + ["nan"] * 6


class TestCli:
    def test_gen_net_and_instance_and_solve(self, tmp_path):
        net_path = tmp_path / "net.json"
        inst_path = tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        trace_path = tmp_path / "trace.csv"
        assert cli.main(["gen-net", "--dims", "4,12,24", "--activation",
                         "leaky-relu", "--h", "0.2", "--seed", "3",
                         "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "20",
                         "--outliers", "2", "--seed", "4",
                         "--out", str(inst_path)]) == 0
        assert cli.main(["solve", "--net", str(net_path),
                         "--instance", str(inst_path), "--method", "admm-l1",
                         "--restarts", "3", "--max-iters", "300",
                         "--out", str(out_path), "--trace", str(trace_path)]) == 0
        result = json.loads(out_path.read_text())
        assert result["eps_r"] < 1e-6
        assert result["method"] == "admm-l1"
        with open(trace_path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["iter", "objective", "primal_residual", "eps_m"]

    def test_bad_solver_config_is_one_error_line(self, tmp_path, capsys):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rhoo": 2}))
        assert cli.main(["gen-net", "--dims", "4,12,24", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "20",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "admm-l1", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("genrec: error: ") and "'rhoo'" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sweep_and_report(self, tmp_path):
        config = tmp_path / "config.json"
        out_dir = tmp_path / "run"
        config.write_text(json.dumps({
            "name": "cli-sweep",
            "net": {"dims": [3, 8, 16], "activation": {"kind": "identity"},
                    "seed": 1},
            "measurement": {"matrix_kind": "gaussian", "outlier_count": 0},
            "sweep": {"axis": "measurements", "values": [10, 14]},
            "solvers": [{"method": "gd-l2sq", "max_iters": 150}],
            "trials_per_point": 1,
            "seed": 2,
        }))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()
        assert cli.main(["report", "--run", str(out_dir)]) == 0
        assert (out_dir / "report.csv").exists()

    def test_verify_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "name": "v", "sweep": {"axis": "rho_grid", "values": [0.02]},
            "seed": 0,
            "checks": [{"name": "leaky_beta_range", "trials": 200}],
        }))
        assert cli.main(["verify", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "v", "sweep": {"axis": "rho_grid", "values": [0.02]},
            "seed": 0,
            "checks": [{"name": "every_r_rows_full_rank",
                        "matrix": np.ones((6, 2)).tolist(), "outliers": 1}],
        }))
        assert cli.main(["verify", "--config", str(bad)]) == 1

    def test_seed_override_changes_rows(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "name": "cli-seed",
            "net": {"dims": [3, 8, 16], "activation": {"kind": "identity"},
                    "seed": 1},
            "measurement": {"matrix_kind": "gaussian", "outlier_count": 1},
            "sweep": {"axis": "measurements", "values": [12]},
            "solvers": [{"method": "gd-l2sq", "max_iters": 100}],
            "trials_per_point": 1,
            "seed": 2,
        }))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.main(["sweep", "--config", str(config), "--out", str(out_a)])
        cli.main(["sweep", "--config", str(config), "--out", str(out_b),
                  "--seed", "99"])
        row_a = list(csv.DictReader(open(out_a / "results.csv")))[0]
        row_b = list(csv.DictReader(open(out_b / "results.csv")))[0]
        assert row_a["seed"] != row_b["seed"]
