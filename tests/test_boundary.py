"""Bad input is rejected where it enters: a ValueError from the library, one
`genrec: error:` line and exit status 2 from the CLI."""

import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest

from genrec import cli, harness
from genrec.generator import (Activation, GeneratorNetwork, load_net, net_from_dict,
                              random_gaussian_net, save_net)
from genrec.harness import ExperimentSpec, default_checks, run_sweep, run_verify
from genrec.measurement import (MeasurementModel, instance_from_dict, load_instance,
                                sample_noise, sample_outliers, save_instance)
from genrec.solvers import SolverConfig, SolverDiverged


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("genrec: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestNonFiniteNetwork:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_weights_rejected_naming_the_layer(self, bad, layer):
        net = random_gaussian_net([2, 4, 6], Activation("relu"), 0)
        weights = [w.copy() for w in net.weights]
        weights[layer][1, 0] = bad
        with pytest.raises(ValueError, match=rf"weights\[{layer}\] \(layer {layer + 1}\)"):
            GeneratorNetwork(net.dims, tuple(weights), net.biases, net.activation)

    def test_biases_rejected_naming_the_layer(self):
        net = random_gaussian_net([2, 4, 6], Activation("identity"), 0)
        biases = [b.copy() for b in net.biases]
        biases[1][3] = math.nan
        with pytest.raises(ValueError, match=r"biases\[1\] \(layer 2\)"):
            GeneratorNetwork(net.dims, net.weights, tuple(biases), net.activation)

    def test_cli_rejects_a_net_file_with_nan(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert cli.main(["gen-net", "--dims", "2,5", "--out", str(net_path)]) == 0
        raw = json.loads(net_path.read_text())
        raw["weights"][0][0][0] = math.nan     # json writes it as NaN
        net_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "3",
                         "--out", str(tmp_path / "inst.json")]) == 2
        assert "weights[0]" in one_error_line(capsys)


class TestOutlierRange:
    @pytest.mark.parametrize("value_range", [(math.nan, math.nan), (1.0, math.inf),
                                             (-math.inf, 2.0), (math.nan, 3.0)])
    def test_non_finite_range_rejected(self, value_range):
        with pytest.raises(ValueError, match="finite"):
            MeasurementModel(m=5, n=5, outlier_count=1, outlier_range=value_range)
        with pytest.raises(ValueError, match="finite"):
            sample_outliers(5, 1, value_range)

    @pytest.mark.parametrize("value_range", [(5000.0,), (1.0, 2.0, 3.0), 5000.0, ("a", 1)])
    def test_malformed_range_rejected(self, value_range):
        with pytest.raises(ValueError, match="two numbers"):
            MeasurementModel(m=5, n=5, outlier_range=value_range)

    @pytest.fixture
    def net_path(self, tmp_path):
        path = tmp_path / "net.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("text", ["nan,nan", "1,inf", "nan,inf"])
    def test_cli_non_finite_range_is_one_error_line(self, net_path, tmp_path, capsys, text):
        capsys.readouterr()
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6", "--outliers",
                         "2", "--outlier-range", text, "--out",
                         str(tmp_path / "inst.json")]) == 2
        assert "finite" in one_error_line(capsys)

    @pytest.mark.parametrize("text", ["5000", "1,2,3", "a,b"])
    def test_cli_malformed_range_names_the_flag(self, net_path, tmp_path, capsys, text):
        capsys.readouterr()
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--outlier-range", text, "--out", str(tmp_path / "inst.json")]) == 2
        err = one_error_line(capsys)
        assert ("--outlier-range expects two comma-separated numbers lo,hi, "
                f"got '{text}'") in err


class TestSweepOutlierRange:
    @pytest.fixture
    def config(self, tmp_path):
        cfg = {"net": {"dims": [2, 6]},
               "measurement": {"outlier_count": 1, "outlier_range": 5000},
               "sweep": {"axis": "measurements", "values": [8]},
               "solvers": [{"method": "gd-l2sq", "max_iters": 5}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return cfg, path

    def test_run_sweep_names_the_outlier_range(self, config):
        with pytest.raises(ValueError, match="outlier range must be two numbers"):
            run_sweep(ExperimentSpec.from_dict(config[0]))

    def test_cli_sweep_is_one_error_line(self, config, capsys):
        assert cli.main(["sweep", "--config", str(config[1])]) == 2
        assert "outlier range" in one_error_line(capsys)


class TestCliInputErrors:
    def test_cli_missing_config_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["verify", "--config", str(missing)]) == 2
        assert str(missing) in one_error_line(capsys)

    def test_cli_bad_dims_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["gen-net", "--dims", "4,x", "--out", str(tmp_path / "n.json")]) == 2
        assert "--dims '4,x'" in one_error_line(capsys)


class TestMalformedJson:
    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        return path

    @pytest.mark.parametrize("load", [load_net, load_instance])
    def test_loaders_name_the_file(self, bad, load):
        with pytest.raises(ValueError, match=r"bad\.json: malformed JSON"):
            load(bad)

    def test_cli_commands_name_the_file(self, bad, tmp_path, capsys):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        runs = [
            ["gen-instance", "--net", str(bad), "--m", "6", "--out", str(tmp_path / "x")],
            ["solve", "--net", str(bad), "--instance", str(inst_path), "--method", "gd-l2sq"],
            ["solve", "--net", str(net_path), "--instance", str(bad), "--method", "gd-l2sq"],
            ["solve", "--net", str(net_path), "--instance", str(inst_path),
             "--method", "gd-l2sq", "--config", str(bad)],
            ["sweep", "--config", str(bad)],
            ["verify", "--config", str(bad)],
        ]
        for argv in runs:
            capsys.readouterr()
            assert cli.main(argv) == 2, argv
            assert f"{bad}: malformed JSON" in one_error_line(capsys), argv


class TestMalformedNetAndInstanceFiles:
    """A net or instance file that is not a JSON object, or lacks a key,
    is a ValueError naming the file and the key or type, and one error
    line from every CLI command that reads it."""

    @pytest.fixture
    def files(self, tmp_path):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        return net_path, inst_path

    @staticmethod
    def _runs(net_path, inst_path, tmp_path):
        return [["gen-instance", "--net", str(net_path), "--m", "6",
                 "--out", str(tmp_path / "x.json")],
                ["solve", "--net", str(net_path), "--instance", str(inst_path),
                 "--method", "gd-l2sq"]]

    def _rejected(self, capsys, runs, bad, message):
        for argv in runs:
            if str(bad) not in argv:
                continue
            capsys.readouterr()
            assert cli.main(argv) == 2, argv
            assert f"{bad}: {message}" in one_error_line(capsys), argv

    @pytest.mark.parametrize("key", ["dims", "weights", "biases", "activation"])
    def test_net_missing_a_key(self, files, tmp_path, capsys, key):
        net_path, inst_path = files
        d = json.loads(net_path.read_text())
        del d[key]
        net_path.write_text(json.dumps(d))
        message = f"net is missing the required key '{key}'"
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{net_path}: {message}')}$"):
            load_net(net_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), net_path, message)

    def test_net_activation_missing_its_kind(self, files, tmp_path, capsys):
        net_path, inst_path = files
        d = json.loads(net_path.read_text())
        d["activation"] = {"h": 0.2}
        net_path.write_text(json.dumps(d))
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), net_path,
                       "activation is missing the required key 'kind'")

    @pytest.mark.parametrize("h", [True, "0.3", [0.2]])
    def test_net_activation_slope_that_is_not_a_number(self, files, tmp_path, capsys, h):
        """float() would take true as 1.0 and "0.3" as 0.3."""
        net_path, inst_path = files
        d = json.loads(net_path.read_text())
        d["activation"] = {"kind": "leaky_relu", "h": h}
        net_path.write_text(json.dumps(d))
        message = f"activation.h must be a number, got {h!r}"
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{net_path}: {message}')}$"):
            load_net(net_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), net_path, message)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["z0", "x0", "M", "e", "eta", "y"])
    def test_instance_with_non_finite_entries(self, files, tmp_path, capsys, key, bad):
        """Named where it enters: a solve would otherwise start from a
        non-finite objective and report the input as a solver divergence."""
        net_path, inst_path = files
        inst = load_instance(inst_path)
        field = getattr(inst, key).copy()
        field.flat[-1] = bad
        with pytest.raises(ValueError, match=rf"^instance field {key} has non-finite entries$"):
            dataclasses.replace(inst, **{key: field})
        d = json.loads(inst_path.read_text())
        (d[key][-1] if key == "M" else d[key])[-1] = bad
        inst_path.write_text(json.dumps(d))
        message = f"instance field {key} has non-finite entries"
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{inst_path}: {message}')}$"):
            load_instance(inst_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), inst_path, message)

    @pytest.mark.parametrize("key", ["net_ref", "z0", "x0", "M", "e", "eta", "y", "seed",
                                     "meta", "meta.l", "meta.noise_target",
                                     "meta.matrix_kind"])
    def test_instance_missing_a_key(self, files, tmp_path, capsys, key):
        net_path, inst_path = files
        d = json.loads(inst_path.read_text())
        *outer, last = key.split(".")
        (d[outer[0]] if outer else d).pop(last)
        inst_path.write_text(json.dumps(d))
        what = "instance meta" if outer else "instance"
        message = f"{what} is missing the required key '{last}'"
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{inst_path}: {message}')}$"):
            load_instance(inst_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), inst_path, message)

    @pytest.mark.parametrize("value, kind", [([1, 2], "list"), ("net", "str"), (3, "int"),
                                             (None, "NoneType")])
    def test_non_object_files(self, files, tmp_path, capsys, value, kind):
        net_path, inst_path = files
        for path, load, what in ((net_path, load_net, "net"),
                                 (inst_path, load_instance, "instance")):
            saved = path.read_text()
            path.write_text(json.dumps(value))
            message = f"{what} must be a JSON object, got {kind}"
            with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
                load(path)
            self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), path, message)
            path.write_text(saved)

    @pytest.mark.parametrize("key, value, message", [
        ("M", [1.0] * 8, "instance field M must be 2-D, got shape (8,)"),
        ("M", [[[1.0] * 8]] * 6, "instance field M must be 2-D, got shape (6, 1, 8)"),
        ("z0", [[0.5, 0.5, 0.5]], "instance field z0 must be 1-D, got shape (1, 3)")])
    def test_instance_fields_of_the_wrong_rank(self, files, tmp_path, capsys, key, value,
                                               message):
        net_path, inst_path = files
        inst = load_instance(inst_path)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            dataclasses.replace(inst, **{key: np.asarray(value)})
        d = json.loads(inst_path.read_text())
        d[key] = value
        inst_path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{inst_path}: {message}')}$"):
            load_instance(inst_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), inst_path, message)

    def test_solve_rejects_a_code_of_another_length(self, files, tmp_path, capsys):
        net_path, inst_path = files
        d = json.loads(inst_path.read_text())
        d["z0"] = d["z0"][:2]   # the net's k is 3
        inst_path.write_text(json.dumps(d))
        assert load_instance(inst_path).z0.shape == (2,)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), inst_path,
                       "instance field z0 has 2 entries, the net's code has k = 3")

    def test_wrong_types_inside_are_one_error_line(self, files, tmp_path, capsys):
        net_path, inst_path = files
        d = json.loads(net_path.read_text())
        d["dims"] = 5
        net_path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(net_path))}: "):
            load_net(net_path)
        self._rejected(capsys, self._runs(net_path, inst_path, tmp_path), net_path, "")


class TestReportResults:
    """`genrec report` reads a run's results.csv: a missing file, or a
    header without a column the long format takes, is one error line."""

    HEADER = ["sweep_value", "trial", "solver", "eps_m", "eps_r", "eps_r_per_pixel"]

    @pytest.mark.parametrize("missing", [["sweep_value"], ["eps_r"], ["trial", "solver"],
                                         HEADER])
    def test_missing_columns_are_named(self, tmp_path, capsys, missing):
        header = [col for col in self.HEADER if col not in missing]
        path = tmp_path / "results.csv"
        path.write_text(",".join(header) + ("\n" + ",".join(["1"] * len(header)) + "\n"
                                            if header else ""))
        message = f"{path}: results.csv lacks the columns {missing}"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            harness.report_long_format(str(path))
        assert cli.main(["report", "--run", str(tmp_path)]) == 2
        assert message in one_error_line(capsys)
        assert not (tmp_path / "report.csv").exists()

    def test_missing_file_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["report", "--run", str(tmp_path)]) == 2
        assert f"no results.csv under {tmp_path}" in one_error_line(capsys)

    def test_complete_header_melts_each_metric(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(",".join(self.HEADER + ["wall_ms"]) + "\n10,0,gd-l2sq,1,2,3,4\n")
        rows = harness.report_long_format(str(path))
        assert [(r["metric"], r["value"]) for r in rows] == [
            ("eps_m", "1"), ("eps_r", "2"), ("eps_r_per_pixel", "3")]


class TestRhoGridSweep:
    """run_verify hands a rho_grid sweep's values to the default k_majority
    entry; a bad value is named as the sweep's, before any check runs."""

    CONFIG = {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.05, 2.0]},
              "checks": None}

    def test_bad_value_named_under_the_sweep(self, monkeypatch, tmp_path, capsys):
        ran = []
        for check in list(harness._CHECK_RUNNERS):   # no check may run
            monkeypatch.setitem(harness._CHECK_RUNNERS, check,
                                lambda params, seed: ran.append(params) or [])
        message = "sweep.values[1] must lie in (0, 1), got 2.0"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ExperimentSpec.from_dict(self.CONFIG)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(self.CONFIG))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert message in one_error_line(capsys)
        assert ran == [] and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("values, message", [
        ([0.0, 0.1], "sweep.values[0] must lie in (0, 1), got 0.0"),
        ([0.1, "0.2"], "sweep.values[1] must be a number, got '0.2'")])
    def test_each_value_is_a_fraction(self, values, message):
        config = dict(self.CONFIG, sweep={"axis": "rho_grid", "values": values})
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ExperimentSpec.from_dict(config)


class TestSolverConfigValues:
    @pytest.mark.parametrize("name", ["rho", "lambda_reg", "init_scale", "step_init",
                                      "tol_step", "tol_primal"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1.0", [1.0], True])
    def test_non_finite_or_non_numeric_rejected_naming_the_field(self, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
            SolverConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["max_iters", "restarts", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, "10", None, math.nan, True])
    def test_non_integer_counts_rejected_naming_the_field(self, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            SolverConfig(**{name: bad})

    def test_negative_seed_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0"):
            SolverConfig(seed=-1)

    def test_numpy_scalars_and_ints_accepted(self):
        cfg = SolverConfig(rho=np.float64(0.5), lambda_reg=1, max_iters=np.int64(7),
                           seed=np.uint64(2**63))
        assert (cfg.rho, cfg.lambda_reg, cfg.max_iters) == (0.5, 1, 7)

    @pytest.mark.parametrize("entry, name", [({"rho": math.nan}, "rho"),
                                             ({"max_iters": 2.5}, "max_iters")])
    def test_cli_solve_config_is_one_error_line(self, tmp_path, capsys, entry, name):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entry))     # json writes NaN as NaN
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "admm-l1", "--config", str(cfg_path)]) == 2
        assert f"{name} must be" in one_error_line(capsys)


class TestMissingConfigKeys:
    SWEEP = {"net": {"dims": [2, 6]},
             "measurement": {"m": 8, "outlier_count": 1},
             "sweep": {"axis": "outliers", "values": [1]},
             "solvers": [{"method": "gd-l2sq", "max_iters": 5}]}

    @staticmethod
    def _without(key):
        cfg = json.loads(json.dumps(TestMissingConfigKeys.SWEEP))
        section, _, field = key.rpartition(".")
        del (cfg[section] if section else cfg)[field]
        return cfg

    @pytest.mark.parametrize("key", ["sweep", "net.dims", "measurement.m"])
    def test_run_sweep_names_the_key(self, key):
        with pytest.raises(ValueError, match=rf"'{key}'"):
            run_sweep(ExperimentSpec.from_dict(self._without(key)))

    @pytest.mark.parametrize("key", ["sweep", "net.dims", "measurement.m"])
    def test_cli_sweep_is_one_error_line(self, tmp_path, capsys, key):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self._without(key)))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert f"'{key}'" in one_error_line(capsys)

    def test_complete_config_runs(self):
        rows, _ = run_sweep(ExperimentSpec.from_dict(self.SWEEP))
        assert len(rows) == 1


def _tiny_sweep(**overrides):
    cfg = {"net": {"dims": [2, 6]}, "measurement": {"outlier_count": 1},
           "sweep": {"axis": "measurements", "values": [8]},
           "solvers": [{"method": "gd-l2sq", "max_iters": 5}]}
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section] = dict(cfg[section], **{field: value})
        else:
            cfg[key] = value
    return cfg


class TestSweepWorkers:
    @pytest.mark.parametrize("workers", [0, -4, True, 1.5, "2"])
    def test_run_sweep_names_workers(self, tmp_path, workers):
        spec = ExperimentSpec.from_dict(_tiny_sweep(output_dir=str(tmp_path / "run")))
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers!r}"):
            run_sweep(spec, workers=workers)
        assert not (tmp_path / "run").exists()   # nothing ran, no run.json echo

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_cli_sweep_is_one_error_line(self, tmp_path, capsys, workers):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep()))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "run"),
                         "--workers", workers]) == 2
        assert f"workers must be an integer >= 1, got {workers}" in one_error_line(capsys)


class TestIntegerConfigValues:
    """int() would truncate these values; they are rejected instead."""

    @pytest.mark.parametrize("overrides, message", [
        ({"sweep": {"axis": "measurements", "values": [8, 10.5]}},
         "each of sweep.values must be an integer, got 10.5"),
        ({"sweep": {"axis": "outliers", "values": [True]}},
         "each of sweep.values must be an integer, got True"),
        ({"trials_per_point": 1.9}, "trials_per_point must be an integer, got 1.9"),
        ({"trials_per_point": True}, "trials_per_point must be an integer, got True"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"net.dims": [2, 6.5]}, "each of net.dims must be an integer, got 6.5"),
        ({"net.seed": 0.5}, "net.seed must be an integer, got 0.5"),
        ({"measurement.m": 8.5, "sweep": {"axis": "outliers", "values": [0, 1]}},
         "measurement.m must be an integer, got 8.5"),
        ({"measurement.outlier_count": 1.5},
         "measurement.outlier_count must be an integer, got 1.5")])
    def test_names_the_key_and_value(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_sweep(ExperimentSpec.from_dict(_tiny_sweep(**overrides)))

    def test_cli_sweep_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(trials_per_point=1.9)))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "trials_per_point must be an integer, got 1.9" in one_error_line(capsys)

    def test_integral_floats_run_as_before(self, tmp_path):
        exact = _tiny_sweep(trials_per_point=2, output_dir=str(tmp_path / "int"))
        floats = _tiny_sweep(trials_per_point=2.0, seed=0.0,
                             sweep={"axis": "measurements", "values": [8.0]},
                             output_dir=str(tmp_path / "float"),
                             **{"measurement.outlier_count": 1.0})
        rows_int, _ = run_sweep(ExperimentSpec.from_dict(exact))
        rows_float, _ = run_sweep(ExperimentSpec.from_dict(floats))
        # The sweep value is reported as given, as before; m is 8 either way.
        assert [r["sweep_value"] for r in rows_float] == [8.0, 8.0]
        drop = ("sweep_value", "wall_ms")
        assert [{k: v for k, v in r.items() if k not in drop} for r in rows_float] == \
            [{k: v for k, v in r.items() if k not in drop} for r in rows_int]
        echo = json.loads((tmp_path / "float" / "run.json").read_text())["config"]
        assert (echo["trials_per_point"], echo["seed"]) == (2, 0)


class TestNoiseTarget:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_library_rejects_naming_noise_target(self, bad):
        with pytest.raises(ValueError, match="noise_target must be a finite number >= 0"):
            MeasurementModel(m=5, n=5, noise_target=bad)
        with pytest.raises(ValueError, match="noise_target"):
            sample_noise(5, bad)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_cli_gen_instance_is_one_error_line(self, tmp_path, capsys, text):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        capsys.readouterr()
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         f"--noise={text}", "--out", str(inst_path)]) == 2
        assert "noise_target" in one_error_line(capsys)
        assert not inst_path.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_sweep_names_noise_target(self, tmp_path, workers):
        spec = ExperimentSpec.from_dict(_tiny_sweep(**{"measurement.noise_target": math.nan},
                                                    output_dir=str(tmp_path / "run")))
        with pytest.raises(ValueError, match="noise_target"):
            run_sweep(spec, workers=workers)
        assert not (tmp_path / "run").exists()   # rejected before any solve

    def test_cli_sweep_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(**{"measurement.noise_target": math.inf})))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "noise_target" in one_error_line(capsys)


class TestUnknownConfigKeys:
    """A misspelt key would otherwise be ignored and its default used."""

    @pytest.mark.parametrize("overrides, key", [
        ({"trials_per_pt": 3}, "trials_per_pt"),
        ({"net": {"dims": [2, 6], "seeed": 1}}, "net.seeed"),
        ({"net": {"dims": [2, 6], "activation": {"kind": "leaky_relu", "hh": 0.2}}},
         "net.activation.hh"),
        ({"measurement.outlier_cout": 3}, "measurement.outlier_cout"),
        ({"sweep": {"axis": "measurements", "values": [8], "value": [9]}}, "sweep.value")])
    def test_from_dict_names_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=rf"unknown config keys \['{key}'\]"):
            ExperimentSpec.from_dict(_tiny_sweep(**overrides))

    def test_non_object_section_rejected(self):
        with pytest.raises(ValueError, match="net must be a JSON object, got 5"):
            ExperimentSpec.from_dict(_tiny_sweep(net=5))

    def test_cli_sweep_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(**{"measurement.outlier_cout": 3})))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "measurement.outlier_cout" in one_error_line(capsys)


class TestSweepConfigTypes:
    """Sweep config values of the wrong type, which float(), bool() or
    iteration would take without a check, are rejected naming the key."""

    LEAKY = {"kind": "leaky_relu"}

    @pytest.mark.parametrize("overrides, message", [
        ({"measurement.noise_target": [1]}, "measurement.noise_target must be a number, got [1]"),
        ({"measurement.noise_target": "x"},
         "measurement.noise_target must be a number, got 'x'"),
        ({"measurement.outlier_signed": "no"},
         "measurement.outlier_signed must be true or false, got 'no'"),
        ({"net.activation": dict(LEAKY, h=[0.2])}, "net.activation.h must be a number, got [0.2]"),
        ({"net.activation": dict(LEAKY, h=True)}, "net.activation.h must be a number, got True"),
        ({"solvers": [5]}, "solvers[0] must be a JSON object, got int"),
        ({"solvers": {"method": "gd-l1sq"}},
         "solvers must be a list of solver configs, got {'method': 'gd-l1sq'}"),
        ({"net.dims": 5}, "net.dims must be a list, got 5"),
        ({"sweep": {"axis": "measurements", "values": 5}},
         "sweep.values must be a nonempty list, got 5"),
        ({"solvers": []}, "sweep needs at least one solver config")])
    def test_named_in_one_error_line(self, tmp_path, capsys, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(ExperimentSpec.from_dict(_tiny_sweep(**overrides)))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(**overrides)))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert message in one_error_line(capsys)
        assert not (tmp_path / "run").exists()   # rejected before any solve

    def test_signed_outliers_and_relu_slopes_still_run(self):
        rows, _ = run_sweep(ExperimentSpec.from_dict(_tiny_sweep(
            **{"measurement.outlier_signed": True,
               "net.activation": {"kind": "relu", "h": 1}})))
        assert len(rows) == 1

    @pytest.mark.parametrize("h", [0.0, 1.5])
    def test_leaky_slope_out_of_range_names_the_key(self, h):
        with pytest.raises(ValueError, match=rf"^net.activation.h must lie in \(0, 1\], got {h}$"):
            run_sweep(ExperimentSpec.from_dict(_tiny_sweep(
                **{"net.activation": dict(self.LEAKY, h=h)})))


class TestSolveDiverged:
    def test_every_restart_diverged_is_one_line(self, monkeypatch, tmp_path, capsys):
        net_path, inst_path, out = (tmp_path / name for name in ("net.json", "inst.json",
                                                                  "out.json"))
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()

        def diverge(*args, **kwargs):
            raise SolverDiverged("all restarts diverged (restart 0: non-finite iterate at "
                                 "iteration 3)")
        monkeypatch.setattr(cli, "multi_restart", diverge)
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "gd-l1sq", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("solver diverged: all restarts diverged (restart 0: "
                                "non-finite iterate at iteration 3)\n")
        assert not out.exists()


class TestSolveConfigFile:
    @pytest.mark.parametrize("text, kind", [("[1]", "list"), ("3", "int"), ('"rho"', "str")])
    def test_non_object_is_one_error_line_naming_the_file(self, tmp_path, capsys, text, kind):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "admm-l1", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path} must be a JSON object, got {kind}" in one_error_line(capsys)


class TestNegativeSeeds:
    """numpy and SeedSequence reject a negative seed without naming it; each
    seed field is rejected by name where it enters."""

    VERIFY = {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.1]}, "checks": []}

    def test_sweep_config_seed(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            ExperimentSpec.from_dict(_tiny_sweep(seed=-1))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(seed=-1)))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "seed must be a non-negative integer, got -1" in one_error_line(capsys)

    def test_verify_config_seed(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            ExperimentSpec.from_dict(dict(self.VERIFY, seed=-1))
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(dict(self.VERIFY, seed=-1)))
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert "seed must be a non-negative integer, got -1" in one_error_line(capsys)

    def test_net_seed(self, tmp_path, capsys):
        with pytest.raises(ValueError,
                           match="^net.seed must be a non-negative integer, got -1$"):
            run_sweep(ExperimentSpec.from_dict(_tiny_sweep(**{"net.seed": -1})))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_tiny_sweep(**{"net.seed": -1})))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "net.seed must be a non-negative integer, got -1" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_seed_flag_of_sweep_and_verify(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_tiny_sweep() if command == "sweep" else self.VERIFY))
        assert cli.main([command, "--config", str(path), "--seed=-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in one_error_line(capsys)

    def test_seed_flag_of_gen_net(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--seed=-1", "--out", str(net_path)]) == 2
        assert "--seed must be a non-negative integer, got -1" in one_error_line(capsys)
        assert not net_path.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--model-seed"])
    def test_seed_flags_of_gen_instance(self, tmp_path, capsys, flag):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        capsys.readouterr()
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6", f"{flag}=-1",
                         "--out", str(inst_path)]) == 2
        assert f"{flag} must be a non-negative integer, got -1" in one_error_line(capsys)
        assert not inst_path.exists()


class TestVerifyCheckEntries:
    """An unknown key in a verify check entry, or a check count or layer
    width that is not an integer in range, is rejected before any check
    runs; a malformed gaussian_full_rank parameter is rejected by name."""

    @staticmethod
    def _verify(*checks):
        return {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.1]},
                "checks": list(checks)}

    @pytest.mark.parametrize("params, message", [
        ({"shapes": [[0, 5]]}, r"shapes\[0\]\[0\] must be an integer >= 1, got 0"),
        ({"shapes": [[5]]}, r"shapes\[0\] must be a \[rows, columns\] pair, got \[5\]"),
        ({"shapes": [[3, 4.5]]}, r"shapes\[0\]\[1\] must be an integer, got 4\.5"),
        ({"shapes": [[3, 4], [2, True]]}, r"shapes\[1\]\[1\] must be an integer, got True"),
        ({"shapes": []}, r"shapes must be a nonempty list, got \[\]"),
        ({"shapes": 5}, r"shapes must be a nonempty list, got 5"),
        ({"trials": 0}, r"trials must be an integer >= 1, got 0"),
        ({"trials": -1}, r"trials must be an integer >= 1, got -1"),
        ({"trials": 2.5}, r"trials must be an integer, got 2\.5")])
    def test_gaussian_full_rank_parameters(self, params, message, tmp_path, capsys):
        config = self._verify(dict(name="gaussian_full_rank", **params))
        with pytest.raises(ValueError, match=rf"^gaussian_full_rank\.{message}$"):
            run_verify(ExperimentSpec.from_dict(config))
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert "gaussian_full_rank." in one_error_line(capsys)

    @pytest.mark.parametrize("name, key, bad", [
        ("leaky_beta_range", "trials", 0), ("leaky_beta_range", "trials", 2.5),
        ("leaky_layer_lift", "pairs", -3), ("relu_path_slope", "cases", 0),
        ("relu_path_slope", "n", 0), ("l0_roundtrip", "cases", 0)])
    def test_counts_rejected_before_any_check_runs(self, monkeypatch, tmp_path, capsys,
                                                   name, key, bad):
        message = (f"must be an integer >= 1, got {bad}" if isinstance(bad, int)
                   else f"must be an integer, got {bad}")
        self._rejected_before_any_check_runs(monkeypatch, tmp_path, capsys, name, key, bad,
                                             f"{key} {message}")

    @pytest.mark.parametrize("name, key, bad, message", [
        ("k_majority", "trials", 0, "trials must be an integer >= 1, got 0"),
        ("norm_bounds", "trials", 2.5, "trials must be an integer, got 2.5"),
        ("norm_bounds", "trials", 0, "trials must be an integer >= 1, got 0"),
        ("norm_bounds", "n", 0, "n must be an integer >= 1, got 0"),
        ("every_r_rows_full_rank", "n", 12.5, "n must be an integer, got 12.5"),
        ("every_r_rows_full_rank", "k", 0, "k must be an integer >= 1, got 0"),
        ("every_r_rows_full_rank", "mid", 0, "mid must be an integer >= 1, got 0"),
        ("every_r_rows_full_rank", "r", -1, "r must be an integer >= 1, got -1"),
        ("every_r_rows_full_rank", "outliers", -1,
         "outliers must be a non-negative integer, got -1"),
        ("every_r_rows_full_rank", "outliers", 1.5, "outliers must be an integer, got 1.5"),
        ("leaky_layer_lift", "dims", [6], "dims must be a list of at least two integers, "
                                          "got [6]"),
        ("leaky_layer_lift", "dims", [6, 0, 48], "dims[1] must be an integer >= 1, got 0"),
        ("k_majority", "dims", 10, "dims must be a list of at least two integers, got 10"),
        ("k_majority", "dims", [10, 40.5], "dims[1] must be an integer, got 40.5")])
    def test_more_counts_rejected_before_any_check_runs(self, monkeypatch, tmp_path, capsys,
                                                        name, key, bad, message):
        self._rejected_before_any_check_runs(monkeypatch, tmp_path, capsys, name, key, bad,
                                             message)

    @pytest.mark.parametrize("name, params, message", [
        ("gaussian_full_rank", {"shapes": [[0, 5]]},
         "shapes[0][0] must be an integer >= 1, got 0"),
        ("norm_bounds", {"h": 0.0}, "h must lie in (0, 1], got 0.0"),
        ("norm_bounds", {"h": 1.5}, "h must lie in (0, 1], got 1.5"),
        ("norm_bounds", {"h": "0.5"}, "h must be a number, got '0.5'"),
        ("leaky_layer_lift", {"h": 0}, "h must lie in (0, 1], got 0.0"),
        ("k_majority", {"h": math.nan}, "h must lie in (0, 1], got nan"),
        ("norm_bounds", {"alpha": 1.5},
         "alpha must give 1 <= n - round(alpha * n) < n, got alpha = 1.5 with n = 200"),
        ("norm_bounds", {"alpha": 0.0},
         "alpha must give 1 <= n - round(alpha * n) < n, got alpha = 0.0 with n = 200"),
        ("norm_bounds", {"alpha": math.inf, "n": 20},
         "alpha must give 1 <= n - round(alpha * n) < n, got alpha = inf with n = 20"),
        ("relu_path_slope", {"tol": -1.0}, "tol must be a finite number > 0, got -1.0"),
        ("relu_path_slope", {"tol": 0}, "tol must be a finite number > 0, got 0.0"),
        ("relu_path_slope", {"tol": math.inf}, "tol must be a finite number > 0, got inf"),
        ("k_majority", {"rho_grid": [2.0]}, "rho_grid[0] must lie in (0, 1), got 2.0"),
        ("k_majority", {"rho_grid": []}, "rho_grid must be a nonempty list, got []"),
        ("k_majority", {"rho_grid": [0.1, True]}, "rho_grid[1] must be a number, got True"),
        ("norm_bounds", {"rho_grid": [0.1, 0.0]}, "rho_grid[1] must lie in (0, 1), got 0.0"),
        ("k_majority", {"K_mode": "best"},
         "K_mode must be one of ['random', 'worst_by_magnitude'], got 'best'"),
        ("k_majority", {"require_max_rho": math.inf}, "require_max_rho must be finite, got inf"),
        ("k_majority", {"require_max_rho": None}, "require_max_rho must be a number, got None"),
        ("every_r_rows_full_rank", {"n": 3, "k": 1, "outliers": 2},
         "r must lie in [k, n] = [1, 3], got -2 (n - (2 * outliers + 1) with outliers = 2)"),
        ("every_r_rows_full_rank", {"n": 12, "k": 3, "r": 2},
         "r must lie in [k, n] = [3, 12], got 2"),
        ("every_r_rows_full_rank", {"n": 12, "k": 3, "r": 13},
         "r must lie in [k, n] = [3, 12], got 13"),
        ("every_r_rows_full_rank", {"matrix": [1.0, 2.0]}, "matrix must be 2-D, got shape (2,)"),
        ("l0_roundtrip", {"required": "no"}, "required must be true or false, got 'no'"),
        ("k_majority", {"required": "false"}, "required must be true or false, got 'false'"),
        ("k_majority", {"required": 0}, "required must be true or false, got 0"),
        ("gaussian_full_rank", {"required": 1}, "required must be true or false, got 1"),
        ("norm_bounds", {"required": None}, "required must be true or false, got None"),
        ("relu_path_slope", {"required": []}, "required must be true or false, got []")])
    def test_parameters_rejected_before_any_check_runs(self, monkeypatch, tmp_path, capsys,
                                                       name, params, message):
        self._rejected_before_any_check_runs(monkeypatch, tmp_path, capsys, name, params, None,
                                             message)

    def test_every_r_rows_needs_n_and_k_or_a_matrix(self):
        config = self._verify({"name": "every_r_rows_full_rank", "k": 3})
        with pytest.raises(ValueError, match=r"^every_r_rows_full_rank\.n and "
                                             r"every_r_rows_full_rank\.k are required without "
                                             r"every_r_rows_full_rank\.matrix$"):
            run_verify(ExperimentSpec.from_dict(config))

    def _rejected_before_any_check_runs(self, monkeypatch, tmp_path, capsys, name, key, bad,
                                        message):
        """`{key: bad}` (or the dict `key` of several keys, with bad None)
        in a verify check entry fails with `name.message` through the
        library and the CLI before any check runs, and the check itself,
        given its default entry, rejects it too."""
        params = key if isinstance(key, dict) else {key: bad}
        ran, runners = [], dict(harness._CHECK_RUNNERS)
        for check in runners:   # no check may run
            monkeypatch.setitem(harness._CHECK_RUNNERS, check,
                                lambda params, seed: ran.append(params) or [])
        config = self._verify({"name": "l0_roundtrip", "cases": 1}, {"name": name, **params})
        with pytest.raises(ValueError, match=rf"^{name}\.{re.escape(message)}$"):
            run_verify(ExperimentSpec.from_dict(config))
        [entry] = [e for e in default_checks() if e["name"] == name]
        with pytest.raises(ValueError, match=rf"^{name}\.{re.escape(message)}$"):
            runners[name](dict(entry, **params), 5)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert f"{name}.{message}" in one_error_line(capsys)
        assert ran == [] and not (tmp_path / "run").exists()

    def test_unknown_key_named_before_any_check_runs(self, tmp_path, capsys):
        config = self._verify({"name": "l0_roundtrip", "cases": 1},
                              {"name": "gaussian_full_rank", "trails": 3})
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = one_error_line(capsys)
        assert "unknown config keys ['gaussian_full_rank.trails']" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("entry", default_checks(), ids=lambda e: e["name"])
    def test_each_check_rejects_a_key_it_does_not_take(self, entry):
        with pytest.raises(ValueError, match=rf"\['{entry['name']}\.seed'\]"):
            run_verify(ExperimentSpec.from_dict(self._verify(dict(entry, seed=1))))


class TestVerifyConfigTypes:
    """A verify config's checks that is not a list, which would be iterated
    by character, or an output_dir that is not a path string, which would
    fail only after every check has run, is rejected naming the key before
    any check runs."""

    VERIFY = {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.1]},
              "checks": [{"name": "l0_roundtrip", "cases": 1}]}

    @pytest.mark.parametrize("overrides, message", [
        ({"checks": 5}, "checks must be a list, got 5"),
        ({"checks": "l0_roundtrip"}, "checks must be a list, got 'l0_roundtrip'"),
        ({"output_dir": 5}, "output_dir must be a path string, got 5")])
    def test_named_in_one_error_line(self, monkeypatch, tmp_path, capsys, overrides, message):
        ran = []
        for check in list(harness._CHECK_RUNNERS):   # no check may run
            monkeypatch.setitem(harness._CHECK_RUNNERS, check,
                                lambda params, seed: ran.append(params) or [])
        config = dict(self.VERIFY, **overrides)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ExperimentSpec.from_dict(config)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert message in one_error_line(capsys)
        assert ran == []


class TestCheckDefaults:
    """A bare check entry, {"name": ...} plus n and k for
    every_r_rows_full_rank, runs its check with these parameters, which are
    not the default suite's."""

    DEFAULTS = {
        "gaussian_full_rank": {"trials": 20, "shapes": [[12, 7]]},
        "every_r_rows_full_rank": {"n": 12, "k": 3, "mid": 3, "outliers": 2, "r": 7},
        "leaky_beta_range": {"trials": 10_000},
        "leaky_layer_lift": {"dims": [6, 24, 48], "h": 0.2, "pairs": 50},
        "k_majority": {"K_mode": "worst_by_magnitude", "require_max_rho": 0.0,
                       "dims": [10, 40, 160], "h": 0.2, "trials": 200,
                       "rho_grid": [0.02, 0.05, 0.1]},
        "relu_path_slope": {"tol": 1e-9, "n": 50, "cases": 200},
        "norm_bounds": {"n": 200, "alpha": 0.5, "h": 0.5, "trials": 2000},
        "l0_roundtrip": {"cases": 12},
    }
    BARE = {"every_r_rows_full_rank": {"n": 12, "k": 3}}

    @staticmethod
    def _run(entry):
        results = harness._CHECK_RUNNERS[entry["name"]](entry, 3)
        return [(report.to_dict(), required) for report, required in results]

    def test_every_check_has_a_case(self):
        assert sorted(self.DEFAULTS) == sorted(e["name"] for e in default_checks())

    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_bare_entry_runs_the_defaults(self, name):
        bare = {"name": name, **self.BARE.get(name, {})}
        assert self._run(bare) == self._run({"name": name, **self.DEFAULTS[name]})

    def test_defaults_are_not_the_suites(self):
        [(report, _)] = self._run({"name": "gaussian_full_rank"})
        assert report["params"]["shapes"] == [[12, 7]]
        assert report["params"]["trials_per_shape"] == 20
        required = [req for _, req in self._run({"name": "k_majority", "trials": 5})]
        assert required == [False, False, False]   # require_max_rho 0.0, not 0.02


def _strings(rows):
    """A net or instance array field with its numbers written as strings."""
    return [_strings(r) for r in rows] if isinstance(rows, list) else str(rows)


def _booleans(rows):
    """A net or instance array field with its numbers written as true/false."""
    return [_booleans(r) for r in rows] if isinstance(rows, list) else rows > 0


class TestFileValueTypes:
    """Net and instance files read their seeds, counts, widths, numbers and
    arrays through the converters that read configs: a value that int(),
    float() or a float64 conversion would take is rejected naming the file
    and the key, before anything is written."""

    @pytest.fixture
    def files(self, tmp_path):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        assert cli.main(["gen-net", "--dims", "2,6", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--outliers", "1", "--out", str(inst_path)]) == 0
        return net_path, inst_path

    @staticmethod
    def _edit(path, key, change):
        """Replace the value at the dotted `key` of the JSON file at `path`
        by change(value)."""
        d = json.loads(path.read_text())
        *outer, last = key.split(".")
        section = functools.reduce(operator.getitem, outer, d)
        index = int(last) if isinstance(section, list) else last
        section[index] = change(section[index])
        path.write_text(json.dumps(d))
        return d

    def _rejected(self, capsys, tmp_path, files, bad, message):
        net_path, inst_path = files
        load, from_dict = ((load_net, net_from_dict) if bad == net_path
                           else (load_instance, instance_from_dict))
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            from_dict(json.loads(bad.read_text()))
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{bad}: {message}')}$"):
            load(bad)
        out = tmp_path / "out.json"
        runs = [["solve", "--net", str(net_path), "--instance", str(inst_path),
                 "--method", "gd-l2sq", "--out", str(out)]]
        if bad == net_path:
            runs.append(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(out)])
        for argv in runs:
            capsys.readouterr()
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"genrec: error: {bad}: {message}\n", argv
            assert captured.out == "" and not out.exists(), argv

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "7", "seed must be an integer, got '7'"),
        ("seed", 7.9, "seed must be an integer, got 7.9"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("dims", [2, 6.5], "dims[1] must be an integer, got 6.5")])
    def test_net_values(self, files, tmp_path, capsys, key, value, message):
        """int() would load the seeds as 7, 7 and 1."""
        self._edit(files[0], key, lambda _: value)
        self._rejected(capsys, tmp_path, files, files[0], message)

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "9", "seed must be an integer, got '9'"),
        ("seed", 9.5, "seed must be an integer, got 9.5"),
        ("meta.l", True, "meta.l must be an integer, got True"),
        ("meta.noise_target", "0.1", "meta.noise_target must be a number, got '0.1'"),
        ("meta.seeds.model", -1, "meta.seeds.model must be a non-negative integer, got -1")])
    def test_instance_values(self, files, tmp_path, capsys, key, value, message):
        """int() and float() would load meta.l as 1 (the instance's count),
        the seed as 9 and the noise target as 0.1."""
        self._edit(files[1], key, lambda _: value)
        self._rejected(capsys, tmp_path, files, files[1], message)

    @pytest.mark.parametrize("change, what", [(_strings, "strings"), (_booleans, "true/false")])
    @pytest.mark.parametrize("file, key", [
        (0, "weights.0"), (0, "biases.0"), (1, "z0"), (1, "x0"), (1, "M"), (1, "e"),
        (1, "eta"), (1, "y")])
    def test_array_entries_that_are_not_numbers(self, files, tmp_path, capsys, file, key,
                                                change, what):
        """A float64 conversion would read "1.0" as 1.0 and true as 1.0."""
        self._edit(files[file], key, change)
        name = key.replace(".0", "[0]")
        self._rejected(capsys, tmp_path, files, files[file],
                       f"{name} must hold only numbers, got {what}")

    def test_integral_float_seed_and_round_trips(self, files, tmp_path):
        net_path, inst_path = files
        for path, load, save in ((net_path, load_net, save_net),
                                 (inst_path, load_instance, save_instance)):
            again = tmp_path / f"again-{path.name}"
            save(load(path), again)
            assert again.read_bytes() == path.read_bytes()
        assert load_net(net_path).seed == 0
        self._edit(net_path, "seed", lambda _: 7.0)
        assert load_net(net_path).seed == 7
        self._edit(inst_path, "seed", lambda _: 0.0)
        assert load_instance(inst_path).seed == 0


class TestOutlierRangeEntries:
    """float() would read true as 1.0 and "5000" as 5000.0; each entry must
    be a number."""

    @pytest.mark.parametrize("value_range", [[True, 2], ["5000", "10000"]])
    def test_measurement_model(self, value_range):
        with pytest.raises(ValueError, match=re.escape(
                f"outlier range must be two numbers (lo, hi), got {value_range!r}")):
            MeasurementModel(m=8, n=6, outlier_count=1, outlier_range=value_range)

    @pytest.mark.parametrize("value_range", [[True, 2], ["5000", "10000"]])
    def test_sweep_config(self, tmp_path, capsys, value_range):
        config = _tiny_sweep(**{"measurement.outlier_range": value_range})
        message = f"outlier range must be two numbers (lo, hi), got {value_range!r}"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            run_sweep(ExperimentSpec.from_dict(config))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert one_error_line(capsys) == f"genrec: error: {message}\n"
        assert not (tmp_path / "run").exists()


class TestSolverEntries:
    """A sweep config's solver entry that SolverConfig rejects is named by
    its index; `solve --config` reads one entry and keeps its message."""

    @pytest.mark.parametrize("solvers, message", [
        ([{"method": "admm-l1"}, {"method": "gd-l1sq", "max_iters": 0}],
         "solvers[1]: max_iters and restarts must be >= 1"),
        ([{"method": "gd-l2sq", "rhoo": 1}], "solvers[0]: unknown solver config keys ['rhoo']")])
    def test_sweep_config_names_the_entry(self, tmp_path, capsys, solvers, message):
        config = _tiny_sweep(solvers=solvers)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ExperimentSpec.from_dict(config)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert one_error_line(capsys) == f"genrec: error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_solve_config_keeps_its_message(self, tmp_path, capsys):
        net_path, inst_path = tmp_path / "net.json", tmp_path / "inst.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iters": 0}))
        assert cli.main(["gen-net", "--dims", "3,8", "--out", str(net_path)]) == 0
        assert cli.main(["gen-instance", "--net", str(net_path), "--m", "6",
                         "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", "--net", str(net_path), "--instance", str(inst_path),
                         "--method", "admm-l1", "--config", str(cfg_path)]) == 2
        assert one_error_line(capsys) == "genrec: error: max_iters and restarts must be >= 1\n"
