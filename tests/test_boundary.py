"""Bad input is rejected where it enters: a ValueError from the library, one
`genrec: error:` line and exit status 2 from the CLI."""

import json
import math

import pytest

from genrec import cli
from genrec.generator import (Activation, GeneratorNetwork, load_net,
                              random_gaussian_net)
from genrec.harness import ExperimentSpec, run_sweep
from genrec.measurement import MeasurementModel, load_instance, sample_outliers


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
