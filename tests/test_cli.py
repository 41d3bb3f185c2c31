"""CLI exit codes, formats, idempotence, and the end-to-end desk pipeline."""

import csv
import dataclasses
import gzip
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurotopo
from neurotopo import centrality
from neurotopo.centrality import measure_all, read_measures_csv, write_measures_csv
from neurotopo.cli import main
from neurotopo.errors import NumericalError
from neurotopo.datagen import write_synthetic_benchmark
from neurotopo.model import LayeredNetwork, save_model
from neurotopo.trainer import init_network


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    write_synthetic_benchmark(path, train_count=200, test_count=50, seed=0)
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("models")
    code = main(
        [
            "train",
            "--data", str(data_dir),
            "--count", "3",
            "--weight-seed-base", "0",
            "--data-seed", "7",
            "--arch", "784,8,6,10",
            "--epochs", "1",
            "--lr", "0.01",
            "--batch", "50",
            "--init-range", "0.9",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def measures_csv(tmp_path_factory, trained_dir):
    out = tmp_path_factory.mktemp("csv") / "measures.csv"
    code = main(["measure", "--models", str(trained_dir), "--measures", "s,bc,sg", "--out", str(out)])
    assert code == 0
    return out


class TestTrainCommand:
    def test_manifest_and_models_written(self, trained_dir):
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert len(manifest) == 3
        assert all((trained_dir / e["model_path"]).exists() for e in manifest)
        assert json.loads((trained_dir / "run.json").read_text())["parameters"]["workers"] == 1

    def test_missing_data_dir_exits_3(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"), "--count", "1", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_rerun_resumes_without_retraining(self, data_dir, trained_dir):
        before = (trained_dir / "model_seed0.json").read_bytes()
        code = main(
            [
                "train",
                "--data", str(data_dir),
                "--count", "3",
                "--data-seed", "7",
                "--arch", "784,8,6,10",
                "--epochs", "1",
                "--batch", "50",
                "--out", str(trained_dir),
            ]
        )
        assert code == 0
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert all(e["status"] == "cached" for e in manifest)
        assert (trained_dir / "model_seed0.json").read_bytes() == before

    def test_rerun_with_another_arch_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "models"
        shutil.copytree(trained_dir, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = main(["train", "--data", str(data_dir), "--count", "3", "--data-seed", "7",
                     "--arch", "784,32,16,10", "--epochs", "3", "--batch", "50", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "model_seed0.json" in err and "cached model has arch (784, 8, 6, 10)" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rerun_over_a_malformed_model_exits_3(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "models"
        shutil.copytree(trained_dir, out)
        (out / "model_seed1.json").write_text('{"notes": "kept by hand"}\n')
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = main(["train", "--data", str(data_dir), "--count", "3", "--data-seed", "7",
                     "--arch", "784,8,6,10", "--epochs", "1", "--batch", "50", "--out", str(out)])
        assert code == 3
        assert "model_seed1.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_forged_idx_header_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_synthetic_benchmark(data, train_count=4, test_count=2, seed=0)
        images = data / "train-images-idx3-ubyte"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0xFFFFFFFF, 28, 28) + bytes(784))
        code = main(["train", "--data", str(data), "--count", "1", "--arch", "784,4,10",
                     "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "train-images-idx3-ubyte: truncated while reading pixel data" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
         ("--init-range", "nan", "init_half_range")],
    )
    def test_non_finite_hyperparameter_exits_2(self, data_dir, tmp_path, capsys, flag, value, name):
        code = main(["train", "--data", str(data_dir), "--count", "1", "--arch", "784,4,10",
                     "--epochs", "1", flag, value, "--out", str(tmp_path / "o")])
        assert code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--weight-seed-base", "-1", "weight seeds must be >= 0, got -1"),
         ("--data-seed", "-3", "data seed must be >= 0, got -3")],
    )
    def test_negative_seed_exits_2(self, data_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        code = main(["train", "--data", str(data_dir), "--count", "2", "--arch", "784,4,10",
                     "--epochs", "1", flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_gzip_idx_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_synthetic_benchmark(data, train_count=4, test_count=2, seed=0)
        plain = data / "train-labels-idx1-ubyte"
        (data / "train-labels-idx1-ubyte.gz").write_bytes(gzip.compress(plain.read_bytes())[:-4])
        plain.unlink()
        code = main(["train", "--data", str(data), "--count", "1", "--arch", "784,4,10",
                     "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "train-labels-idx1-ubyte.gz: not a valid gzip file" in capsys.readouterr().err

    def test_bad_arch_exits_2(self, data_dir, tmp_path):
        code = main(["train", "--data", str(data_dir), "--count", "1", "--arch", "784,oops",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--train-limit", "-195", "--train-limit"), ("--test-limit", "-3", "--test-limit"),
         ("--workers", "-2", "workers must be >= 1"), ("--workers", "0", "workers must be >= 1"),
         ("--train-limit", "201", "cannot take 201 samples from 200")],
    )
    def test_bad_count_exits_2(self, data_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        code = main(["train", "--data", str(data_dir), "--count", "1", "--arch", "784,4,10",
                     "--epochs", "1", flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "run.json").exists()


class TestMeasureCommand:
    def test_csv_shape(self, measures_csv):
        lines = measures_csv.read_text().strip().splitlines()
        assert lines[0] == "network_id,layer,neuron,s,bc,sg"
        assert len(lines) == 1 + 3 * 14  # 3 nets x (8 + 6 hidden)

    def test_unknown_measure_exits_2(self, trained_dir, tmp_path, capsys):
        code = main(["measure", "--models", str(trained_dir), "--measures", "s,zzz",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "cfc" in capsys.readouterr().err  # lists the valid ids

    def test_repeated_measure_exits_2(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["measure", "--models", str(trained_dir), "--measures", "s,bc,s", "--out", str(out)])
        assert code == 2
        assert "repeated measures" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_3_with_one_error_line(self, trained_dir, tmp_path, capsys):
        out = tmp_path / ("x" * 300 + ".csv")
        code = main(["measure", "--models", str(trained_dir), "--measures", "s", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "File name too long" in err[0]

    def test_cfc_mode_option_is_gone(self, trained_dir, tmp_path):
        # cfc takes the signed weights as conductances; no option selects another mode
        out = tmp_path / "m.csv"
        code = main(["measure", "--models", str(trained_dir), "--cfc-mode", "raw", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_one_failing_network_keeps_the_others(self, trained_dir, tmp_path, monkeypatch, capsys):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_seed0.json", "model_seed1.json"):
            shutil.copy(trained_dir / name, models / name)
        inner = centrality.compute_measure
        calls = []

        def fails_on_second_model(measure_id, view, **kwargs):
            if measure_id == "s":
                calls.append(view)
                if len(calls) == 2:
                    raise NumericalError("s: forced failure")
            return inner(measure_id, view, **kwargs)

        monkeypatch.setattr(centrality, "compute_measure", fails_on_second_model)
        out = tmp_path / "m.csv"
        code = main(["measure", "--models", str(models), "--measures", "s,bc", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "model_seed1.json" in err and "s: forced failure" in err
        tables = read_measures_csv(out)
        assert [t.network_id for t in tables] == ["seed0", "seed1"]
        assert not np.isnan(tables[0].values).any()
        assert np.isnan(tables[1].values).all() and tables[1].values.shape == (14, 2)
        record = json.loads((tmp_path / "m.csv.run.json").read_text())
        assert [Path(f["model"]).name for f in record["failed"]] == ["model_seed1.json"]

    def test_ill_conditioned_network_exits_1_with_a_nan_row(self, trained_dir, tmp_path, capsys):
        # three two-edge paths of conductance 1/2, 1/2 and -1 + δ/2 between the outer
        # nodes: the grounded Schur block is nearly singular, so cfc raises
        models = tmp_path / "models"
        models.mkdir()
        shutil.copy(trained_dir / "model_seed0.json", models / "model_seed0.json")
        w = -2.0 + 1e-13
        meta = {"seed": 9, "dataset_id": "x", "epochs": 0, "train_acc": 0.1, "test_acc": 0.1}
        save_model(LayeredNetwork(arch=(1, 3, 1), weights=([[1.0, 1.0, w]], [[1.0], [1.0], [w]]), meta=meta),
                   models / "model_seed9.json")
        out = tmp_path / "m.csv"
        assert main(["measure", "--models", str(models), "--measures", "s,cfc", "--out", str(out)]) == 1
        assert "model_seed9.json: cfc: the grounded inverse is ill-conditioned" in capsys.readouterr().err
        tables = read_measures_csv(out)
        assert [t.network_id for t in tables] == ["seed0", "seed9"]
        assert not np.isnan(tables[0].values).any() and np.isnan(tables[1].values).all()
        assert json.loads((tmp_path / "m.csv.run.json").read_text())["nan_counts"] == {"s": 3, "cfc": 3}

    def test_run_record_counts_nan_cells(self, tmp_path):
        # hidden neuron 2 of layer 1 has only negative synapses: isolated in the positive view
        w = [np.array(x) for x in init_network((12, 6, 5, 3), seed=2).weights]
        w[0][:, 2] = -np.abs(w[0][:, 2])
        w[1][2, :] = -np.abs(w[1][2, :])
        meta = {"seed": 2, "dataset_id": "x", "epochs": 0, "train_acc": 0.1, "test_acc": 0.1}
        models = tmp_path / "models"
        models.mkdir()
        save_model(LayeredNetwork(arch=(12, 6, 5, 3), weights=w, meta=meta), models / "model_seed2.json")
        out = tmp_path / "m.csv"
        assert main(["measure", "--models", str(models), "--measures", "all", "--out", str(out)]) == 0
        counts = json.loads((tmp_path / "m.csv.run.json").read_text())["nan_counts"]
        assert counts == {"s": 0, "snn": 0, "so": 1, "sg": 0, "mc": 0, "bc": 0, "hc": 0, "cfc": 0}

    def test_duplicate_network_id_names_both_models(self, trained_dir, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        shutil.copy(trained_dir / "model_seed0.json", models / "model_seed0.json")
        shutil.copy(trained_dir / "model_seed0.json", models / "model_seed5.json")
        code = main(["measure", "--models", str(models), "--measures", "s", "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'seed0' appears in more than one table" in err
        assert "model_seed0.json" in err and "model_seed5.json" in err

    def test_string_weight_exits_3(self, trained_dir, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        doc = json.loads((trained_dir / "model_seed0.json").read_text())
        doc["weights"][1][0] = "a"
        (models / "model_seed0.json").write_text(json.dumps(doc))
        code = main(["measure", "--models", str(models), "--measures", "s", "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert "model_seed0.json: weights[1]" in capsys.readouterr().err

    def test_boolean_weight_exits_3(self, trained_dir, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        doc = json.loads((trained_dir / "model_seed0.json").read_text())
        doc["weights"][0][3] = True
        (models / "model_seed0.json").write_text(json.dumps(doc))
        code = main(["measure", "--models", str(models), "--measures", "s", "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert "model_seed0.json: weights[0]: expected JSON floats, got True" in capsys.readouterr().err

    def test_run_record_in_the_models_dir_is_no_model(self, trained_dir, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(trained_dir, models)
        out = models / "measures.csv"
        for _ in range(2):
            assert main(["measure", "--models", str(models), "--measures", "s", "--out", str(out)]) == 0
        assert [t.network_id for t in read_measures_csv(out)] == ["seed0", "seed1", "seed2"]

    def test_only_model_seed_files_are_models(self, trained_dir, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(trained_dir, models)
        out = models / "desc.csv"
        assert main(["measure", "--models", str(models), "--measures", "s,bc,sg", "--out", str(out)]) == 0
        before = out.read_bytes()
        vocab = models / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(out), "--k", "3", "--restarts", "2",
                     "--out", str(vocab)]) == 0
        assert main(["compare", "--vocab-a", str(vocab), "--vocab-b", str(vocab), "--population", str(out),
                     "--out", str(models / "jsd.json")]) == 0
        for name in ("model_seed01.json", "model_seed-1.json", "model_seed2.json.bak"):
            shutil.copy(models / "vocab.json", models / name)
        assert main(["measure", "--models", str(models), "--measures", "s,bc,sg", "--out", str(out)]) == 0
        assert out.read_bytes() == before

    def test_models_are_read_in_seed_order(self, trained_dir, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for seed in (10, 9, 2):
            doc = json.loads((trained_dir / "model_seed0.json").read_text())
            doc["meta"]["seed"] = seed
            (models / f"model_seed{seed}.json").write_text(json.dumps(doc))
        out = tmp_path / "m.csv"
        assert main(["measure", "--models", str(models), "--measures", "s", "--out", str(out)]) == 0
        assert [t.network_id for t in read_measures_csv(out)] == ["seed2", "seed9", "seed10"]

    def test_empty_models_dir_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["measure", "--models", str(empty), "--out", str(tmp_path / "m.csv")])
        assert code == 3


class TestVocabCommands:
    def test_build_fixed_k(self, measures_csv, tmp_path):
        out = tmp_path / "vocab.json"
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 3
        assert len(doc["centroids"]) == 3
        s = [c[0] for c in doc["centroids"]]
        assert s == sorted(s)

    def test_build_elbow_writes_curve(self, measures_csv, tmp_path):
        out = tmp_path / "vocab.json"
        curve = tmp_path / "curve.csv"
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), "--elbow", "2", "5",
                     "--restarts", "3", "--curve-out", str(curve), "--out", str(out)])
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "k,inertia"
        assert len(lines) == 1 + 4

    def test_build_elbow_default_curve_path(self, measures_csv, tmp_path):
        out = tmp_path / "vocab.json"
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), "--elbow", "2", "4",
                     "--restarts", "3", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "vocab.json.curve.csv").exists()

    def test_k_out_of_range_exits_2(self, measures_csv, tmp_path):
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "9999",
                     "--out", str(tmp_path / "v.json")])
        assert code == 2

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_restarts_below_one_exits_2(self, measures_csv, tmp_path, capsys, restarts):
        out = tmp_path / "v.json"
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", restarts, "--out", str(out)])
        assert code == 2
        assert "restarts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--k", "3"], ["--elbow", "2", "4"]])
    def test_negative_seed_exits_2(self, measures_csv, tmp_path, capsys, mode):
        out = tmp_path / "v.json"
        code = main(["vocab", "build", "--measures-csv", str(measures_csv), *mode, "--restarts", "2",
                     "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layer, neuron", [("1", "1_0"), ("100000000000000000000", "1"), ("1", str(2**63))])
    def test_bad_int_cell_exits_3(self, tmp_path, capsys, layer, neuron):
        # 1_0 is no plain decimal; the others are, but no int64 holds them
        path = tmp_path / "desc.csv"
        path.write_text(f"network_id,layer,neuron,s,bc\na,1,0,0.25,0.5\na,{layer},{neuron},0.5,0.25\n")
        code = main(["vocab", "build", "--measures-csv", str(path), "--k", "2",
                     "--out", str(tmp_path / "v.json")])
        assert code == 3
        cell = neuron if layer == "1" else layer
        assert f"desc.csv:3: '{cell}' is not a plain decimal integer" in capsys.readouterr().err

    def test_repeated_measure_columns_exit_3(self, tmp_path, capsys):
        path = tmp_path / "desc.csv"
        path.write_text("network_id,layer,neuron,s,s\na,1,0,0.25,0.25\na,1,1,0.5,0.5\n")
        out = tmp_path / "v.json"
        assert main(["vocab", "build", "--measures-csv", str(path), "--k", "2", "--out", str(out)]) == 3
        assert "desc.csv: bad measure columns" in capsys.readouterr().err
        assert not out.exists()

    def test_build_records_convergence(self, measures_csv, tmp_path):
        out = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--elbow", "2", "5",
                     "--restarts", "3", "--out", str(out)]) == 0
        record = json.loads((tmp_path / "vocab.json.run.json").read_text())
        elbow = record["elbow"]
        k_star = record["parameters"]["k"]
        assert elbow["k_star"] == k_star
        assert isinstance(elbow["low_confidence"], bool)
        assert sorted(elbow["max_iter_hits"]) == ["2", "3", "4", "5"]
        assert all(h == 0 for h in elbow["max_iter_hits"].values())
        assert record["max_iter_hits"] == {str(k_star): 0}
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(out)]) == 0
        record = json.loads((tmp_path / "vocab.json.run.json").read_text())
        assert "elbow" not in record
        assert record["max_iter_hits"] == {"3": 0}

    def test_assign(self, measures_csv, trained_dir, tmp_path):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "5", "--out", str(vocab)]) == 0
        occ = tmp_path / "occ.csv"
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--manifest", str(trained_dir / "manifest.json"), "--out", str(occ)])
        assert code == 0
        lines = occ.read_text().strip().splitlines()
        assert lines[0] == "network_id,test_acc,f1,f2,f3"
        assert len(lines) == 4
        freqs = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
        np.testing.assert_allclose(freqs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "normalizers, centroid",
        [("[1.0]", "[NaN, 0.0, 0.0]"), ("[1.0]", "[0.0, 0.0, 0.0]"), ("[1.0, 0.0, 1.0]", "[0.0, 0.0, 0.0]"),
         ('["1.0", true, 1.0]', "[0.0, 0.0, 0.0]"), ("[1.0, 1.0, 1.0]", '["0.0", 0.0, 0.0]')],
    )
    def test_assign_malformed_vocabulary_exits_3(self, measures_csv, tmp_path, capsys, normalizers, centroid):
        vocab = tmp_path / "bad_vocab.json"
        vocab.write_text(
            '{"measures": ["s", "bc", "sg"], "normalizers": %s, "k": 2, '
            '"centroids": [%s, [1.0, 1.0, 1.0]], "inertia": 0.0, "seed": 0}' % (normalizers, centroid)
        )
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--out", str(tmp_path / "occ.csv")])
        assert code == 3
        assert "bad_vocab.json" in capsys.readouterr().err
        assert not (tmp_path / "occ.csv").exists()

    @pytest.mark.parametrize("measures", ['["zz", "bc"]', '["s", "s"]'])
    def test_assign_bad_measure_list_exits_3(self, measures_csv, tmp_path, capsys, measures):
        vocab = tmp_path / "bad_vocab.json"
        vocab.write_text(
            '{"measures": %s, "normalizers": [1.0, 1.0], "k": 2, '
            '"centroids": [[0.0, 0.0], [1.0, 1.0]], "inertia": 0.0, "seed": 0}' % measures
        )
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--out", str(tmp_path / "occ.csv")])
        assert code == 3
        assert "bad_vocab.json" in capsys.readouterr().err
        assert not (tmp_path / "occ.csv").exists()

    @pytest.mark.parametrize(
        "manifest",
        ['{"seed": 1}', '[{"seed": 1}]', '[{"seed": "x", "test_acc": 0.5}]', '[{"seed": 1, "test_acc": "high"}]'],
    )
    def test_malformed_manifest_exits_3(self, measures_csv, tmp_path, capsys, manifest):
        path = tmp_path / "m.json"
        path.write_text(manifest)
        code = main(["plot", "--what", "scatter", "--measures-csv", str(measures_csv), "--measure", "s",
                     "--manifest", str(path), "--out-csv", str(tmp_path / "scatter.csv")])
        assert code == 3
        assert "m.json" in capsys.readouterr().err

    def test_assign_repeated_manifest_seed_exits_3(self, measures_csv, trained_dir, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest + [dict(manifest[0], test_acc=0.0)]))
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--manifest", str(path), "--out", str(tmp_path / "occ.csv")])
        assert code == 3
        assert f"manifest.json: seed {manifest[0]['seed']} appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "occ.csv").exists()

    @pytest.mark.parametrize("command", ["assign", "compare"])
    def test_measure_mismatch_exits_2_naming_csv_and_vocabulary(self, measures_csv, trained_dir, tmp_path, capsys,
                                                                command):
        vocab = tmp_path / "vocab_full.json"
        sub = tmp_path / "sub.csv"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        assert main(["measure", "--models", str(trained_dir), "--measures", "s", "--out", str(sub)]) == 0
        out = tmp_path / "out"
        argv = (["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(sub)] if command == "assign" else
                ["compare", "--vocab-a", str(vocab), "--vocab-b", str(vocab), "--population", str(sub)])
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{sub}, {vocab}: table for 'seed0' has no column 'bc'" in capsys.readouterr().err
        assert not out.exists()


class TestUndefinedNetworks:
    """A network whose every neuron is NaN, as measure writes a failed one."""

    @pytest.fixture
    def study(self, measures_csv, tmp_path):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        tables = read_measures_csv(measures_csv)
        undefined = [dataclasses.replace(t, values=np.full_like(t.values, np.nan)) for t in tables]
        one = tmp_path / "one.csv"
        write_measures_csv([tables[0], undefined[1], tables[2]], one)
        every = tmp_path / "every.csv"
        write_measures_csv(undefined, every)
        return vocab, one, every

    def test_assign_leaves_it_out(self, study, tmp_path, capsys):
        vocab, one, _ = study
        occ = tmp_path / "occ.csv"
        assert main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(one),
                     "--out", str(occ)]) == 1
        assert "'seed1': every hidden neuron is undefined" in capsys.readouterr().err
        records = neurotopo.bon.read_occurrence_csv(occ)
        assert [r.network_id for r in records] == ["seed0", "seed2"]
        assert json.loads((tmp_path / "occ.csv.run.json").read_text())["failed"] == ["seed1"]

    def test_compare_leaves_it_out(self, study, tmp_path, capsys):
        vocab, one, _ = study
        out = tmp_path / "cmp.json"
        assert main(["compare", "--vocab-a", str(vocab), "--vocab-b", str(vocab),
                     "--population", str(one), "--out", str(out)]) == 1
        assert "'seed1': every hidden neuron is undefined" in capsys.readouterr().err
        assert sorted(json.loads(out.read_text())["per_network"]) == ["seed0", "seed2"]
        assert json.loads((tmp_path / "cmp.json.run.json").read_text())["failed"] == ["seed1"]

    @pytest.mark.parametrize("command", ["assign", "compare"])
    def test_no_network_left_exits_2(self, study, tmp_path, command):
        vocab, _, every = study
        out = tmp_path / "out"
        argv = (["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(every)]
                if command == "assign" else
                ["compare", "--vocab-a", str(vocab), "--vocab-b", str(vocab), "--population", str(every)])
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists() and not (tmp_path / "out.run.json").exists()


class TestCompareCommand:
    def test_same_vocabulary_gives_zero(self, measures_csv, tmp_path):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "5", "--out", str(vocab)]) == 0
        out = tmp_path / "cmp.json"
        code = main(["compare", "--vocab-a", str(vocab), "--vocab-b", str(vocab),
                     "--population", str(measures_csv), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["jsd_mean"] == 0.0
        assert doc["count"] == 3

    @pytest.mark.parametrize("command", ["assign", "compare"])
    def test_vocabulary_with_negative_seed_exits_3(self, measures_csv, tmp_path, capsys, command):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        odd = tmp_path / "odd_vocab.json"
        odd.write_text(json.dumps(dict(json.loads(vocab.read_text()), seed=-5)))
        out = tmp_path / "out"
        if command == "assign":
            argv = ["vocab", "assign", "--vocab", str(odd), "--measures-csv", str(measures_csv), "--out", str(out)]
        else:
            argv = ["compare", "--vocab-a", str(vocab), "--vocab-b", str(odd),
                    "--population", str(measures_csv), "--out", str(out)]
        assert main(argv) == 3
        assert "odd_vocab.json: bad vocabulary file (seed and inertia must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_vocabulary_without_json_floats_exits_3(self, measures_csv, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        doc = json.loads(vocab.read_text())
        odd = tmp_path / "odd_vocab.json"
        odd.write_text(json.dumps(dict(doc, normalizers=[str(x) for x in doc["normalizers"]])))
        out = tmp_path / "cmp.json"
        code = main(["compare", "--vocab-a", str(vocab), "--vocab-b", str(odd),
                     "--population", str(measures_csv), "--out", str(out)])
        assert code == 3
        assert "odd_vocab.json: bad vocabulary file (normalizers: expected JSON floats" in capsys.readouterr().err
        assert not out.exists()


class TestRefusalsNameTheirFiles:
    @pytest.mark.parametrize("flags, refusal", [
        (["--measures", "s,bc", "--k", "3"], "vocabularies were built on different measure lists"),
        (["--k", "2"], "vocabularies have different k"),
    ], ids=["measures", "k"])
    def test_compare_on_unlike_vocabularies_exits_2_naming_both(self, measures_csv, tmp_path, capsys, flags,
                                                                 refusal):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), *flags, "--restarts", "3",
                     "--out", str(a)]) == 0
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3", "--restarts", "3",
                     "--out", str(b)]) == 0
        code = main(["compare", "--vocab-a", str(a), "--vocab-b", str(b),
                     "--population", str(measures_csv), "--out", str(tmp_path / "cmp.json")])
        assert code == 2
        assert f"{a}, {b}: {refusal}" in capsys.readouterr().err
        assert not (tmp_path / "cmp.json").exists()

    def test_corr_on_fewer_than_two_defined_rows_exits_2(self, tmp_path, capsys):
        table = measure_all(init_network((3, 4, 2, 2), seed=0), measures=("s", "bc"))
        values = np.full_like(table.values, np.nan)
        values[0] = table.values[0]
        csv_path = tmp_path / "m.csv"
        write_measures_csv([dataclasses.replace(table, values=values)], csv_path)
        code = main(["plot", "--what", "corr", "--measures-csv", str(csv_path),
                     "--out-csv", str(tmp_path / "corr.csv")])
        assert code == 2
        assert f"{csv_path}: pearson_matrix needs a 2-D array with at least 2 rows" in capsys.readouterr().err
        assert not (tmp_path / "corr.csv").exists()


class TestPlotCommand:
    def test_scatter(self, measures_csv, trained_dir, tmp_path):
        out_csv = tmp_path / "scatter.csv"
        out_svg = tmp_path / "scatter.svg"
        code = main(["plot", "--what", "scatter", "--measures-csv", str(measures_csv),
                     "--measure", "s", "--manifest", str(trained_dir / "manifest.json"),
                     "--out-csv", str(out_csv), "--out-svg", str(out_svg)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "network_id,x,y,test_acc"
        assert len(lines) == 4
        assert out_svg.read_text().startswith("<svg")

    def test_scatter_quotes_network_ids(self, tmp_path):
        table = measure_all(init_network((3, 4, 2, 2), seed=0), measures=("s",))
        table = dataclasses.replace(table, network_id="net,1")
        write_measures_csv([table], tmp_path / "m.csv")
        out_csv = tmp_path / "scatter.csv"
        code = main(["plot", "--what", "scatter", "--measures-csv", str(tmp_path / "m.csv"),
                     "--measure", "s", "--out-csv", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "net,1"
        assert [len(r) for r in rows] == [4, 4]

    def test_corr(self, measures_csv, tmp_path):
        out_csv = tmp_path / "corr.csv"
        code = main(["plot", "--what", "corr", "--measures-csv", str(measures_csv),
                     "--out-csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "measure,s,bc,sg"
        assert len(lines) == 4
        diag = [float(lines[i + 1].split(",")[i + 1]) for i in range(3)]
        assert diag == [1.0, 1.0, 1.0]

    def test_corr_records_the_redundancy_filter(self, tmp_path):
        # snn is an affine image of s, so the costlier snn goes; bc is uncorrelated with both and stays
        table = measure_all(init_network((3, 4, 4, 2), seed=0), measures=("s", "snn", "bc"))
        s = np.arange(8.0)
        values = np.column_stack([s, 3.0 * s - 2.0, [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0]])
        csv_path = tmp_path / "m.csv"
        write_measures_csv([dataclasses.replace(table, values=values)], csv_path)
        assert main(["plot", "--what", "corr", "--measures-csv", str(csv_path),
                     "--out-csv", str(tmp_path / "corr.csv")]) == 0
        assert np.corrcoef(values[:, 0], values[:, 2])[0, 1] == 0.0
        record = json.loads((tmp_path / "corr.csv.run.json").read_text())
        assert record["redundancy_filter"] == {"threshold": 0.8, "kept": ["s", "bc"]}

    def test_hist(self, measures_csv, trained_dir, tmp_path):
        vocab = tmp_path / "vocab.json"
        occ = tmp_path / "occ.csv"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "5", "--out", str(vocab)]) == 0
        assert main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--manifest", str(trained_dir / "manifest.json"), "--out", str(occ)]) == 0
        out_csv = tmp_path / "hist.csv"
        out_svg = tmp_path / "hist.svg"
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(out_csv), "--out-svg", str(out_svg)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "group,type,frequency"
        assert len(lines) == 1 + 3 * 3
        assert out_svg.exists()


    def test_hist_on_malformed_occurrence_exits_3(self, tmp_path, capsys):
        occ = tmp_path / "occ.csv"
        occ.write_text("network_id,test_acc,zz,yy\na,0.1,0.5,0.5\nb,0.5,-0.2,0.1\nc,0.9,1.0,0.0\n")
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(tmp_path / "hist.csv")])
        assert code == 3
        assert "occ.csv: header must be network_id,test_acc,f1..fk" in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [("seed0,0.5,0.5,0.5\nseed0,0.7,1.0,0.0\nseed1,0.6,0.25,0.75\n",
          "occ.csv:3: network id 'seed0' repeats line 2"),
         ("", "occ.csv: no occurrence rows")],
        ids=["repeated id", "no rows"],
    )
    def test_hist_on_occurrence_the_writer_never_writes_exits_3(self, tmp_path, capsys, rows, message):
        occ = tmp_path / "occ.csv"
        occ.write_text("network_id,test_acc,f1,f2\n" + rows)
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(tmp_path / "hist.csv")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()

    @pytest.mark.parametrize("acc", ["7.5", "-3.0"])
    def test_hist_on_accuracy_outside_unit_interval_exits_3(self, tmp_path, capsys, acc):
        occ = tmp_path / "occ.csv"
        occ.write_text(f"network_id,test_acc,f1,f2\nseed0,0.6,0.5,0.5\nseed1,{acc},1.0,0.0\n")
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(tmp_path / "hist.csv")])
        assert code == 3
        assert f"occ.csv:3: test_acc {acc} is outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()

    def test_hist_on_too_few_networks_exits_2_naming_the_file(self, tmp_path, capsys):
        occ = tmp_path / "occ.csv"
        occ.write_text("network_id,test_acc,f1,f2\nseed0,0.6,0.5,0.5\nseed1,0.7,1.0,0.0\n")
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(tmp_path / "hist.csv")])
        assert code == 2
        assert "occ.csv: population of 2 cannot hold 3 disjoint groups of 1" in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()

    @pytest.mark.parametrize("command, refusal", [
        (["vocab", "build", "--k", "2", "--out", "vocab.json"], "architecture differs from the population"),
        (["plot", "--what", "scatter", "--measure", "s", "--out-csv", "scatter.csv"],
         "scatter needs exactly hidden layers (1, 2), got (1, 2, 3, 4)"),
    ])
    def test_network_rows_duplicated_exit_2_naming_the_file(self, measures_csv, tmp_path, capsys, command,
                                                              refusal):
        # seed1's rows again, as layers 3 and 4: the file still reads, but seed1's layout is not the others'
        lines = measures_csv.read_text().splitlines()
        copies = [",".join([r[0], str(int(r[1]) + 2), *r[2:]]) for r in csv.reader(lines) if r[0] == "seed1"]
        end = max(i for i, line in enumerate(lines) if line.startswith("seed1,")) + 1
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:end] + copies + lines[end:]) + "\n")
        out = tmp_path / command[-1]
        code = main([*command[:-1], str(out), "--measures-csv", str(bad)])
        assert code == 2
        assert f"bad.csv: 'seed1': {refusal}" in capsys.readouterr().err
        assert not out.exists()

    def test_hist_without_accuracies_exits_2(self, measures_csv, tmp_path, capsys):
        # vocab assign without --manifest writes NaN accuracies, which cannot be ranked
        vocab = tmp_path / "vocab.json"
        occ = tmp_path / "occ.csv"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "5", "--out", str(vocab)]) == 0
        assert main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--out", str(occ)]) == 0
        code = main(["plot", "--what", "hist", "--occurrence-csv", str(occ), "--group-size", "1",
                     "--out-csv", str(tmp_path / "hist.csv")])
        assert code == 2
        assert "undefined test accuracy for networks ['seed0', 'seed1', 'seed2']" in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()


class TestNestedJson:
    def test_json_nested_too_deeply_exits_3(self, trained_dir, measures_csv, tmp_path, capsys):
        # json's decoder gives up about 1,000 levels down with a RecursionError
        deep = "[" * 10_000 + "]" * 10_000
        models = tmp_path / "models"
        models.mkdir()
        model = (trained_dir / "model_seed0.json").read_text()
        (models / "model_seed0.json").write_text(model.replace('"meta": {', f'"meta": {{"deep": {deep}, '))
        manifest, vocab = tmp_path / "manifest.json", tmp_path / "vocab.json"
        manifest.write_text(f'[{{"seed": 0, "test_acc": 0.5, "deep": {deep}}}]')
        vocab.write_text(f'{{"measures": {deep}}}')
        runs = {
            "model_seed0.json": ["measure", "--models", models, "--out", tmp_path / "m.csv"],
            "manifest.json": ["plot", "--what", "scatter", "--measures-csv", measures_csv, "--measure", "s",
                              "--manifest", manifest, "--out-csv", tmp_path / "scatter.csv"],
            "vocab.json": ["vocab", "assign", "--vocab", vocab, "--measures-csv", measures_csv,
                           "--out", tmp_path / "occ.csv"],
        }
        for name, argv in runs.items():
            assert main([str(a) for a in argv]) == 3
            err = capsys.readouterr().err
            assert name in err and "a JSON document nested too deeply" in err


class TestTextAfterTheDocument:
    @pytest.mark.parametrize("name", ["manifest.json", "vocab.json"])
    def test_manifest_or_vocabulary_with_text_after_it_exits_3(self, trained_dir, measures_csv, tmp_path, capsys,
                                                               name):
        manifest, vocab = tmp_path / "manifest.json", tmp_path / "vocab.json"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        shutil.copy(trained_dir / "manifest.json", manifest)
        bad = tmp_path / name
        text = bad.read_text()
        bad.write_text(text + "{}\n")
        line = text.count("\n")  # that of the document's end, where the text after it starts
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(measures_csv),
                     "--manifest", str(manifest), "--out", str(tmp_path / "occ.csv")])
        assert code == 3
        assert f"{bad}:{line}: not the JSON layout expected: text after the document" in capsys.readouterr().err
        assert not (tmp_path / "occ.csv").exists()


class TestRunRecords:
    def test_run_record_hashes_artifacts(self, measures_csv):
        record = json.loads((measures_csv.parent / "measures.csv.run.json").read_text())
        assert record["command"] == "measure"
        assert "measures.csv" in record["artifacts"]
        assert len(record["artifacts"]["measures.csv"]) == 64
        assert "cfc_mode" not in record["parameters"]

    def test_idempotent_outputs(self, data_dir, tmp_path):
        args = ["train", "--data", str(data_dir), "--count", "1", "--arch", "784,6,4,10",
                "--epochs", "1", "--batch", "50"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "model_seed0.json").read_bytes()
        b = (tmp_path / "b" / "model_seed0.json").read_bytes()
        assert a == b

    def test_measure_idempotent(self, trained_dir, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (out1, out2):
            assert main(["measure", "--models", str(trained_dir), "--measures", "s,bc",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["neurotopo", "neurotopo.cli"])
    def test_runs_as_module(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(neurotopo.__file__).parents[1]))
        run = [sys.executable, "-m", module]
        helped = subprocess.run(run + ["--help"], env=env, capture_output=True, text=True, timeout=60)
        assert helped.returncode == 0
        assert "usage: neurotopo" in helped.stdout
        bare = subprocess.run(run + ["measure"], env=env, capture_output=True, text=True, timeout=60)
        assert bare.returncode == 2
