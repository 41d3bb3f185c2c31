"""CLI exit codes, formats, idempotence, and the end-to-end desk pipeline."""

import csv
import json
import os
import shutil
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

    def test_duplicate_network_id_names_both_models(self, trained_dir, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        shutil.copy(trained_dir / "model_seed0.json", models / "model_seed0.json")
        shutil.copy(trained_dir / "model_seed0.json", models / "copy.json")
        code = main(["measure", "--models", str(models), "--measures", "s", "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'seed0' appears in more than one table" in err
        assert "model_seed0.json" in err and "copy.json" in err

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

    def test_bad_int_cell_exits_3(self, tmp_path, capsys):
        path = tmp_path / "desc.csv"
        path.write_text("network_id,layer,neuron,s,bc\na,1,0,0.25,0.5\na,1,1_0,0.5,0.25\n")
        code = main(["vocab", "build", "--measures-csv", str(path), "--k", "2",
                     "--out", str(tmp_path / "v.json")])
        assert code == 3
        assert "desc.csv:3: '1_0' is not a plain decimal integer" in capsys.readouterr().err

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

    def test_assign_measure_mismatch_exits_2(self, measures_csv, trained_dir, tmp_path):
        vocab = tmp_path / "vocab_full.json"
        sub = tmp_path / "sub.csv"
        assert main(["vocab", "build", "--measures-csv", str(measures_csv), "--k", "3",
                     "--restarts", "3", "--out", str(vocab)]) == 0
        assert main(["measure", "--models", str(trained_dir), "--measures", "s", "--out", str(sub)]) == 0
        code = main(["vocab", "assign", "--vocab", str(vocab), "--measures-csv", str(sub),
                     "--out", str(tmp_path / "occ.csv")])
        assert code == 2


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
        table = measure_all(init_network((3, 4, 2, 2), seed=0), measures=("s",), network_id="net,1")
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


class TestRunRecords:
    def test_run_record_hashes_artifacts(self, measures_csv):
        record = json.loads((measures_csv.parent / "measures.csv.run.json").read_text())
        assert record["command"] == "measure"
        assert "measures.csv" in record["artifacts"]
        assert len(record["artifacts"]["measures.csv"]) == 64

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
