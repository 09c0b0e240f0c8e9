import json

import numpy as np
import pytest

from distmlc import cli

from conftest import random_problem


def write_csv_pair(tmp_path, X, Y, prefix="d"):
    f = tmp_path / f"{prefix}_features.csv"
    l = tmp_path / f"{prefix}_labels.csv"
    m = X.shape[1]
    ll = Y.shape[1]
    f.write_text(
        ",".join(f"f{j}" for j in range(m)) + "\n"
        + "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n"
    )
    l.write_text(
        ",".join(f"y{j}" for j in range(ll)) + "\n"
        + "\n".join(",".join(str(int(v)) for v in row) for row in Y) + "\n"
    )
    return f"{f};{l}"


@pytest.fixture
def toy_specs(tmp_path):
    rng = np.random.default_rng(91)
    Xtr, Ytr = random_problem(rng, n=18, m=3, l=3)
    Xte, Yte = random_problem(rng, n=7, m=3, l=3)
    train = write_csv_pair(tmp_path, Xtr, Ytr, "train")
    test = write_csv_pair(tmp_path, Xte, Yte, "test")
    return train, test


class TestTrainPredictEvaluate:
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_round_trip_all_methods(self, tmp_path, toy_specs, method):
        train, test = toy_specs
        model_path = tmp_path / f"{method}.dmlm"
        assert cli.main([
            "train", train, "--method", method, "--alpha", "0.1",
            "--out", str(model_path),
        ]) == 0
        preds = tmp_path / f"{method}.jsonl"
        assert cli.main([
            "predict", str(model_path), test, "--out", str(preds),
        ]) == 0
        lines = preds.read_text().strip().splitlines()
        assert len(lines) == 7
        rec = json.loads(lines[0])
        assert set(rec) == {"scores", "labels", "min_distance", "uncertainty"}
        assert all(v in (0, 1) for v in rec["labels"])

        report = tmp_path / f"{method}_report.json"
        assert cli.main([
            "evaluate", str(preds), test, "--out", str(report),
        ]) == 0
        data = json.loads(report.read_text())
        assert 0.0 <= data["hamming_loss"] <= 1.0

    def test_saved_model_predictions_bit_identical(self, tmp_path, toy_specs):
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        out1 = tmp_path / "p1.jsonl"
        out2 = tmp_path / "p2.jsonl"
        cli.main(["predict", str(model_path), test, "--out", str(out1)])
        cli.main(["predict", str(model_path), test, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_model_file_deterministic(self, tmp_path, toy_specs):
        train, _ = toy_specs
        a = tmp_path / "a.dmlm"
        b = tmp_path / "b.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(a)])
        cli.main(["train", train, "--alpha", "0.1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_curve_out(self, tmp_path, toy_specs):
        train, _ = toy_specs
        curve = tmp_path / "curve.csv"
        cli.main([
            "train", train, "--alpha", "0.1",
            "--out", str(tmp_path / "m.dmlm"), "--curve-out", str(curve),
        ])
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "s,P,LRL"
        assert len(lines) == 82
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 3
            for field in fields:
                float(field)

    def test_local_rcut_threshold_flag(self, tmp_path, toy_specs):
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        preds = tmp_path / "rcut.jsonl"
        assert cli.main([
            "predict", str(model_path), test, "--threshold", "local-rcut",
            "--out", str(preds),
        ]) == 0
        for line in preds.read_text().strip().splitlines():
            rec = json.loads(line)
            assert sum(rec["labels"]) <= len(rec["labels"])

    def test_local_rcut_at_train_is_usage_error(self, tmp_path, toy_specs, capsys):
        # local rank-cut is chosen when decoding, not stored as a threshold
        train, _ = toy_specs
        model_path = tmp_path / "m.dmlm"
        assert cli.main([
            "train", train, "--threshold", "local-rcut", "--out", str(model_path),
        ]) == 1
        assert "predict --threshold local-rcut" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("method", ["nn-mlm", "lls-mlm", "br-mlm"])
    def test_predict_threshold_is_usage_error_without_ml_mlm(
            self, tmp_path, toy_specs, capsys, method):
        # only ml-mlm labels by a threshold; the others would ignore it
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--method", method, "--alpha", "0.1",
                  "--out", str(model_path)])
        preds = tmp_path / "p.jsonl"
        assert cli.main([
            "predict", str(model_path), test, "--threshold", "0.5", "--out", str(preds),
        ]) == 1
        assert method in capsys.readouterr().err
        assert not preds.exists()

    def test_evaluate_has_no_scale_option(self, tmp_path, toy_specs):
        # evaluate reads only the truth labels, which scaling never touches
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        preds = tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        cli.main(["predict", str(model_path), test, "--out", str(preds)])
        report = tmp_path / "r.json"
        assert cli.main([
            "evaluate", str(preds), test, "--scale", "minmax", "--out", str(report),
        ]) == 1
        assert not report.exists()

    def test_empty_input_yields_empty_output(self, tmp_path, toy_specs):
        train, _ = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        f = tmp_path / "empty_f.csv"
        l = tmp_path / "empty_l.csv"
        f.write_text("f0,f1,f2\n")
        l.write_text("y0,y1,y2\n")
        out = tmp_path / "empty.jsonl"
        assert cli.main([
            "predict", str(model_path), f"{f};{l}", "--out", str(out),
        ]) == 0
        assert out.read_text() == ""


class TestBenchmark:
    def test_outputs_and_rerun_byte_identical(self, tmp_path, toy_specs):
        train, test = toy_specs
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        argv = [
            "benchmark", "--dataset", f"toy,{train},{test}",
            "--methods", "ml-mlm,nn-mlm", "--out-dir",
        ]
        assert cli.main(argv + [str(d1)]) == 0
        assert cli.main(argv + [str(d2)]) == 0
        assert (d1 / "report_toy_ml-mlm.json").exists()
        assert (d1 / "report_toy_nn-mlm.json").exists()
        assert (d1 / "table_ranking_loss.csv").exists()
        csv1 = (d1 / "reports.csv").read_bytes()
        csv2 = (d2 / "reports.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().splitlines()[0]
        assert header.startswith("dataset,method,hamming_loss")


class TestStatsCommand:
    def test_stats_json(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text(
            "dataset,a,b,c\n"
            "d1,0.1,0.2,0.3\n"
            "d2,0.2,0.3,0.4\n"
            "d3,0.1,0.3,0.5\n"
        )
        out = tmp_path / "cd.json"
        assert cli.main([
            "stats", str(table), "--direction", "lower", "--out", str(out),
        ]) == 0
        d = json.loads(out.read_text())
        assert d["methods"] == ["a", "b", "c"]
        assert d["average_ranks"][0] == 1.0


class TestDistbox:
    def test_distbox_csv(self, tmp_path, toy_specs):
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        out = tmp_path / "box.csv"
        assert cli.main([
            "distbox", str(model_path), test, "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance,min_distance"
        assert len(lines) == 8
        assert all(float(ln.split(",")[1]) >= 0.0 for ln in lines[1:])


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        assert cli.main(["train", "x.csv;y.csv", "--nope"]) == 1

    def test_usage_error_missing_manifest(self, tmp_path):
        p = tmp_path / "d.arff"
        p.write_text("@relation r\n@attribute a numeric\n@data\n1\n")
        assert cli.main([
            "train", str(p), "--out", str(tmp_path / "m.dmlm"),
        ]) == 1

    def test_data_error_missing_file(self, tmp_path):
        assert cli.main([
            "train", "missing_f.csv;missing_l.csv",
            "--out", str(tmp_path / "m.dmlm"),
        ]) == 2

    def test_data_error_malformed_arff(self, tmp_path):
        p = tmp_path / "bad.arff"
        p.write_text("@relation r\n@attribute a numeric\n"
                     "@attribute l {0,1}\n@data\n1\n")
        assert cli.main([
            "train", str(p), "--labels-last", "1",
            "--out", str(tmp_path / "m.dmlm"),
        ]) == 2

    def test_numerical_error_leverage_one(self, tmp_path):
        # alpha 0 with n == k makes every leverage exactly one
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        spec = write_csv_pair(tmp_path, X, Y, "sing")
        assert cli.main([
            "train", spec, "--alpha", "0.0",
            "--out", str(tmp_path / "m.dmlm"),
        ]) == 3
