import argparse
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from distmlc import cli, modelio, models, stats
from distmlc import data as dataio

from conftest import random_problem, rewrite, rewrite_manifest


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


def write_arff(path, X, Y):
    """A dense ARFF with the label attributes y0.. first, then f0..; returns
    the path and a Mulan XML manifest of the labels beside it."""
    attrs = [f"@attribute y{j} {{0,1}}" for j in range(Y.shape[1])]
    attrs += [f"@attribute f{j} numeric" for j in range(X.shape[1])]
    path.write_text("@relation r\n" + "\n".join(attrs) + "\n@data\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in np.hstack([Y, X])))
    xml = path.with_suffix(".xml")
    xml.write_text('<labels xmlns="http://mulan.sourceforge.net/labels">'
                   + "".join(f'<label name="y{j}"></label>' for j in range(Y.shape[1]))
                   + "</labels>\n")
    return path, xml


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

    def test_local_rcut_at_train_is_usage_error(self, tmp_path, toy_specs, capsys):
        # local rank-cut is chosen when decoding; train takes no --threshold
        train, _ = toy_specs
        model_path = tmp_path / "m.dmlm"
        assert cli.main([
            "train", train, "--threshold", "local-rcut", "--out", str(model_path),
        ]) == 1
        assert "unrecognized arguments: --threshold local-rcut" in capsys.readouterr().err
        assert not model_path.exists()

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

    def test_predict_fixed_threshold_relabels_only(self, tmp_path, toy_specs):
        # a fixed threshold keeps every score and labels exactly scores > T
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        assert cli.main(["train", train, "--out", str(model_path)]) == 0

        def predict(*flags):
            out = tmp_path / "p.jsonl"
            assert cli.main(["predict", str(model_path), test, *flags,
                             "--out", str(out)]) == 0
            return [json.loads(line) for line in out.read_text().splitlines()]

        trained = predict()
        scores = np.array([rec["scores"] for rec in trained])
        for T in (0.07, float(np.median(scores)), 0.5):
            fixed = predict("--threshold", repr(T))
            for rec, old in zip(fixed, trained):
                assert rec["labels"] == (np.array(rec["scores"]) > T).astype(int).tolist()
                assert {**rec, "labels": old["labels"]} == old

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
        # evaluate uses only the truth labels, which scaling never touches
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

    def test_evaluate_takes_label_count_from_predictions(self, tmp_path, toy_specs):
        # a single-file truth with no manifest needs no flag: its last L
        # columns are the labels, L the width of the predictions
        train, test = toy_specs
        model_path, preds = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        cli.main(["predict", str(model_path), test, "--out", str(preds)])
        pasted = tmp_path / "test.csv"
        pasted.write_text("".join(f"{a},{b}\n" for a, b in zip(
            *(Path(part).read_text().splitlines() for part in test.split(";")))))
        reports = [tmp_path / "pair.json", tmp_path / "single.json"]
        for truth, report in zip((test, str(pasted)), reports):
            assert cli.main(["evaluate", str(preds), truth, "--out", str(report)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert reports[0].read_text().endswith("}\n")

    def test_empty_input_yields_empty_output(self, tmp_path, toy_specs):
        train, _ = toy_specs
        model_path = tmp_path / "m.dmlm"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model_path)])
        f = tmp_path / "empty_f.csv"
        l = tmp_path / "empty_l.csv"
        f.write_text("f0,f1,f2\n")
        l.write_text("y0,y1,y2\n")
        for spec in (f"{f};{l}", str(f)):
            out = tmp_path / "empty.jsonl"
            assert cli.main(["predict", str(model_path), spec, "--out", str(out)]) == 0
            assert out.read_text() == ""


class TestModelDecidesInput:
    """predict reads the features only, under the training scaler."""

    @pytest.mark.parametrize("method", ["nn-mlm", "lls-mlm", "br-mlm"])
    @pytest.mark.parametrize("flag", [["--power", "3"], ["--power", "tuned"],
                                      ["--curve-out", "{tmp}/curve.csv"]])
    def test_train_power_threshold_usage_error_without_ml_mlm(
            self, tmp_path, toy_specs, capsys, method, flag):
        train, _ = toy_specs
        model_path = tmp_path / "m.dmlm"
        flag = [f.format(tmp=tmp_path) for f in flag]
        assert cli.main(["train", train, "--method", method, *flag,
                         "--out", str(model_path)]) == 1
        assert method in capsys.readouterr().err
        assert not model_path.exists()
        assert not (tmp_path / "curve.csv").exists()

    def test_curve_out_usage_error_with_fixed_power(self, tmp_path, toy_specs, capsys):
        # a fixed power searches no power, so there is no curve to write
        train, _ = toy_specs
        model_path, curve = tmp_path / "m.dmlm", tmp_path / "curve.csv"
        assert cli.main(["train", train, "--power", "2", "--curve-out", str(curve),
                         "--out", str(model_path)]) == 1
        assert "--curve-out needs ml-mlm with a tuned power" in capsys.readouterr().err
        assert not model_path.exists() and not curve.exists()

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_one_row_predicts_as_inside_full_file(self, tmp_path, method):
        rng = np.random.default_rng(93)
        Xtr, Ytr = random_problem(rng, n=30, m=3, l=3)
        Xte, Yte = random_problem(rng, n=6, m=3, l=3)
        Xtr, Xte = 5.0 * Xtr + 2.0, 5.0 * Xte + 2.0  # off [0, 1]
        lo, span = Xtr.min(axis=0), Xtr.max(axis=0) - Xtr.min(axis=0)

        def predict(model, X, Y, prefix):
            out = tmp_path / f"{prefix}.jsonl"
            spec = write_csv_pair(tmp_path, X, Y, prefix)
            assert cli.main(["predict", str(model), spec, "--out", str(out)]) == 0
            return [json.loads(line) for line in out.read_text().splitlines()]

        scaled, prescaled = tmp_path / "scaled.dmlm", tmp_path / "prescaled.dmlm"
        assert cli.main(["train", write_csv_pair(tmp_path, Xtr, Ytr, "train"),
                         "--method", method, "--scale", "minmax", "--out", str(scaled)]) == 0
        # the same model, from features scaled here by the training bounds
        assert cli.main(["train", write_csv_pair(tmp_path, (Xtr - lo) / span, Ytr, "pre"),
                         "--method", method, "--out", str(prescaled)]) == 0
        full = predict(scaled, Xte, Yte, "full")
        assert full == predict(prescaled, (Xte - lo) / span, Yte, "prefull")
        for i in range(len(Xte)):
            (alone,) = predict(scaled, Xte[i:i + 1], Yte[i:i + 1], f"row{i}")
            # the IDW product's round-off depends on the batch height
            np.testing.assert_allclose(alone["scores"], full[i]["scores"], rtol=0, atol=1e-12)
            assert alone["labels"] == full[i]["labels"]

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_loaded_scaled_model_decodes_raw_rows_as_predict(self, tmp_path, method):
        # the scaler is part of the record, so the library needs no scaling step
        rng = np.random.default_rng(96)
        Xtr, Ytr = random_problem(rng, n=30, m=3, l=3)
        Xte, Yte = random_problem(rng, n=6, m=3, l=3)
        Xtr, Xte = 5.0 * Xtr + 2.0, 5.0 * Xte + 2.0  # off [0, 1]
        model_path, out, lib = (tmp_path / name for name in ("m.dmlm", "p.jsonl", "lib.jsonl"))
        assert cli.main(["train", write_csv_pair(tmp_path, Xtr, Ytr, "train"), "--method",
                         method, "--scale", "minmax", "--out", str(model_path)]) == 0
        assert cli.main(["predict", str(model_path), write_csv_pair(tmp_path, Xte, Yte, "test"),
                         "--out", str(out)]) == 0
        model, _ = modelio.load_model(model_path)
        cli.write_predictions(modelio.method_functions(method)[1](model, Xte), lib)
        assert lib.read_bytes() == out.read_bytes()

    def test_benchmark_scale_matches_train_predict_evaluate(self, tmp_path, toy_specs):
        train, test = toy_specs
        assert cli.main(["benchmark", "--dataset", f"toy,{train},{test}",
                         "--methods", "ml-mlm,br-mlm", "--scale", "minmax",
                         "--out-dir", str(tmp_path / "bench")]) == 0
        for method in ("ml-mlm", "br-mlm"):
            model, preds, report = (tmp_path / f"{method}.{ext}"
                                    for ext in ("dmlm", "jsonl", "json"))
            assert cli.main(["train", train, "--method", method, "--scale", "minmax",
                             "--out", str(model)]) == 0
            assert cli.main(["predict", str(model), test, "--out", str(preds)]) == 0
            assert cli.main(["evaluate", str(preds), test, "--out", str(report)]) == 0
            assert report.read_bytes() == (
                tmp_path / "bench" / f"report_toy_{method}.json").read_bytes()

    def test_arff_with_without_manifest_or_labels_same_bytes(self, tmp_path):
        rng = np.random.default_rng(94)
        Xtr, Ytr = random_problem(rng, n=20, m=3, l=3)
        Xte, Yte = random_problem(rng, n=5, m=3, l=3)
        arff, xml = write_arff(tmp_path / "train.arff", 4.0 * Xtr, Ytr)
        model_path = tmp_path / "m.dmlm"
        assert cli.main(["train", f"{arff}@{xml}", "--scale", "minmax",
                         "--out", str(model_path)]) == 0
        test, test_xml = write_arff(tmp_path / "test.arff", 4.0 * Xte, Yte)
        bare, _ = write_arff(tmp_path / "bare.arff", 4.0 * Xte, Yte[:, :0])  # no labels
        outs = []
        for i, spec in enumerate([f"{test}@{test_xml}", str(test), str(bare)]):
            outs.append(tmp_path / f"out{i}")
            assert cli.main(["predict", str(model_path), spec, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 5

    def test_csv_alone_or_paired_same_bytes(self, tmp_path, toy_specs):
        # a single .csv file is read as CSV; a pair's labels file is not read
        train, test = toy_specs
        model_path = tmp_path / "m.dmlm"
        assert cli.main(["train", train, "--out", str(model_path)]) == 0
        features = test.split(";")[0]
        outs = []
        for i, spec in enumerate([test, f"{features};", features]):
            outs.append(tmp_path / f"out{i}")
            assert cli.main(["predict", str(model_path), spec, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 7

    def test_single_csv_labels_last_trains_as_pair(self, tmp_path, toy_specs):
        train, _ = toy_specs
        feature_path, label_path = train.split(";")
        pasted = tmp_path / "pasted.csv"
        pasted.write_text("".join(
            f"{a},{b}\n" for a, b in zip(Path(feature_path).read_text().splitlines(),
                                        Path(label_path).read_text().splitlines())))
        pair, single = tmp_path / "pair.dmlm", tmp_path / "single.dmlm"
        assert cli.main(["train", train, "--out", str(pair)]) == 0
        assert cli.main(["train", str(pasted), "--labels-last", "3", "--out", str(single)]) == 0
        assert pair.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["train", "{train}", "--labels-xml", "x.xml"],
        ["predict", "{model}", "{test}", "--scale", "off"],
        ["predict", "{model}", "{test}", "--labels-xml", "x.xml"],
        ["predict", "{model}", "{test}", "--labels-last", "3"],
        ["predict", "{model}"],
        ["distbox", "{model}", "{test}"],  # predict writes min_distance per row
        ["train", "{train}", "--threshold", "0.5"],  # predict --threshold sets it
        ["train", "{train}", "--threshold", "local-rcut"],
        ["evaluate", "{preds}", "{test}", "--format", "json"],
        ["evaluate", "{preds}", "{test}", "--labels-xml", "x.xml"],
        ["evaluate", "{preds}", "{test}", "--labels-last", "3"],  # L is the predictions' width
        ["benchmark", "--dataset", "toy,{train},{test}", "--labels-xml", "x.xml"],
        ["stats", "{table}", "--direction", "lower", "--alpha", "0.05"],
    ])
    def test_removed_option_is_usage_error(self, tmp_path, toy_specs, argv):
        train, test = toy_specs
        paths = {"model": tmp_path / "m.dmlm", "preds": tmp_path / "p.jsonl",
                 "table": tmp_path / "t.csv", "train": train, "test": test}
        cli.main(["train", train, "--alpha", "0.1", "--out", str(paths["model"])])
        cli.main(["predict", str(paths["model"]), test, "--out", str(paths["preds"])])
        paths["table"].write_text("dataset,a,b\nd1,0.1,0.2\nd2,0.2,0.3\n")
        out = tmp_path / "out"
        flag = "--out-dir" if argv[0] == "benchmark" else "--out"
        assert cli.main([a.format(**paths) for a in argv] + [flag, str(out)]) == 1
        assert not out.exists()


def test_readme_cli_lines_parse():
    """Every distmlc line of the README's CLI block is a valid command line,
    and the block shows every subcommand and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert lines and all(line[0] == "distmlc" for line in lines)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(line[1:])
    (subcommands,) = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert {line[1] for line in lines} == set(subcommands)


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

    @pytest.mark.parametrize("short", ["features", "labels"])
    def test_test_split_of_other_width_is_data_error(self, tmp_path, capsys, short):
        rng = np.random.default_rng(95)
        Xtr, Ytr = random_problem(rng, n=18, m=3, l=3)
        Xte, Yte = random_problem(rng, n=7, m=3, l=3)
        Xte, Yte = (Xte[:, :2], Yte) if short == "features" else (Xte, Yte[:, :2])
        train = write_csv_pair(tmp_path, Xtr, Ytr, "train")
        test = write_csv_pair(tmp_path, Xte, Yte, "test")
        out_dir = tmp_path / "run"
        assert cli.main(["benchmark", "--dataset", f"toy,{train},{test}",
                         "--methods", "ml-mlm,br-mlm", "--out-dir", str(out_dir)]) == 2
        counts = "2 features and 3 labels" if short == "features" else "3 features and 2 labels"
        assert (f"dataset toy: test split {test} has {counts}, but training split {train} "
                f"has 3 and 3") in capsys.readouterr().err
        assert not list(out_dir.iterdir())  # refused before any training

    @pytest.mark.parametrize("methods", ["ml-mlm,ml-mlm", "nn-mlm,ml-mlm,nn-mlm"])
    def test_repeated_method_is_usage_error(self, tmp_path, toy_specs, capsys, methods):
        train, test = toy_specs
        out_dir = tmp_path / "run"
        assert cli.main(["benchmark", "--dataset", f"toy,{train},{test}",
                         "--methods", methods, "--out-dir", str(out_dir)]) == 1
        assert "names" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("dataset, methods, message", [
        ("toy,{train}", "ml-mlm",
         "--dataset expects 'name,trainspec,testspec', got 'toy,{train}'"),
        ("toy,{train},{test}", "ml-mlm,foo", "unknown method 'foo'"),
    ], ids=["two-field-dataset", "unknown-method"])
    def test_malformed_argument_is_usage_error(self, tmp_path, toy_specs, capsys,
                                               dataset, methods, message):
        train, test = toy_specs
        out_dir = tmp_path / "run"
        assert cli.main(["benchmark", "--dataset", dataset.format(train=train, test=test),
                         "--methods", methods, "--out-dir", str(out_dir)]) == 1
        assert message.format(train=train) in capsys.readouterr().err
        assert not out_dir.exists()

    def test_repeated_dataset_is_usage_error(self, tmp_path, toy_specs, capsys):
        train, test = toy_specs
        out_dir = tmp_path / "run"
        assert cli.main(["benchmark", "--dataset", f"a,{train},{test}",
                         "--dataset", f"b,{train},{test}", "--dataset", f"a,{train},{test}",
                         "--out-dir", str(out_dir)]) == 1
        assert "--dataset names a twice" in capsys.readouterr().err
        assert not out_dir.exists()


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
        # blank rows are skipped
        spaced, out2 = tmp_path / "spaced.csv", tmp_path / "cd2.json"
        spaced.write_text(table.read_text().replace("\n", "\n\n"))
        assert cli.main(["stats", str(spaced), "--direction", "lower", "--out", str(out2)]) == 0
        assert out2.read_bytes() == out.read_bytes()

    def test_more_than_twenty_methods(self, tmp_path):
        methods = [f"m{j}" for j in range(25)]
        rows = [",".join([f"d{i}", *(str((i * 7 + j * 3) % 25) for j in range(25))])
                for i in range(6)]
        table, out = tmp_path / "t.csv", tmp_path / "cd.json"
        table.write_text("\n".join([",".join(["dataset", *methods]), *rows]) + "\n")
        assert cli.main(["stats", str(table), "--direction", "lower", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["methods"] == methods
        assert d["critical_difference"] == stats.nemenyi_cd(25, 6)

    @pytest.mark.parametrize("text, message", [
        ("dataset,a,b\nd1,0.1,0.2\nd2,0.2,x\n",
         "{table} line 3: could not convert string to float: 'x'"),
        ("dataset,a,b\nd1,0.1,0.2\nd2,0.2\n", "{table} line 3: expected 3 values, got 2"),
        ("dataset,a,b\nd1,0.1,0.2,0.3\nd2,0.2,0.3\n", "{table} line 2: expected 3 values, got 4"),
        ("dataset,a,a\nd1,0.1,0.2\nd2,0.2,0.3\n",
         "{table} line 1: column 'a' named twice in the header"),
        ("", "{table}: no header row"),
        ("dataset,a,b\n", "{table}: no data row after the header"),
        ("dataset,a,b\nd1,0.1,0.2\nd2,0.2,0.3\nd1,0.3,0.1\n",
         "{table} line 4: dataset 'd1' appears twice"),
        ("dataset,a,b\nd1,0.1,nan\nd2,0.2,0.3\n", "{table}: missing or non-finite cells"),
        ("dataset,a\nd1,0.1\nd2,0.2\n", "{table}: need at least 2 methods and 2 datasets"),
        ("dataset,a,b\nd1,0.1,0.2\n", "{table}: need at least 2 methods and 2 datasets"),
    ], ids=["non-numeric", "short-row", "long-row", "repeated-method", "empty", "header-only",
            "repeated-dataset", "nan-cell", "one-method", "one-dataset"])
    def test_malformed_table_is_data_error(self, tmp_path, capsys, text, message):
        table, out = tmp_path / "t.csv", tmp_path / "cd.json"
        table.write_text(text)
        assert cli.main(["stats", str(table), "--direction", "lower", "--out", str(out)]) == 2
        assert message.format(table=table) in capsys.readouterr().err
        assert not out.exists()


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

    def test_data_error_header_only_training_set(self, tmp_path):
        f, l = tmp_path / "f.csv", tmp_path / "l.csv"
        f.write_text("a,b\n")
        l.write_text("y\n")
        arff = tmp_path / "d.arff"
        arff.write_text("@relation r\n@attribute a numeric\n@attribute y {0,1}\n@data\n")
        for spec in (f"{f};{l}", str(f), str(arff)):
            model_path = tmp_path / "m.dmlm"
            assert cli.main(["train", spec, "--labels-last", "1",
                             "--out", str(model_path)]) == 2
            assert not model_path.exists()

    def test_data_error_malformed_arff(self, tmp_path):
        p = tmp_path / "bad.arff"
        p.write_text("@relation r\n@attribute a numeric\n"
                     "@attribute l {0,1}\n@data\n1\n")
        assert cli.main([
            "train", str(p), "--labels-last", "1",
            "--out", str(tmp_path / "m.dmlm"),
        ]) == 2

    @pytest.mark.parametrize("first, second", [("{0,1}", "numeric"), ("numeric", "{0,1}")])
    def test_data_error_attribute_declared_twice(self, tmp_path, capsys, first, second):
        # the manifest names labels a and b; a second 'a' would leave one of
        # them among the features, which predict then drops
        p, xml = tmp_path / "d.arff", tmp_path / "labels.xml"
        p.write_text(f"@relation r\n@attribute x1 numeric\n@attribute x2 numeric\n"
                     f"@attribute a {first}\n@attribute b {{0,1}}\n@attribute a {second}\n"
                     "@data\n0,1,1,0,1\n1,0,0,1,0\n2,2,1,1,0\n")
        xml.write_text('<labels><label name="a"/><label name="b"/></labels>')
        model_path = tmp_path / "m.dmlm"
        assert cli.main(["train", f"{p}@{xml}", "--method", "nn-mlm",
                         "--out", str(model_path)]) == 2
        assert f"{p} line 6: attribute 'a' declared twice" in capsys.readouterr().err
        assert not model_path.exists()

    def test_numerical_error_leverage_one(self, tmp_path):
        # alpha 0 with n == k makes every leverage exactly one
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        spec = write_csv_pair(tmp_path, X, Y, "sing")
        assert cli.main([
            "train", spec, "--alpha", "0.0",
            "--out", str(tmp_path / "m.dmlm"),
        ]) == 3

    @pytest.mark.parametrize("argv", [
        ["train", "{train}", "--alpha", "abc"],
        ["train", "{train}", "--alpha", "-1"],
        ["train", "{train}", "--power", "xyz"],
        ["train", "{train}", "--power", "0"],
        ["predict", "{model}", "{test}", "--threshold", "nope"],
        ["train", "{train}", "--labels-last", "0"],
        ["train", "{train}", "--labels-last", "-1"],
        ["train", "{train}", "--labels-last", "abc"],
    ])
    def test_usage_error_malformed_flag_value(self, tmp_path, toy_specs, capsys, argv):
        train, test = toy_specs
        model = tmp_path / "m.dmlm"
        assert cli.main(["train", train, "--alpha", "0.1", "--out", str(model)]) == 0
        out = tmp_path / "out"
        argv = [a.format(train=train, test=test, model=model) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert f"argument {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    # each file a command reads, with the bytes that make it unreadable (not
    # XML, or a byte that is not UTF-8 on the first line or a later one) or
    # that a dataset refuses, and the text that names it
    UNREADABLE = {
        "manifest": ("bad.xml", b"not xml", ["train", "{features}@{bad}", "--labels-last", "1"],
                     "{bad}"),
        "arff": ("bad.arff", b"\xff\xfe", ["train", "{bad}", "--labels-last", "1"],
                 "{bad}: not UTF-8 text"),
        "csv": ("bad.csv", b"a,y\n1,\xff\n", ["train", "{bad}", "--labels-last", "1"],
                "{bad}: not UTF-8 text"),
        "stats-table": ("bad.csv", b"dataset,a,b\nd1,0.1,0.2\nd2,0.2,\xff\n",
                        ["stats", "{bad}", "--direction", "lower"], "{bad}: not UTF-8 text"),
        "predictions": ("bad.jsonl", b'{"scores": [0.5, 0.5, 0.5], "labels": [1, 0, 1]}\n\xff\n',
                        ["evaluate", "{bad}", "{test}"], "{bad}: not UTF-8 text"),
        "label-2": ("bad.csv", b"a,y\n1,0\n2,2\n3,1\n", ["train", "{bad}", "--labels-last", "1"],
                    "{bad}: label columns must be binary"),
        "header-only": ("bad.csv", b"a,y\n", ["train", "{bad}", "--labels-last", "1"],
                        "{bad}: empty dataset"),
        "row-count": ("bad.csv", b"a\n1\n2\n3\n", ["train", "{bad};{labels}"],
                      "{bad};{labels}: 3 feature rows but 2 label rows"),
        # records of no scores leave no label column to read from the truth file
        "empty-record": ("bad.jsonl", b'{"scores": [], "labels": []}\n' * 2,
                         ["evaluate", "{bad}", "{labels}"], "{bad} line 1: no scores"),
        "empty-record-pair": ("bad.jsonl", b'\n{"scores": [], "labels": []}\n' * 2,
                              ["evaluate", "{bad}", "{test}"], "{bad} line 2: no scores"),
    }

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_data_error_unreadable_file_names_it(self, tmp_path, toy_specs, capsys, case):
        train, test = toy_specs
        name, content, argv, message = self.UNREADABLE[case]
        bad, labels, out = tmp_path / name, tmp_path / "l.csv", tmp_path / "out"
        bad.write_bytes(content)
        labels.write_text("y0,y1\n1,0\n0,1\n")
        paths = {"bad": bad, "labels": labels, "features": train.split(";")[0], "test": test}
        assert cli.main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
        assert message.format(**paths) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ('{"labels": [1, 0, 1]}', "{preds} line 8: not a prediction record (KeyError"),
        ("not json", "{preds} line 8: not a prediction record (JSONDecodeError"),
        ('{"scores": [0.5, 0.5], "labels": [1, 0]}', "{preds} line 8: 2 scores, but line 1 has 3"),
        ('{"scores": [0.5, 0.5, 0.5], "labels": [1, 0, 1, 0]}',
         "{preds} line 8: 4 labels, but line 1 has 3 scores"),
        (None, "predictions {preds} are 7 x 4 but the truth labels of {test} are 7 x 3"),
        ('{"scores": ["a", 0.5, 0.5], "labels": [1, 0, 1]}',
         "{preds} line 8: not a prediction record (ValueError: could not convert string"),
        ('{"scores": [[1], 0.5, 0.5], "labels": [1, 0, 1]}',
         "{preds} line 8: not a prediction record (ValueError: "),
        ('{"scores": [[0.5, 0.5, 0.5]], "labels": [1, 0, 1]}',
         "{preds} line 8: not a prediction record "
         "(ValueError: scores and labels must be lists of numbers)"),
        ('{"scores": [NaN, 0.5, 0.5], "labels": [1, 0, 1]}',
         "{preds} line 8: a score is not finite"),
        ('{"scores": [0.5, 0.5, 0.5], "labels": [2, 0, 1]}',
         "{preds} line 8: a label is not 0 or 1"),
    ], ids=["no-scores", "not-json", "ragged-scores", "ragged-labels", "wider-than-truth",
            "non-numeric-score", "nested-score", "nested-list", "nan-score", "label-2"])
    def test_data_error_bad_prediction_record(self, tmp_path, toy_specs, capsys, line, message):
        train, test = toy_specs
        model, preds = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        cli.main(["predict", str(model), test, "--out", str(preds)])
        if line is None:  # every record one label wider than the truth set
            records = [json.loads(r) for r in preds.read_text().splitlines()]
            preds.write_text("".join(json.dumps(
                {**r, "scores": r["scores"] + [0.5], "labels": r["labels"] + [0]}) + "\n"
                for r in records))
        else:
            with open(preds, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")  # line 8
        report = tmp_path / "r.json"
        assert cli.main(["evaluate", str(preds), test, "--out", str(report)]) == 2
        assert message.format(preds=preds, test=test) in capsys.readouterr().err
        assert not report.exists()

    def test_blank_prediction_lines_skipped(self, tmp_path, toy_specs):
        train, test = toy_specs
        model, preds, spaced = tmp_path / "m.dmlm", tmp_path / "p.jsonl", tmp_path / "s.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        cli.main(["predict", str(model), test, "--out", str(preds)])
        spaced.write_text("\n" + preds.read_text().replace("\n", "\n \n"))
        reports = [tmp_path / "r.json", tmp_path / "r_spaced.json"]
        for p, report in zip((preds, spaced), reports):
            assert cli.main(["evaluate", str(p), test, "--out", str(report)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_data_error_no_prediction_records(self, tmp_path, toy_specs, capsys):
        _, test = toy_specs
        preds, report = tmp_path / "p.jsonl", tmp_path / "r.json"
        preds.write_text("\n  \n")
        assert cli.main(["evaluate", str(preds), test, "--out", str(report)]) == 2
        assert f"{preds}: no prediction records" in capsys.readouterr().err
        assert not report.exists()

    def test_data_error_directory_input(self, tmp_path, toy_specs, capsys):
        train, _ = toy_specs
        model, out = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        assert cli.main(["predict", str(model), str(tmp_path), "--out", str(out)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", [2, 4])
    def test_data_error_predict_input_of_other_width_names_it(self, tmp_path, toy_specs,
                                                              capsys, width):
        train, _ = toy_specs
        model, te, out = tmp_path / "m.dmlm", tmp_path / "te.csv", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        te.write_text(",".join(f"f{j}" for j in range(width)) + "\n" + "0.5," * (width - 1) + "1\n")
        assert cli.main(["predict", str(model), str(te), "--out", str(out)]) == 2
        assert (f"data error: {te}: {width} feature columns, but the model takes 3"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("header, message", [
        ("f0,x,f2", "feature column 2 is 'x', but the model's is 'f1'"),
        ("f0,f2,f1", "feature column 2 is 'f2', but the model's is 'f1'"),
        ("F0,f1,f2", "feature column 1 is 'F0', but the model's is 'f0'"),
    ], ids=["renamed", "reordered", "case"])
    def test_data_error_predict_input_of_other_names_names_the_column(
            self, tmp_path, toy_specs, capsys, header, message):
        train, _ = toy_specs
        model, te, out = tmp_path / "m.dmlm", tmp_path / "te.csv", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        te.write_text(header + "\n0.5,0.5,1\n")
        assert cli.main(["predict", str(model), str(te), "--out", str(out)]) == 2
        assert f"data error: {te}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_feature_names_checks_the_width_only(self, tmp_path, toy_specs):
        train, _ = toy_specs
        ds = dataio.load_dataset(train)
        model, te, out = tmp_path / "m.dmlm", tmp_path / "te.csv", tmp_path / "p.jsonl"
        modelio.save_model(model, models.train(ds.features, ds.labels, alpha_mode=0.1))
        te.write_text("a,b,c\n0.5,0.5,1\n")
        assert cli.main(["predict", str(model), str(te), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_data_error_unknown_method_in_model(self, tmp_path, toy_specs, capsys):
        train, test = toy_specs
        model, out = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--method", "nn-mlm", "--alpha", "0.1",
                  "--out", str(model)])
        rewrite(model, lambda manifest, arrays: manifest.update(method="foo"))
        assert cli.main(["predict", str(model), test, "--out", str(out)]) == 2
        assert "unknown method 'foo'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("P", "t", "alpha")
          for value in (None, "x", float("nan"), float("inf"))),
        ("P", 0), ("P", -1), ("label_names", 5), ("label_names", ["x"]),
    ])
    def test_data_error_bad_manifest_field(self, tmp_path, toy_specs, capsys, field, value):
        train, test = toy_specs
        model, out = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--alpha", "0.1", "--out", str(model)])
        rewrite(model, lambda manifest, arrays: manifest.update({field: value}))
        assert cli.main(["predict", str(model), test, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(model) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_data_error_dimensions_not_an_object(self, tmp_path, toy_specs, capsys):
        train, test = toy_specs
        model, out = tmp_path / "m.dmlm", tmp_path / "p.jsonl"
        cli.main(["train", train, "--method", "nn-mlm", "--alpha", "0.1", "--out", str(model)])
        rewrite_manifest(model, lambda manifest: manifest.update(
            dimensions=list(manifest["dimensions"].items())))
        assert cli.main(["predict", str(model), test, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(model) in err
        assert "Traceback" not in err
        assert not out.exists()
