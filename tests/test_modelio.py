import json
import zipfile

import numpy as np
import pytest

from distmlc import modelio, models, tuning

from conftest import random_problem, rewrite


@pytest.fixture
def problem():
    rng = np.random.default_rng(101)
    return random_problem(rng, n=15, m=3, l=3)


class TestRoundTrip:
    def test_ml_mlm_bit_identical_predictions(self, problem, tmp_path):
        X, Y = problem
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, tuned, "ml-mlm")
        loaded, manifest = modelio.load_model(p)
        assert manifest["method"] == "ml-mlm"
        assert loaded.power == tuned.power
        assert loaded.threshold == tuned.threshold
        base = loaded.model
        for arr in (base.references, base.coefficients, base.train_labels):
            assert not arr.flags.writeable
        for x in X[:5]:
            a = models.ml_mlm_predict(tuned, x)
            b = models.ml_mlm_predict(loaded, x)
            assert (a.scores == b.scores).all()
            assert (a.labels == b.labels).all()
            assert a.min_distance == b.min_distance

    def test_br_mlm_round_trip(self, problem, tmp_path):
        X, Y = problem
        model = models.train_br(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model, "br-mlm")
        loaded, _ = modelio.load_model(p)
        assert not loaded.label_coefficients.flags.writeable
        assert not loaded.base.coefficients.flags.writeable
        a = models.br_mlm_predict(model, X[0])
        b = models.br_mlm_predict(loaded, X[0])
        assert (a.scores == b.scores).all()
        assert (a.labels == b.labels).all()

    def test_plain_model_round_trip(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1, label_names=("a", "b", "c"))
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model, "nn-mlm")
        loaded, _ = modelio.load_model(p)
        assert loaded.label_names == ("a", "b", "c")
        assert (loaded.coefficients == model.coefficients).all()


@pytest.mark.parametrize("method", modelio.METHODS)
def test_every_method_predicts_the_same_after_save_and_load(problem, tmp_path, method):
    X, Y = problem
    train, predict = modelio.method_functions(method)
    model = train(X, Y, alpha_mode=0.1, label_names=("a", "b", "c"))
    p = tmp_path / "m.dmlm"
    modelio.save_model(p, model, method)
    loaded, manifest = modelio.load_model(p)
    assert manifest["method"] == method
    for x in (X, X[0]):
        a, b = predict(model, x), predict(loaded, x)
        for field in ("scores", "labels", "min_distance", "uncertainty"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_ml_mlm_fixed_threshold_keeps_scores(problem):
    X, Y = problem
    tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
    stored = models.ml_mlm_predict(tuned, X)
    assert np.array_equal(models.ml_mlm_predict(tuned, X, threshold="cardinality").labels,
                          stored.labels)
    for t in (0.0, float(np.median(stored.scores)), 0.5, 1.0):
        fixed = models.ml_mlm_predict(tuned, X, threshold=t)
        assert np.array_equal(fixed.scores, stored.scores)
        assert np.array_equal(fixed.labels, stored.scores > t)
    with pytest.raises(ValueError, match="threshold is cardinality, local-rcut or a float"):
        models.ml_mlm_predict(tuned, X, threshold="local_rcut")


class TestDeterminism:
    def test_same_model_same_bytes(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1)
        a = tmp_path / "a.dmlm"
        b = tmp_path / "b.dmlm"
        modelio.save_model(a, model, "nn-mlm")
        modelio.save_model(b, model, "nn-mlm")
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_not_a_zip(self, tmp_path):
        p = tmp_path / "junk.dmlm"
        p.write_bytes(b"not a model")
        with pytest.raises(modelio.ModelFileError):
            modelio.load_model(p)

    def test_wrong_version(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model, "nn-mlm")
        # rewrite the manifest with a bumped version
        with zipfile.ZipFile(p) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            blobs = {n: zf.read(n) for n in zf.namelist() if n != "manifest.json"}
        manifest["format_version"] = 99
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", json.dumps(manifest))
            for n, raw in blobs.items():
                zf.writestr(n, raw)
        with pytest.raises(modelio.ModelFileError):
            modelio.load_model(p)

    def test_truncated_blob(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model, "nn-mlm")
        with zipfile.ZipFile(p) as zf:
            manifest_raw = zf.read("manifest.json")
            blobs = {n: zf.read(n) for n in zf.namelist() if n != "manifest.json"}
        name = "references.f64"
        blobs[name] = blobs[name][:-8]
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", manifest_raw)
            for n, raw in blobs.items():
                zf.writestr(n, raw)
        with pytest.raises(modelio.ModelFileError):
            modelio.load_model(p)


class TestValidation:
    """load_model refuses a file whose arrays do not make a consistent model."""

    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(102)
        X, Y = random_problem(rng, n=16, m=3, l=3)
        Y[1] = Y[0]  # fewer unique label vectors (U) than rows
        X[1] = X[0]  # and fewer references (K)
        model = models.train_br(X, Y, alpha_mode=0.1)
        assert model.label_coefficients.shape[1] != model.label_coefficients.shape[2]  # K != L
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model, "br-mlm")
        return p

    def assert_refused(self, path, edit, match):
        modelio.load_model(path)  # the unedited file loads
        rewrite(path, edit)
        with pytest.raises(modelio.ModelFileError, match=match):
            modelio.load_model(path)

    def test_coefficients_not_k_by_u(self, saved):
        def edit(manifest, arrays):
            arrays["coefficients"] = arrays["coefficients"][:, :-1]
        self.assert_refused(saved, edit, "coefficients")

    def test_train_labels_not_binary(self, saved):
        def edit(manifest, arrays):
            arrays["train_labels"][0, 0] = 0.5
        self.assert_refused(saved, edit, "train_labels")

    def test_train_labels_wrong_width(self, saved):
        def edit(manifest, arrays):
            arrays["train_labels"] = arrays["train_labels"][:, :-1]
        self.assert_refused(saved, edit, "label_coefficients")

    @pytest.mark.parametrize("bad", [0.0, 1.5, -2.0])
    def test_label_counts_not_positive_whole(self, saved, bad):
        def edit(manifest, arrays):
            arrays["label_counts"][0] = bad
        self.assert_refused(saved, edit, "label_counts")

    def test_label_counts_wrong_length(self, saved):
        def edit(manifest, arrays):
            arrays["label_counts"] = arrays["label_counts"][:-1]
        self.assert_refused(saved, edit, "label_counts")

    def test_label_coefficients_not_2_by_k_by_l(self, saved):
        def edit(manifest, arrays):
            arrays["label_coefficients"] = arrays["label_coefficients"].transpose(0, 2, 1)
        self.assert_refused(saved, edit, "label_coefficients")

    def test_label_coefficients_missing(self, saved):
        def edit(manifest, arrays):
            del arrays["label_coefficients"]
        self.assert_refused(saved, edit, "label_coefficients")

    def test_unknown_method(self, saved):
        def edit(manifest, arrays):
            manifest["method"] = "foo"
        self.assert_refused(saved, edit, "unknown method 'foo'")

    @pytest.mark.parametrize("blob", ["references", "coefficients", "label_coefficients"])
    def test_non_finite_blob(self, saved, blob):
        def edit(manifest, arrays):
            arrays[blob].flat[3] = np.nan
        self.assert_refused(saved, edit, "non-finite")

    @pytest.mark.parametrize("scale, match", [
        ({"min": [0.0, 0.0], "span": [1.0, 1.0]}, "scale"),  # M = 3 features
        ({"min": [0.0, float("nan"), 0.0], "span": [1.0, 1.0, 1.0]}, "scale"),
        ({"min": [0.0, 0.0, 0.0], "span": [1.0, 0.0, 1.0]}, "scale"),
        ({"min": ["x", 0.0, 0.0], "span": [1.0, 1.0, 1.0]}, "cannot read"),
    ])
    def test_bad_scale(self, saved, scale, match):
        def edit(manifest, arrays):
            manifest["scale"] = scale
        self.assert_refused(saved, edit, match)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_format_1_asks_to_retrain(self, saved, version):
        def edit(manifest, arrays):
            manifest["format_version"] = version
            del manifest["scale"]  # stored since format 4
            if version == 1:  # all N label vectors, no label_counts
                del arrays["label_counts"]
            elif version == 2:  # an L x K x U br-mlm stack
                (K, U), L = arrays["coefficients"].shape, arrays["train_labels"].shape[1]
                arrays["label_coefficients"] = np.zeros((L, K, U))
        self.assert_refused(saved, edit, "retrain")
