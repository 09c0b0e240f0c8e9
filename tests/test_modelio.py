import zipfile

import numpy as np
import pytest

from distmlc import modelio, models, tuning

from conftest import random_problem


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
        modelio.save_model(p, model, "nn-mlm", fingerprint="abc123")
        loaded, manifest = modelio.load_model(p)
        assert manifest["dataset_fingerprint"] == "abc123"
        assert loaded.label_names == ("a", "b", "c")
        assert (loaded.coefficients == model.coefficients).all()


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
        import json

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
        import json

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


class TestFingerprint:
    def test_sensitive_to_content_and_shape(self):
        X = np.arange(6.0).reshape(3, 2)
        Y = np.eye(3)
        base = modelio.dataset_fingerprint(X, Y)
        assert modelio.dataset_fingerprint(X, Y) == base
        assert modelio.dataset_fingerprint(X + 1e-12, Y) != base
        assert modelio.dataset_fingerprint(X.reshape(2, 3), Y) != base
