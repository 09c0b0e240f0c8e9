import json
import re
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from distmlc import modelio, models, tuning

from conftest import random_problem, rewrite, rewrite_manifest


@pytest.fixture
def problem():
    rng = np.random.default_rng(101)
    return random_problem(rng, n=15, m=3, l=3)


def sparse_problem(rng, integer: bool, n=15, m=20, l=3):
    """random_problem's labels with 15 % of m features nonzero: small integers,
    or normal floats."""
    _, Y = random_problem(rng, n=n, m=3, l=l)
    values = rng.integers(1, 4, size=(n, m)) if integer else rng.normal(size=(n, m))
    return np.where(rng.random((n, m)) < 0.15, values, 0.0), Y


class TestRoundTrip:
    def test_ml_mlm_bit_identical_predictions(self, problem, tmp_path):
        X, Y = problem
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, tuned)
        loaded, manifest = modelio.load_model(p)
        assert manifest["method"] == "ml-mlm"
        assert loaded.power == tuned.power
        assert loaded.threshold == tuned.threshold
        for arr in (loaded.references, loaded.coefficients, loaded.train_labels):
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
        modelio.save_model(p, model)
        loaded, _ = modelio.load_model(p)
        assert not loaded.label_coefficients.flags.writeable
        assert not loaded.coefficients.flags.writeable
        a = models.br_mlm_predict(model, X[0])
        b = models.br_mlm_predict(loaded, X[0])
        assert (a.scores == b.scores).all()
        assert (a.labels == b.labels).all()

    def test_plain_model_round_trip(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1, label_names=("a", "b", "c"))
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model)
        loaded, _ = modelio.load_model(p)
        assert loaded.label_names == ("a", "b", "c")
        assert (loaded.coefficients == model.coefficients).all()


@pytest.mark.parametrize("method", modelio.METHODS)
def test_every_method_predicts_the_same_after_save_and_load(problem, tmp_path, method):
    rng = np.random.default_rng(104)
    # each problem, with the references' layout on disk and their memory order
    for X, Y, layout, order in [(*sparse_problem(rng, integer=True), "csr", "F"),
                                (*sparse_problem(rng, integer=False), "csr", "C"),
                                (*problem, "dense", "C")]:
        check_save_and_load(method, X, Y, layout, order, tmp_path / f"{layout}-{order}.dmlm")


def check_save_and_load(method, X, Y, layout, order, p):
    train, predict = modelio.method_functions(method)
    names = tuple(f"x{j}" for j in range(X.shape[1]))
    model = train(X, Y, alpha_mode=0.1, label_names=("a", "b", "c"), feature_names=names)
    modelio.save_model(p, model)
    loaded, manifest = modelio.load_model(p)
    assert manifest["method"] == method
    assert manifest["references_layout"] == layout
    assert loaded.feature_names == names
    refs = model.references
    assert np.array_equal(loaded.references, refs)
    flag = {"F": "F_CONTIGUOUS", "C": "C_CONTIGUOUS"}[order]
    assert refs.flags[flag] and loaded.references.flags[flag]
    assert not refs.flags.c_contiguous or not refs.flags.f_contiguous  # K, M > 1
    assert not loaded.references.flags.writeable
    with zipfile.ZipFile(p) as zf:
        if layout == "dense":  # the row-major bytes of format 4
            assert zf.read("references.f64") == np.ascontiguousarray(refs, "<f8").tobytes()
        else:
            assert "references.f64" not in zf.namelist()
            assert {"references_indptr.f64", "references_indices.f64",
                    "references_values.f64"} <= set(zf.namelist())
    for x in (X, X[0]):
        a, b = predict(model, x), predict(loaded, x)
        for field in ("scores", "labels", "min_distance", "uncertainty"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_sparse_model_file_is_smaller_than_its_dense_references(tmp_path):
    X, Y = sparse_problem(np.random.default_rng(105), integer=True, n=40, m=60)
    model = models.train_br(X, Y, alpha_mode=0.1)
    p = tmp_path / "m.dmlm"
    modelio.save_model(p, model)
    assert p.stat().st_size < model.references.nbytes
    loaded, _ = modelio.load_model(p)
    assert np.array_equal(loaded.references, X[models.first_seen(X)[0]])


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
        modelio.save_model(a, model)
        modelio.save_model(b, model)
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
        modelio.save_model(p, model)
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

    @pytest.mark.parametrize("manifest", ["[1, 2]", '"x"', "4", "{}"])
    def test_manifest_not_a_format_4_object(self, tmp_path, manifest):
        p = tmp_path / "m.dmlm"
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", manifest)
        with pytest.raises(modelio.ModelFileError, match="cannot read model file") as err:
            modelio.load_model(p)
        assert str(p) in str(err.value)

    def test_truncated_blob(self, problem, tmp_path):
        X, Y = problem
        model = models.train(X, Y, alpha_mode=0.1)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model)
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
        modelio.save_model(p, model)
        return p

    @pytest.fixture
    def saved_ml(self, tmp_path):
        X, Y = random_problem(np.random.default_rng(103), n=16, m=3, l=3)
        p = tmp_path / "ml.dmlm"
        modelio.save_model(p, tuning.tune_ml_mlm(X, Y, alpha_mode=0.1))
        return p

    @pytest.fixture
    def saved_csr(self, tmp_path):
        X, Y = sparse_problem(np.random.default_rng(106), integer=True)
        p = tmp_path / "csr.dmlm"
        modelio.save_model(p, models.train(X, Y, alpha_mode=0.1))
        return p

    def assert_refused(self, path, edit, match):
        modelio.load_model(path)  # the unedited file loads
        rewrite(path, edit)
        with pytest.raises(modelio.ModelFileError) as err:
            modelio.load_model(path)
        assert str(path) in str(err.value)
        # the path holds the test's name, so match the message without it
        assert re.search(match, str(err.value).replace(str(path), "PATH")), str(err.value)

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

    def test_negative_infinity_in_references(self, saved):
        def edit(manifest, arrays):
            arrays["references"][0, 0] = -np.inf
        self.assert_refused(saved, edit, "references contain non-finite values")

    @pytest.mark.parametrize("scale, match", [
        ({"min": [0.0, 0.0], "span": [1.0, 1.0]}, "scale"),  # M = 3 features
        ({"min": [0.0, float("nan"), 0.0], "span": [1.0, 1.0, 1.0]}, "scale"),
        ({"min": [0.0, 0.0, 0.0], "span": [1.0, 0.0, 1.0]}, "scale"),
        ({"min": ["x", 0.0, 0.0], "span": [1.0, 1.0, 1.0]}, "cannot read"),
        # a JSON true or false, or a numeric string, is not a number
        ({"min": [True, False, 0.0], "span": [1.0, 1.0, 1.0]}, "JSON numbers"),
        ({"min": [0.0, 0.0, 0.0], "span": [True, 2.0, 3.0]}, "JSON numbers"),
        ({"min": ["0", "1", "2"], "span": [1.0, 1.0, 1.0]}, "JSON numbers"),
    ])
    def test_bad_scale(self, saved, scale, match):
        def edit(manifest, arrays):
            manifest["scale"] = scale
        self.assert_refused(saved, edit, match)

    def test_unknown_references_layout(self, saved_csr):
        def edit(manifest, arrays):
            manifest["references_layout"] = "coo"
        self.assert_refused(saved_csr, edit, "unknown references_layout 'coo'")

    @pytest.mark.parametrize("blob, cut", [("indptr", 1), ("indices", 1), ("values", 1),
                                           ("indices", -1)])
    def test_csr_blob_of_the_wrong_length(self, saved_csr, blob, cut):
        def edit(manifest, arrays):
            a = arrays["references_" + blob]
            arrays["references_" + blob] = a[:-cut] if cut > 0 else np.append(a, 0.0)
        self.assert_refused(saved_csr, edit, "references CSR blobs hold")

    @pytest.mark.parametrize("fault", ["start", "decrease", "end", "fraction", "nan"])
    def test_csr_indptr_not_rising_from_0_to_nnz(self, saved_csr, fault):
        def edit(manifest, arrays):
            indptr = arrays["references_indptr"]
            if fault == "start":
                indptr[0] = 1
            elif fault == "decrease":  # row 1 ends before it starts
                indptr[1] = indptr[2] + 1
            elif fault == "end":
                indptr[-1] -= 1
            else:
                indptr[1] += 0.5 if fault == "fraction" else np.nan
        self.assert_refused(saved_csr, edit, "references_indptr must be whole numbers rising")

    @pytest.mark.parametrize("bad", [0.5, -1.0, 20.0, np.nan], ids=["fraction", "negative",
                                                                     "M", "NaN"])
    def test_csr_index_not_a_column(self, saved_csr, bad):
        def edit(manifest, arrays):
            arrays["references_indices"][-1] = bad  # M = 20 columns
        self.assert_refused(saved_csr, edit, r"references_indices must be whole numbers in \[0, 20\)")

    def test_csr_shape_too_large_to_allocate(self, saved_csr):
        def edit(manifest, arrays):
            manifest["dimensions"]["references"][1] = 10**15  # 8 PB a row: fails at once
        self.assert_refused(saved_csr, edit, "Unable to allocate")

    @pytest.mark.parametrize("fault", ["repeat", "swap"])
    def test_csr_indices_not_increasing_in_a_row(self, saved_csr, fault):
        def edit(manifest, arrays):
            indptr, indices = arrays["references_indptr"], arrays["references_indices"]
            k = int(np.flatnonzero(np.diff(indptr) >= 2)[0])  # a row of two nonzeros or more
            a = int(indptr[k])
            if fault == "repeat":
                indices[a + 1] = indices[a]
            else:
                indices[a], indices[a + 1] = indices[a + 1], indices[a]
        self.assert_refused(saved_csr, edit, "references_indices must increase within each row")

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_format_1_asks_to_retrain(self, saved, version):
        def edit(manifest, arrays):
            manifest["format_version"] = version
            del manifest["references_layout"], manifest["feature_names"]  # since format 5
            if version < 4:
                del manifest["scale"]  # stored since format 4
            if version == 1:  # all N label vectors, no label_counts
                del arrays["label_counts"]
            elif version == 2:  # an L x K x U br-mlm stack
                (K, U), L = arrays["coefficients"].shape, arrays["train_labels"].shape[1]
                arrays["label_coefficients"] = np.zeros((L, K, U))
        self.assert_refused(saved, edit, "retrain the model to write format 5")

    # a JSON true or false is a bool, which Python counts as the int 1 or 0
    @pytest.mark.parametrize("value", [None, "x", float("nan"), float("inf"), True, False],
                             ids=["null", "string", "NaN", "Infinity", "true", "false"])
    @pytest.mark.parametrize("field, match", [("P", "power P"), ("t", "threshold t"),
                                              ("alpha", "alpha")])
    def test_manifest_number_not_finite(self, saved_ml, field, match, value):
        def edit(manifest, arrays):
            manifest[field] = value
        self.assert_refused(saved_ml, edit, f"{match} must be a finite number")

    @pytest.mark.parametrize("value", [0, -1])
    def test_power_not_positive(self, saved_ml, value):
        def edit(manifest, arrays):
            manifest["P"] = value
        self.assert_refused(saved_ml, edit, "power P must be a finite number > 0")

    def test_alpha_negative(self, saved_ml):
        def edit(manifest, arrays):
            manifest["alpha"] = -0.1
        self.assert_refused(saved_ml, edit, "alpha must be a finite number >= 0")

    def test_dimensions_not_an_object(self, saved):
        modelio.load_model(saved)
        rewrite_manifest(saved, lambda manifest: manifest.update(
            dimensions=[[name, shape] for name, shape in manifest["dimensions"].items()]))
        with pytest.raises(modelio.ModelFileError, match="dimensions must be a JSON object") as err:
            modelio.load_model(saved)
        assert str(saved) in str(err.value)

    @pytest.mark.parametrize("names", [5, "abc", ["x"], ["a", "b", 3]])
    def test_bad_label_names(self, saved, names):
        def edit(manifest, arrays):
            manifest["label_names"] = names
        self.assert_refused(saved, edit, "label_names must be empty or 3 strings")

    @pytest.mark.parametrize("names", [5, "abc", ["x"], ["a", "b", 3]])
    def test_bad_feature_names(self, saved, names):
        def edit(manifest, arrays):
            manifest["feature_names"] = names
        self.assert_refused(saved, edit, "feature_names must be empty or 3 strings")


class TestRecordRefusesAnotherMethodsFields:
    """A record names its method and holds that method's fields, so a model
    cannot be saved under another method's name: relabelling a record refuses
    a method whose fields it lacks, as does an unknown method."""

    @pytest.mark.parametrize("train, method, match", [
        (models.train_br, "ml-mlm", "power P"),
        (tuning.tune_ml_mlm, "br-mlm", "label_coefficients"),
        (models.train, "lls-mlm-x", "unknown method 'lls-mlm-x'"),
    ], ids=["train_br-ml-mlm", "tune_ml_mlm-br-mlm", "train-lls-mlm-x"])
    def test_relabelled_record_refused(self, problem, train, method, match):
        X, Y = problem
        model = train(X, Y, alpha_mode=0.1)
        with pytest.raises(ValueError, match=match):
            replace(model, method=method)

    @pytest.mark.parametrize("make, method", [
        (lambda X, Y: replace(tuning.tune_ml_mlm(X, Y, alpha_mode=0.1), method="nn-mlm"),
         "nn-mlm"),
        (lambda X, Y: models.train(X, Y, alpha_mode=0.1, method="lls-mlm"), "lls-mlm"),
    ], ids=["tune_ml_mlm-nn-mlm", "train-lls-mlm"])
    def test_saved_under_the_records_method(self, problem, tmp_path, make, method):
        """A tuned record relabelled nn-mlm is an nn-mlm record: its file holds no
        P or t. An lls-mlm fit saves and loads as lls-mlm."""
        X, Y = problem
        model = make(X, Y)
        p = tmp_path / "m.dmlm"
        modelio.save_model(p, model)
        loaded, manifest = modelio.load_model(p)
        assert (manifest["method"], manifest["P"], manifest["t"]) == (method, None, None)
        assert (loaded.method, loaded.power, loaded.threshold) == (method, None, None)
        decode = modelio.method_functions(method)[1]
        assert np.array_equal(decode(model, X).labels, decode(loaded, X).labels)


@pytest.mark.parametrize("method", ["ml-mlm", "br-mlm"])
def test_loaded_record_keeps_the_benchmarks_read_paths(problem, tmp_path, method):
    """perfbench/run.py reads a loaded model's .model.coefficients (ml-mlm), and
    .base.coefficients and .label_coefficients (br-mlm). ROADMAP item 2a deletes
    this test together with the .model and .base aliases."""
    X, Y = problem
    model = modelio.method_functions(method)[0](X, Y, alpha_mode=0.1)
    p = tmp_path / "m.dmlm"
    modelio.save_model(p, model)
    loaded, manifest = modelio.load_model(p)
    assert manifest["method"] == method
    assert loaded.model.coefficients is loaded.coefficients
    assert loaded.base.coefficients is loaded.coefficients
    if method == "br-mlm":
        assert np.array_equal(loaded.label_coefficients, model.label_coefficients)
    else:
        assert loaded.label_coefficients is None
