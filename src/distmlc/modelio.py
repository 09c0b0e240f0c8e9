"""Model files, and the code behind each method name.

RECORDS names the four methods a model file may hold and the record each one
holds; method_functions gives each one's trainer and decoder.

A model file is a zip archive holding a versioned JSON manifest plus
row-major little-endian float64 blobs for each array. Writing is fully
deterministic (fixed timestamps, fixed member order), so retraining on
identical inputs yields byte-identical files, and load(save(m)) gives
bit-identical predictions. Loaded arrays are read-only views of the bytes
read from the file, except references stored as CSR or laid out column-major
(below), which are read-only copies. This module checks the format
version, the method name, the array shapes ("dimensions", a JSON object) and
blob sizes, the references' layout and CSR blobs, and that every scaler entry
is a JSON number (not a bool or a string); the record checks the rest of the
model, its scaler included, when load_model builds it, as when training does.

Format 5 keeps the U unique training label vectors (train_labels) and
their counts (label_counts); coefficients are K x U and br-mlm's
label_coefficients 2 x K x L. The K x M references are stored dense, or, when
that is smaller (8 (K + 1 + 2 nnz) < 8 K M bytes), as CSR: references_indptr
(K + 1 row starts), references_indices (the column of each nonzero, increasing
within a row) and references_values, all float64. The manifest's
"references_layout" says which ("dense" or "csr"). load_model lays the loaded
references out in models.reference_order: it fills the dense matrix straight
from CSR blobs, with no second K x M copy, and copies a dense blob only when
that order is column-major. A -0.0 entry is a zero to CSR and loads as 0.0,
which has the same distances. The
manifest's "scale" holds the record's scaler, each feature's minimum and span
({"min": [...], "span": [...]}), or null when the features were not scaled;
"label_names" and "feature_names" are empty or one name per column. Files of
an earlier format (1 held all N label vectors, 2 an L x K x U br-mlm stack, 3
no scaler, 4 dense references and no feature names) are refused with a request
to retrain.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

from . import models, tuning
from .linalg import integer_valued
from .models import BrMlmModel, DistanceModel, TunedMlMlm, base_model, reference_order

FORMAT_VERSION = 5
# the methods a model file may name, and the record each one's file holds
RECORDS = {"ml-mlm": TunedMlMlm, "nn-mlm": DistanceModel, "lls-mlm": DistanceModel,
           "br-mlm": BrMlmModel}
METHODS = tuple(RECORDS)
_EPOCH = (1980, 1, 1, 0, 0, 0)


class ModelFileError(ValueError):
    """Unreadable or incompatible model file."""


def save_model(path, model, method: str) -> None:
    """Serialize a trained model under its method name. A model that is not the
    record of its method (RECORDS) is refused before a byte is written."""
    if type(model) is not RECORDS.get(method):
        raise ValueError(f"cannot save a {type(model).__name__} as a {method!r} model")
    base = base_model(model)
    arrays = {"references": base.references, "coefficients": base.coefficients,
              "train_labels": base.train_labels, "label_counts": base.label_counts}
    if method == "br-mlm":
        arrays["label_coefficients"] = model.label_coefficients
    tuned = method == "ml-mlm"
    refs = base.references
    (K, M), nnz = refs.shape, np.count_nonzero(refs)
    layout = "csr" if K + 1 + 2 * nnz < K * M else "dense"
    blobs = dict(arrays)
    if layout == "csr":
        del blobs["references"]
        rows, cols = np.nonzero(refs)  # a C-order scan: columns increase within a row
        blobs.update(references_indptr=np.append(0, np.cumsum(np.bincount(rows, minlength=K))),
                     references_indices=cols, references_values=refs[rows, cols])
    manifest = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "P": model.power if tuned else None,
        "t": model.threshold if tuned else None,
        "alpha": base.alpha,
        "dimensions": {name: list(a.shape) for name, a in arrays.items()},
        "references_layout": layout,
        "label_names": list(base.label_names),
        "feature_names": list(base.feature_names),
        "scale": None if base.scale is None else {"min": base.scale[0].tolist(),
                                                  "span": base.scale[1].tolist()},
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("manifest.json", date_time=_EPOCH),
                    json.dumps(manifest, sort_keys=True, indent=1))
        for name in sorted(blobs):
            zf.writestr(zipfile.ZipInfo(name + ".f64", date_time=_EPOCH),
                        np.ascontiguousarray(blobs[name], dtype="<f8").tobytes())


def method_functions(method: str):
    """(train, predict) of a method: train(X, Y, alpha_mode=, label_names=, scale=,
    feature_names=[, power_mode=]) and predict(model, x[, threshold=]), the brackets for ml-mlm only.
    Built on each call, so that a function rebound in its module after import is the
    one returned."""
    return {
        "ml-mlm": (tuning.tune_ml_mlm, models.ml_mlm_predict),
        "nn-mlm": (models.train, models.nn_mlm_predict),
        "lls-mlm": (models.train, models.lls_mlm_predict),
        "br-mlm": (models.train_br, models.br_mlm_predict),
    }[method]


def _blob(zf, name) -> np.ndarray:
    """A read-only 1-D view of the bytes of a float64 blob."""
    return np.frombuffer(zf.read(name + ".f64"), dtype="<f8")


def _references(zf, shape, layout) -> np.ndarray:
    """The read-only K x M references of a model file, in models.reference_order,
    from its dense blob or its CSR blobs; CSR blobs that do not make a K x M
    matrix are refused."""
    if layout == "dense":
        view = _blob(zf, "references").reshape(shape)
        refs = np.asarray(view, order=reference_order(view))
        refs.flags.writeable = False
        return refs
    if layout != "csr":
        raise ValueError(f"unknown references_layout {layout!r}")
    indptr, indices, values = (_blob(zf, "references_" + part)
                               for part in ("indptr", "indices", "values"))
    (K, M), nnz = shape, values.size
    if K < 0 or indptr.size != K + 1 or indices.size != nnz:
        raise ValueError(f"references CSR blobs hold {indptr.size} row starts for {K} rows "
                         f"and {indices.size} indices for {nnz} values")
    if not (integer_valued(indptr) and indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
            and indptr[-1] == nnz):
        raise ValueError(f"references_indptr must be whole numbers rising from 0 to {nnz}")
    if not (integer_valued(indices) and np.all((indices >= 0) & (indices < M))):
        raise ValueError(f"references_indices must be whole numbers in [0, {M})")
    rows = np.repeat(np.arange(K), np.diff(indptr).astype(np.int64))
    cols = indices.astype(np.int64)
    if not np.all((np.diff(cols) > 0) | (np.diff(rows) > 0)):
        raise ValueError("references_indices must increase within each row")
    refs = np.zeros(shape, order=reference_order(values))
    refs[rows, cols] = values
    refs.flags.writeable = False
    return refs


def load_model(path):
    """Read a model file back; returns (model object, manifest dict). The record
    checks its own arrays and numbers when it is built, so any fault in the file
    raises ModelFileError naming it."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            version = manifest["format_version"]
            if version in (1, 2, 3, 4):
                raise ValueError(
                    f"it is a format {version} model file, which this version of distmlc "
                    f"no longer reads; retrain the model to write format {FORMAT_VERSION}")
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported format_version {version}")
            method = manifest["method"]
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
            dimensions = manifest["dimensions"]
            if not isinstance(dimensions, dict):
                raise ValueError("dimensions must be a JSON object of blob shapes")
            # the other arrays are read-only views of the bytes read, not copies;
            # reshape refuses a blob whose size does not fit its shape
            arrays = {name: _references(zf, shape, manifest["references_layout"])
                      if name == "references" else _blob(zf, name).reshape(shape)
                      for name, shape in dimensions.items()}
        # JSON lists; the record holds tuples, and refuses anything else
        names = {field: manifest[field] for field in ("label_names", "feature_names")}
        scale = manifest["scale"]
        if scale is not None:
            scale = [scale["min"], scale["span"]]
            if any(type(v) not in (int, float) for row in scale for v in row):
                raise ValueError("scale minima and spans must be JSON numbers")
        base = DistanceModel(
            references=arrays["references"],
            coefficients=arrays["coefficients"],
            alpha=manifest["alpha"],
            train_labels=arrays["train_labels"],
            label_counts=arrays["label_counts"],
            scale=None if scale is None else np.array(scale, dtype=np.float64),
            **{field: tuple(v) if isinstance(v, list) else v for field, v in names.items()},
        )
        if method == "ml-mlm":
            model = TunedMlMlm(model=base, power=manifest["P"], threshold=manifest["t"],
                               lrl_curve=())
        elif method == "br-mlm":
            model = BrMlmModel(base=base, label_coefficients=arrays["label_coefficients"])
        else:
            model = base
    # MemoryError: CSR blobs are small, but their shape may ask for any size
    except (KeyError, TypeError, ValueError, MemoryError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return model, manifest
