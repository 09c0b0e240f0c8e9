"""Model files, and the code behind each method name.

RECORDS names the four methods a model file may hold and the record each one
holds; method_functions gives each one's trainer and decoder.

A model file is a zip archive holding a versioned JSON manifest plus
row-major little-endian float64 blobs for each array. Writing is fully
deterministic (fixed timestamps, fixed member order), so retraining on
identical inputs yields byte-identical files, and load(save(m)) gives
bit-identical predictions. Loaded arrays are read-only views of the
bytes read from the file. This module checks only the format version, the
method name, the blob shapes ("dimensions", a JSON object) and sizes, and that
every scaler entry is a JSON number (not a bool or a string); the record checks
the rest of the model, its scaler included, when load_model builds it, as when
training does.

Format 4 keeps the U unique training label vectors (train_labels) and
their counts (label_counts); coefficients are K x U and br-mlm's
label_coefficients 2 x K x L. The manifest's "scale" holds the record's
scaler, each feature's minimum and span ({"min": [...], "span": [...]}),
or null when the features were not scaled. Files of an earlier format (1
held all N label vectors, 2 an L x K x U br-mlm stack, 3 no scaler) are
refused with a request to retrain.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

from . import models, tuning
from .models import BrMlmModel, DistanceModel, TunedMlMlm, base_model

FORMAT_VERSION = 4
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
    manifest = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "P": model.power if tuned else None,
        "t": model.threshold if tuned else None,
        "alpha": base.alpha,
        "dimensions": {name: list(a.shape) for name, a in arrays.items()},
        "label_names": list(base.label_names),
        "scale": None if base.scale is None else {"min": base.scale[0].tolist(),
                                                  "span": base.scale[1].tolist()},
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("manifest.json", date_time=_EPOCH),
                    json.dumps(manifest, sort_keys=True, indent=1))
        for name in sorted(arrays):
            zf.writestr(zipfile.ZipInfo(name + ".f64", date_time=_EPOCH),
                        np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def method_functions(method: str):
    """(train, predict) of a method: train(X, Y, alpha_mode=, label_names=, scale=
    [, power_mode=]) and predict(model, x[, threshold=]), the brackets for ml-mlm only.
    Built on each call, so that a function rebound in its module after import is the
    one returned."""
    return {
        "ml-mlm": (tuning.tune_ml_mlm, models.ml_mlm_predict),
        "nn-mlm": (models.train, models.nn_mlm_predict),
        "lls-mlm": (models.train, models.lls_mlm_predict),
        "br-mlm": (models.train_br, models.br_mlm_predict),
    }[method]


def load_model(path):
    """Read a model file back; returns (model object, manifest dict). The record
    checks its own arrays and numbers when it is built, so any fault in the file
    raises ModelFileError naming it."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            version = manifest["format_version"]
            if version in (1, 2, 3):
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
            # read-only views of the bytes read, not copies; reshape refuses a
            # blob whose size does not fit its shape
            arrays = {name: np.frombuffer(zf.read(name + ".f64"), dtype="<f8").reshape(shape)
                      for name, shape in dimensions.items()}
        names = manifest["label_names"]  # a JSON list; the record holds a tuple
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
            label_names=tuple(names) if isinstance(names, list) else names,
            label_counts=arrays["label_counts"],
            scale=None if scale is None else np.array(scale, dtype=np.float64),
        )
        if method == "ml-mlm":
            model = TunedMlMlm(model=base, power=manifest["P"], threshold=manifest["t"],
                               lrl_curve=())
        elif method == "br-mlm":
            model = BrMlmModel(base=base, label_coefficients=arrays["label_coefficients"])
        else:
            model = base
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return model, manifest
