"""Model files, and the code behind each method name.

METHODS names the four methods a model file may hold; method_functions gives
each one's trainer and decoder, and load_model rebuilds each one's model.

A model file is a zip archive holding a versioned JSON manifest plus
row-major little-endian float64 blobs for each array. Writing is fully
deterministic (fixed timestamps, fixed member order), so retraining on
identical inputs yields byte-identical files, and load(save(m)) gives
bit-identical predictions. Loaded arrays are read-only views of the
bytes read from the file, checked for shape and content before use.

Format 4 keeps the U unique training label vectors (train_labels) and
their counts (label_counts); coefficients are K x U and br-mlm's
label_coefficients 2 x K x L. The manifest's "scale" holds the training
scaler, each feature's minimum and span ({"min": [...], "span": [...]}),
or null when the features were not scaled; predict applies it to every
input. Files of an earlier format (1 held all N label vectors, 2 an
L x K x U br-mlm stack, 3 no scaler) are refused with a request to
retrain.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

from . import models, tuning
from .models import BrMlmModel, DistanceModel
from .tuning import TunedMlMlm

FORMAT_VERSION = 4
# the methods a model file may name
METHODS = ("ml-mlm", "nn-mlm", "lls-mlm", "br-mlm")
_EPOCH = (1980, 1, 1, 0, 0, 0)


class ModelFileError(ValueError):
    """Unreadable or incompatible model file."""


def _blob(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def _unblob(raw: bytes, shape) -> np.ndarray:
    # a read-only view of the bytes read from the archive, not a copy
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _write(path, manifest: dict, blobs: dict) -> None:
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("manifest.json", date_time=_EPOCH)
        zf.writestr(info, json.dumps(manifest, sort_keys=True, indent=1))
        for name in sorted(blobs):
            info = zipfile.ZipInfo(name + ".f64", date_time=_EPOCH)
            zf.writestr(info, blobs[name])


def base_model(model) -> DistanceModel:
    """The distance model inside any trained model."""
    if isinstance(model, TunedMlMlm):
        return model.model
    if isinstance(model, BrMlmModel):
        return model.base
    if isinstance(model, DistanceModel):
        return model
    raise TypeError(f"not a trained model: {type(model).__name__}")


def save_model(path, model, method: str, scale: dict | None = None) -> None:
    """Serialize a trained model under its method name, with the min-max
    scaler of its training features (data.min_max_bounds), if any."""
    base = base_model(model)
    tuned = isinstance(model, TunedMlMlm)
    power, threshold = (model.power, model.threshold) if tuned else (None, None)
    arrays = {"references": base.references, "coefficients": base.coefficients,
              "train_labels": base.train_labels, "label_counts": base.label_counts}
    if isinstance(model, BrMlmModel):
        arrays["label_coefficients"] = model.label_coefficients
    blobs = {name: _blob(a) for name, a in arrays.items()}
    shapes = {name: list(a.shape) for name, a in arrays.items()}

    manifest = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "P": power,
        "t": threshold,
        "alpha": base.alpha,
        "dimensions": shapes,
        "label_names": list(base.label_names),
        "scale": scale,
    }
    _write(path, manifest, blobs)


def method_functions(method: str):
    """(train, predict) of a method: train(X, Y, alpha_mode=, label_names=[, power_mode=])
    and predict(model, x[, threshold=]), the brackets for ml-mlm only. Built on each
    call, so that a function rebound in its module after import is the one returned."""
    return {
        "ml-mlm": (tuning.tune_ml_mlm, models.ml_mlm_predict),
        "nn-mlm": (models.train, models.nn_mlm_predict),
        "lls-mlm": (models.train, models.lls_mlm_predict),
        "br-mlm": (models.train_br, models.br_mlm_predict),
    }[method]


def _check_arrays(arrays: dict, manifest: dict) -> None:
    """Raise ModelFileError unless the arrays and the scaler make a consistent model."""
    def fail(what: str):
        raise ModelFileError(f"invalid model file: {what}")

    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            fail(f"{name} holds non-finite values")
    refs, coef = arrays["references"], arrays["coefficients"]
    labels, counts = arrays["train_labels"], arrays["label_counts"]
    if refs.ndim != 2 or labels.ndim != 2:
        fail("references and train_labels must be matrices")
    K, (U, L) = refs.shape[0], labels.shape
    if not np.all((labels == 0.0) | (labels == 1.0)):
        fail("train_labels must hold only 0 and 1")
    if coef.shape != (K, U):
        fail(f"coefficients are {coef.shape}, expected {(K, U)} (K x U)")
    if counts.shape != (U,) or not np.all((counts >= 1.0) & (counts == np.round(counts))):
        fail(f"label_counts must be {U} positive whole numbers")
    if manifest["method"] == "br-mlm" and arrays["label_coefficients"].shape != (2, K, L):
        fail(f"label_coefficients are {arrays['label_coefficients'].shape}, "
             f"expected {(2, K, L)} (2 x K x L)")
    scale, M = manifest["scale"], refs.shape[1]
    if scale is not None:
        lo, span = (np.asarray(scale[k], dtype=np.float64) for k in ("min", "span"))
        if not (lo.shape == span.shape == (M,) and np.all(np.isfinite(lo))
                and np.all(np.isfinite(span) & (span > 0))):
            fail(f"scale must hold {M} finite minima and {M} finite spans > 0")


def load_model(path):
    """Read a model file back; returns (model object, manifest dict)."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            version = manifest.get("format_version")
            if version in (1, 2, 3):
                raise ModelFileError(
                    f"{path} is a format {version} model file, which this version of "
                    "distmlc no longer reads; retrain the model to write format "
                    f"{FORMAT_VERSION}")
            if version != FORMAT_VERSION:
                raise ModelFileError(f"unsupported format_version {version}")
            dims = manifest["dimensions"]
            method = manifest["method"]
            if method not in METHODS:
                raise ModelFileError(f"invalid model file: unknown method {method!r}")
            arrays = {}
            for name, shape in dims.items():
                raw = zf.read(name + ".f64")
                if len(raw) != 8 * int(np.prod(shape)):
                    raise ModelFileError(f"blob size mismatch for {name}")
                arrays[name] = _unblob(raw, shape)
            _check_arrays(arrays, manifest)
    except ModelFileError:
        raise
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc

    base = DistanceModel(
        references=arrays["references"],
        coefficients=arrays["coefficients"],
        alpha=float(manifest["alpha"]),
        train_labels=arrays["train_labels"],
        label_names=tuple(manifest["label_names"]),
        label_counts=arrays["label_counts"],
    )
    if method == "ml-mlm":
        return TunedMlMlm(model=base, power=float(manifest["P"]),
                          threshold=float(manifest["t"]), lrl_curve=()), manifest
    if method == "br-mlm":
        return BrMlmModel(base=base, label_coefficients=arrays["label_coefficients"]), manifest
    return base, manifest
