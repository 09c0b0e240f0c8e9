"""Model file persistence.

A model file is a zip archive holding a versioned JSON manifest plus
row-major little-endian float64 blobs for each array. Writing is fully
deterministic (fixed timestamps, fixed member order), so retraining on
identical inputs yields byte-identical files, and load(save(m)) gives
bit-identical predictions. Loaded arrays are read-only views of the
bytes read from the file.
"""
from __future__ import annotations

import hashlib
import json
import zipfile

import numpy as np

from .models import BrMlmModel, DistanceModel
from .tuning import TunedMlMlm

FORMAT_VERSION = 1
_EPOCH = (1980, 1, 1, 0, 0, 0)


class ModelFileError(ValueError):
    """Unreadable or incompatible model file."""


def dataset_fingerprint(X, Y) -> str:
    """Content hash of the training arrays, recorded for drift warnings."""
    h = hashlib.sha256()
    for a in (X, Y):
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


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


def save_model(path, model, method: str, fingerprint: str = "") -> None:
    """Serialize a trained model under its method name."""
    if isinstance(model, TunedMlMlm):
        base = model.model
        power, threshold = model.power, model.threshold
    elif isinstance(model, BrMlmModel):
        base = model.base
        power = threshold = None
    elif isinstance(model, DistanceModel):
        base = model
        power = threshold = None
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    arrays = {"references": base.references, "coefficients": base.coefficients,
              "train_labels": base.train_labels}
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
        "dataset_fingerprint": fingerprint,
    }
    _write(path, manifest, blobs)


def load_model(path):
    """Read a model file back; returns (model object, manifest dict)."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("format_version") != FORMAT_VERSION:
                raise ModelFileError(
                    f"unsupported format_version {manifest.get('format_version')}"
                )
            dims = manifest["dimensions"]
            arrays = {}
            for name, shape in dims.items():
                raw = zf.read(name + ".f64")
                if len(raw) != 8 * int(np.prod(shape)):
                    raise ModelFileError(f"blob size mismatch for {name}")
                arrays[name] = _unblob(raw, shape)
    except (KeyError, zipfile.BadZipFile, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc

    base = DistanceModel(
        references=arrays["references"],
        coefficients=arrays["coefficients"],
        alpha=float(manifest["alpha"]),
        train_labels=arrays["train_labels"],
        label_names=tuple(manifest["label_names"]),
    )
    method = manifest["method"]
    if method == "ml-mlm":
        model = TunedMlMlm(
            model=base,
            power=float(manifest["P"]),
            threshold=float(manifest["t"]),
            lrl_curve=(),
        )
    elif method == "br-mlm":
        model = BrMlmModel(base=base, label_coefficients=arrays["label_coefficients"])
    else:
        model = base
    return model, manifest
