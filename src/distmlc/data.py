"""Dataset ingestion: Mulan-style ARFF (dense and sparse) with an XML
label manifest, plus a CSV pair fallback and min-max scaling bounds.
"""
from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Malformed or unsupported dataset file."""


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        n, m = self.features.shape
        nl, l = self.labels.shape
        if n != nl:
            raise DataFormatError("feature and label row counts differ")
        if n == 0 or m == 0 or l == 0:
            raise DataFormatError("empty dataset")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataFormatError("label columns must be binary")
        if not np.all(np.isfinite(self.features)):
            raise DataFormatError("features contain non-finite values")


def read_label_manifest(path) -> tuple[str, ...]:
    """Label attribute names from a Mulan XML manifest."""
    root = ET.parse(path).getroot()
    names = []
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        if tag == "label" and "name" in el.attrib:
            names.append(el.attrib["name"])
    if not names:
        raise DataFormatError(f"no label entries found in manifest {path}")
    return tuple(names)


def _parse_attribute(line: str, lineno: int) -> tuple[str, str]:
    body = line.split(None, 1)[1].strip()
    if body.startswith(("'", '"')):
        quote = body[0]
        end = body.index(quote, 1)
        name = body[1:end]
        rest = body[end + 1 :].strip()
    else:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise DataFormatError(f"line {lineno}: malformed @attribute")
        name, rest = parts
    kind = rest.strip().lower()
    if kind in ("numeric", "real", "integer"):
        return name, "numeric"
    if kind.startswith("{"):
        values = {v.strip().strip("'\"") for v in kind.strip("{}").split(",")}
        if values <= {"0", "1"}:
            return name, "numeric"
        raise DataFormatError(
            f"line {lineno}: nominal attribute '{name}' is not binary {{0,1}}"
        )
    raise DataFormatError(f"line {lineno}: unsupported attribute type '{kind}'")


def _split_dense_row(line: str) -> list[str]:
    return next(csv.reader([line], skipinitialspace=True))


def _parse_value(tok: str, lineno: int) -> float:
    tok = tok.strip().strip("'\"")
    if tok == "" or tok == "?":
        raise DataFormatError(f"line {lineno}: missing value")
    try:
        v = float(tok)
    except ValueError as exc:
        raise DataFormatError(f"line {lineno}: non-numeric value '{tok}'") from exc
    if not np.isfinite(v):
        raise DataFormatError(f"line {lineno}: non-finite value '{tok}'")
    return v


def read_arff(path) -> tuple[list[str], np.ndarray]:
    """Every attribute name of an ARFF file and its N x attributes value
    matrix, rows in file order."""
    attr_names: list[str] = []
    rows: list[np.ndarray] = []
    n_attrs = 0
    in_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if not in_data:
                if low.startswith("@relation"):
                    continue
                if low.startswith("@attribute"):
                    aname, _ = _parse_attribute(line, lineno)
                    attr_names.append(aname)
                    continue
                if low.startswith("@data"):
                    in_data = True
                    n_attrs = len(attr_names)
                    if n_attrs == 0:
                        raise DataFormatError("no attributes declared before @data")
                    continue
                raise DataFormatError(f"line {lineno}: unexpected header line")
            row = np.zeros(n_attrs)
            if line.startswith("{"):
                body = line.strip("{}").strip()
                if body:
                    for item in body.split(","):
                        parts = item.split()
                        if len(parts) != 2:
                            raise DataFormatError(
                                f"line {lineno}: malformed sparse entry '{item}'"
                            )
                        idx = int(parts[0])
                        if not 0 <= idx < n_attrs:
                            raise DataFormatError(
                                f"line {lineno}: sparse index {idx} out of range"
                            )
                        row[idx] = _parse_value(parts[1], lineno)
            else:
                toks = _split_dense_row(line)
                if len(toks) != n_attrs:
                    raise DataFormatError(
                        f"line {lineno}: expected {n_attrs} values, got {len(toks)}"
                    )
                row[:] = [_parse_value(t, lineno) for t in toks]
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return attr_names, np.vstack(rows)


def parse_arff(
    path,
    label_manifest=None,
    labels_last: int | None = None,
    name: str | None = None,
) -> Dataset:
    """Load a Mulan-style ARFF file.

    Label attributes are identified either by the XML manifest
    (label_manifest) or as the trailing labels_last attributes. Row order
    is preserved exactly as in the file.
    """
    attr_names, values = read_arff(path)
    if label_manifest is not None:
        label_names = read_label_manifest(label_manifest)
        missing = [n for n in label_names if n not in attr_names]
        if missing:
            raise DataFormatError(
                f"manifest labels missing from ARFF header: {missing}"
            )
        label_idx = [attr_names.index(n) for n in label_names]
    elif labels_last is not None:
        if not 0 < labels_last < len(attr_names):
            raise DataFormatError("labels_last out of range")
        label_idx = list(range(len(attr_names) - labels_last, len(attr_names)))
        label_names = tuple(attr_names[i] for i in label_idx)
    else:
        raise DataFormatError("either label_manifest or labels_last is required")

    label_set = set(label_idx)
    feat_idx = [i for i in range(len(attr_names)) if i not in label_set]
    return Dataset(
        name=name or Path(path).stem,
        features=values[:, feat_idx],
        labels=values[:, label_idx],
        feature_names=tuple(attr_names[i] for i in feat_idx),
        label_names=tuple(label_names),
    )


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header row and the value matrix of one CSV file."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path} line {lineno}: ragged row")
            rows.append([_parse_value(t, lineno) for t in row])
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return header, np.array(rows)


def parse_csv(features_path, labels_path, name: str | None = None) -> Dataset:
    """Load a (features.csv, labels.csv) pair; both need a header row."""
    feat_names, X = read_csv_matrix(features_path)
    label_names, Y = read_csv_matrix(labels_path)
    if X.shape[0] != Y.shape[0]:
        raise DataFormatError(
            f"row count mismatch: {X.shape[0]} feature rows vs {Y.shape[0]} label rows"
        )
    return Dataset(
        name=name or Path(features_path).stem,
        features=X,
        labels=Y,
        feature_names=feat_names,
        label_names=label_names,
    )


def min_max_bounds(X: np.ndarray) -> dict:
    """Each feature column's minimum and span, as JSON-ready lists: X maps to
    [0, 1] as (X - min) / span. A constant column gets span 1, so it maps to 0."""
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    return {"min": lo.tolist(), "span": np.where(span > 0, span, 1.0).tolist()}
