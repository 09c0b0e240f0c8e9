"""Dataset ingestion.

read_table reads one file, as CSV (a header row) when its name ends in .csv
and as Mulan-style ARFF (dense or sparse) otherwise. read_csv_rows is the one
CSV reader, for datasets and stats tables alike. A dataset spec is a
features.csv;labels.csv pair, or one file whose label columns a Mulan XML
manifest names or that ends in labels_last label columns; this module alone
parses one. load_dataset builds a Dataset from a spec, naming the spec when
the Dataset is refused, and load_features reads only its feature columns and
their names.

Rows are read in one float() pass: a dense ARFF data line split on commas,
a sparse one into its 'index value' items, a CSV row as csv.reader frames
it. Only a row that pass refuses goes through the per-token parser
(csv.reader on a dense line or the sparse item loop, then _parse_value): a
token float() rejects (any quote, '?', an empty token), a wrong token count, a
sparse item that is not an index and one value, sparse indices that are not
strictly increasing below the attribute count, or a value that is not
finite. That parser is the only one that reads quoted tokens or words an
error, so values, messages and line numbers are the per-token parser's,
and a repeated sparse index keeps its last value. The bits are equal
because both paths end in float() on the same text: float() strips the
whitespace that _parse_value strips, a sparse value is one whitespace-free
token either way, and a dense line without '"' splits on commas as
csv.reader(skipinitialspace=True) splits it.
(One exception: the fast pass accepts an ARFF field longer than
csv.field_size_limit() that the csv module would refuse.)
"""
from __future__ import annotations

import csv
import math
import operator
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    """Malformed or unsupported dataset file."""


class SpecError(ValueError):
    """A single-file dataset spec that does not say which columns are labels."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        n, m = self.features.shape
        nl, l = self.labels.shape
        if n != nl:
            raise DataFormatError(f"{n} feature rows but {nl} label rows")
        if n == 0 or m == 0 or l == 0:
            raise DataFormatError("empty dataset")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataFormatError("label columns must be binary")
        if not np.all(np.isfinite(self.features)):
            raise DataFormatError("features contain non-finite values")


def read_label_manifest(path) -> tuple[str, ...]:
    """Label attribute names from a Mulan XML manifest."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:  # its message gives the line and column
        raise DataFormatError(f"{path}: not a label manifest: {exc}") from None
    names = []
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        if tag == "label" and "name" in el.attrib:
            names.append(el.attrib["name"])
    if not names:
        raise DataFormatError(f"no label entries found in manifest {path}")
    return tuple(names)


def _parse_attribute(line: str) -> str:
    """The name of a numeric or binary {0,1} @attribute."""
    body = line[len("@attribute"):].strip()
    if body.startswith(("'", '"')):
        end = body.find(body[0], 1)
        if end < 0:
            raise DataFormatError("unterminated attribute name")
        name = body[1:end]
        rest = body[end + 1 :].strip()
    else:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise DataFormatError("malformed @attribute")
        name, rest = parts
    kind = rest.strip().lower()
    if kind in ("numeric", "real", "integer"):
        return name
    if kind.startswith("{"):
        values = {v.strip().strip("'\"") for v in kind.strip("{}").split(",")}
        if values <= {"0", "1"}:
            return name
        raise DataFormatError(f"nominal attribute '{name}' is not binary {{0,1}}")
    raise DataFormatError(f"unsupported attribute type '{kind}'")


def _parse_value(tok: str) -> float:
    tok = tok.strip().strip("'\"")
    if tok == "" or tok == "?":
        raise DataFormatError("missing value")
    try:
        v = float(tok)
    except ValueError as exc:
        raise DataFormatError(f"non-numeric value '{tok}'") from exc
    if not np.isfinite(v):
        raise DataFormatError(f"non-finite value '{tok}'")
    return v


def _plain_floats(toks) -> list[float] | None:
    """float() of every token, or None when float() refuses one or a value
    is not finite; the per-token parser then reads the row."""
    try:
        values = [float(t) for t in toks]
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _plain_sparse(items, n_attrs: int) -> tuple[list[int], list[float]] | None:
    """The indices and float() values of a sparse row's 'index value' items,
    or None when an item is not a decimal index and one token, float()
    refuses a value or a value is not finite, or the indices are not strictly
    increasing below n_attrs (a fancy assignment does not say which of a
    repeated index's values wins); the per-token parser then reads the row."""
    pairs = list(map(str.split, items))
    if set(map(len, pairs)) != {2}:
        return None
    idx_toks, value_toks = zip(*pairs)
    if not "".join(idx_toks).isdecimal():  # split() gives no empty token
        return None
    idx = list(map(int, idx_toks))
    if not (idx[-1] < n_attrs and all(map(operator.lt, idx, idx[1:]))):
        return None
    values = _plain_floats(value_toks)
    return None if values is None else (idx, values)


def read_arff(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Every attribute name of an ARFF file and its N x attributes value
    matrix, rows in file order (0 rows when there is no data line). A name
    declared twice is refused."""
    attr_names: dict[str, None] = {}  # insertion-ordered, for the repeat check
    rows: list[np.ndarray] = []
    n_attrs = 0
    in_data = False
    try:
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
                        name = _parse_attribute(line)
                        if name in attr_names:
                            raise DataFormatError(f"attribute '{name}' declared twice")
                        attr_names[name] = None
                        continue
                    if low.startswith("@data"):
                        in_data = True
                        n_attrs = len(attr_names)
                        if n_attrs == 0:
                            raise DataFormatError("no attributes declared before @data")
                        continue
                    raise DataFormatError("not an ARFF header line")
                row = np.zeros(n_attrs)
                if line.startswith("{"):
                    body = line.strip("{}").strip()
                    items = body.split(",") if body else []
                    entries = _plain_sparse(items, n_attrs)
                    if entries is not None:
                        row[entries[0]] = entries[1]
                    else:
                        for item in items:
                            parts = item.split()
                            if len(parts) != 2 or not parts[0].isdecimal():
                                raise DataFormatError(f"malformed sparse entry '{item}'")
                            idx = int(parts[0])
                            if idx >= n_attrs:
                                raise DataFormatError(f"sparse index {idx} out of range")
                            row[idx] = _parse_value(parts[1])
                else:
                    values = _plain_floats(line.split(","))
                    if values is None or len(values) != n_attrs:
                        toks = next(csv.reader([line], skipinitialspace=True))
                        if len(toks) != n_attrs:
                            raise DataFormatError(
                                f"expected {n_attrs} values, got {len(toks)}")
                        values = [_parse_value(t) for t in toks]
                    row[:] = values
                rows.append(row)
    except (DataFormatError, csv.Error) as exc:
        raise DataFormatError(f"{path} line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return tuple(attr_names), np.vstack(rows) if rows else np.zeros((0, len(attr_names)))


def read_csv_rows(path):
    """The header of one UTF-8 CSV file as a tuple, then (line number, cells)
    for each non-blank row, as a generator. A file with no header row, a
    header that names a column twice, or a row of another cell count than the
    header's raises DataFormatError naming the file (and the line)."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if not header:
                raise DataFormatError("no header row")
            if len(set(header)) < len(header):
                name = next(n for i, n in enumerate(header) if n in header[:i])
                raise DataFormatError(f"column '{name}' named twice in the header")
            yield header
            for row in filter(None, reader):  # a blank line reads as []
                if len(row) != len(header):
                    raise DataFormatError(f"expected {len(header)} values, got {len(row)}")
                yield reader.line_num, row
    except (DataFormatError, csv.Error) as exc:
        where = f" line {reader.line_num}" if reader.line_num else ""
        raise DataFormatError(f"{path}{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header row and the value matrix of one CSV file (read_csv_rows; 0
    rows when there is only the header)."""
    rows = read_csv_rows(path)
    header, values = next(rows), []
    for lineno, row in rows:
        try:  # a row is never empty, so neither is a list _plain_floats returns
            values.append(_plain_floats(row) or [_parse_value(t) for t in row])
        except DataFormatError as exc:
            raise DataFormatError(f"{path} line {lineno}: {exc}") from None
    return header, np.array(values, dtype=np.float64).reshape(len(values), len(header))


def read_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The column names and value matrix of one file: read as CSV when its
    name ends in .csv (in any case), and as ARFF otherwise."""
    return read_csv_matrix(path) if str(path).lower().endswith(".csv") else read_arff(path)


def load_dataset(spec: str, labels_last: int | None = None) -> Dataset:
    """A Dataset from a dataset spec, rows in file order.

    'features.csv;labels.csv' is a pair of CSV files, whatever their names,
    and each is taken whole. Any other spec is one file (read_table), with
    its label columns named by a Mulan XML manifest ('data.arff@labels.xml')
    or, without one, its last labels_last columns. A Dataset refusal names
    the spec.
    """
    if ";" in spec:
        feature_path, label_path = spec.split(";", 1)
        feature_names, X = read_csv_matrix(feature_path)
        label_names, Y = read_csv_matrix(label_path)
    else:
        path, manifest = spec.rsplit("@", 1) if "@" in spec else (spec, None)
        if manifest is None and labels_last is None:
            raise SpecError(
                f"dataset {spec!r} needs a label manifest (@file.xml) or --labels-last")
        names, values = read_table(path)
        if manifest is not None:
            label_names = read_label_manifest(manifest)
            missing = [n for n in label_names if n not in names]
            if missing:
                raise DataFormatError(f"{path}: manifest labels missing from header: {missing}")
            label_idx = [names.index(n) for n in label_names]
        else:
            if labels_last >= len(names):
                raise DataFormatError(f"{path}: {labels_last} label columns leave no "
                                      f"feature column in {len(names)} columns")
            label_idx = list(range(len(names) - labels_last, len(names)))
        label_set = set(label_idx)
        feat_idx = [i for i in range(len(names)) if i not in label_set]
        X, Y = values[:, feat_idx], values[:, label_idx]
        feature_names = tuple(names[i] for i in feat_idx)
        label_names = tuple(names[i] for i in label_idx)
    try:
        return Dataset(features=X, labels=Y, feature_names=feature_names,
                       label_names=label_names)
    except DataFormatError as exc:
        raise DataFormatError(f"{spec}: {exc}") from None


def load_features(spec: str, label_names) -> tuple[tuple[str, ...], np.ndarray]:
    """The names and the values of the feature columns of a dataset spec,
    unscaled: the features file of a CSV pair, whole, or every column of a
    single file that label_names does not name (an @labels.xml suffix is not
    read)."""
    if ";" in spec:
        return read_csv_matrix(spec.split(";", 1)[0])
    names, values = read_table(spec.rsplit("@", 1)[0])
    labels = set(label_names)
    keep = [i for i, name in enumerate(names) if name not in labels]
    return tuple(names[i] for i in keep), values[:, keep]
