import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distmlc import data as dataio

from conftest import export_csv

DENSE_ARFF = """\
% handcrafted fixture
@relation toy

@attribute feat1 numeric
@attribute feat2 real
@attribute labelA {0,1}
@attribute labelB {0,1}

@data
0.5,1.5,1,0
-1.0,2.0,0,1
3.25,0.0,1,1
"""

SPARSE_ARFF = """\
@relation toy-sparse
@attribute a numeric
@attribute b numeric
@attribute c numeric
@attribute labelA {0,1}
@data
{0 1, 3 1}
{}
{1 2.5, 2 -1}
"""

MANIFEST = """\
<?xml version="1.0" encoding="utf-8"?>
<labels xmlns="http://mulan.sourceforge.net/labels">
  <label name="labelA"/>
  <label name="labelB"/>
</labels>
"""


# the header of a two-attribute ARFF whose data starts on line 5
HEAD = "@relation r\n@attribute a numeric\n@attribute l {0,1}\n@data\n"


@pytest.fixture
def dense_file(tmp_path):
    p = tmp_path / "toy.arff"
    p.write_text(DENSE_ARFF)
    return p


@pytest.fixture
def manifest_file(tmp_path):
    p = tmp_path / "toy.xml"
    p.write_text(MANIFEST)
    return p


class TestParseArff:
    def test_dense_with_manifest(self, dense_file, manifest_file):
        ds = dataio.load_dataset(f"{dense_file}@{manifest_file}")
        assert ds.features.shape == (3, 2)
        assert ds.labels.shape == (3, 2)
        assert ds.feature_names == ("feat1", "feat2")
        assert ds.label_names == ("labelA", "labelB")
        np.testing.assert_array_equal(ds.labels[2], [1.0, 1.0])

    def test_dense_with_labels_last(self, dense_file):
        ds = dataio.load_dataset(str(dense_file), labels_last=2)
        assert ds.label_names == ("labelA", "labelB")

    def test_row_order_preserved(self, dense_file, manifest_file):
        ds = dataio.load_dataset(f"{dense_file}@{manifest_file}")
        np.testing.assert_array_equal(ds.features[:, 0], [0.5, -1.0, 3.25])

    def test_sparse_expansion(self, tmp_path):
        p = tmp_path / "sp.arff"
        p.write_text(SPARSE_ARFF)
        ds = dataio.load_dataset(str(p), labels_last=1)
        np.testing.assert_array_equal(ds.features[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(ds.labels[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(ds.features[2], [0.0, 2.5, -1.0])

    def test_unknown_attribute_type_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.arff"
        p.write_text("@relation r\n@attribute s string\n@data\nx\n")
        with pytest.raises(dataio.DataFormatError) as err:
            dataio.load_dataset(str(p), labels_last=1)
        assert f"{p} line 2" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("@relation r\n@attribute 'a numeric\n@data\n", "line 2: unterminated attribute name"),
        (HEAD + "1,x\n", "line 5: non-numeric value 'x'"),
        (HEAD + "{x 1}\n", "line 5: malformed sparse entry 'x 1'"),
        (HEAD + "{7 1}\n", "line 5: sparse index 7 out of range"),
        ("a,l\n1,0\n", "line 1: not an ARFF header line"),
        (HEAD + "1,0\nnan,1\n", "line 6: non-finite value 'nan'"),
        (HEAD + "1,0\n1, -inf\n", "line 6: non-finite value '-inf'"),
        (HEAD + "1,0,\n", "line 5: expected 2 values, got 3"),
        (HEAD + "?,1\n", "line 5: missing value"),
        (HEAD + '"1,2",1\n', "line 5: non-numeric value '1,2'"),
        (HEAD + "1,0\n \t \n1,y\n", "line 7: non-numeric value 'y'"),
        ("@relation r\n@attribute a {0,1}\n@attribute x numeric\n@attribute 'a' numeric\n"
         "@data\n", "line 4: attribute 'a' declared twice"),
        ("@relation r\n@attribute a\n@data\n", "line 2: malformed @attribute"),
        ("@relation r\n@data\n1\n", "line 2: no attributes declared before @data"),
    ], ids=["unterminated-name", "non-numeric", "sparse-index", "sparse-range", "csv-text",
            "nan", "inf", "trailing-comma", "question-mark", "quoted-comma", "blank-line",
            "repeated-name", "attribute-without-type", "data-before-attributes"])
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        p = tmp_path / "bad.arff"
        p.write_text(text)
        with pytest.raises(dataio.DataFormatError, match="^" + re.escape(f"{p} {message}") + "$"):
            dataio.load_dataset(str(p), labels_last=1)

    def test_manifest_label_missing_from_header(self, dense_file, tmp_path):
        xml = tmp_path / "bad.xml"
        xml.write_text('<labels><label name="nosuch"/></labels>')
        with pytest.raises(dataio.DataFormatError):
            dataio.load_dataset(f"{dense_file}@{xml}")

    def test_manifest_without_labels_refused(self, dense_file, tmp_path):
        xml = tmp_path / "none.xml"
        xml.write_text('<labels><attribute name="labelA"/></labels>')
        with pytest.raises(dataio.DataFormatError,
                           match="^" + re.escape(f"no label entries found in manifest {xml}") + "$"):
            dataio.load_dataset(f"{dense_file}@{xml}")

    @pytest.mark.parametrize("labels_last", [4, 5])
    def test_labels_last_leaving_no_feature_refused(self, dense_file, labels_last):
        message = (f"{dense_file}: {labels_last} label columns leave no feature column "
                   "in 4 columns")
        with pytest.raises(dataio.DataFormatError, match="^" + re.escape(message) + "$"):
            dataio.load_dataset(str(dense_file), labels_last=labels_last)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "mv.arff"
        p.write_text("@relation r\n@attribute a numeric\n@attribute l {0,1}\n"
                     "@data\n?,1\n")
        with pytest.raises(dataio.DataFormatError):
            dataio.load_dataset(str(p), labels_last=1)

    def test_nonbinary_nominal_rejected(self, tmp_path):
        p = tmp_path / "nom.arff"
        p.write_text("@relation r\n@attribute a {red,blue}\n@data\nred\n")
        with pytest.raises(dataio.DataFormatError):
            dataio.load_dataset(str(p), labels_last=1)


class TestParseCsv:
    def _write_pair(self, tmp_path, X, Y):
        f = tmp_path / "f.csv"
        l = tmp_path / "l.csv"
        f.write_text("a,b\n" + "\n".join(f"{r[0]},{r[1]}" for r in X) + "\n")
        l.write_text("y\n" + "\n".join(str(v) for v in Y) + "\n")
        return f, l

    def test_fixture(self, tmp_path):
        f, l = self._write_pair(tmp_path, [[0.0, 1.0], [2.0, 3.0]], [1, 0])
        ds = dataio.load_dataset(f"{f};{l}")
        assert ds.features.shape == (2, 2)
        assert ds.labels.shape == (2, 1)

    def test_mismatched_rows(self, tmp_path):
        f = tmp_path / "f.csv"
        l = tmp_path / "l.csv"
        f.write_text("a\n1\n2\n")
        l.write_text("y\n1\n")
        with pytest.raises(dataio.DataFormatError):
            dataio.load_dataset(f"{f};{l}")

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("a,y\n1,0\n\n2,1\n\n")
        names, values = dataio.read_csv_matrix(p)
        assert names == ("a", "y")
        np.testing.assert_array_equal(values, [[1.0, 0.0], [2.0, 1.0]])

    @pytest.mark.parametrize("row, count", [("1", 1), ("1,0,2", 3)])
    def test_ragged_row_refused_with_counts(self, tmp_path, row, count):
        p = tmp_path / "r.csv"
        p.write_text(f"a,y\n1,0\n{row}\n")
        message = f"{p} line 3: expected 2 values, got {count}"
        with pytest.raises(dataio.DataFormatError, match="^" + re.escape(message) + "$"):
            dataio.load_dataset(str(p), labels_last=1)

    def test_nonbinary_label_rejected(self, tmp_path):
        f, l = self._write_pair(tmp_path, [[0.0, 1.0], [2.0, 3.0]], [1, 2])
        with pytest.raises(dataio.DataFormatError):
            dataio.load_dataset(f"{f};{l}")

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(6, 3))
        Y = (rng.random((6, 2)) < 0.5).astype(float)
        ds = dataio.Dataset(
            features=X, labels=Y,
            feature_names=("a", "b", "c"), label_names=("u", "v"),
        )
        f = tmp_path / "f.csv"
        l = tmp_path / "l.csv"
        export_csv(ds, f, l)
        back = dataio.load_dataset(f"{f};{l}")
        assert (back.features == X).all()
        assert (back.labels == Y).all()
        assert back.feature_names == ds.feature_names


class TestLoadFeatures:
    def test_pair_gives_the_features_file_whole(self, tmp_path):
        f, l = tmp_path / "f.csv", tmp_path / "l.csv"
        f.write_text("labelA,b\n1,2\n3,4\n")  # a feature may share a label's name
        l.write_text("labelA\n0\n1\n")
        names, X = dataio.load_features(f"{f};{l}", ("labelA",))
        assert names == ("labelA", "b")
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_single_file_drops_the_named_labels_and_ignores_a_manifest(
            self, tmp_path, dense_file):
        names, X = dataio.load_features(f"{dense_file}@{tmp_path / 'absent.xml'}",
                                        ("labelA", "labelB"))
        ds = dataio.load_dataset(str(dense_file), 2)
        assert names == ds.feature_names
        np.testing.assert_array_equal(X, ds.features)

    def test_lone_features_file_is_taken_whole(self, tmp_path):
        f = tmp_path / "te.csv"
        f.write_text("f0,f1,f2\n1,2,3\n")
        names, X = dataio.load_features(str(f), ("y0", "y1"))
        assert names == ("f0", "f1", "f2")
        np.testing.assert_array_equal(X, [[1.0, 2.0, 3.0]])


class TestReadTable:
    def test_format_follows_file_name(self, tmp_path, dense_file, manifest_file):
        # the same table as CSV, under an upper-case .CSV name
        csv_file = tmp_path / "toy.CSV"
        csv_file.write_text("feat1,feat2,labelA,labelB\n" + DENSE_ARFF.split("@data\n")[1])
        from_arff = dataio.load_dataset(f"{dense_file}@{manifest_file}")
        from_csv = dataio.load_dataset(f"{csv_file}@{manifest_file}")
        for field in ("features", "labels"):
            np.testing.assert_array_equal(getattr(from_csv, field), getattr(from_arff, field))
        assert from_csv.feature_names == from_arff.feature_names
        assert from_csv.label_names == from_arff.label_names

    def test_header_only_reads_zero_rows(self, tmp_path):
        csv_file, arff = tmp_path / "h.csv", tmp_path / "h.arff"
        csv_file.write_text("a,b,y\n")
        arff.write_text("@relation r\n@attribute a numeric\n@attribute b numeric\n"
                        "@attribute y {0,1}\n@data\n")
        no_data = tmp_path / "no_data.arff"  # no @data line at all
        no_data.write_text(arff.read_text().replace("@data\n", ""))
        for path in (csv_file, arff, no_data):
            names, values = dataio.read_table(path)
            assert names == ("a", "b", "y")
            assert values.shape == (0, 3)
            with pytest.raises(dataio.DataFormatError, match="empty dataset"):
                dataio.load_dataset(str(path), labels_last=1)

    def test_header_naming_a_column_twice_refused_on_line_1(self, tmp_path):
        repeated, other = tmp_path / "r.csv", tmp_path / "o.csv"
        repeated.write_text("a,b,a\n1,2,0\n")
        other.write_text("y\n1\n")
        message = "^" + re.escape(f"{repeated} line 1: column 'a' named twice in the header") + "$"
        for spec in (str(repeated), f"{repeated};{other}", f"{other};{repeated}"):
            with pytest.raises(dataio.DataFormatError, match=message):
                dataio.load_dataset(spec, labels_last=1)

    def test_spec_without_label_columns_refused(self, dense_file):
        with pytest.raises(dataio.SpecError):
            dataio.load_dataset(str(dense_file))


def per_token_reference(path):
    """The names and values of a dense ARFF or CSV file, each token framed by
    csv.reader, stripped of whitespace and quotes and read with float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read().splitlines()
    if path.suffix == ".csv":
        names, *rows = csv.reader(text)
    else:
        names = [line.split()[1] for line in text if line.startswith("@attribute")]
        rows = [next(csv.reader([line.strip()], skipinitialspace=True))
                for line in text[text.index("@data") + 1:] if line.strip()]
    values = [[float(t.strip().strip("'\"")) for t in row] for row in rows]
    return tuple(names), np.array(values, dtype=np.float64).reshape(len(rows), len(names))


FLOAT_SPELLINGS = (repr, "{:e}".format, "{:.3E}".format, "{:.17g}".format)
INT_SPELLINGS = (str, lambda i: "-" * (i < 0) + "_".join(str(abs(i))))  # 123 -> 1_2_3
numbers = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(FLOAT_SPELLINGS)),
    st.tuples(st.integers(-10**6, 10**6), st.sampled_from(INT_SPELLINGS)),
)


@st.composite
def dense_token(draw):
    value, spell = draw(numbers)
    pad = st.sampled_from(["", " ", "  "])
    quote = draw(st.sampled_from(["", "", "'", '"']))
    return draw(pad) + quote + draw(pad) + spell(value) + draw(pad) + quote + draw(pad)


class TestFloatPass:
    @given(cols=st.integers(1, 5), data=st.data())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_values_bit_identical_to_per_token_reference(self, tmp_path, cols, data):
        names = [f"a{j}" for j in range(cols)]
        rows = data.draw(st.lists(st.lists(dense_token(), min_size=cols, max_size=cols),
                                  min_size=1, max_size=6))
        arff, csv_file = tmp_path / "t.arff", tmp_path / "t.csv"
        arff.write_text("@relation r\n" + "".join(f"@attribute {n} numeric\n" for n in names)
                        + "@data\n" + "".join(",".join(r) + "\n" for r in rows))
        csv_file.write_text(",".join(names) + "\n" + "".join(",".join(r) + "\n" for r in rows))
        for path in (arff, csv_file):
            ref_names, ref = per_token_reference(path)
            if not np.isfinite(ref).all():
                # a spelling such as '{:.3E}' of the largest float rounds past it
                # and reads as inf, which both paths refuse
                with pytest.raises(dataio.DataFormatError, match="non-finite value"):
                    dataio.read_table(path)
                continue
            got_names, got = dataio.read_table(path)
            assert got_names == ref_names == tuple(names)
            assert got.shape == ref.shape == (len(rows), cols)
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


PLAIN_VALUE = numbers.map(lambda value_spell: value_spell[1](value_spell[0]))
# three plain values to one that the one pass refuses or that splits the item
SPARSE_VALUES = st.one_of(
    PLAIN_VALUE, PLAIN_VALUE, PLAIN_VALUE,
    st.sampled_from(["?", "nan", "inf", "-inf", "'1.5'", '"2"', "x", "1,5", "", "1 2"]),
)


@st.composite
def sparse_line(draw):
    pad = st.sampled_from(["", " ", "  ", "\t"])
    items = draw(st.lists(st.tuples(
        st.sampled_from([str, lambda i: f"0{i}", lambda i: f"-{i}", lambda i: f"x{i}"]),
        st.integers(0, 7), SPARSE_VALUES), max_size=6))
    # half the lines get increasing indices; the rest repeat, unsort or break them
    if draw(st.booleans()):
        items = [(str, i, v) for i, (_, _, v) in enumerate(items)]
    body = ",".join(draw(pad) + spell(i) + draw(pad.filter(bool)) + v + draw(pad)
                    for spell, i, v in items)
    return "{" + draw(pad) + body + draw(pad) + "}"


class TestSparsePass:
    def test_plain_rows_take_the_one_pass(self):
        assert dataio._plain_sparse(["0 1", " 3\t2.5 "], 4) == ([0, 3], [1.0, 2.5])
        for items in (["1 1", "1 2"], ["2 1", "1 2"], ["4 1"], ["0 nan"], ["0 '1'"],
                      ["0 1 2"], ["-1 1"], [""], []):
            assert dataio._plain_sparse(items, 4) is None

    def test_repeated_index_keeps_its_last_value(self, tmp_path):
        p = tmp_path / "r.arff"
        p.write_text(HEAD + "{0 1, 0 2, 1 1}\n")
        np.testing.assert_array_equal(dataio.read_arff(p)[1], [[2.0, 1.0]])

    @given(lines=st.lists(sparse_line(), min_size=1, max_size=4))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_values_or_message_as_the_per_token_parser(self, tmp_path, lines):
        path = tmp_path / "s.arff"
        path.write_text("@relation r\n" + "".join(f"@attribute a{j} numeric\n" for j in range(5))
                        + "@data\n" + "\n".join(lines) + "\n")

        def read():
            try:
                return dataio.read_arff(path)[1]
            except dataio.DataFormatError as exc:
                return str(exc)

        got = read()
        with mock.patch.object(dataio, "_plain_sparse", lambda items, n_attrs: None):
            ref = read()
        if isinstance(ref, str):
            assert got == ref
        else:
            assert isinstance(got, np.ndarray) and got.shape == ref.shape
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
