"""CSV parsing and the barcode/report JSON formats."""

import json
import math

import numpy as np
import pytest

from sumrips import Bar, Barcode, GradedBarcode, InputError, compare_product, hamming_cube
from sumrips.io import (
    FormatError,
    barcode_document,
    dumps_document,
    parse_barcode_document,
    read_barcode_json,
    read_metric_csv,
    report_document,
    write_barcode_json,
    write_complex_dump,
)
from sumrips.kunneth import DimensionComparison
from sumrips.metric import ValidationError

INF = math.inf


# ------------------------------------------------------------------------ CSV

def test_read_csv_plain(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n1,0\n")
    space = read_metric_csv(path)
    assert len(space) == 2 and space.labels == ("0", "1")
    assert space.dist[0, 1] == 1.0


def test_read_csv_with_header_and_whitespace(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a, b, c\n0, 3, 4\n\n3, 0, 5\n4, 5, 0\n")
    space = read_metric_csv(path)
    assert space.labels == ("a", "b", "c")
    assert space.dist[1, 2] == 5.0


def test_read_csv_reports_line_and_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n0,oops\n1,0\n")
    with pytest.raises(FormatError, match="line 2, column 2.*'oops'"):
        read_metric_csv(path)


def test_read_csv_shape_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n")
    with pytest.raises(FormatError, match="expected 2 data rows"):
        read_metric_csv(path)
    path.write_text("0,1\n1,0,3\n")
    with pytest.raises(FormatError, match="line 2 has 3 values"):
        read_metric_csv(path)
    path.write_text("")
    with pytest.raises(FormatError, match="no data"):
        read_metric_csv(path)


def test_read_csv_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xff\xfe0\x00,\x001\x00\n")
    with pytest.raises(FormatError, match="not UTF-8 text.*at byte 0"):
        read_metric_csv(path)
    path.write_bytes("a,\u00e9\n0,1\n1,0\n".encode())
    assert read_metric_csv(path).labels == ("a", "\u00e9")


def test_read_csv_skips_a_byte_order_mark(tmp_path):
    """Spreadsheets save "CSV UTF-8" with the bytes ef bb bf in front."""
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbf0,1\n1,0\n")
    space = read_metric_csv(path)
    assert space.labels == ("0", "1") and space.dist[0, 1] == 1.0
    path.write_bytes(b"\xef\xbb\xbfa,b\n0,1\n1,0\n")
    assert read_metric_csv(path).labels == ("a", "b")


def test_read_csv_applies_metric_validation(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n2,0\n")
    with pytest.raises(ValidationError, match="not symmetric"):
        read_metric_csv(path)


# -------------------------------------------------------------- barcode JSON

def _sample_code():
    return GradedBarcode({0: Barcode([Bar(0, 1), Bar(0, INF)]), 1: Barcode()})


def test_barcode_document_structure():
    doc = barcode_document(_sample_code(), field=2)
    assert doc["format"] == "sumrips-barcode"
    assert doc["field"] == 2
    assert doc["convention"] == "half-open"
    assert list(doc["dims"]) == ["0", "1"]
    assert doc["dims"]["0"] == [[0.0, 1.0], [0.0, "inf"]]
    assert doc["dims"]["1"] == []


def test_barcode_roundtrip(tmp_path):
    path = tmp_path / "code.json"
    code = _sample_code()
    write_barcode_json(code, path, field=3)
    back, field = read_barcode_json(path)
    assert back == code and field == 3
    assert back.dims() == code.dims()  # explicit empty dim survives


def test_serialization_is_canonical():
    # same multiset, different construction order: identical bytes
    a = GradedBarcode({1: Barcode([Bar(1, 2)]), 0: Barcode([Bar(0, INF), Bar(0, 1)])})
    b = GradedBarcode({0: Barcode([Bar(0, 1), Bar(0, INF)]), 1: Barcode([Bar(1, 2)])})
    assert dumps_document(barcode_document(a, 2)) == dumps_document(barcode_document(b, 2))
    text = dumps_document(barcode_document(a, 2))
    assert '"inf"' in text and text.endswith("\n")
    assert "Infinity" not in text


def test_parse_rejects_malformed_documents(tmp_path):
    good = barcode_document(_sample_code(), field=2)

    def reject(mutate, match):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(FormatError, match=match):
            parse_barcode_document(doc)

    reject(lambda d: d.update(format="other"), "format")
    reject(lambda d: d.update(convention="closed"), "convention")
    reject(lambda d: d.update(field="two"), "field")
    reject(lambda d: d.update(field=True), "field")
    reject(lambda d: d.update(field=1), "field")
    reject(lambda d: d.pop("dims"), "dims")
    reject(lambda d: d.update(dims=[]), "dims")
    reject(lambda d: d["dims"].update({"-1": []}), "dimension key")
    reject(lambda d: d["dims"].update({"x": []}), "dimension key")
    reject(lambda d: d["dims"].update({"2": [[0.0]]}), r"\[birth, death\]")
    reject(lambda d: d["dims"].update({"2": [[0.0, "infinity"]]}), "endpoint")
    reject(lambda d: d["dims"].update({"2": [[2.0, 1.0]]}), "birth < death")
    reject(lambda d: d["dims"].update({"2": [[1.0, 1.0]]}), "birth < death")
    with pytest.raises(FormatError, match="JSON object"):
        parse_barcode_document([1, 2])

    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="invalid JSON"):
        read_barcode_json(path)


@pytest.mark.parametrize("key", ["01", "\u0661", "\u00b2",
                                 pytest.param("9" * 5000, id="5000-digits")])
def test_parse_rejects_noncanonical_dimension_keys(key):
    """Only str(n) names dimension n: "01" next to "1" would silently replace
    its bars, Arabic-Indic one parses as 1 too, and int() refuses superscript
    two and 5000 digits."""
    doc = barcode_document(GradedBarcode({1: Barcode([Bar(0, 1)])}), field=2)
    doc["dims"][key] = [[0.0, 2.0]]
    with pytest.raises(FormatError, match="dimension key"):
        parse_barcode_document(doc)
    doc["dims"] = {key: [[0.0, 2.0]]}
    with pytest.raises(FormatError, match="dimension key"):
        parse_barcode_document(doc)


HEAD = '"format": "sumrips-barcode", "convention": "half-open"'


@pytest.mark.parametrize("body, key", [
    ('"field": 2, "dims": {"0": [[0, "inf"], [0, 1]], "0": [[0, "inf"]]}', "'0'"),
    ('"field": 3, "field": 2, "dims": {"0": [[0, "inf"]]}', "'field'"),
])
def test_read_refuses_repeated_keys(body, key, tmp_path):
    """json keeps the last of two equal keys: the first one's bars or field
    must not vanish without a word."""
    path = tmp_path / "a.json"
    path.write_text(f"{{{HEAD}, {body}}}")
    with pytest.raises(FormatError, match=f"repeated key {key}"):
        read_barcode_json(path)
    # the same document with one of each key reads as before
    path.write_text(f'{{{HEAD}, "field": 2, "dims": {{"0": [[0, "inf"]]}}}}')
    assert read_barcode_json(path) == (GradedBarcode({0: Barcode([Bar(0, INF)])}), 2)


@pytest.mark.parametrize("text", [pytest.param("9" * 400, id="400-digits"), "1e400", "Infinity",
                                  "-Infinity", "NaN", pytest.param("9" * 5000, id="5000-digits")])
def test_parse_refuses_endpoints_that_are_not_finite_floats(text, tmp_path):
    """Only the string "inf" is an infinite death: an integer past the float
    range, 1e400 and JSON's non-standard Infinity must not read as one."""
    path = tmp_path / "a.json"
    path.write_text('{"format": "sumrips-barcode", "field": 2, "convention": "half-open", '
                    f'"dims": {{"0": [[0.0, {text}]]}}}}')
    with pytest.raises(FormatError):
        read_barcode_json(path)
    if len(text) < 4300:  # json.loads refuses longer integers itself
        with pytest.raises(FormatError, match="endpoint"):
            parse_barcode_document(json.loads(path.read_text()))


# ------------------------------------------------------------------- reports

def test_report_document_structure():
    report = compare_product(hamming_cube(1), hamming_cube(2), 3)
    doc = report_document(report)
    assert doc["ok"] is True
    assert doc["diameter_bound"] == 1.0
    assert [d["verdict"] for d in doc["dims"]] == ["equal", "equal", "dominated", "violated"]
    assert doc["dims"][2]["predicted"] == [[2.0, 3.0]]
    assert doc["dims"][2]["bottleneck"] == 0.5
    dumps_document(doc)  # must be valid strict JSON


def test_report_document_stringifies_infinite_bottleneck():
    entry = DimensionComparison(
        n=0, predicted=Barcode([Bar(0, INF)]), actual=Barcode(),
        verdict="violated", asserted=True, verdict_ok=False,
        bottleneck=INF, diameter_bound=1.0)
    from sumrips.kunneth import ComparisonReport
    doc = report_document(ComparisonReport(field=2, diameter_bound=1.0, dims=(entry,)))
    assert doc["dims"][0]["bottleneck"] == "inf"
    assert doc["ok"] is False
    dumps_document(doc)


def test_write_complex_dump(tmp_path):
    from sumrips import vietoris_rips
    cx = vietoris_rips(hamming_cube(1), 1)
    path = tmp_path / "complex.txt"
    write_complex_dump(cx, path)
    assert path.read_text() == "0 0 0.0 - 0\n1 0 0.0 - 1\n2 1 1.0 0:-1,1:1 0,1\n"


def test_barcode_documents_carry_prime_fields(tmp_path):
    code = _sample_code()
    with pytest.raises(InputError, match="prime"):
        barcode_document(code, 4)
    with pytest.raises(InputError, match="prime"):
        write_barcode_json(code, tmp_path / "bad.json", field=4)
    doc = barcode_document(code, np.int64(3))
    assert type(doc["field"]) is int and json.loads(dumps_document(doc))["field"] == 3
    for field in (4, 9, 2**31):
        doc["field"] = field
        with pytest.raises(FormatError, match="field"):
            parse_barcode_document(doc)
