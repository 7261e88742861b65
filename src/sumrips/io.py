"""File formats: distance-matrix CSV in, barcode and report JSON out.

Files are read and written as UTF-8 whatever the locale.  Barcode documents
are canonical and deterministic: dims appear in ascending numeric order, bars
in (birth, death) order, floats via repr round-trip, and infinite deaths as
the string "inf" (never JSON Infinity).  Every document records the
coefficient field and the interval convention so a reader can refuse data it
does not understand.  parse(serialize(B)) == B exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any

from .bars import INF, Bar, Barcode, GradedBarcode
from .complexes import FilteredComplex
from .errors import InputError
from .kunneth import ComparisonReport
from .metric import FiniteMetricSpace, validate
from .persistence import _check_field

BARCODE_FORMAT = "sumrips-barcode"
CONVENTION = "half-open"


class FormatError(InputError):
    """A file does not conform to the documented format."""


def read_metric_csv(path: str | Path) -> FiniteMetricSpace:
    """Parse an n x n comma-separated distance matrix, optional label header.

    The file is read as UTF-8, with or without a leading byte-order mark;
    other bytes are a format error.

    The first row is a header exactly when any of its entries fails to parse
    as a number.  Parse errors report 1-based line and column.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    rows = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not rows:
        raise FormatError(f"{path}: no data rows")

    def split(line: str) -> list[str]:
        return [tok.strip() for tok in line.split(",")]

    first = split(rows[0])
    labels: list[str] | None = None
    start = 0
    try:
        [float(tok) for tok in first]
    except ValueError:
        labels = first
        start = 1
    n = len(first)
    data_rows = rows[start:]
    if len(data_rows) != n:
        raise FormatError(f"{path}: expected {n} data rows to match {n} columns, "
                          f"got {len(data_rows)}")
    matrix = []
    for r, line in enumerate(data_rows):
        toks = split(line)
        if len(toks) != n:
            raise FormatError(f"{path}: line {start + r + 1} has {len(toks)} values, expected {n}")
        parsed = []
        for c, tok in enumerate(toks):
            try:
                parsed.append(float(tok))
            except ValueError:
                raise FormatError(f"{path}: line {start + r + 1}, column {c + 1}: "
                                  f"could not parse {tok!r} as a number") from None
        matrix.append(parsed)
    return validate(matrix, labels)


def json_endpoint(value: float) -> float | str:
    """`value` as every JSON document holds it: infinity as the string "inf"."""
    return "inf" if value == INF else value


def barcode_document(code: GradedBarcode, field: int) -> dict[str, Any]:
    """JSON-ready dict for a graded barcode; includes computed-but-empty dims.

    The field must be a prime below 2^31, as `reduce` requires.
    """
    return {
        "format": BARCODE_FORMAT,
        "field": _check_field(field),
        "convention": CONVENTION,
        "dims": {str(n): _barcode_pairs(bars) for n, bars in code.items()},
    }


def dumps_document(doc: dict[str, Any]) -> str:
    # allow_nan=False so an accidental raw inf/nan fails loudly instead of
    # producing invalid JSON.
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_text(text: str, path: str | Path) -> None:
    """Write text to path as UTF-8, whatever the locale; a path that cannot be
    written is an input error that names it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_barcode_json(code: GradedBarcode, path: str | Path, field: int) -> None:
    write_text(dumps_document(barcode_document(code, field)), path)


def _parse_endpoint(value: Any, where: str) -> float:
    if value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: endpoint must be a number or \"inf\", got {value!r}")
    # Only the string "inf" is infinite: JSON's Infinity, 1e400 and integers
    # beyond the float range are refused, not read as essential bars.
    try:
        number = float(value)
    except OverflowError:
        raise FormatError(f"{where}: integer endpoint is too large for a float") from None
    if not math.isfinite(number):
        raise FormatError(f"{where}: endpoint must be finite or \"inf\", got {number!r}")
    return number


def parse_barcode_document(doc: Any, where: str = "barcode document") -> tuple[GradedBarcode, int]:
    """Validate a parsed JSON document; returns (barcode, field characteristic)."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if doc.get("format") != BARCODE_FORMAT:
        raise FormatError(f"{where}: unknown format marker {doc.get('format')!r}")
    if doc.get("convention") != CONVENTION:
        raise FormatError(f"{where}: unknown interval convention {doc.get('convention')!r}; "
                          f"only {CONVENTION!r} is supported")
    try:
        field = _check_field(doc.get("field"))
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from None
    dims = doc.get("dims")
    if not isinstance(dims, dict):
        raise FormatError(f"{where}: missing dims object")
    by_dim: dict[int, Barcode] = {}
    for key, rows in dims.items():
        # Canonical ASCII only: "01" would stand for the same dimension as "1"
        # and silently replace its bars.
        try:
            canonical = (isinstance(key, str) and key.isascii() and key.isdigit()
                         and str(int(key)) == key)
        except ValueError:  # int() refuses strings of more than 4300 digits
            canonical = False
        if not canonical:
            raise FormatError(f"{where}: dimension key {key!r} is not a nonnegative integer "
                              f"in canonical form")
        n = int(key)
        if not isinstance(rows, list):
            raise FormatError(f"{where}: dims[{key!r}] must be a list of intervals")
        bars = []
        for idx, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 2):
                raise FormatError(f"{where}: dims[{key!r}][{idx}] must be [birth, death]")
            birth = _parse_endpoint(row[0], f"{where}: dims[{key!r}][{idx}]")
            death = _parse_endpoint(row[1], f"{where}: dims[{key!r}][{idx}]")
            try:
                bars.append(Bar(birth, death))
            except ValueError as exc:
                raise FormatError(f"{where}: dims[{key!r}][{idx}]: {exc}") from None
        by_dim[n] = Barcode(bars)
    return GradedBarcode(by_dim), field


def read_barcode_json(path: str | Path) -> tuple[GradedBarcode, int]:
    """Read a barcode document; returns (barcode, field characteristic), the
    arguments write_barcode_json took.  A repeated key is a format error:
    json.loads keeps its last value and silently drops the first."""
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise FormatError(f"{path}: repeated key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON or bytes, or int() refusing 4300+ digits
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    return parse_barcode_document(doc, where=str(path))


def _barcode_pairs(code: Barcode) -> list[list[Any]]:
    return [[b.birth, json_endpoint(b.death)] for b in code]


def report_document(report: ComparisonReport) -> dict[str, Any]:
    """JSON-ready dict for a product comparison report.  `hypothesis_break`
    appears only when a factor breaks d(u, u) <= d(u, v)."""
    broken = report.hypothesis_break
    return {
        "format": "sumrips-kunneth-report",
        "field": report.field,
        "convention": CONVENTION,
        "diameter_bound": report.diameter_bound,
        "ok": report.ok,
        **({} if broken is None else {"hypothesis_break": asdict(broken)}),
        "dims": [
            {
                "n": d.n,
                "verdict": d.verdict,
                "asserted": d.asserted,
                "verdict_ok": d.verdict_ok,
                "bottleneck": json_endpoint(d.bottleneck),
                "diameter_bound": d.diameter_bound,
                "bound_ok": d.bound_ok,
                "predicted": _barcode_pairs(d.predicted),
                "actual": _barcode_pairs(d.actual),
            }
            for d in report.dims
        ],
    }


def write_complex_dump(cx: FilteredComplex, path: str | Path) -> None:
    """One cell per line: id dim filtration boundary label."""
    write_text("\n".join(cx.dump_lines()) + "\n", path)
