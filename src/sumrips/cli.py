"""Command-line interface.

Subcommands: vr (Rips barcode of a distance CSV), kunneth (predicted vs
computed product barcodes), hamming (cube golden table), bottleneck (distance
between two stored barcodes).  Exit codes: 0 success, 1 a theorem-level
assertion failed, 2 bad input or an --output or --dump-complex path that
cannot be written, 3 a resource cap would be exceeded.  Files are written as
UTF-8 whatever the locale.

All computation is deterministic and single-threaded; --threads is accepted
for interface stability and validated, and output bytes do not depend on it.

`main(argv)` may be called any number of times in one process.  The parser is
built on the first call, not at import, and reused; each call parses into a
fresh namespace, so no call's output depends on an earlier call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import io
from .bars import INF, Barcode
from .complexes import DEFAULT_CELL_CAP, rips_cell_count, vietoris_rips
from .errors import CapExceeded, InputError, SumripsError
from .kunneth import bottleneck, compare_product
from .metric import hamming_cube
from .persistence import DEFAULT_FIELD, _check_field, reduce


def _add_common(sub: argparse.ArgumentParser, default_format: str,
                field_default: str = str(DEFAULT_FIELD)) -> None:
    sub.add_argument("--field", type=int, default=DEFAULT_FIELD,
                     help=f"coefficient field characteristic (prime, default {field_default})")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; computation is single-threaded")
    sub.add_argument("--cell-cap", type=int, default=DEFAULT_CELL_CAP,
                     help=f"abort if a complex would exceed this many cells "
                          f"(default {DEFAULT_CELL_CAP}, about 4 GB)")
    sub.add_argument("--output", type=Path, default=None,
                     help="write the result here instead of stdout")
    sub.add_argument("--format", choices=("json", "table"), default=default_format,
                     help=f"output format (default {default_format})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sumrips` parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so `main` reuses it; a caller that
    adds arguments to it changes every later `main` call in the process.
    """
    parser = argparse.ArgumentParser(
        prog="sumrips",
        description="Rips persistence of finite generalized metric spaces and "
                    "algebraic predictions for sum-metric products.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    vr = commands.add_parser("vr", help="barcode of the Rips filtration of a distance matrix")
    vr.add_argument("--input", type=Path, required=True, help="distance matrix CSV")
    vr.add_argument("--maxdim", type=int, required=True,
                    help="largest simplex dimension to build")
    vr.add_argument("--dump-complex", type=Path, default=None,
                    help="also write the filtered complex in debug format")
    _add_common(vr, "json")
    vr.set_defaults(func=cmd_vr)

    ku = commands.add_parser("kunneth", help="compare predicted and computed product barcodes")
    ku.add_argument("--x", type=Path, required=True, help="left factor CSV")
    ku.add_argument("--y", type=Path, required=True, help="right factor CSV")
    ku.add_argument("--maxn", type=int, required=True, help="largest degree to compare")
    _add_common(ku, "table")
    ku.set_defaults(func=cmd_kunneth)

    ha = commands.add_parser("hamming", help="Hamming cube barcode vs closed-form counts")
    ha.add_argument("--k", type=int, required=True, help="cube dimension (2^k points)")
    ha.add_argument("--maxdim", type=int, required=True,
                    help="largest simplex dimension to build")
    ha.add_argument("--table", action="store_true", help="force table output")
    _add_common(ha, "table")
    ha.set_defaults(func=cmd_hamming)

    bo = commands.add_parser("bottleneck", help="bottleneck distance between stored barcodes")
    bo.add_argument("--a", type=Path, required=True, help="first barcode JSON")
    bo.add_argument("--b", type=Path, required=True, help="second barcode JSON")
    bo.add_argument("--dim", type=int, required=True, help="homological dimension to compare")
    _add_common(bo, "table", field_default="the documents' field")
    bo.set_defaults(func=cmd_bottleneck, field=None)
    return parser


def _check_common(args: argparse.Namespace) -> None:
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    if args.cell_cap < 1:
        raise InputError(f"--cell-cap must be >= 1, got {args.cell_cap}")
    if args.field is not None:
        _check_field(args.field)


def _group_bars(code: Barcode) -> str:
    if not code:
        return "-"
    groups = Counter(code.bars)
    parts = []
    for bar, count in sorted(groups.items(), key=lambda kv: (kv[0].birth, kv[0].death)):
        parts.append(f"{count}*{bar}" if count > 1 else str(bar))
    return " ".join(parts)


def _fmt(value: float) -> str:
    return "inf" if value == INF else repr(float(value))


def cmd_vr(args: argparse.Namespace) -> tuple[str, int]:
    space = io.read_metric_csv(args.input)
    # The dump shows the whole complex; the barcode alone needs fewer cells.
    cx = vietoris_rips(space, args.maxdim, cell_cap=args.cell_cap,
                       barcode_only=args.dump_complex is None)
    if args.dump_complex is not None:
        io.write_complex_dump(cx, args.dump_complex)
    code = reduce(cx, args.field)
    if args.format == "json":
        return io.dumps_document(io.barcode_document(code, args.field)), 0
    cells = rips_cell_count(len(space), args.maxdim)
    lines = [f"{len(space)} points, {cells} cells, maxdim {args.maxdim}, field {args.field}"]
    for n in code.dims():
        lines.append(f"PH_{n}: {_group_bars(code[n])}")
    return "\n".join(lines) + "\n", 0


def cmd_kunneth(args: argparse.Namespace) -> tuple[str, int]:
    x = io.read_metric_csv(args.x)
    y = io.read_metric_csv(args.y)
    report = compare_product(x, y, args.maxn, p=args.field, cell_cap=args.cell_cap)
    status = 0 if report.ok else 1
    if args.format == "json":
        return io.dumps_document(io.report_document(report)), status
    lines = [f"interleaving bound min(diam X, diam Y) = {_fmt(report.diameter_bound)}",
             f"{'n':>2}  {'verdict':<10} {'asserted':<8} {'bottleneck':<12} "
             f"{'bound ok':<8} predicted / actual"]
    for d in report.dims:
        lines.append(f"{d.n:>2}  {d.verdict:<10} {'yes' if d.asserted else 'no':<8} "
                     f"{_fmt(d.bottleneck):<12} {'yes' if d.bound_ok else 'NO':<8} "
                     f"{_group_bars(d.predicted)} / {_group_bars(d.actual)}")
    broken = report.hypothesis_break
    if broken is not None:
        lines.append(f"no degree asserted: d(u, u) > d(u, v) in {broken.factor} "
                     f"at u = {broken.u}, v = {broken.v}")
    lines.append("ok" if report.ok else "FAIL: prediction theorem violated in an asserted degree")
    return "\n".join(lines) + "\n", status


def _hamming_expected(k: int) -> dict[int, int]:
    return {0: 2 ** k, 1: k * 2 ** (k - 1) - (2 ** k - 1), 2: 0}


def cmd_hamming(args: argparse.Namespace) -> tuple[str, int]:
    if args.k < 1:
        raise InputError(f"--k must be >= 1, got {args.k}")
    space = hamming_cube(args.k)
    cx = vietoris_rips(space, args.maxdim, cell_cap=args.cell_cap, barcode_only=True)
    code = reduce(cx, args.field)
    expected = _hamming_expected(args.k)
    counts = {n: len(code[n]) for n in code.dims()}
    ok = all(counts.get(n, 0) == want
             for n, want in expected.items()
             if n <= cx.reliable_dim or cx.complete)
    status = 0 if ok else 1
    fmt = "table" if args.table else args.format
    if fmt == "json":
        doc = {
            "format": "sumrips-hamming",
            "k": args.k,
            "maxdim": args.maxdim,
            "field": args.field,
            "counts": {str(n): c for n, c in counts.items()},
            "expected": {str(n): want for n, want in expected.items()},
            "ok": ok,
            "barcode": io.barcode_document(code, args.field),
        }
        return io.dumps_document(doc), status
    cells = rips_cell_count(len(space), args.maxdim)
    lines = [f"I^{args.k} ({2 ** args.k} points), {cells} cells, "
             f"maxdim {args.maxdim}, field {args.field}",
             "dim  bars  expected"]
    for n in code.dims():
        want = str(expected[n]) if n in expected else "-"
        lines.append(f"{n:<4} {counts[n]:<5} {want}")
    lines.append("ok" if ok else "FAIL: bar counts disagree with the closed forms")
    return "\n".join(lines) + "\n", status


def cmd_bottleneck(args: argparse.Namespace) -> tuple[str, int]:
    if args.dim < 0:
        raise InputError(f"--dim must be >= 0, got {args.dim}")
    code_a, field_a = io.read_barcode_json(args.a)
    code_b, field_b = io.read_barcode_json(args.b)
    if field_a != field_b:
        raise InputError(f"{args.a} is over F_{field_a} but {args.b} is over F_{field_b}; "
                         f"barcodes over different fields are not comparable")
    if args.field is not None and args.field != field_a:
        raise InputError(f"--field {args.field} disagrees with the documents' field {field_a}")
    for path, code in ((args.a, code_a), (args.b, code_b)):
        if args.dim not in code.dims():
            raise InputError(f"{path}: dimension {args.dim} is not present in the document")
    value = bottleneck(code_a[args.dim], code_b[args.dim])
    if args.format == "json":
        doc = {
            "format": "sumrips-bottleneck",
            "dim": args.dim,
            "distance": io.json_endpoint(value),
        }
        return io.dumps_document(doc), 0
    return _fmt(value) + "\n", 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_common(args)
        text, status = args.func(args)
        if args.output is not None:
            io.write_text(text, args.output)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SumripsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
