"""Command-line behavior: output formats, files, exit codes."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import corpus
import sumrips.io
from sumrips import Bar, Barcode, GradedBarcode, hamming_cube, validate
from sumrips.cli import build_parser, main
from sumrips.complexes import rips_cell_count
from sumrips.io import write_barcode_json
from sumrips.kunneth import ComparisonReport, DimensionComparison

INF = math.inf


@pytest.fixture
def interval_csv(tmp_path):
    path = tmp_path / "interval.csv"
    path.write_text(corpus.space_to_csv(hamming_cube(1)))
    return path


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    # No header: the binary vertex labels ("00", "01", ...) parse as numbers,
    # so a label row here would be read as data, which the reader rejects.
    path.write_text(corpus.space_to_csv(hamming_cube(2)))
    return path


def test_vr_json_output(interval_csv, capsys):
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "sumrips-barcode"
    assert doc["dims"] == {"0": [[0.0, 1.0], [0.0, "inf"]], "1": []}


def test_vr_table_output(interval_csv, capsys):
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "2",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "PH_0: [0,1) [0,inf)" in out
    assert "PH_1: -" in out


@pytest.mark.parametrize("field", ["2", "3"])
def test_vr_prints_the_same_bytes_with_and_without_the_whole_complex(field, tmp_path, capsys):
    """Without --dump-complex, vr collapses the complex cut at the enclosing
    radius; with it, vr builds the whole complex."""
    rng = random.Random(5077)
    for i in range(20):
        path = tmp_path / f"m{i}.csv"
        path.write_text(corpus.space_to_csv(corpus.random_float_space(rng, 4, 10)))
        outputs = []
        for extra in ([], ["--dump-complex", os.devnull]):
            assert main(["vr", "--input", str(path), "--maxdim", "3", "--field", field,
                         *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], path.read_text()


def test_vr_output_file_and_dump(interval_csv, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    dump_file = tmp_path / "cells.txt"
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "1",
                 "--output", str(out_file), "--dump-complex", str(dump_file)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["field"] == 2
    assert dump_file.read_text().splitlines()[0] == "0 0 0.0 - 0"


def test_vr_reports_and_dumps_the_uncut_complex(tmp_path, capsys):
    # a 4-point path: enclosing radius 2 is below the diameter 3
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(corpus.space_to_csv(
        validate([[abs(i - j) for j in range(4)] for i in range(4)])))
    cells = rips_cell_count(4, 3)
    assert main(["vr", "--input", str(path_csv), "--maxdim", "3", "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0] == f"4 points, {cells} cells, maxdim 3, field 2"
    dump_file = tmp_path / "cells.txt"
    assert main(["vr", "--input", str(path_csv), "--maxdim", "3", "--format", "table",
                 "--dump-complex", str(dump_file)]) == 0
    assert capsys.readouterr().out == table
    assert len(dump_file.read_text().splitlines()) == cells


def test_kunneth_table(interval_csv, square_csv, capsys):
    assert main(["kunneth", "--x", str(interval_csv), "--y", str(square_csv),
                 "--maxn", "3"]) == 0
    out = capsys.readouterr().out
    assert "interleaving bound" in out
    assert "dominated" in out and "violated" in out
    assert out.rstrip().endswith("ok")


def test_kunneth_json(interval_csv, square_csv, capsys):
    assert main(["kunneth", "--x", str(interval_csv), "--y", str(square_csv),
                 "--maxn", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["dims"][2]["verdict"] == "dominated"
    assert doc["dims"][3]["verdict"] == "violated"
    assert "hypothesis_break" not in doc


def test_kunneth_positive_diagonal_exits_0(tmp_path, capsys):
    """d(y0, y0) = 2 > d(y0, y1) = 0 breaks the theorem's hypothesis: degree 1
    is violated but not asserted, and the output names the break."""
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("0,3\n3,0\n")
    y.write_text("2,0\n0,1\n")
    assert main(["kunneth", "--x", str(x), "--y", str(y), "--maxn", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["no degree asserted: d(u, u) > d(u, v) in Y at u = 0, v = 1", "ok"]
    assert main(["kunneth", "--x", str(x), "--y", str(y), "--maxn", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["hypothesis_break"] == {"factor": "Y", "u": "0", "v": "1"}
    assert [(d["verdict"], d["asserted"], d["verdict_ok"]) for d in doc["dims"]] == \
        [("dominated", False, True), ("violated", False, True)]


@pytest.mark.parametrize("field", ["2", "3", "5"])
def test_kunneth_survives_bars_that_rounding_empties(field, tmp_path, capsys):
    """X's bar [0.1, 1) times Y's bar [0.3, 0.1 + 0.2) rounds to the empty
    [0.4, 0.4); the product's matching pair sums the same floats, so it is
    zero-length too, and both sides agree."""
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("0.1,1.0\n1.0,0.1\n")
    y.write_text("0.3,0.30000000000000004\n0.30000000000000004,0.3\n")
    assert main(["kunneth", "--x", str(x), "--y", str(y), "--maxn", "2", "--field", field,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["n"] for d in doc["dims"]] == [0, 1, 2]
    for d in doc["dims"]:
        assert d["verdict"] == "equal" and d["predicted"] == d["actual"]
    assert doc["dims"][0]["actual"] == [[0.4, 1.3], [0.4, "inf"]]
    assert doc["dims"][1]["actual"] == doc["dims"][2]["actual"] == []


def test_hamming_table(capsys):
    assert main(["hamming", "--k", "3", "--maxdim", "4"]) == 0
    out = capsys.readouterr().out
    # the cell count of the whole complex, not of the barcode-only build
    assert out.startswith("I^3 (8 points), 218 cells, maxdim 4, field 2\n")
    assert "dim  bars  expected" in out
    assert "0    8     8" in out
    assert "1    5     5" in out
    assert "3    1     -" in out
    assert out.rstrip().endswith("ok")


def test_hamming_json(capsys):
    assert main(["hamming", "--k", "2", "--maxdim", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"0": 4, "1": 1, "2": 0, "3": 0}
    assert doc["ok"] is True
    assert doc["barcode"]["dims"]["1"] == [[1.0, 2.0]]


def test_hamming_table_flag_forces_table(capsys):
    assert main(["hamming", "--k", "2", "--maxdim", "2", "--format", "json",
                 "--table"]) == 0
    assert "dim  bars  expected" in capsys.readouterr().out


def test_bottleneck_plain_and_json(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, 2)])}), a, field=2)
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, 3)])}), b, field=2)
    assert main(["bottleneck", "--a", str(a), "--b", str(b), "--dim", "0"]) == 0
    assert capsys.readouterr().out == "1.0\n"
    assert main(["bottleneck", "--a", str(a), "--b", str(b), "--dim", "0",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 1.0


def test_bottleneck_reads_each_document_through_read_barcode_json(tmp_path, monkeypatch,
                                                                  capsys):
    """The benchmark's tracer books a document read by rebinding this one reader."""
    path = tmp_path / "a.json"
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, 2)])}), path, field=2)
    read, calls = sumrips.io.read_barcode_json, []

    def recording(p):
        calls.append(p)
        return read(p)

    monkeypatch.setattr(sumrips.io, "read_barcode_json", recording)
    assert main(["bottleneck", "--a", str(path), "--b", str(path), "--dim", "0"]) == 0
    assert capsys.readouterr().out == "0.0\n"
    assert calls == [path, path]


def test_bottleneck_checks_dim_before_reading(tmp_path, capsys):
    absent = str(tmp_path / "absent.json")
    assert main(["bottleneck", "--a", absent, "--b", absent, "--dim", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --dim must be >= 0, got -1\n"


def test_bottleneck_missing_dimension_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    write_barcode_json(GradedBarcode({0: Barcode()}), a, field=2)
    assert main(["bottleneck", "--a", str(a), "--b", str(a), "--dim", "1"]) == 2
    assert "dimension 1" in capsys.readouterr().err


def test_bottleneck_refuses_documents_over_other_fields(tmp_path, capsys):
    paths = {p: tmp_path / f"f{p}.json" for p in (2, 3)}
    for p, path in paths.items():
        write_barcode_json(GradedBarcode({0: Barcode([Bar(0, p)])}), path, field=p)
    f2, f3 = str(paths[2]), str(paths[3])
    for argv in (["--a", f2, "--b", f3], ["--a", f3, "--b", f3, "--field", "5"],
                 ["--a", f3, "--b", f3, "--field", "2"]):
        assert main(["bottleneck", *argv, "--dim", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "field" in err
    # the default, and an explicit --field that agrees, read the documents' field
    for argv in (["--a", f3, "--b", f3], ["--a", f3, "--b", f3, "--field", "3"]):
        assert main(["bottleneck", *argv, "--dim", "0"]) == 0
        assert capsys.readouterr().out == "0.0\n"


def test_bottleneck_refuses_noncanonical_dimension_keys(tmp_path, capsys):
    path = tmp_path / "a.json"
    write_barcode_json(GradedBarcode({1: Barcode([Bar(0, 1)])}), path, field=2)
    doc = json.loads(path.read_text())
    doc["dims"]["01"] = []
    path.write_text(json.dumps(doc))
    assert main(["bottleneck", "--a", str(path), "--b", str(path), "--dim", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "dimension key '01'" in err


def test_bottleneck_refuses_repeated_keys(tmp_path, capsys):
    """Read by its last "0" only, the first document seemed to hold the
    second's one bar, and the distance printed was 0.0 with exit 0."""
    one = tmp_path / "one.json"
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, INF)])}), one, field=2)
    path = tmp_path / "a.json"
    path.write_text(one.read_text().replace('"0": [', '"0": [[0, "inf"], [0, 1]], "0": ['))
    assert main(["bottleneck", "--a", str(path), "--b", str(one), "--dim", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "repeated key '0'" in err


@pytest.mark.parametrize("death", [pytest.param("9" * 400, id="400-digits"), "1e400", "Infinity"])
def test_bottleneck_refuses_endpoints_that_are_not_finite_floats(death, tmp_path, capsys):
    """Against a document whose bar dies at "inf", these once gave a traceback
    (the 400-digit integer) or read as the same essential bar and printed 0.0."""
    essential = tmp_path / "inf.json"
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, INF)])}), essential, field=2)
    path = tmp_path / "a.json"
    path.write_text(essential.read_text().replace('"inf"', death))
    assert main(["bottleneck", "--a", str(path), "--b", str(essential), "--dim", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "endpoint" in err and "Traceback" not in err


def test_repeated_calls_share_no_state(interval_csv, square_csv, tmp_path, capsys):
    """Options of one in-process call do not carry over to the next."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, 2)])}), a, field=2)
    write_barcode_json(GradedBarcode({0: Barcode([Bar(0, 3)])}), b, field=2)
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "1",
                 "--field", "3", "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("field 3")
    # the documents' field (2, not 3) and bottleneck's table default
    assert main(["bottleneck", "--a", str(a), "--b", str(b), "--dim", "0"]) == 0
    assert capsys.readouterr().out == "1.0\n"
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == 2
    kunneth = ["kunneth", "--x", str(interval_csv), "--y", str(square_csv), "--maxn", "2"]
    outputs = []
    for _ in range(2):
        assert main(kunneth) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_main_builds_the_parser_once(interval_csv, capsys):
    build_parser.cache_clear()
    for _ in range(3):
        assert main(["vr", "--input", str(interval_csv), "--maxdim", "1"]) == 0
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 2


@pytest.mark.parametrize("command", [[], ["vr"], ["kunneth"], ["hamming"], ["bottleneck"]])
def test_help_from_the_shared_parser(command, capsys):
    """--help prints the same bytes on every call as from a parser built afresh."""
    def help_text(parse):
        with pytest.raises(SystemExit) as stop:
            parse([*command, "--help"])
        assert stop.value.code == 0
        return capsys.readouterr().out

    fresh = help_text(build_parser.__wrapped__().parse_args)
    assert fresh.startswith(" ".join(["usage: sumrips", *command]))
    assert help_text(main) == fresh
    assert help_text(main) == fresh


@pytest.mark.parametrize("argv", [
    ["hamming", "--k", "3", "--maxdim", "4", "--threads", "0"],
    ["hamming", "--k", "0", "--maxdim", "2"],
    ["hamming", "--k", "3", "--maxdim", "4", "--field", "4"],
    ["hamming", "--k", "3", "--maxdim", "4", "--cell-cap", "0"],
])
def test_input_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,x\nx,0\n")
    assert main(["vr", "--input", str(path), "--maxdim", "1"]) == 2
    assert main(["vr", "--input", str(tmp_path / "absent.csv"), "--maxdim", "1"]) == 2


def test_csv_that_is_not_utf8_exits_2_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "utf16.csv"
    path.write_bytes("0,1\n1,0\n".encode("utf-16"))  # starts with the bytes ff fe
    assert main(["vr", "--input", str(path), "--maxdim", "1"]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "Traceback" not in err


def test_unwritable_output_exits_2_without_a_traceback(interval_csv, tmp_path, capsys):
    for target in (tmp_path / "absent" / "code.json", tmp_path):
        assert main(["vr", "--input", str(interval_csv), "--maxdim", "1",
                     "--output", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {target}: cannot write")


def test_unwritable_dump_exits_2_without_a_traceback(interval_csv, tmp_path, capsys):
    for target in (tmp_path / "absent" / "cells.txt", tmp_path):
        assert main(["vr", "--input", str(interval_csv), "--maxdim", "1",
                     "--dump-complex", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {target}: cannot write")


def test_a_field_that_is_not_prime_exits_2_before_anything_is_written(interval_csv, tmp_path,
                                                                       capsys):
    dump = tmp_path / "cells.txt"
    assert main(["vr", "--input", str(interval_csv), "--maxdim", "2", "--field", "4",
                 "--dump-complex", str(dump)]) == 2
    assert capsys.readouterr() == \
        ("", "error: field characteristic must be a prime below 2^31, got 4\n")
    assert not dump.exists()


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """A non-ASCII label reaches the dump intact when the locale is C."""
    csv = tmp_path / "labels.csv"
    csv.write_text("\u00e9,b\n0,1\n1,0\n", encoding="utf-8")
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "sumrips.cli", "vr",
                           "--input", str(csv), "--maxdim", "1",
                           "--dump-complex", str(tmp_path / "cells.txt"),
                           "--output", str(tmp_path / "code.json")],
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    cells = (tmp_path / "cells.txt").read_text(encoding="utf-8").splitlines()
    assert cells[0] == "0 0 0.0 - \u00e9" and cells[2] == "2 1 1.0 0:-1,1:1 \u00e9,b"
    assert json.loads((tmp_path / "code.json").read_text(encoding="utf-8"))["field"] == 2


def test_caps_exit_3(capsys):
    assert main(["hamming", "--k", "3", "--maxdim", "4", "--cell-cap", "5"]) == 3
    assert main(["hamming", "--k", "9", "--maxdim", "2"]) == 3
    assert "error:" in capsys.readouterr().err


def test_hamming_mismatch_exits_1(monkeypatch, capsys):
    import sumrips.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_hamming_expected", lambda k: {0: 999, 1: 0, 2: 0})
    assert main(["hamming", "--k", "2", "--maxdim", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_kunneth_violation_exits_1(interval_csv, monkeypatch, capsys):
    import sumrips.cli as cli_mod
    entry = DimensionComparison(
        n=0, predicted=Barcode(), actual=Barcode([Bar(0, INF)]),
        verdict="violated", asserted=True, verdict_ok=False,
        bottleneck=INF, diameter_bound=1.0)
    doctored = ComparisonReport(field=2, diameter_bound=1.0, dims=(entry,))
    monkeypatch.setattr(cli_mod, "compare_product", lambda *a, **k: doctored)
    assert main(["kunneth", "--x", str(interval_csv), "--y", str(interval_csv),
                 "--maxn", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_threads_do_not_change_bytes(capsys):
    outputs = []
    for threads in ("1", "8"):
        assert main(["hamming", "--k", "3", "--maxdim", "4", "--format", "json",
                     "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_console_script_smoke():
    proc = subprocess.run([sys.executable, "-m", "sumrips.cli", "hamming",
                           "--k", "2", "--maxdim", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("ok")


RUN_EVERY_SUBCOMMAND = """
import json, sys
from pathlib import Path
from sumrips import cli

tmp = Path(sys.argv[1])
(tmp / "x.csv").write_text("0,1,2\\n1,0,1\\n2,1,0\\n")
(tmp / "y.csv").write_text("0,2,3\\n2,0,1\\n3,1,0\\n")
out = str(tmp / "out")
codes = [cli.main(["vr", "--input", str(tmp / name), "--maxdim", "2",
                   "--output", str(tmp / (name + ".json"))]) for name in ("x.csv", "y.csv")]
codes.append(cli.main(["kunneth", "--x", str(tmp / "x.csv"), "--y", str(tmp / "y.csv"),
                       "--maxn", "1", "--output", out]))
codes.append(cli.main(["hamming", "--k", "2", "--maxdim", "3", "--output", out]))
codes.append(cli.main(["bottleneck", "--a", str(tmp / "x.csv.json"),
                       "--b", str(tmp / "y.csv.json"), "--dim", "0", "--output", out]))
print(json.dumps({"codes": codes, "bottleneck": open(out).read(),
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_imports_no_scipy(tmp_path):
    """numpy is the only runtime dependency: no subcommand loads scipy."""
    proc = subprocess.run([sys.executable, "-c", RUN_EVERY_SUBCOMMAND, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["bottleneck"] == "1.0\n"
    assert result["scipy"] == []
