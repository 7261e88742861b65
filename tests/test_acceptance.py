"""Acceptance suite: the package's contract, one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  All equalities are exact (integer-valued inputs, dyadic bar
endpoints); the bottleneck comparisons are exact as well, far inside the
10^-9 tolerance they are required to meet.  The deep rows of the 4-bit cube
(the full 65535-cell complex) run under `-m slow`.
"""

import math
import random
import time

import pytest

import corpus
import oracle
from sumrips import (
    Bar,
    Barcode,
    hamming_cube,
    kunneth_predict,
    reduce,
    tensor_complex,
    validate,
    vietoris_rips,
)
from sumrips.cli import main
from sumrips.io import write_barcode_json
from sumrips.kunneth import VERDICT_DOMINATED, VERDICT_EQUAL, compare_product

INF = math.inf


@pytest.fixture(scope="module")
def product_reports():
    """compare_product over the 50-pair corpus, degrees 0..3, computed once."""
    return [(x, y, compare_product(x, y, 3)) for x, y in corpus.product_corpus()]


@pytest.fixture(scope="module")
def cube_reports():
    interval, square = hamming_cube(1), hamming_cube(2)
    return [(interval, square, compare_product(interval, square, 3)),
            (square, square, compare_product(square, square, 3))]


def test_criterion_1_hamming_golden_table():
    """Cube bar counts and endpoints for k = 1..5 match the closed forms."""
    start = time.monotonic()
    codes = {}
    for k, maxdim in [(1, 4), (2, 4), (3, 4), (4, 4), (5, 3)]:
        codes[k] = reduce(vietoris_rips(hamming_cube(k), maxdim))
        ph0 = codes[k][0]
        assert ph0 == Barcode([Bar(0, 1)] * (2 ** k - 1) + [Bar(0, INF)]), k
        ph1_count = k * 2 ** (k - 1) - (2 ** k - 1)
        assert codes[k][1] == Barcode([Bar(1, 2)] * ph1_count), k
        if k >= 2:
            assert codes[k][2] == Barcode(), k
    assert len(codes[3][3]) == 1
    assert len(codes[4][3]) == 9
    assert time.monotonic() - start < 60


@pytest.mark.slow
def test_criterion_1_deep_rows_full_cube():
    """Full 4-bit cube complex (all 65535 cells): degrees 4..7 are 0,0,0,1."""
    code = reduce(vietoris_rips(hamming_cube(4), 15))
    counts = {n: len(code[n]) for n in range(8)}
    assert counts == {0: 16, 1: 17, 2: 0, 3: 9, 4: 0, 5: 0, 6: 0, 7: 1}


def test_criterion_2_products_equal_in_degrees_0_and_1(product_reports):
    """Prediction = computation exactly at n = 0, 1 on all 50 corpus pairs."""
    for x, y, report in product_reports:
        for n in (0, 1):
            entry = report.dims[n]
            assert entry.verdict == VERDICT_EQUAL, (x, y, n)
            assert entry.predicted == entry.actual


def test_criterion_3_domination_in_degree_2(product_reports, cube_reports):
    """Prediction dominates computation pointwise at n = 2, corpus and cubes."""
    for x, y, report in [*product_reports, *cube_reports]:
        entry = report.dims[2]
        assert entry.verdict in (VERDICT_EQUAL, VERDICT_DOMINATED), (x, y)
        for t in sorted({*entry.predicted.endpoints(), *entry.actual.endpoints()}):
            assert entry.predicted.dim_at(t) >= entry.actual.dim_at(t), (x, y, t)


def test_criterion_4_interval_times_square_discrepancy(cube_reports):
    """The known degree-2/3 failure is reproduced exactly and reported, not raised."""
    _, _, report = cube_reports[0]
    assert report.dims[2].predicted == Barcode([Bar(2, 3)])
    assert report.dims[2].actual == Barcode()
    assert report.dims[2].verdict == VERDICT_DOMINATED
    assert report.dims[3].predicted == Barcode()
    assert len(report.dims[3].actual) == 1
    assert report.ok  # structured report, assertions limited to degrees 0..2


def test_criterion_5_chain_level_product_matches_prediction():
    """Tensor-complex persistence equals the barwise prediction for n <= 2."""
    for x, y in corpus.small_pairs():
        cx, cy = vietoris_rips(x, 3), vietoris_rips(y, 3)
        got = reduce(tensor_complex(cx, cy, 3))
        bx, by = reduce(cx), reduce(cy)
        for n in range(3):
            assert got[n] == kunneth_predict(bx, by, n), (x, y, n)


def test_criterion_6_interleaving_bound(product_reports, cube_reports):
    """bottleneck(predicted, actual) <= min(diam X, diam Y) for all n <= 3."""
    for x, y, report in [*product_reports, *cube_reports]:
        for entry in report.dims:
            assert entry.bottleneck < INF, (x, y, entry.n)
            assert entry.bottleneck <= entry.diameter_bound, (x, y, entry.n)


def test_criterion_7_bar_algebra_laws():
    """10^4 random bar pairs: unit, commutativity, associativity, symmetry,
    the persistence law, and the tensor-death <= Tor-birth ordering, exactly."""
    from sumrips import tensor_bar, tor1_bar

    unit = Bar(0, INF)
    rng = random.Random(corpus.BAR_LAWS_SEED)
    for _ in range(10_000):
        x, y, z = (corpus.random_bar(rng) for _ in range(3))
        xy = tensor_bar(x, y)
        assert xy == tensor_bar(y, x)
        assert tensor_bar(xy, z) == tensor_bar(x, tensor_bar(y, z))
        assert tensor_bar(x, unit) == x and tensor_bar(unit, y) == y
        assert xy.persistence == min(x.persistence, y.persistence)
        t = tor1_bar(x, y)
        assert t == tor1_bar(y, x)
        if x.death == INF or y.death == INF:
            assert t is None
        else:
            assert t is not None
            assert t.persistence == min(x.persistence, y.persistence)
            assert xy.death <= t.birth


def test_criterion_8_reduction_matches_rank_nullity():
    """30 random complexes (<= 200 cells): barcode dimensions equal brute-force
    rank-nullity at every critical value; Euler identity on golden fixtures."""
    primes = (2, 3, 5)
    for idx, cx in enumerate(corpus.random_complexes(count=30)):
        assert oracle.complex_violations(cx) == []
        p = primes[idx % 3]
        code = reduce(cx, p)
        for n in range(cx.reliable_dim + 1):
            for t in oracle.critical_values(cx):
                assert code[n].dim_at(t) == oracle.betti_at(cx, p, n, t), (idx, p, n, t)

    fixtures = [
        vietoris_rips(hamming_cube(1), 1),
        vietoris_rips(hamming_cube(2), 3),
        vietoris_rips(hamming_cube(3), 7),
        vietoris_rips(validate([[0, 3, 4], [3, 0, 5], [4, 5, 0]]), 2),
        vietoris_rips(corpus.random_space(random.Random(8), 5, 5), 4),
    ]
    for cx in fixtures:
        assert cx.complete  # barcode carries every dimension: the sum closes
        code = reduce(cx)
        for t in oracle.critical_values(cx):
            chi_cells = sum(-1 if c.dim % 2 else 1 for c in cx.cells if c.filtration <= t)
            chi_bars = sum((code[n].dim_at(t) if n % 2 == 0 else -code[n].dim_at(t))
                           for n in code.dims())
            assert chi_cells == chi_bars, (cx, t)


def test_criterion_9_output_is_thread_count_invariant(tmp_path):
    """Representative CLI runs for criteria 1-6 emit byte-identical JSON
    under --threads 1, 4, and 8."""
    interval_csv = tmp_path / "interval.csv"
    interval_csv.write_text(corpus.space_to_csv(hamming_cube(1)))
    square_csv = tmp_path / "square.csv"
    square_csv.write_text(corpus.space_to_csv(hamming_cube(2)))
    x, y = next((a, b) for a, b in corpus.product_corpus()
                if len(a) <= 3 and len(b) <= 3)
    x_csv = tmp_path / "x.csv"
    x_csv.write_text(corpus.space_to_csv(x))
    y_csv = tmp_path / "y.csv"
    y_csv.write_text(corpus.space_to_csv(y))
    doc_a = tmp_path / "a.json"
    write_barcode_json(reduce(vietoris_rips(hamming_cube(2), 3)), doc_a, field=2)
    doc_b = tmp_path / "b.json"
    write_barcode_json(reduce(vietoris_rips(x, 3)), doc_b, field=2)

    commands = [
        ["hamming", "--k", "3", "--maxdim", "4", "--format", "json"],
        ["hamming", "--k", "5", "--maxdim", "3", "--format", "json"],
        ["vr", "--input", str(square_csv), "--maxdim", "3", "--format", "json"],
        ["kunneth", "--x", str(interval_csv), "--y", str(square_csv),
         "--maxn", "3", "--format", "json"],
        ["kunneth", "--x", str(x_csv), "--y", str(y_csv),
         "--maxn", "3", "--format", "json"],
        ["bottleneck", "--a", str(doc_a), "--b", str(doc_b), "--dim", "1",
         "--format", "json"],
    ]
    for idx, command in enumerate(commands):
        blobs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"out_{idx}_{threads}.json"
            status = main([*command, "--threads", threads, "--output", str(out)])
            assert status == 0, command
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], command
