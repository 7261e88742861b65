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
    ordered_product,
    product_sum,
    reduce,
    validate,
    vietoris_rips,
)
from sumrips.cli import main
from sumrips.io import write_barcode_json
from sumrips.kunneth import VERDICT_DOMINATED, VERDICT_EQUAL, VERDICT_VIOLATED, compare_product

INF = math.inf

# Bar counts of C_n x C_m at maxn 3 (C_2 is the two-point space {0, 1}): per
# degree 2 and 3, (t, predicted, actual) at each critical value t.  The
# predicted counts are checked against the oracles of tensor and Tor_1, and
# the actual ones against rank-nullity where the product is small below t.
CYCLE_COUNTS = {
    (8, 4): {2: [(2, 8, 0), (3, 3, 3), (4, 0, 0)],
             3: [(2, 0, 8), (3, 4, 4), (4, 1, 0), (5, 0, 0)]},
    (9, 4): {2: [(2, 9, 0), (3, 11, 11), (4, 0, 0)],
             3: [(2, 0, 9), (3, 0, 0), (4, 9, 1), (5, 0, 0)]},
    (10, 2): {2: [(4, 1, 0), (5, 0, 0)],
              3: [(4, 0, 1), (5, 0, 0)]},
    (10, 5): {2: [(2, 10, 10), (3, 0, 0), (4, 4, 0), (5, 0, 0)],
              3: [(4, 0, 6), (5, 1, 0), (6, 0, 0)]},
}


@pytest.fixture(scope="module")
def product_reports():
    """compare_product over the 50-pair corpus, degrees 0..3, computed once."""
    return [(x, y, compare_product(x, y, 3)) for x, y in corpus.product_corpus()]


@pytest.fixture(scope="module")
def cube_reports():
    interval, square = hamming_cube(1), hamming_cube(2)
    return [(interval, square, compare_product(interval, square, 3)),
            (square, square, compare_product(square, square, 3))]


@pytest.fixture(scope="module")
def cycle_reports():
    """compare_product at maxn 3 on the cycle products of well under a second
    each: C_8 x C_4, C_9 x C_4 and C_10 x {0, 1}."""
    pairs = [(corpus.cycle_graph(n), corpus.cycle_graph(m)) for n, m in ((8, 4), (9, 4), (10, 2))]
    return [(x, y, compare_product(x, y, 3)) for x, y in pairs]


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


@pytest.mark.slow
def test_criterion_1_six_cube_at_maxdim_4():
    """The 6-cube barcode-only at maxdim 4 (7,099,003 of its 8,303,632 cells,
    under the default cap): degrees 0 to 3 have the closed-form counts, 2^6,
    b_1 = 129, 0 and b_3 = 209, the last from Adamaszek and Adams,
    "Vietoris-Rips complexes of hypercube graphs", and every degree-3 bar is
    [2, 3)."""
    k = 6
    code = reduce(vietoris_rips(hamming_cube(k), 4, barcode_only=True))
    betti1 = k * 2 ** (k - 1) - (2 ** k - 1)
    betti3 = sum((j + 1) * (2 ** (k - 2) - 2 ** (i - 1)) for i in range(1, k) for j in range(i))
    assert (betti1, betti3) == (129, 209)
    assert [len(code[n]) for n in range(4)] == [2 ** k, betti1, 0, betti3]
    assert code[3] == Barcode([Bar(2, 3)] * betti3)


def test_criterion_2_products_equal_in_degrees_0_and_1(product_reports, cycle_reports):
    """Prediction = computation exactly at n = 0, 1 on all 50 corpus pairs and
    the cycle products."""
    for x, y, report in [*product_reports, *cycle_reports]:
        for n in (0, 1):
            entry = report.dims[n]
            assert entry.verdict == VERDICT_EQUAL, (x, y, n)
            assert entry.predicted == entry.actual


def test_criterion_3_domination_in_degree_2(product_reports, cube_reports, cycle_reports):
    """Prediction dominates computation pointwise at n = 2, corpus, cubes and
    cycles."""
    for x, y, report in [*product_reports, *cube_reports, *cycle_reports]:
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


def _predicted_dim_at(bx, by, n: int, t: float) -> int:
    """Degree n of the predicted module at t, from the grid oracles of the
    tensor product and of Tor_1 over every pair of factor bars."""
    return (sum(oracle.tensor_dim_at(a, b, t, 1.0)
                for i in range(n + 1) for a in bx[i] for b in by[n - i])
            + sum(oracle.tor1_dim_at(a, b, t)
                  for i in range(n) for a in bx[i] for b in by[n - 1 - i]))


def _check_cycle_product(x, y, report):
    """Degrees 0 and 1 equal, 2 strictly dominated, 3 violated, each degree
    that differs at bottleneck 0.5, and the bar counts of CYCLE_COUNTS."""
    assert report.ok
    assert [entry.verdict for entry in report.dims] == \
        [VERDICT_EQUAL, VERDICT_EQUAL, VERDICT_DOMINATED, VERDICT_VIOLATED]
    assert [entry.bottleneck for entry in report.dims] == [0, 0, 0.5, 0.5]
    bx, by = (reduce(vietoris_rips(space, 4)) for space in (x, y))
    counts = {}
    for entry in report.dims[2:]:
        values = sorted({*entry.predicted.endpoints(), *entry.actual.endpoints()})
        counts[entry.n] = [(t, entry.predicted.dim_at(t), entry.actual.dim_at(t)) for t in values]
        for t, predicted, _ in counts[entry.n]:
            assert predicted == _predicted_dim_at(bx, by, entry.n, t), (len(x), len(y), t)
    assert counts == CYCLE_COUNTS[len(x), len(y)]


@pytest.mark.parametrize("p", [2, 3])
def test_criteria_2_and_3_on_a_product_whose_barcode_depends_on_the_field(p):
    """RP^2 subdivided times {0, 1} is equal to its prediction in degrees 0
    to 2 over both fields, from each field's own factor barcodes: degree 1
    has 32 bars over F_2 and 30 over F_3, degree 2 has 5 and none.  The
    predicted counts at each critical value agree with the grid oracles of
    tensor and Tor_1."""
    x, y = corpus.rp2_subdivision(), hamming_cube(1)
    report = compare_product(x, y, 2, p=p)
    assert report.ok
    assert [entry.verdict for entry in report.dims] == [VERDICT_EQUAL] * 3
    assert [len(entry.actual) for entry in report.dims] == {2: [62, 32, 5], 3: [62, 30, 0]}[p]
    bx, by = (reduce(vietoris_rips(space, 3, barcode_only=True), p) for space in (x, y))
    for entry in report.dims:
        for t in range(5):
            assert entry.predicted.dim_at(t) == _predicted_dim_at(bx, by, entry.n, t), (entry.n, t)


@pytest.mark.slow
@pytest.mark.parametrize("p", [2, 3])
def test_field_dependent_product_counts_match_rank_nullity(p):
    """The actual counts of RP^2 subdivided times {0, 1} equal rank-nullity
    at the critical values t = 0 to 4; at t = 3, dense elimination would
    hold 15,868 x 105,325 entries, so the oracle eliminates bitset columns
    over F_2 and dict columns over F_3."""
    x, y = corpus.rp2_subdivision(), hamming_cube(1)
    report = compare_product(x, y, 2, p=p)
    space = product_sum(x, y)
    product = corpus.stored_top(vietoris_rips(space, 3, barcode_only=True), space)
    for entry in report.dims:
        for t in range(5):
            assert entry.actual.dim_at(t) == oracle.betti_at(product, p, entry.n, t), (entry.n, t)


def test_criterion_4_cycle_products_discrepancy(cycle_reports):
    """Cycle graphs have bars in degrees 2 and 3, and their products show
    both sides of the paper's result: degree 2 is strictly dominated (C_8 x
    C_4 predicts 11 bars and has 3) and degree 3 violated (5 against 12)."""
    for x, y, report in cycle_reports:
        _check_cycle_product(x, y, report)


@pytest.mark.slow
def test_criterion_4_cycle_product_c10_c5():
    """C_10 x C_5, 50 points, takes about 2 s."""
    x, y = corpus.cycle_graph(10), corpus.cycle_graph(5)
    _check_cycle_product(x, y, compare_product(x, y, 3))


@pytest.mark.slow
def test_criterion_4_cycle_counts_match_rank_nullity():
    """The actual counts of CYCLE_COUNTS equal brute-force rank-nullity over
    F_2 at every critical value of C_8 x C_4 and C_10 x {0, 1}: the oracle
    eliminates bitset columns, where dense elimination of C_8 x C_4 at t = 4
    would hold matrices of 11,752 x 29,760 entries."""
    for (n, m), values in {(8, 4): (2, 3, 4, 5), (10, 2): (4, 5)}.items():
        space = product_sum(corpus.cycle_graph(n), corpus.cycle_graph(m))
        cx = corpus.stored_top(vietoris_rips(space, 4, barcode_only=True), space)
        for degree in (2, 3):
            for t, _, actual in CYCLE_COUNTS[n, m][degree]:
                if t in values:
                    assert oracle.betti_at(cx, 2, degree, t) == actual, (n, m, degree, t)


def test_criterion_5_chain_level_product_matches_prediction():
    """Tensor-complex persistence, by the oracle's standard algorithm over
    F_2, equals the barwise prediction for n <= 2, and so does the ordered
    product's, degree by degree."""
    for x, y in corpus.small_pairs():
        cx, cy = vietoris_rips(x, 3), vietoris_rips(y, 3)
        got = oracle.standard_barcode(oracle.tensor_complex(cx, cy, 3), 2)
        bx, by = reduce(cx), reduce(cy)
        ordered = reduce(ordered_product(x, y, 3))
        for n in range(3):
            assert got[n] == kunneth_predict(bx, by, n), (x, y, n)
            assert ordered[n] == got[n], (x, y, n)


def test_criterion_6_interleaving_bound(product_reports, cube_reports, cycle_reports):
    """bottleneck(predicted, actual) <= min(diam X, diam Y) for all n <= 3."""
    for x, y, report in [*product_reports, *cube_reports, *cycle_reports]:
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
