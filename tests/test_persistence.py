"""Reduction engine: golden barcodes, oracle agreement, fields."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracle
from sumrips import (
    Bar,
    Barcode,
    FilteredComplex,
    GradedBarcode,
    InputError,
    compare_product,
    hamming_cube,
    product_sum,
    reduce,
    validate,
    vietoris_rips,
)
from sumrips import complexes, implicit, persistence
from sumrips.complexes import Dimension
from sumrips.io import barcode_document, dumps_document
from sumrips.persistence import _transpose

INF = math.inf
INTERVAL = hamming_cube(1)


def test_two_point_space():
    code = reduce(vietoris_rips(INTERVAL, 1))
    assert code == GradedBarcode({0: Barcode([Bar(0, 1), Bar(0, INF)])})
    assert code.dims() == (0, 1)  # dim 1 computed and empty (complete complex)


def test_square_barcode():
    code = reduce(vietoris_rips(hamming_cube(2), 2))
    assert code.dims() == (0, 1)  # maxdim 2, truncated: dim 2 is cycles-only
    assert code[0] == Barcode([Bar(0, 1)] * 3 + [Bar(0, INF)])
    assert code[1] == Barcode([Bar(1, 2)])


def test_triangle_345():
    space = validate([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    code = reduce(vietoris_rips(space, 2))
    assert code[0] == Barcode([Bar(0, 3), Bar(0, 4), Bar(0, INF)])
    # the 1-cycle appears and is filled at t = 5: equal-filtration pair, no bar
    assert code[1] == Barcode()
    assert code[2] == Barcode()
    assert code.dims() == (0, 1, 2)


def test_glued_points_emit_no_degenerate_bar():
    glued = validate([[0.0, 0.0], [0.0, 0.0]])
    code = reduce(vietoris_rips(glued, 1))
    assert code[0] == Barcode([Bar(0, INF)])


def test_positive_diagonal_shifts_births():
    space = validate([[2.0, 1.0], [1.0, 0.0]])
    code = reduce(vietoris_rips(space, 1))
    # vertex 1 at 0 lives forever; vertex 0 enters at 2, where the edge
    # (filtration max(2, 1, 0) = 2) merges it at once: degenerate pair, no bar
    assert code[0] == Barcode([Bar(0, INF)])


def test_field_characteristic_validation():
    cx = vietoris_rips(INTERVAL, 1)
    for bad in (0, 1, 4, 6, 2**31, -3, 3.0, True):
        with pytest.raises(InputError):
            reduce(cx, bad)
    reduce(cx, 2147483647)  # largest prime below 2^31 is accepted
    assert reduce(cx, np.int64(3)) == reduce(cx, 3)
    assert type(compare_product(INTERVAL, INTERVAL, 1, p=np.int64(3)).field) is int


def test_field_independence_on_cube():
    cx = vietoris_rips(hamming_cube(3), 4)
    codes = [reduce(cx, p) for p in (2, 3, 5)]
    assert codes[0] == codes[1] == codes[2]


@pytest.mark.parametrize("p", [2, 3])
def test_cycle_graph_golden_table(p):
    """C_n with its shortest-path metric at maxdim 4, n = 5 to 12.  For an
    integer r < n/2, VR(C_n; r) is S^(2l+1) when l/(2l+1) < r/n < (l+1)/(2l+3)
    and a wedge of n - 2r - 1 spheres S^(2l) when r/n = l/(2l+1) (Adamaszek
    and Adams, "The Vietoris-Rips complexes of a circle", Pacific J. Math. 290
    (2017)).  So degree 1 has one bar [1, ceil(n/3)); degree 2 has r - 1 bars
    [r, r + 1) when n = 3r; degree 3 has one bar [r, r + 1) when 1/3 < r/n <
    2/5, for C_8 and C_11.  The spheres carry no torsion, so F_2 and F_3
    agree.  The standard algorithm gives the same barcodes on C_6, C_8, C_9."""
    for n in range(5, 13):
        cx = vietoris_rips(corpus.cycle_graph(n), 4)
        code = reduce(cx, p)
        r = n // 3
        assert code == GradedBarcode({
            0: Barcode([Bar(0, 1)] * (n - 1) + [Bar(0, INF)]),
            1: Barcode([Bar(1, math.ceil(n / 3))]),
            2: Barcode([Bar(r, r + 1)] * (r - 1) if n == 3 * r else []),
            3: Barcode([Bar(s, s + 1) for s in range(1, n) if n < 3 * s and 5 * s < 2 * n]),
        }), n
        assert code.dims() == tuple(range(cx.reliable_dim + 1))
        if n in (6, 8, 9):
            assert {d: code[d] for d in code.dims()} == oracle.standard_barcode(cx, p)


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_barcode_depends_on_the_field(p):
    """The subdivided projective plane is born at 1: over F_2 it has H_1 and
    H_2, over F_3 neither, while degree 0 is the same over both fields.  The
    counts agree with rank-nullity at every critical value."""
    space = corpus.rp2_subdivision()
    cx = vietoris_rips(space, 3, barcode_only=True)
    code = reduce(cx, p)
    holes = {2: ([Bar(1, 2)], [Bar(1, 2), Bar(2, 3)]), 3: ([], [])}[p]
    assert code == GradedBarcode({0: Barcode([Bar(0, 1)] * 30 + [Bar(0, INF)]),
                                  1: Barcode(holes[0]), 2: Barcode(holes[1])})
    assert code == reduce(vietoris_rips(space, 3), p)
    cx = corpus.stored_top(cx, space)
    for n in code.dims():
        for t in oracle.critical_values(cx):
            assert code[n].dim_at(t) == oracle.betti_at(cx, p, n, t), (n, t)


def test_vertices_are_paired_without_additions():
    """Five points on a line, listed out of order at positions 0, 2, 4, 1, 3:
    the edges (0, 3) and (1, 4) are their later vertex's earliest coface, so
    apparent; (1, 3) and (2, 4) merge vertices 1 and 2 into older components.
    The union-find adds no column (the coboundary reduction took 4)."""
    pos = [0, 2, 4, 1, 3]
    cx = vietoris_rips(validate([[abs(a - b) for b in pos] for a in pos]), 1)
    stats = {}
    code = reduce(cx, stats=stats)
    assert code == GradedBarcode({0: Barcode([Bar(0, 1)] * 4 + [Bar(0, INF)])})
    assert stats == {0: {"columns": 5, "cleared": 0, "apparent": 2, "looped": 3,
                         "additions": 0, "pairs": 4, "zero_length": 0, "essential": 1}}


def test_vertices_are_not_transposed(monkeypatch):
    """Dimension 0 is paired from the edges as stored: a complex of top
    dimension 1 is never transposed, and the square up to its 2-cells only
    has its 2-cells' boundary transposed."""
    calls = []

    def recording(faces, n_rows):
        calls.append(n_rows)
        return _transpose(faces, n_rows)

    monkeypatch.setattr(persistence, "_transpose", recording)
    for space in (INTERVAL, hamming_cube(2), hamming_cube(3)):
        reduce(vietoris_rips(space, 1))
    assert calls == []
    square = vietoris_rips(hamming_cube(2), 2)
    reduce(square)
    assert calls == [len(square.dims[1].filtration)]


def test_face_matrices_must_have_one_column_per_vertex():
    """A stored dimension d >= 1 is a face matrix of d + 1 columns; a
    triangle with two is refused, naming its dimension."""
    cx = vietoris_rips(hamming_cube(2), 2)
    triangles = cx.dims[2]._replace(faces=cx.dims[2].faces[:, :2])
    with pytest.raises(InputError, match="dimension 2 stores a face matrix of shape"):
        reduce(FilteredComplex(cx.dims[:2] + (triangles,), cx.complete, cx.source))


@pytest.mark.parametrize("n_rows", [300, 2**16, 2**16 + 1, 100_000])
def test_transpose_lists_each_rows_columns_in_order(n_rows, monkeypatch):
    """Face rows as a build types them, uint16 up to 2^16 rows (radix-sorted)
    and uint32 above, give every row its entries ascending, so its cofaces
    too, whether the cells fit one chunk or many, and whether a cell has
    more entries than a chunk or not; rows without entries get none."""
    rng = np.random.default_rng(n_rows)
    empty = np.r_[0, np.arange(n_rows // 2, n_rows // 2 + 10)]
    live = np.setdiff1d(np.arange(n_rows), empty)
    for chunk in (persistence.CHUNK, 7, 1):
        monkeypatch.setattr(persistence, "CHUNK", chunk)
        width = int(rng.integers(2, 6))
        faces = rng.choice(live, (500, width))
        faces[0, 0] = n_rows - 1  # the last row: a 16-bit key holds it only up to 2^16 rows
        faces = faces.astype(np.min_scalar_type(n_rows - 1))
        ptr, entries = _transpose(faces, n_rows)
        assert (ptr.dtype, entries.dtype) == (np.int32, np.int32)
        assert not np.diff(ptr)[empty].any()
        want = sorted(zip(faces.ravel().tolist(), range(faces.size)))
        rows = np.repeat(np.arange(n_rows), np.diff(ptr))
        assert list(zip(rows.tolist(), entries.tolist())) == want


@pytest.mark.parametrize("p", [2, 3])
def test_small_chunks_keep_barcode_bytes(p, monkeypatch):
    """Transposing three entries at a time, so nearly every boundary spans
    many chunks, leaves every barcode document of the product corpus as it is."""
    complexes = [vietoris_rips(product_sum(x, y), 3, barcode_only=True)
                 for x, y in corpus.product_corpus()]

    def documents():
        return [dumps_document(barcode_document(reduce(cx, p), p)) for cx in complexes]

    whole = documents()
    monkeypatch.setattr(persistence, "CHUNK", 3)
    assert documents() == whole


def test_transpose_holds_little_beyond_its_output():
    """The top boundary of the 5-cube as a product (717,080 entries, about 22
    chunks) is transposed within 4 MB of traced memory beyond the output; one
    argsort of all the entries needs about 11 MB."""
    space = product_sum(hamming_cube(4), hamming_cube(1))
    cx = corpus.stored_top(vietoris_rips(space, 4, barcode_only=True), space)
    faces = cx.dims[4].faces
    assert faces.size == 717_080
    n_rows = len(cx.dims[3].filtration)
    tracemalloc.start()
    try:
        out = _transpose(faces, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in out) <= 4_000_000


def _traced_build_and_reduce(build):
    """The complex `build()` returns, what it retains, and the traced peaks
    of building it and of reducing it."""
    tracemalloc.start()
    try:
        cx = build()
        retained, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        reduce(cx)
        reduce_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cx, retained, build_peak, reduce_peak


def test_build_and_reduce_free_their_temporaries(monkeypatch):
    """The 5-cube as a product at maxdim 3 collapses no edge and keeps 34,563
    cells: its top dimension, which can hold at most 32,697, is stored.
    Under tracemalloc its build peaks at most 28 B per cell above what the
    complex retains, and reducing it holds at most 64 B per cell beyond the
    complex.  Freeing each large temporary before the next is allocated
    gives about 14 and 43 B; keeping them alive took 38 and 80 B.  Built
    with that dimension left to `reduce` (`enumerate_every_top`), it stores
    5,023 cells; per one of the 34,563, the build peaks at most 4 B above
    what it retains and the reduction holds at most 20 B (about 3.0 and
    15 B)."""
    space = product_sum(hamming_cube(4), hamming_cube(1))
    cx, retained, build_peak, reduce_peak = _traced_build_and_reduce(
        lambda: vietoris_rips(space, 3, barcode_only=True))
    cells = len(cx)
    assert cells == 34_563 and cx.cofaces is None
    assert build_peak - retained <= 28 * cells
    assert reduce_peak - retained <= 64 * cells
    monkeypatch.setattr(complexes, "CHUNK", -1)
    cut, retained, build_peak, reduce_peak = _traced_build_and_reduce(
        lambda: vietoris_rips(space, 3, barcode_only=True))
    assert len(cut) == 5_023 and cut.cofaces is not None
    assert build_peak - retained <= 4 * cells
    assert reduce_peak - retained <= 20 * cells


def test_truncation_drops_cut_dimension():
    cx = vietoris_rips(hamming_cube(2), 1)  # graph only
    code = reduce(cx)
    assert code.dims() == (0,)
    cx0 = vietoris_rips(hamming_cube(2), 0)  # vertices only: nothing reliable
    assert reduce(cx0).dims() == ()


def test_reduce_agrees_with_rank_nullity_oracle():
    for cx in corpus.random_complexes(count=8, seed=909):
        assert oracle.complex_violations(cx) == []
        for p in (2, 3):
            code = reduce(cx, p)
            for n in range(cx.reliable_dim + 1):
                for t in oracle.critical_values(cx):
                    assert code[n].dim_at(t) == oracle.betti_at(cx, p, n, t), (cx, p, n, t)


def test_reduce_matches_standard_reduction():
    """Coboundary reduction with clearing against the plain homology algorithm,
    bar for bar, on Rips complexes, ordered products and barcode-only Rips
    complexes."""
    complexes = [(cx, cx) for cx in corpus.random_complexes(count=15, seed=404)]
    for x, y in corpus.small_pairs()[:6]:
        for space, maxdim in ((y, 3), (product_sum(x, y), 2)):
            cx = vietoris_rips(space, maxdim, barcode_only=True)
            complexes.append((cx, corpus.stored_top(cx, space)))
    for cx, witness in complexes:
        for p in (2, 3, 5):
            code = reduce(cx, p)
            assert {n: code[n] for n in code.dims()} == oracle.standard_barcode(witness, p), \
                (cx, p)


def test_reduce_stats_tie_out():
    """The reduction's counts partition the columns and agree with the bars."""
    cube = vietoris_rips(hamming_cube(3), 4)
    for cx in [cube, *corpus.random_complexes(count=10, seed=404)]:
        for p in (2, 3):
            stats = {}
            code = reduce(cx, p, stats=stats)
            assert code == reduce(cx, p)
            assert sorted(stats) == list(range(cx.top_dim))
            for d, s in stats.items():
                assert s["columns"] == len(cx.dims[d].filtration)
                assert s["cleared"] + s["apparent"] + s["looped"] == s["columns"]
                assert s["cleared"] + s["pairs"] + s["essential"] == s["columns"]
                assert s["cleared"] == (stats[d - 1]["pairs"] if d else 0)
                if d <= cx.reliable_dim:
                    assert len(code[d].finite()) == s["pairs"] - s["zero_length"]
                    assert len(code[d].essentials()) == s["essential"]
    stats = {}
    reduce(cube, stats=stats)
    assert all(s["apparent"] > 0 for s in stats.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stats_change_no_step_of_the_reduction(p):
    """Asking for stats reduces every complex the same way, empty dimensions
    included: the factors and products of the small pairs, built whole and
    barcode-only, give the same document bytes with and without them."""
    complexes = [vietoris_rips(space, 3, barcode_only=barcode_only)
                 for x, y in corpus.small_pairs() for space in (x, y, product_sum(x, y))
                 for barcode_only in (False, True)]
    assert any(not len(dim.filtration) for cx in complexes for dim in cx.dims[:cx.top_dim])
    for cx in complexes:
        plain = dumps_document(barcode_document(reduce(cx, p), p))
        assert dumps_document(barcode_document(reduce(cx, p, stats={}), p)) == plain, cx


def test_a_complex_without_dimensions_has_no_bars():
    stats = {}
    code = reduce(FilteredComplex((), True), stats=stats)
    assert code == GradedBarcode() and code.dims() == () and stats == {}


def _empty_stats(columns, cleared):
    """The stats of a dimension without cofaces: every column not cleared is
    looped and essential."""
    return {"columns": columns, "cleared": cleared, "apparent": 0, "looped": columns - cleared,
            "additions": 0, "pairs": 0, "zero_length": 0, "essential": columns - cleared}


def test_dimensions_without_cofaces_are_not_reduced():
    """Built barcode-only, a 5-point path is the path graph: dimension 1 has no
    cofaces, dimensions 2 to 4 no cells, and degrees 1 to 4 no bars."""
    path = validate([[abs(i - j) for j in range(5)] for i in range(5)])
    cx = vietoris_rips(path, 4, barcode_only=True)
    stats = {}
    code = reduce(cx, stats=stats)
    assert [stats[d] for d in (1, 2, 3)] == [_empty_stats(4, 4)] + [_empty_stats(0, 0)] * 2
    assert code == GradedBarcode({0: Barcode([Bar(0, 1)] * 4 + [Bar(0, INF)])})
    assert code.dims() == (0, 1, 2, 3, 4)
    assert code == reduce(vietoris_rips(path, 4))


def test_essential_columns_without_cofaces():
    """The square's six edges with an empty dimension 2 above them: three are
    cleared by the points and three stay essential."""
    edges = vietoris_rips(hamming_cube(2), 1)
    no_triangles = Dimension(np.empty(0), np.empty((0, 3), np.int32),
                             vertices=np.empty((0, 3), np.int32))
    cx = FilteredComplex(edges.dims + (no_triangles,), complete=False, source=edges.source)
    stats = {}
    code = reduce(cx, stats=stats)
    assert stats[1] == _empty_stats(6, 3)
    assert code[1] == Barcode([Bar(1, INF), Bar(2, INF), Bar(2, INF)])


def test_signed_zero_births_keep_their_order():
    """Equal bars whose births are 0.0 and -0.0 come out in the order of their
    death cells, as the CLI's JSON and table output has always shown them."""
    space = validate([[0.0, -0.0, 1.0, 0.5], [-0.0, 0.0, 1.0, 0.5],
                      [1.0, 1.0, -0.0, 0.5], [0.5, 0.5, 0.5, 0.0]])
    for maxdim in (1, 3):
        for p in (2, 3):
            code = reduce(vietoris_rips(space, maxdim), p)
            assert [(repr(bar.birth), bar.death) for bar in code[0]] == \
                [("0.0", 0.5), ("-0.0", 0.5), ("0.0", INF)]


@st.composite
def generalized_metrics(draw):
    """Symmetric matrices on <= 6 points from a few shared values, so ties are
    common: non-dyadic floats, zero off-diagonal entries (duplicate points) and
    some positive diagonal entries."""
    pool = [0.0] + draw(st.lists(
        st.one_of(st.floats(0.01, 10.0), st.integers(1, 30).map(lambda k: k / 7)),
        min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from(pool))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(pool))
    return validate(m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(generalized_metrics(), st.integers(0, 4))
def test_reduce_matches_oracle_on_float_metrics(space, maxdim):
    cx = vietoris_rips(space, maxdim)
    cut = vietoris_rips(space, maxdim, barcode_only=True)
    assert oracle.complex_violations(cut) == []
    for p in (2, 3):
        code = reduce(cx, p)
        assert reduce(cut, p) == code, p
        for n in range(cx.reliable_dim + 1):
            for t in oracle.critical_values(cx):
                assert code[n].dim_at(t) == oracle.betti_at(cx, p, n, t), (p, n, t)



@pytest.fixture
def enumerate_every_top(monkeypatch):
    """Barcode-only builds leave their top dimension to `reduce` however few
    cells it can hold, none included: that is always more than -1."""
    monkeypatch.setattr(complexes, "CHUNK", -1)


def _assert_top_enumerated_as_stored(space, maxdim, fields=(2, 3, 5)):
    """The barcode-only build leaves its top dimension to `reduce`, which
    enumerates it as cofaces; the same graph's build with that dimension
    stored (`corpus.stored_top`) gives the same document bytes and the same
    stats over every field.  Returns the complex."""
    cx = vietoris_rips(space, maxdim, barcode_only=True)
    assert cx.cofaces is not None and len(cx.dims) == cx.top_dim
    stored = corpus.stored_top(cx, space)
    assert len(stored.dims) == cx.top_dim + 1
    for p in fields:
        got, want = {}, {}
        assert dumps_document(barcode_document(reduce(cx, p, stats=got), p)) == \
            dumps_document(barcode_document(reduce(stored, p, stats=want), p)), \
            (space.dist.tolist(), maxdim, p)
        assert got == want, (space.dist.tolist(), maxdim, p)
    return cx


@pytest.mark.usefixtures("enumerate_every_top")
def test_top_enumerated_as_stored_on_the_corpus():
    """The factors and products of the corpus, at maxdim 3 and at 4, the
    depth `compare_product` builds them at for maxn 3."""
    for x, y in corpus.product_corpus():
        for space in (x, y, product_sum(x, y)):
            for maxdim in (3, 4):
                if min(maxdim, len(space) - 1) >= 2:
                    _assert_top_enumerated_as_stored(space, maxdim)


@pytest.mark.usefixtures("enumerate_every_top")
def test_top_enumerated_as_stored_on_cubes_and_cycles():
    """The cube splits cube(k - 1) x cube(1) for k = 3 to 5, C_8 x C_4 and
    C_10 x {0, 1} at maxdim 4, and the 6-cube at maxdim 3; on the 5-cube
    split the top dimension holds 143,416 cells, of which 25,480 are paired,
    24,690 apparently.  The face tables read are uint8 (the 28 cells of
    dimension 3 of the 3-cube split) and uint16, up to the 6-cube's 39,742
    cells of dimension 2; the 6-cube at maxdim 4, whose table is uint32, is
    criterion 1's slow test."""
    interval = hamming_cube(1)
    spaces = [product_sum(hamming_cube(k - 1), interval) for k in (3, 4, 5)]
    spaces += [product_sum(corpus.cycle_graph(8), corpus.cycle_graph(4)),
               product_sum(corpus.cycle_graph(10), interval)]
    for space in spaces:
        _assert_top_enumerated_as_stored(space, 4)
    _assert_top_enumerated_as_stored(hamming_cube(6), 3)
    stats = {}
    reduce(vietoris_rips(spaces[2], 4, barcode_only=True), stats=stats)
    assert (stats[3]["pairs"], stats[3]["apparent"]) == (25_480, 24_690)


@pytest.mark.usefixtures("enumerate_every_top")
def test_top_enumerated_as_stored_on_generalized_float_metrics():
    """Non-dyadic floats, ties, positive diagonals and -0.0, at maxdim 2 to
    5: complete complexes among them."""
    rng = random.Random(3203)
    complete = signed = 0
    for _ in range(120):
        space = corpus.random_float_space(rng, 3, 10, signed_zero_rate=0.5)
        cx = _assert_top_enumerated_as_stored(space, rng.randint(2, 5))
        complete += cx.complete
        signed += bool(np.signbit(space.dist).any())
    assert complete >= 10 and signed >= 30


@pytest.mark.usefixtures("enumerate_every_top")
@pytest.mark.parametrize("p", [2, 3])
def test_small_passes_keep_enumerated_barcodes(p, monkeypatch):
    """Enumerating the top dimension a few cells per pass, 64 (cells x
    points) ranks at a time, so that every complex takes many passes and
    most owners are fetched in batches of a few cells, leaves the documents
    and stats of the corpus products at maxdim 4 as they are."""
    built = [vietoris_rips(product_sum(x, y), 4, barcode_only=True)
             for x, y in corpus.product_corpus()]

    def reductions():
        out = []
        for cx in built:
            stats = {}
            out.append((dumps_document(barcode_document(reduce(cx, p, stats=stats), p)), stats))
        return out

    whole = reductions()
    monkeypatch.setattr(implicit, "CHUNK", 64)
    assert reductions() == whole


@pytest.mark.usefixtures("enumerate_every_top")
def test_complete_complexes_report_an_empty_top_degree():
    """A complete complex's top dimension holds at most the cell of all its
    points, which is then paired: the top degree is reported, empty, as the
    stored build reports it.  Cubes and a triangle at maxdim 2."""
    triangle = validate([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    for space, maxdim in ((triangle, 2), (hamming_cube(2), 3), (hamming_cube(3), 7)):
        cx = _assert_top_enumerated_as_stored(space, maxdim)
        assert cx.complete
        assert reduce(cx)[cx.top_dim] == Barcode()


def test_only_barcode_only_builds_above_dimension_1_enumerate_their_top():
    """Whole builds and builds whose top dimension is at most 1 store every
    dimension: union-find pairs the vertices with the stored edges."""
    space = hamming_cube(3)
    for maxdim, barcode_only in ((4, False), (1, True), (0, True)):
        cx = vietoris_rips(space, maxdim, barcode_only=barcode_only)
        assert cx.cofaces is None and len(cx.dims) == cx.top_dim + 1


@pytest.mark.usefixtures("enumerate_every_top")
def test_barcode_only_builds_whose_keys_overflow_int64_store_their_top():
    """A top cell's key is its rank times C(m, top + 1) plus its
    lexicographic rank, in one int64.  A point at distance 1 from 255
    others, 12 of them also at distance 1 from each other, the rest at 2:
    at maxdim 10, C(256, 11) times the 3 distinct values exceeds 2^63, so
    the build stores its top dimension; at maxdim 9 it enumerates it, under
    `enumerate_every_top` (the collapse leaves no cell below it).  Either
    way the barcode is a cone's."""
    dist = np.full((256, 256), 2.0)
    dist[0, :] = dist[:, 0] = 1.0
    dist[244:, 244:] = 1.0
    np.fill_diagonal(dist, 0.0)
    space = validate(dist, point_cap=None)
    for maxdim, stored in ((10, True), (9, False)):
        cx = vietoris_rips(space, maxdim, cell_cap=10**20, barcode_only=True)
        assert (cx.cofaces is None) == stored and cx.top_dim == maxdim
        code = reduce(cx)
        assert code[0] == Barcode([Bar(0, 1)] * 255 + [Bar(0, INF)])
        assert all(code[n] == Barcode() for n in range(1, maxdim))


def test_barcode_only_builds_enumerate_a_top_that_can_exceed_chunk_cells(monkeypatch):
    """A barcode-only build leaves its top dimension to `reduce` when it can
    hold more than CHUNK cells, each with top + 1 faces below it that have
    at most m - top cofaces each: the 5-cube split at maxdim 4, with 29,540
    cells of dimension 3 on 32 points, can hold 165,424.  The 4-cube
    split's 1,204 on 16 points can hold 2,889.6, so its top is stored
    unless CHUNK is below that."""
    interval = hamming_cube(1)
    cx = vietoris_rips(product_sum(hamming_cube(4), interval), 4, barcode_only=True)
    assert cx.cofaces is not None and len(cx.dims[3].filtration) == 29_540
    space = product_sum(hamming_cube(3), interval)
    for chunk, enumerated in ((complexes.CHUNK, False), (2_890, False), (2_889, True)):
        monkeypatch.setattr(complexes, "CHUNK", chunk)
        cx = vietoris_rips(space, 4, barcode_only=True)
        assert (cx.cofaces is not None) == enumerated
        assert len(cx.dims[3].filtration) == 1_204 and cx.top_dim == 4


def test_barcode_only_builds_keep_no_top_cell():
    """The 5-cube as a product at maxdim 4, barcode-only, stores 34,563 cells
    and none of the 143,416 of its top dimension, 177,979 cells in all.
    Under tracemalloc its build peaks at most 3 B per one of those cells
    above what the complex retains, and reducing it holds at most 20 B per
    cell beyond the complex (about 2.8 and 15 B).  The two peak at about
    3.4 MB; with the top dimension stored they took 10.9 MB."""
    space = product_sum(hamming_cube(4), hamming_cube(1))
    cx, retained, build_peak, reduce_peak = _traced_build_and_reduce(
        lambda: vietoris_rips(space, 4, barcode_only=True))
    assert len(cx) == 34_563 and 4 not in cx.dim_counts() and cx.top_dim == 4
    cells = 177_979
    assert build_peak - retained <= 3 * cells
    assert reduce_peak - retained <= 20 * cells
    assert max(build_peak, reduce_peak) <= 5_000_000
