"""Reduction engine: golden barcodes, oracle agreement, fields."""

import math
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
from sumrips import persistence
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


def _with_entry(dim, row, col, value):
    """dim with the boundary entry `value` stored at (row, col), a face that
    column col does not have yet."""
    lo, hi = dim.indptr[col], dim.indptr[col + 1]
    at = lo + np.searchsorted(dim.indices[lo:hi], row)
    indptr = dim.indptr + (np.arange(len(dim.indptr)) > col).astype(dim.indptr.dtype)
    return dim._replace(indptr=indptr, indices=np.insert(dim.indices, at, row),
                        data=np.insert(dim.data, at, value))


def test_coefficients_vanishing_mod_p_change_no_bar():
    """Boundary coefficients count only mod p: shifting every one by a multiple
    of p, and storing an entry equal to p, leaves the barcode over F_p as it is."""
    space = validate([[0, 1, 5, 4, 7], [1, 0, 2, 6, 8], [5, 2, 0, 3, 9],
                      [4, 6, 3, 0, 10], [7, 8, 9, 10, 0]])
    cx = vietoris_rips(space, 2)
    rng = np.random.default_rng(7)
    for p in (2, 3):
        dims = [cx.dims[0]]
        for dim in cx.dims[1:]:
            data = dim.data + (p * rng.integers(-1, 3, len(dim.data))).astype(np.int8)
            dims.append(dim._replace(data=data))
        # vertex 4, whose edges all enter at 7 or later, gets the entry p in
        # edge (0, 3), which enters at 4: that edge must not kill vertex 4
        dims[1] = _with_entry(dims[1], 4, 3, p)
        shifted = FilteredComplex(tuple(dims), cx.complete, cx.source)
        code = reduce(shifted, p)
        assert code == reduce(cx, p)
        assert {n: code[n] for n in code.dims()} == oracle.standard_barcode(shifted, p)


@pytest.mark.parametrize("n_rows", [300, 2**16, 2**16 + 1, 100_000])
def test_transpose_lists_each_rows_columns_in_order(n_rows, monkeypatch):
    """Both sorts the transpose picks by the row count, 16-bit keys up to
    2^16 rows and full indices above, give every row its columns ascending,
    whether the columns fit one chunk or many, and whether a column is longer
    than a chunk or not; rows without entries get none."""
    rng = np.random.default_rng(n_rows)
    empty = np.r_[0, np.arange(n_rows // 2, n_rows // 2 + 10)]
    live = np.setdiff1d(np.arange(n_rows), empty)
    for chunk in (persistence.CHUNK, 7, 1):
        monkeypatch.setattr(persistence, "CHUNK", chunk)
        counts = rng.integers(0, 6, 500)
        counts[200] = min(len(live), chunk + 1)  # longer than a chunk where the rows allow it
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64 if chunk == 7 else np.int32)
        indices = np.concatenate([np.sort(rng.choice(live, c, replace=False)) for c in counts])
        indices[0] = n_rows - 1  # the last row: a 16-bit key holds it only up to 2^16 rows
        data = rng.integers(-3, 4, len(indices)).astype(np.int8)
        ptr, cols, coeffs = _transpose(indptr, indices.astype(np.int32), data, n_rows)
        assert (ptr.dtype, cols.dtype, coeffs.dtype) == (indptr.dtype, np.int32, np.int8)
        assert not np.diff(ptr)[empty].any()
        col_of = np.repeat(np.arange(len(counts)), counts)
        want = sorted(zip(indices.tolist(), col_of.tolist(), data.tolist()))
        rows = np.repeat(np.arange(n_rows), np.diff(ptr))
        assert list(zip(rows.tolist(), cols.tolist(), coeffs.tolist())) == want


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
    cx = vietoris_rips(product_sum(hamming_cube(4), hamming_cube(1)), 4, barcode_only=True)
    top = cx.dims[4]
    assert len(top.indices) == 717_080
    n_rows = len(cx.dims[3].filtration)
    tracemalloc.start()
    try:
        out = _transpose(top.indptr, top.indices, top.data, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in out) <= 4_000_000


def test_build_and_reduce_free_their_temporaries():
    """The 5-cube as a product at maxdim 3 collapses no edge and keeps 34,563
    cells.  Under tracemalloc its build peaks at most 28 B per cell above what
    the complex retains, and reducing it holds at most 64 B per cell beyond
    the complex.  Freeing each large temporary before the next is allocated
    gives about 18 and 48 B; keeping them alive took 38 and 80 B."""
    space = product_sum(hamming_cube(4), hamming_cube(1))
    tracemalloc.start()
    try:
        cx = vietoris_rips(space, 3, barcode_only=True)
        retained, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        reduce(cx)
        reduce_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = len(cx)
    assert cells == 34_563
    assert build_peak - retained <= 28 * cells
    assert reduce_peak - retained <= 64 * cells


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
    bar for bar, on Rips and tensor complexes and on barcode-only Rips
    complexes."""
    complexes = corpus.random_complexes(count=15, seed=404)
    for x, y in corpus.small_pairs()[:6]:
        complexes += [vietoris_rips(y, 3, barcode_only=True),
                      vietoris_rips(product_sum(x, y), 2, barcode_only=True)]
    for cx in complexes:
        for p in (2, 3, 5):
            code = reduce(cx, p)
            assert {n: code[n] for n in code.dims()} == oracle.standard_barcode(cx, p), (cx, p)


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
    no_triangles = Dimension(np.empty(0), np.zeros(1, np.int32), np.empty(0, np.int32),
                             np.empty(0, np.int8), vertices=np.empty((0, 3), np.int32))
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

