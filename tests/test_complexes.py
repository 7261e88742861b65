"""Complex constructors: Rips enumeration, ordered products, structural checks."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import corpus
import oracle
from sumrips import (
    CapExceeded,
    FilteredComplex,
    InputError,
    enclosing_radius,
    hamming_cube,
    ordered_product,
    product_sum,
    reduce,
    validate,
    vietoris_rips,
)
from sumrips.complexes import (
    BYTES_PER_CELL,
    DEFAULT_CELL_CAP,
    DUMP_CHUNK,
    Dimension,
    _collapse,
    _rips_boundary,
    ordered_cell_count,
    rips_cell_count,
)
from sumrips.io import barcode_document, dumps_document

INTERVAL = hamming_cube(1)


def test_interval_complex_cells():
    cx = vietoris_rips(INTERVAL, 1)
    assert [(c.dim, c.filtration, c.label) for c in oracle.cells(cx)] == [
        (0, 0.0, "0"), (0, 0.0, "1"), (1, 1.0, "0,1")]
    assert oracle.cells(cx)[2].boundary == ((0, -1), (1, 1))
    assert cx.top_dim == 1 and cx.complete and cx.reliable_dim == 1
    assert oracle.complex_violations(cx) == []


def test_square_complex_hand_enumeration():
    # 4 vertices at 0; the four unit edges at 1; both diagonals and all four
    # triangles at 2; maxdim 2 stops there: 14 simplices in all.
    cx = vietoris_rips(hamming_cube(2), 2)
    assert len(cx) == 14
    by_label = {c.label: c for c in oracle.cells(cx)}
    want = {
        "00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0,
        "00,01": 1.0, "00,10": 1.0, "01,11": 1.0, "10,11": 1.0,
        "00,11": 2.0, "01,10": 2.0,
        "00,01,10": 2.0, "00,01,11": 2.0, "00,10,11": 2.0, "01,10,11": 2.0,
    }
    assert {label: cell.filtration for label, cell in by_label.items()} == want
    assert not cx.complete and cx.reliable_dim == 1
    assert oracle.complex_violations(cx) == []


def test_cells_sorted_by_filtration_dimension_key():
    cx = vietoris_rips(hamming_cube(2), 3)
    keys = [(c.filtration, c.dim, c.vertices) for c in oracle.cells(cx)]
    assert keys == sorted(keys)
    # boundary ids always point backwards
    for j, cell in enumerate(oracle.cells(cx)):
        assert all(i < j for i, _ in cell.boundary)


def test_full_complex_counting_identity():
    space = corpus.random_space(random.Random(3), 5, 5)
    cx = vietoris_rips(space, 4)
    assert cx.complete
    assert cx.dim_counts() == {d: math.comb(5, d + 1) for d in range(5)}
    assert len(cx) == rips_cell_count(5, 4)
    # maxdim beyond the full dimension changes nothing
    assert len(vietoris_rips(space, 10)) == len(cx)


def test_positive_diagonal_delays_vertices():
    space = validate([[1.0]])
    cx = vietoris_rips(space, 2)
    assert [(c.dim, c.filtration) for c in cx.cells] == [(0, 1.0)]
    two = validate([[2.0, 1.0], [1.0, 0.0]])
    cx = vietoris_rips(two, 1)
    # vertex 0 waits for its self-distance; the edge waits for the max of all
    # pairs, diagonal included
    assert [(c.dim, c.filtration) for c in cx.cells] == [(0, 0.0), (0, 2.0), (1, 2.0)]
    assert oracle.complex_violations(cx) == []


def test_rips_boundaries_drop_one_point_with_alternating_signs():
    """Every Rips cell's faces are its vertex sets with one point removed,
    the face without the point at position pos in column pos, whose sign is
    (-1)^pos; seeded generalized metrics, whole and barcode-only."""
    rng = random.Random(9091)
    for _ in range(60):
        space = corpus.random_space(rng, 1, 8, max_dist=3, allow_diagonal=True)
        maxdim = rng.randint(1, 5)
        for barcode_only in (False, True):
            cx = corpus.stored_top(vietoris_rips(space, maxdim, barcode_only=barcode_only), space)
            for below, dim in zip(cx.dims, cx.dims[1:]):
                row_of = {v: r for r, v in enumerate(map(tuple, below.vertices.tolist()))}
                for verts, rows in zip(dim.vertices.tolist(), dim.faces.tolist()):
                    assert rows == [row_of[tuple(verts[:pos] + verts[pos + 1:])]
                                    for pos in range(len(verts))]


@pytest.mark.parametrize("m, dtype", [(256, np.int16), (257, np.int32)])
def test_rips_boundary_face_rows_narrow_up_to_2_15_faces(m, dtype):
    """The edges of 256 points, 32,640 faces, get int16 rows; the 32,896 of
    257 points get int32 rows.  Either way each triangle's faces are its
    vertex sets with one point removed, the one without the point at
    position pos in column pos: the edges listed in a shuffled order, and
    triangles through
    the first and last rows included.  The same point count sets the vertex
    rows a build gives: uint8 for 256 points, uint16 for 257, where point 256
    needs the ninth bit; the boundary is taken from rows of that dtype."""
    point = np.uint8 if m == 256 else np.uint16
    path = validate([[abs(i - j) for j in range(m)] for i in range(m)], point_cap=None)
    cx = vietoris_rips(path, 1)
    assert [dim.vertices.dtype for dim in cx.dims] == [point, point]
    assert (cx.dims[1].vertices.max(), cx.dims[1].vertices.shape) == (m - 1, (m * (m - 1) // 2, 2))
    rng = np.random.default_rng(m)
    edges = np.array(list(itertools.combinations(range(m), 2)), dtype=point)
    edges = edges[rng.permutation(len(edges))]
    triangles = [rng.choice(m, 3, replace=False) for _ in range(2000)]
    for a, b in (edges[0], edges[-1], edges[len(edges) // 2]):
        triangles += [[a, b, c] for c in range(m) if c not in (a, b)][::37]
    verts = np.sort(np.array(triangles, dtype=point), axis=1)
    binom = np.array([[math.comb(a, k) for k in range(3)] for a in range(m + 1)], dtype=np.int32)
    faces = _rips_boundary(binom, verts, edges)
    assert (faces.dtype, faces.shape) == (dtype, verts.shape)
    row_of = {v: r for r, v in enumerate(map(tuple, edges.tolist()))}
    rows_seen = set()
    for tri, rows in zip(verts.tolist(), faces.tolist()):
        rows_seen.update(rows)
        assert rows == [row_of[tuple(tri[:pos] + tri[pos + 1:])] for pos in range(3)]
    assert {0, len(edges) - 1} <= rows_seen


def test_five_cube_split_retains_at_most_48_bytes_per_cell():
    """The 5-cube as a product at maxdim 4, built barcode-only with its top
    dimension stored, keeps 177,979 cells, 143,416 in the top dimension,
    whose 29,540 faces get int16 rows, and uint8 vertex rows.  Under
    tracemalloc the complex retains about 22.4 B per cell; with sorted face
    rows, row offsets and int8 coefficients it retained 31.1, with int32
    vertex rows too 45.5, and with int32 face rows too 55.0."""
    space = product_sum(hamming_cube(4), hamming_cube(1))
    tracemalloc.start()
    try:
        cx = corpus.stored_top(vietoris_rips(space, 4, barcode_only=True), space)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cx) == 177_979
    assert retained <= 48 * len(cx)


def test_dump_lines_peaks_below_the_priced_bytes_per_cell():
    """The cap prices BYTES_PER_CELL per cell, so `--dump-complex` must cost
    less.  Streaming the 6,884 cells of the whole 4-cube at maxdim 4 in chunks
    of global ids peaks at about 94 B per cell under tracemalloc, most of it
    one chunk's lines, face ids and labels (16 B per cell on the whole
    5-cube); rendering every line into one list took 410, and rendering
    through per-cell objects with boundaries and labels 852."""
    cx = vietoris_rips(hamming_cube(4), 4)
    tracemalloc.start()
    try:
        count = sum(1 for _ in cx.dump_lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(cx) == 6_884
    assert peak < BYTES_PER_CELL * len(cx)


def test_cells_lists_dim_and_filtration_in_the_global_order():
    """`cells` holds (dim, filtration) pairs of Python ints and floats by
    global id, and counts the cells up to a radius as the arrays do."""
    rng = random.Random(23)
    space = corpus.random_space(rng, 7, 7, max_dist=3, allow_diagonal=True)
    x, y = (vietoris_rips(corpus.random_space(rng, 4, 4, allow_diagonal=True), 3)
            for _ in range(2))
    for cx in (vietoris_rips(space, 3), vietoris_rips(space, 3, barcode_only=True),
               oracle.tensor_complex(x, y, 3)):
        assert type(cx.cells) is tuple
        assert [tuple(c) for c in cx.cells] == [(c.dim, c.filtration) for c in oracle.cells(cx)]
        assert all(type(c.dim) is int and type(c.filtration) is float for c in cx.cells)
        for radius in (enclosing_radius(space), *oracle.critical_values(cx)):
            assert sum(1 for c in cx.cells if c.filtration <= radius) == \
                sum(int(np.count_nonzero(dim.filtration <= radius)) for dim in cx.dims)


def test_rips_cell_cap():
    with pytest.raises(CapExceeded, match="cells"):
        vietoris_rips(hamming_cube(4), 4, cell_cap=100)
    with pytest.raises(InputError):
        vietoris_rips(INTERVAL, -1)


def test_cap_message_estimates_bytes():
    needed = rips_cell_count(16, 4)
    mb = needed * BYTES_PER_CELL / 1e6
    with pytest.raises(CapExceeded, match=rf"needs {needed} cells, about {mb:.1f} MB to build"):
        vietoris_rips(hamming_cube(4), 4, cell_cap=100)
    assert DEFAULT_CELL_CAP * BYTES_PER_CELL <= 4 * 10**9


def test_default_cap_admits_the_six_cube_at_maxdim_4():
    """The cap counts the uncut complex: the 6-cube at maxdim 4, whose degree
    3 is the first where the paper's Hamming family fails Kunneth, runs
    under the default cap."""
    assert rips_cell_count(64, 4) == 8_303_632 <= DEFAULT_CELL_CAP


def _cell_rows(cx, radius=math.inf):
    """Dimension, filtration, label and boundary by face label of each cell
    up to radius, in the global order."""
    cells = oracle.cells(cx)
    return [(c.dim, repr(c.filtration), c.label, [(cells[i].label, k) for i, k in c.boundary])
            for c in cells if c.filtration <= radius]


def _assert_is_the_cut(space, maxdim):
    """On an input it does not collapse, the barcode-only build holds exactly
    the cells of the whole build up to the enclosing radius, in their order,
    with the whole build's truncation bookkeeping; returns both builds."""
    full = vietoris_rips(space, maxdim)
    cut = corpus.stored_top(vietoris_rips(space, maxdim, barcode_only=True), space)
    assert _cell_rows(cut) == _cell_rows(full, enclosing_radius(space))
    assert (cut.top_dim, cut.complete, cut.reliable_dim) == \
        (full.top_dim, full.complete, full.reliable_dim)
    assert oracle.complex_violations(cut) == []
    return full, cut


def _signed(space):
    """The space with its zero d(0, 0) written as -0.0, which barcode-only
    builds do not collapse; every value compares as before."""
    dist = space.dist.copy()
    assert dist[0, 0] == 0.0
    dist[0, 0] = -0.0
    return validate(dist, space.labels)


def test_at_radius_keeps_the_cells_up_to_the_enclosing_radius():
    path = validate([[abs(i - j) for j in range(4)] for i in range(4)])
    for space, maxdim in ((_signed(path), 3), (path, 1)):
        full, cut = _assert_is_the_cut(space, maxdim)
        assert len(cut) < len(full) == rips_cell_count(4, maxdim)
        # the cap pre-check counts the uncut complex
        with pytest.raises(CapExceeded, match=f"needs {len(full)} cells"):
            vietoris_rips(space, maxdim, cell_cap=len(cut), barcode_only=True)


def _assert_cut_matches_full(space, maxdim, p):
    """The cut alone keeps every reliable barcode: -0.0 keeps the collapse off."""
    space = _signed(space)
    full, cut = vietoris_rips(space, maxdim), vietoris_rips(space, maxdim, barcode_only=True)
    assert oracle.complex_violations(cut) == []
    assert reduce(cut, p) == reduce(full, p), (space, maxdim, p)


@pytest.mark.parametrize("p", [2, 3])
def test_at_radius_barcodes_match_full_on_corpus(p):
    for x, y in corpus.product_corpus():
        for space in (x, y, product_sum(x, y)):
            _assert_cut_matches_full(space, 3, p)


@pytest.mark.slow
def test_at_radius_barcodes_match_full_on_corpus_at_compare_depth():
    """The depth compare_product builds at for maxn 3."""
    for x, y in corpus.product_corpus():
        _assert_cut_matches_full(product_sum(x, y), 4, 2)


def _document(cx, p):
    """The serialized barcode: Barcode equality would take -0.0 for 0.0."""
    return dumps_document(barcode_document(reduce(cx, p), p))


def _assert_collapse_keeps_bytes(space, maxdim, fields=(2, 3, 5)):
    """The barcode-only build prints the barcodes of the whole build; returns
    the cell counts of both."""
    plain = vietoris_rips(space, maxdim)
    collapsed = vietoris_rips(space, maxdim, barcode_only=True)
    for p in fields:
        assert _document(collapsed, p) == _document(plain, p), (space.dist.tolist(), maxdim, p)
    return len(plain), len(collapsed)


def _float_spaces(count=100, seed=6113):
    rng = random.Random(seed)
    return [(corpus.random_float_space(rng, 1, 12), rng.randint(2, 4)) for _ in range(count)]


def test_collapse_keeps_barcode_bytes_on_corpus():
    counts = np.array([_assert_collapse_keeps_bytes(space, 3)
                       for x, y in corpus.product_corpus()
                       for space in (x, y, product_sum(x, y))])
    plain, collapsed = counts.sum(axis=0)
    assert collapsed < plain / 10


def test_collapse_keeps_barcode_bytes_on_generalized_float_metrics():
    """Non-dyadic floats, ties, positive diagonals and -0.0."""
    for space, maxdim in _float_spaces():
        _assert_collapse_keeps_bytes(space, maxdim)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_collapse_keeps_barcode_bytes_on_cubes(k):
    plain, collapsed = _assert_collapse_keeps_bytes(hamming_cube(k), 3)
    assert collapsed < plain or k == 1


def _cell_set(cx):
    return {(d, tuple(verts), repr(f)) for d, dim in enumerate(cx.dims)
            for verts, f in zip(dim.vertices.tolist(), dim.filtration.tolist())}


def test_collapsed_complexes_are_valid_subcomplexes_with_the_oracle_barcode():
    """Every barcode-only cell, vertices and filtration, is a cell of the
    whole complex, and the dense standard algorithm on the barcode-only
    complex finds the whole complex's barcode."""
    checked = 0
    for space, maxdim in _float_spaces(count=60, seed=2207):
        full = vietoris_rips(space, maxdim)
        collapsed = corpus.stored_top(vietoris_rips(space, maxdim, barcode_only=True), space)
        assert oracle.complex_violations(collapsed) == []
        assert _cell_set(collapsed) <= _cell_set(full)
        assert (collapsed.top_dim, collapsed.complete) == (full.top_dim, full.complete)
        if len(collapsed) <= 150:
            checked += 1
            for p in (2, 3, 5):
                code = reduce(full, p)
                assert oracle.standard_barcode(collapsed, p) == \
                    {n: code[n] for n in code.dims()}, (space.dist.tolist(), p)
    assert checked >= 40


def test_collapse_leaves_builds_without_triangles_or_with_signed_zeros_alone():
    """Below top dimension 2 nothing is collapsed, nor is a matrix holding
    -0.0: the barcode-only build is the cut alone."""
    spaces = [space for space, _ in _float_spaces(count=40, seed=818)]
    for space in spaces:
        for maxdim in (0, 1):
            _assert_is_the_cut(space, maxdim)
    signed = [space for space in spaces if np.signbit(space.dist).any()]
    assert signed
    for space in signed:
        _assert_is_the_cut(space, 3)
    # the square's enclosing radius is its diameter: only the collapse cuts
    square = hamming_cube(2)
    collapsed = corpus.stored_top(vietoris_rips(square, 2, barcode_only=True), square)
    assert len(collapsed) < len(vietoris_rips(square, 2))


def _assert_collapse_matches_reference(space):
    """_collapse keeps the edges the reference keeps, on the graph cut at the
    enclosing radius and on the whole graph."""
    diag = np.diagonal(space.dist)
    for radius in (enclosing_radius(space), math.inf):
        near = (space.dist <= radius) & (diag <= radius)
        expected = oracle.collapse_reference(near, space.dist)
        _collapse(near, space.dist)
        assert (near == expected).all(), (space.dist.tolist(), radius)


def test_collapse_keeps_the_reference_edges_on_the_corpus():
    for x, y in corpus.product_corpus():
        for space in (x, y, product_sum(x, y)):
            _assert_collapse_matches_reference(space)


def test_collapse_keeps_the_reference_edges_on_generalized_float_metrics():
    """Ties, positive diagonals and -0.0; the float spaces of the other tests."""
    spaces = [space for space, _ in _float_spaces()]
    assert sum(bool((np.diagonal(space.dist) > 0).any()) for space in spaces) >= 50
    for space in spaces:
        _assert_collapse_matches_reference(space)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_collapse_keeps_the_reference_edges_on_cubes(k):
    _assert_collapse_matches_reference(hamming_cube(k))


def test_rips_rows_match_every_subset_bit_for_bit():
    """The vertex rows and filtration bits, signs of zero included, and their
    dtypes are those of a brute-force enumeration of every subset, sorted by
    (filtration, vertices): on the whole build, and on the barcode-only build
    against the cut graph, collapsed unless the matrix holds -0.0."""
    rng = random.Random(5171)
    signed = 0
    for _ in range(150):
        space = corpus.random_float_space(rng, 2, 9, signed_zero_rate=0.5)
        dist, diag = space.dist, np.diagonal(space.dist)
        maxdim = rng.randint(0, 4)
        top = min(maxdim, len(space) - 1)
        radius = enclosing_radius(space)
        cut = (dist <= radius) & (diag <= radius)
        has_signed_zero = bool(np.signbit(dist).any())
        signed += has_signed_zero
        if top >= 2 and not has_signed_zero:
            cut = oracle.collapse_reference(cut, dist)
        for near, barcode_only in ((np.ones_like(cut), False), (cut, True)):
            cx = corpus.stored_top(vietoris_rips(space, maxdim, barcode_only=barcode_only), space)
            want = oracle.rips_rows(dist, maxdim, near)
            assert len(cx.dims) == len(want)
            for dim, (verts, filt) in zip(cx.dims, want):
                assert (dim.vertices.dtype, dim.vertices.shape, dim.vertices.tobytes()) == \
                    (verts.dtype, verts.shape, verts.tobytes()), (dist.tolist(), maxdim)
                assert (dim.filtration.dtype, dim.filtration.tobytes()) == \
                    (filt.dtype, filt.tobytes()), (dist.tolist(), maxdim)
    assert signed >= 30


def test_rips_rows_of_300_points_are_uint16():
    """Above 256 points the vertex rows widen to uint16, whole and
    barcode-only, and keep the brute-force enumeration's values: 300 points
    in the unit square at maxdim 1, the barcode-only build cut at the
    enclosing radius (no collapse below dimension 2)."""
    points = np.random.default_rng(300).random((300, 2))
    space = validate(np.linalg.norm(points[:, None] - points, axis=2), point_cap=None)
    radius = enclosing_radius(space)
    for near, barcode_only in ((np.ones((300, 300), bool), False), (space.dist <= radius, True)):
        cx = vietoris_rips(space, 1, barcode_only=barcode_only)
        want = oracle.rips_rows(space.dist, 1, near)
        assert len(cx.dims) == len(want) == 2
        for dim, (verts, filt) in zip(cx.dims, want):
            assert dim.vertices.dtype == verts.dtype == np.uint16
            assert (dim.vertices.shape, dim.vertices.tobytes()) == (verts.shape, verts.tobytes())
            assert dim.filtration.tobytes() == filt.tobytes()
        assert oracle.complex_violations(cx) == []
    assert 0 < len(cx.dims[1].filtration) < 300 * 299 // 2


# Each of the edges (0, 1), (1, 2) and (1, 5) is dominated by some w at its
# entry and at each later level where N[u] & N[v] grows, but by no one w at
# all of those levels, so the collapse keeps these three edges.
SEVEN = validate([[0, 3, 4, 4, 3, 3, 1], [3, 0, 2, 1, 4, 2, 4], [4, 2, 0, 1, 4, 1, 2],
                  [4, 1, 1, 0, 3, 4, 2], [3, 4, 4, 3, 0, 1, 3], [3, 2, 1, 4, 1, 0, 4],
                  [1, 4, 2, 2, 3, 4, 0]])


def test_collapse_keeps_an_edge_no_single_point_dominates_at_every_level():
    near = np.ones((7, 7), dtype=bool)
    _collapse(near, SEVEN.dist)
    assert near[0, 1] and near[1, 2] and near[1, 5]
    assert np.count_nonzero(np.triu(near, 1)) == 14
    _assert_collapse_matches_reference(SEVEN)
    _assert_collapse_keeps_bytes(SEVEN, 3)


def test_collapse_on_a_float_cloud_where_distances_rarely_tie():
    rng = np.random.default_rng(3001)
    points = rng.random((30, 2))
    space = validate(np.linalg.norm(points[:, None] - points, axis=2))
    _assert_collapse_matches_reference(space)
    _assert_collapse_keeps_bytes(space, 2)


# a 5-point path: built barcode-only (cut at the enclosing radius 2 and
# collapsed), it is the path graph, so dimensions 2 to 4 are empty
PATH5 = validate([[abs(i - j) for j in range(5)] for i in range(5)])


def test_empty_dimensions_keep_their_dtypes_and_shapes():
    cx = corpus.stored_top(vietoris_rips(PATH5, 4, barcode_only=True), PATH5)
    assert cx.dim_counts() == {0: 5, 1: 4} and cx.top_dim == 4 and cx.complete
    for d in (2, 3, 4):
        empty = Dimension(np.empty(0), np.empty((0, d + 1), np.int32),
                          vertices=np.empty((0, d + 1), np.uint8))
        for got, want in zip(cx.dims[d], empty):
            assert (got is None) == (want is None)
            if want is not None:
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes())
    assert oracle.complex_violations(cx) == []


@pytest.mark.slow
def test_collapse_keeps_barcode_bytes_on_corpus_at_compare_depth():
    """The depth compare_product builds the products at for maxn 3."""
    for x, y in corpus.product_corpus():
        _assert_collapse_keeps_bytes(product_sum(x, y), 4, fields=(2,))


def _replaced(cx, d, **arrays):
    """cx with some arrays of dimension d replaced (corrupted copies in tests)."""
    dims = list(cx.dims)
    dims[d] = dims[d]._replace(**arrays)
    return FilteredComplex(tuple(dims), cx.complete, cx.source)


def _changed(cx, d, **edits):
    """cx with copies of some arrays of dimension d, each edited by
    `name=(where, values)` as array[where] = values."""
    arrays = {}
    for name, (where, values) in edits.items():
        arrays[name] = getattr(cx.dims[d], name).copy()
        arrays[name][where] = values
    return _replaced(cx, d, **arrays)


def test_oracle_reports_each_corruption_by_kind():
    """Each corruption is named by its kind: on the face matrices of a Rips
    complex and an ordered product, and on the sparse boundaries of a tensor
    complex, which can hold any coefficient in any order."""
    rips = vietoris_rips(hamming_cube(2), 2)
    tensor = oracle.tensor_complex(vietoris_rips(INTERVAL, 1), vietoris_rips(hamming_cube(2), 3), 2)
    ordered = ordered_product(INTERVAL, hamming_cube(2), 2)
    for cx in (rips, tensor, ordered):
        assert oracle.complex_violations(cx) == []
        n0 = len(cx.dims[0].filtration)
        corrupted = {
            # the first edge moved to 99, before later edges
            "not in filtration order": _changed(cx, 1, filtration=(0, 99.0)),
            # the last vertex moved to 99 stays in order, after its edges
            "late face": _changed(cx, 0, filtration=(-1, 99.0)),
        }
        if cx is tensor:
            top = cx.dims[2]
            corrupted |= {
                "face out of range": _changed(cx, 1, indices=(0, n0)),
                "zero coefficient": _changed(cx, 2, data=(0, 0)),
                # the first two faces of a 2-cell swapped with their coefficients
                "faces not ascending": _changed(cx, 2, indices=([0, 1], top.indices[[1, 0]]),
                                                data=([0, 1], top.data[[1, 0]])),
                "nonzero boundary of boundary": _changed(cx, 2, data=(0, -top.data[0])),
            }
        else:
            top = cx.dims[2].faces
            # the faces without vertices 0 and 1 of the first 2-cell swapped,
            # which flips the signs of both
            swapped = _changed(cx, 2, faces=((0, [0, 1]), top[0, [1, 0]]))
            corrupted |= {
                "face out of range": _changed(cx, 1, faces=((0, 0), n0)),
                "face matrix is not cells x (d + 1)": _replaced(cx, 2, faces=top[:, :2]),
                "face is not the cell without vertex i": swapped,
                "nonzero boundary of boundary": swapped,
            }
        for kind, bad in corrupted.items():
            violations = oracle.complex_violations(bad)
            assert kind in {v.split(": ", 1)[1] for v in violations}, (kind, violations)


def test_tensor_unit_law():
    point = vietoris_rips(validate([[0.0]], ["pt"]), 0)
    left = vietoris_rips(INTERVAL, 1)
    prod = oracle.tensor_complex(left, point)
    assert [(c.dim, c.filtration) for c in oracle.cells(prod)] == \
           [(c.dim, c.filtration) for c in oracle.cells(left)]
    assert [c.boundary for c in oracle.cells(prod)] == [c.boundary for c in oracle.cells(left)]
    assert prod.complete
    assert oracle.complex_violations(prod) == []


def test_tensor_cell_count_identity():
    # Both factors complete, so every product maxdim is admissible.
    left = vietoris_rips(hamming_cube(2), 3)
    right = vietoris_rips(corpus.random_space(random.Random(5), 3, 3), 2)
    for maxdim in (None, 0, 1, 2, 3, 4):
        prod = oracle.tensor_complex(left, right, maxdim)
        counts_l = left.dim_counts()
        counts_r = right.dim_counts()
        top = prod.top_dim
        want = sum(nl * nr for dl, nl in counts_l.items() for dr, nr in counts_r.items()
                   if dl + dr <= top)
        assert len(prod) == want
        assert oracle.complex_violations(prod) == []


def test_tensor_filtration_is_sum():
    left = vietoris_rips(INTERVAL, 1)
    prod = oracle.tensor_complex(left, left)
    for cell in oracle.cells(prod):
        i, j = cell.factors
        assert cell.filtration == \
            oracle.cells(left)[i].filtration + oracle.cells(left)[j].filtration
    assert prod.top_dim == 2 and prod.complete


def test_global_ids_are_int32():
    """Global ids invert the global order in the int32 of every index array;
    a complex without dimensions has no ids and no cells."""
    space = corpus.random_space(random.Random(5), 3, 3)
    left, right = vietoris_rips(hamming_cube(2), 3), vietoris_rips(space, 2)
    prod = oracle.tensor_complex(left, right, 3)
    ordered = ordered_product(hamming_cube(2), space, 3)
    for cx in (left, right, prod, ordered):
        ids = cx.global_ids()
        assert [part.dtype for part in ids] == [np.dtype(np.int32)] * len(cx.dims)
        assert [part.tolist() for part in ids] == oracle._global_ids(cx)
    empty = FilteredComplex((), complete=True)
    assert empty.global_ids() == [] and empty.cells == () and len(empty) == 0


def test_tensor_rejects_truncated_factors():
    shallow = vietoris_rips(hamming_cube(2), 1)  # truncated at dim 1
    deep = vietoris_rips(INTERVAL, 1)
    with pytest.raises(InputError, match="truncated"):
        oracle.tensor_complex(shallow, deep, 3)
    # fine when the requested dimension stays within the shallow factor
    assert oracle.complex_violations(oracle.tensor_complex(shallow, deep, 1)) == []


def test_ordered_product_rejects_negative_maxdim():
    with pytest.raises(InputError, match="maxdim must be >= 0, got -1"):
        ordered_product(INTERVAL, INTERVAL, -1)


def test_ordered_product_cell_cap():
    square = hamming_cube(2)
    with pytest.raises(CapExceeded):
        ordered_product(square, square, 6, cell_cap=10)


def test_ordered_product_rows_match_every_chain_bit_for_bit():
    """The vertex rows and filtration bits, signs of zero included, and their
    dtypes are those of a brute-force enumeration of every chain of the
    product order, sorted by (filtration, vertices), on small pairs with
    positive diagonals, ties and -0.0; every complex passes the invariant
    checks, and is complete exactly from maxdim |X| + |Y| - 2 on."""
    rng = random.Random(6203)
    signed = positive = 0
    for _ in range(40):
        x, y = (corpus.random_float_space(rng, 1, 4, signed_zero_rate=0.5) for _ in range(2))
        signed += bool(np.signbit(x.dist).any() or np.signbit(y.dist).any())
        positive += bool((np.diagonal(x.dist) > 0).any() or (np.diagonal(y.dist) > 0).any())
        for maxdim in (0, 2, rng.randint(3, 6)):
            cx = ordered_product(x, y, maxdim)
            want = oracle.ordered_rows(x, y, maxdim)
            assert len(cx.dims) == len(want)
            for dim, (verts, filt) in zip(cx.dims, want):
                assert (dim.vertices.dtype, dim.vertices.shape, dim.vertices.tobytes()) == \
                    (verts.dtype, verts.shape, verts.tobytes()), (x.dist.tolist(), y.dist.tolist())
                assert (dim.filtration.dtype, dim.filtration.tobytes()) == \
                    (filt.dtype, filt.tobytes()), (x.dist.tolist(), y.dist.tolist())
            assert cx.complete == (maxdim >= len(x) + len(y) - 2)
            assert cx.source == product_sum(x, y).labels
            assert oracle.complex_violations(cx) == []
    assert signed >= 10 and positive >= 10


def test_ordered_product_is_a_subcomplex_of_the_product_rips_complex():
    """Every chain is a cell of the Rips complex of the sum-metric product,
    entering there no later than in the ordered product: g >= f.  The Rips
    filtration f itself lies between max(l_X, l_Y) and l_X + l_Y."""
    rng = random.Random(6211)
    for _ in range(15):
        x, y = (corpus.random_space(rng, 1, 4, allow_diagonal=True) for _ in range(2))
        rips = vietoris_rips(product_sum(x, y), 3)
        f = {tuple(row): value for dim in rips.dims
             for row, value in zip(dim.vertices.tolist(), dim.filtration.tolist())}
        for dim in ordered_product(x, y, 3).dims:
            for row, g in zip(dim.vertices.tolist(), dim.filtration.tolist()):
                assert tuple(row) in f and f[tuple(row)] <= g, (x.dist.tolist(), y.dist.tolist(), row)
        assert oracle.filtration_sandwich_violations(rips, x, y) == []


def test_ordered_cell_count_counts_every_chain():
    """The closed form equals the number of chains the brute force lists and
    the cells a complete build stores."""
    square = hamming_cube(2)
    for nx, ny in ((1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (1, 6)):
        x, y = validate(np.zeros((nx, nx))), validate(np.zeros((ny, ny)))
        for maxdim in range(min(nx + ny, 5)):
            brute = sum(len(filt) for _, filt in oracle.ordered_rows(x, y, maxdim))
            assert ordered_cell_count(nx, ny, maxdim) == brute, (nx, ny, maxdim)
        assert len(ordered_product(x, y, nx + ny - 2)) == ordered_cell_count(nx, ny, nx + ny - 2)
    assert ordered_cell_count(4, 4, 6) == len(ordered_product(square, square, 6))


def test_ordered_product_prices_its_face_table():
    """The colex table the boundary looks faces up in is priced as cells
    too: 9 x 8 points at maxdim 8 have 19,764,046 chains, under the default
    cap, but the table of their faces would take C(72, 8) int32 entries (48
    GB), so the build is refused before anything is allocated."""
    x, y = validate(np.zeros((9, 9))), validate(np.zeros((8, 8)))
    assert ordered_cell_count(9, 8, 8) == 19_764_046 <= DEFAULT_CELL_CAP
    with pytest.raises(CapExceeded, match="ordered product needs"):
        ordered_product(x, y, 8)


def test_betti_at_ranks_sparse_columns_where_dense_ones_were_refused():
    """The rank-nullity oracle eliminates sparse columns, bitsets over F_2
    and dicts over F_3, where a dense matrix of the 2-cells and 3-cells of
    the whole 5-cube at maxdim 4 would take 4,960 x 35,960 entries.  At
    t = 5 every subset of its 32 points has entered, and the degree-d
    boundary of a simplex on m points has rank C(m - 1, d) over every
    field."""
    cube = vietoris_rips(hamming_cube(5), 4)
    for p in (2, 3):
        assert oracle._rank_at(cube, p, 3, 5.0) == math.comb(31, 3)
    assert oracle.betti_at(cube, 2, 0, 0.0) == 32


def test_filtration_inequality_on_random_pairs():
    rng = random.Random(11)
    for _ in range(10):
        x = corpus.random_space(rng, 2, 4)
        y = corpus.random_space(rng, 2, 4)
        prod = vietoris_rips(product_sum(x, y), 2)
        assert oracle.filtration_sandwich_violations(prod, x, y) == []


def test_filtration_inequality_detects_corruption():
    x = y = INTERVAL
    prod = vietoris_rips(product_sum(x, y), 2)
    cells = oracle.cells(prod)
    j = next(i for i, c in enumerate(cells) if c.dim == 1)
    # push one edge (row 0 of dimension 1) above the upper bound l_X + l_Y = 2
    filtration = prod.dims[1].filtration.copy()
    filtration[0] = 9.0
    corrupt = _replaced(prod, 1, filtration=filtration)
    bad = oracle.filtration_sandwich_violations(corrupt, x, y)
    assert [oracle.cells(corrupt)[i].label for i in bad] == [cells[j].label]

    # and one vertex below the lower bound max(l_X, l_Y)
    diag = validate([[1.0]])
    prod2 = vietoris_rips(product_sum(diag, diag), 1)
    filtration2 = prod2.dims[0].filtration.copy()
    filtration2[0] = 0.0
    corrupt2 = _replaced(prod2, 0, filtration=filtration2)
    assert oracle.filtration_sandwich_violations(corrupt2, diag, diag) == [0]


def test_dump_lines_format():
    cx = vietoris_rips(INTERVAL, 1)
    assert list(cx.dump_lines()) == [
        "0 0 0.0 - 0",
        "1 0 0.0 - 1",
        "2 1 1.0 0:-1,1:1 0,1",
    ]


def test_dump_lines_of_cells_without_labels():
    """A dimension built by hand, without vertex rows, labels each of its
    cells with the empty string."""
    points = Dimension(np.zeros(2), np.empty((2, 0), np.int32))
    edge = Dimension(np.ones(1), np.array([[1, 0]], np.int32))
    cx = FilteredComplex((points, edge), complete=True)
    assert list(cx.dump_lines()) == ["0 0 0.0 - ", "1 0 0.0 - ", "2 1 1.0 0:-1,1:1 "]
    assert repr(cx) == "FilteredComplex(cells=3, top_dim=1, complete=True)"
    assert repr(vietoris_rips(hamming_cube(2), 2)) == \
        "FilteredComplex(cells=14, top_dim=2, complete=False)"


# Full dumps recorded from the tuple-sorting builders that preceded the array
# layout.  Each has ties in filtration inside a dimension, so a change in how
# ties are broken reorders lines here.

SQUARE_MAXDIM_3 = [
    '0 0 0.0 - 00',
    '1 0 0.0 - 01',
    '2 0 0.0 - 10',
    '3 0 0.0 - 11',
    '4 1 1.0 0:-1,1:1 00,01',
    '5 1 1.0 0:-1,2:1 00,10',
    '6 1 1.0 1:-1,3:1 01,11',
    '7 1 1.0 2:-1,3:1 10,11',
    '8 1 2.0 0:-1,3:1 00,11',
    '9 1 2.0 1:-1,2:1 01,10',
    '10 2 2.0 4:1,5:-1,9:1 00,01,10',
    '11 2 2.0 4:1,6:1,8:-1 00,01,11',
    '12 2 2.0 5:1,7:1,8:-1 00,10,11',
    '13 2 2.0 6:-1,7:1,9:1 01,10,11',
    '14 3 2.0 10:-1,11:1,12:-1,13:1 00,01,10,11',
]

POSITIVE_DIAGONAL = [
    '0 0 0.0 - 1',
    '1 0 1.0 - 2',
    '2 1 1.0 0:-1,1:1 1,2',
    '3 0 2.0 - 0',
    '4 1 2.0 0:1,3:-1 0,1',
    '5 1 2.0 1:1,3:-1 0,2',
    '6 2 2.0 2:1,4:1,5:-1 0,1,2',
]

FIRST_SMALL_PAIR_TENSOR = [
    '0 0 0.0 - 0|0',
    '1 0 0.0 - 0|1',
    '2 0 0.0 - 0|2',
    '3 0 0.0 - 0|3',
    '4 0 0.0 - 1|0',
    '5 0 0.0 - 1|1',
    '6 0 0.0 - 1|2',
    '7 0 0.0 - 1|3',
    '8 0 0.0 - 2|0',
    '9 0 0.0 - 2|1',
    '10 0 0.0 - 2|2',
    '11 0 0.0 - 2|3',
    '12 0 0.0 - 3|0',
    '13 0 0.0 - 3|1',
    '14 0 0.0 - 3|2',
    '15 0 0.0 - 3|3',
    '16 1 0.0 0:-1,4:1 0,1|0',
    '17 1 0.0 1:-1,5:1 0,1|1',
    '18 1 0.0 2:-1,6:1 0,1|2',
    '19 1 0.0 3:-1,7:1 0,1|3',
    '20 1 0.0 4:-1,12:1 1,3|0',
    '21 1 0.0 5:-1,13:1 1,3|1',
    '22 1 0.0 6:-1,14:1 1,3|2',
    '23 1 0.0 7:-1,15:1 1,3|3',
    '24 1 1.0 0:-1,3:1 0|0,3',
    '25 1 1.0 4:-1,7:1 1|0,3',
    '26 1 1.0 8:-1,11:1 2|0,3',
    '27 1 1.0 12:-1,15:1 3|0,3',
    '28 2 1.0 16:1,19:-1,24:-1,25:1 0,1|0,3',
    '29 2 1.0 20:1,23:-1,25:-1,27:1 1,3|0,3',
    '30 1 3.0 0:-1,2:1 0|0,2',
    '31 1 3.0 2:-1,3:1 0|2,3',
    '32 1 3.0 4:-1,6:1 1|0,2',
    '33 1 3.0 6:-1,7:1 1|2,3',
    '34 1 3.0 8:-1,10:1 2|0,2',
    '35 1 3.0 10:-1,11:1 2|2,3',
    '36 1 3.0 12:-1,14:1 3|0,2',
    '37 1 3.0 14:-1,15:1 3|2,3',
    '38 1 3.0 8:-1,12:1 2,3|0',
    '39 1 3.0 9:-1,13:1 2,3|1',
    '40 1 3.0 10:-1,14:1 2,3|2',
    '41 1 3.0 11:-1,15:1 2,3|3',
    '42 2 3.0 24:-1,30:1,31:1 0|0,2,3',
    '43 2 3.0 25:-1,32:1,33:1 1|0,2,3',
    '44 2 3.0 26:-1,34:1,35:1 2|0,2,3',
    '45 2 3.0 27:-1,36:1,37:1 3|0,2,3',
    '46 2 3.0 16:1,18:-1,30:-1,32:1 0,1|0,2',
    '47 2 3.0 18:1,19:-1,31:-1,33:1 0,1|2,3',
    '48 2 3.0 20:1,22:-1,32:-1,36:1 1,3|0,2',
    '49 2 3.0 22:1,23:-1,33:-1,37:1 1,3|2,3',
    '50 1 4.0 0:-1,1:1 0|0,1',
    '51 1 4.0 1:-1,3:1 0|1,3',
    '52 1 4.0 4:-1,5:1 1|0,1',
    '53 1 4.0 5:-1,7:1 1|1,3',
    '54 1 4.0 8:-1,9:1 2|0,1',
    '55 1 4.0 9:-1,11:1 2|1,3',
    '56 1 4.0 12:-1,13:1 3|0,1',
    '57 1 4.0 13:-1,15:1 3|1,3',
    '58 1 4.0 0:-1,12:1 0,3|0',
    '59 1 4.0 1:-1,13:1 0,3|1',
    '60 1 4.0 2:-1,14:1 0,3|2',
    '61 1 4.0 3:-1,15:1 0,3|3',
    '62 2 4.0 24:-1,50:1,51:1 0|0,1,3',
    '63 2 4.0 25:-1,52:1,53:1 1|0,1,3',
    '64 2 4.0 26:-1,54:1,55:1 2|0,1,3',
    '65 2 4.0 27:-1,56:1,57:1 3|0,1,3',
    '66 2 4.0 16:1,17:-1,50:-1,52:1 0,1|0,1',
    '67 2 4.0 17:1,19:-1,51:-1,53:1 0,1|1,3',
    '68 2 4.0 20:1,21:-1,52:-1,56:1 1,3|0,1',
    '69 2 4.0 21:1,23:-1,53:-1,57:1 1,3|1,3',
    '70 2 4.0 26:-1,27:1,38:1,41:-1 2,3|0,3',
    '71 2 4.0 16:1,20:1,58:-1 0,1,3|0',
    '72 2 4.0 17:1,21:1,59:-1 0,1,3|1',
    '73 2 4.0 18:1,22:1,60:-1 0,1,3|2',
    '74 2 4.0 19:1,23:1,61:-1 0,1,3|3',
    '75 1 5.0 1:-1,2:1 0|1,2',
    '76 1 5.0 5:-1,6:1 1|1,2',
    '77 1 5.0 9:-1,10:1 2|1,2',
    '78 1 5.0 13:-1,14:1 3|1,2',
    '79 1 5.0 4:-1,8:1 1,2|0',
    '80 1 5.0 5:-1,9:1 1,2|1',
    '81 1 5.0 6:-1,10:1 1,2|2',
    '82 1 5.0 7:-1,11:1 1,2|3',
    '83 2 5.0 30:-1,50:1,75:1 0|0,1,2',
    '84 2 5.0 31:1,51:-1,75:1 0|1,2,3',
    '85 2 5.0 32:-1,52:1,76:1 1|0,1,2',
    '86 2 5.0 33:1,53:-1,76:1 1|1,2,3',
    '87 2 5.0 34:-1,54:1,77:1 2|0,1,2',
    '88 2 5.0 35:1,55:-1,77:1 2|1,2,3',
    '89 2 5.0 36:-1,56:1,78:1 3|0,1,2',
    '90 2 5.0 37:1,57:-1,78:1 3|1,2,3',
    '91 2 5.0 17:1,18:-1,75:-1,76:1 0,1|1,2',
    '92 2 5.0 21:1,22:-1,76:-1,78:1 1,3|1,2',
    '93 2 5.0 24:-1,27:1,58:1,61:-1 0,3|0,3',
    '94 2 5.0 20:-1,38:1,79:1 1,2,3|0',
    '95 2 5.0 21:-1,39:1,80:1 1,2,3|1',
    '96 2 5.0 22:-1,40:1,81:1 1,2,3|2',
    '97 2 5.0 23:-1,41:1,82:1 1,2,3|3',
    '98 2 6.0 34:-1,36:1,38:1,40:-1 2,3|0,2',
    '99 2 6.0 35:-1,37:1,40:1,41:-1 2,3|2,3',
    '100 2 6.0 25:-1,26:1,79:1,82:-1 1,2|0,3',
    '101 2 7.0 38:1,39:-1,54:-1,56:1 2,3|0,1',
    '102 2 7.0 39:1,41:-1,55:-1,57:1 2,3|1,3',
    '103 2 7.0 30:-1,36:1,58:1,60:-1 0,3|0,2',
    '104 2 7.0 31:-1,37:1,60:1,61:-1 0,3|2,3',
    '105 1 8.0 0:-1,8:1 0,2|0',
    '106 1 8.0 1:-1,9:1 0,2|1',
    '107 1 8.0 2:-1,10:1 0,2|2',
    '108 1 8.0 3:-1,11:1 0,2|3',
    '109 2 8.0 39:1,40:-1,77:-1,78:1 2,3|1,2',
    '110 2 8.0 50:-1,56:1,58:1,59:-1 0,3|0,1',
    '111 2 8.0 51:-1,57:1,59:1,61:-1 0,3|1,3',
    '112 2 8.0 32:-1,34:1,79:1,81:-1 1,2|0,2',
    '113 2 8.0 33:-1,35:1,81:1,82:-1 1,2|2,3',
    '114 2 8.0 16:1,79:1,105:-1 0,1,2|0',
    '115 2 8.0 17:1,80:1,106:-1 0,1,2|1',
    '116 2 8.0 18:1,81:1,107:-1 0,1,2|2',
    '117 2 8.0 19:1,82:1,108:-1 0,1,2|3',
    '118 2 8.0 38:1,58:-1,105:1 0,2,3|0',
    '119 2 8.0 39:1,59:-1,106:1 0,2,3|1',
    '120 2 8.0 40:1,60:-1,107:1 0,2,3|2',
    '121 2 8.0 41:1,61:-1,108:1 0,2,3|3',
    '122 2 9.0 59:1,60:-1,75:-1,78:1 0,3|1,2',
    '123 2 9.0 52:-1,54:1,79:1,80:-1 1,2|0,1',
    '124 2 9.0 53:-1,55:1,80:1,82:-1 1,2|1,3',
    '125 2 9.0 24:-1,26:1,105:1,108:-1 0,2|0,3',
    '126 2 10.0 76:-1,77:1,80:1,81:-1 1,2|1,2',
    '127 2 11.0 30:-1,34:1,105:1,107:-1 0,2|0,2',
    '128 2 11.0 31:-1,35:1,107:1,108:-1 0,2|2,3',
    '129 2 12.0 50:-1,54:1,105:1,106:-1 0,2|0,1',
    '130 2 12.0 51:-1,55:1,106:1,108:-1 0,2|1,3',
    '131 2 13.0 75:-1,77:1,106:1,107:-1 0,2|1,2',
]


def test_dump_lines_streams_chunks_as_the_oracle_renders_cells():
    """`dump_lines` renders DUMP_CHUNK global ids at a time.  Across chunk
    edges that cut through a dimension, and in a complex of one cell or
    none, its lines are those the per-cell oracle renders."""
    rng = random.Random(31)
    space = corpus.random_space(rng, 12, 12, allow_diagonal=True)
    assert (np.diagonal(space.dist) > 0).any()
    x, y = (corpus.random_space(rng, 6, 6, allow_diagonal=True) for _ in range(2))
    cube = vietoris_rips(hamming_cube(4), 4)
    assert len(cube) == 6_884
    for cx in (cube, vietoris_rips(space, 4), ordered_product(x, y, 4),
               vietoris_rips(validate([[0.0]]), 0)):
        cells = oracle.cells(cx)
        assert list(cx.dump_lines()) == oracle.dump_lines(cx)
        edges = range(DUMP_CHUNK, len(cx), DUMP_CHUNK)
        assert len(cx) == 1 or any(cells[g - 1].dim == cells[g].dim for g in edges)
    no_cells = Dimension(np.empty(0), np.empty((0, 0), np.int32))
    for cx in (FilteredComplex((no_cells,), complete=True), FilteredComplex((), complete=True)):
        assert list(cx.dump_lines()) == []


def test_golden_dumps_pin_tie_order():
    assert list(vietoris_rips(hamming_cube(2), 3).dump_lines()) == SQUARE_MAXDIM_3
    diag = validate([[2.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    assert list(vietoris_rips(diag, 2).dump_lines()) == POSITIVE_DIAGONAL
    x, y = corpus.small_pairs()[0]
    prod = oracle.tensor_complex(vietoris_rips(x, 2), vietoris_rips(y, 2), 2)
    assert oracle.dump_lines(prod) == FIRST_SMALL_PAIR_TENSOR
