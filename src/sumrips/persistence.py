"""Persistent homology via coboundary-matrix column reduction.

Over a field, persistent cohomology has the same barcodes as persistent
homology (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011), and on Rips complexes it takes far fewer column
additions (Bauer, Ripser, arXiv:1908.02518).  The coboundary of a cell is its
row of the boundary matrix into the dimension above.  Dimensions are processed
bottom up and the cells of each from the latest to the earliest; the pivot of
a column is its earliest remaining coface.  This reduces the anti-transpose of
the boundary matrix, which pairs exactly the cells that reducing the boundary
matrix pairs.  Clearing (Chen and Kerber, "Persistent homology computation
with a twist", 2011): a cell that is the pivot of a coboundary in the
dimension below has a coboundary that reduces to zero, and is skipped.

Apparent pairs (Ripser, section 3.5) are found first, for a whole dimension
at once with array lookups: (j, c) is apparent when c is j's earliest coface,
the first entry of j's row, and j is c's latest face, the largest row of
c's face matrix.  An enumerated top dimension (`implicit.reduce_top`)
applies the same test, reading c's face rows from the colex table that the
stored dimensions are built with.  Every boundary entry is +-1, so none
vanishes mod p.  The pairing of a fixed total order is unique, and the
columns reduced before j combine coboundaries of cells later than j, none
of which has c as a coface; so j's column would reach pivot c without an
addition, and the pair is recorded without reducing it.  Only the columns
that are neither cleared nor apparent go through the column loop.

Dimension 0 goes through neither: as in Ripser, its cells are paired by a
union-find over the edges in filtration order, which needs no transpose and
no column addition.  Over F_2, on the 150 barcode-only complexes that
`compare_product` builds for the 50 corpus pairs at maxn 3, 8,099 of the 9,676
pairs are apparent (84 %), and dimensions 1 to 3 loop 1,187 of their 14,394
columns (8 %) with 1,588 additions.

`reduce` makes one pass over the dimensions, bottom up, and keeps one array
per dimension: the owner of each coface, the cell whose pivot it is, or -1.
Dimension d's bars are read from it in the order of their death cells, its
essential cells are those neither cleared nor owners, and dimension d + 1
clears the cofaces that have an owner.  A complete complex's top dimension
has no cofaces, and a cut one is not visited.  An unmodified owner's
coboundary is read from the transposed face matrix only when it is added.
Only columns that additions changed are stored, each as an int64 array of
cofaces and an int64 array of coefficients.  Owners are not rescaled: adding one
multiplies it by col[pivot] / owner[pivot] mod p.  Memory beyond the complex
therefore grows with the cells of two adjacent dimensions, at one byte per
cell (its clearing flag) and four per coface (its owner), with the few
modified columns, at sixteen bytes per entry, and with the coboundaries of one
dimension at a time: its face matrix transposed, at four bytes per entry (an
int32 index into the face matrix, which gives the coface and, from its
column, the sign, whatever the width of the face rows).  Dimension 0 holds
a Python list of its edges' faces instead, and one parent per vertex.  Each
dimension is reduced in a call of its own, which frees all of its state but
the owners before the next dimension's transpose is allocated.  The
transpose sorts the entries of at most CHUNK // (d + 2) cells of dimension
d + 1 at a time, so beyond that output it holds O(CHUNK + cells) bytes, not
a permutation of every entry.  Under tracemalloc, reducing the whole 5-cube
at maxdim 4 over F_2 holds 27 B per cell beyond the complex, and reducing 50
random points in the unit cube at maxdim 3 holds 20 B.

A barcode-only Rips complex whose top dimension can hold more than CHUNK
cells does not store it (`complexes.Cofaces`): its last stored dimension is
paired against that dimension enumerated as cofaces (`implicit.reduce_top`),
with the pairs, bars and stats of the stored reduction.

Boundary signs are implied by the face matrices, so the same complex is
reduced over every prime as it is.  A pair with equal entry times
contributes no bar; an unpaired cell contributes an essential bar (birth,
inf).  Output dimensions honor the complex's reliability rule: a truncated
complex cannot certify its cut dimension.
"""

from __future__ import annotations

import operator

import numpy as np

from .bars import INF, Bar, Barcode, GradedBarcode
from .complexes import CHUNK, FilteredComplex, _index_dtype
from .errors import InputError

DEFAULT_FIELD = 2
MAX_FIELD = 2**31


def _is_prime(p: int) -> bool:
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_field(p: int) -> int:
    """p as a Python int, if it is a prime below 2^31; numpy integers are accepted."""
    try:
        q = operator.index(p)
    except TypeError:
        q = None
    if q is None or not 2 <= q < MAX_FIELD or not _is_prime(q):
        raise InputError(f"field characteristic must be a prime below 2^31, got {p!r}")
    return q


def _transpose(faces: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a face matrix as (row offsets, entries): row r lists the flat
    indices e into `faces` of the entries that hold r, ascending, in
    `_index_dtype`.  The coface is e // w and the sign (-1)^(e % w), w the
    number of columns.

    The cells are taken CHUNK // w at a time (at least one).  Each row's
    entries are counted chunk by chunk with `np.add.at`, since counting all
    entries at once would first cast them to 8-byte integers.  Then each
    chunk's entries, stably sorted by row as stored (numpy radix-sorts the
    8- and 16-bit rows of a dimension of at most 65,536 cells), go to their
    rows' next free slots, chunk after chunk, so each row lists its entries
    in order.  A chunk touches only the rows it holds, so the work is
    O(entries + n_rows); the counts and free slots are int64, into which
    `np.add.at` is many times faster than into int32.  Beyond the output,
    this holds O(CHUNK + n_rows) bytes.  A matrix of one chunk is the sorted chunk
    itself, counted with `np.bincount`.
    """
    flat = faces.ravel()
    dtype = _index_dtype(flat.size)
    step = max(1, CHUNK // faces.shape[1]) * faces.shape[1]
    ptr = np.zeros(n_rows + 1, dtype=dtype)
    if flat.size <= step:
        np.cumsum(np.bincount(flat, minlength=n_rows), out=ptr[1:])
        return ptr, np.argsort(flat, kind="stable").astype(dtype)
    count = np.zeros(n_rows, dtype=np.int64)
    for lo in range(0, flat.size, step):
        np.add.at(count, flat[lo:lo + step], 1)
    np.cumsum(count, out=ptr[1:])
    del count
    entries = np.empty(flat.size, dtype=dtype)
    free = ptr[:-1].astype(np.int64)
    for lo in range(0, flat.size, step):
        rows = flat[lo:lo + step]
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        # The chunk lists its rows ascending, in runs of equal rows; the entry
        # k places after the start of its row's run goes to slot free[row] + k.
        slot = np.arange(len(rows))
        start = np.where(np.r_[True, rows[1:] != rows[:-1]], slot, 0)
        np.maximum.accumulate(start, out=start)
        slot -= start
        del start
        slot += free[rows]
        by_row += lo
        entries[slot] = by_row
        np.add.at(free, rows, 1)
    return ptr, entries


def _pair_vertices(cx: FilteredComplex) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Pair the vertices with the edges that merge their components: return
    `owner`, each edge's younger vertex or -1, and the counts (apparent,
    looped, additions), as `_reduce_dimension` does for the dimensions above.

    The edges are walked once in stored order, a union-find (path halving)
    over the vertex rows, which are in the global order: a merging edge owns
    the younger of its endpoints' roots, the larger row, which is linked under
    the older one.  Every edge's boundary is v - u, so this is the coboundary
    reduction's pairing, the unique one of the total order, over every field.
    """
    n = len(cx.dims[0].filtration)
    n_edges = len(cx.dims[1].filtration) if cx.top_dim else 0
    if not n_edges:  # every vertex is essential as it is
        return np.empty(0, dtype=np.int32), (0, n, 0)
    parent = list(range(n))
    joined = bytearray(n)  # whether a vertex has left its singleton component
    edges, roots = [], []
    apparent = 0
    # Each edge's endpoints u < v, as rows.
    for c, (u, v) in enumerate(np.sort(cx.dims[1].faces, axis=1).tolist()):
        a, b = u, v
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        # The edge (u, v), u < v, is apparent when it is v's earliest coface,
        # that is, when v is still a singleton (an edge that merges nothing
        # has both ends joined already); v is then the younger root.
        apparent += not joined[v]
        joined[u] = joined[v] = 1
        if a > b:
            a, b = b, a
        parent[b] = a
        edges.append(c)
        roots.append(b)
        if len(edges) == n - 1:
            break
    owner = np.full(n_edges, -1, dtype=np.int32)
    owner[edges] = roots
    return owner, (apparent, n - apparent, 0)


def _column_loop(looped: list[int], row, owner_of, p: int) -> tuple[dict[int, int], int]:
    """Reduce the coboundaries of the cells `looped`, in that order, latest
    first: return the pivots they come to own, as a dict from coface to
    cell, and the number of column additions.

    `row(j)` is the coboundary of cell j as lists of cofaces and
    coefficients, and `owner_of(c)` the owner of coface c found before the
    loop, or -1.  A column whose pivot has an owner gets that owner's
    column added: its coboundary, unless additions changed it.
    """
    owned: dict[int, int] = {}
    modified: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    additions = 0
    for j in looped:
        cof, val = row(j)
        col, added = {c: v % p for c, v in zip(cof, val)}, False
        while col:
            piv = min(col)
            k = owned.get(piv, -1)
            if k < 0:
                k = owner_of(piv)
            if k < 0:
                owned[piv] = j
                if added:
                    modified[piv] = (np.fromiter(col, np.int64, len(col)),
                                     np.fromiter(col.values(), np.int64, len(col)))
                break
            stored = modified.get(piv)
            cof, val = (stored[0].tolist(), stored[1].tolist()) if stored is not None else row(k)
            factor, added = col[piv] * pow(val[cof.index(piv)], p - 2, p) % p, True
            additions += 1
            for r, v in zip(cof, val):
                nv = (col.get(r, 0) - factor * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    return owned, additions


def _reduce_dimension(cx: FilteredComplex, d: int, p: int,
                      cleared: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Pair the cells of dimension d that `cleared` leaves with their pivots
    in dimension d + 1: return `owner`, each coface's partner or -1, and the
    counts (apparent, looped, additions) that `reduce` reports.  All other
    state, the transposed boundary included, is freed on return.
    """
    # A complete complex's top dimension has no cofaces either.
    n_cofaces = len(cx.dims[d + 1].filtration) if d < cx.top_dim else 0
    if not n_cofaces:  # every column not cleared reduces to zero as it is
        return np.empty(0, dtype=np.int32), (0, int(np.count_nonzero(~cleared)), 0)
    faces = cx.dims[d + 1].faces
    width = d + 2
    ptr, entries = _transpose(faces, len(cleared))

    def row(j: int) -> tuple[list[int], list[int]]:
        # Python arithmetic on the few entries of a row is faster than numpy.
        found = entries[ptr[j]:ptr[j + 1]].tolist()
        return [e // width for e in found], [1 - 2 * (e % width % 2) for e in found]

    # Apparent pairs: c is j's earliest coface (the first entry of its row)
    # and j is c's latest face (its largest face row).
    rows = np.flatnonzero((ptr[1:] > ptr[:-1]) & ~cleared)
    earliest = entries[ptr[rows]] // width
    is_apparent = faces[earliest].max(axis=1) == rows
    apparent, earliest = rows[is_apparent], earliest[is_apparent]
    del rows, is_apparent
    owner = np.full(n_cofaces, -1, dtype=np.int32)
    owner[earliest] = apparent
    del earliest

    todo = ~cleared
    todo[apparent] = False
    looped = np.flatnonzero(todo)[::-1].tolist()
    owned, additions = _column_loop(looped, row, owner.item, p)
    owner[list(owned)] = list(owned.values())
    return owner, (len(apparent), len(looped), additions)


def reduce(cx: FilteredComplex, p: int = DEFAULT_FIELD, *,
           stats: dict | None = None) -> GradedBarcode:
    """Barcodes of a filtered complex over F_p, dimensions 0..cx.reliable_dim.

    Every reliable dimension appears in the result, empty or not, so serialized
    documents record which dimensions were actually computed.

    If `stats` is a dict, it gets one entry per reduced dimension d (0 to
    cx.top_dim - 1; the top dimension has no coboundaries to reduce), a dict
    of counts: `columns` (cells of dimension d), of which `cleared`,
    `apparent` and `looped` (the rest, reduced one by one); `additions` (column
    additions); `pairs` (cells paired with a coface), of which `zero_length`
    contribute no bar; and `essential` (looped columns that reduced to zero).
    Whether `stats` is given changes no step of the reduction.

    Dimension 0 is paired by a union-find over the edges (`_pair_vertices`),
    not by the column loop.  Its `apparent` counts the edges that are the
    earliest coface of their later vertex, as the array lookups would;
    `looped` is every other vertex, though none is reduced, and `additions`
    is 0.

    Every stored dimension d >= 1 must hold a face matrix of d + 1 columns
    (`complexes.Dimension`); any other raises InputError.

    A dimension without cofaces, as the top dimensions of a collapsed Rips
    complex often are, is not transposed: its columns that are not cleared
    are essential as they stand, and its stats read looped = essential =
    columns - cleared, every other count 0.  A degree without cells gets an
    empty barcode.

    A complex that does not store its top dimension (`cx.cofaces`, from a
    barcode-only Rips build) has its last stored dimension paired against
    that dimension's cells enumerated as cofaces (`implicit.reduce_top`),
    with the bars and stats the stored dimension would give.
    """
    p = _check_field(p)
    for d, dim in enumerate(cx.dims[1:], 1):
        if dim.faces.shape[1:] != (d + 1,):
            raise InputError(f"dimension {d} stores a face matrix of shape {dim.faces.shape}, "
                             f"not {d + 1} columns")
    codes = {}
    # The cells clearing skips, the pivots in the dimension below.  A complex
    # without dimensions has no reliable degree.
    cleared = np.zeros(len(cx.dims[0].filtration) if cx.dims else 0, dtype=bool)
    for d in range(cx.reliable_dim + 1):
        if d == len(cx.dims):
            # A complete complex's top dimension, not stored: it holds at most
            # the cell of all points, and then the complex is that simplex,
            # whose homology in degree d >= 2 is zero, so the cell is paired.
            codes[d] = Barcode([])
            break
        filt = cx.dims[d].filtration
        reduced = d < cx.top_dim
        # Finite bars in the order of their death cells, then essential bars:
        # Barcode's stable sort keeps that order among equal bars, so 0.0 and
        # -0.0 births print in a fixed order.
        if d == len(cx.dims) - 1 and cx.cofaces is not None:
            # Imported on first use: runs that store every top dimension never
            # compile it, which under PYTHONDONTWRITEBYTECODE raised their
            # peak resident set by 0.4 MB.
            from .implicit import reduce_top
            born, deaths, (apparent, looped, additions) = reduce_top(cx, p, cleared)
            owner = born[:0]  # the cofaces are not stored, nor is their clearing
        else:
            owner, (apparent, looped, additions) = (_reduce_dimension(cx, d, p, cleared) if d
                                                    else _pair_vertices(cx))
            died = np.flatnonzero(owner >= 0)
            born = owner[died]
            deaths = cx.dims[d + 1].filtration[died] if reduced else filt[born]
        births = filt[born]
        finite = births != deaths
        unpaired = ~cleared
        unpaired[born] = False
        essential = filt[unpaired].tolist()
        codes[d] = Barcode([*map(Bar, births[finite].tolist(), deaths[finite].tolist()),
                            *(Bar(f, INF) for f in essential)])
        if stats is not None and reduced:
            stats[d] = {"columns": len(filt), "cleared": int(np.count_nonzero(cleared)),
                        "apparent": apparent, "looped": looped, "additions": additions,
                        "pairs": len(born),
                        "zero_length": len(born) - int(np.count_nonzero(finite)),
                        "essential": len(essential)}
        cleared = owner >= 0
        # Freed before the next dimension's transpose is allocated.
        del owner, born, births, deaths, finite, unpaired
    return GradedBarcode(codes)
