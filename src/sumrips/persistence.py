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
the first index of j's row, and j is c's latest face, the last index of c's
column.  Entries that vanish mod p are dropped before either lookup.  The
pairing of a fixed total order is unique, and the columns reduced before j
combine coboundaries of cells later than j, none of which has c as a coface;
so j's column would reach pivot c without an addition, and the pair is
recorded without reducing it.  Only the columns that are neither cleared nor
apparent go through the column loop.

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
coboundary is rebuilt from the boundary matrix only when it is added.  Only
columns that additions changed are stored, each as an int32 array of cofaces
and an int64 array of coefficients.  Owners are not rescaled: adding one
multiplies it by col[pivot] / owner[pivot] mod p.  Memory beyond the complex
therefore grows with the cells of two adjacent dimensions, at one byte per
cell (its clearing flag) and four per coface (its owner), with the few
modified columns, at twelve bytes per entry, and with the coboundaries of one
dimension at a time: its boundary transposed, at five bytes per entry (an
int32 coface and an int8 coefficient, whatever the width of the face rows).
Dimension 0 holds a Python list of its edges' faces instead, and one parent
per vertex.  Each dimension is reduced in a call of its own, which frees all
of its state but the owners before the next dimension's transpose is
allocated.  The transpose sorts at most CHUNK entries at a time, so beyond
that output it holds O(CHUNK + cells) bytes, not a permutation of every
entry.  Under tracemalloc, reducing the whole 5-cube at maxdim 4 over F_2
holds 30 B per cell beyond the complex, and reducing 50 random points in the
unit cube at maxdim 3 holds 24 B.

Boundary coefficients are stored as integers by the builders and only reduced
mod p here, so the same complex can be reduced over several primes.  A pair
with equal entry times contributes no bar; an unpaired cell contributes an
essential bar (birth, inf).  Output dimensions honor the complex's reliability
rule: a truncated complex cannot certify its cut dimension.
"""

from __future__ import annotations

import operator

import numpy as np

from .bars import INF, Bar, Barcode, GradedBarcode
from .complexes import Dimension, FilteredComplex
from .errors import InputError

DEFAULT_FIELD = 2
MAX_FIELD = 2**31
# Boundary entries that `_transpose` sorts at a time.  Against 2^16 this takes
# about 0.9 MB off the peak resident set of reducing the 5-cube as a product at
# maxdim 4.  2^14 took 0.7 MB more off it, but added about 0.25 MB to runs
# whose largest boundary holds between 2^14 and 2^15 entries.
CHUNK = 2**15


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


def _live_boundary(dim: Dimension, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundary (indptr, indices, data) of `dim` without the entries that
    vanish mod p."""
    data = dim.data
    # A nonzero entry strictly between -p and p cannot vanish mod p.  Every
    # boundary entry the builders make is +-1, so they all return here.
    if not len(data) or (data.all() and -p < int(data.min()) and int(data.max()) < p):
        return dim.indptr, dim.indices, data
    # Above the dtype's range no nonzero coefficient is a multiple of the prime
    # p, and `data % p` would overflow.
    live = data != 0 if p > np.iinfo(data.dtype).max else data % p != 0
    if live.all():
        return dim.indptr, dim.indices, data
    kept = np.concatenate([[0], np.cumsum(live)]).astype(dim.indptr.dtype)
    return kept[dim.indptr], dim.indices[live], data[live]


def _column_cuts(indptr: np.ndarray) -> list[int]:
    """Cuts of the columns into chunks of whole columns holding at most CHUNK
    entries each; a longer column is a chunk by itself."""
    n, cuts = len(indptr) - 1, [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        end = int(indptr[lo]) + CHUNK
        if indptr[n] <= end:
            hi = n
        else:
            # A Python int would make numpy copy all of indptr to int64 first.
            hi = int(np.searchsorted(indptr, indptr.dtype.type(end), side="right")) - 1
        cuts.append(max(hi, lo + 1))
    return cuts


def _sorted_chunk(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, lo: int, hi: int,
                  n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order that sorts the entries of columns lo..hi-1 by row,
    and their int32 columns and coefficients in that order, so each row's
    columns ascend."""
    a, b = indptr[lo], indptr[hi]
    rows = indices[a:b]
    # numpy radix-sorts 16-bit keys: int16 rows as they are, and wider rows
    # cast to uint16 while the dimension has at most 65,536 cells.
    if rows.itemsize > 2 and n_rows <= 2**16:
        rows = rows.astype(np.uint16)
    by_row = np.argsort(rows, kind="stable")
    cols = np.repeat(np.arange(lo, hi, dtype=np.int32), indptr[lo + 1:hi + 1] - indptr[lo:hi])
    return by_row, cols[by_row], data[a:b][by_row]


def _transpose(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a boundary as (indptr, indices, data), each row's columns
    ascending; the columns are int32, whatever the dtype of the rows.

    The columns are taken in chunks of at most CHUNK entries (`_column_cuts`).
    Each row's entries are counted chunk by chunk with `np.add.at`, since
    counting all entries at once would first cast them to 8-byte integers.
    Then each chunk's entries, stably sorted by row, go to their rows' next
    free slots, chunk after chunk, so each row lists its columns in order.
    A chunk touches only the rows it holds, so the work is O(entries +
    n_rows); the counts and free slots are int64, into which `np.add.at` is
    many times faster than into int32.  Beyond the output, this holds
    O(CHUNK + n_rows) bytes.  A boundary of one chunk is the sorted chunk
    itself, counted with `np.bincount`.
    """
    cuts = _column_cuts(indptr)
    ptr = np.zeros(n_rows + 1, dtype=indptr.dtype)
    if len(cuts) == 2:
        np.cumsum(np.bincount(indices[indptr[0]:indptr[-1]], minlength=n_rows), out=ptr[1:])
        return (ptr, *_sorted_chunk(indptr, indices, data, 0, cuts[1], n_rows)[1:])
    count = np.zeros(n_rows, dtype=np.int64)
    for lo, hi in zip(cuts, cuts[1:]):
        np.add.at(count, indices[indptr[lo]:indptr[hi]], 1)
    np.cumsum(count, out=ptr[1:])
    del count
    cofaces, coeffs = np.empty(len(indices), dtype=np.int32), np.empty_like(data)
    free = ptr[:-1].astype(np.int64)
    for lo, hi in zip(cuts, cuts[1:]):
        by_row, cols, vals = _sorted_chunk(indptr, indices, data, lo, hi, n_rows)
        rows = indices[indptr[lo]:indptr[hi]][by_row]
        del by_row
        # The chunk lists its rows ascending, in runs of equal rows; the entry
        # k places after the start of its row's run goes to slot free[row] + k.
        slot = np.arange(len(rows))
        start = np.where(np.r_[True, rows[1:] != rows[:-1]], slot, 0)
        np.maximum.accumulate(start, out=start)
        slot -= start
        del start
        slot += free[rows]
        cofaces[slot], coeffs[slot] = cols, vals
        np.add.at(free, rows, 1)
    return ptr, cofaces, coeffs


def _pair_vertices(cx: FilteredComplex, p: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Pair the vertices with the edges that merge their components: return
    `owner`, each edge's younger vertex or -1, and the counts (apparent,
    looped, additions), as `_reduce_dimension` does for the dimensions above.

    The edges are walked once in stored order, a union-find (path halving)
    over the vertex rows, which are in the global order: a merging edge owns
    the younger of its endpoints' roots, the larger row, which is linked under
    the older one.  This is the coboundary reduction's pairing, the unique one
    of the total order, provided each edge's boundary is c (v - u) mod p.
    Every edge the builders make has that form; any other raises InputError.
    """
    n = len(cx.dims[0].filtration)
    n_edges = len(cx.dims[1].filtration) if cx.top_dim else 0
    if not n_edges:  # every vertex is essential as it is
        return np.empty(0, dtype=np.int32), (0, n, 0)
    ptr, faces, data = _live_boundary(cx.dims[1], p)
    # Two faces per edge, whose coefficients sum to 0 mod p.  Comparing lists
    # takes fewer steps than numpy on the few edges of most complexes.
    if ptr.tolist() == list(range(0, 2 * n_edges + 1, 2)):
        coeffs = data.astype(np.int64) % p
        bad = (coeffs[0::2] + coeffs[1::2]) % p != 0
    else:
        bad = np.diff(ptr) != 2
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        lo, hi = ptr[k], ptr[k + 1]
        raise InputError(f"edge {k} of dimension 1 has the boundary "
                         f"{list(zip(faces[lo:hi].tolist(), data[lo:hi].tolist()))} over F_{p}, "
                         f"not c (v - u); its vertices cannot be paired by union-find")
    parent = list(range(n))
    joined = bytearray(n)  # whether a vertex has left its singleton component
    edges, roots = [], []
    apparent = 0
    ends = iter(faces.tolist())
    for c, (u, v) in enumerate(zip(ends, ends)):
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
    col_ptr, faces, data = _live_boundary(cx.dims[d + 1], p)
    ptr, cofaces, coeffs = _transpose(col_ptr, faces, data, len(cleared))

    def row(j: int) -> tuple[np.ndarray, np.ndarray]:
        return cofaces[ptr[j]:ptr[j + 1]], coeffs[ptr[j]:ptr[j + 1]]

    # Apparent pairs: c is j's earliest coface (the first index of its row)
    # and j is c's latest face (the last index of its column).
    rows = np.flatnonzero((ptr[1:] > ptr[:-1]) & ~cleared)
    earliest = cofaces[ptr[rows]]
    is_apparent = faces[col_ptr[earliest + 1] - 1] == rows
    apparent, earliest = rows[is_apparent], earliest[is_apparent]
    del rows, is_apparent
    owner = np.full(n_cofaces, -1, dtype=np.int32)
    owner[earliest] = apparent
    del earliest

    todo = ~cleared
    todo[apparent] = False
    looped = np.flatnonzero(todo)[::-1].tolist()
    modified: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    additions = 0
    for j in looped:
        cof, val = row(j)
        col, added = {c: v % p for c, v in zip(cof.tolist(), val.tolist())}, False
        while col:
            piv = min(col)
            k = owner[piv]
            if k < 0:
                owner[piv] = j
                if added:
                    modified[piv] = (np.fromiter(col, np.int32, len(col)),
                                     np.fromiter(col.values(), np.int64, len(col)))
                break
            stored = modified.get(piv)
            cof, val = stored if stored is not None else row(k)
            cof, val = cof.tolist(), val.tolist()
            factor, added = col[piv] * pow(val[cof.index(piv)], p - 2, p) % p, True
            additions += 1
            for r, v in zip(cof, val):
                nv = (col.get(r, 0) - factor * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
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
    is 0.  Every edge's boundary must be c (v - u) mod p, as every built
    edge's is; any other raises InputError.

    A dimension without cofaces, as the top dimensions of a collapsed Rips
    complex often are, is not transposed: its columns that are not cleared
    are essential as they stand, and its stats read looped = essential =
    columns - cleared, every other count 0.  A degree without cells gets an
    empty barcode.
    """
    p = _check_field(p)
    codes = {}
    # The cells clearing skips, the pivots in the dimension below.  A complex
    # without dimensions has no reliable degree.
    cleared = np.zeros(len(cx.dims[0].filtration) if cx.dims else 0, dtype=bool)
    for d in range(cx.reliable_dim + 1):
        filt = cx.dims[d].filtration
        reduced = d < cx.top_dim
        owner, (apparent, looped, additions) = (_reduce_dimension(cx, d, p, cleared) if d
                                                else _pair_vertices(cx, p))
        # Finite bars in the order of their death cells, then essential bars:
        # Barcode's stable sort keeps that order among equal bars, so 0.0 and
        # -0.0 births print in a fixed order.
        died = np.flatnonzero(owner >= 0)
        born = owner[died]
        births = filt[born]
        deaths = cx.dims[d + 1].filtration[died] if reduced else births
        finite = births != deaths
        unpaired = ~cleared
        unpaired[born] = False
        essential = filt[unpaired].tolist()
        codes[d] = Barcode([*map(Bar, births[finite].tolist(), deaths[finite].tolist()),
                            *(Bar(f, INF) for f in essential)])
        if stats is not None and reduced:
            stats[d] = {"columns": len(filt), "cleared": int(np.count_nonzero(cleared)),
                        "apparent": apparent, "looped": looped, "additions": additions,
                        "pairs": len(died),
                        "zero_length": len(died) - int(np.count_nonzero(finite)),
                        "essential": len(essential)}
        cleared = owner >= 0
        # Freed before the next dimension's transpose is allocated.
        del owner, died, born, births, deaths, finite, unpaired
    return GradedBarcode(codes)
