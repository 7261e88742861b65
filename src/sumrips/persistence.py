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
recorded without reducing it.  On the product corpus about 93 % of the pairs
are apparent, and only the columns that are neither cleared nor apparent go
through the column loop.

Between dimensions the reduction keeps one partner array per dimension: each
cell's pivot in the dimension above, or -1.  Clearing reads the partners: the
cells cleared in dimension d are those recorded in dimension d-1, and the
essential cells are those with no partner either way.  Within a dimension the
owner of each pivot, the inverse of the partner array, is one int32 array
indexed by coface; an unmodified owner's coboundary is rebuilt from the
boundary matrix only when it is added.  Only columns that additions changed
are stored, each as an int32 array of cofaces and an int64 array of
coefficients.  Owners are not rescaled: adding one multiplies it by
col[pivot] / owner[pivot] mod p.  Memory beyond the complex therefore grows
with the cells, at four bytes per coface, with the few modified columns, at
twelve bytes per entry, and with the coboundaries of one dimension at a time:
its boundary transposed, at five bytes per entry (an int32 coface and an int8
coefficient).  Each dimension is reduced in a call of its own, so all of its
state is freed before the next dimension's transpose.  The transpose sorts at
most CHUNK entries at a time, so beyond that output it holds O(CHUNK + cells)
bytes, not a permutation of every entry.  Under tracemalloc, reducing the
whole 5-cube at maxdim 4 over F_2 holds 34 B per cell beyond the complex, and
reducing 50 random points in the unit cube at maxdim 3 holds 28 B.

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
    if p < 2:
        return False
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


def _cleared(partner: list[np.ndarray], d: int) -> np.ndarray:
    """Mask of the cells of dimension d that are partners of dimension d-1."""
    mask = np.zeros(len(partner[d]), dtype=bool)
    if d:
        below = partner[d - 1]
        mask[below[below >= 0]] = True
    return mask


def _live_boundary(dim: Dimension, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundary (indptr, indices, data) of `dim` without the entries that
    vanish mod p."""
    data = dim.data
    # A nonzero entry strictly between -p and p cannot vanish mod p.  Every
    # Rips and tensor boundary entry is +-1, so they all return here.
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
        hi = n if indptr[n] <= end else int(np.searchsorted(indptr, end, side="right")) - 1
        cuts.append(max(hi, lo + 1))
    return cuts


def _sorted_chunk(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, lo: int, hi: int,
                  n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The column and coefficient of each entry of columns lo..hi-1, stably
    sorted by row, so each row's columns ascend."""
    a, b = indptr[lo], indptr[hi]
    rows = indices[a:b]
    # numpy radix-sorts 16-bit keys, which cover every dimension of up to
    # 65,536 cells.
    by_row = np.argsort(rows.astype(np.uint16) if n_rows <= 2**16 else rows, kind="stable")
    cols = np.repeat(np.arange(lo, hi, dtype=indices.dtype), indptr[lo + 1:hi + 1] - indptr[lo:hi])
    return cols[by_row], data[a:b][by_row]


def _transpose(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a boundary as (indptr, indices, data), each row's columns ascending.

    The columns are taken in chunks of at most CHUNK entries (`_column_cuts`).
    Each row's entries are counted chunk by chunk, since `np.bincount` counts
    in 8-byte integers.  Then each chunk's entries, stably sorted by row, go to
    their rows' next free slots, chunk after chunk, so each row lists its
    columns in order.  Beyond the output, this holds O(CHUNK + n_rows) bytes.
    A boundary of one chunk is the sorted chunk itself.
    """
    cuts = _column_cuts(indptr)
    ptr = np.zeros(n_rows + 1, dtype=indptr.dtype)
    np.cumsum(sum(np.bincount(indices[indptr[lo]:indptr[hi]], minlength=n_rows)
                  for lo, hi in zip(cuts, cuts[1:])), out=ptr[1:])
    if len(cuts) == 2:
        return (ptr, *_sorted_chunk(indptr, indices, data, 0, cuts[1], n_rows))
    cofaces, coeffs = np.empty_like(indices), np.empty_like(data)
    free = ptr[:-1].copy()
    for lo, hi in zip(cuts, cuts[1:]):
        count = np.bincount(indices[indptr[lo]:indptr[hi]], minlength=n_rows)
        # The sorted chunk lists its rows ascending, count[r] entries each;
        # the k-th entry of row r goes to slot free[r] + k.
        first = free - np.cumsum(count)
        first += count
        slot = np.repeat(first, count)
        slot += np.arange(len(slot))
        cofaces[slot], coeffs[slot] = _sorted_chunk(indptr, indices, data, lo, hi, n_rows)
        free += count
    return ptr, cofaces, coeffs


def _reduction_pairs(cx: FilteredComplex, p: int, stats: dict | None = None) -> list[np.ndarray]:
    """Run the reduction; return per dimension each cell's partner in the
    dimension above, or -1 for none.  Fill `stats`, if given, as `reduce` says."""
    partner = [np.full(len(dim.filtration), -1, dtype=np.int32) for dim in cx.dims]
    for d in range(cx.top_dim):
        _reduce_dimension(cx, d, p, partner, stats)
    return partner


def _reduce_dimension(cx: FilteredComplex, d: int, p: int, partner: list[np.ndarray],
                      stats: dict | None) -> None:
    """Pair the cells of dimension d with their pivots in dimension d + 1 in
    `partner[d]`, and fill `stats[d]` if `stats` is a dict.

    `owner` maps each pivot to the cell whose column holds it; `modified` keeps
    the reduced column only where additions changed it, as an int32 array of
    cofaces and an int64 array of coefficients.  All of it, the transposed
    boundary included, is freed on return, before the next dimension's.
    """
    if not len(partner[d + 1]):
        # No cofaces: every column not cleared reduces to zero as it is.
        if stats is not None:
            cleared = _cleared(partner, d)
            stats[d] = _dimension_stats(cx, d, partner, cleared, 0,
                                        int(np.count_nonzero(~cleared)), 0)
        return
    cleared = _cleared(partner, d)
    col_ptr, faces, data = _live_boundary(cx.dims[d + 1], p)
    ptr, cofaces, coeffs = _transpose(col_ptr, faces, data, len(cleared))

    def row(j: int) -> tuple[np.ndarray, np.ndarray]:
        return cofaces[ptr[j]:ptr[j + 1]], coeffs[ptr[j]:ptr[j + 1]]

    # Apparent pairs: c is j's earliest coface (the first index of its row)
    # and j is c's latest face (the last index of its column).
    rows = np.flatnonzero((ptr[1:] > ptr[:-1]) & ~cleared)
    earliest = cofaces[ptr[rows]]
    is_apparent = faces[col_ptr[earliest + 1] - 1] == rows
    apparent = rows[is_apparent]
    partner[d][apparent] = earliest[is_apparent]
    del rows, earliest, is_apparent
    owner = np.full(len(partner[d + 1]), -1, dtype=np.int32)
    owner[partner[d][apparent]] = apparent

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
                owner[piv], partner[d][j] = j, piv
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
    if stats is not None:
        stats[d] = _dimension_stats(cx, d, partner, cleared, len(apparent), len(looped),
                                    additions)


def _dimension_stats(cx: FilteredComplex, d: int, partner: list[np.ndarray],
                     cleared: np.ndarray, apparent: int, looped: int,
                     additions: int) -> dict[str, int]:
    """The stats `reduce` reports for dimension d, once its partners are set."""
    born = np.flatnonzero(partner[d] >= 0)
    deaths = cx.dims[d + 1].filtration[partner[d][born]]
    return {
        "columns": len(cleared),
        "cleared": int(np.count_nonzero(cleared)),
        "apparent": apparent,
        "looped": looped,
        "additions": additions,
        "pairs": len(born),
        "zero_length": int(np.count_nonzero(cx.dims[d].filtration[born] == deaths)),
        "essential": looped - (len(born) - apparent),
    }


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

    A dimension whose cofaces are empty, as the top dimensions of a collapsed
    Rips complex often are, is neither transposed nor searched for apparent
    pairs: each of its columns that is not cleared is essential as it
    stands, and its stats read as the column loop would leave them (looped =
    essential = columns - cleared, every other count 0).  A degree without
    cells gets an empty barcode.
    """
    partner = _reduction_pairs(cx, _check_field(p), stats)

    codes = {}
    for n in range(cx.reliable_dim + 1):
        filt = cx.dims[n].filtration
        if not len(filt):
            codes[n] = Barcode()
            continue
        # Finite bars in the order of their death cells, then essential bars:
        # Barcode's stable sort keeps that order among equal bars, so 0.0 and
        # -0.0 births print in a fixed order.
        born = np.flatnonzero(partner[n] >= 0)
        born = born[np.argsort(partner[n][born])]
        births = filt[born]
        deaths = cx.dims[n + 1].filtration[partner[n][born]] if n < cx.top_dim else births
        finite = births != deaths
        bars = [Bar(b, d) for b, d in zip(births[finite].tolist(), deaths[finite].tolist())]
        essential = filt[(partner[n] < 0) & ~_cleared(partner, n)]
        bars.extend(Bar(f, INF) for f in essential.tolist())
        codes[n] = Barcode(bars)
    return GradedBarcode(codes)

