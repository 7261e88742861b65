"""The top dimension of a barcode-only Rips complex, enumerated as cofaces.

A barcode-only Rips complex whose top dimension can hold more than CHUNK
cells does not store it (`complexes.Cofaces`).  Its last stored dimension is
paired against cofaces enumerated from one matrix, the ranks of the
distances with a sentinel where the graph has no edge (`reduce_top`), in
the order and with the signs the stored dimension would have, so the pairs,
bars and stats are those of the stored reduction
(`persistence._reduce_dimension`), whose apparent-pair rule it applies too.
Memory beyond the complex is the colex face table of the last stored
dimension (`complexes._row_of_rank`), C(m, top) entries of one, two or
four bytes, one dense pass of CHUNK ranks at a time, a key and a cell per
apparent pair, eight bytes per cell saying where its coboundary is kept,
and the coboundaries of the looped cells and of the owners they read, at
nine bytes per entry (an int64 key and an int8 sign).  On the 5-cube as a
product at maxdim 4, 24,690 of its 29,540 cells of dimension 3 are
apparent and 790 looped, with 1,431 column additions; building and
reducing it peaks at 3.4 MB under tracemalloc, 72 KB of it the table,
against 8.9 MB with the top dimension stored.  A complete complex's top
dimension holds at most the cell of all its points, whose complex is then
a simplex: that cell is paired, and the top degree has no bar.
"""

from __future__ import annotations

import numpy as np

from .complexes import (CHUNK, Cofaces, FilteredComplex, _binomials, _rips_boundary,
                        _row_of_rank)
from .persistence import _column_loop


def _coface_ranks(cof: Cofaces, verts: np.ndarray, franks: np.ndarray) -> np.ndarray:
    """Per row of `verts`, k points entering at the rank `franks`, and per
    point w: the rank at which the k + 1 points row + {w} enter, or
    len(cof.values) where they are no cell, w in the row or not near all of
    its points."""
    ranks = cof.ranks[verts.T].max(axis=0)
    np.maximum(ranks, np.diagonal(cof.ranks), out=ranks)
    np.maximum(ranks, franks[:, None], out=ranks)
    ranks[np.arange(len(verts))[:, None], verts] = len(cof.values)
    return ranks


def _with(verts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The rows `verts` with the point w added, ascending."""
    points = np.empty((len(verts), verts.shape[1] + 1), dtype=verts.dtype)
    points[:, :-1], points[:, -1] = verts, w
    points.sort(axis=1)
    return points


def _keys(binom: np.ndarray, points: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The key of each coface, the j ascending points c_0 < ... < c_{j-1} of
    a row of `points` among m, entering at `ranks`.

    The key is rank * C(m, j) plus the lexicographic rank, in int64: the
    place of the coface in the (filtration, lexicographic) order of the top
    dimension.  The lexicographic rank is C(m, j) - 1 - sum_i C(m - 1 - c_i,
    j - i), since the points m - 1 - c_i list the subsets in reverse colex
    order.
    """
    m, j = len(binom) - 1, points.shape[1]
    n = int(binom[m, j])
    keys = ranks.astype(np.int64)
    keys *= n
    keys += n - 1
    for i in range(j):
        keys -= binom[m - 1 - points[:, i], j - i]
    return keys


def _first_read(cells: np.ndarray, pivots: np.ndarray, keys: np.ndarray,
                owners: np.ndarray) -> np.ndarray:
    """The apparent owners that the looped cells read first, given their
    cofaces as the keys `pivots` of the cells `cells`.

    A column's pivots ascend through its cofaces, and the first pivot
    without an owner ends it.  So the owners of each looped cell's cofaces,
    in ascending keys up to its first coface that no apparent pair owns, are
    read unless additions cancel that coface first.  `keys` are the keys of
    the apparent pairs' cofaces, ascending, and `owners` their cells.
    """
    by = np.lexsort((pivots, cells))
    cells, pivots = cells[by], pivots[by]
    at = keys.searchsorted(pivots).clip(max=len(keys) - 1)
    ownerless = keys[at] != pivots
    # The ownerless cofaces of a cell up to each of its cofaces, counted from
    # its first: zero while every one so far has an apparent owner.
    seen = np.cumsum(ownerless)
    seen -= (seen - ownerless)[np.searchsorted(cells, cells)]
    return np.flatnonzero(np.bincount(owners[at[seen == 0]]))


def reduce_top(cx: FilteredComplex, p: int,
                cleared: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Pair the cells of the last stored dimension, top_dim - 1, that
    `cleared` leaves with their pivots among the top dimension's cells,
    enumerated from `cx.cofaces`: return the cells paired and the values at
    which their partners enter, both in the order of the partners, and the
    counts (apparent, looped, additions) that `reduce` reports.

    The pairing is `_reduce_dimension`'s on the stored top dimension.  A
    coface j + {w} of cell j is keyed by its rank and its sorted point row
    (`_keys`), an order in which the cofaces of one cell run by (rank, w).
    So one dense pass per chunk of cells over every point w
    (`_coface_ranks`) finds each cell's earliest coface c.  The cell is
    apparent when it is c's latest face, the largest of c's face rows, read
    (`complexes._rips_boundary`) from the face table built once here.  Only
    the looped cells and the owners their additions read get a whole
    coboundary: the looped ones in the same pass, the owners they read first
    (`_first_read`) in one batch after it, and any other owner when it is
    read.
    """
    live = np.flatnonzero(~cleared)
    if not len(live):  # all cleared, as in most small complexes
        return live, np.empty(0), (0, 0, 0)
    dim, cof = cx.dims[-1], cx.cofaces
    verts = dim.vertices
    m, k = len(cof.ranks), verts.shape[1]
    binom = _binomials(m, k + 1)
    row_of_rank = _row_of_rank(binom, verts)
    franks = cof.values.searchsorted(dim.filtration).astype(cof.ranks.dtype)
    none = len(cof.values)
    step = max(1, CHUNK // m)
    # The coboundaries kept, in batches of (row offsets, keys, signs): cell j
    # has row place_of[j] of batch batch_of[j], or none if that is -1.
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    batch_of = np.full(len(cleared), -1, dtype=np.int32)
    place_of = np.zeros(len(cleared), dtype=np.int32)

    def keep(cells: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep the coboundary of each of `cells`: the cofaces that `ranks`,
        rows of `_coface_ranks`, list, with their keys and signs (-1)^pos,
        pos the place of the added point.  Return each coface's place in
        `cells`, and its key."""
        at, w = np.nonzero(ranks != none)
        rows = verts[cells[at]]
        pos = (rows < w[:, None]).sum(axis=1, dtype=np.int8)
        keys = _keys(binom, _with(rows, w), ranks[at, w])
        ptr = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=len(cells)), out=ptr[1:])
        batch_of[cells], place_of[cells] = len(batches), np.arange(len(cells))
        batches.append((ptr, keys, 1 - 2 * (pos % 2)))
        return at, keys

    def fetch(cells: np.ndarray) -> None:
        for lo in range(0, len(cells), step):
            part = cells[lo:lo + step]
            keep(part, _coface_ranks(cof, verts[part], franks[part]))

    apparent, keys, looped = [live[:0]], [np.empty(0, np.int64)], [live[:0]]
    pivot_cells, pivot_keys = [live[:0]], [keys[0]]

    def scan(cells: np.ndarray) -> None:
        """Find the apparent pairs among `cells` and keep the coboundaries of
        the others: an apparent cell's earliest coface is all its key needs."""
        ranks = _coface_ranks(cof, verts[cells], franks[cells])
        # Within a row the cofaces run by (rank, w), and argmin takes the
        # first w of the smallest rank.
        w = ranks.argmin(axis=1)
        first = ranks[np.arange(len(cells)), w]
        # A cell with a coface is apparent when it is the largest face row of
        # its earliest coface, the row with w added.
        app = np.flatnonzero(first != none)
        points = _with(verts[cells[app]], w[app])
        latest = _rips_boundary(binom, points, row_of_rank).max(axis=1) == cells[app]
        app = app[latest]
        apparent.append(cells[app])
        keys.append(_keys(binom, points[latest], first[app]))
        rest = np.delete(cells, app)
        at, row_keys = keep(rest, np.delete(ranks, app, axis=0))
        looped.append(rest)
        pivot_cells.append(rest[at])
        pivot_keys.append(row_keys)

    for lo in range(0, len(live), step):
        scan(live[lo:lo + step])
    keys = np.concatenate(keys)
    by = np.argsort(keys)
    keys, apparent = keys[by], np.concatenate(apparent)[by]
    del by
    # The owners read first get their coboundaries in one batch; on the
    # cube splits they are every owner an addition reads.  Fetched one at a
    # time instead, they took the 5-cube split's reduction from 70 to 165 ms.
    if len(keys):
        fetch(_first_read(np.concatenate(pivot_cells), np.concatenate(pivot_keys), keys,
                          apparent))
    del pivot_cells, pivot_keys

    def owner_of(key: int) -> int:
        at = int(keys.searchsorted(key))
        return int(apparent[at]) if at < len(keys) and keys[at] == key else -1

    def row(j: int) -> tuple[list[int], list[int]]:
        if batch_of[j] < 0:
            fetch(np.array([j]))
        ptr, row_keys, coeffs = batches[batch_of[j]]
        lo, hi = ptr[place_of[j]], ptr[place_of[j] + 1]
        return row_keys[lo:hi].tolist(), coeffs[lo:hi].tolist()

    looped = np.concatenate(looped)[::-1].tolist()  # latest first
    owned, additions = _column_loop(looped, row, owner_of, p)
    del batches
    death = np.concatenate([keys, np.fromiter(owned, np.int64, len(owned))])
    by = np.argsort(death)
    cells = np.concatenate([apparent, np.fromiter(owned.values(), np.intp, len(owned))])
    return cells[by], cof.values[death[by] // int(binom[m, k + 1])], \
        (len(apparent), len(looped), additions)
