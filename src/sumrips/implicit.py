"""The top dimension of a barcode-only Rips complex, enumerated as cofaces.

A barcode-only Rips complex whose top dimension can hold more than CHUNK
cells does not store it (`complexes.Cofaces`).  Its last stored dimension is
paired against cofaces enumerated from the graph and the ranks of the
distances (`reduce_top`), in the order and with the signs the stored
dimension would have, so the pairs, bars and stats are those of the stored
reduction (`persistence._reduce_dimension`).  Memory beyond the complex is
one dense pass of CHUNK ranks at a time, a key and a cell per apparent pair,
eight bytes per cell saying where its coboundary is kept, and the
coboundaries of the looped cells and of the owners they read, at nine bytes
per entry (an int64 key and an int8 sign).  On the 5-cube as a product at
maxdim 4, 24,690 of its 29,540 cells of dimension 3 are apparent and 790
looped, which read 1,431 owners; building and reducing it peaks at 3.7 MB
under tracemalloc, against 10.9 MB with the top dimension stored.  A
complete complex's top dimension holds at most the cell of all its points,
whose complex is then a simplex: that cell is paired, and the top degree
has no bar.
"""

from __future__ import annotations

import numpy as np

from .complexes import CHUNK, Cofaces, FilteredComplex, _binomials, _index_dtype
from .persistence import _column_loop


def _coface_ranks(cof: Cofaces, verts: np.ndarray, franks: np.ndarray) -> np.ndarray:
    """Per row of `verts`, k points entering at the rank `franks`, and per
    point w: the rank at which the k + 1 points row + {w} enter, or
    len(cof.values) where they are no cell, w in the row or not near all of
    its points."""
    near = cof.near[verts.T].all(axis=0)
    ranks = cof.ranks[verts.T].max(axis=0)
    np.maximum(ranks, np.diagonal(cof.ranks), out=ranks)
    np.maximum(ranks, franks[:, None], out=ranks)
    near[np.arange(len(verts))[:, None], verts] = False
    ranks[~near] = len(cof.values)
    return ranks


def _is_apparent(cof: Cofaces, verts: np.ndarray, franks: np.ndarray, w: np.ndarray,
                 ranks: np.ndarray) -> np.ndarray:
    """Whether each row of `verts`, k >= 2 points entering at the rank
    `franks`, is the latest face of the coface c = row + {w} entering at
    `ranks`.

    The faces of c are the row and, for each of its points v, c - v, which
    comes after the row in lexicographic order exactly when v < w.  Faces
    are ordered by (rank, lexicographic), and none enters after c.  So the
    row is the latest face when it enters with c and no face c - v with
    v < w does: every pair of points of c entering with c, the diagonal
    included, holds v.  When c enters after the row, one of its pairs
    (u, w) does, and every face c - v with v != u holds it.
    """
    n, k = verts.shape
    m = len(cof.near)
    points = np.empty((n, k + 1), dtype=_index_dtype(m * m))
    points[:, :k], points[:, k] = verts, w
    pairs = cof.ranks.ravel()[points[:, :, None] * m + points[:, None, :]]
    pairs = (pairs == ranks[:, None, None]).view(np.int8)
    # late[:, v]: some ordered pair entering with c misses the point v, so
    # c - v enters with c.  The pairs through v are its row and its column,
    # which are equal, less the diagonal entry counted in both.
    through = pairs.sum(axis=2, dtype=np.int16)
    late = through.sum(axis=1)[:, None] > 2 * through - np.diagonal(pairs, 0, 1, 2)
    return (ranks == franks) & ~(late[:, :k] & (verts < w[:, None])).any(axis=1)


def _coface_keys(binom: np.ndarray, verts: np.ndarray, at: np.ndarray, w: np.ndarray,
                 ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key of each coface verts[at] + {w} of the k-subset rows `verts`
    of m points, entering at `ranks`, and pos, the place of w in it.

    The key is rank * C(m, k + 1) plus the lexicographic rank, in int64: the
    place of the coface in the (filtration, lexicographic) order of the top
    dimension.  The (k + 1)-subset c_0 < ... < c_k has the lexicographic
    rank C(m, k + 1) - 1 - sum_i C(m - 1 - c_i, k + 1 - i), since the points
    m - 1 - c_i list the subsets in reverse colex order.  Here c is the row
    with w at pos: the row's points before w add C(m - 1 - c_i, k + 1 - i)
    and those after it, one place down, C(m - 1 - c_i, k - i), which one
    prefix sum per row gives for every pos at once.
    """
    m, k = len(binom) - 1, verts.shape[1]
    n, width = int(binom[m, k + 1]), binom.shape[1]
    # pos counts the row's points below w: a running sum over the points.
    pos = np.zeros((len(verts), m), dtype=np.int8)
    pos[np.arange(len(verts))[:, None], verts] = 1
    flat = at * m
    flat += w
    pos = pos.cumsum(axis=1, dtype=np.int8).ravel()[flat]
    col, rev = np.arange(k), m - 1 - verts
    before, after = binom[rev, k + 1 - col], binom[rev, k - col]
    prefix = np.zeros((len(verts), k + 1), dtype=np.int64)
    np.cumsum(before - after, axis=1, out=prefix[:, 1:])
    prefix += after.sum(axis=1, keepdims=True)
    # In place, each step holds one more array of an int64 per coface.
    keys = ranks.astype(np.int64)
    keys *= n
    keys += n - 1
    flat = at * (k + 1)
    flat += pos
    keys -= prefix.ravel()[flat]
    flat = m - 1 - w
    flat *= width
    flat += k + 1
    flat -= pos
    keys -= binom.ravel()[flat]
    return keys, pos


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
    coface j + {w} of cell j is keyed by its rank and lexicographic rank
    (`_coface_keys`), an order in which the cofaces of one cell run by
    (rank, w).  So one dense pass per chunk of cells over every point w
    (`_coface_ranks`) finds each cell's earliest coface, and whether the
    cell is its latest face, apparent (`_is_apparent`).  Only the looped
    cells and the owners their additions read get a whole coboundary: the
    looped ones in the same pass, the owners they read first (`_first_read`)
    in one batch after it, and any other owner when it is read.
    """
    live = np.flatnonzero(~cleared)
    if not len(live):  # all cleared, as in most small complexes
        return live, np.empty(0), (0, 0, 0)
    dim, cof = cx.dims[-1], cx.cofaces
    verts = dim.vertices
    m, k = len(cof.near), verts.shape[1]
    binom = _binomials(m, k + 1)
    franks = cof.values.searchsorted(dim.filtration).astype(cof.ranks.dtype)
    none = len(cof.values)
    step = max(1, CHUNK // m)
    # The coboundaries kept, in batches of (row offsets, keys, signs): cell j
    # has row place_of[j] of batch batch_of[j], or none if that is -1.
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    batch_of = np.full(len(cleared), -1, dtype=np.int32)
    place_of = np.zeros(len(cleared), dtype=np.int32)

    def cofaces(cells: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, ...]:
        """The cofaces that `ranks`, rows of `_coface_ranks`, list for
        `cells`: their rows in `ranks`, keys and signs (-1)^pos, pos the
        place of the added point."""
        at, w = np.nonzero(ranks != none)
        keys, pos = _coface_keys(binom, verts[cells], at, w, ranks[at, w])
        return at, keys, 1 - 2 * (pos % 2)

    def keep(cells: np.ndarray, at: np.ndarray, keys: np.ndarray, coeffs: np.ndarray) -> None:
        """Keep the coboundary of each of `cells`: the entries whose row `at`
        is its place in `cells`."""
        ptr = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=len(cells)), out=ptr[1:])
        batch_of[cells], place_of[cells] = len(batches), np.arange(len(cells))
        batches.append((ptr, keys, coeffs))

    def fetch(cells: np.ndarray) -> None:
        for lo in range(0, len(cells), step):
            part = cells[lo:lo + step]
            at, part_keys, coeffs = cofaces(part, _coface_ranks(cof, verts[part], franks[part]))
            keep(part, at, part_keys, coeffs)

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
        app = (first != none) & _is_apparent(cof, verts[cells], franks[cells], w, first)
        ranks[app] = none
        ranks[app, w[app]] = first[app]
        at, row_keys, coeffs = cofaces(cells, ranks)
        mine = ~app[at]
        apparent.append(cells[app])
        keys.append(row_keys[~mine])
        looped.append(cells[~app])
        keep(cells[~app], (np.cumsum(~app) - 1)[at[mine]], row_keys[mine], coeffs[mine])
        pivot_cells.append(cells[at[mine]])
        pivot_keys.append(row_keys[mine])

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
