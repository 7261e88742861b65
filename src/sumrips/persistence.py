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

Between dimensions the reduction keeps one partner array per dimension: each
cell's pivot in the dimension above, or -1.  Clearing reads the partners: the
cells cleared in dimension d are those recorded in dimension d-1, and the
essential cells are those with no partner either way.  Most columns need no
addition at all, so a pivot's owner is kept as the index of its cell and its
coboundary rebuilt from the boundary matrix only when it is added; only
columns that were modified are stored, as {coface: coefficient} dicts.
Owners are not rescaled: adding one multiplies it by col[pivot] / owner[pivot]
mod p.  Memory beyond the complex therefore grows with the pivots, not with
the boundary entries.

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
from .complexes import FilteredComplex
from .errors import InputError

DEFAULT_FIELD = 2
MAX_FIELD = 2**31


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


def _reduction_pairs(cx: FilteredComplex, p: int) -> list[np.ndarray]:
    """Run the reduction; return per dimension each cell's partner in the
    dimension above, or -1 for none.

    An owner is the index of the cell whose coboundary it is, unmodified, or
    the reduced column itself.
    """
    partner = [np.full(len(dim.filtration), -1, dtype=np.int32) for dim in cx.dims]
    for d in range(cx.top_dim):
        by_row = cx.dims[d + 1].boundary.tocsr()
        ptr, cofaces, coeffs = by_row.indptr.tolist(), by_row.indices, by_row.data

        def coboundary(j: int) -> dict[int, int]:
            lo, hi = ptr[j], ptr[j + 1]
            return {c: v % p for c, v in zip(cofaces[lo:hi].tolist(), coeffs[lo:hi].tolist())
                    if v % p}

        owner: dict[int, int | dict[int, int]] = {}
        for j in np.flatnonzero(~_cleared(partner, d))[::-1].tolist():
            col, modified = coboundary(j), False
            while col:
                piv = min(col)
                other = owner.get(piv)
                if other is None:
                    owner[piv] = col if modified else j
                    partner[d][j] = piv
                    break
                if isinstance(other, int):
                    other = coboundary(other)
                factor, modified = col[piv] * pow(other[piv], p - 2, p) % p, True
                for r, v in other.items():
                    nv = (col.get(r, 0) - factor * v) % p
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
    return partner


def reduce(cx: FilteredComplex, p: int = DEFAULT_FIELD) -> GradedBarcode:
    """Barcodes of a filtered complex over F_p, dimensions 0..cx.reliable_dim.

    Every reliable dimension appears in the result, empty or not, so serialized
    documents record which dimensions were actually computed.
    """
    partner = _reduction_pairs(cx, _check_field(p))

    codes = {}
    for n in range(cx.reliable_dim + 1):
        filt = cx.dims[n].filtration
        # Finite bars in the order of their death cells, then essential bars:
        # Barcode's stable sort keeps that order among equal bars, so 0.0 and
        # -0.0 births print in a fixed order.
        born = np.flatnonzero(partner[n] >= 0)
        born = born[np.argsort(partner[n][born])]
        births = filt[born]
        deaths = cx.dims[n + 1].filtration[partner[n][born]] if n < cx.top_dim else births
        bars = [Bar(b, d) for b, d in zip(births.tolist(), deaths.tolist()) if b != d]
        essential = filt[(partner[n] < 0) & ~_cleared(partner, n)]
        bars.extend(Bar(f, INF) for f in essential.tolist())
        codes[n] = Barcode(bars)
    return GradedBarcode(codes)


def betti_curve(cx: FilteredComplex, p: int, n: int) -> tuple[tuple[float, int], ...]:
    """Step function t -> dim over F_p of degree-n homology, as (start, value) pairs.

    Each pair gives the value on [start, next start); the first start is 0.0.
    Dimensions above the complex's reliable range are refused unless the
    complex is complete there, in which case the curve is identically zero.
    """
    if n < 0:
        raise InputError(f"homological dimension must be >= 0, got {n}")
    if n > cx.reliable_dim:
        if cx.complete:
            _check_field(p)
            return ((0.0, 0),)
        raise InputError(
            f"dimension {n} is not reliable for a complex truncated at {cx.top_dim}; "
            f"rebuild with maxdim >= {n + 1}"
        )
    code = reduce(cx, p)[n]
    curve: list[tuple[float, int]] = []
    for t in sorted({0.0, *code.endpoints()}):
        v = code.dim_at(t)
        if not curve or curve[-1][1] != v:
            curve.append((t, v))
    return tuple(curve)
