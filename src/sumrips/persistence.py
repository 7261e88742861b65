"""Persistent homology via boundary-matrix column reduction.

Columns are processed dimension by dimension, top down, so the clearing trick
applies: the pivot rows found while reducing dimension d are exactly the cells
of dimension d - 1 whose own columns would reduce to zero, and those columns
are skipped outright.  Boundary rows are positions within the dimension below,
which keeps the F_2 fast path (columns as Python ints, addition = XOR, pivot =
top bit) compact even in large complexes.

Boundary coefficients are stored as integers by the builders and only reduced
mod p here, so the same complex can be reduced over several primes.  A pair
with equal entry times contributes no bar; an unpaired cell contributes an
essential bar (birth, inf).  Output dimensions honor the complex's reliability
rule: a truncated complex cannot certify its cut dimension.
"""

from __future__ import annotations

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


def _check_field(p: int) -> None:
    if not isinstance(p, int) or not 2 <= p < MAX_FIELD or not _is_prime(p):
        raise InputError(f"field characteristic must be a prime below 2^31, got {p!r}")


def _reduce_f2(owner: dict[int, int], rows: list[int]) -> int | None:
    """Reduce one column, as a bitset, against the owners; return its pivot or None."""
    col = 0
    for i in rows:
        col |= 1 << i
    while col:
        piv = col.bit_length() - 1
        other = owner.get(piv)
        if other is None:
            owner[piv] = col
            return piv
        col ^= other
    return None


def _reduce_fp(owner: dict[int, dict[int, int]], rows: list[int], values: list[int],
               p: int) -> int | None:
    """Reduce one column over F_p; owners are stored with pivot coefficient 1."""
    col = dict(zip(rows, values))
    while col:
        piv = max(col)
        other = owner.get(piv)
        if other is None:
            inv = pow(col[piv], p - 2, p)
            owner[piv] = {r: (v * inv) % p for r, v in col.items()}
            return piv
        factor = col[piv]
        for r, v in other.items():
            nv = (col.get(r, 0) - factor * v) % p
            if nv:
                col[r] = nv
            else:
                col.pop(r, None)
    return None


def _reduction_pairs(cx: FilteredComplex,
                     p: int) -> tuple[list[tuple[int, int, int]], list[bytearray]]:
    """Run the reduction; return negative pairs as (d, row in d - 1, column in d)
    and per-dimension paired flags.

    A row is flagged when it becomes a pivot, before its own dimension is
    reduced, so the flags of a dimension are also its cleared columns.
    """
    paired = [bytearray(len(dim.filtration)) for dim in cx.dims]
    pairs: list[tuple[int, int, int]] = []
    for d in range(cx.top_dim, 0, -1):
        column = cx.dims[d].boundary.astype(np.int64)
        column.data %= p
        column.eliminate_zeros()
        indptr, rows, values = (a.tolist() for a in (column.indptr, column.indices, column.data))
        done, below, owner = paired[d], paired[d - 1], {}
        for j in range(len(done)):
            if done[j]:
                continue
            lo, hi = indptr[j], indptr[j + 1]
            if p == 2:
                piv = _reduce_f2(owner, rows[lo:hi])
            else:
                piv = _reduce_fp(owner, rows[lo:hi], values[lo:hi], p)
            if piv is not None:
                below[piv] = done[j] = 1
                pairs.append((d, piv, j))
    return pairs, paired


def reduce(cx: FilteredComplex, p: int = DEFAULT_FIELD) -> GradedBarcode:
    """Barcodes of a filtered complex over F_p, dimensions 0..cx.reliable_dim.

    Every reliable dimension appears in the result, empty or not, so serialized
    documents record which dimensions were actually computed.
    """
    _check_field(p)
    pairs, paired = _reduction_pairs(cx, p)

    reliable = cx.reliable_dim
    bars_by_dim: dict[int, list[Bar]] = {n: [] for n in range(reliable + 1)}
    filts = [dim.filtration.tolist() for dim in cx.dims]
    for d, i, j in pairs:
        birth, death = filts[d - 1][i], filts[d][j]
        if birth != death:
            bars_by_dim[d - 1].append(Bar(birth, death))
    for n, bars in bars_by_dim.items():
        bars.extend(Bar(f, INF) for f, flag in zip(filts[n], paired[n]) if not flag)
    return GradedBarcode({n: Barcode(bars) for n, bars in bars_by_dim.items()})


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
