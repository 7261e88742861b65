"""Interval modules over a real-graded coefficient ring, and their bar arithmetic.

A bar (a, b) stands for the graded module that is one-dimensional exactly on the
half-open interval [a, b) and zero elsewhere; b = inf is allowed and marks a free
(essential) summand.  Finitely presented persistence modules over the monoid ring
k[R>=0] decompose into finite multisets of such bars, so the tensor product and
its first derived functor reduce to closed formulas on pairs of bars:

    tensor:  (a, b) (x) (c, d) = (a + c, min(a + d, b + c))
    Tor_1:   (a, b), (c, d)   -> (max(a + d, b + c), b + d)    if b, d < inf
             Tor_1 vanishes when either factor is free; higher Tor vanishes always.

Float comparisons are exact float64 everywhere: every producer in this package
shares the same arithmetic, so no epsilon tolerance is applied.  Infinite deaths
use math.inf, never NaN, and degenerate intervals are rejected at construction.
A tensor or Tor_1 bar whose endpoints rounding makes equal is empty and is
dropped, as `persistence.reduce` drops a pair of cells that enter together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

INF = math.inf


@dataclass(frozen=True, slots=True, order=True)
class Bar:
    """Half-open interval [birth, death) with 0 <= birth < death <= inf."""

    birth: float
    death: float

    def __post_init__(self) -> None:
        # A bool compares as a number but serializes as true or false, which
        # no barcode reader accepts.
        if type(self.birth) is bool or type(self.death) is bool:
            raise TypeError(f"bar endpoints must be numbers, got "
                            f"({self.birth!r}, {self.death!r})")
        # NaN fails both comparisons, so it is rejected by the same checks.
        if not 0.0 <= self.birth < INF:
            raise ValueError(f"bar birth must be finite and nonnegative, got {self.birth!r}")
        if not self.birth < self.death:
            raise ValueError(f"bar must satisfy birth < death, got ({self.birth!r}, {self.death!r})")

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    @property
    def is_essential(self) -> bool:
        return self.death == INF

    def __str__(self) -> str:
        death = "inf" if self.death == INF else f"{self.death:g}"
        return f"[{self.birth:g},{death})"


def tensor_bar(x: Bar, y: Bar) -> Bar | None:
    """Tensor product of two bars: (a+c, min(a+d, b+c)), or None when it vanishes.

    In exact arithmetic both candidate deaths exceed a+c, but float rounding
    can make the endpoints meet (0.1 + 0.3 == 0.1 + (0.1 + 0.2)); the rounded
    bar is then empty, as a pair of cells entering together gives no bar.
    With an infinite death on either side, inf arithmetic gives the right answer
    (the free factor acts like a shifted copy of the ring).
    """
    birth, death = x.birth + y.birth, min(x.birth + y.death, x.death + y.birth)
    return Bar(birth, death) if birth < death else None


def tor1_bar(x: Bar, y: Bar) -> Bar | None:
    """First torsion product of two bars, or None when it vanishes.

    Free modules are flat here, so an infinite death on either side kills the
    torsion.  Otherwise the result is (max(a+d, b+c), b+d), which a < b and
    c < d keep nonempty in exact arithmetic; when float rounding makes its
    endpoints meet, as in `tensor_bar`, it vanishes too.
    """
    if x.death == INF or y.death == INF:
        return None
    birth, death = max(x.birth + y.death, x.death + y.birth), x.death + y.death
    return Bar(birth, death) if birth < death else None


class Barcode:
    """Immutable finite multiset of bars in canonical (birth, death) order.

    Equality is multiset equality.  An empty barcode is the zero module.
    """

    __slots__ = ("_bars",)

    def __init__(self, bars: Iterable[Bar] = ()) -> None:
        entries = tuple(bars)
        for b in entries:
            if not isinstance(b, Bar):
                raise TypeError(f"barcode entries must be Bar, got {type(b).__name__}")
        self._bars = tuple(sorted(entries, key=lambda b: (b.birth, b.death)))

    @property
    def bars(self) -> tuple[Bar, ...]:
        return self._bars

    def __iter__(self) -> Iterator[Bar]:
        return iter(self._bars)

    def __len__(self) -> int:
        return len(self._bars)

    def __bool__(self) -> bool:
        return bool(self._bars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return self._bars == other._bars

    def __hash__(self) -> int:
        return hash(self._bars)

    def __repr__(self) -> str:
        return f"Barcode([{', '.join(str(b) for b in self._bars)}])"

    def dim_at(self, t: float) -> int:
        """Pointwise dimension at parameter t: number of bars with birth <= t < death."""
        return sum(1 for b in self._bars if b.birth <= t < b.death)

    def essentials(self) -> tuple[Bar, ...]:
        return tuple(b for b in self._bars if b.death == INF)

    def finite(self) -> tuple[Bar, ...]:
        return tuple(b for b in self._bars if b.death < INF)

    def endpoints(self) -> tuple[float, ...]:
        """Sorted distinct finite endpoints; the dimension function only changes here."""
        pts = {b.birth for b in self._bars} | {b.death for b in self._bars if b.death < INF}
        return tuple(sorted(pts))


_EMPTY = Barcode()


def tensor_barcodes(a: Barcode, b: Barcode) -> Barcode:
    """Barwise tensor product: every pair contributes one bar, unless float
    rounding makes it empty."""
    return Barcode(t for x in a for y in b if (t := tensor_bar(x, y)) is not None)


def tor1_barcodes(a: Barcode, b: Barcode) -> Barcode:
    """Barwise Tor_1: pairs with any free factor contribute nothing, nor do
    pairs whose rounded bar is empty."""
    return Barcode(t for x in a for y in b if (t := tor1_bar(x, y)) is not None)


class GradedBarcode:
    """Barcodes indexed by homological dimension.

    Only finitely many dimensions are stored; lookups outside them return the
    empty barcode.  A stored empty barcode is meaningful for serialization (the
    dimension was computed and found empty), but equality is semantic: a missing
    dimension and a stored empty one compare equal.
    """

    __slots__ = ("_by_dim",)

    def __init__(self, by_dim: Mapping[int, Barcode] | Iterable[tuple[int, Barcode]] = ()) -> None:
        items = by_dim.items() if isinstance(by_dim, Mapping) else by_dim
        store: dict[int, Barcode] = {}
        for n, code in items:
            # A bool key would serialize as "True", which no reader accepts.
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"homological dimension must be a nonnegative int, got {n!r}")
            if not isinstance(code, Barcode):
                raise TypeError(f"dimension {n} entry must be a Barcode, got {type(code).__name__}")
            if n in store:
                raise ValueError(f"dimension {n} given twice")
            store[n] = code
        self._by_dim = dict(sorted(store.items()))

    def __getitem__(self, n: int) -> Barcode:
        return self._by_dim.get(n, _EMPTY)

    def dims(self) -> tuple[int, ...]:
        """Dimensions explicitly stored, ascending (empty ones included)."""
        return tuple(self._by_dim)

    def items(self) -> Iterator[tuple[int, Barcode]]:
        return iter(self._by_dim.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedBarcode):
            return NotImplemented
        for n in set(self._by_dim) | set(other._by_dim):
            if self[n] != other[n]:
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset((n, code) for n, code in self._by_dim.items() if code))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {code!r}" for n, code in self._by_dim.items())
        return f"GradedBarcode({{{inner}}})"
