"""Canonical algebra of finite unions of half-open intervals.

Query sets, compact hitting sets and their Lebesgue measures are all
represented here as normalized unions of ``[lo, hi)`` pairs.  The half-open
convention means sample positions ``i/n`` and atom boundaries are counted
exactly once; the laws evaluated downstream depend on the sets only through
Lebesgue measure, so boundary conventions are null events throughout.  Sets
are built from Python numbers; the CLI reads them from JSON.
A family reaches them through :func:`atomize`: its ``(lo, hi)`` atoms, each
with the bitmask of the sets that hold it.  Pattern laws are the
:func:`moebius` inversion of functionals of the unions (:func:`union_measures`).
Only the functions that return arrays import numpy, when they are called, so
the set algebra and the closed-form oracle run without it.  The two budget
errors of the package live here, beside the pattern budget.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "CapacityError",
    "ResourceError",
    "IntervalSet",
    "normalize",
    "atomize",
    "union_measures",
    "moebius",
]

UNIT = (0.0, 1.0)

# d sets, or d cells of a coupled pair, expand to at most 2^d hit patterns in
# the closed-form evaluators and the limit samplers, so both are capped.
PATTERN_BUDGET = 20
_SCALE = 1 << 1074  # every double is an integer multiple of 2**-1074


class CapacityError(ValueError):
    """Raised when a set family exceeds the pattern-enumeration budget."""


class ResourceError(RuntimeError):
    """Requested simulation exceeds the allocation budget."""


def _check_carrier(a: "IntervalSet", b: "IntervalSet"):
    if a.carrier != b.carrier:
        raise ValueError(f"carrier mismatch: {a.carrier} vs {b.carrier}")


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, disjoint, non-adjacent half-open intervals within a carrier."""

    intervals: tuple
    carrier: tuple = UNIT

    def __post_init__(self):
        lo_c, hi_c = self.carrier
        if not lo_c < hi_c:
            raise ValueError(f"carrier {self.carrier} must have lo < hi")
        prev_hi = None
        for lo, hi in self.intervals:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("NaN interval endpoint")
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi}) in normalized set")
            if lo < lo_c or hi > hi_c:
                raise ValueError(f"interval [{lo}, {hi}) outside carrier {self.carrier}")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("intervals must be sorted, disjoint and non-adjacent")
            prev_hi = hi

    def lebesgue(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        _check_carrier(self, other)
        return normalize(list(self.intervals) + list(other.intervals), self.carrier)

    def contains_points(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership for half-open intervals."""
        import numpy as np

        if not self.intervals:
            return np.zeros(np.shape(xs), dtype=bool)
        flat = np.array([v for pair in self.intervals for v in pair])
        return np.searchsorted(flat, xs, side="right") % 2 == 1

    def grid_ranges(self, n: int) -> list:
        """Nonempty index ranges [j_lo, j_hi) of the points j/n, j < n, in the set:
        exactly the points :meth:`contains_points` accepts on ``np.arange(n) / n``."""
        ranges = [(_grid_index(lo, n), _grid_index(hi, n)) for lo, hi in self.intervals]
        return [(lo, hi) for lo, hi in ranges if lo < hi]


def _grid_index(x: float, n: int) -> int:
    """Smallest j in [0, n] with j/n >= x in float division, n when there is none."""
    if not x > 0.0:
        return 0
    j = n if x >= 1.0 else min(n, math.ceil(x * n))
    # j/n is monotone in j, and x * n is within an ulp of the crossing
    while j > 0 and (j - 1) / n >= x:
        j -= 1
    while j < n and j / n < x:
        j += 1
    return j


def normalize(raw, carrier=UNIT) -> IntervalSet:
    """Canonical form: drop empty pairs, sort, merge overlaps and adjacency.

    Idempotent; input pairs with lo >= hi are dropped, NaN endpoints raise.
    """
    pairs = []
    for lo, hi in raw:
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN interval endpoint")
        if lo < hi:
            pairs.append((lo, hi))
    pairs.sort()
    merged = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalSet(tuple((lo, hi) for lo, hi in merged), tuple(carrier))


def atomize(family) -> tuple:
    """Split a family of interval sets into disjoint elementary intervals.

    Returns ``(atoms, owners)``: ``atoms`` lists the ``(lo, hi)`` pieces of
    the coarsest partition of the union refining every input, left to
    right, and ``owners[j]`` has bit i set when atom j lies in input i.
    Every boundary point of a normalized input switches at least one
    membership, so the pieces between consecutive boundaries (restricted to
    the union) are exactly that partition.
    """
    family = list(family)
    if not family:
        raise ValueError("atomize requires a nonempty family")
    if len(family) > PATTERN_BUDGET:
        raise CapacityError(
            f"family of {len(family)} sets exceeds the {PATTERN_BUDGET}-set pattern budget"
        )
    for s in family[1:]:
        _check_carrier(s, family[0])

    bounds = sorted({v for s in family for pair in s.intervals for v in pair})
    pieces = list(zip(bounds, bounds[1:]))
    flats = [[v for pair in s.intervals for v in pair] for s in family]
    mids = [0.5 * (lo + hi) for lo, hi in pieces]
    # a midpoint lies in a set when an odd number of the set's ends are at or below it
    owners = [sum((bisect_right(flat, mid) & 1) << i for i, flat in enumerate(flats)) for mid in mids]
    return [piece for piece, owner in zip(pieces, owners) if owner], [owner for owner in owners if owner]


def union_measures(pieces, owners, sets: int) -> np.ndarray:
    """Lebesgue measure of the union of the sets in U, for every bitmask U over ``sets`` sets.

    ``pieces`` are disjoint ``(lo, hi)`` pairs and ``owners[j]`` the bitmask
    of the sets holding piece j, as :func:`atomize` gives them; each union
    adds its pieces left to right.
    """
    import numpy as np

    unions = np.arange(1 << sets)
    leb = np.zeros(unions.size)
    for (lo, hi), owner in zip(pieces, owners):
        leb += ((unions & owner) != 0) * (hi - lo)
    return leb


def moebius(f: np.ndarray) -> np.ndarray:
    """p_S = sum over T within S of (-1)**(|T|+1) f[S^c | T], for every S, f indexed by bitmask.

    With f a functional of unions, p_S is its share on exactly the sets S.
    The alternating sums run in integer arithmetic on the rounded f, so no
    entry is lost to cancellation between nearly equal values (a set of
    measure 1e-300 beside one of 1/2 keeps its rate).  Each entry is rounded
    once, and rounding residue below 0 is cut to 0.  Entry 0 is meaningless.
    """
    import numpy as np

    exact = [num * (_SCALE // den) for num, den in map(float.as_integer_ratio, f[::-1].tolist())]
    h = np.array(exact, dtype=object)  # h[V] = f[V^c], in units of 2**-1074
    for j in range(f.size.bit_length() - 1):
        v = h.reshape(-1, 2, 1 << j)
        v[:, 1, :] -= v[:, 0, :]
    return np.array([max(0.0, -x / _SCALE) for x in h.tolist()])
