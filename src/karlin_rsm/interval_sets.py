"""Canonical algebra of finite unions of half-open intervals.

Query sets, compact hitting sets and their Lebesgue measures are all
represented here as normalized unions of ``[lo, hi)`` pairs.  The half-open
convention means sample positions ``i/n`` and atom boundaries are counted
exactly once; the laws evaluated downstream depend on the sets only through
Lebesgue measure, so boundary conventions are null events throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CapacityError",
    "IntervalSet",
    "AtomDecomposition",
    "normalize",
    "atomize",
]

UNIT = (0.0, 1.0)

# d query sets expand to at most 2^d hit patterns in the closed-form
# evaluators and the limit samplers, so the family size is capped.
ATOMIZE_BUDGET = 20


class CapacityError(ValueError):
    """Raised when a set family exceeds the pattern-enumeration budget."""


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

    def complement(self) -> "IntervalSet":
        """Carrier minus this set; requires a finite carrier."""
        lo_c, hi_c = self.carrier
        if not (math.isfinite(lo_c) and math.isfinite(hi_c)):
            raise ValueError("complement requires a finite carrier")
        out = []
        cursor = lo_c
        for lo, hi in self.intervals:
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor < hi_c:
            out.append((cursor, hi_c))
        return IntervalSet(tuple(out), self.carrier)

    def contains(self, x: float) -> bool:
        from bisect import bisect_right

        flat = [v for pair in self.intervals for v in pair]
        return bisect_right(flat, x) % 2 == 1

    def contains_points(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership for half-open intervals."""
        if not self.intervals:
            return np.zeros(np.shape(xs), dtype=bool)
        flat = np.array([v for pair in self.intervals for v in pair])
        return np.searchsorted(flat, xs, side="right") % 2 == 1

    def grid_ranges(self, n: int) -> list:
        """Nonempty index ranges [j_lo, j_hi) of the points j/n, j < n, in the set:
        exactly the points :meth:`contains_points` accepts on ``np.arange(n) / n``."""
        ranges = [(_grid_index(lo, n), _grid_index(hi, n)) for lo, hi in self.intervals]
        return [(lo, hi) for lo, hi in ranges if lo < hi]

    @classmethod
    def from_json(cls, obj) -> "IntervalSet":
        if not isinstance(obj, dict):
            raise ValueError(f"malformed interval-set JSON: expected an object, got {type(obj).__name__}")
        try:
            carrier = tuple(float(v) for v in obj.get("carrier", UNIT))
            raw = [(float(lo), float(hi)) for lo, hi in obj["intervals"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed interval-set JSON: {exc}") from exc
        return normalize(raw, carrier)


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


@dataclass(frozen=True)
class AtomDecomposition:
    """Coarsest interval partition of a family's union refining every input."""

    atoms: tuple  # of IntervalSet, each a single interval, sorted
    membership: tuple  # membership[i] = atom indices composing input i

    @property
    def measures(self) -> np.ndarray:
        return np.array([a.lebesgue() for a in self.atoms])

    def member_masks(self) -> list:
        """Per-input bitmask over atoms (bit j set when atom j is inside)."""
        out = []
        for idxs in self.membership:
            mask = 0
            for j in idxs:
                mask |= 1 << j
            out.append(mask)
        return out


def atomize(family) -> AtomDecomposition:
    """Split a family of interval sets into disjoint elementary intervals.

    Every boundary point of a normalized input switches at least one
    membership, so the pieces between consecutive boundaries (restricted to
    the union) are exactly the coarsest refining partition.
    """
    family = list(family)
    if not family:
        raise ValueError("atomize requires a nonempty family")
    if len(family) > ATOMIZE_BUDGET:
        raise CapacityError(
            f"family of {len(family)} sets exceeds the {ATOMIZE_BUDGET}-set pattern budget"
        )
    carrier = family[0].carrier
    for s in family[1:]:
        if s.carrier != carrier:
            raise ValueError(f"carrier mismatch: {s.carrier} vs {carrier}")

    bounds = sorted({v for s in family for pair in s.intervals for v in pair})
    atoms = []
    membership = [[] for _ in family]
    for lo, hi in zip(bounds, bounds[1:]):
        mid = 0.5 * (lo + hi)
        owners = [i for i, s in enumerate(family) if s.contains(mid)]
        if not owners:
            continue
        idx = len(atoms)
        atoms.append(IntervalSet(((lo, hi),), carrier))
        for i in owners:
            membership[i].append(idx)
    return AtomDecomposition(tuple(atoms), tuple(tuple(ix) for ix in membership))
