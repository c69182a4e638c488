"""Heavy-tailed infinite-urn simulation.

Boxes are drawn with regularly varying zeta frequencies, each box carries a
heavy-tailed mark assigned once on first occupancy, and the observed process
is the mark of the drawn box.  The module exposes the occupancy statistics,
the top order statistics with their location sets, the empirical sup-measure
and its first-occurrence variant, and occupancy-pattern counts.

Draw ``j`` (0-based) sits at position ``j/n``, so the unit carrier ``[0, 1)``
contains every draw exactly once, and a query set's positions are index
ranges of the draws (``IntervalSet.grid_ranges``).  Box labels are float64
keys (see :func:`~karlin_rsm.distributions.zeta_sample_batch`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
    ZETA_TABLE_SIZE,
    HeavyTailSpec,
    gamma_fn,
    pareto_sample_batch,
    riemann_zeta,
    zeta_sample_batch,
)
from .interval_sets import IntervalSet

__all__ = [
    "FrequencyModel",
    "SimRun",
    "TopOrderStat",
    "ResourceError",
    "b_n",
    "simulate",
    "replica_rng",
    "top_m",
    "empirical_sup",
    "variant_star_sup",
    "pattern_counts",
    "pattern_count_table",
    "occupancy_histogram",
    "top_m_csv",
    "occupancy_json",
]

MAX_N = 10 ** 7  # simulate raises ResourceError above this n


class ResourceError(RuntimeError):
    """Requested simulation exceeds the allocation budget."""


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based stream: replica r owns the Philox counter block r.

    The 256-bit Philox counter is partitioned into 2**128-sized blocks, so
    streams for distinct replicas of the same seed never overlap and the
    result is independent of how replicas are scheduled across threads.
    """
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if replica < 0:
        raise ValueError("replica must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, replica, 0]))


@dataclass(frozen=True)
class FrequencyModel:
    """Box frequencies p_ell = ell**-s / zeta(s) with s = 1/beta.

    The counting function nu((0, x]) = #{ell : 1/p_ell <= x} equals
    floor((x / zeta(s)) ** beta), i.e. x**beta * L(x) with L converging to
    zeta(s)**-beta.
    """

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")

    @property
    def s(self) -> float:
        return 1.0 / self.beta

    @cached_property
    def zeta_norm(self) -> float:
        return riemann_zeta(self.s)

    def p(self, ell: int) -> float:
        if ell < 1:
            raise ValueError("box labels start at 1")
        return ell ** -self.s / self.zeta_norm

    def nu_count(self, x: float) -> int:
        """Exact #{ell : 1/p_ell <= x}; floating candidates are re-checked."""
        if not x > 0:
            raise ValueError(f"nu_count requires x > 0, got {x}")
        cand = int((x / self.zeta_norm) ** self.beta)
        while (cand + 1) ** self.s * self.zeta_norm <= x:
            cand += 1
        while cand >= 1 and cand ** self.s * self.zeta_norm > x:
            cand -= 1
        return cand


def b_n(model: FrequencyModel, spec: HeavyTailSpec, n: int) -> float:
    """Normalization (gamma(1-beta) * nu((0, n]))**(1/alpha).

    Uses the exact counting function in place of its asymptote, which
    reduces finite-n bias.  Below n = zeta(1/beta) no box has 1/p_ell <= n,
    so nu is 0 and no normalisation exists.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    nu = model.nu_count(n)
    if nu == 0:
        raise ValueError(
            f"n={n} is below zeta(1/beta)={model.zeta_norm:.6g}, where nu((0, n]) = 0 "
            "and the normalisation b_n is 0"
        )
    return (gamma_fn(1.0 - model.beta) * nu) ** (1.0 / spec.alpha)


@dataclass(frozen=True)
class TopOrderStat:
    rank: int
    value: float
    value_normalized: float
    label: int
    locations: tuple  # sorted positions j/n with Y_j = label


@dataclass
class SimRun:
    """One realization of the urn model, immutable after construction.

    ``draws`` holds the float64 label key of every step, ``labels`` and
    ``counts`` the sorted distinct keys and their ball counts, and
    ``arrival_marks`` the box marks in order of first visit.  The other
    fields are computed on first use; occupancy statistics need none.
    """

    model: FrequencyModel
    spec: HeavyTailSpec
    n: int
    seed: int
    replica: int
    draws: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    arrival_marks: np.ndarray

    @cached_property
    def b_n(self) -> float:
        """The normalisation; raises ValueError below n = zeta(1/beta)."""
        return b_n(self.model, self.spec, self.n)

    @property
    def k_n(self) -> int:
        return len(self.labels)

    @cached_property
    def inverse(self) -> np.ndarray:
        """Index into ``labels`` of each step's box: a rank table for the
        labels 1..ZETA_TABLE_SIZE, a binary search for the rare other keys."""
        keys, labels = self.draws, self.labels
        rank = np.zeros(ZETA_TABLE_SIZE + 1, dtype=np.intp)
        small = (labels >= 1.0) & (labels <= ZETA_TABLE_SIZE)
        rank[labels[small].astype(np.int32)] = np.flatnonzero(small)
        inv = rank[np.clip(keys, 0.0, ZETA_TABLE_SIZE).astype(np.int32)]
        rare = np.flatnonzero((keys < 1.0) | (keys > ZETA_TABLE_SIZE))
        inv[rare] = np.searchsorted(labels, keys[rare])
        return inv

    @cached_property
    def first_index(self) -> np.ndarray:
        """Step of the first visit to each box."""
        first = np.full(self.k_n, self.n, dtype=np.intp)
        np.minimum.at(first, self.inverse, np.arange(self.n))
        return first

    @cached_property
    def mark_values(self) -> np.ndarray:
        """Mark of each box, in key order."""
        marks = np.empty(self.k_n)
        marks[np.argsort(self.first_index, kind="stable")] = self.arrival_marks
        return marks


def simulate(
    model: FrequencyModel,
    spec: HeavyTailSpec,
    n: int,
    seed: int,
    replica: int = 0,
) -> SimRun:
    """Run the urn for n rounds; deterministic given (model, spec, n, seed, replica).

    The stream gives the n labels, then one mark per occupied box in the
    order of first visits, which is what makes revisits return the
    identical mark.  Only the occupancy counts are computed here.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ResourceError(f"n={n} exceeds the allocation budget n <= {MAX_N}")
    rng = replica_rng(seed, replica)
    draws = zeta_sample_batch(rng, model.s, n)
    labels, counts = np.unique(draws, return_counts=True)
    return SimRun(
        model=model,
        spec=spec,
        n=n,
        seed=seed,
        replica=replica,
        draws=draws,
        labels=labels,
        counts=counts,
        arrival_marks=pareto_sample_batch(rng, spec, len(labels)),
    )


def _label_int(key: float) -> int:
    """The decimal label of a key: the key itself, or 2**-key for a log-key."""
    if key > 0:
        return int(key)
    whole = math.floor(-key)
    return int(2.0 ** (-key - whole) * 2 ** 52) << (whole - 52)


def top_m(run: SimRun, m: int) -> list:
    """The m largest distinct-box marks with labels and location sets.

    Returns k_n entries when the run has fewer occupied boxes than m.  Ties
    (a null event under continuous marks) resolve to the smallest key.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    take = min(m, run.k_n)
    # keys are sorted ascending, so a stable sort on -value breaks ties
    # toward the smaller key
    order = np.argsort(-run.mark_values, kind="stable")[:take]
    out = []
    for rank, idx in enumerate(order, start=1):
        locs = np.flatnonzero(run.draws == run.labels[idx]) / run.n
        out.append(
            TopOrderStat(
                rank=rank,
                value=float(run.mark_values[idx]),
                value_normalized=float(run.mark_values[idx] / run.b_n),
                label=_label_int(run.labels[idx]),
                locations=tuple(float(v) for v in locs),
            )
        )
    return out


def empirical_sup(run: SimRun, a: IntervalSet, normalized: bool = False) -> float:
    """max of X_j over positions in the set; 0 when no position falls inside."""
    ranges = a.grid_ranges(run.n)
    if not ranges:
        return 0.0
    val = float(max(run.mark_values[run.inverse[lo:hi]].max() for lo, hi in ranges))
    return val / run.b_n if normalized else val


def variant_star_sup(run: SimRun, a: IntervalSet, normalized: bool = False) -> float:
    """Sup of the first-occurrence-only process over the set.

    The box achieving the overall maximum attains its mark at its first
    visit, so on the full carrier this coincides with :func:`empirical_sup`.
    """
    inside = np.zeros(run.k_n, dtype=bool)
    for lo, hi in a.grid_ranges(run.n):
        inside |= (run.first_index >= lo) & (run.first_index < hi)
    if not inside.any():
        return 0.0
    val = float(run.mark_values[inside].max())
    return val / run.b_n if normalized else val


def pattern_count_table(run: SimRun, family) -> np.ndarray:
    """Entry sum_k delta_k 2**k counts the boxes hit inside exactly the sets
    k with delta_k = 1; entry 0 counts the boxes hit nowhere."""
    codes = np.zeros(run.k_n, dtype=np.intp)
    for k, a in enumerate(family):
        hit = np.zeros(run.k_n, dtype=bool)
        for lo, hi in a.grid_ranges(run.n):
            hit[run.inverse[lo:hi]] = True
        codes += hit.astype(np.intp) << k
    return np.bincount(codes, minlength=1 << len(family))


def pattern_counts(run: SimRun, family, delta) -> int:
    """Number of boxes hit inside every marked set and in no unmarked set.

    ``delta`` is a 0/1 vector over the family with at least one 1; the
    patterns over all such vectors partition the boxes hit in the union.
    """
    delta = tuple(int(d) for d in delta)
    if len(delta) != len(family):
        raise ValueError("delta length must match the family")
    if any(d not in (0, 1) for d in delta):
        raise ValueError("delta entries must be 0 or 1")
    if not any(delta):
        raise ValueError("delta must contain at least one 1")
    return int(pattern_count_table(run, family)[sum(d << k for k, d in enumerate(delta))])


def occupancy_histogram(run: SimRun) -> dict:
    """Map ball-count k to the number of boxes holding exactly k balls."""
    sizes, freq = np.unique(run.counts, return_counts=True)
    return {int(k): int(c) for k, c in zip(sizes, freq)}


def top_m_csv(stats) -> str:
    """CSV export of top-order records; locations are ;-joined j/n decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "value", "value_normalized", "label", "locations"])
    for st in stats:
        writer.writerow(
            [st.rank, repr(st.value), repr(st.value_normalized), st.label,
             ";".join(repr(x) for x in st.locations)]
        )
    return buf.getvalue()


def occupancy_json(run: SimRun) -> str:
    payload = {
        "n": run.n,
        "seed": run.seed,
        "replica": run.replica,
        "k_n": run.k_n,
        "b_n": run.b_n,
        "histogram": {str(k): v for k, v in sorted(occupancy_histogram(run).items())},
    }
    return json.dumps(payload, indent=2)
