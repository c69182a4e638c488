"""Heavy-tailed infinite-urn simulation.

Boxes are drawn with regularly varying zeta frequencies, each box carries a
heavy-tailed mark assigned once on first occupancy, and the observed process
is the mark of the drawn box.  The module exposes the occupancy statistics,
the top order statistics with their location sets, the empirical sup-measure
and its first-occurrence variant, and occupancy-pattern counts.

Draw ``j`` (0-based) sits at position ``j/n``, so the unit carrier ``[0, 1)``
contains every draw exactly once.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
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
    "occupancy_histogram",
    "top_m_csv",
    "occupancy_json",
]

DEFAULT_MAX_N = 10 ** 7


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
    zeta(s)**-beta.  Any regularly varying family works for the limit
    theorems; alternatives can subclass and override ``p``, ``nu_count`` and
    ``sample_labels``.
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

    def sample_labels(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return zeta_sample_batch(rng, self.s, size)


def b_n(model: FrequencyModel, spec: HeavyTailSpec, n: int) -> float:
    """Normalization (c_alpha * gamma(1-beta) * nu((0, n]))**(1/alpha).

    Uses the exact counting function in place of its asymptote, which
    reduces finite-n bias.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return (spec.c_alpha * gamma_fn(1.0 - model.beta) * model.nu_count(n)) ** (1.0 / spec.alpha)


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

    ``draws`` is the raw label stream (int64 when every label fits, else
    Python ints); the unique labels, counts, first-occurrence indices,
    inverse map and marks are precomputed so queries are vectorized.
    """

    model: FrequencyModel
    spec: HeavyTailSpec
    n: int
    seed: int
    replica: int
    draws: np.ndarray
    labels: np.ndarray
    first_index: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    mark_values: np.ndarray
    b_n: float

    @property
    def k_n(self) -> int:
        return len(self.labels)

    @cached_property
    def positions(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @cached_property
    def x_stream(self) -> np.ndarray:
        """X_j = mark of the box drawn at step j."""
        return self.mark_values[self.inverse]

    @cached_property
    def first_mask(self) -> np.ndarray:
        """True where step j is the first visit to its box."""
        return np.arange(self.n) == self.first_index[self.inverse]


def simulate(
    model: FrequencyModel,
    spec: HeavyTailSpec,
    n: int,
    seed: int,
    replica: int = 0,
    max_n: int = DEFAULT_MAX_N,
) -> SimRun:
    """Run the urn for n rounds; deterministic given (model, spec, n, seed, replica).

    Marks are consumed from the stream in first-occurrence order of the
    boxes, which is what makes revisits return the identical mark.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_n:
        raise ResourceError(f"n={n} exceeds the allocation budget max_n={max_n}")
    rng = replica_rng(seed, replica)
    draws = model.sample_labels(rng, n)
    labels, first_index, inverse, counts = np.unique(
        draws, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first_index, kind="stable")
    mark_values = np.empty(len(labels))
    mark_values[order] = pareto_sample_batch(rng, spec, len(labels))
    return SimRun(
        model=model,
        spec=spec,
        n=n,
        seed=seed,
        replica=replica,
        draws=draws,
        labels=labels,
        first_index=first_index,
        counts=counts,
        inverse=inverse,
        mark_values=mark_values,
        b_n=b_n(model, spec, n),
    )


def top_m(run: SimRun, m: int) -> list:
    """The m largest distinct-box marks with labels and location sets.

    Returns k_n entries when the run has fewer occupied boxes than m.  Ties
    (a null event under continuous marks) resolve to the smallest label.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    take = min(m, run.k_n)
    # labels are sorted ascending, so a stable sort on -value breaks ties
    # toward the smaller label
    order = np.argsort(-run.mark_values, kind="stable")[:take]
    out = []
    for rank, idx in enumerate(order, start=1):
        locs = np.nonzero(run.inverse == idx)[0] / run.n
        out.append(
            TopOrderStat(
                rank=rank,
                value=float(run.mark_values[idx]),
                value_normalized=float(run.mark_values[idx] / run.b_n),
                label=int(run.labels[idx]),
                locations=tuple(float(v) for v in locs),
            )
        )
    return out


def empirical_sup(run: SimRun, a: IntervalSet, normalized: bool = False) -> float:
    """max of X_j over positions in the set; 0 when no position falls inside."""
    if a.is_empty:
        return 0.0
    mask = a.contains_points(run.positions)
    if not mask.any():
        return 0.0
    val = float(run.x_stream[mask].max())
    return val / run.b_n if normalized else val


def variant_star_sup(run: SimRun, a: IntervalSet, normalized: bool = False) -> float:
    """Sup of the first-occurrence-only process over the set.

    The box achieving the overall maximum attains its mark at its first
    visit, so on the full carrier this coincides with :func:`empirical_sup`.
    """
    if a.is_empty:
        return 0.0
    mask = a.contains_points(run.positions) & run.first_mask
    if not mask.any():
        return 0.0
    val = float(run.x_stream[mask].max())
    return val / run.b_n if normalized else val


def _hit_matrix(run: SimRun, family) -> np.ndarray:
    """hit[j, k] = box j was drawn at some position inside family[k]."""
    hits = np.zeros((run.k_n, len(family)), dtype=bool)
    for k, a in enumerate(family):
        mask = a.contains_points(run.positions)
        hits[run.inverse[mask], k] = True
    return hits


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
    hits = _hit_matrix(run, family)
    want = np.array(delta, dtype=bool)
    return int(np.all(hits == want, axis=1).sum())


def occupancy_histogram(run: SimRun) -> dict:
    """Map ball-count k to the number of boxes holding exactly k balls."""
    sizes, freq = np.unique(run.counts, return_counts=True)
    return {int(k): int(c) for k, c in zip(sizes, freq)}


def top_m_csv(stats, fh=None) -> str:
    """CSV export of top-order records; locations are ;-joined j/n decimals."""
    buf = fh if fh is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "value", "value_normalized", "label", "locations"])
    for st in stats:
        writer.writerow(
            [st.rank, repr(st.value), repr(st.value_normalized), st.label,
             ";".join(repr(x) for x in st.locations)]
        )
    return buf.getvalue() if fh is None else ""


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
