"""Heavy-tailed infinite-urn simulation.

Boxes are drawn with regularly varying zeta frequencies, each occupied box
carries one heavy-tailed mark (i.i.d., so assigned in key order), and the
observed process is the mark of the drawn box.  The module exposes the
occupancy statistics, the top order statistics with their location sets, the
empirical sup-measure and its first-occurrence variant, and the table of
occupancy-pattern counts.

Draw ``j`` (0-based) sits at position ``j/n``, so the unit carrier ``[0, 1)``
contains every draw exactly once, and a query set's positions are index
ranges of the draws (``IntervalSet.grid_ranges``).  A run is drawn count
first: the box counts are multinomial, and given them the order of the draws
is a uniform arrangement (Karlin 1967; Gnedin, Hansen & Pitman 2007), so a
run keeps only how many balls of each box fall in each cell between the
range ends of the family passed to :func:`simulate`.  Only the about nu(n)
heavy labels get multinomial cells; the other balls draw keys one by one.
Every set query asks which boxes have a draw in some ranges, and reads these
cell counts through that one mask over the boxes (``_boxes``).  Box labels
are float64 keys (see :func:`~karlin_rsm.distributions._zeta_tail`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (
    ZETA_TABLE_SIZE,
    HeavyTailSpec,
    _check_beta,
    _zeta_head,
    _zeta_pmf,
    _zeta_rest,
    pareto_sample_batch,
    riemann_zeta,
)
from .interval_sets import IntervalSet

__all__ = [
    "FrequencyModel",
    "SimRun",
    "TopOrderStat",
    "ResourceError",
    "b_n",
    "simulate",
    "threads_pay",
    "replica_rng",
    "top_boxes",
    "top_m",
    "boxes_hit",
    "empirical_sup",
    "variant_star_sup",
    "pattern_count_table",
    "occupancy_histogram",
    "top_m_csv",
    "occupancy_json",
]

MAX_N = 10 ** 7  # simulate raises ResourceError above this n
THREAD_BREAK_EVEN = 2 ** 12  # tail keys per run from which two threads beat one (measured break-even)


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
        _check_beta(self.beta)

    @property
    def s(self) -> float:
        return 1.0 / self.beta

    @cached_property
    def zeta_norm(self) -> float:
        return riemann_zeta(self.s)

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

    def mean_occupancy(self, n: int) -> float:
        """E K_n = sum over ell of 1 - (1 - p_ell)**n: directly up to H with n p_H < 1/2, then the
        integral of 1 - exp(-n p_x) from H + 1/2 (midpoint rule) as a series in n p_(H + 1/2)."""
        c = n / self.zeta_norm
        head = max(int((2.0 * c) ** self.beta) + 1, 2 ** 12)
        p = np.arange(1.0, head + 1.0) ** -self.s / self.zeta_norm
        a = head + 0.5
        t = c * a ** -self.s
        series = sum((-t) ** k / (math.factorial(k) * (k - self.beta)) for k in range(1, 25))
        return float(-np.expm1(n * np.log1p(-p)).sum()) - self.beta * a * series


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
    return (math.gamma(1.0 - model.beta) * nu) ** (1.0 / spec.alpha)


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

    ``labels`` and ``counts`` hold the sorted distinct float64 keys and their
    ball counts, and ``marks`` the mark of each box, aligned with ``labels``.
    The positions are split into cells at ``cuts`` (0 = cuts[0] < ... <
    cuts[-1] = n), and ``cells[c, i]`` counts the balls of box i at indices
    in [cuts[c], cuts[c+1]).  ``b_n`` and ``draws`` are computed on first
    use: ``draws`` holds the key of every step, each cell's balls in uniform
    order, drawn from ``rng``, the run's stream after the cell splits.
    """

    model: FrequencyModel
    spec: HeavyTailSpec
    n: int
    seed: int
    replica: int
    labels: np.ndarray
    counts: np.ndarray
    marks: np.ndarray
    cuts: np.ndarray
    cells: np.ndarray
    rng: np.random.Generator = field(repr=False, compare=False)

    @cached_property
    def b_n(self) -> float:
        """The normalisation; raises ValueError below n = zeta(1/beta)."""
        return b_n(self.model, self.spec, self.n)

    @property
    def k_n(self) -> int:
        return len(self.labels)

    @cached_property
    def draws(self) -> np.ndarray:
        """The key of every step: O(n), read only by :func:`top_m` and position scans."""
        out = np.empty(self.n)
        for c, cell in enumerate(self.cells):
            seg = out[self.cuts[c]:self.cuts[c + 1]]
            seg[:] = np.repeat(self.labels, cell)
            self.rng.shuffle(seg)
        return out


def _cuts(family, n: int) -> np.ndarray:
    """0, n and every end of the index ranges of the family's sets, sorted and distinct."""
    ends = {0, n}
    for a in family:
        for lo, hi in a.grid_ranges(n):
            ends.update((lo, hi))
    return np.array(sorted(ends), dtype=np.int64)


def _split(rng: np.random.Generator, counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(cells, boxes) ball counts of a uniform arrangement of the boxes' balls over cells of the
    given sizes.  The singleton boxes take one multivariate hypergeometric draw over the cell
    sizes and a permutation; then each cell but the last draws its share of the other boxes'
    balls."""
    cells = np.zeros((sizes.size, counts.size), dtype=np.int64)
    single = counts == 1
    per_cell = rng.multivariate_hypergeometric(sizes, int(single.sum()))
    cells[rng.permutation(np.repeat(np.arange(sizes.size), per_cell)), np.flatnonzero(single)] = 1
    multi = np.flatnonzero(~single)
    left = counts[multi]
    for c, room in enumerate((sizes - per_cell)[:-1]):
        cells[c, multi] = rng.multivariate_hypergeometric(left, room, method="marginals")
        left = left - cells[c, multi]
    cells[-1, multi] = left
    return cells


def threads_pay(model: FrequencyModel, n: int) -> bool:
    """Whether runs of n draws gain from threads: THREAD_BREAK_EVEN keys beyond the zeta table expected."""
    return n * _zeta_pmf(model.s)[-1] >= THREAD_BREAK_EVEN


def simulate(
    model: FrequencyModel,
    spec: HeavyTailSpec,
    n: int,
    seed: int,
    replica: int = 0,
    family=(),
) -> SimRun:
    """Run the urn for n rounds; deterministic given (model, spec, n, seed, replica, family).

    The stream gives the multinomial counts of the labels 1..L and one rest
    cell, L = min(nu(n), ZETA_TABLE_SIZE); the rest's keys
    (``distributions._zeta_rest``); one mark per occupied box in key order;
    and last the split of each box's balls over the cells that the family's
    index ranges cut, so labels, counts and marks do not depend on the
    family.  Queries may use only sets whose ranges are unions of these cells.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ResourceError(f"n={n} exceeds the allocation budget n <= {MAX_N}")
    rng = replica_rng(seed, replica)
    size = min(model.nu_count(n), ZETA_TABLE_SIZE)
    head = rng.multinomial(n, _zeta_head(model.s, size)[0])
    rest, rest_counts = np.unique(_zeta_rest(rng, model.s, size, int(head[-1])), return_counts=True)
    small = np.flatnonzero(head[:-1])
    logs = np.searchsorted(rest, 0.0)  # log-keys of labels beyond float range come first
    labels = np.concatenate([rest[:logs], small + 1.0, rest[logs:]])
    counts = np.concatenate([rest_counts[:logs], head[small], rest_counts[logs:]])
    marks = pareto_sample_batch(rng, spec, len(labels))
    cuts = _cuts(family, n)
    cells = _split(rng, counts, np.diff(cuts)) if cuts.size > 2 else counts[None, :]
    return SimRun(model=model, spec=spec, n=n, seed=seed, replica=replica, labels=labels,
                  counts=counts, marks=marks, cuts=cuts, cells=cells, rng=rng)


def _label_int(key: float) -> int:
    """The decimal label of a key: the key itself, or 2**-key for a log-key."""
    if key > 0:
        return int(key)
    whole = math.floor(-key)
    return int(2.0 ** (-key - whole) * 2 ** 52) << (whole - 52)


def top_boxes(run: SimRun, m: int) -> np.ndarray:
    """Indices into ``labels`` of the min(m, k_n) largest marks, largest first.

    Ties (a null event under continuous marks) resolve to the smallest key.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    # boxes with at least the m-th largest mark, in ascending key order: a stable sort breaks ties
    cut = max(run.k_n - m, 0)
    top = np.flatnonzero(run.marks >= np.partition(run.marks, cut)[cut])
    return top[np.argsort(-run.marks[top], kind="stable")][:m]


def top_m(run: SimRun, m: int) -> list:
    """The m largest distinct-box marks with labels and location sets.

    Returns k_n entries when the run has fewer occupied boxes than m.  The
    location sets come from ``run.draws``.
    """
    out = []
    for rank, idx in enumerate(top_boxes(run, m), start=1):
        locs = np.flatnonzero(run.draws == run.labels[idx]) / run.n
        out.append(
            TopOrderStat(
                rank=rank,
                value=float(run.marks[idx]),
                value_normalized=float(run.marks[idx] / run.b_n),
                label=_label_int(run.labels[idx]),
                locations=tuple(float(v) for v in locs),
            )
        )
    return out


def _boxes(run: SimRun, ranges) -> np.ndarray:
    """Mask over the k_n boxes: True where a box has a draw at an index in one of the ranges.

    Raises ValueError for a range that is not a union of the run's cells.
    """
    hit = np.zeros(run.k_n, dtype=bool)
    for lo, hi in ranges:
        first, last = np.searchsorted(run.cuts, (lo, hi))
        if run.cuts[first] != lo or run.cuts[last] != hi:
            raise ValueError(f"index range [{lo}, {hi}) is not a union of the run's cells; "
                             "pass its set to simulate")
        hit |= run.cells[first:last].any(axis=0)
    return hit


def boxes_hit(run: SimRun, a: IntervalSet) -> np.ndarray:
    """Mask over the k_n boxes: True where a box has a draw at a position in the set."""
    return _boxes(run, a.grid_ranges(run.n))


def _sup(run: SimRun, boxes: np.ndarray) -> float:
    """Largest mark of the masked boxes; 0 for an empty mask."""
    if not boxes.any():
        return 0.0
    return float(run.marks[boxes].max())


def empirical_sup(run: SimRun, a: IntervalSet) -> float:
    """max of X_j over positions in the set; 0 when no position falls inside."""
    return _sup(run, boxes_hit(run, a))


def variant_star_sup(run: SimRun, a: IntervalSet) -> float:
    """Sup of the first-occurrence-only process over the set.

    A box is first visited in a range [lo, hi) when it has a draw there and
    none before lo.  The box achieving the overall maximum attains its mark
    at its first visit, so on the full carrier this coincides with
    :func:`empirical_sup`.
    """
    first = np.zeros(run.k_n, dtype=bool)
    for lo, hi in a.grid_ranges(run.n):
        first |= _boxes(run, [(lo, hi)]) & ~_boxes(run, [(0, lo)])
    return _sup(run, first)


def pattern_count_table(run: SimRun, family) -> np.ndarray:
    """Entry sum_k delta_k 2**k counts the boxes hit inside exactly the sets
    k with delta_k = 1; entry 0 counts the boxes hit nowhere.  The entries
    over all nonzero codes partition the boxes hit in the union."""
    codes = np.zeros(run.k_n, dtype=np.intp)
    for k, a in enumerate(family):
        codes += boxes_hit(run, a).astype(np.intp) << k
    return np.bincount(codes, minlength=1 << len(family))


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
