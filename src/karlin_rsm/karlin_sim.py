"""Heavy-tailed infinite-urn simulation, drawn many runs at a time.

Boxes are drawn with zeta frequencies p_ell = ell**-s / zeta(s), s = 1/beta,
each occupied box carries one Pareto mark of index alpha (both plain floats),
and the observed process is the mark of the drawn box.  The module exposes
exact finite-n means (:func:`nu_count`, :func:`mean_occupancy`,
:func:`mean_pattern_counts`), the occupancy statistics, the top order
statistics with their location sets, the empirical sup-measure and its
first-occurrence variant, and the table of occupancy-pattern counts.

Draw ``j`` (0-based) sits at position ``j/n``, so the unit carrier ``[0, 1)``
contains every draw exactly once, and a query set's positions are index
ranges of the draws (``IntervalSet.grid_ranges``).  A run is drawn count
first: the box counts are multinomial, and given them the order of the draws
is a uniform arrangement (Karlin 1967; Gnedin, Hansen & Pitman 2007), so a
run keeps only how many balls of each box fall in each cell between the
range ends of its query family.  :func:`simulate_batch` draws a batch of
runs as ragged arrays (:class:`UrnBatch`): one multinomial over the about
nu(n) heavy labels for every run, one pooled draw of the other balls' keys,
and one mark per box.  The arrangement is independent of the marks, so the
cells are split in decreasing mark order: the top ``WALK`` boxes of every run
by one hypergeometric array call per rank and cell, and the other boxes of a
run only when a query needs them (a set that no top box answers, or a
pattern table).  Every query returns one value per run.  The CLI's
:func:`simulate` is a batch of one.  Box labels are float64 keys (see
:func:`~karlin_rsm.distributions._zeta_tail`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .distributions import (
    ZETA_TABLE_SIZE,
    _check_alpha,
    _check_beta,
    _zeta_head,
    _zeta_tail,
    pareto_sample_batch,
    riemann_zeta,
)
from .interval_sets import IntervalSet, atomize, moebius, normalize, union_measures

__all__ = [
    "UrnBatch",
    "SimRun",
    "TopOrderStat",
    "ResourceError",
    "nu_count",
    "mean_occupancy",
    "mean_pattern_counts",
    "b_n",
    "simulate_batch",
    "simulate",
    "chunk_runs",
    "threads_pay",
    "replica_rng",
    "top_marks",
    "top_m",
    "boxes_hit",
    "ranked_hit",
    "empirical_sup",
    "variant_star_sup",
    "pattern_count_table",
    "occupancy_histogram",
    "top_m_csv",
    "occupancy_json",
]

MAX_N = 10 ** 7  # simulate_batch raises ResourceError above this n
CHUNK = 2 ** 8  # runs of a batch that one stream draws (chunk_runs)
CHUNK_KEYS = 2 ** 20  # keys a chunk is expected to sort at most, which bounds its memory
THREAD_BREAK_EVEN = 2 ** 14  # keys per chunk from which two threads beat one (measured break-even)
WALK = 5  # boxes of every run split in mark order when it is drawn


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


def nu_count(beta: float, x: float) -> int:
    """Exact #{ell : 1/p_ell <= x}, that is floor((x / zeta(s)) ** beta) = x**beta * L(x) with L
    converging to zeta(s)**-beta; floating candidates are re-checked."""
    _check_beta(beta)
    s, norm = 1.0 / beta, riemann_zeta(1.0 / beta)
    if not x > 0:
        raise ValueError(f"nu_count requires x > 0, got {x}")
    cand = int((x / norm) ** beta)
    while (cand + 1) ** s * norm <= x:
        cand += 1
    while cand >= 1 and cand ** s * norm > x:
        cand -= 1
    return cand


def mean_occupancy(beta: float, n: int) -> float:
    """E K_n = sum over ell of 1 - (1 - p_ell)**n: directly up to H with n p_H < 1/2, then the
    integral of 1 - exp(-n p_x) from H + 1/2 (midpoint rule) as a series in n p_(H + 1/2)."""
    _check_beta(beta)
    s, norm = 1.0 / beta, riemann_zeta(1.0 / beta)
    if n == 0:
        return 0.0
    c = n / norm
    head = max(int((2.0 * c) ** beta) + 1, 2 ** 12)
    p = np.arange(1.0, head + 1.0) ** -s / norm
    a = head + 0.5
    t = c * a ** -s
    series = sum((-t) ** k / (math.factorial(k) * (k - beta)) for k in range(1, 25))
    with np.errstate(divide="ignore"):  # p_1 rounds to 1 below beta of about 0.02: log1p(-1) = -inf
        return float(-np.expm1(n * np.log1p(-p)).sum()) - beta * a * series


def mean_pattern_counts(beta: float, n: int, family) -> np.ndarray:
    """(2**len(family),) means of the pattern table (:func:`pattern_count_table`) of runs of n draws.

    A box's hits in disjoint sets of positions are independent, so E K_m,
    m the positions in a union of the sets, is a functional of unions, and
    entry S > 0 is its Moebius inversion: the sum over T in S of
    (-1)**(|T|+1) E K_m, m the positions in the sets of T and outside S.
    Entry 0 is E K_n less E K_m of the whole union.
    """
    cells, owners = atomize([normalize(a.grid_ranges(n), (0, n)) for a in family])
    positions = union_measures(cells, owners, len(family)).astype(np.int64)
    sizes, index = np.unique(positions, return_inverse=True)
    occupancy = np.array([mean_occupancy(beta, int(m)) for m in sizes])[index]
    means = moebius(occupancy)
    means[0] = mean_occupancy(beta, n) - occupancy[-1]
    return means


def b_n(alpha: float, beta: float, n: int) -> float:
    """Normalization (gamma(1-beta) * nu((0, n]))**(1/alpha).

    Uses the exact counting function in place of its asymptote, which
    reduces finite-n bias.  Raises ValueError below n = zeta(1/beta), where
    no box has 1/p_ell <= n and nu is 0, and where alpha near 0 overflows it.
    """
    _check_beta(beta)
    _check_alpha(alpha)
    if n < 1:
        raise ValueError("n must be at least 1")
    nu = nu_count(beta, n)
    if nu == 0:
        raise ValueError(
            f"n={n} is below zeta(1/beta)={riemann_zeta(1.0 / beta):.6g}, where nu((0, n]) = 0 "
            "and the normalisation b_n is 0"
        )
    try:
        return (math.gamma(1.0 - beta) * nu) ** (1.0 / alpha)
    except OverflowError:
        raise ValueError(f"the normalisation b_n overflows at alpha={alpha} and n={n}") from None


@dataclass(frozen=True)
class TopOrderStat:
    rank: int
    value: float
    value_normalized: float
    label: int
    locations: tuple  # sorted positions j/n with Y_j = label


def _stream(key) -> np.random.Generator:
    """A run's own generator, keyed by one of its ``UrnBatch.streams`` keys."""
    return np.random.Generator(np.random.Philox(key=int(key)))


@dataclass
class UrnBatch:
    """Runs of the urn drawn together by :func:`simulate_batch`, as ragged arrays.

    Per box, the runs in order and each run's boxes in box order (the labels
    up to L, then the other keys, each increasing): ``run``, ``keys``,
    ``counts`` and ``marks``.  Per run: ``k_n``, ``start``, the index of its
    first box, and ``top``, the indices of its boxes of mark rank 0 .. WALK-1
    (equal marks in box order; -1 past k_n).  The positions are split into
    cells at ``cuts`` (0 = cuts[0] < ... < cuts[-1] = n): ``top_cells[r, j,
    c]`` counts the balls of box ``top[r, j]`` in cell c, and ``room[r, c]``
    the positions of cell c that these boxes leave.  The other boxes of run r
    are split over that room on first use (:meth:`cells_of`), from the run's
    own stream ``streams[r, 0]``, so no value depends on the order in which
    queries read the batch.
    """

    alpha: float
    beta: float
    n: int
    cuts: np.ndarray
    run: np.ndarray
    keys: np.ndarray
    counts: np.ndarray
    marks: np.ndarray
    k_n: np.ndarray
    top: np.ndarray
    top_cells: np.ndarray
    room: np.ndarray
    streams: np.ndarray  # (runs, 2) Philox keys: the split of the other boxes, and the order of draws
    _cells: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def runs(self) -> int:
        return self.k_n.size

    @cached_property
    def start(self) -> np.ndarray:
        return np.cumsum(self.k_n) - self.k_n

    @cached_property
    def b_n(self) -> float:
        """The normalisation; raises ValueError where :func:`b_n` does."""
        return b_n(self.alpha, self.beta, self.n)

    def cells_of(self, r: int) -> np.ndarray:
        """(k_n[r], cells) ball counts of run r's boxes: the walked rows, and one ``_split`` of the others."""
        if r not in self._cells:
            lo, hi = self.start[r], self.start[r] + self.k_n[r]
            if self.cuts.size == 2:
                self._cells[r] = self.counts[lo:hi, None]
            else:
                walked = self.top[r][self.top[r] >= 0] - lo
                other = np.ones(hi - lo, dtype=bool)
                other[walked] = False
                cells = np.empty((hi - lo, self.cuts.size - 1), dtype=np.int64)
                cells[walked] = self.top_cells[r, :walked.size]
                cells[other] = _split(_stream(self.streams[r, 0]), self.counts[lo:hi][other], self.room[r])
                self._cells[r] = cells
        return self._cells[r]

    @cached_property
    def cells(self) -> np.ndarray:
        """(boxes, cells) ball counts of every box of the batch."""
        return np.concatenate([self.cells_of(r) for r in range(self.runs)])

    def draws(self, r: int) -> np.ndarray:
        """The key of every step of run r, each cell's balls in uniform order from the run's stream
        ``streams[r, 1]``: O(n), read only by :func:`top_m` and position scans."""
        rng = _stream(self.streams[r, 1])
        keys = self.keys[self.start[r]:self.start[r] + self.k_n[r]]
        out = np.empty(self.n)
        for c, cell in enumerate(self.cells_of(r).T):
            seg = out[self.cuts[c]:self.cuts[c + 1]]
            seg[:] = np.repeat(keys, cell)
            rng.shuffle(seg)
        return out


@dataclass
class SimRun:
    """One run, as the CLI's ``simulate`` prints it: a batch of one and the seed and replica of its
    stream."""

    batch: UrnBatch
    seed: int
    replica: int

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def k_n(self) -> int:
        return int(self.batch.k_n[0])

    @cached_property
    def draws(self) -> np.ndarray:
        return self.batch.draws(0)


@lru_cache(maxsize=64)
def _cuts(family: tuple, n: int) -> np.ndarray:
    """0, n and every end of the index ranges of the family's sets, sorted and distinct.
    Read-only: every batch of the same family and n shares the cached array."""
    ends = {0, n}
    for a in family:
        for lo, hi in a.grid_ranges(n):
            ends.update((lo, hi))
    cuts = np.array(sorted(ends), dtype=np.int64)
    cuts.setflags(write=False)
    return cuts


def _split(rng: np.random.Generator, counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(boxes, cells) ball counts of a uniform arrangement of the boxes' balls over cells of the
    given sizes.  The singleton boxes take one multivariate hypergeometric draw over the cell
    sizes and a permutation; then each cell but the last draws its share of the other boxes'
    balls."""
    cells = np.zeros((counts.size, sizes.size), dtype=np.int64)
    single = counts == 1
    per_cell = rng.multivariate_hypergeometric(sizes, int(single.sum()))
    cells[np.flatnonzero(single), rng.permutation(np.repeat(np.arange(sizes.size), per_cell))] = 1
    multi = np.flatnonzero(~single)
    left = counts[multi]
    for c, room in enumerate((sizes - per_cell)[:-1]):
        cells[multi, c] = rng.multivariate_hypergeometric(left, room, method="marginals")
        left = left - cells[multi, c]
    cells[multi, -1] = left
    return cells


def _top(run: np.ndarray, marks: np.ndarray, k_n: np.ndarray, start: np.ndarray, m: int) -> np.ndarray:
    """(runs, m) indices of each run's boxes of mark rank 0..m-1, -1 past k_n: the boxes with at
    least their run's m-th largest mark (one partition of the runs' marks padded to the largest
    k_n), sorted by decreasing mark, equal marks in box order."""
    width = int(k_n.max())
    padded = np.full((k_n.size, width), -np.inf)
    padded[run, np.arange(run.size) - start[run]] = marks
    least = np.partition(padded, width - min(m, width), axis=1)[:, width - min(m, width)]
    cand = np.flatnonzero(marks >= least[run])
    cand = cand[np.lexsort((-marks[cand], run[cand]))]
    rank = np.arange(cand.size) - np.searchsorted(run[cand], run[cand])
    cand, rank = cand[rank < m], rank[rank < m]
    top = np.full((k_n.size, m), -1)
    top[run[cand], rank] = cand
    return top


def _walk(rng: np.random.Generator, counts: np.ndarray, top: np.ndarray, cuts: np.ndarray):
    """``top_cells`` and ``room`` of :class:`UrnBatch`: rank by rank, the box of that rank in every
    run draws its balls in each cell but the last by one hypergeometric array call over the room
    its run's cells have left."""
    room = np.tile(np.diff(cuts), (top.shape[0], 1))
    cells = np.zeros((*top.shape, room.shape[1]), dtype=np.int64)
    for rank in range(WALK):
        left = np.where(top[:, rank] >= 0, counts[top[:, rank]], 0)
        for c in range(room.shape[1] - 1):
            cells[:, rank, c] = rng.hypergeometric(room[:, c], room[:, c + 1:].sum(axis=1), left)
            left = left - cells[:, rank, c]
        cells[:, rank, -1] = left
        room -= cells[:, rank]
    return cells, room


def _run_keys(beta: float, n: int) -> float:
    """Keys a run of n draws expects to sort: its head labels and the balls beyond them."""
    size = min(nu_count(beta, n), ZETA_TABLE_SIZE)
    return size + n * _zeta_head(1.0 / beta, size)[-1]


def chunk_runs(beta: float, n: int) -> int:
    """Runs that one stream draws as a batch: CHUNK, or fewer where they expect more than
    CHUNK_KEYS keys to sort."""
    return int(max(1, min(CHUNK, CHUNK_KEYS // _run_keys(beta, n))))


def threads_pay(beta: float, n: int) -> bool:
    """Whether chunks of runs of n draws gain from threads: THREAD_BREAK_EVEN keys per chunk expected."""
    return chunk_runs(beta, n) * _run_keys(beta, n) >= THREAD_BREAK_EVEN


def simulate_batch(alpha: float, beta: float, n: int, rng: np.random.Generator, runs: int,
                   family=()) -> UrnBatch:
    """``runs`` runs of the urn for n rounds, deterministic given (alpha, beta, n, the state of rng,
    runs, family).

    The stream gives, in this order: the multinomial counts of the labels
    1..L and one rest cell for every run, L = min(nu(n), ZETA_TABLE_SIZE);
    the rest balls' keys, i.i.d. from Y | Y > L in one pooled draw that run
    r reads next ``rest[r]`` of; one mark per occupied box, the runs in
    order and each run's boxes in box order (:class:`UrnBatch`); the walk of the top WALK boxes
    (:func:`_walk`, nothing on one cell); and two stream keys per run.  The
    family's index ranges only set the ``cuts``, so keys, counts and marks
    do not depend on the family.  Queries may use only sets whose ranges are
    unions of these cells.
    """
    _check_beta(beta)
    _check_alpha(alpha)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ResourceError(f"n={n} exceeds the allocation budget n <= {MAX_N}")
    size = min(nu_count(beta, n), ZETA_TABLE_SIZE)
    head = rng.multinomial(n, _zeta_head(1.0 / beta, size), size=runs)
    rest = head[:, -1]
    # the pooled rest keys, sorted within each run's row of a padded array
    within = np.arange(rest.max()) < rest[:, None]
    padded = np.full(within.shape, np.inf)
    padded[within] = _zeta_tail(rng, 1.0 / beta, int(rest.sum()), size)
    tail = np.sort(padded, axis=1)[within]
    tail_run = np.repeat(np.arange(runs), rest)
    new = np.ones(tail.size, dtype=bool)
    new[1:] = (tail[1:] != tail[:-1]) | (tail_run[1:] != tail_run[:-1])
    first = np.flatnonzero(new)
    run, label = np.nonzero(head[:, :-1])
    counts = np.concatenate([head[run, label], np.diff(np.append(first, tail.size))])
    run = np.concatenate([run, tail_run[first]])
    order = np.argsort(run, kind="stable")  # each run's labels up to L, then its other keys
    run, keys, counts = run[order], np.concatenate([label + 1.0, tail[first]])[order], counts[order]
    marks = pareto_sample_batch(rng, alpha, keys.size)
    k_n = np.bincount(run, minlength=runs)
    top = _top(run, marks, k_n, np.cumsum(k_n) - k_n, WALK)
    cuts = _cuts(tuple(family), n)
    top_cells, room = _walk(rng, counts, top, cuts)
    streams = rng.integers(2 ** 64, size=(runs, 2), dtype=np.uint64)
    return UrnBatch(alpha=alpha, beta=beta, n=n, cuts=cuts, run=run, keys=keys, counts=counts, marks=marks,
                    k_n=k_n, top=top, top_cells=top_cells, room=room, streams=streams)


def simulate(alpha: float, beta: float, n: int, seed: int, replica: int = 0) -> SimRun:
    """One run: the batch of one that :func:`simulate_batch` draws from ``replica_rng(seed, replica)``."""
    return SimRun(simulate_batch(alpha, beta, n, replica_rng(seed, replica), 1), seed, replica)


def _label_int(key: float) -> int:
    """The decimal label of a key: the key itself, or 2**-key for a log-key."""
    if key > 0:
        return int(key)
    whole = math.floor(-key)
    return int(2.0 ** (-key - whole) * 2 ** 52) << (whole - 52)


def top_marks(batch: UrnBatch, m: int) -> np.ndarray:
    """(runs, m) marks of the mark ranks 0..m-1 <= WALK of every run; NaN past its k_n."""
    top = batch.top[:, :m]
    return np.where(top >= 0, batch.marks[top], np.nan)


def top_m(run: SimRun, m: int) -> list:
    """The m largest distinct-box marks with labels and location sets.

    Returns k_n entries when the run has fewer occupied boxes than m; equal
    marks keep box order.  The location sets come from ``run.draws``.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    batch = run.batch
    top = _top(batch.run, batch.marks, batch.k_n, batch.start, min(m, run.k_n))[0]
    out = []
    for rank, box in enumerate(top, start=1):
        locs = np.flatnonzero(run.draws == batch.keys[box]) / run.n
        out.append(
            TopOrderStat(
                rank=rank,
                value=float(batch.marks[box]),
                value_normalized=float(batch.marks[box] / batch.b_n),
                label=_label_int(batch.keys[box]),
                locations=tuple(float(v) for v in locs),
            )
        )
    return out


def _inside(batch: UrnBatch, a: IntervalSet) -> np.ndarray:
    """Mask over the batch's cells: True for those inside the set.

    Raises ValueError for a range of the set that is not a union of the cells.
    """
    cuts = batch.cuts.tolist()
    inside = np.zeros(len(cuts) - 1, dtype=bool)
    for lo, hi in a.grid_ranges(batch.n):
        if lo not in cuts or hi not in cuts:
            raise ValueError(f"index range [{lo}, {hi}) is not a union of the run's cells; "
                             "pass its set to simulate_batch")
        inside[cuts.index(lo):cuts.index(hi)] = True
    return inside


def _hit(cells: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per box (row of the last axis): whether it has a ball in the cells inside."""
    return cells[..., inside].any(axis=-1)


def _first_hit(cells: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per box: whether its first ball falls in the cells inside."""
    ball = cells > 0
    return inside[ball.argmax(axis=-1)] & ball.any(axis=-1)


def _sup(batch: UrnBatch, a: IntervalSet, hit) -> np.ndarray:
    """Per run, the largest mark of the boxes that ``hit`` finds in the set's cells; 0 if none.

    That is the mark of the first walked box found, in mark order; a run
    where none is found and that has more than WALK boxes splits the others.
    """
    inside = _inside(batch, a)
    found = hit(batch.top_cells, inside)
    answered = found.any(axis=1)
    out = np.where(answered, batch.marks[batch.top[np.arange(batch.runs), found.argmax(axis=1)]], 0.0)
    for r in np.flatnonzero(~answered & (batch.k_n > WALK)):
        boxes = hit(batch.cells_of(r), inside)
        if boxes.any():
            out[r] = batch.marks[batch.start[r]:batch.start[r] + batch.k_n[r]][boxes].max()
    return out


def boxes_hit(batch: UrnBatch, a: IntervalSet) -> np.ndarray:
    """Mask over the boxes of the batch: True where a box has a draw at a position in the set."""
    return _hit(batch.cells, _inside(batch, a))


def ranked_hit(batch: UrnBatch, rank: int, a: IntervalSet) -> np.ndarray:
    """Per run, whether its box of mark rank ``rank`` < WALK has a draw in the set (False past k_n)."""
    return _hit(batch.top_cells[:, rank], _inside(batch, a))


def empirical_sup(batch: UrnBatch, a: IntervalSet) -> np.ndarray:
    """Per run, max of X_j over positions in the set; 0 when no position falls inside."""
    return _sup(batch, a, _hit)


def variant_star_sup(batch: UrnBatch, a: IntervalSet) -> np.ndarray:
    """Per run, the sup of the first-occurrence-only process over the set.

    A box is first visited in a range [lo, hi) when it has a draw there and
    none before lo, that is, when its first ball falls in the set.  The box
    achieving the overall maximum attains its mark at its first visit, so on
    the full carrier this coincides with :func:`empirical_sup`.
    """
    return _sup(batch, a, _first_hit)


def pattern_count_table(batch: UrnBatch, family) -> np.ndarray:
    """(runs, 2**len(family)): entry sum_k delta_k 2**k counts the boxes of a run hit inside
    exactly the sets k with delta_k = 1; entry 0 counts the boxes hit nowhere.  A run's entries
    over all nonzero codes partition its boxes hit in the union."""
    codes = batch.run * (1 << len(family))
    for k, a in enumerate(family):
        codes = codes + (boxes_hit(batch, a).astype(np.intp) << k)
    return np.bincount(codes, minlength=batch.runs << len(family)).reshape(batch.runs, -1)


def occupancy_histogram(batch: UrnBatch) -> dict:
    """Map ball-count k to the number of boxes holding exactly k balls, over every run of the batch."""
    sizes, freq = np.unique(batch.counts, return_counts=True)
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
        "b_n": run.batch.b_n,
        "histogram": {str(k): v for k, v in sorted(occupancy_histogram(run.batch).items())},
    }
    return json.dumps(payload, indent=2)
