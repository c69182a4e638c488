"""Heavy-tailed infinite-urn simulation, drawn many runs at a time.

Boxes are drawn with zeta frequencies p_ell = ell**-s / zeta(s), s = 1/beta,
each occupied box carries one Pareto(1) mark, and the observed process is the
mark of the drawn box.  The module exposes exact finite-n means (:func:`nu_count`,
:func:`mean_occupancy`, :func:`mean_pattern_counts`), the occupancy
statistics, the top order statistics with their location sets, the empirical
sup-measure and its first-occurrence variant, and the table of
occupancy-pattern counts.

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
pattern table).  Every query returns one value per run.  One run is a
batch of one (:func:`simulate`), and :func:`top_m` places the balls of the
boxes it prints only, rank after rank in the positions the ranks before
leave free (:func:`_place`).  Box labels are float64 keys
(see :func:`~karlin_rsm.distributions._zeta_tail`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .choquet_oracle import _check_beta
from .distributions import ZETA_TABLE_SIZE, _zeta_head, _zeta_tail, pareto_sample_batch, riemann_zeta
from .interval_sets import IntervalSet, ResourceError, atomize, moebius, normalize, union_measures

__all__ = [
    "UrnBatch",
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
    "ranked_hit",
    "empirical_sup",
    "variant_star_sup",
    "pattern_count_table",
    "occupancy_histogram",
]

MAX_N = 10 ** 7  # simulate_batch raises ResourceError above this n
CHUNK = 2 ** 8  # runs of a batch that one stream draws (chunk_runs)
CHUNK_KEYS = 2 ** 20  # keys a chunk is expected to sort at most, which bounds its memory
THREAD_BREAK_EVEN = 2 ** 14  # keys per chunk from which two threads beat one (measured break-even)
WALK = 5  # boxes of every run split in mark order when it is drawn
MAX_REPLICAS = 1 << 20  # replica_rng streams per suite part or limit-sample call; part k starts at k * MAX_REPLICAS


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
    while _inverse_p(cand + 1, s, norm) <= x:
        cand += 1
    while cand >= 1 and _inverse_p(cand, s, norm) > x:
        cand -= 1
    return cand


def _inverse_p(label: int, s: float, norm: float) -> float:
    """1/p_label = label**s * zeta(s); inf beyond float range, where it exceeds any x."""
    try:
        return label ** s * norm
    except OverflowError:
        return math.inf


def mean_occupancy(beta: float, n: int) -> float:
    """E K_n = sum over ell of 1 - (1 - p_ell)**n: directly up to H with n p_H < 1/2, then the
    integral of 1 - exp(-n p_x) from H + 1/2 (midpoint rule) as a series in n p_(H + 1/2); at most n.

    The tail term is Poissonized, 1 - exp(-n p) in place of 1 - (1 - p)**n, so the result reads
    low.  Against a direct sum plus a Hurwitz-zeta tail, for beta in {0.5, 0.9, 0.99, 1 - 1e-5}
    and n from 1 to 1e7, the relative error was at most 2.8e-7 (-2.7e-7 at beta = 0.9, n = 1e3;
    at n = 1e5, -1.6e-7 at beta = 0.9, -9.8e-9 at 0.99 and -3.7e-11 at 0.5).
    Domain: 1 - beta >= 1e-7.  The integral divides by s - 1, and s = 1/beta is rounded, which
    adds a relative error of about 2**-53 / (1 - beta): 1e-9 at the edge, and 11 % at
    1 - beta = 1e-15.  A suite needs n >= zeta(1/beta) > 1/(1 - beta) - 1 and n <= MAX_N, so it
    meets the edge only at n = MAX_N, and exits 2 there.
    """
    _check_beta(beta)
    if 1.0 - beta < 1e-7:
        raise ValueError(f"mean_occupancy requires 1 - beta >= 1e-7, where s - 1 = 1/beta - 1 keeps its "
                         f"digits, got beta = {beta!r}")
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
        return min(float(n), float(-np.expm1(n * np.log1p(-p)).sum()) - beta * a * series)


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


def b_n(beta: float, n: int) -> float:
    """Normalisation c_n = gamma(1-beta) * nu((0, n]) of the Pareto(1) marks.

    Uses the exact counting function in place of its asymptote, which reduces finite-n bias.
    Raises ValueError below n = zeta(1/beta), where no box has 1/p_ell <= n and nu is 0.
    """
    _check_beta(beta)
    if n < 1:
        raise ValueError("n must be at least 1")
    nu = nu_count(beta, n)
    if nu == 0:
        raise ValueError(
            f"n={n} is below zeta(1/beta)={riemann_zeta(1.0 / beta):.6g}, where nu((0, n]) = 0 "
            "and the normalisation b_n is 0"
        )
    return math.gamma(1.0 - beta) * nu


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
    ``counts`` and ``marks`` (Pareto(1)).  Per run: ``k_n``, ``start``, the index of its
    first box, and ``top``, the indices of its boxes of mark rank 0 .. WALK-1
    (equal marks in box order; -1 past k_n).  The positions are split into
    cells at ``cuts`` (0 = cuts[0] < ... < cuts[-1] = n): ``top_cells[r, j,
    c]`` counts the balls of box ``top[r, j]`` in cell c.  The other boxes of
    run r are split over the positions of each cell that these boxes leave
    on first use (:meth:`cells_of`), from the run's own stream
    ``streams[r, 0]``.  The positions come from its second stream
    ``streams[r, 1]``: the walked boxes' balls first (:meth:`walked_positions`),
    then those of deeper ranks that :func:`top_m` prints, in the positions left
    free.  So no value depends on the order in which queries read the batch.
    """

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
    streams: np.ndarray  # (runs, 2) Philox keys: the split of the other boxes, and the positions
    _cells: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def runs(self) -> int:
        return self.k_n.size

    @cached_property
    def start(self) -> np.ndarray:
        return np.cumsum(self.k_n) - self.k_n

    @cached_property
    def b_n(self) -> float:
        """The normalisation c_n of the marks; raises ValueError where :func:`b_n` does."""
        return b_n(self.beta, self.n)

    def cells_of(self, r: int) -> np.ndarray:
        """(k_n[r], cells) ball counts of run r's boxes: the walked rows, and one ``_split`` of the others."""
        if r not in self._cells:
            lo, hi = self.start[r], self.start[r] + self.k_n[r]
            walked = self.top[r][self.top[r] >= 0] - lo
            other = np.ones(hi - lo, dtype=bool)
            other[walked] = False
            cells = np.empty((hi - lo, self.cuts.size - 1), dtype=np.int64)
            cells[walked] = self.top_cells[r, :walked.size]
            room = np.diff(self.cuts) - self.top_cells[r].sum(axis=0)
            cells[other] = _split(_stream(self.streams[r, 0]), self.counts[lo:hi][other], room)
            self._cells[r] = cells
        return self._cells[r]

    @cached_property
    def cells(self) -> np.ndarray:
        """(boxes, cells) ball counts of every box of the batch."""
        return np.concatenate([self.cells_of(r) for r in range(self.runs)])

    def _walked(self, r: int):
        """Run r's stream ``streams[r, 1]`` after it placed the walked boxes' balls, and their
        positions (:func:`_place`, with no position taken)."""
        rng = _stream(self.streams[r, 1])
        return rng, _place(rng, self.cuts, self.top_cells[r, :min(WALK, self.k_n[r])], np.empty(0, np.int64))

    def walked_positions(self, r: int) -> list:
        """The sorted positions (indices j of the draws) of the balls of run r's boxes of mark rank
        0 .. min(WALK, k_n) - 1, from the run's stream ``streams[r, 1]``: O(their counts), not O(n)
        (numpy's choice shuffles an int64 copy of a cell where they fill more than 1/50 of it)."""
        return self._walked(r)[1]


def _place(rng: np.random.Generator, cuts: np.ndarray, take: np.ndarray, taken: np.ndarray) -> list:
    """The sorted positions of the balls of some boxes of a run, given their ball counts per cell
    (the rows of ``take``, in rank order) and the sorted positions ``taken`` by other boxes: per cell
    one ordered uniform sample of the positions left free there, its first ``take[0, c]`` to the first
    box, the next ones to the second, and so on.  Free position i (0-based, over the whole run) is
    i plus the taken positions that have at most i free ones before them."""
    before = taken - np.arange(taken.size)  # free positions before each taken one
    free = cuts - np.searchsorted(taken, cuts)  # free positions before each cut
    cells = [np.split(rng.choice(hi - lo, int(t.sum()), replace=False) + lo, np.cumsum(t)[:-1])
             for lo, hi, t in zip(free[:-1], free[1:], take.T)]
    ranks = (np.sort(np.concatenate(box)) for box in zip(*cells))
    return [i + np.searchsorted(before, i, side="right") for i in ranks]


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
    """``top_cells`` of :class:`UrnBatch`: rank by rank, the box of that rank in every run draws its
    balls in each cell but the last by one hypergeometric array call over the room its run's cells
    have left."""
    room = np.tile(np.diff(cuts), (top.shape[0], 1))
    cells = np.zeros((*top.shape, room.shape[1]), dtype=np.int64)
    for rank in range(WALK):
        left = np.where(top[:, rank] >= 0, counts[top[:, rank]], 0)
        for c in range(room.shape[1] - 1):
            cells[:, rank, c] = rng.hypergeometric(room[:, c], room[:, c + 1:].sum(axis=1), left)
            left = left - cells[:, rank, c]
        cells[:, rank, -1] = left
        room -= cells[:, rank]
    return cells


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


def simulate_batch(beta: float, n: int, rng: np.random.Generator, runs: int, family=()) -> UrnBatch:
    """``runs`` runs of the urn for n rounds, deterministic given (beta, n, the state of rng, runs,
    family).

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
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ResourceError(f"n={n} exceeds the allocation budget n <= {MAX_N}")
    size = min(nu_count(beta, n), ZETA_TABLE_SIZE)
    head = rng.multinomial(n, _zeta_head(1.0 / beta, size), size=runs)
    rest = head[:, -1]
    # the pooled rest keys, each run's slice sorted in place
    tail = _zeta_tail(rng, 1.0 / beta, int(rest.sum()), size)
    ends = np.cumsum(rest)
    for lo, hi in zip((ends - rest).tolist(), ends.tolist()):
        tail[lo:hi].sort()
    tail_run = np.repeat(np.arange(runs), rest)
    new = np.ones(tail.size, dtype=bool)
    new[1:] = (tail[1:] != tail[:-1]) | (tail_run[1:] != tail_run[:-1])
    first = np.flatnonzero(new)
    run, label = np.nonzero(head[:, :-1])
    counts = np.concatenate([head[run, label], np.diff(np.append(first, tail.size))])
    run = np.concatenate([run, tail_run[first]])
    order = np.argsort(run, kind="stable")  # each run's labels up to L, then its other keys
    run, keys, counts = run[order], np.concatenate([label + 1.0, tail[first]])[order], counts[order]
    marks = pareto_sample_batch(rng, keys.size)
    k_n = np.bincount(run, minlength=runs)
    top = _top(run, marks, k_n, np.cumsum(k_n) - k_n, WALK)
    cuts = _cuts(tuple(family), n)
    top_cells = _walk(rng, counts, top, cuts)
    streams = rng.integers(2 ** 64, size=(runs, 2), dtype=np.uint64)
    return UrnBatch(beta=beta, n=n, cuts=cuts, run=run, keys=keys, counts=counts, marks=marks,
                    k_n=k_n, top=top, top_cells=top_cells, streams=streams)


def simulate(beta: float, n: int, seed: int, replica: int = 0) -> UrnBatch:
    """One run: the batch of one that :func:`simulate_batch` draws from ``replica_rng(seed, replica)``."""
    return simulate_batch(beta, n, replica_rng(seed, replica), 1)


def _label_int(key: float) -> int:
    """The decimal label of a key: the key itself, or 2**-key for a log-key."""
    if key > 0:
        return int(key)
    whole = math.floor(-key)
    return int(2.0 ** (-key - whole) * 2 ** 52) << (whole - 52)


def top_marks(batch: UrnBatch, m: int) -> np.ndarray:
    """(runs, m) marks of the mark ranks 0..m-1 of every run, m <= WALK; NaN past its k_n."""
    if m > WALK:
        raise ValueError(f"top_marks reads the walked ranks, m <= WALK = {WALK}, got m = {m}")
    top = batch.top[:, :m]
    return np.where(top >= 0, batch.marks[top], np.nan)


def top_m(batch: UrnBatch, m: int) -> list:
    """The m largest distinct-box marks of a batch of one run, with labels and location sets.

    Returns k_n entries when the run has fewer occupied boxes than m; equal
    marks keep box order.  The ranks below WALK are the batch's walked boxes
    ``top[0]``, with its :meth:`UrnBatch.walked_positions` as location sets:
    O(the printed counts).  The deeper ranks rank the run's marks again, take
    their cells' rows from :meth:`UrnBatch.cells_of` and are placed by the
    same stream, after the walked sample, in the positions the walked boxes
    leave (:func:`_place`): O(k_n + the printed counts), not O(n).  So the
    first WALK ranks do not depend on m.
    Raises ValueError for a batch of more than one run.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if batch.runs != 1:
        raise ValueError(f"top_m reads a batch of one run, got {batch.runs} runs")
    top = batch.top[0, :m] if m <= WALK else _top(batch.run, batch.marks, batch.k_n, batch.start,
                                                  min(m, int(batch.k_n[0])))[0]
    top = top[top >= 0]  # -1 marks a walked rank past k_n
    rng, positions = batch._walked(0)
    if top.size > WALK:  # run 0's boxes start at index 0
        positions += _place(rng, batch.cuts, batch.cells_of(0)[top[WALK:]], np.sort(np.concatenate(positions)))
    return [TopOrderStat(rank=rank + 1, value=float(batch.marks[box]),
                         value_normalized=float(batch.marks[box] / batch.b_n),
                         label=_label_int(batch.keys[box]),
                         locations=tuple((pos / batch.n).tolist()))
            for rank, (box, pos) in enumerate(zip(top, positions))]


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


def ranked_hit(batch: UrnBatch, rank: int, a: IntervalSet) -> np.ndarray:
    """Per run, whether its box of mark rank ``rank`` < WALK has a draw in the set (False past k_n)."""
    if not 0 <= rank < WALK:
        raise ValueError(f"ranked_hit reads the walked ranks, 0 <= rank < WALK = {WALK}, got rank = {rank}")
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
        codes = codes + (_hit(batch.cells, _inside(batch, a)).astype(np.intp) << k)
    return np.bincount(codes, minlength=batch.runs << len(family)).reshape(batch.runs, -1)


def occupancy_histogram(batch: UrnBatch) -> dict:
    """Map ball-count k to the number of boxes holding exactly k balls, over every run of the batch."""
    sizes, freq = np.unique(batch.counts, return_counts=True)
    return {int(k): int(c) for k, c in zip(sizes, freq)}
