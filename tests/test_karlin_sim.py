import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from karlin_rsm import cli, karlin_sim
from karlin_rsm.distributions import (
    ZETA_TABLE_SIZE,
    _zeta_head,
    _zeta_tail,
    pareto_sample_batch,
    riemann_zeta,
)
from karlin_rsm.interval_sets import normalize
from karlin_rsm.karlin_sim import (
    CHUNK,
    MAX_N,
    THREAD_BREAK_EVEN,
    WALK,
    ResourceError,
    b_n,
    chunk_runs,
    empirical_sup,
    mean_occupancy,
    mean_pattern_counts,
    nu_count,
    occupancy_histogram,
    pattern_count_table,
    ranked_hit,
    replica_rng,
    simulate,
    simulate_batch,
    threads_pay,
    top_marks,
    top_m,
    variant_star_sup,
)

from karlin_rsm.limit_sim import pattern_rates
from karlin_rsm.verify import two_sample_ks, two_sample_ks_critical

from oracles import cell_arrangement, expected_boxes, reference_urn, zeta_series

BETA = 0.5
QUARTER = normalize([(0.0, 0.25)])
UNIT = normalize([(0.0, 1.0)])
FAMILY = (QUARTER, normalize([(0.5, 0.75)]))


def batches(beta, n, reps, seed, family=()):
    """``reps`` runs as the suites draw them: batches of ``chunk_runs`` runs, batch c from stream c."""
    size = chunk_runs(beta, n)
    return [simulate_batch(beta, n, replica_rng(seed, c), min(size, reps - c * size), family)
            for c in range(-(-reps // size))]


def boxes_of(batch, r):
    """Run r's keys and marks, in box order."""
    box = slice(batch.start[r], batch.start[r] + batch.k_n[r])
    return batch.keys[box], batch.marks[box]


def step_marks(batch, r):
    """The steps of run r in its cell arrangement, and the mark of every step."""
    draws = cell_arrangement(batch, r)
    keys, marks = boxes_of(batch, r)
    order = np.argsort(keys)
    return draws, marks[order][np.searchsorted(keys[order], draws)]


def assert_placed(batch, tops):
    """``top_m``'s location sets of a batch of one against its cells: each rank's positions are
    distinct and as many in each cell as its box's row of ``cells_of(0)``, and no position is printed
    for two ranks."""
    boxes = np.argsort(-batch.marks, kind="stable")[:len(tops)]
    cells = batch.cells_of(0)
    printed = []
    for t, box in zip(tops, boxes, strict=True):
        at = np.rint(np.asarray(t.locations) * batch.n).astype(np.int64)
        assert t.value == batch.marks[box] and at.size == batch.counts[box]
        assert np.all(np.diff(at) > 0)
        assert np.array_equal(np.diff(np.searchsorted(at, batch.cuts)), cells[box])
        printed.append(at)
    printed = np.concatenate(printed)
    assert np.unique(printed).size == printed.size


class TestFrequencyModel:
    """The box frequencies p_ell = ell**-s / zeta(s), s = 1/beta, and what they fix: nu, b_n, the chunks."""

    def test_zeta_norm_against_series(self):
        for beta in (0.3, 0.5, 0.8):
            assert riemann_zeta(1.0 / beta) == pytest.approx(zeta_series(1.0 / beta), abs=1e-12)

    def test_probabilities_decrease_and_sum(self):
        s = 1.0 / 0.4
        norm = riemann_zeta(s)
        ps = [ell ** -s / norm for ell in range(1, 2000)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        # truncated sum plus integral bracket covers 1
        assert sum(ps) < 1.0 < sum(ps) + 2000 ** (1 - s) / (s - 1) / norm + 1e-6

    def test_nu_count_values(self):
        # floor((x / zeta(2)) ** 0.5) with zeta(2) = pi^2 / 6
        assert nu_count(BETA, 10 ** 6) == int(math.sqrt(10 ** 6 / (math.pi ** 2 / 6))) == 779
        assert nu_count(BETA, 10 ** 4) == 77
        assert nu_count(BETA, 1.0) == 0

    def test_nu_count_is_exact_count(self):
        beta = 0.37
        s, norm = 1.0 / beta, riemann_zeta(1.0 / beta)
        for x in (3.7, 10.0, 123.4, 9999.0):
            k = nu_count(beta, x)
            if k >= 1:
                assert 1.0 / (k ** -s / norm) <= x
            assert 1.0 / ((k + 1) ** -s / norm) > x

    @pytest.mark.parametrize("beta", [1e-9, 1e-4, 0.0009, 1 / 1024])
    def test_nu_count_below_beta_one_over_1024(self, beta):
        # s = 1/beta >= 1024, so 2**s * zeta(s) is beyond float range: only label 1 has 1/p <= n
        for n in (10, 10 ** 7):
            assert nu_count(beta, n) == 1
            assert b_n(beta, n) == math.gamma(1.0 - beta)

    def test_b_n_values(self):
        # c_n = gamma(1 - beta) nu((0, n]), the normalisation of the Pareto(1) marks, at every alpha
        assert b_n(BETA, 10 ** 4) == pytest.approx(math.gamma(0.5) * 77, rel=1e-12)
        # unit-count point: nu((0, 2]) = 1
        assert nu_count(BETA, 2) == 1
        assert b_n(BETA, 2) == pytest.approx(math.gamma(0.5), rel=1e-12)

    def test_b_n_validation(self):
        # beta is checked first, then n; below n = zeta(2) nu is 0.  c_n takes no alpha, so it is
        # finite wherever nu is: at n = MAX_N and beta = 0.5 it is 4369.1
        for beta, n, what in ((0.0, 10, "beta"), (1.0, 10, "beta"), (1.5, 0, "beta"),
                              (BETA, 0, "n must"), (BETA, 1, "below zeta")):
            with pytest.raises(ValueError, match=what):
                b_n(beta, n)
        assert b_n(BETA, MAX_N) == pytest.approx(math.gamma(0.5) * 2465, rel=1e-12)

    def test_threads_pay_from_the_break_even(self):
        # a chunk expects 2**14 keys to sort: beta 0.5 from n of about 2e3, beta 0.9 at every n used;
        # long runs take fewer runs per chunk, so that a chunk expects at most 2**20 keys
        assert THREAD_BREAK_EVEN == 2 ** 14 and CHUNK == 2 ** 8
        cases = ((0.5, 10 ** 3), (0.5, 2000), (0.5, 10 ** 4), (0.9, 100), (0.9, 10 ** 5))
        assert [threads_pay(beta, n) for beta, n in cases] == [False, True, True, True, True]
        assert [chunk_runs(beta, n) for beta, n in cases] == [CHUNK] * 4 + [25]
        assert chunk_runs(0.99, MAX_N) == 1


class TestSimulate:
    def test_single_draw(self):
        batch = simulate(BETA, 1, seed=5)
        assert isinstance(batch, karlin_sim.UrnBatch) and batch.runs == 1 and batch.k_n[0] == 1
        assert batch.counts.tolist() == [1] and batch.cells.tolist() == [[1]]
        assert [p.tolist() for p in batch.walked_positions(0)] == [[0]] and batch.marks[0] >= 1.0

    def test_counts_sum_to_n(self):
        batch = simulate(BETA, 10 ** 4, seed=1)
        assert int(batch.counts.sum()) == 10 ** 4
        assert batch.k_n[0] == len(set(int(y) for y in batch.keys))

    def test_mark_reuse_is_bitwise(self):
        batch = simulate_batch(BETA, 5000, replica_rng(2), 3)
        for r in range(3):
            marks = {}
            for y, x in zip(*step_marks(batch, r)):
                if y in marks:
                    assert marks[y] == x  # same box, identical float
                else:
                    marks[y] = x
            assert len(marks) == batch.k_n[r]

    def test_determinism_and_replica_streams(self):
        a = simulate(BETA, 2000, seed=9)
        b = simulate(BETA, 2000, seed=9)
        c = simulate(BETA, 2000, seed=9, replica=1)
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.marks, b.marks)
        assert top_m(a, 10) == top_m(b, 10)
        assert not np.array_equal(a.marks, c.marks) and top_m(a, 10) != top_m(c, 10)

    def test_marks_in_key_order_from_the_stream(self):
        # the stream: the head counts of the labels 1..L and the rest for every run, the rest keys in
        # one pooled draw that the runs read in turn, and then the Pareto marks, unpermuted, the runs
        # in order and each run's boxes in box order (the labels up to L, then the rest keys)
        n, runs = 5000, 4
        for beta in (0.5, 0.9):
            batch = simulate_batch(beta, n, replica_rng(3, 2), runs, family=(normalize([(0.0, 0.3)]),))
            size = nu_count(beta, n)
            assert 0 < size < ZETA_TABLE_SIZE
            rng = replica_rng(3, 2)
            head = rng.multinomial(n, _zeta_head(1.0 / beta, size), size=runs)
            rest = head[:, -1]
            tail = np.split(_zeta_tail(rng, 1.0 / beta, int(rest.sum()), size), np.cumsum(rest)[:-1])
            for r in range(runs):
                labels, balls = np.unique(tail[r], return_counts=True)
                keys = np.concatenate([np.flatnonzero(head[r, :-1]) + 1.0, labels])
                counts = np.concatenate([head[r, :-1][head[r, :-1] > 0], balls])
                box = slice(batch.start[r], batch.start[r] + batch.k_n[r])
                assert np.array_equal(batch.keys[box], keys) and np.array_equal(batch.counts[box], counts)
            assert np.array_equal(batch.marks, pareto_sample_batch(rng, batch.keys.size))

    def test_budget(self):
        with pytest.raises(ResourceError):
            simulate(BETA, 10 ** 7 + 1, seed=0)
        with pytest.raises(ValueError):
            simulate(BETA, 0, seed=0)

    def test_validation(self):
        # the frequency index beta is checked where it enters; the urn takes no alpha (its marks are
        # Pareto(1), see TestPareto), so the CLI and the suites check alpha
        for beta in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="beta"):
                simulate_batch(beta, 100, replica_rng(0), 2)
            with pytest.raises(ValueError, match="beta"):
                simulate(beta, 100, seed=0)

    def test_occupancy_growth_single_run(self):
        batch = simulate(BETA, 10 ** 6, seed=3)
        ratio = batch.k_n[0] / nu_count(BETA, 10 ** 6)
        assert abs(ratio - math.gamma(0.5)) <= 0.15  # one run, loose sanity

    def test_block_frequency_single_run(self):
        batch = simulate(BETA, 10 ** 6, seed=4)
        hist = occupancy_histogram(batch)
        assert abs(hist[1] / batch.k_n[0] - 0.5) <= 0.05
        assert sum(hist.values()) == batch.k_n[0]


class TestCountFirst:
    """Batches against the one-label-per-step reference urn, and exact means."""

    HALF = normalize([(0.5, 1.0)])

    # the multinomial head size L = min(nu(n), ZETA_TABLE_SIZE): L = 0, every ball in the
    # rest cell (beta 0.9 at n = 8), 0 < L < ZETA_TABLE_SIZE, and L = ZETA_TABLE_SIZE
    # (beta 0.9 at 1e5; out of reach at beta 0.5 below MAX_N)
    REGIMES = [(0.5, 10 ** 3), (0.5, 10 ** 4), (0.5, 10 ** 5),
               (0.9, 8), (0.9, 10 ** 3), (0.9, 10 ** 4), (0.9, 10 ** 5)]

    def test_regimes_cover_every_head_size(self):
        sizes = {}
        for beta, n in self.REGIMES:
            nu = nu_count(beta, n)
            regime = "empty" if nu == 0 else "table" if nu >= ZETA_TABLE_SIZE else "nu"
            sizes.setdefault(beta, set()).add(regime)
        assert sizes == {0.5: {"nu"}, 0.9: {"empty", "nu", "table"}}
        assert nu_count(0.5, MAX_N) < ZETA_TABLE_SIZE

    FAMILY_LAW = (QUARTER, HALF)
    NAMES = ("k_n", "singletons", "largest count", "sup on A", "sup on [0, 1)", "variant sup on A",
             "top 1 hits A", "top 2 hits B", "boxes in A only", "boxes in B only", "boxes in both")

    def _ours(self, batch):
        a, b = self.FAMILY_LAW
        largest = np.maximum.reduceat(batch.counts, batch.start)
        return np.column_stack([
            batch.k_n, np.bincount(batch.run[batch.counts == 1], minlength=batch.runs), largest,
            empirical_sup(batch, a), empirical_sup(batch, UNIT), variant_star_sup(batch, a),
            ranked_hit(batch, 0, a), ranked_hit(batch, 1, b),
            pattern_count_table(batch, self.FAMILY_LAW)[:, 1:],
        ])

    @staticmethod
    def _reference(draws, x, masks):
        labels, first, inverse, counts = np.unique(draws, return_index=True, return_inverse=True,
                                                   return_counts=True)
        first_visit = np.arange(draws.size) == first[inverse]
        top = np.argsort(-x[first], kind="stable")[:2]  # the boxes of the two largest marks
        hit = [np.bincount(inverse[mask], minlength=labels.size) > 0 for mask in masks]
        code = hit[0] + 2 * hit[1]
        a = masks[0]
        return [labels.size, (counts == 1).sum(), counts.max(),
                x[a].max() if a.any() else 0.0, x.max(),
                x[a & first_visit].max() if (a & first_visit).any() else 0.0,
                a[inverse == top[0]].any(), top.size > 1 and masks[1][inverse == top[1]].any(),
                *(np.sum(code == c) for c in (1, 2, 3))]

    @pytest.mark.parametrize("beta, n", REGIMES)
    def test_equal_in_law_to_reference(self, beta, n):
        # each statistic by two-sample KS at the 99 % level
        reps = 300
        ours = np.concatenate([self._ours(batch) for batch in batches(beta, n, reps, 1, self.FAMILY_LAW)])
        masks = [a.contains_points(np.arange(n) / n) for a in self.FAMILY_LAW]
        ref = np.array([self._reference(*reference_urn(beta, n, seed=2, replica=r), masks)
                        for r in range(reps)], dtype=float)
        crit = two_sample_ks_critical(reps, reps)
        for j, name in enumerate(self.NAMES):
            stat = two_sample_ks(ours[:, j], ref[:, j])
            assert stat <= crit, f"{name}: two-sample KS {stat:.4f} above {crit:.4f}"

    @staticmethod
    def _within_3_se(values, target):
        values = np.asarray(values, dtype=float)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - target) <= 3.0 * se, (values.mean(), target, se)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_mean_occupancy_exact(self, beta):
        # E K_n = sum_l 1 - (1 - p_l)**n, in every head size regime
        for n in {0.5: (10 ** 3, 10 ** 4), 0.9: (8, 10 ** 4, 10 ** 5)}[beta]:
            k_n = np.concatenate([batch.k_n for batch in batches(beta, n, 400, 3)])
            self._within_3_se(k_n, expected_boxes(beta, n, 0))

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_model_mean_occupancy_is_exact(self, beta):
        # the closed form the occupancy suite checks against, from n = 1 to where n p_l is
        # small only far beyond 2**12 labels
        assert mean_occupancy(beta, 1) == pytest.approx(1.0, rel=1e-6)
        for n in (10, 10 ** 3, 10 ** 6):
            assert mean_occupancy(beta, n) == pytest.approx(expected_boxes(beta, n, 0), rel=1e-6)

    def test_mean_occupancy_domain(self):
        # s = 1/beta is rounded, so s - 1 loses its digits as beta -> 1: at n = 1e4 these read
        # 10000.0000095, 1.11e4 and 2.0e4, more than n
        for beta in (1 - 1e-7, 1 - 1e-15, 1 - 2 ** -53):
            with pytest.raises(ValueError, match=r"1 - beta >= 1e-7"):
                mean_occupancy(beta, 10 ** 4)

    def test_mean_occupancy_where_p_1_rounds_to_1(self):
        # below beta of about 0.02, p_1 = 1 / zeta(1/beta) rounds to 1: every draw falls in box 1
        assert mean_occupancy(0.01, 1000) == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_mean_boxes_hitting_a_missing_b_exact(self, beta):
        # A = [0, 1/4) holds 2500 positions and B = [1/2, 1) 5000; pattern code 0 is "in neither", 1 "in A only",
        # 2 "in B only" and 3 "in both"
        n = 10 ** 4
        tables = np.concatenate([pattern_count_table(batch, self.FAMILY_LAW)
                                 for batch in batches(beta, n, 400, 4, self.FAMILY_LAW)])
        both = expected_boxes(beta, 2500, 0) + expected_boxes(beta, 5000, 0) - expected_boxes(beta, 7500, 0)
        means = mean_pattern_counts(beta, n, self.FAMILY_LAW)
        for code, target in ((0, expected_boxes(beta, 2500, 7500)), (1, expected_boxes(beta, 2500, 5000)),
                             (2, expected_boxes(beta, 5000, 2500)), (3, both)):
            self._within_3_se(tables[:, code], target)
            assert means[code] == pytest.approx(target, rel=1e-6)

    def test_mean_pattern_count_of_overlapping_sets(self):
        # [0, 0.3) and [0.2, 0.6) at n = 1e4: 2000 positions in the first only, 1000 in both and
        # 3000 in the second only; code 3 hits both sets, through the overlap or through both sides
        fam, n = (normalize([(0.0, 0.3)]), normalize([(0.2, 0.6)])), 10 ** 4
        for beta in (0.5, 0.9):
            only_first = expected_boxes(beta, 2000, 4000)
            only_second = expected_boxes(beta, 3000, 3000)
            both = expected_boxes(beta, 6000, 0) - only_first - only_second
            got = mean_pattern_counts(beta, n, fam).tolist()
            assert got == pytest.approx([expected_boxes(beta, 4000, 6000), only_first, only_second, both], rel=1e-6)

    def test_exact_pattern_means_tend_to_the_limit(self):
        # the table of E[boxes hit in exactly the sets S] / nu(n) -> gamma(1 - beta) p_S, entry by entry,
        # the largest relative gap shrinking in n; FAMILY is disjoint, so entry 3 holds the boxes hit in both
        for beta in (0.5, 0.9):
            limit = math.gamma(1.0 - beta) * pattern_rates(beta, FAMILY)
            gaps = [np.abs(mean_pattern_counts(beta, n, FAMILY) / nu_count(beta, n) / limit - 1.0).max()
                    for n in (10 ** 3, 10 ** 5, 10 ** 7, 10 ** 9)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.01, (beta, gaps)


class TestLazyDraws:
    """The batch splits a run's other boxes and places its balls only when they are read."""

    def _queries(self, batch):
        return ([empirical_sup(batch, a).tolist() for a in FAMILY],
                [variant_star_sup(batch, a).tolist() for a in FAMILY],
                pattern_count_table(batch, FAMILY).tolist(), top_marks(batch, 3).tolist())

    def test_reading_draws_first_changes_no_query(self):
        plain = simulate_batch(BETA, 10 ** 4, replica_rng(20), 4, FAMILY)
        early = simulate_batch(BETA, 10 ** 4, replica_rng(20), 4, FAMILY)
        # split run 2 before run 0, and both before any query
        drawn = {r: cell_arrangement(early, r).tolist() for r in (2, 0)}
        placed = {r: [p.tolist() for p in early.walked_positions(r)] for r in (2, 0)}
        assert self._queries(early) == self._queries(plain)
        # the queries split run 2 before run 0 too, so compare with a batch split in run order
        forward = simulate_batch(BETA, 10 ** 4, replica_rng(20), 4, FAMILY)
        assert drawn == {r: cell_arrangement(forward, r).tolist() for r in (0, 2)}
        assert placed == {r: [p.tolist() for p in plain.walked_positions(r)] for r in (2, 0)}

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_family_moves_only_the_cells(self, beta):
        bare = simulate_batch(beta, 10 ** 4, replica_rng(21, 3), 5)
        cut = simulate_batch(beta, 10 ** 4, replica_rng(21, 3), 5, FAMILY)
        for name in ("run", "keys", "counts", "marks", "k_n", "top"):
            assert np.array_equal(getattr(bare, name), getattr(cut, name))
        assert bare.cells.tolist() == bare.counts[:, None].tolist()
        assert np.array_equal(cut.cells.sum(axis=1), cut.counts)
        assert np.array_equal(cut.cells.sum(axis=0), 5 * np.diff(cut.cuts))

    def test_query_on_an_uncut_boundary_raises(self):
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(22), 3, (QUARTER,))
        uncut = normalize([(0.0, 0.3)])
        for query in (empirical_sup, variant_star_sup):
            with pytest.raises(ValueError, match="not a union of the run's cells"):
                query(batch, uncut)
        with pytest.raises(ValueError, match="not a union of the run's cells"):
            pattern_count_table(batch, [normalize([(0.1, 0.25)])])
        # sets whose ends are cuts need no cuts of their own
        assert np.all(empirical_sup(batch, normalize([(0.25, 1.0)])) <= empirical_sup(batch, UNIT))


class TestWalk:
    """The walk of the top WALK boxes of every run: in law and pathwise like the full split."""

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_equal_in_law_to_reference(self, beta):
        # the sups and variant sups of both sets, and whether top box k hits set k, k = 1, 2
        n, reps = 2000, 400
        positions = np.arange(n) / n
        inside = [a.contains_points(positions) for a in FAMILY]
        ours = np.concatenate([np.column_stack([*(empirical_sup(batch, a) for a in FAMILY),
                                                *(variant_star_sup(batch, a) for a in FAMILY),
                                                *(ranked_hit(batch, k, a) for k, a in enumerate(FAMILY))])
                               for batch in batches(beta, n, reps, 30, FAMILY)])
        ref = []
        for r in range(reps):
            draws, x = reference_urn(beta, n, seed=31, replica=r)
            labels, first, inverse = np.unique(draws, return_index=True, return_inverse=True)
            first_visit = np.arange(n) == first[inverse]
            top = np.argsort(-x[first])[:2]  # the boxes of the two largest marks
            first_in = [mask & first_visit for mask in inside]
            ref.append([*(x[mask].max() if mask.any() else 0.0 for mask in inside),
                        *(x[mask].max() if mask.any() else 0.0 for mask in first_in),
                        *(bool(mask[inverse == box].any()) for mask, box in zip(inside, top))])
        ref = np.array(ref, dtype=float)
        crit = two_sample_ks_critical(reps, reps)
        names = ("sup A", "sup B", "variant sup A", "variant sup B", "top 1 hits A", "top 2 hits B")
        for j, name in enumerate(names):
            stat = two_sample_ks(ours[:, j], ref[:, j])
            assert stat <= crit, f"{name}: two-sample KS {stat:.4f} above {crit:.4f}"

    @staticmethod
    def _one_position(n):
        return normalize([((n - 1) / n, 1.0)])

    def _read(self, batch, first):
        """Every value of the batch, after reading ``first``: the walk, the table, the runs' cell
        arrangements and walked positions (last run first), or sups past the WALK boxes (a
        one-position set that the top boxes almost never hit)."""
        point = self._one_position(batch.n)
        family = (*FAMILY, point)
        reads = {
            "walk": lambda: [ranked_hit(batch, k, a).tolist() for k, a in enumerate(family)],
            "table": lambda: pattern_count_table(batch, family).tolist(),
            "positions": lambda: ([cell_arrangement(batch, r).tolist() for r in reversed(range(batch.runs))],
                                  [[p.tolist() for p in batch.walked_positions(r)]
                                   for r in reversed(range(batch.runs))]),
            "past": lambda: [empirical_sup(batch, point).tolist(), variant_star_sup(batch, point).tolist()],
        }
        reads[first]()
        sups = [(empirical_sup(batch, a).tolist(), variant_star_sup(batch, a).tolist()) for a in family]
        return sups, {name: read() for name, read in reads.items()}, batch.cells.tolist()

    @pytest.mark.parametrize("beta, n", [(0.5, 10 ** 4), (0.9, 10 ** 4), (0.5, 4)])
    def test_reading_order_changes_no_value(self, beta, n):
        # n = 4 holds fewer than WALK boxes
        family = (*FAMILY, self._one_position(n))
        values = []
        for first in ("walk", "table", "positions", "past"):
            batch = simulate_batch(beta, n, replica_rng(32), 3, family)
            values.append(self._read(batch, first))
        assert all(v == values[0] for v in values[1:])
        if n == 4:
            assert np.all(batch.k_n < WALK) and np.array_equal((batch.top >= 0).sum(axis=1), batch.k_n)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_walk_rows_are_the_columns_of_cells(self, beta):
        batch = simulate_batch(beta, 10 ** 4, replica_rng(33), 6, FAMILY)
        for r in range(batch.runs):
            top = batch.top[r][batch.top[r] >= 0]
            keys, marks = boxes_of(batch, r)
            assert top.size == min(WALK, batch.k_n[r])
            assert np.array_equal(top - batch.start[r], np.argsort(-marks, kind="stable")[:WALK])
            assert np.array_equal(batch.top_cells[r, :top.size], batch.cells_of(r)[top - batch.start[r]])
            assert np.array_equal(batch.cells_of(r).sum(axis=0), np.diff(batch.cuts))
        assert not batch.top_cells[batch.top < 0].any()

    def test_top_marks_stop_at_walk(self):
        # the batch walks WALK ranks; asking for more is an error, not fewer columns
        batch = simulate(BETA, 10 ** 4, seed=1)
        assert top_marks(batch, WALK).shape == (1, WALK)
        with pytest.raises(ValueError, match="WALK = 5"):
            top_marks(batch, 8)

    def test_ranked_hit_stops_at_walk(self):
        batch = simulate(BETA, 10 ** 4, seed=1)
        assert ranked_hit(batch, WALK - 1, UNIT).tolist() == [True]
        for rank in (WALK, -1):
            with pytest.raises(ValueError, match="WALK = 5"):
                ranked_hit(batch, rank, UNIT)

    def test_one_cell_queries_draw_nothing(self, monkeypatch):
        def no_stream(key):
            raise AssertionError("a run's stream was made")

        for family in ((), (UNIT,)):
            batch = simulate_batch(BETA, 10 ** 4, replica_rng(34), 3, family)
            with monkeypatch.context() as patch:
                patch.setattr(karlin_sim, "_stream", no_stream)
                top = np.maximum.reduceat(batch.marks, batch.start)
                assert np.array_equal(empirical_sup(batch, UNIT), top)
                assert np.array_equal(variant_star_sup(batch, UNIT), top)
                assert all(ranked_hit(batch, k, UNIT).all() for k in range(WALK))
            # the other boxes' cells take their run's own split, which over one cell is the counts
            assert pattern_count_table(batch, [UNIT]).tolist() == [[0, k] for k in batch.k_n]
            assert batch.cells.tolist() == batch.counts[:, None].tolist()


class TestTopOrderStats:
    def test_top1_is_max(self):
        batch = simulate(BETA, 10 ** 4, seed=6)
        tops = top_m(batch, 1)
        _, x_stream = step_marks(batch, 0)
        assert tops[0].value == x_stream.max()
        assert_placed(batch, tops)

    def test_values_nonincreasing_and_locations_exact(self):
        # one cell, and the four cells of FAMILY's cuts
        for batch in (simulate(BETA, 10 ** 4, seed=7),
                      simulate_batch(BETA, 10 ** 4, replica_rng(7), 1, FAMILY)):
            for m in (5, 12):
                tops = top_m(batch, m)
                vals = [t.value for t in tops]
                assert vals == sorted(vals, reverse=True)
                # every rank lists its box's balls, as many in each cell as its box holds there, and no
                # position twice
                assert_placed(batch, tops)

    RANKS = (0, *range(WALK, 10))  # the top box, walked, and the ranks 6..10 placed past the walk

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_locations_equal_in_law_to_reference(self, beta):
        # each rank's first location and its number of locations, from the positions that top_m
        # prints, against the positions scanned in the step-by-step reference urn
        n, reps = 1000, 1000
        ours, ref = [], []
        for r in range(reps):
            tops = top_m(simulate(beta, n, seed=40, replica=r), 10)
            ours.append([(tops[k].locations[0], len(tops[k].locations)) for k in self.RANKS])
            draws, x = reference_urn(beta, n, seed=41, replica=r)
            _, first, inverse = np.unique(draws, return_index=True, return_inverse=True)
            boxes = np.argsort(-x[first], kind="stable")
            at = [np.flatnonzero(inverse == boxes[k]) for k in self.RANKS]
            ref.append([(a[0] / n, a.size) for a in at])
        ours, ref = np.array(ours), np.array(ref)
        crit = two_sample_ks_critical(reps, reps)
        for j, k in enumerate(self.RANKS):
            for i, name in enumerate(("first location", "number of locations")):
                stat = two_sample_ks(ours[:, j, i], ref[:, j, i])
                assert stat <= crit, f"rank {k + 1}, {name}: two-sample KS {stat:.4f} above {crit:.4f}"

    def test_locations_cost_the_printed_counts(self):
        # top_m places only the printed boxes' balls: at n = 1e6 the expanded run peaked at 16 MB.
        # Where the printed boxes fill more than 1/50 of a cell, numpy's choice shuffles an int64 copy
        # of the cell, at most 400 bytes per location drawn.  Ranks past WALK also split the other
        # boxes over the cells (cells_of), at most 64 bytes per box.  Ranks below WALK are the walked
        # boxes: at beta 0.9, ranking the run's marks again peaked 7.5 MB beyond the locations
        for seed in range(10):
            for beta, m in ((BETA, 5), (BETA, 10), (0.9, 5)):
                batch = simulate(beta, 10 ** 6, seed=seed)
                tracemalloc.start()
                try:
                    tops = top_m(batch, m)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                printed = sum(len(st.locations) for st in tops)
                bound = 2 ** 20 + 400 * printed + (64 * int(batch.k_n[0]) if m > WALK else 0)
                assert peak < bound, (seed, beta, m, peak, printed)
                assert bool(batch._cells) == (m > WALK)

    def test_rank_count_capped_by_k_n(self):
        batch = simulate(BETA, 3, seed=8)
        assert len(top_m(batch, 10)) == batch.k_n[0]

    def test_top_m_reads_a_batch_of_one(self):
        batch = simulate_batch(BETA, 1000, replica_rng(8), 2)
        with pytest.raises(ValueError, match="batch of one run"):
            top_m(batch, 1)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_deeper_ranks_extend_the_first_five(self, beta, monkeypatch, capsys):
        # ranks past WALK are placed by one more call of the placement, in the positions the walked
        # boxes leave, and leave the first five as they are: in top_m and in the CLI's CSV at the same seed
        placed = []
        place = karlin_sim._place
        monkeypatch.setattr(karlin_sim, "_place", lambda rng, cuts, take, taken: placed.append(
            (take.shape[0], taken.size)) or place(rng, cuts, take, taken))
        batch = simulate(beta, 10 ** 4, seed=12)
        assert batch.k_n[0] > 9
        deep = top_m(batch, 9)
        walked = sum(len(t.locations) for t in deep[:WALK])
        assert placed == [(WALK, 0), (4, walked)]
        assert deep[:5] == top_m(batch, 5)
        assert_placed(batch, deep)
        rows = {}
        for m in (5, 9):
            assert cli.main(["simulate", "--beta", repr(beta), "--n", "10000", "--seed", "12",
                             "--top-m", str(m)]) == 0
            rows[m] = capsys.readouterr().out.splitlines()
        assert len(rows[9]) == 10 and rows[9][:6] == rows[5]

    def test_top_boxes_is_the_stable_sort_prefix(self, monkeypatch):
        # marks drawn from 4 values tie often; ties go to the earlier box, also for m > k_n, in the
        # batch's walked boxes as in top_m
        monkeypatch.setattr(karlin_sim, "pareto_sample_batch",
                            lambda rng, size: rng.integers(1, 5, size).astype(float))
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(11), 4)
        for r in range(batch.runs):
            _, marks = boxes_of(batch, r)
            order = np.argsort(-marks, kind="stable")
            assert np.array_equal(batch.top[r], batch.start[r] + order[:WALK])
        batch = simulate(BETA, 10 ** 4, seed=11)
        k_n = int(batch.k_n[0])
        for m in (1, 2, 5, k_n - 1, k_n, k_n + 3):
            values = [t.value for t in top_m(batch, m)]
            labels = [t.label for t in top_m(batch, m)]
            order = np.argsort(-batch.marks, kind="stable")[:m]
            assert values == batch.marks[order].tolist()
            assert labels == batch.keys[order].astype(int).tolist()

    def test_csv_export_round_trip(self, capsys):
        # the CLI's simulate CSV holds top_m of the same run, each float as its repr
        batch = simulate(BETA, 1000, seed=9)
        assert cli.main(["simulate", "--beta", repr(BETA), "--n", "1000", "--seed", "9", "--top-m", "3"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["rank"] for r in rows] == ["1", "2", "3"]
        for row, st in zip(rows, top_m(batch, 3), strict=True):
            assert (float(row["value"]), float(row["value_normalized"])) == (st.value, st.value_normalized)
            assert int(row["label"]) == st.label
            assert tuple(float(v) for v in row["locations"].split(";")) == st.locations
        locs = [float(v) for v in rows[0]["locations"].split(";")]
        assert locs == sorted(locs)

    def test_occupancy_json(self, capsys):
        batch = simulate(BETA, 1000, seed=10)
        assert cli.main(["simulate", "--beta", repr(BETA), "--n", "1000", "--seed", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n"], payload["seed"], payload["replica"]) == (1000, 10, 0)
        assert payload["k_n"] == batch.k_n[0] and payload["b_n"] == batch.b_n
        assert payload["histogram"] == {str(k): c for k, c in occupancy_histogram(batch).items()}
        assert sum(payload["histogram"].values()) == batch.k_n[0]


class TestEmpiricalSup:
    def test_full_carrier_and_empty(self):
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(11), 5)
        assert np.array_equal(empirical_sup(batch, UNIT), np.maximum.reduceat(batch.marks, batch.start))
        assert np.array_equal(empirical_sup(batch, normalize([])), np.zeros(5))

    def test_sup_measure_axiom(self):
        rng = np.random.default_rng(0)
        for r in range(25):
            pts = np.sort(rng.random(4))
            a = normalize([(pts[0], pts[1])])
            b = normalize([(pts[2], pts[3])])
            u = a.union(b)
            batch = simulate_batch(BETA, 10 ** 4, replica_rng(12, r), 3, (a, b))
            both = np.maximum(empirical_sup(batch, a), empirical_sup(batch, b))
            assert np.array_equal(empirical_sup(batch, u), both)


class TestVariantStar:
    def test_equals_sup_on_full_carrier(self):
        for seed in range(5):
            batch = simulate_batch(BETA, 10 ** 4, replica_rng(seed), 3)
            assert np.array_equal(variant_star_sup(batch, UNIT), empirical_sup(batch, UNIT))

    def test_dominated_on_subsets(self):
        family = (normalize([(0.2, 0.7)]), normalize([(0.0, 0.1), (0.8, 1.0)]))
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(14), 5, family)
        for a in family:
            assert np.all(variant_star_sup(batch, a) <= empirical_sup(batch, a))
        assert np.all(variant_star_sup(batch, normalize([])) == 0.0)


class TestPatternCounts:
    def test_full_carrier_counts_all_boxes(self):
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(15), 3)
        assert pattern_count_table(batch, [UNIT]).tolist() == [[0, k] for k in batch.k_n]

    def test_partition_identity(self):
        # the nonzero codes of a family split the boxes hit in its union
        fam = [normalize([(0.0, 0.3)]), normalize([(0.2, 0.6)]), normalize([(0.5, 0.9)])]
        batch = simulate_batch(BETA, 10 ** 4, replica_rng(16), 4, fam)
        table = pattern_count_table(batch, fam)
        union_all = fam[0].union(fam[1]).union(fam[2])
        assert np.array_equal(table[:, 1:].sum(axis=1), pattern_count_table(batch, [union_all])[:, 1])
        assert np.array_equal(table.sum(axis=1), batch.k_n)

    def test_mean_matches_limit(self):
        # tau / nu at beta = 0.5, Leb = 0.5 -> gamma(0.5) * sqrt(0.5)
        nu = nu_count(BETA, 10 ** 5)
        a = [normalize([(0.0, 0.5)])]
        vals = pattern_count_table(simulate_batch(BETA, 10 ** 5, replica_rng(18), 40, a), a)[:, 1] / nu
        target = math.gamma(0.5) * math.sqrt(0.5)
        assert abs(np.mean(vals) - target) <= 0.05 * target


@st.composite
def grid_family(draw):
    """Up to three sets of up to three intervals on [0, 1), endpoints on or next to the grid j/n."""
    n = draw(st.sampled_from([1, 7, 1000]))
    family = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        ends = sorted(
            draw(st.integers(min_value=0, max_value=n)) / n + draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
            for _ in range(2 * draw(st.integers(min_value=0, max_value=3)))
        )
        family.append(normalize([(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))
                                 for lo, hi in zip(ends[::2], ends[1::2])]))
    return n, tuple(family)


class TestAgainstBruteForce:
    """Range queries and lazy fields against a scan of all n positions of every run, in the cell arrangement."""

    BETAS = (0.5, 1.0 / 1.001)  # the second puts about half the keys beyond float range

    @pytest.mark.parametrize("beta", BETAS)
    def test_lazy_fields_match_full_unique(self, beta):
        # the keys are distinct, the cells hold every box's balls and fill every cell, and the walked
        # boxes' positions fall in the cells of their rows, none of them twice
        family = (normalize([(0.0, 0.25)]), normalize([(0.1, 0.6)]))
        batch = simulate_batch(beta, 20000, replica_rng(19), 3, family)
        assert batch.cuts.tolist() == [0, 2000, 5000, 12000, 20000]
        for r in range(batch.runs):
            keys, _ = boxes_of(batch, r)
            order = np.argsort(keys)
            labels, counts = np.unique(cell_arrangement(batch, r), return_counts=True)
            assert np.array_equal(labels, keys[order])
            assert np.array_equal(counts, batch.counts[batch.start[r] + order])
            assert np.array_equal(batch.cells_of(r).sum(axis=0), np.diff(batch.cuts))
            walked = batch.walked_positions(r)
            assert len(walked) == min(WALK, batch.k_n[r])
            for box, positions in zip(batch.top[r], walked):
                assert positions.size == batch.counts[box] and np.all(np.diff(positions) > 0)
                assert np.array_equal(np.diff(np.searchsorted(positions, batch.cuts)),
                                      batch.cells_of(r)[box - batch.start[r]])
            walked = np.concatenate(walked)
            assert np.unique(walked).size == walked.size

    @given(grid_family(), st.sampled_from([0.5, 0.9]), st.integers(0, 2 ** 32), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_printed_positions_match_the_cells(self, case, beta, seed, m):
        # every position top_m prints for ranks 0..m-1 is distinct and, per cell, as many as its box's
        # row of cells_of: the walked ranks and those placed past them (top_m needs b_n, so nu(n) > 0)
        n, family = case
        assume(nu_count(beta, n) > 0)
        batch = simulate_batch(beta, n, replica_rng(seed), 1, family)
        assert_placed(batch, top_m(batch, m))

    @given(grid_family(), st.sampled_from(BETAS), st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_queries_match_position_scan(self, case, beta, seed):
        n, family = case
        batch = simulate_batch(beta, n, replica_rng(seed), 2, family)
        positions = np.arange(n) / n
        table = pattern_count_table(batch, family)
        for r in range(batch.runs):
            draws, x = step_marks(batch, r)
            _, first, inverse = np.unique(draws, return_index=True, return_inverse=True)
            first_mask = np.arange(n) == first[inverse]
            hits = np.zeros((batch.k_n[r], len(family)), dtype=bool)
            for k, a in enumerate(family):
                mask = a.contains_points(positions)
                assert empirical_sup(batch, a)[r] == (x[mask].max() if mask.any() else 0.0)
                star = mask & first_mask
                assert variant_star_sup(batch, a)[r] == (x[star].max() if star.any() else 0.0)
                hits[inverse[mask], k] = True
            for code in range(1, 1 << len(family)):
                delta = tuple(code >> k & 1 for k in range(len(family)))
                expected = int(np.all(hits == np.array(delta, dtype=bool), axis=1).sum())
                assert table[r, code] == expected
            assert table[r].sum() == batch.k_n[r]
