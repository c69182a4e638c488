import copy
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm.distributions import (
    ZETA_TABLE_SIZE,
    HeavyTailSpec,
    _zeta_pmf,
    _zeta_tail,
    pareto_sample_batch,
)
from karlin_rsm.interval_sets import normalize
from karlin_rsm.karlin_sim import (
    MAX_N,
    THREAD_BREAK_EVEN,
    WALK,
    FrequencyModel,
    ResourceError,
    b_n,
    empirical_sup,
    occupancy_histogram,
    occupancy_json,
    pattern_count_table,
    ranked_hit,
    replica_rng,
    simulate,
    threads_pay,
    top_boxes,
    top_m,
    top_m_csv,
    variant_star_sup,
)

from karlin_rsm.verify import two_sample_ks, two_sample_ks_critical

from oracles import expected_boxes, reference_urn, zeta_series

MODEL = FrequencyModel(beta=0.5)
SPEC = HeavyTailSpec(alpha=1.0)


class TestFrequencyModel:
    def test_zeta_norm_against_series(self):
        for beta in (0.3, 0.5, 0.8):
            m = FrequencyModel(beta=beta)
            assert m.zeta_norm == pytest.approx(zeta_series(1.0 / beta), abs=1e-12)

    def test_probabilities_decrease_and_sum(self):
        m = FrequencyModel(beta=0.4)
        ps = [ell ** -m.s / m.zeta_norm for ell in range(1, 2000)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        # truncated sum plus integral bracket covers 1
        assert sum(ps) < 1.0 < sum(ps) + 2000 ** (1 - m.s) / (m.s - 1) / m.zeta_norm + 1e-6

    def test_nu_count_values(self):
        # floor((x / zeta(2)) ** 0.5) with zeta(2) = pi^2 / 6
        assert MODEL.nu_count(10 ** 6) == int(math.sqrt(10 ** 6 / (math.pi ** 2 / 6))) == 779
        assert MODEL.nu_count(10 ** 4) == 77
        assert MODEL.nu_count(1.0) == 0

    def test_nu_count_is_exact_count(self):
        m = FrequencyModel(beta=0.37)
        for x in (3.7, 10.0, 123.4, 9999.0):
            k = m.nu_count(x)
            if k >= 1:
                assert 1.0 / (k ** -m.s / m.zeta_norm) <= x
            assert 1.0 / ((k + 1) ** -m.s / m.zeta_norm) > x

    def test_b_n_values(self):
        assert b_n(MODEL, SPEC, 10 ** 4) == pytest.approx(math.gamma(0.5) * 77, rel=1e-12)
        assert b_n(MODEL, HeavyTailSpec(alpha=2.0), 10 ** 4) == pytest.approx(
            math.sqrt(math.gamma(0.5) * 77), rel=1e-12
        )
        # unit-count point: nu((0, 2]) = 1
        assert MODEL.nu_count(2) == 1
        assert b_n(MODEL, SPEC, 2) == pytest.approx(math.gamma(0.5), rel=1e-12)

    def test_threads_pay_from_the_break_even(self):
        # n P(Y > 2**12) >= 2**12 tail keys: beta 0.9 from n of about 1.1e4, beta 0.5 never below MAX_N
        assert THREAD_BREAK_EVEN == 2 ** 12
        cases = ((0.9, 10 ** 4), (0.9, 2 * 10 ** 4), (0.5, MAX_N))
        assert [threads_pay(FrequencyModel(beta), n) for beta, n in cases] == [False, True, False]


class TestSimulate:
    def test_single_draw(self):
        run = simulate(MODEL, SPEC, 1, seed=5)
        assert run.k_n == 1
        assert run.counts.tolist() == [1] and run.cells.tolist() == [[1]]
        assert run.draws.tolist() == run.labels.tolist() and run.marks[0] >= 1.0

    def test_counts_sum_to_n(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=1)
        assert int(run.counts.sum()) == 10 ** 4
        assert run.k_n == len(set(int(y) for y in run.draws))

    def test_mark_reuse_is_bitwise(self):
        run = simulate(MODEL, SPEC, 5000, seed=2)
        marks = {}
        for y, x in zip(run.draws, run.marks[np.searchsorted(run.labels, run.draws)]):
            key = int(y)
            if key in marks:
                assert marks[key] == x  # same box, identical float
            else:
                marks[key] = x

    def test_determinism_and_replica_streams(self):
        a = simulate(MODEL, SPEC, 2000, seed=9)
        b = simulate(MODEL, SPEC, 2000, seed=9)
        c = simulate(MODEL, SPEC, 2000, seed=9, replica=1)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.marks, b.marks)
        assert not np.array_equal(a.draws, c.draws)

    def test_marks_in_key_order_from_the_stream(self):
        # the stream: the head counts of the labels 1..L and the rest, the binomial count of
        # the rest's keys up to the table's end, their uniforms, the tail keys, and then the
        # k_n Pareto marks, unpermuted
        n = 5000
        for beta in (0.5, 0.9):
            model = FrequencyModel(beta)
            run = simulate(model, SPEC, n, seed=3, replica=2, family=(normalize([(0.0, 0.3)]),))
            size = model.nu_count(n)
            assert 0 < size < ZETA_TABLE_SIZE
            pmf = _zeta_pmf(model.s)
            cdf = np.cumsum(pmf[size:-1])
            rng = replica_rng(3, 2)
            head = rng.multinomial(n, np.append(pmf[:size], cdf[-1] + pmf[-1]))
            inside = rng.binomial(head[-1], cdf[-1] / (cdf[-1] + pmf[-1]))
            table = size + 1.0 + np.searchsorted(cdf, rng.random(inside) * cdf[-1], side="right")
            assert np.all(table <= ZETA_TABLE_SIZE)
            tail = _zeta_tail(rng, model.s, int(head[-1] - inside))
            keys = np.concatenate([np.repeat(np.arange(1.0, size + 1), head[:-1]), table, tail])
            assert np.array_equal(run.labels, np.unique(keys))
            assert np.array_equal(run.marks, pareto_sample_batch(rng, SPEC, run.k_n))

    def test_budget(self):
        with pytest.raises(ResourceError):
            simulate(MODEL, SPEC, 10 ** 7 + 1, seed=0)
        with pytest.raises(ValueError):
            simulate(MODEL, SPEC, 0, seed=0)

    def test_occupancy_growth_single_run(self):
        run = simulate(MODEL, SPEC, 10 ** 6, seed=3)
        ratio = run.k_n / MODEL.nu_count(10 ** 6)
        assert abs(ratio - math.gamma(0.5)) <= 0.15  # one run, loose sanity

    def test_block_frequency_single_run(self):
        run = simulate(MODEL, SPEC, 10 ** 6, seed=4)
        hist = occupancy_histogram(run)
        assert abs(hist[1] / run.k_n - 0.5) <= 0.05
        assert sum(hist.values()) == run.k_n


class TestCountFirst:
    """The count-first sampler against the one-label-per-step reference urn, and exact means."""

    QUARTER = normalize([(0.0, 0.25)])
    UNIT = normalize([(0.0, 1.0)])

    # the multinomial head size L = min(nu(n), ZETA_TABLE_SIZE): L = 0, every ball in the
    # rest cell (beta 0.9 at n = 8), 0 < L < ZETA_TABLE_SIZE, and L = ZETA_TABLE_SIZE
    # (beta 0.9 at 1e5; out of reach at beta 0.5 below MAX_N)
    REGIMES = [(0.5, 10 ** 3), (0.5, 10 ** 4), (0.5, 10 ** 5),
               (0.9, 8), (0.9, 10 ** 3), (0.9, 10 ** 4), (0.9, 10 ** 5)]

    def test_regimes_cover_every_head_size(self):
        sizes = {}
        for beta, n in self.REGIMES:
            nu = FrequencyModel(beta).nu_count(n)
            regime = "empty" if nu == 0 else "table" if nu >= ZETA_TABLE_SIZE else "nu"
            sizes.setdefault(beta, set()).add(regime)
        assert sizes == {0.5: {"nu"}, 0.9: {"empty", "nu", "table"}}
        assert FrequencyModel(0.5).nu_count(MAX_N) < ZETA_TABLE_SIZE

    @pytest.mark.parametrize("beta, n", REGIMES)
    def test_equal_in_law_to_reference(self, beta, n):
        model, reps = FrequencyModel(beta), 300
        quarter = self.QUARTER.contains_points(np.arange(n) / n)
        ours, ref = [], []
        for r in range(reps):
            run = simulate(model, SPEC, n, seed=1, replica=r, family=(self.QUARTER,))
            ours.append((run.k_n, empirical_sup(run, self.QUARTER), empirical_sup(run, self.UNIT)))
            draws, x = reference_urn(model, SPEC, n, seed=2, replica=r)
            ref.append((np.unique(draws).size, x[quarter].max(), x.max()))
        ours, ref = np.array(ours), np.array(ref)
        crit = two_sample_ks_critical(reps, reps)
        for j, name in enumerate(("k_n", "sup on [0, 1/4)", "sup on [0, 1)")):
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
            k_n = [simulate(FrequencyModel(beta), SPEC, n, seed=3, replica=r).k_n for r in range(400)]
            self._within_3_se(k_n, expected_boxes(beta, n, 0))

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_model_mean_occupancy_is_exact(self, beta):
        # the closed form the occupancy suite checks against, from n = 1 to where n p_l is
        # small only far beyond 2**12 labels
        model = FrequencyModel(beta)
        assert model.mean_occupancy(1) == pytest.approx(1.0, rel=1e-6)
        for n in (10, 10 ** 3, 10 ** 6):
            assert model.mean_occupancy(n) == pytest.approx(expected_boxes(beta, n, 0), rel=1e-6)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_mean_boxes_hitting_a_missing_b_exact(self, beta):
        # A = [0, 1/4) holds 2500 positions and B = [1/2, 1) 5000; pattern code 1 is "in A only"
        n, family = 10 ** 4, (self.QUARTER, normalize([(0.5, 1.0)]))
        counts = [pattern_count_table(simulate(FrequencyModel(beta), SPEC, n, seed=4, replica=r,
                                               family=family), family)[1] for r in range(400)]
        self._within_3_se(counts, expected_boxes(beta, 2500, 5000))


class TestLazyDraws:
    QUARTER = TestCountFirst.QUARTER
    FAMILY = (QUARTER, normalize([(0.5, 0.75)]))

    def _queries(self, run):
        return ([empirical_sup(run, a) for a in self.FAMILY], [variant_star_sup(run, a) for a in self.FAMILY],
                pattern_count_table(run, self.FAMILY).tolist(), top_m(run, 3))

    def test_reading_draws_first_changes_no_query(self):
        plain = simulate(MODEL, SPEC, 10 ** 4, seed=20, family=self.FAMILY)
        early = simulate(MODEL, SPEC, 10 ** 4, seed=20, family=self.FAMILY)
        early.draws
        assert self._queries(early) == self._queries(plain)
        assert np.array_equal(early.draws, plain.draws)

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_family_moves_only_the_cells(self, beta):
        bare = simulate(FrequencyModel(beta), SPEC, 10 ** 4, seed=21, replica=3)
        cut = simulate(FrequencyModel(beta), SPEC, 10 ** 4, seed=21, replica=3, family=self.FAMILY)
        for name in ("labels", "counts", "marks"):
            assert np.array_equal(getattr(bare, name), getattr(cut, name))
        assert bare.cells.tolist() == [bare.counts.tolist()]
        assert np.array_equal(cut.cells.sum(axis=0), cut.counts)
        assert np.array_equal(cut.cells.sum(axis=1), np.diff(cut.cuts))

    def test_query_on_an_uncut_boundary_raises(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=22, family=(self.QUARTER,))
        uncut = normalize([(0.0, 0.3)])
        for query in (empirical_sup, variant_star_sup):
            with pytest.raises(ValueError, match="not a union of the run's cells"):
                query(run, uncut)
        with pytest.raises(ValueError, match="not a union of the run's cells"):
            pattern_count_table(run, [normalize([(0.1, 0.25)])])
        # sets whose ends are cuts need no cuts of their own
        assert empirical_sup(run, normalize([(0.25, 1.0)])) <= empirical_sup(run, TestCountFirst.UNIT)


class TestWalk:
    """The mark-order walk: splits boxes one at a time, in law and pathwise like the full split."""

    FAMILY = TestLazyDraws.FAMILY

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_equal_in_law_to_reference(self, beta):
        # the sups and variant sups of both sets, and whether top box k hits set k, k = 1, 2
        model, n, reps = FrequencyModel(beta), 2000, 400
        positions = np.arange(n) / n
        inside = [a.contains_points(positions) for a in self.FAMILY]
        ours, ref = [], []
        for r in range(reps):
            run = simulate(model, SPEC, n, seed=30, replica=r, family=self.FAMILY)
            ours.append([*(empirical_sup(run, a) for a in self.FAMILY),
                         *(variant_star_sup(run, a) for a in self.FAMILY),
                         *(ranked_hit(run, k, a) for k, a in enumerate(self.FAMILY))])
            draws, x = reference_urn(model, SPEC, n, seed=31, replica=r)
            labels, first, inverse = np.unique(draws, return_index=True, return_inverse=True)
            first_visit = np.arange(n) == first[inverse]
            top = np.argsort(-x[first])[:2]  # the boxes of the two largest marks
            ref.append([*(x[mask].max() if mask.any() else 0.0 for mask in inside),
                        *(x[mask & first_visit].max() if (mask & first_visit).any() else 0.0 for mask in inside),
                        *(bool(mask[inverse == box].any()) for mask, box in zip(inside, top))])
        ours, ref = np.array(ours, dtype=float), np.array(ref, dtype=float)
        crit = two_sample_ks_critical(reps, reps)
        names = ("sup A", "sup B", "variant sup A", "variant sup B", "top 1 hits A", "top 2 hits B")
        for j, name in enumerate(names):
            stat = two_sample_ks(ours[:, j], ref[:, j])
            assert stat <= crit, f"{name}: two-sample KS {stat:.4f} above {crit:.4f}"

    @staticmethod
    def _one_position(n):
        return normalize([((n - 1) / n, 1.0)])

    def _read(self, run, first):
        """Every value of the run, after reading ``first``: the walk, the table, the draws, or a
        walk past WALK boxes (a one-position set that the top boxes almost never hit)."""
        point = self._one_position(run.n)
        family = (*self.FAMILY, point)
        reads = {
            "walk": lambda: [ranked_hit(run, k, a) for k, a in zip(range(len(run.order)), family)],
            "table": lambda: pattern_count_table(run, family).tolist(),
            "draws": lambda: run.draws.tolist(),
            "past": lambda: [empirical_sup(run, point), variant_star_sup(run, point)],
        }
        reads[first]()
        sups = [(empirical_sup(run, a), variant_star_sup(run, a)) for a in family]
        return sups, {name: read() for name, read in reads.items()}, run.cells.tolist()

    @pytest.mark.parametrize("beta, n", [(0.5, 10 ** 4), (0.9, 10 ** 4), (0.5, 4)])
    def test_reading_order_changes_no_value(self, beta, n):
        # n = 4 holds fewer than WALK boxes
        family = (*self.FAMILY, self._one_position(n))
        for replica in range(3):
            values = []
            for first in ("walk", "table", "draws", "past"):
                run = simulate(FrequencyModel(beta), SPEC, n, seed=32, replica=replica, family=family)
                values.append(self._read(run, first))
            assert all(v == values[0] for v in values[1:])
        if n == 4:
            assert run.k_n < WALK and len(run.order) == run.k_n

    @pytest.mark.parametrize("beta", [0.5, 0.9])
    def test_walk_rows_are_the_columns_of_cells(self, beta):
        for replica, read_cells_first in ((0, False), (1, True), (2, False)):
            run = simulate(FrequencyModel(beta), SPEC, 10 ** 4, seed=33, replica=replica, family=self.FAMILY)
            if read_cells_first:
                run.cells
            rows = [run.walk(rank) for rank in range(len(run.order))]
            assert len(run.order) == min(WALK, run.k_n)
            assert np.array_equal(run.order, top_boxes(run, WALK))
            for row, box in zip(rows, run.order):
                assert np.array_equal(row, run.cells[:, box])
            assert np.array_equal(run.cells.sum(axis=1), np.diff(run.cuts))

    def test_one_cell_queries_draw_nothing(self):
        unit = TestCountFirst.UNIT
        for family in ((), (unit,)):
            run = simulate(MODEL, SPEC, 10 ** 4, seed=34, family=family)
            untouched = copy.deepcopy(run.rng)
            assert empirical_sup(run, unit) == variant_star_sup(run, unit) == run.marks.max()
            assert [ranked_hit(run, k, unit) for k in range(WALK)] == [True] * WALK
            assert pattern_count_table(run, [unit]).tolist() == [0, run.k_n]
            assert run.cells.tolist() == [run.counts.tolist()]
            assert np.array_equal(run.rng.random(8), untouched.random(8))


class TestTopOrderStats:
    def test_top1_is_max(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=6)
        tops = top_m(run, 1)
        x_stream = run.marks[np.searchsorted(run.labels, run.draws)]
        assert tops[0].value == x_stream.max()
        locs = np.asarray(tops[0].locations)
        assert np.all(x_stream[(locs * run.n + 0.5).astype(int)] == tops[0].value)

    def test_values_nonincreasing_and_locations_exact(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=7)
        tops = top_m(run, 5)
        vals = [t.value for t in tops]
        assert vals == sorted(vals, reverse=True)
        for t in tops:
            idx = (np.asarray(t.locations) * run.n + 0.5).astype(int)
            # every listed index maps to the label and no unlisted one does
            listed = set(int(i) for i in idx)
            for i in range(run.n):
                if int(run.draws[i]) == t.label:
                    assert i in listed
                else:
                    assert i not in listed

    def test_rank_count_capped_by_k_n(self):
        run = simulate(MODEL, SPEC, 3, seed=8)
        assert len(top_m(run, 10)) == run.k_n

    def test_top_boxes_is_the_stable_sort_prefix(self):
        # marks drawn from 4 values tie often; ties go to the smaller key, also for m > k_n
        run = simulate(MODEL, SPEC, 10 ** 4, seed=11)
        for marks in (run.marks.copy(), np.random.default_rng(5).integers(1, 5, run.k_n).astype(float)):
            run.marks = marks
            for m in (1, 2, 5, run.k_n - 1, run.k_n, run.k_n + 3):
                assert np.array_equal(top_boxes(run, m), np.argsort(-marks, kind="stable")[:m])

    def test_csv_export_round_trip(self):
        run = simulate(MODEL, SPEC, 1000, seed=9)
        text = top_m_csv(top_m(run, 3))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["rank"] for r in rows] == ["1", "2", "3"]
        top1 = rows[0]
        assert float(top1["value"]) == top_m(run, 1)[0].value
        locs = [float(v) for v in top1["locations"].split(";")]
        assert locs == sorted(locs)

    def test_occupancy_json(self):
        run = simulate(MODEL, SPEC, 1000, seed=10)
        payload = json.loads(occupancy_json(run))
        assert payload["k_n"] == run.k_n
        assert sum(payload["histogram"].values()) == run.k_n


class TestEmpiricalSup:
    def test_full_carrier_and_empty(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=11)
        assert empirical_sup(run, normalize([(0.0, 1.0)])) == run.marks.max()
        assert empirical_sup(run, normalize([])) == 0.0

    def test_sup_measure_axiom(self):
        rng = np.random.default_rng(0)
        for r in range(25):
            pts = np.sort(rng.random(4))
            a = normalize([(pts[0], pts[1])])
            b = normalize([(pts[2], pts[3])])
            u = a.union(b)
            run = simulate(MODEL, SPEC, 10 ** 4, seed=12, replica=r, family=(a, b))
            assert empirical_sup(run, u) == max(empirical_sup(run, a), empirical_sup(run, b))


class TestVariantStar:
    def test_equals_sup_on_full_carrier(self):
        for seed in range(5):
            run = simulate(MODEL, SPEC, 10 ** 4, seed=seed)
            full = normalize([(0.0, 1.0)])
            assert variant_star_sup(run, full) == empirical_sup(run, full)

    def test_dominated_on_subsets(self):
        family = (normalize([(0.2, 0.7)]), normalize([(0.0, 0.1), (0.8, 1.0)]))
        run = simulate(MODEL, SPEC, 10 ** 4, seed=14, family=family)
        for a in family:
            assert variant_star_sup(run, a) <= empirical_sup(run, a)
        assert variant_star_sup(run, normalize([])) == 0.0


class TestPatternCounts:
    def test_full_carrier_counts_all_boxes(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=15)
        assert pattern_count_table(run, [normalize([(0.0, 1.0)])]).tolist() == [0, run.k_n]

    def test_partition_identity(self):
        # the nonzero codes of a family split the boxes hit in its union
        fam = [normalize([(0.0, 0.3)]), normalize([(0.2, 0.6)]), normalize([(0.5, 0.9)])]
        run = simulate(MODEL, SPEC, 10 ** 4, seed=16, family=fam)
        table = pattern_count_table(run, fam)
        union_all = fam[0].union(fam[1]).union(fam[2])
        assert table[1:].sum() == pattern_count_table(run, [union_all])[1]

    def test_mean_matches_limit(self):
        # tau / nu at beta = 0.5, Leb = 0.5 -> gamma(0.5) * sqrt(0.5)
        nu = MODEL.nu_count(10 ** 5)
        a = [normalize([(0.0, 0.5)])]
        vals = [
            pattern_count_table(simulate(MODEL, SPEC, 10 ** 5, seed=18, replica=r, family=a), a)[1] / nu
            for r in range(40)
        ]
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
    """Range queries and lazy fields against a scan of all n positions."""

    BETAS = (0.5, 1.0 / 1.001)  # the second puts about half the keys beyond float range

    @staticmethod
    def _brute(run):
        _, first, inverse = np.unique(run.draws, return_index=True, return_inverse=True)
        return np.arange(run.n) / run.n, first, inverse, run.marks[inverse]

    @pytest.mark.parametrize("beta", BETAS)
    def test_lazy_fields_match_full_unique(self, beta):
        # draws expands labels, counts and cells exactly: per cell, the balls of each box
        family = (normalize([(0.0, 0.25)]), normalize([(0.1, 0.6)]))
        run = simulate(FrequencyModel(beta), SPEC, 20000, seed=19, family=family)
        labels, counts = np.unique(run.draws, return_counts=True)
        assert np.array_equal(labels, run.labels) and np.array_equal(counts, run.counts)
        assert run.cuts.tolist() == [0, 2000, 5000, 12000, 20000]
        for c, (lo, hi) in enumerate(zip(run.cuts, run.cuts[1:])):
            box = np.searchsorted(run.labels, run.draws[lo:hi])
            assert np.array_equal(np.bincount(box, minlength=run.k_n), run.cells[c])

    @given(grid_family(), st.sampled_from(BETAS), st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_queries_match_position_scan(self, case, beta, seed):
        n, family = case
        run = simulate(FrequencyModel(beta), SPEC, n, seed=seed, family=family)
        positions, first, inverse, x = self._brute(run)
        first_mask = np.arange(n) == first[inverse]
        hits = np.zeros((run.k_n, len(family)), dtype=bool)
        for k, a in enumerate(family):
            mask = a.contains_points(positions)
            assert empirical_sup(run, a) == (x[mask].max() if mask.any() else 0.0)
            star = mask & first_mask
            assert variant_star_sup(run, a) == (x[star].max() if star.any() else 0.0)
            hits[inverse[mask], k] = True
        table = pattern_count_table(run, family)
        for code in range(1, 1 << len(family)):
            delta = tuple(code >> k & 1 for k in range(len(family)))
            expected = int(np.all(hits == np.array(delta, dtype=bool), axis=1).sum())
            assert table[code] == expected
        assert table.sum() == run.k_n
