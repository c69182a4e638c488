import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm.distributions import HeavyTailSpec, gamma_fn, pareto_sample_batch, zeta_sample_batch
from karlin_rsm.interval_sets import normalize
from karlin_rsm.karlin_sim import (
    FrequencyModel,
    ResourceError,
    b_n,
    empirical_sup,
    occupancy_histogram,
    occupancy_json,
    pattern_count_table,
    replica_rng,
    simulate,
    top_m,
    top_m_csv,
    variant_star_sup,
)

from oracles import zeta_series

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
        assert b_n(MODEL, SPEC, 10 ** 4) == pytest.approx(gamma_fn(0.5) * 77, rel=1e-12)
        assert b_n(MODEL, HeavyTailSpec(alpha=2.0), 10 ** 4) == pytest.approx(
            math.sqrt(gamma_fn(0.5) * 77), rel=1e-12
        )
        # unit-count point: nu((0, 2]) = 1
        assert MODEL.nu_count(2) == 1
        assert b_n(MODEL, SPEC, 2) == pytest.approx(gamma_fn(0.5), rel=1e-12)


class TestSimulate:
    def test_single_draw(self):
        run = simulate(MODEL, SPEC, 1, seed=5)
        assert run.k_n == 1
        assert run.counts.tolist() == [1]
        assert run.marks[run.inverse][0] >= 1.0

    def test_counts_sum_to_n(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=1)
        assert int(run.counts.sum()) == 10 ** 4
        assert run.k_n == len(set(int(y) for y in run.draws))

    def test_mark_reuse_is_bitwise(self):
        run = simulate(MODEL, SPEC, 5000, seed=2)
        marks = {}
        for y, x in zip(run.draws, run.marks[run.inverse]):
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
        # the k_n marks are the Pareto draws that follow the n labels, unpermuted
        run = simulate(MODEL, SPEC, 5000, seed=3, replica=2)
        rng = replica_rng(3, 2)
        keys = zeta_sample_batch(rng, MODEL.s, 5000)
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
        assert abs(ratio - gamma_fn(0.5)) <= 0.15  # one run, loose sanity

    def test_block_frequency_single_run(self):
        run = simulate(MODEL, SPEC, 10 ** 6, seed=4)
        hist = occupancy_histogram(run)
        assert abs(hist[1] / run.k_n - 0.5) <= 0.05
        assert sum(hist.values()) == run.k_n


class TestTopOrderStats:
    def test_top1_is_max(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=6)
        tops = top_m(run, 1)
        x_stream = run.marks[run.inverse]
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
        run = simulate(MODEL, SPEC, 10 ** 4, seed=12)
        rng = np.random.default_rng(0)
        for _ in range(25):
            pts = np.sort(rng.random(4))
            a = normalize([(pts[0], pts[1])])
            b = normalize([(pts[2], pts[3])])
            u = a.union(b)
            assert empirical_sup(run, u) == max(empirical_sup(run, a), empirical_sup(run, b))

    def test_normalized_form(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=13)
        a = normalize([(0.0, 0.5)])
        assert empirical_sup(run, a, normalized=True) == pytest.approx(
            empirical_sup(run, a) / run.b_n
        )


class TestVariantStar:
    def test_equals_sup_on_full_carrier(self):
        for seed in range(5):
            run = simulate(MODEL, SPEC, 10 ** 4, seed=seed)
            full = normalize([(0.0, 1.0)])
            assert variant_star_sup(run, full) == empirical_sup(run, full)

    def test_dominated_on_subsets(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=14)
        for a in (normalize([(0.2, 0.7)]), normalize([(0.0, 0.1), (0.8, 1.0)])):
            assert variant_star_sup(run, a) <= empirical_sup(run, a)
        assert variant_star_sup(run, normalize([])) == 0.0


class TestPatternCounts:
    def test_full_carrier_counts_all_boxes(self):
        run = simulate(MODEL, SPEC, 10 ** 4, seed=15)
        assert pattern_count_table(run, [normalize([(0.0, 1.0)])]).tolist() == [0, run.k_n]

    def test_partition_identity(self):
        # the nonzero codes of a family split the boxes hit in its union
        run = simulate(MODEL, SPEC, 10 ** 4, seed=16)
        fam = [normalize([(0.0, 0.3)]), normalize([(0.2, 0.6)]), normalize([(0.5, 0.9)])]
        table = pattern_count_table(run, fam)
        union_all = fam[0].union(fam[1]).union(fam[2])
        assert table[1:].sum() == pattern_count_table(run, [union_all])[1]

    def test_mean_matches_limit(self):
        # tau / nu at beta = 0.5, Leb = 0.5 -> gamma(0.5) * sqrt(0.5)
        nu = MODEL.nu_count(10 ** 5)
        a = [normalize([(0.0, 0.5)])]
        vals = [
            pattern_count_table(simulate(MODEL, SPEC, 10 ** 5, seed=18, replica=r), a)[1] / nu
            for r in range(40)
        ]
        target = gamma_fn(0.5) * math.sqrt(0.5)
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
        run = simulate(FrequencyModel(beta), SPEC, 20000, seed=19)
        _, _, inverse, _ = self._brute(run)
        assert np.array_equal(run.inverse, inverse)

    @given(grid_family(), st.sampled_from(BETAS), st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_queries_match_position_scan(self, case, beta, seed):
        n, family = case
        run = simulate(FrequencyModel(beta), SPEC, n, seed=seed)
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
