import csv
import io
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from karlin_rsm import karlin_sim, verify
from karlin_rsm.cli import _report_csv, _report_json
from karlin_rsm.interval_sets import normalize
from karlin_rsm.karlin_sim import replica_rng
from karlin_rsm.verify import (
    SUITES,
    CheckRow,
    SuiteConfig,
    ks_critical,
    ks_statistic,
    run_suite,
    two_sample_ks,
    wilson_ci,
)


REPORT_FIELDS = ("suite", "check", "estimate", "target", "se_or_crit", "pass", "n", "replicas", "seed")
# runs that sort about 9700 keys each, 107 runs to a chunk, whose chunks an urn part shares among
# threads; beta 0.5 runs at n = 1e3 sort about 50 keys, and their chunks take one thread
LONG_RUNS = dict(beta=0.9, n_grid=(2 * 10 ** 4,))


class TestKsStatistic:
    def test_null_calibration(self):
        # draws from the reference stay below the 99% critical value almost
        # always: at least 95 of 100 repetitions at N = 1e4
        rng = np.random.default_rng(0)
        n = 10 ** 4
        crit = ks_critical(n)
        assert crit == pytest.approx(1.628 / math.sqrt(n), rel=0.01)
        below = sum(
            ks_statistic(np.sort(rng.standard_normal(n)), sps.norm.cdf) <= crit
            for _ in range(100)
        )
        assert below >= 95

    def test_point_mass_far_from_continuous(self):
        samples = np.full(100, 1.0)
        assert ks_statistic(samples, sps.norm.cdf) >= 0.5

    def test_self_step_cdf_is_zero(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.random(500))

        def ecdf(v):
            return np.searchsorted(x, v, side="right") / x.size

        assert ks_statistic(x, ecdf) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([1.0]), sps.norm.cdf)
        with pytest.raises(ValueError):
            ks_statistic(np.array([2.0, 1.0]), sps.norm.cdf)

    def test_two_sample_matches_scipy(self):
        # method="asymp" reports the raw statistic; the exact method rounds
        # it to a multiple of 1/lcm(n1, n2)
        def scipy_ks(a, b):
            return sps.ks_2samp(a, b, method="asymp").statistic

        rng = np.random.default_rng(2)
        a, b = rng.random(1000), rng.random(800)
        assert two_sample_ks(a, b) == scipy_ks(a, b)
        for _ in range(50):
            n1, n2 = rng.integers(1, 300, size=2)
            # ties within and across the samples
            a, b = rng.integers(0, 20, n1) / 4.0, rng.integers(0, 25, n2) / 4.0
            assert two_sample_ks(a, b) == scipy_ks(a, b)
            a, b = rng.standard_exponential(n1), rng.standard_exponential(n2)
            assert two_sample_ks(a, b) == scipy_ks(a, b)

    def test_two_sample_extremes(self):
        assert two_sample_ks([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert two_sample_ks([1.0, 2.0], [3.0]) == 1.0
        with pytest.raises(ValueError):
            two_sample_ks([], [1.0])


class TestQuantileTables:
    # the constants replace SciPy calls and must equal them to the last bit
    def test_equal_scipy(self):
        assert verify._KS_QUANTILE == sps.kstwobign.ppf(0.99)
        assert verify._NORMAL_QUANTILE == sps.norm.ppf(0.995)
        assert verify._CHI2_10_QUANTILE == sps.chi2.ppf(0.99, 10)


class TestGates:
    """The gates of the rows with a closed-form sampling law, computed without sampling."""

    @staticmethod
    def ks_gate(crit, replicas):
        values = np.ones(replicas)  # any sample: the gate depends on its size only
        return verify._frechet_row(SuiteConfig(suite="marginal"), "ks", values, 1.0, crit).se_or_crit

    @staticmethod
    def median_gate(replicas):
        values = np.ones(replicas)  # any sample: the relative gate depends on its size only
        return verify._median_row(SuiteConfig(suite="extremal-mstar"), "median", values, 1.0).se_or_crit

    def test_fixed_gate_holds_at_the_acceptance_scales(self):
        # test_05 (2000 replicas), test_09 (1e5) and test_10 (2000 discrete runs) keep their gates
        assert self.ks_gate(0.05, 2000) == 0.05 > ks_critical(2000) == pytest.approx(0.0364, abs=1e-4)
        assert self.median_gate(10 ** 5) == 0.02
        assert 2.5758 / (math.log(2.0) * math.sqrt(10 ** 5)) == pytest.approx(0.0118, abs=1e-4)
        assert self.ks_gate(0.07, 2000) == 0.07
        assert self.ks_gate(None, 2000) == ks_critical(2000)

    def test_sampling_bound_takes_over_at_small_replica_counts(self):
        # 1.6276/sqrt(R) passes 0.05 below R = 1060, 0.07 below R = 541 and 0.30 below R = 30, and
        # the median's bound passes 2 % below R = 34,500
        assert self.ks_gate(0.05, 500) == ks_critical(500) == pytest.approx(0.0728, abs=1e-4)
        assert self.ks_gate(0.05, 1059) > 0.05 == self.ks_gate(0.05, 1060)
        assert self.ks_gate(0.07, 540) > 0.07 == self.ks_gate(0.07, 541)
        assert self.ks_gate(0.30, 29) > 0.30 == self.ks_gate(0.30, 30)
        for replicas in (2500, 34_000, 35_000, 10 ** 5):
            se = 1.0 / (math.log(2.0) * math.sqrt(replicas))
            assert self.median_gate(replicas) == pytest.approx(max(0.02, verify._NORMAL_QUANTILE * se))
        assert self.median_gate(34_000) > 0.02 == self.median_gate(35_000)
        assert self.median_gate(2500) == pytest.approx(0.0743, abs=1e-4)

    def test_frechet_median_relative_se(self):
        # the sample median of Frechet(alpha) has relative SE 1/(alpha ln 2 sqrt(R)): 1/(2 f(m) m sqrt(R))
        for alpha in (0.5, 1.0, 3.0):
            m = math.log(2.0) ** (-1.0 / alpha)
            density = alpha * m ** (-alpha - 1.0) * 0.5
            assert 1.0 / (2.0 * density * m) == pytest.approx(1.0 / (alpha * math.log(2.0)))

    def test_rows_read_the_widened_gates(self):
        marginal = run_suite(SuiteConfig(suite="marginal", n_grid=(10 ** 3,), replicas=500, seed=3))
        assert marginal.rows[0].se_or_crit == ks_critical(500)
        extremal = {row.check: row for row in run_suite(
            SuiteConfig(suite="extremal-mstar", n_grid=(10 ** 3,), replicas=2500, seed=3)).rows}
        row = extremal["extremal_median_t1.0"]
        assert row.se_or_crit == pytest.approx(self.median_gate(2500) * row.target)
        assert extremal["variant_discrete_ks"].se_or_crit == 0.07


class TestMeanGate:
    """``mean_kn_ratio`` and the ``tau_*`` rows of ``patterns``: the larger of the relative constant and
    99 % of the replicas' standard error."""

    @staticmethod
    def row(values, target=1.0):
        return verify._mean_row(SuiteConfig(suite="occupancy"), "mean", np.asarray(values), target, 0.02)

    def test_constant_gate_at_small_spread(self):
        # SE 0.001: 2.576 SE is below 2 % of the target
        values = 1.0 + 0.01 * np.tile([-1.0, 1.0], 50)
        row = self.row(values, target=1.01)
        assert row.se_or_crit == pytest.approx(0.0202) and row.passed and row.replicas == 100

    def test_standard_error_gate_at_large_spread(self):
        # 100 values of SD 0.1: SE 0.01, so the gate is 2.576 SE, and a mean 2.4 % off passes
        values = 1.0 + 0.1 * np.tile([-1.0, 1.0], 50) * math.sqrt(99 / 100)
        row = self.row(values, target=1.024)
        assert row.se_or_crit == pytest.approx(verify._NORMAL_QUANTILE * 0.01)
        assert row.passed and not self.row(values, target=1.03).passed

    def test_acceptance_scale_keeps_the_constant(self):
        # test_07: n = 1e6 and 100 replicas, where the spread of K_n / nu gives an SE below 2 % / 2.576
        rep = run_suite(SuiteConfig(suite="occupancy", n_grid=(10 ** 6,), replicas=100, seed=42))
        row = next(r for r in rep.rows if r.check == "mean_kn_ratio")
        assert row.se_or_crit == pytest.approx(0.02 * row.target)

    def test_estimate_summed_elsewhere_is_kept(self):
        # the gate still reads the spread of the values
        values = 1.0 + 0.01 * np.tile([-1.0, 1.0], 50)
        row = verify._mean_row(SuiteConfig(suite="occupancy"), "mean", values, 1.0, 0.02, estimate=1.5)
        assert row.estimate == 1.5 and row.se_or_crit == pytest.approx(0.02) and not row.passed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pattern_rows_at_small_nu_take_the_standard_error(self, seed):
        # beta 0.999 at n = 1e3: nu(n) is about 1e3 and two disjoint quarters share a box in about
        # 0.09 nu runs, so the 100 replicas' SE of tau_11, about 0.02, is far above 5 % of its target
        rep = run_suite(SuiteConfig(suite="patterns", beta=0.999, n_grid=(10 ** 3,), replicas=100, seed=seed))
        row = next(r for r in rep.rows if r.check == "tau_11")
        assert row.se_or_crit > 5 * 0.05 * row.target
        assert rep.all_pass

    def test_pattern_rows_at_acceptance_scale_keep_the_constant(self):
        # test_08: n = 1e6 and 100 replicas, where every tau row's SE is below 5 % / 2.576
        rep = run_suite(SuiteConfig(suite="patterns", n_grid=(10 ** 6,), replicas=100, seed=42))
        for row in rep.rows:
            assert row.se_or_crit == pytest.approx(0.05 * row.target), row.check


class TestReplicaStreamMap:
    @staticmethod
    def _draws(rng):
        # float32 uniforms and small-range integers take 32-bit halves of the
        # 64-bit outputs: the odd total leaves a buffered half behind, and
        # the 64-bit draws stop mid Philox block
        return (rng.random(2, dtype=np.float32).tolist(), rng.random(3).tolist(),
                rng.integers(0, 1000, size=3).tolist(), rng.standard_exponential(5).tolist(),
                rng.random(2, dtype=np.float32).tolist())

    def test_reproduces_replica_rng(self):
        seed = 2 ** 64 - 12345
        for offset in (0, verify.MAX_REPLICAS):
            streamed = verify._replica_stream_map(self._draws, 5, seed, offset)
            direct = [self._draws(replica_rng(seed, offset + r)) for r in range(5)]
            assert streamed == direct


class TestWilson:
    def test_reference_value(self):
        for hits, trials in ((500, 1000), (37, 400), (3, 100)):
            ref = sps.binomtest(hits, trials).proportion_ci(confidence_level=0.99, method="wilson")
            assert wilson_ci(hits, trials) == pytest.approx((ref.low, ref.high), rel=1e-12)

    def test_extremes(self):
        assert wilson_ci(100, 100)[1] == 1.0
        assert wilson_ci(0, 100)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(1, 0)
        with pytest.raises(ValueError):
            wilson_ci(5, 3)

    def test_coverage(self):
        rng = np.random.default_rng(3)
        p = 0.3
        cover = 0
        for _ in range(500):
            hits = rng.binomial(400, p)
            lo, hi = wilson_ci(int(hits), 400)
            cover += lo <= p <= hi
        assert cover >= 485  # 99% nominal, 2 points of slack


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="occupancy", replicas=50)
        with pytest.raises(ValueError):
            SuiteConfig(suite="occupancy", replicas=100, n_grid=())
        with pytest.raises(ValueError):
            SuiteConfig(suite="marginal", replicas=verify.MAX_REPLICAS + 1)
        with pytest.raises(ValueError, match="repeats"):
            SuiteConfig(suite="marginal", replicas=100, n_grid=(1000, 1000))
        for suite in sorted(set(SUITES) - {"marginal"}):
            with pytest.raises(ValueError, match="takes one n"):
                SuiteConfig(suite=suite, replicas=100, n_grid=(1000, 10000))
        for suite in ("occupancy", "limit-vs-oracle", "extremal-mstar"):
            with pytest.raises(ValueError, match="no query family"):
                SuiteConfig(suite=suite, replicas=100, family=(normalize([(0.0, 0.5)]),))
        with pytest.raises(ValueError, match="unknown suite"):
            SuiteConfig(suite="nope")
        for suite, sets in (("locations", 6), ("patterns", 4)):
            with pytest.raises(ValueError, match="at most"):
                SuiteConfig(suite=suite, replicas=100, family=(normalize([(0.0, 0.5)]),) * sets)
        for suite in ("marginal", "locations", "patterns"):
            with pytest.raises(ValueError, match="unit carrier"):
                SuiteConfig(suite=suite, replicas=100, family=(normalize([(0.0, 0.5)], carrier=(0.0, 2.0)),))
            with pytest.raises(ValueError, match="positive measure"):
                SuiteConfig(suite=suite, replicas=100, family=(normalize([(0.0, 0.5)]), normalize([])))
        for suite, (n, replicas, _, _) in verify._SUITE_INPUTS.items():
            cfg = SuiteConfig(suite=suite)
            assert (cfg.n_grid, cfg.replicas) == ((n,), replicas)
        assert SuiteConfig(suite="marginal", replicas=verify.MAX_REPLICAS).replicas == verify.MAX_REPLICAS

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="nope", replicas=100))


class TestReports:
    def _tiny_report(self):
        cfg = SuiteConfig(
            suite="occupancy", beta=0.5, n_grid=(10 ** 4,), replicas=100, seed=7, threads=1
        )
        return run_suite(cfg)

    def test_rows_have_estimate_and_target(self):
        rep = self._tiny_report()
        assert rep.rows
        for row in rep.rows:
            assert isinstance(row, CheckRow)
            assert math.isfinite(row.estimate) and math.isfinite(row.target)

    def test_csv_round_trip(self):
        rep = self._tiny_report()
        recs = list(csv.reader(io.StringIO(_report_csv(rep))))
        assert recs[0] == list(REPORT_FIELDS)
        back = [CheckRow(*rec[:5], rec[5] == "true", *rec[6:]) for rec in recs[1:]]
        assert back == rep.rows

    def test_json_round_trip(self):
        rep = self._tiny_report()
        payload = json.loads(_report_json(rep))
        assert (payload["suite"], payload["seed"]) == (rep.suite, rep.seed)
        back = [CheckRow(*(rec[k] for k in REPORT_FIELDS)) for rec in payload["rows"]]
        assert back == rep.rows

    @staticmethod
    def _same_bytes_on_threads(**base):
        rep1 = run_suite(SuiteConfig(threads=1, **base))
        rep4 = run_suite(SuiteConfig(threads=4, **base))
        assert _report_csv(rep1) == _report_csv(rep4)
        assert _report_json(rep1) == _report_json(rep4)

    def test_thread_count_does_not_change_bytes(self):
        # the long runs come in three chunks of at most 107 runs, which threads share
        for config in (dict(beta=0.5, n_grid=(10 ** 4,), replicas=100), dict(replicas=300, **LONG_RUNS)):
            self._same_bytes_on_threads(suite="occupancy", seed=11, **config)

    @pytest.mark.parametrize("suite", ["locations", "patterns", "marginal", "extremal-mstar"])
    def test_thread_count_does_not_change_query_bytes(self, suite):
        # three chunks of long runs, so each suite's batched queries run on threads
        self._same_bytes_on_threads(suite=suite, seed=11, replicas=300, **LONG_RUNS)

    def test_rerun_identical(self):
        cfg = SuiteConfig(suite="patterns", beta=0.5, n_grid=(10 ** 4,), replicas=100, seed=3)
        assert _report_csv(run_suite(cfg)) == _report_csv(run_suite(cfg))

    def test_order_of_the_query_sets_changes_no_value(self):
        # the sets cut the same cells in either order, so each pattern reads the same counts
        a, b = normalize([(0.0, 0.3)]), normalize([(0.2, 0.7)])
        rows = [{r.check: (r.estimate, r.target) for r in run_suite(SuiteConfig(
            suite="patterns", n_grid=(10 ** 4,), replicas=300, seed=3, family=family)).rows}
            for family in ((a, b), (b, a))]
        swap = {"tau_10": "tau_01", "tau_01": "tau_10"}
        for check, value in rows[0].items():
            assert rows[1][swap.get(check, check)] == pytest.approx(value, rel=1e-12), check


def test_urn_map_chunks_keep_replica_order():
    # 301 replicas of long runs: chunks of 107, 107 and 87 runs, which neither 2 nor 3 threads
    # divide equally
    sets = (normalize([(0.0, 0.3)]), normalize([(0.2, 0.7)]))

    def stat(batch):
        return batch.k_n.tolist(), [karlin_sim.empirical_sup(batch, a).tolist() for a in sets]

    results = [verify._urn_map(SuiteConfig(suite="patterns", replicas=301, seed=4, threads=threads,
                                           **LONG_RUNS), "urn", sets, stat)
               for threads in (1, 2, 3)]
    assert results[0] == results[1] == results[2]
    assert [len(k_n) for k_n, _ in results[0]] == [107, 107, 87]


def test_chunks_do_not_depend_on_the_part_size():
    # chunk c of a part is the batch of chunk_runs runs from stream offset + c, whatever the count
    q = normalize([(0.25, 1.0)])

    def stat(batch):
        return batch.k_n.tolist(), karlin_sim.variant_star_sup(batch, q).tolist()

    cfg = SuiteConfig(suite="extremal-mstar", n_grid=(10 ** 3,), replicas=1000, seed=6)
    short, long = (verify._urn_map(cfg, "discrete", (q,), stat, count=count) for count in (300, 600))
    assert short[0] == long[0] and [len(k_n) for k_n, _ in short] == [256, 44]
    offset = verify._offset(cfg, "discrete")
    direct = karlin_sim.simulate_batch(0.5, 10 ** 3, replica_rng(6, offset + 1), 256, (q,))
    assert long[1] == stat(direct)


def test_urn_map_runs_at_most_one_thread_per_cpu(monkeypatch):
    # 13 chunks of 8 long runs asked for on 8 threads of 2 CPUs: exactly 2 worker threads run
    # them, and the results keep chunk order; short runs stay on the calling thread
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(karlin_sim, "CHUNK", 8)

    def stat(batch):
        return threading.get_ident(), batch.k_n.tolist()

    for config, idents in ((LONG_RUNS, 2), (dict(n_grid=(1000,)), 1)):
        base = dict(suite="occupancy", replicas=100, seed=4, **config)
        serial = verify._urn_map(SuiteConfig(threads=1, **base), "urn", (), stat)
        pooled = verify._urn_map(SuiteConfig(threads=8, **base), "urn", (), stat)
        assert len(pooled) == 13 and len({ident for ident, _ in pooled}) == idents
        assert [row[1:] for row in pooled] == [row[1:] for row in serial]
    assert {ident for ident, _ in pooled} == {threading.get_ident()}


class TestSuitesSmoke:
    # fast, reduced-scale runs; the acceptance module runs the full scales
    def test_occupancy(self):
        rep = run_suite(
            SuiteConfig(suite="occupancy", beta=0.5, n_grid=(10 ** 5,), replicas=100, seed=42, threads=2)
        )
        assert rep.all_pass

    def test_patterns(self):
        rep = run_suite(
            SuiteConfig(suite="patterns", beta=0.5, n_grid=(10 ** 5,), replicas=100, seed=42, threads=2)
        )
        assert rep.all_pass

    def test_locations(self):
        rep = run_suite(
            SuiteConfig(suite="locations", beta=0.5, n_grid=(10 ** 4,), replicas=600, seed=42, threads=2)
        )
        assert rep.all_pass

    def test_marginal_structure(self):
        rep = run_suite(
            SuiteConfig(
                suite="marginal", beta=0.5, n_grid=(10 ** 3, 10 ** 4), replicas=400, seed=42,
                threads=2,
            )
        )
        names = [r.check for r in rep.rows]
        assert "ks_frechet_n1000_set0" in names
        assert "ks_decreases_set0" in names

    def test_suite_registry(self):
        assert set(SUITES) == {
            "marginal", "locations", "occupancy", "patterns", "limit-vs-oracle", "extremal-mstar",
        }


# Check names of each suite at its default family and a single n = 1000.
SUITE_CHECKS = {
    "marginal": ["ks_frechet_n1000_set0"],
    "locations": ["hit_top1", "hit_top2", "hit_joint", "value_top1_two_sample", "value_top2_two_sample"],
    "occupancy": ["mean_kn_ratio", "block_freq_1", "block_freq_2", "block_freq_chi2"],
    "patterns": ["tau_half_interval", "tau_01", "tau_10", "tau_11", "tau_partition_sum"],
    "limit-vs-oracle": [
        *(f"joint_cdf_q{i}" for i in range(10)), "pattern_rates_exact", "tau_z_t1.5", "tau_z_t2.0",
        "tau_z_t5.0", "tau_constant_in_t", "tau_strictly_positive", "adjudication_joint_exponent_union_form",
        "adjudication_joint_exponent_and_form_flagged",
    ],
    "extremal-mstar": [
        *(f"extremal_{stat}_t{t}" for t in (0.25, 1.0, 4.0) for stat in ("median", "ks")),
        "self_similarity_two_sample", "translation_invariance_two_sample", "mstar_marginal_prob",
        "mstar_marginal_ks", "mstar_time_change_ks", "coupled_domination", "variant_discrete_ks",
    ],
}


def test_benchmark_row_counts_match_the_suites(monkeypatch):
    # the benchmark's verify calls require each suite's exact row count, so a suite that gains or
    # loses a row turns every one of them malformed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    rows = {suite: len(checks) for suite, checks in SUITE_CHECKS.items()}
    assert rows == workloads.SUITE_ROWS, (
        "perfbench/workloads.py SUITE_ROWS must move first, in a change to the benchmark")


@pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
def test_suite_parts_draw_disjoint_streams(suite, monkeypatch):
    # Every stream a suite opens, in order (one thread).  A part is a run of
    # consecutive offsets: an urn part opens offset, offset + 1, ...; a limit
    # part opens one offset.  No offset may be opened twice, and no block of
    # 2**20 offsets may hold two parts.
    opened = []

    def recording(seed, replica=0):
        opened.append((seed, replica))
        return replica_rng(seed, replica)

    monkeypatch.setattr(verify, "replica_rng", recording)
    monkeypatch.setattr(karlin_sim, "replica_rng", recording)
    rep = run_suite(SuiteConfig(suite=suite, n_grid=(10 ** 3,), replicas=100, seed=5, threads=1))
    assert [row.check for row in rep.rows] == SUITE_CHECKS[suite]

    assert {seed for seed, _ in opened} == {5}
    offsets = [offset for _, offset in opened]
    repeated = sorted({off // verify.MAX_REPLICAS for off in offsets if offsets.count(off) > 1})
    assert not repeated, f"offsets opened twice in blocks {repeated}"
    parts_of_block = {}
    part = 0
    for i, off in enumerate(offsets):
        if i and off != offsets[i - 1] + 1:
            part += 1
        parts_of_block.setdefault(off // verify.MAX_REPLICAS, set()).add(part)
    shared = sorted(block for block, parts in parts_of_block.items() if len(parts) > 1)
    assert not shared, f"blocks {shared} hold more than one part"
