import csv
import io
import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from karlin_rsm import verify
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


class TestKsStatistic:
    def test_null_calibration(self):
        # draws from the reference stay below the 99% critical value almost
        # always: at least 95 of 100 repetitions at N = 1e4
        rng = np.random.default_rng(0)
        n = 10 ** 4
        crit = ks_critical(n, 0.99)
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
    # the tables replace SciPy calls and must equal them to the last bit
    def test_equal_scipy(self):
        for c in (0.95, 0.99):
            assert verify._KS_QUANTILE[c] == sps.kstwobign.ppf(c)
            assert verify._NORMAL_QUANTILE[c] == sps.norm.ppf(0.5 * (1.0 + c))
            assert verify._CHI2_10_QUANTILE[c] == sps.chi2.ppf(c, 10)

    def test_only_suite_confidences(self):
        assert set(verify._KS_QUANTILE) == set(verify._NORMAL_QUANTILE) == {0.95, 0.99}
        assert set(verify._CHI2_10_QUANTILE) == {0.95, 0.99}
        with pytest.raises(ValueError):
            ks_critical(100, 0.9)
        with pytest.raises(ValueError):
            wilson_ci(1, 2, 0.5)


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
        for offset in (0, verify._BLOCK):
            streamed = verify._replica_stream_map(self._draws, 5, seed, offset)
            direct = [self._draws(replica_rng(seed, offset + r)) for r in range(5)]
            assert streamed == direct


class TestWilson:
    def test_reference_value(self):
        lo, hi = wilson_ci(500, 1000, 0.95)
        assert lo == pytest.approx(0.4690, abs=2e-4)
        assert hi == pytest.approx(0.5310, abs=2e-4)

    def test_extremes(self):
        assert wilson_ci(100, 100, 0.99)[1] == 1.0
        assert wilson_ci(0, 100, 0.99)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(1, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_ci(5, 3, 0.95)

    def test_coverage(self):
        rng = np.random.default_rng(3)
        p = 0.3
        cover = 0
        for _ in range(500):
            hits = rng.binomial(400, p)
            lo, hi = wilson_ci(int(hits), 400, 0.95)
            cover += lo <= p <= hi
        assert cover >= 450  # 95% nominal, wide slack


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="occupancy", replicas=50)
        with pytest.raises(ValueError):
            SuiteConfig(suite="occupancy", replicas=100, confidence=0.9)
        with pytest.raises(ValueError):
            SuiteConfig(suite="occupancy", replicas=100, n_grid=())

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
        recs = list(csv.reader(io.StringIO(rep.to_csv())))
        assert recs[0] == list(REPORT_FIELDS)
        back = [CheckRow(*rec[:5], rec[5] == "true", *rec[6:]) for rec in recs[1:]]
        assert back == rep.rows

    def test_json_round_trip(self):
        rep = self._tiny_report()
        payload = json.loads(rep.to_json())
        assert (payload["suite"], payload["seed"]) == (rep.suite, rep.seed)
        back = [CheckRow(*(rec[k] for k in REPORT_FIELDS)) for rec in payload["rows"]]
        assert back == rep.rows

    def test_thread_count_does_not_change_bytes(self):
        base = dict(suite="occupancy", beta=0.5, n_grid=(10 ** 4,), replicas=100, seed=11)
        rep1 = run_suite(SuiteConfig(threads=1, **base))
        rep4 = run_suite(SuiteConfig(threads=4, **base))
        assert rep1.to_csv() == rep4.to_csv()
        assert rep1.to_json() == rep4.to_json()

    def test_rerun_identical(self):
        cfg = SuiteConfig(suite="patterns", beta=0.5, n_grid=(10 ** 4,), replicas=100, seed=3)
        assert run_suite(cfg).to_csv() == run_suite(cfg).to_csv()


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
