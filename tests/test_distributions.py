import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm.distributions import (
    ZETA_TABLE_SIZE,
    FrechetLaw,
    HeavyTailSpec,
    frechet_cdf,
    gamma_fn,
    pareto_from_uniform,
    pareto_sample_batch,
    qbeta_pmf,
    qbeta_tail,
    riemann_zeta,
    zeta_acceptance_rate,
    zeta_sample_batch,
)
from karlin_rsm.karlin_sim import FrequencyModel, simulate, top_m, top_m_csv

from oracles import qbeta_from_uniform, qbeta_sample, zeta_devroye, zeta_series


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.3)

    @given(st.floats(min_value=0.05, max_value=40.0))
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


class TestPareto:
    def test_inverse_cdf_points(self):
        assert pareto_from_uniform(0.5, HeavyTailSpec(alpha=1.0)) == pytest.approx(2.0)
        assert pareto_from_uniform(0.25, HeavyTailSpec(alpha=2.0)) == pytest.approx(2.0)

    def test_support(self):
        rng = np.random.default_rng(0)
        xs = pareto_sample_batch(rng, HeavyTailSpec(alpha=0.7), 10 ** 4)
        assert np.all(xs >= 1.0)

    def test_empirical_tail(self):
        # P(mark > 10) = 0.1 at alpha = 1
        rng = np.random.default_rng(1)
        xs = pareto_sample_batch(rng, HeavyTailSpec(alpha=1.0), 10 ** 6)
        phat = np.mean(xs > 10.0)
        assert abs(phat - 0.1) <= 3.0 * math.sqrt(0.09 / 10 ** 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyTailSpec(alpha=0.0)
        with pytest.raises(ValueError):
            HeavyTailSpec(alpha=-1.0)
        with pytest.raises(ValueError):
            HeavyTailSpec(alpha=math.inf)


class TestFrechet:
    def test_cdf_values(self):
        law = FrechetLaw(1.0, 1.0)
        assert frechet_cdf(1.0, law) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert frechet_cdf(1e12, law) == pytest.approx(1.0, abs=1e-10)
        assert frechet_cdf(0.0, law) == 0.0
        assert frechet_cdf(-3.0, law) == 0.0

    def test_median(self):
        assert frechet_cdf(1.0 / math.log(2.0), FrechetLaw(1.0, 1.0)) == pytest.approx(0.5, rel=1e-13)

    def test_validation(self):
        for alpha, sigma in ((0.0, 1.0), (math.inf, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                FrechetLaw(alpha, sigma)

    def test_round_trip(self):
        # the closed-form quantile (sigma / -log p)**(1/alpha) inverts the CDF
        law = FrechetLaw(1.7, 0.4)
        for z in np.linspace(0.05, 20.0, 117):
            p = frechet_cdf(z, law)
            assert abs(z - (law.sigma / -math.log(p)) ** (1.0 / law.alpha)) <= 1e-12 * max(1.0, z)

    @given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.1, max_value=5.0))
    def test_cdf_monotone(self, alpha, sigma):
        law = FrechetLaw(alpha, sigma)
        zs = np.linspace(0.01, 50.0, 100)
        cds = frechet_cdf(zs, law)
        assert np.all(np.diff(cds) >= 0)


class TestBlockSizeLaw:
    def test_pmf_values(self):
        for beta in (0.1, 0.5, 0.9):
            assert qbeta_pmf(1, beta) == pytest.approx(beta, rel=1e-13)
        assert qbeta_pmf(2, 0.5) == pytest.approx(0.125, rel=1e-12)
        assert qbeta_pmf(3, 0.5) == pytest.approx(0.0625, rel=1e-12)

    def test_tail_values(self):
        assert qbeta_tail(0, 0.3) == 1.0
        assert qbeta_tail(1, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert qbeta_tail(2, 0.5) == pytest.approx(0.375, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            qbeta_pmf(0, 0.5)
        with pytest.raises(ValueError):
            qbeta_tail(-1, 0.5)
        with pytest.raises(ValueError):
            qbeta_pmf(1, 1.0)

    def test_tail_recurrence(self):
        # T(k) = T(k-1) (k - beta) / k, closed form vs product form
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            t_prev = 1.0
            for k in range(1, 2001):
                t = qbeta_tail(k, beta)
                assert abs(t - t_prev * (k - beta) / k) <= 1e-10
                t_prev = t

    def test_pmf_telescopes(self):
        for beta in (0.2, 0.5, 0.8):
            for k in range(1, 2001):
                diff = qbeta_tail(k - 1, beta) - qbeta_tail(k, beta)
                assert abs(diff - qbeta_pmf(k, beta)) <= 1e-12

    def test_mass_sums_to_one(self):
        for beta in (0.1, 0.5, 0.9):
            partial = sum(qbeta_pmf(k, beta) for k in range(1, 501))
            assert abs(partial + qbeta_tail(500, beta) - 1.0) <= 1e-12

    def test_generating_identity(self):
        # E[(1-z)**Q] = 1 - z**beta, bracketed by a truncated sum plus a
        # geometric bound on the remainder
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            for z in np.arange(0.1, 0.95, 0.1):
                partial, k = 0.0, 0
                while True:
                    k += 1
                    partial += (1.0 - z) ** k * qbeta_pmf(k, beta)
                    bound = (1.0 - z) ** (k + 1) * qbeta_tail(k, beta)
                    if bound < 1e-9 or k > 10 ** 4:
                        break
                target = 1.0 - z ** beta
                assert partial - 1e-8 <= target <= partial + bound + 1e-8

    def test_inversion_examples(self):
        assert qbeta_from_uniform(0.9, 0.5) == 1
        assert qbeta_from_uniform(0.4, 0.5) == 2
        assert qbeta_from_uniform(1.0, 0.5) == 1

    @given(
        st.floats(min_value=1e-12, max_value=1.0, exclude_min=False),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=300)
    def test_inversion_invariant(self, u, beta):
        # the sampler returns the smallest k with tail(k) < u
        k = qbeta_from_uniform(u, beta)
        assert qbeta_tail(k, beta) < u <= qbeta_tail(k - 1, beta)

    def test_sampler_frequency(self):
        rng = np.random.default_rng(7)
        draws = np.array([qbeta_sample(rng, 0.5) for _ in range(2 * 10 ** 5)])
        phat = np.mean(draws == 1)
        assert abs(phat - 0.5) <= 3.0 * math.sqrt(0.25 / draws.size)
        # heavy tail shows up: some draws far beyond any fixed block size
        assert draws.max() > 10 ** 3


class TestRiemannZeta:
    def test_matches_scipy(self):
        from scipy.special import zeta

        for beta in np.linspace(0.01, 0.999, 2000):
            s = 1.0 / beta
            assert riemann_zeta(s) == pytest.approx(float(zeta(s, 1)), rel=4e-15, abs=0)

    def test_known_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=4e-16)
        assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=4e-16)

    def test_domain(self):
        for s in (1.0, 0.5, float("nan")):
            with pytest.raises(ValueError):
                riemann_zeta(s)


class TestZetaDraws:
    def test_acceptance_rate_bounds(self):
        L = ZETA_TABLE_SIZE
        k = np.arange(L + 1, 10 ** 6, dtype=float)
        for s in (1.01, 1.2, 2.0, 5.0, 10.0):
            rate = zeta_acceptance_rate(s)
            assert 1.0 - s / L <= rate <= 1.0
            # f(L+1) (L+1)**(s-1) sum_{k>L} k**-s, the sum direct plus an integral tail
            f = (L + 1) * (1.0 - (1.0 + 1.0 / (L + 1)) ** (1.0 - s))
            tail = math.fsum(k ** -s) + (10 ** 6 - 0.5) ** (1.0 - s) / (s - 1.0)
            assert rate == pytest.approx(f * (L + 1) ** (s - 1.0) * tail, rel=1e-9)

    def test_pmf_ratio_and_normalization(self):
        rng = np.random.default_rng(11)
        ys = zeta_sample_batch(rng, 2.0, 10 ** 6)
        p1 = np.mean(ys == 1)
        p2 = np.mean(ys == 2)
        inv_zeta2 = 1.0 / zeta_series(2.0)
        assert abs(p1 - inv_zeta2) <= 3.0 * math.sqrt(inv_zeta2 * (1 - inv_zeta2) / ys.size)
        assert p2 / p1 == pytest.approx(0.25, abs=0.01)

    def test_chi_square_exactness(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(13)
        s = 2.0
        n = 10 ** 6
        ys = zeta_sample_batch(rng, s, n)
        z = zeta_series(s)
        kmax = 50
        observed = np.array([(ys == k).sum() for k in range(1, kmax + 1)], dtype=float)
        probs = np.array([k ** -s / z for k in range(1, kmax + 1)])
        tail_p = 1.0 - probs.sum()
        obs_tail = n - observed.sum()
        stat = float(np.sum((observed - n * probs) ** 2 / (n * probs)))
        stat += (obs_tail - n * tail_p) ** 2 / (n * tail_p)
        assert stat <= chi2.ppf(0.99, kmax)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            zeta_sample_batch(rng, 1.0, 10)

    @pytest.mark.parametrize("s", [2.0, 1.0 / 0.9])
    def test_matches_devroye_in_law(self, s):
        from scipy.stats import chi2, ks_2samp

        from karlin_rsm.verify import two_sample_ks_critical

        n = 10 ** 6
        ours = zeta_sample_batch(np.random.default_rng(21), s, n)
        ref = zeta_devroye(np.random.default_rng(22), s, n)
        # homogeneity chi-square over the labels 1..50 and the rest
        kmax = 50
        counts = np.array([np.bincount(np.minimum(y, kmax + 1).astype(int), minlength=kmax + 2)[1:]
                           for y in (ours, ref)], dtype=float)
        expected = counts.sum(axis=0) / 2.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat <= chi2.ppf(0.99, kmax)
        # the conditioned tail beyond the table, on log labels
        big, ref_big = np.log(ours[ours > ZETA_TABLE_SIZE]), np.log(ref[ref > ZETA_TABLE_SIZE])
        assert big.size > 50 and ref_big.size > 50
        crit = two_sample_ks_critical(big.size, ref_big.size)
        assert ks_2samp(big, ref_big).statistic <= crit

    @pytest.mark.parametrize("s", [1.001, 1.01])
    def test_tail_beyond_float_range_kept(self, s):
        # P(Y >= 2**1024) = 2**(-1024 (s-1)) / ((s-1) zeta(s)) to relative 1e-300
        n = 10 ** 6
        keys = zeta_sample_batch(np.random.default_rng(17), s, n)
        p = 2.0 ** (-1024 * (s - 1.0)) / ((s - 1.0) * zeta_series(s))
        share = np.mean(keys < 0)
        assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        assert np.all(keys[keys < 0] < -1024) and np.all(keys[keys > 0] >= 1)

    def test_huge_labels_fixed_width_keys(self):
        # s = 1.001 puts about half the labels beyond float range, as log-keys
        model = FrequencyModel(1.0 / 1.001)
        run = simulate(model, HeavyTailSpec(alpha=1.0), 10 ** 4, seed=17)
        keys = run.draws
        assert keys.dtype == np.float64 and np.all(np.isfinite(keys))
        assert np.any(keys < -1024) and np.all((keys >= 1) | (keys < -1024))
        assert run.k_n == len(set(keys.tolist())) == len(run.labels)
        assert int(run.counts.sum()) == run.n
        rows = list(csv.DictReader(io.StringIO(top_m_csv(top_m(run, 50)))))
        labels = [int(r["label"]) for r in rows]
        assert min(labels) >= 1 and len(set(labels)) == len(labels)
        assert max(labels) >= 2 ** 1024
