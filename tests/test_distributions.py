import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm import cli
from karlin_rsm.distributions import (
    ZETA_TABLE_SIZE,
    _zeta_pmf,
    _zeta_tail,
    frechet_cdf,
    pareto_sample_batch,
    qbeta_pmf,
    qbeta_tail,
    riemann_zeta,
)
from karlin_rsm.karlin_sim import replica_rng, simulate, simulate_batch

from oracles import qbeta_from_uniform, qbeta_sample, zeta_devroye, zeta_series


class TestPareto:
    def test_inverse_cdf_points(self):
        # a uniform u gives the Pareto(1) mark 1/(1 - u) of tail probability 1 - u: P(mark > 2) = 0.5;
        # the largest, at the least tail probability 2**-53, is 2**53
        assert pareto_sample_batch(_Stub(0.5), 1).tolist() == [2.0]
        assert pareto_sample_batch(_Stub(0.75), 1).tolist() == [4.0]
        assert pareto_sample_batch(_Stub(1.0 - 2.0 ** -53), 1).tolist() == [2.0 ** 53]

    def test_support(self):
        rng = np.random.default_rng(0)
        xs = pareto_sample_batch(rng, 10 ** 4)
        assert np.all(xs >= 1.0)

    def test_empirical_tail(self):
        # P(mark > 10) = 0.1
        rng = np.random.default_rng(1)
        xs = pareto_sample_batch(rng, 10 ** 6)
        phat = np.mean(xs > 10.0)
        assert abs(phat - 0.1) <= 3.0 * math.sqrt(0.09 / 10 ** 6)


class TestFrechet:
    def test_cdf_values(self):
        assert frechet_cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert frechet_cdf(1e12, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert frechet_cdf(0.0) == 0.0
        assert frechet_cdf(-3.0) == 0.0

    def test_median(self):
        assert frechet_cdf(1.0 / math.log(2.0), 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_validation(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                frechet_cdf(1.0, sigma)

    def test_round_trip(self):
        # the closed-form quantile sigma / -log p inverts the CDF
        sigma = 0.4
        for z in np.linspace(0.05, 20.0, 117):
            p = frechet_cdf(z, sigma)
            assert abs(z - sigma / -math.log(p)) <= 1e-12 * max(1.0, z)

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_cdf_monotone(self, sigma):
        zs = np.linspace(0.01, 50.0, 100)
        cds = frechet_cdf(zs, sigma)
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

    def test_integers_beyond_float_range(self):
        # k = 10**400 is compared with 1e300 before any float conversion: the tail is its Stirling
        # limit k**-beta / gamma(1 - beta) and the pmf, beta k**-(1+beta) / gamma(1 - beta), is below
        # float range; on either side of the switch at 1e300 both agree with that limit
        assert qbeta_tail(10 ** 400, 0.5) == pytest.approx(10.0 ** -200 / math.gamma(0.5), rel=1e-13)
        assert qbeta_pmf(10 ** 400, 0.5) == 0.0
        for k in (10 ** 300 // 2, 2 * 10 ** 300):
            for beta in (0.001, 0.01):
                g = math.gamma(1.0 - beta)
                assert qbeta_tail(k, beta) == pytest.approx(k ** -beta / g, rel=1e-12)
                assert qbeta_pmf(k, beta) == pytest.approx(beta * k ** -(1.0 + beta) / g, rel=1e-12)

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


class _Stub:
    """A generator whose uniforms all equal ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestZetaDraws:
    """The zeta code the urn runs: the table of the labels up to L = ZETA_TABLE_SIZE
    (``_zeta_pmf``) and the keys of Y | Y > L of a run's rest cell (``_zeta_tail``)."""

    @staticmethod
    def _tail_mass(s):
        # P(Y > L), from the series: 1 minus the head mass
        z = zeta_series(s)
        return (z - math.fsum(np.arange(1.0, ZETA_TABLE_SIZE + 1) ** -s)) / z

    def test_pmf_ratio_and_normalization(self):
        for s in (2.0, 1.0 / 0.9, 1.001):
            pmf = _zeta_pmf(s)
            assert pmf.shape == (ZETA_TABLE_SIZE + 1,)
            z = zeta_series(s)
            for k in range(1, 51):
                assert pmf[k - 1] == pytest.approx(k ** -s / z, rel=1e-12)
            assert pmf[-1] == pytest.approx(self._tail_mass(s), rel=1e-9)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_chi_square_exactness(self):
        # box counts of the labels 1..50 and the rest, pooled over 100 urn runs of 1e4 draws at s = 2
        from scipy.stats import chi2

        s, n, runs, kmax = 2.0, 10 ** 4, 100, 50
        observed = np.zeros(kmax)
        batch = simulate_batch(1.0 / s, n, replica_rng(13), runs)
        head = batch.keys <= kmax
        np.add.at(observed, batch.keys[head].astype(int) - 1, batch.counts[head])
        total = n * runs
        z = zeta_series(s)
        probs = np.array([k ** -s / z for k in range(1, kmax + 1)])
        tail_p = 1.0 - probs.sum()
        obs_tail = total - observed.sum()
        stat = float(np.sum((observed - total * probs) ** 2 / (total * probs)))
        stat += (obs_tail - total * tail_p) ** 2 / (total * tail_p)
        assert stat <= chi2.ppf(0.99, kmax)

    @pytest.mark.parametrize("s", [2.0, 1.0 / 0.9])
    def test_matches_devroye_in_law(self, s):
        # the tail keys against Devroye draws over the whole support, kept where Y > L
        from scipy.stats import ks_2samp

        from karlin_rsm.verify import two_sample_ks_critical

        rng = np.random.default_rng(22)
        ref = []
        while sum(r.size for r in ref) < 1000:  # P(Y > L) is 1.5e-4 at s = 2
            y = zeta_devroye(rng, s, 10 ** 6)
            ref.append(y[y > ZETA_TABLE_SIZE])
        ref = np.log(np.concatenate(ref))
        ours = _zeta_tail(np.random.default_rng(21), s, 10 ** 5, ZETA_TABLE_SIZE)
        assert np.all(ours > ZETA_TABLE_SIZE)
        crit = two_sample_ks_critical(ours.size, ref.size)
        assert ks_2samp(np.log(ours), ref).statistic <= crit

    @pytest.mark.parametrize("s, size", [(2.0, 32), (2.0, 779), (1.0 / 0.9, 520), (1.0 / 0.9, ZETA_TABLE_SIZE)])
    def test_rest_keys_in_law(self, s, size):
        # Y | Y > size: P(key <= x) at labels up to the table's end, from the series, within 4 SE
        n = 10 ** 5
        keys = _zeta_tail(np.random.default_rng(23), s, n, size)
        assert np.all(keys > size)
        z = zeta_series(s)
        pmf = np.arange(1.0, ZETA_TABLE_SIZE + 1) ** -s / z
        rest = (z - math.fsum(np.arange(1.0, size + 1) ** -s)) / z
        for x in {min(x, ZETA_TABLE_SIZE) for x in (size + 1, 2 * size, (size + ZETA_TABLE_SIZE) // 2)}:
            p = math.fsum(pmf[size:x]) / rest
            assert abs(np.mean(keys <= x) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (x, p)

    @pytest.mark.parametrize("s", [2.0, 1.0 / 0.9])
    @pytest.mark.parametrize("after", [0, 24, ZETA_TABLE_SIZE])
    def test_tail_exact_in_law(self, s, after):
        # chi-square of the keys after+1 .. after+30 and the rest against the table's pmf
        # conditioned on Y > after
        from scipy.stats import chi2

        n, bins = 2 * 10 ** 5, 30
        keys = _zeta_tail(np.random.default_rng(24), s, n, after)
        cond = _zeta_pmf(s)[after:].sum()
        probs = np.arange(after + 1.0, after + bins + 1.0) ** -s / riemann_zeta(s) / cond
        observed = np.bincount((keys[keys <= after + bins] - after - 1).astype(int), minlength=bins)
        expected = np.append(probs, 1.0 - probs.sum()) * n
        stat = float(np.sum((np.append(observed, n - observed.sum()) - expected) ** 2 / expected))
        assert stat <= chi2.ppf(0.99, bins), stat

    @pytest.mark.parametrize("s", [1.001, 1.01])
    def test_tail_beyond_float_range_kept(self, s):
        # P(Y >= 2**1024 | Y > L), with P(Y >= 2**1024) = 2**(-1024 (s-1)) / ((s-1) zeta(s)) to relative 1e-300
        n = 10 ** 6
        keys = _zeta_tail(np.random.default_rng(17), s, n, ZETA_TABLE_SIZE)
        p = 2.0 ** (-1024 * (s - 1.0)) / ((s - 1.0) * zeta_series(s)) / self._tail_mass(s)
        share = np.mean(keys < 0)
        assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        assert np.all(keys[keys < 0] < -1024) and np.all(keys[keys > 0] > ZETA_TABLE_SIZE)

    def test_huge_labels_fixed_width_keys(self, capsys):
        # s = 1.001 puts about half the labels beyond float range, as log-keys
        batch = simulate(1.0 / 1.001, 10 ** 4, seed=17)
        keys = batch.keys
        assert keys.dtype == np.float64 and np.all(np.isfinite(keys))
        assert np.any(keys < -1024) and np.all((keys >= 1) | (keys < -1024))
        assert batch.k_n[0] == len(set(keys.tolist())) == len(batch.keys)
        assert int(batch.counts.sum()) == batch.n
        # the CLI's CSV prints them as decimal labels
        assert cli.main(["simulate", "--alpha", "1.0", "--beta", repr(1.0 / 1.001), "--n", "10000", "--seed", "17",
                         "--top-m", "50"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        labels = [int(r["label"]) for r in rows]
        assert min(labels) >= 1 and len(set(labels)) == len(labels)
        assert max(labels) >= 2 ** 1024
