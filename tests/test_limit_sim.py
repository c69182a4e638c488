import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from karlin_rsm import karlin_sim as ksim
from karlin_rsm import limit_sim as lsim
from karlin_rsm.choquet_oracle import mstar_theta, pattern_limit, theta
from karlin_rsm.interval_sets import CapacityError, IntervalSet, normalize
from karlin_rsm.karlin_sim import replica_rng
from karlin_rsm.limit_sim import (
    coupled_batch,
    karlin_batch,
    limit_samples_csv,
    mstar_batch,
    pattern_rates,
    sample_karlin,
    sample_mstar,
    top_m_batch,
)
from karlin_rsm.verify import two_sample_ks_critical

from oracles import (
    HitPatternSampler,
    reference_coupled,
    reference_karlin,
    reference_mstar,
    reference_top_m,
    sample_rbeta_hits,
)

N_MC = 30000


def binom_tol(p, n=N_MC, k=3.0):
    return k * math.sqrt(p * (1.0 - p) / n)


class TestHitPatterns:
    """The sequential reference: void patterns of the atoms given the block size."""

    def test_conditional_void_pmf_single_atom(self):
        # given Q = q, P(void) = (1 - mu) ** q exactly
        s = HitPatternSampler(0.5, [0.3])
        for q in (1, 2, 7, 1000):
            pmf = s.void_pmf(q)
            assert pmf[1] == pytest.approx((1 - 0.3) ** q, rel=1e-12)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_conditional_void_pmf_two_atoms(self):
        # inclusion-exclusion by hand for two disjoint atoms
        mu1, mu2, q = 0.2, 0.35, 5
        s = HitPatternSampler(0.5, [mu1, mu2])
        pmf = s.void_pmf(q)
        v1, v2, v12 = (1 - mu1) ** q, (1 - mu2) ** q, (1 - mu1 - mu2) ** q
        assert pmf[3] == pytest.approx(v12, rel=1e-10)          # both void
        assert pmf[1] == pytest.approx(v1 - v12, rel=1e-10)     # only atom 0 void
        assert pmf[2] == pytest.approx(v2 - v12, rel=1e-10)
        assert pmf[0] == pytest.approx(1 - v1 - v2 + v12, rel=1e-9)

    def test_huge_q_void_pmf(self):
        s = HitPatternSampler(0.5, [0.3])
        pmf = s.void_pmf(10 ** 400)  # beyond float; all atoms hit
        assert pmf[0] == pytest.approx(1.0)

    def test_marginal_hit_probability(self):
        # P(atom hit) = mu ** beta
        rng = np.random.default_rng(21)
        hits = sum(sample_rbeta_hits(rng, 0.5, [0.25])[0] for _ in range(N_MC))
        assert abs(hits / N_MC - 0.5) <= binom_tol(0.5)

    def test_joint_hit_two_disjoint_atoms(self):
        # P(both hit) = 2 lam**b - (2 lam)**b
        rng = np.random.default_rng(22)
        target = 2 * 0.25 ** 0.5 - 0.5 ** 0.5
        both = 0
        for _ in range(N_MC):
            h = sample_rbeta_hits(rng, 0.5, [0.25, 0.25])
            both += bool(h[0] and h[1])
        assert abs(both / N_MC - target) <= binom_tol(target)

    def test_measure_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_rbeta_hits(rng, 0.5, [0.0, 0.5])
        with pytest.raises(ValueError):
            sample_rbeta_hits(rng, 0.5, [0.7, 0.7])
        with pytest.raises(CapacityError):
            sample_rbeta_hits(rng, 0.5, [0.01] * 21)


class TestPatternRates:
    FAMILY = (normalize([(0.1, 0.4)]), normalize([(0.3, 0.7)]), normalize([(0.2, 0.35), (0.8, 0.9)]))

    def test_equal_pattern_limits(self):
        # p_S is the occupancy-pattern limit of S divided by gamma(1 - beta), entry 0 (no set hit) included
        for beta in (0.2, 0.5, 0.9):
            target = pattern_limit(beta, self.FAMILY) / math.gamma(1.0 - beta)
            assert pattern_rates(beta, self.FAMILY).tolist() == pytest.approx(target.tolist(), rel=1e-12, abs=1e-15)

    def test_add_up_to_theta(self):
        rates = pattern_rates(0.5, self.FAMILY)
        patterns = np.arange(8)
        for i, a in enumerate(self.FAMILY):
            assert rates[patterns & (1 << i) != 0].sum() == pytest.approx(theta(a, 0.5), rel=1e-14)
        assert rates.sum() == pytest.approx(1.0, rel=1e-14)  # idle atoms included

    def test_tiny_set_keeps_its_rate(self):
        # no cancellation: the set of measure 1e-300 keeps rate 1e-150 in either order
        big, tiny = normalize([(0.5, 1.0)]), normalize([(0.0, 1e-300)])
        for family, i in (((big, tiny), 1), ((tiny, big), 0)):
            rates = pattern_rates(0.5, family)
            assert rates[np.arange(4) & (1 << i) != 0].sum() == pytest.approx(1e-150, rel=1e-14)
            assert sample_karlin(np.random.default_rng(1), 1.0, 0.5, family).values[i] > 0

    def test_any_carrier_and_read_only(self):
        fam = (IntervalSet(((0.0, 1.0),), (0.0, 3.0)), IntervalSet(((2.0, 3.0),), (0.0, 3.0)))
        rates = pattern_rates(0.5, fam)
        assert rates[1] == rates[2] == pytest.approx(2.0 ** 0.5 - 1.0, rel=1e-14)
        assert rates[3] == pytest.approx(2.0 - 2.0 ** 0.5, rel=1e-14)
        assert rates[0] == pytest.approx(3.0 ** 0.5 - 2.0 ** 0.5, rel=1e-14)
        with pytest.raises(ValueError):
            rates[0] = 1.0

    def test_beta_outside_unit_interval(self):
        fam = [normalize([(0.0, 0.5)])]
        for beta in (0.0, 1.0, 1.5):
            for sampler in (sample_karlin, sample_mstar):
                with pytest.raises(ValueError, match="beta"):
                    sampler(np.random.default_rng(0), 1.0, beta, fam)
            with pytest.raises(ValueError, match="beta"):
                coupled_batch(np.random.default_rng(0), 1.0, beta, fam, 1)
            with pytest.raises(ValueError, match="beta"):
                top_m_batch(np.random.default_rng(0), 1.0, beta, 1, fam, 1)

    def test_null_sets_have_no_rate(self):
        rates = pattern_rates(0.5, (normalize([]), normalize([(0.0, 0.25)])))
        assert rates[1] == rates[3] == 0.0 and rates[2] == 0.5


def comb(start: int, step: int):
    """The intervals [i/128, i/128 + 0.004) for i = start, start + step, ... below 128."""
    return normalize([(i / 128, i / 128 + 0.004) for i in range(start, 128, step)])


class TestManyAtoms:
    """Families that cut [0, 1) into 64 atoms: one set of 64 intervals, and two interleaved sets of
    32.  Each atom is one clock of M*, and the rates of M see the atoms only through their sets."""

    FAMILIES = {"one-set": (comb(0, 2),), "two-sets": (comb(0, 4), comb(2, 4))}

    @pytest.mark.parametrize("name", FAMILIES)
    def test_pattern_rates_add_up_to_theta(self, name):
        family = self.FAMILIES[name]
        rates = pattern_rates(0.5, family)
        patterns = np.arange(rates.size)
        for i, a in enumerate(family):
            assert rates[patterns & (1 << i) != 0].sum() == pytest.approx(theta(a, 0.5), rel=1e-14)
        union = normalize([iv for a in family for iv in a.intervals])
        assert rates[1:].sum() == pytest.approx(theta(union, 0.5), rel=1e-14)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_mstar_one_clock_per_atom(self, name):
        family = self.FAMILIES[name]
        assert lsim._mstar_clocks(0.5, family).rates.size == 64
        vals = mstar_batch(np.random.default_rng(31), 1.0, 0.5, family, N_MC)
        for j, a in enumerate(family):
            target = math.exp(-sum(mstar_theta(lo, hi, 0.5) for lo, hi in a.intervals))
            assert abs(np.mean(vals[:, j] <= 1.0) - target) <= binom_tol(target)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_karlin_marginals(self, name):
        family = self.FAMILIES[name]
        vals = karlin_batch(np.random.default_rng(32), 1.0, 0.5, family, N_MC)
        for j, a in enumerate(family):
            target = math.exp(-theta(a, 0.5))
            assert abs(np.mean(vals[:, j] <= 1.0) - target) <= binom_tol(target)


class TestKarlinSampler:
    def test_full_set_frechet(self):
        vals = karlin_batch(np.random.default_rng(24), 1.0, 0.5, [normalize([(0.0, 1.0)])], N_MC)
        target = math.exp(-1.0)
        assert abs(np.mean(vals[:, 0] <= 1.0) - target) <= binom_tol(target)

    def test_quarter_set(self):
        vals = karlin_batch(np.random.default_rng(25), 1.0, 0.5, [normalize([(0.0, 0.25)])], N_MC)
        target = math.exp(-0.5)
        assert abs(np.mean(vals[:, 0] <= 1.0) - target) <= binom_tol(target)

    def test_two_halves_joint(self):
        fam = [normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)])]
        vals = karlin_batch(np.random.default_rng(26), 1.0, 0.5, fam, N_MC)
        target = math.exp(-1.0)
        assert abs(np.mean((vals <= 1.0).all(axis=1)) - target) <= binom_tol(target)

    def test_zero_measure_sets_answered_zero(self):
        rng = np.random.default_rng(27)
        fam = [normalize([]), normalize([(0.3, 0.3)]), normalize([(0.0, 0.5)])]
        s = sample_karlin(rng, 1.0, 0.5, fam)
        assert s.values[0] == 0.0 and s.values[1] == 0.0 and s.values[2] > 0.0
        assert s.atoms_used >= 1
        assert sample_karlin(rng, 1.0, 0.5, fam[:2]).atoms_used == 0

    def test_single_replica_is_batch_of_one(self):
        fam = [normalize([(0.0, 0.2)]), normalize([(0.6, 0.9)])]
        a = sample_karlin(replica_rng(28, 0), 1.0, 0.3, fam)
        b = karlin_batch(replica_rng(28, 0), 1.0, 0.3, fam, 1)
        assert a.values == tuple(b[0])
        assert sample_mstar(replica_rng(28, 2), 1.0, 0.3, fam).values == tuple(
            mstar_batch(replica_rng(28, 2), 1.0, 0.3, fam, 1)[0])

    def test_sup_measure_axiom_and_monotonicity(self):
        rng = np.random.default_rng(29)
        a = normalize([(0.1, 0.3)])
        b = normalize([(0.5, 0.8)])
        fam = [a, b, a.union(b)]
        for _ in range(2000):
            va, vb, vu = sample_karlin(rng, 1.3, 0.6, fam).values
            assert vu == max(va, vb)
            assert va <= vu and vb <= vu

    def test_tiny_set_is_hit(self):
        # hit rate 1e-150 per unit level: no atom walk, a finite value at once
        fam = [normalize([(0.0, 1e-300)])]
        t0 = time.perf_counter()
        s = sample_karlin(np.random.default_rng(30), 1.0, 0.5, fam)
        assert time.perf_counter() - t0 < 1.0
        assert 0.0 < s.values[0] < 1e-140 and s.atoms_used > 10 ** 140


class TestWindowSampler:
    def test_width_one_identical(self):
        # the rates depend on the sets only; a wider carrier changes atoms_used alone
        a = sample_karlin(np.random.default_rng(32), 1.0, 0.5, [normalize([(0.0, 0.4)])])
        b = sample_karlin(np.random.default_rng(32), 1.0, 0.5, [IntervalSet(((0.0, 0.4),), (0.0, 4.0))])
        assert a.values == b.values

    def test_window_median(self):
        # median of the value on [0, 4] is (4**beta)/log 2 at alpha 1
        fam = [IntervalSet(((0.0, 4.0),), (0.0, 4.0))]
        vals = karlin_batch(np.random.default_rng(33), 1.0, 0.5, fam, N_MC)[:, 0]
        assert np.median(vals) == pytest.approx(2.0 / math.log(2.0), rel=0.03)

    def test_self_similarity_two_sample(self):
        rng = np.random.default_rng(34)
        w = karlin_batch(rng, 1.0, 0.5, [IntervalSet(((0.0, 2.0),), (0.0, 2.0))], 8000)[:, 0]
        u = 2.0 ** 0.5 * karlin_batch(rng, 1.0, 0.5, [normalize([(0.0, 1.0)])], 8000)[:, 0]
        assert ks_2samp(w, u).pvalue > 0.01


class TestVariantSampler:
    def test_marginal_on_interval(self):
        vals = mstar_batch(np.random.default_rng(35), 1.0, 0.5, [normalize([(0.25, 1.0)])], N_MC)
        target = math.exp(-0.5)  # exp(-(1**b - 0.25**b))
        assert abs(np.mean(vals[:, 0] <= 1.0) - target) <= binom_tol(target)

    def test_reduces_to_theta_at_zero(self):
        vals = mstar_batch(np.random.default_rng(36), 1.0, 0.5, [normalize([(0.0, 0.49)])], N_MC)
        target = math.exp(-(0.49 ** 0.5))
        assert abs(np.mean(vals[:, 0] <= 1.0) - target) <= binom_tol(target)

    def test_time_change_law_matches_full_measure(self):
        # on [0, t] both laws are Frechet with scale t**beta
        rng = np.random.default_rng(37)
        fam = [normalize([(0.0, 0.64)])]
        star = mstar_batch(rng, 1.0, 0.5, fam, 8000)[:, 0]
        full = karlin_batch(rng, 1.0, 0.5, fam, 8000)[:, 0]
        assert ks_2samp(star, full).pvalue > 0.01

    def test_coupled_domination_and_marginals(self):
        rng = np.random.default_rng(38)
        fam = [normalize([(0.25, 1.0)]), normalize([(0.1, 0.6)])]
        n = 10000
        big, small = coupled_batch(rng, 1.0, 0.5, fam, n)
        assert (big >= small).all()
        target = math.exp(-0.5)
        assert abs(np.mean(small[:, 0] <= 1.0) - target) <= binom_tol(target, n)

    def test_coupled_cell_budget(self):
        # 10 atoms and 11 gaps: one cell over the budget that also caps the sets
        fam = [normalize([(k / 10 + 0.02, k / 10 + 0.05)]) for k in range(10)]
        with pytest.raises(CapacityError, match="21 cells exceed the 20-cell"):
            coupled_batch(np.random.default_rng(0), 1.0, 0.5, fam, 1)

    def test_unit_carrier_only(self):
        fam = [IntervalSet(((0.0, 1.0),), (0.0, 4.0))]
        with pytest.raises(ValueError, match="unit carrier"):
            sample_mstar(np.random.default_rng(0), 1.0, 0.5, fam)
        with pytest.raises(ValueError, match="unit carrier"):
            coupled_batch(np.random.default_rng(0), 1.0, 0.5, fam, 1)


class TestTopProcess:
    def test_first_value_law(self):
        fam = [normalize([(0.0, 0.25)])]
        vals, _ = top_m_batch(np.random.default_rng(39), 1.0, 0.5, 1, fam, N_MC)
        target = math.exp(-1.0)  # P(Gamma_1 ** -1 <= 1)
        assert abs(np.mean(vals[:, 0] <= 1.0) - target) <= binom_tol(target)

    def test_hit_marginal_and_independence(self):
        fam = [normalize([(0.0, 0.25)])]
        vals, hits = top_m_batch(np.random.default_rng(40), 1.0, 0.5, 1, fam, N_MC)
        vals, hits = vals[:, 0], hits[:, 0, 0]
        assert abs(hits.mean() - 0.5) <= binom_tol(0.5)
        # independence of the hit pattern and the level
        med = np.median(vals)
        hi = hits[vals > med].mean()
        lo = hits[vals <= med].mean()
        assert abs(hi - lo) <= 2.0 * binom_tol(0.5, N_MC // 2)

    def test_joint_hits_product_form(self):
        fam = [normalize([(0.0, 0.25)]), normalize([(0.5, 0.75)])]
        _, hits = top_m_batch(np.random.default_rng(41), 1.0, 0.5, 2, fam, N_MC)
        target = 0.25  # product of 0.25**0.5
        assert abs(np.mean(hits[:, 0, 0] & hits[:, 1, 1]) - target) <= binom_tol(target)

    def test_values_strictly_decreasing(self):
        vals, _ = top_m_batch(np.random.default_rng(42), 2.0, 0.5, 6, [normalize([(0.0, 1.0)])], 1000)
        assert (np.diff(vals, axis=1) < 0).all()


class TestEqualityInLaw:
    """Pattern clocks against the sequential atom walk of tests/oracles.py.

    Two-sample KS at 99% on every coordinate (atoms_used included where the
    sampler reports it), and joint events within 3 SE of the difference,
    with 20000 replicas a side.
    """

    R = 20000

    @staticmethod
    def _compare(ours, ref, events):
        crit = two_sample_ks_critical(len(ours), len(ref))
        ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
        for j in range(ours.shape[1]):
            assert ks_2samp(ours[:, j], ref[:, j]).statistic <= crit, j
        for event in events:
            p, q = event(ours).mean(), event(ref).mean()
            pooled = 0.5 * (p + q)
            assert abs(p - q) <= 3.0 * math.sqrt(pooled * (1.0 - pooled) * 2.0 / len(ours)), event

    def _karlin(self, seed, family, z):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
        ours, ref = [], []
        for _ in range(self.R):
            s = sample_karlin(rng, 1.0, 0.5, family)
            ours.append(s.values + (s.atoms_used,))
            values, used = reference_karlin(ref_rng, 1.0, 0.5, family)
            ref.append(values + (used,))
        d = len(family)
        self._compare(ours, ref, [lambda x: (x[:, :d] <= z).all(axis=1),
                                  lambda x: x[:, d] <= 2, lambda x: x[:, 0] >= x[:, d - 1]])

    def test_karlin(self):
        fam = (normalize([(0.0, 0.3)]), normalize([(0.2, 0.6)]), normalize([(0.5, 0.55), (0.7, 0.9)]))
        self._karlin(50, fam, 1.0)

    def test_karlin_wide_carrier(self):
        carrier = (0.0, 3.0)
        self._karlin(52, (IntervalSet(((0.0, 1.0),), carrier), IntervalSet(((0.5, 2.5),), carrier)), 1.5)

    def test_karlin_narrow_set(self):
        self._karlin(54, (normalize([(0.3, 0.3001)]), normalize([(0.5, 0.75)])), 1.0)

    def test_mstar(self):
        fam = (normalize([(0.25, 1.0)]), normalize([(0.1, 0.6)]), normalize([(0.0, 0.05)]))
        rng, ref_rng = np.random.default_rng(56), np.random.default_rng(57)
        ours, ref = [], []
        for _ in range(self.R):
            s = sample_mstar(rng, 1.0, 0.5, fam)
            ours.append(s.values + (s.atoms_used,))
            values, used = reference_mstar(ref_rng, 1.0, 0.5, fam)
            ref.append(values + (used,))
        self._compare(ours, ref, [lambda x: (x[:, :3] <= 1.0).all(axis=1), lambda x: x[:, 3] <= 3])

    def test_coupled(self):
        fam = (normalize([(0.25, 1.0)]), normalize([(0.1, 0.6)]))
        ours = np.hstack(coupled_batch(np.random.default_rng(58), 1.0, 0.5, fam, self.R))
        ref_rng = np.random.default_rng(59)
        ref = []
        for _ in range(self.R):
            (ref_big, ref_small), _ = reference_coupled(ref_rng, 1.0, 0.5, fam)
            ref.append(ref_big + ref_small)
        self._compare(ours, ref, [lambda x: (x[:, :4] <= 1.0).all(axis=1), lambda x: x[:, 0] == x[:, 2]])

    def test_top_m(self):
        fam = (normalize([(0.0, 0.25)]), normalize([(0.2, 0.6)]))
        values, hits = top_m_batch(np.random.default_rng(60), 1.0, 0.5, 3, fam, self.R)
        ours = np.column_stack([values, hits.reshape(self.R, -1)])
        ref_rng = np.random.default_rng(61)
        ref = []
        for _ in range(self.R):
            recs = reference_top_m(ref_rng, 1.0, 0.5, 3, fam)
            ref.append([v for v, _ in recs] + [h for _, hs in recs for h in hs])
        self._compare(ours, ref, [lambda x: x[:, 3] * x[:, 4] == 1, lambda x: x[:, 5] + x[:, 8] == 0])


@st.composite
def interval_sets(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    pairs = []
    for _ in range(k):
        lo = draw(st.floats(min_value=0.0, max_value=0.99))
        hi = draw(st.floats(min_value=lo, max_value=1.0))
        pairs.append((lo, hi))
    return normalize(pairs)


class TestProperties:
    @given(interval_sets(), interval_sets(), st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_sup_measure_axiom_batch(self, a, b, seed):
        vals = karlin_batch(replica_rng(seed), 1.0, 0.5, (a, b, a.union(b)), 50)
        assert np.array_equal(vals[:, 2], np.maximum(vals[:, 0], vals[:, 1]))

    @given(interval_sets(), interval_sets(), st.integers(0, 2 ** 32))
    @settings(max_examples=50, deadline=None)
    def test_sup_measure_axiom_urn(self, a, b, seed):
        batch = ksim.simulate_batch(1.0, 0.5, 2000, replica_rng(seed), 3, family=(a, b))
        va, vb = ksim.empirical_sup(batch, a), ksim.empirical_sup(batch, b)
        assert np.array_equal(ksim.empirical_sup(batch, a.union(b)), np.maximum(va, vb))

    @given(interval_sets(), interval_sets(), st.integers(1, 3000), st.integers(0, 2 ** 32))
    @settings(max_examples=50, deadline=None)
    def test_prefix_property(self, a, b, r, seed):
        fam = (a, b, normalize([(0.2, 0.3)]))
        big = karlin_batch(replica_rng(seed), 1.0, 0.5, fam, 2 * r)
        assert np.array_equal(karlin_batch(replica_rng(seed), 1.0, 0.5, fam, r), big[:r])
        star = mstar_batch(replica_rng(seed), 1.0, 0.5, fam, 2 * r)
        assert np.array_equal(mstar_batch(replica_rng(seed), 1.0, 0.5, fam, r), star[:r])
        pair = coupled_batch(replica_rng(seed), 1.0, 0.5, fam, 2 * r)
        for small, whole in zip(coupled_batch(replica_rng(seed), 1.0, 0.5, fam, r), pair):
            assert np.array_equal(small, whole[:r])
        top = top_m_batch(replica_rng(seed), 1.0, 0.5, 2, fam, 2 * r)
        for small, whole in zip(top_m_batch(replica_rng(seed), 1.0, 0.5, 2, fam, r), top):
            assert np.array_equal(small, whole[:r])


def test_csv_export():
    rng = np.random.default_rng(43)
    fam = [normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)])]
    samples = [sample_karlin(rng, 1.0, 0.5, fam) for _ in range(3)]
    text = limit_samples_csv(samples)
    lines = text.strip().splitlines()
    assert lines[0] == "replica,set_id,value,atoms_used"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == samples[0].values[0]


_HALF = (normalize([(0.0, 0.5)]),)
_SAMPLERS = {
    "karlin_batch": lambda alpha, r: karlin_batch(replica_rng(1), alpha, 0.5, _HALF, r),
    "mstar_batch": lambda alpha, r: mstar_batch(replica_rng(1), alpha, 0.5, _HALF, r),
    "coupled_batch": lambda alpha, r: coupled_batch(replica_rng(1), alpha, 0.5, _HALF, r),
    "top_m_batch": lambda alpha, r: top_m_batch(replica_rng(1), alpha, 0.5, 2, _HALF, r),
    "sample_karlin": lambda alpha, r: sample_karlin(replica_rng(1), alpha, 0.5, _HALF),
    "sample_mstar": lambda alpha, r: sample_mstar(replica_rng(1), alpha, 0.5, _HALF),
}


@pytest.mark.parametrize("name, alpha, replicas, field", [
    *[(name, alpha, 5, "alpha") for name in _SAMPLERS for alpha in (math.inf, -1.0, 0.0, math.nan)],
    *[(name, 1.0, r, "replicas") for name in _SAMPLERS if name.endswith("_batch") for r in (-2, 0)],
])
def test_samplers_reject_bad_alpha_and_replicas(name, alpha, replicas, field):
    with pytest.raises(ValueError, match=field):
        _SAMPLERS[name](alpha, replicas)
