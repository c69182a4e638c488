import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm.choquet_oracle import (
    ChoquetQuery,
    joint_cdf,
    mstar_theta,
    tail_dependence,
    tau_z,
    theta,
)
from karlin_rsm.cli import _query_from_json
from karlin_rsm.distributions import frechet_cdf
from karlin_rsm.interval_sets import IntervalSet, normalize
from karlin_rsm.limit_sim import pattern_rates

from oracles import exponent_by_quadrature, pattern_limit_by_subsets


def query(pairs, beta=0.5):
    return ChoquetQuery(pairs=tuple(pairs), beta=beta)


def random_query(rng, d_max=4, carrier=(0.0, 1.0)):
    # a random query at an index alpha in [0.5, 2], held at index 1: its thresholds z**alpha
    d = int(rng.integers(1, d_max + 1))
    pairs = []
    for _ in range(d):
        w = float(rng.uniform(0.08, 0.4))
        lo = float(rng.uniform(carrier[0], carrier[1] - w))
        pairs.append((normalize([(lo, lo + w)], carrier=carrier), float(rng.uniform(0.5, 2.5))))
    alpha = float(rng.uniform(0.5, 2.0))
    return query([(a, z ** alpha) for a, z in pairs], beta=float(rng.uniform(0.05, 0.95)))


class TestTheta:
    def test_values(self):
        assert theta(normalize([(0.0, 1.0)]), 0.5) == 1.0
        assert theta(normalize([(0.0, 0.25)]), 0.5) == pytest.approx(0.5)
        assert theta(normalize([]), 0.5) == 0.0

    def test_depends_only_on_measure(self):
        beta = 0.7
        a = normalize([(0.0, 0.2), (0.5, 0.8)])
        b = normalize([(0.3, 0.8)])
        assert theta(a, beta) == pytest.approx(theta(b, beta), rel=1e-14)


class TestTailDependence:
    def test_single_set(self):
        assert tail_dependence(query([(normalize([(0.0, 0.25)]), 1.0)])) == pytest.approx(0.5)

    def test_layer_cake_by_hand(self):
        car = (0.0, 2.0)
        a1 = IntervalSet(((0.0, 1.0),), car)
        a2 = IntervalSet(((0.0, 2.0),), car)
        val = tail_dependence(query([(a1, 1.0), (a2, 2.0)]))
        assert val == pytest.approx(0.5 + 0.5 * math.sqrt(2.0), rel=1e-14)

    def test_tied_weights_collapse(self):
        car = (0.0, 2.0)
        a1 = IntervalSet(((0.0, 1.0),), car)
        a2 = IntervalSet(((1.0, 2.0),), car)
        assert tail_dependence(query([(a1, 1.0), (a2, 1.0)])) == pytest.approx(math.sqrt(2.0))

    def test_positive_homogeneity_in_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_query(rng)
            c = float(rng.uniform(0.2, 5.0))
            scaled = query([(a, z / c) for a, z in q.pairs], beta=q.beta)
            assert tail_dependence(scaled) == pytest.approx(c * tail_dependence(q), rel=1e-12)

    def test_monotone_in_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = random_query(rng, d_max=3)
            grown = list(q.pairs)
            a0, z0 = grown[0]
            lo, hi = a0.intervals[0]
            grown[0] = (normalize([(max(0.0, lo - 0.05), min(1.0, hi + 0.05))]), z0)
            q2 = query(grown, beta=q.beta)
            assert tail_dependence(q2) >= tail_dependence(q) - 1e-14

    def test_max_linear_form_of_the_pattern_rates(self):
        # TD(q) = sum over patterns S != 0 of p_S max_{i in S} 1/z_i, p = pattern_rates: the
        # oracle's layer cake against the limit sampler's clock rates, on families of overlapping sets
        rng = np.random.default_rng(9)
        overlapping = 0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            fam = [normalize([tuple(sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(rng.integers(1, 4))])
                   for _ in range(d)]
            z = rng.uniform(0.2, 5.0, d) ** float(rng.uniform(0.2, 5.0))  # thresholds at an index in [0.2, 5]
            q = query(zip(fam, z.tolist()), beta=float(rng.uniform(0.05, 0.95)))
            rates = pattern_rates(q.beta, fam)
            codes = np.arange(1, 2 ** d)
            inside = (codes[:, None] >> np.arange(d)) & 1 == 1
            form = float(rates[1:] @ np.where(inside, np.array(q.weights), 0.0).max(axis=1))
            assert form == pytest.approx(tail_dependence(q), rel=1e-12, abs=0.0)
            overlapping += bool(rates[codes[inside.sum(axis=1) > 1]].any())
        assert overlapping >= 150

    def test_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = random_query(rng)
            assert abs(tail_dependence(q) - exponent_by_quadrature(q)) <= 1e-8


class TestJointCdf:
    def test_values(self):
        assert joint_cdf(query([(normalize([(0.0, 1.0)]), 1.0)])) == pytest.approx(math.exp(-1.0))
        halves = [(normalize([(0.0, 0.5)]), 1.0), (normalize([(0.5, 1.0)]), 1.0)]
        assert joint_cdf(query(halves)) == pytest.approx(math.exp(-1.0))
        car = (0.0, 2.0)
        units = [(IntervalSet(((0.0, 1.0),), car), 1.0), (IntervalSet(((1.0, 2.0),), car), 1.0)]
        assert joint_cdf(query(units)) == pytest.approx(math.exp(-math.sqrt(2.0)))

    def test_frechet_marginal_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = float(rng.uniform(0.05, 0.95))
            lo = float(rng.uniform(0, 1 - w))
            z = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.1, 0.9))
            q = query([(normalize([(lo, lo + w)]), z)], beta=beta)
            assert joint_cdf(q) == pytest.approx(frechet_cdf(z, w ** beta), rel=1e-13)

    def test_max_stability(self):
        # scaling every threshold by c raises the joint law to 1/c
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = random_query(rng)
            c = float(rng.uniform(0.5, 3.0))
            q2 = query([(a, c * z) for a, z in q.pairs], beta=q.beta)
            assert joint_cdf(q2) == pytest.approx(joint_cdf(q) ** (1.0 / c), rel=1e-11)

    def test_validation(self):
        for z in (-1.0, math.nan):
            with pytest.raises(ValueError, match="thresholds"):
                query([(normalize([(0.0, 0.5)]), z)])
        with pytest.raises(ValueError):
            query([])
        with pytest.raises(ValueError):
            ChoquetQuery(pairs=((normalize([(0.0, 0.5)]), 1.0),), beta=1.0)

    def test_thresholds_zero_and_inf_are_the_limits(self):
        # M(A) > 0 a.s. where Leb(A) > 0, so P(M(A) <= 0) = 0; a set of measure 0 has M = 0 and adds
        # nothing, its weight inf included; a threshold inf drops its pair
        half, empty, other = normalize([(0.0, 0.5)]), normalize([]), normalize([(0.5, 0.75)])
        assert joint_cdf(query([(half, 0.0), (other, 1.0)])) == 0.0
        assert tail_dependence(query([(half, 0.0), (other, 1.0)])) == math.inf
        for dropped in ((empty, 0.0), (half, math.inf)):
            assert tail_dependence(query([dropped, (other, 1.0)])) == tail_dependence(query([(other, 1.0)])) == 0.5


class TestExtremalProcess:
    """The extremal process t -> M([0, t)) through joint_cdf on nested sets."""

    @staticmethod
    def cdf(times, levels):
        carrier = (0.0, max(times))
        return joint_cdf(query([(IntervalSet(((0.0, t),), carrier), z) for t, z in zip(times, levels)]))

    def test_single_time(self):
        assert self.cdf([1.0], [1.0]) == pytest.approx(math.exp(-1.0))

    def test_median_at_window_four(self):
        from scipy.optimize import brentq

        med = brentq(lambda z: self.cdf([4.0], [z]) - 0.5, 0.01, 100.0)
        assert med == pytest.approx(2.0 / math.log(2.0), rel=1e-10)

    def test_nested_pair(self):
        assert self.cdf([1.0, 2.0], [1.0, 1.0]) == pytest.approx(math.exp(-math.sqrt(2.0)))

    def test_marginal_is_frechet_scale_t_beta(self):
        for t in (0.25, 1.0, 4.0):
            for z in (0.5, 1.0, 2.0):
                assert self.cdf([t], [z]) == pytest.approx(frechet_cdf(z, t ** 0.5))


class TestTauZ:
    def test_perfect_overlap(self):
        assert tau_z(0.0, 1.0, 0.5) == pytest.approx(1.0)
        assert tau_z(0.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_constant_and_positive_beyond_one(self):
        target = 2.0 - math.sqrt(2.0)
        for t in (1.5, 2.0, 5.0, 100.0):
            assert tau_z(t, 1.0, 0.5) == pytest.approx(target, rel=1e-12)
        assert target > 0

    def test_overlapping_window(self):
        for t in (0.25, 0.5, 0.75):
            assert tau_z(t, 1.0, 0.5) == pytest.approx(2.0 - (1.0 + t) ** 0.5, rel=1e-12)

    def test_scaling_in_z(self):
        assert tau_z(3.0, 4.0, 0.5) == pytest.approx((2.0 - 2.0 ** 0.5) / 4.0, rel=1e-12)


def pattern_limit(beta, family):
    """The occupancy-pattern limits, gamma(1 - beta) p_S entry by entry; pattern_rates checks beta."""
    rates = pattern_rates(beta, family)
    return math.gamma(1.0 - beta) * rates


class TestPatternLimits:
    def test_single_set(self):
        # entry 0 holds the boxes outside [0, 1/2), entry 1 those inside
        table = pattern_limit(0.5, (normalize([(0.0, 0.5)]),))
        half = math.gamma(0.5) * 0.5 ** 0.5
        assert table.tolist() == pytest.approx([math.gamma(0.5) - half, half], rel=1e-13)

    def test_two_disjoint_joint_pattern(self):
        # entry S counts the boxes hit in exactly the sets of S: bit 0 for [0, 1/2), bit 1 for [1/2, 1)
        fam = (normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)]))
        g, half = math.gamma(0.5), 0.5 ** 0.5
        target = [0.0, g * (1.0 - half), g * (1.0 - half), g * (2.0 * half - 1.0)]
        assert pattern_limit(0.5, fam).tolist() == pytest.approx(target, rel=1e-12, abs=1e-15)

    def test_partition_telescopes(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            fam = []
            for _ in range(d):
                pts = np.sort(rng.random(4))
                fam.append(normalize([(pts[0], pts[1]), (pts[2], pts[3])]))
            beta = float(rng.uniform(0.05, 0.95))
            table = pattern_limit(beta, tuple(fam))
            assert table.shape == (2 ** d,) and np.all(table >= -1e-10)
            union_all = fam[0]
            for s in fam[1:]:
                union_all = union_all.union(s)
            target = math.gamma(1 - beta) * theta(union_all, beta)
            assert abs(table[1:].sum() - target) <= 1e-10
            assert abs(table.sum() - math.gamma(1 - beta)) <= 1e-10  # every box of the carrier

    def test_validation(self):
        fam = (normalize([(0.0, 0.5)]),)
        for beta in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="beta"):
                pattern_limit(beta, fam)
        with pytest.raises(ValueError, match="carrier"):
            pattern_limit(0.5, (fam[0], IntervalSet(((0.0, 1.0),), (0.0, 2.0))))

    @given(st.lists(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3),
                    min_size=1, max_size=4),
           st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_limit_samplers_rates(self, raw, beta):
        # float subset sums (oracles.pattern_limit_by_subsets) against limit_sim's exact Moebius
        # inversion of the union measures: they share no code, and agree entry by entry, the idle
        # entry 0 included, to 1e-12 of the table's total gamma(1 - beta) (an empty pattern's sum
        # may cancel to +-1e-17 where the exact inversion gives 0)
        fam = tuple(normalize([(min(a, b), max(a, b)) for a, b in pairs if a != b] or [(0.0, 0.5)])
                    for pairs in raw)
        got = pattern_limit_by_subsets(beta, fam)
        want = pattern_limit(beta, fam)
        assert got.shape == want.shape == (2 ** len(fam),)
        assert np.abs(got - want).max() <= 1e-12 * math.gamma(1.0 - beta), (got, want)


class TestVariantFunctional:
    def test_values(self):
        assert mstar_theta(0.25, 1.0, 0.5) == pytest.approx(0.5)
        assert mstar_theta(0.0, 0.7, 0.5) == pytest.approx(theta(normalize([(0.0, 0.7)]), 0.5))

    def test_image_measure_consistency(self):
        # equals the Lebesgue measure of the image of [a, b] under t -> t**beta
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b = np.sort(rng.uniform(0, 1, 2))
            if b - a < 1e-6:
                continue
            beta = float(rng.uniform(0.1, 0.9))
            grid = np.linspace(a, b, 100001) ** beta
            numeric = grid[-1] - grid[0]
            assert mstar_theta(a, b, beta) == pytest.approx(numeric, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            mstar_theta(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            mstar_theta(-0.1, 0.5, 0.5)


class TestQueryJson:
    def test_round_trip(self):
        q = query([(normalize([(0.0, 0.25)]), 1.0), (normalize([(0.5, 1.0)]), 2.0)])
        text = json.dumps({
            "alpha": 1.0,
            "beta": q.beta,
            "pairs": [{"set": {"carrier": list(a.carrier), "intervals": [list(iv) for iv in a.intervals]},
                       "z": z} for a, z in q.pairs],
        })
        assert _query_from_json(json.loads(text)) == q

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="beta"):
            _query_from_json({"alpha": 1.0, "pairs": []})

    def test_query_at_alpha_is_the_index_one_query_at_z_to_the_alpha(self):
        # P(M_alpha(A) <= z) = P(M_1(A) <= z**alpha); at alpha = 1 the thresholds stay as they are
        def at_alpha(q, alpha):
            pairs = [{"set": {"intervals": [list(iv) for iv in a.intervals]}, "z": z} for a, z in q.pairs]
            return {"alpha": alpha, "beta": q.beta, "pairs": pairs}

        rng = np.random.default_rng(8)
        for _ in range(50):
            q, alpha = random_query(rng), float(rng.uniform(0.2, 5.0))
            assert _query_from_json(at_alpha(q, 1.0)) == q
            mapped = query([(a, z ** alpha) for a, z in q.pairs], beta=q.beta)
            assert _query_from_json(at_alpha(q, alpha)) == mapped

    @pytest.mark.parametrize("alpha, z, what", [
        (0.0, 1.0, "alpha"), (-1.0, 1.0, "alpha"), (math.inf, 1.0, "alpha"), (math.nan, 1.0, "alpha"),
        (2.0, 0.0, "thresholds"), (2.0, -1.0, "thresholds"), (2.0, math.nan, "thresholds"),
    ])
    def test_bad_alpha_or_threshold(self, alpha, z, what):
        obj = {"alpha": alpha, "beta": 0.5, "pairs": [{"set": {"intervals": [[0.0, 0.25]]}, "z": z}]}
        with pytest.raises(ValueError, match=what):
            _query_from_json(obj)
