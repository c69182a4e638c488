"""Independent reference computations for the tests.

These deliberately avoid the code paths they check: the zeta constant comes
from a truncated series with an Euler-Maclaurin tail, zeta labels from
Devroye's rejection over the whole support, the urn from one label per
step instead of box counts, set algebra is checked
against dense boolean grids, and the joint-law exponent is recomputed by
adaptive quadrature of the pattern-expanded integrand instead of the layer
cake.
"""

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.integrate import quad

from karlin_rsm.distributions import pareto_sample_batch, qbeta_tail
from karlin_rsm.interval_sets import CapacityError, atomize, normalize
from karlin_rsm.karlin_sim import replica_rng


def _power_tail(s: float, a: float) -> float:
    """Sum of k**-s over k >= a, by Euler-Maclaurin (a large)."""
    return a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s + s * a ** (-s - 1.0) / 12.0


def zeta_series(s: float, terms: int = 10 ** 6) -> float:
    """zeta(s) via direct summation plus an Euler-Maclaurin tail."""
    ell = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(ell ** -s)) + _power_tail(s, terms + 1.0)


def reference_urn(alpha: float, beta: float, n: int, seed: int, replica: int = 0):
    """The urn drawn one label per step: the n zeta labels from :func:`zeta_devroye`,
    then one mark per occupied box in label order.  Returns the draws and the
    mark of every step; a label beyond float range would merge boxes, so it fails."""
    rng = replica_rng(seed, replica)
    draws = zeta_devroye(rng, 1.0 / beta, n)
    assert np.all(np.isfinite(draws)), "a zeta label beyond float range"
    labels, inverse = np.unique(draws, return_inverse=True)
    return draws, pareto_sample_batch(rng, alpha, len(labels))[inverse]


def expected_boxes(beta: float, hit: int, miss: int, head: int = 2 ** 22) -> float:
    """E #{boxes with a draw among ``hit`` positions and none among ``miss`` others}:
    the sum over l of (1 - p_l)**miss - (1 - p_l)**(hit + miss), p_l = l**-s / zeta(s).

    The first ``head`` terms are summed directly; beyond them each term is
    hit p - (C(hit + miss, 2) - C(miss, 2)) p**2 to third order in p.
    """
    s = 1.0 / beta
    norm = zeta_series(s)
    total = 0.0
    for lo in range(1, head + 1, 2 ** 20):
        log_q = np.log1p(-np.arange(lo, lo + 2 ** 20, dtype=float) ** -s / norm)
        total += float(np.sum(np.exp(miss * log_q) * -np.expm1(hit * log_q)))
    quad = (hit + miss) * (hit + miss - 1) / 2 - miss * (miss - 1) / 2
    a = head + 1.0
    return total + hit * _power_tail(s, a) / norm - quad * _power_tail(2.0 * s, a) / norm ** 2


def zeta_devroye(rng: np.random.Generator, s: float, size: int) -> np.ndarray:
    """Devroye's rejection sampler of P(Y = k) = k**-s / zeta(s), k >= 1.

    Candidates floor(U**(-1/(s-1))) from the Pareto envelope over all k >= 1,
    accepted in trial order (Devroye 1986, ch. X.6).  Returns float64
    labels, inf for labels beyond float range.
    """
    sm1 = s - 1.0
    b = 2.0 ** sm1
    out = np.empty(0)
    while out.size < size:
        m = 2 * (size - out.size) + 16
        u = 1.0 - rng.random(m)
        v = rng.random(m)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.floor(u ** (-1.0 / sm1))
            tm1 = np.expm1(sm1 * np.log1p(1.0 / x))
            # x * (t - 1) tends to s - 1 as x leaves float range
            xt = np.where(np.isfinite(x), x * tm1, sm1)
        # accept iff v * x * (t-1) / (b-1) <= t / b
        out = np.concatenate([out, x[v * xt * b <= (tm1 + 1.0) * (b - 1.0)]])
    return out[:size]


def grid_bitmap(intervals, cells: int = 10 ** 4) -> np.ndarray:
    """Dense half-open membership mask of cell midpoints on [0, 1)."""
    mids = (np.arange(cells) + 0.5) / cells
    mask = np.zeros(cells, dtype=bool)
    for lo, hi in intervals:
        mask |= (mids >= lo) & (mids < hi)
    return mask


def exponent_by_quadrature(query) -> float:
    """The joint-law exponent via adaptive quadrature of the x-integral.

    The integrand E[max_i w_i 1{hit_i at scale x}] is expanded over the
    2**d - 1 hit patterns with inclusion-exclusion void probabilities (no
    comonotonic sorting anywhere).  On [0, 1] the x**(-beta-1) singularity
    is removed by parts and the remaining x**-beta weight is handled by the
    QAWS algebraic-weight rule; on [1, inf) the substitution u = 1/x leaves
    a constant that integrates exactly plus an exponentially vanishing
    remainder.
    """
    beta = query.beta
    sets = [a for a, _ in query.pairs]
    weights = list(query.weights)
    d = len(sets)

    def union_measure(idxs):
        if not idxs:
            return 0.0
        u = sets[idxs[0]]
        for i in idxs[1:]:
            u = u.union(sets[i])
        return u.lebesgue()

    leb = {}
    for size in range(0, d + 1):
        for subset in combinations(range(d), size):
            leb[frozenset(subset)] = union_measure(list(subset))

    patterns = []
    for mask in range(1, 1 << d):
        hit = [k for k in range(d) if mask >> k & 1]
        miss = frozenset(k for k in range(d) if not mask >> k & 1)
        w = max(weights[k] for k in hit)
        terms = []
        for size in range(0, len(hit) + 1):
            for subset in combinations(hit, size):
                sign = 1.0 if size % 2 == 0 else -1.0
                terms.append((sign, leb[miss | frozenset(subset)]))
        patterns.append((w, terms))

    def g(x):
        total = 0.0
        for w, terms in patterns:
            p = sum(sign * math.exp(-x * L) for sign, L in terms)
            total += w * p
        return total

    def g_prime(x):
        total = 0.0
        for w, terms in patterns:
            total += w * sum(-sign * L * math.exp(-x * L) for sign, L in terms)
        return total

    g_inf = max(weights)  # only the all-hit pattern survives as x -> inf

    # integral over [0, 1] by parts: -g(1) + int x**-beta g'(x) dx
    i_weighted, _ = quad(g_prime, 0.0, 1.0, weight="alg", wvar=(-beta, 0.0),
                         epsabs=1e-13, epsrel=1e-13, limit=300)
    i_head = i_weighted - g(1.0)

    def tail_rest(u):  # x = 1/u; the g_inf part integrates to g_inf exactly
        if u == 0.0:
            return 0.0
        return beta * u ** (beta - 1.0) * (g(1.0 / u) - g_inf)

    i_tail, _ = quad(tail_rest, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300)
    return (i_head + g_inf + i_tail) / math.gamma(1.0 - beta)


# ---------------------------------------------------------------------------
# Sequential reference samplers of the limit sup-measures.
#
# These walk the Poisson atoms one at a time: each atom draws its block size
# Q from the block-size law and then the void pattern of the query atoms
# under Q i.i.d. uniforms, and the walk stops once every set is hit.  The
# walk for M skips the atoms that hit no pending set in one step instead.
# They share no code with the pattern-clock samplers they check.

_TAIL_TABLE_SIZE = 64


@lru_cache(maxsize=64)
def _neg_tail_table(beta: float) -> list:
    """-P(Q > k) for k = 0..63, ascending."""
    return [-qbeta_tail(k, beta) for k in range(_TAIL_TABLE_SIZE)]


def qbeta_from_uniform(u: float, beta: float) -> int:
    """Invert the block-size tail at u in (0, 1]: smallest k >= 1 with P(Q > k) < u.

    A table of the first 64 tails, then exponential search plus bisection,
    so the cost is O(log k) tail evaluations; the mean of Q is infinite.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    idx = bisect_right(_neg_tail_table(beta), -u)
    if idx < _TAIL_TABLE_SIZE:
        return idx
    hi = _TAIL_TABLE_SIZE
    while qbeta_tail(hi, beta) >= u:
        hi *= 2
    lo = hi // 2  # tail(lo) >= u > tail(hi) since the tail is decreasing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qbeta_tail(mid, beta) < u:
            hi = mid
        else:
            lo = mid
    return hi


def qbeta_sample(rng: np.random.Generator, beta: float) -> int:
    """Exact inverse-CDF draw of the block-size law."""
    return qbeta_from_uniform(1.0 - rng.random(), beta)


class HitPatternSampler:
    """Joint void pattern of disjoint atoms with measures mu_j under Q uniforms.

    Given Q, the probability that exactly the atoms in S see no point is
    sum over supersets T of S of (-1)**(|T|-|S|) * (1 - mu_T)**Q, a Moebius
    transform over all 2**m patterns.
    """

    def __init__(self, beta: float, measures):
        mu = np.asarray(measures, dtype=float)
        if mu.size > 20:
            raise CapacityError(f"{mu.size} atoms exceed the 20-atom pattern budget")
        if np.any(mu <= 0):
            raise ValueError("atom measures must be positive")
        if mu.sum() > 1.0 + 1e-9:
            raise ValueError("atom measures must sum to at most 1")
        self.beta = beta
        self.m = mu.size
        mu_sum = np.zeros(1)
        for x in mu:
            mu_sum = np.concatenate([mu_sum, mu_sum + x])
        with np.errstate(divide="ignore"):  # a full cover has void probability 0
            self._log1m = np.log1p(-np.minimum(mu_sum, 1.0))
        self._full = (1 << self.m) - 1

    def void_pmf(self, q) -> np.ndarray:
        try:
            qf = float(q)
        except OverflowError:
            qf = 1e308  # (1-mu)**q is flush to zero either way
        with np.errstate(under="ignore"):
            p = np.exp(qf * self._log1m)
        for j in range(self.m):
            v = p.reshape(-1, 2, 1 << j)
            v[:, 0, :] -= v[:, 1, :]
        np.clip(p, 0.0, None, out=p)
        return p / p.sum()

    def draw(self, rng: np.random.Generator) -> int:
        """Bitmask of the hit atoms under one hitting set."""
        q = qbeta_sample(rng, self.beta)
        if self.m > 6:
            pmf = self.void_pmf(q)
            void = int(np.searchsorted(np.cumsum(pmf), rng.random(), side="right"))
            return self._full & ~min(void, self._full)
        # scalar math beats numpy dispatch at these sizes
        try:
            qf = float(q)
        except OverflowError:
            qf = 1e308
        p = [math.exp(qf * x) for x in self._log1m.tolist()]
        for j in range(self.m):
            for mask in range(len(p)):
                if not mask & 1 << j:
                    p[mask] -= p[mask | 1 << j]
        p = [max(x, 0.0) for x in p]
        r = rng.random() * sum(p)
        acc = 0.0
        for void, x in enumerate(p):
            acc += x
            if r < acc:
                return self._full & ~void
        return 0


def sample_rbeta_hits(rng: np.random.Generator, beta: float, measures) -> np.ndarray:
    """Joint hit indicators of disjoint atoms under one hitting set."""
    sampler = HitPatternSampler(beta, measures)
    mask = sampler.draw(rng)
    return np.array([(mask >> j) & 1 == 1 for j in range(sampler.m)])


def _on_unit(family):
    """The family shrunk onto [0, 1], and the width of its carrier [0, w]."""
    width = family[0].carrier[1]
    return [normalize([(lo / width, hi / width) for lo, hi in a.intervals]) for a in family], width


def _atom_walk(beta, family):
    """Atom decomposition of the family on [0, 1], its sampler and set masks."""
    atoms, owners = atomize(family)
    masks = [sum(1 << j for j, owner in enumerate(owners) if owner >> i & 1) for i in range(len(family))]
    return HitPatternSampler(beta, [hi - lo for lo, hi in atoms]), masks


def hit_pattern_pmf(beta: float, measures) -> np.ndarray:
    """P(one hitting set hits exactly the atoms in mask), for every mask.

    A hitting set misses a union of measure mu with probability
    E[(1 - mu)**Q] = 1 - mu**beta, so it hits inside S with probability
    1 - mu(complement of S)**beta; the pmf is the Moebius inversion of that.
    """
    mu = list(measures)
    m = len(mu)
    full = (1 << m) - 1
    union = [math.fsum(mu[j] for j in range(m) if mask >> j & 1) for mask in range(1 << m)]
    p = [1.0 - union[full & ~mask] ** beta for mask in range(1 << m)]
    for j in range(m):
        for mask in range(1 << m):
            if mask >> j & 1:
                p[mask] -= p[mask ^ 1 << j]
    return np.maximum(p, 0.0)


@lru_cache(maxsize=16)
def _pattern_setup(beta: float, family: tuple):
    """The family on [0, 1], its carrier width, set masks over atoms and pattern pmf."""
    unit, width = _on_unit(family)
    atoms, owners = atomize(unit)
    masks = [sum(1 << j for j, owner in enumerate(owners) if owner >> i & 1) for i in range(len(unit))]
    return unit, width, masks, hit_pattern_pmf(beta, [hi - lo for lo, hi in atoms])


def reference_karlin(rng, alpha: float, beta: float, family):
    """(values, atoms_used) of M over a family on a carrier [0, w], atom by atom.

    The atoms that hit no pending set are skipped in one step: their number
    is geometric with success probability theta(U) = Leb(U)**beta for the
    union U of the pending sets, their exponential level spacings add up to
    one gamma draw, and the next atom's pattern is drawn conditioned on
    hitting U.  Values on [0, w] are those on the unit carrier times
    w**(beta/alpha).
    """
    unit, width, member, pmf = _pattern_setup(beta, tuple(family))
    masks = np.arange(pmf.size)
    values = [0.0] * len(family)
    pending = {i for i, a in enumerate(unit) if a.lebesgue() > 0}
    gamma, used = 0.0, 0
    while pending:
        union = 0
        for i in pending:
            union |= member[i]
        hitting = masks[masks & union != 0]
        cum = np.cumsum(pmf[hitting])
        skip = int(rng.geometric(min(cum[-1], 1.0)))
        used += skip
        gamma += rng.gamma(skip)
        pick = np.searchsorted(cum, rng.random() * cum[-1], side="right")
        hit = int(hitting[min(pick, hitting.size - 1)])
        for i in [i for i in pending if member[i] & hit]:
            values[i] = gamma ** (-1.0 / alpha) * width ** (beta / alpha)
            pending.discard(i)
    return tuple(values), used


def reference_mstar(rng, alpha: float, beta: float, family):
    """(values, atoms_used) of M*: each atom hits only the minimum of its Q uniforms."""
    flats = [[v for pair in a.intervals for v in pair] for a in family]  # x is in set i iff odd rank
    values = [0.0] * len(family)
    pending = {i for i, a in enumerate(family) if a.lebesgue() > 0}
    gamma, used = 0.0, 0
    while pending:
        used += 1
        gamma += rng.standard_exponential()
        q = float(qbeta_sample(rng, beta))
        x = -math.expm1(math.log1p(-rng.random()) / q)
        for i in [i for i in pending if bisect_right(flats[i], x) % 2 == 1]:
            values[i] = gamma ** (-1.0 / alpha)
            pending.discard(i)
    return tuple(values), used


def reference_coupled(rng, alpha: float, beta: float, family):
    """((M values, M* values), atoms_used): one atom walk over the atoms and gaps of [0, 1).

    The minimum uniform lies in the leftmost hit cell.
    """
    atoms, owners = atomize(family)
    union = normalize([iv for a in family for iv in a.intervals])
    cells = sorted(atoms + list(union.complement().intervals))
    sampler = HitPatternSampler(beta, [hi - lo for lo, hi in cells])
    member = [sum(1 << cells.index(a) for a, owner in zip(atoms, owners) if owner >> i & 1)
              for i in range(len(family))]
    big, small = [0.0] * len(family), [0.0] * len(family)
    pending = {(k, i) for k in (0, 1) for i, a in enumerate(family) if a.lebesgue() > 0}
    gamma, used = 0.0, 0
    while pending:
        used += 1
        gamma += rng.standard_exponential()
        hit = sampler.draw(rng)
        if not hit:
            continue
        lowest = hit & -hit
        for k, i in [(k, i) for k, i in pending if member[i] & (lowest if k else hit)]:
            (small if k else big)[i] = gamma ** (-1.0 / alpha)
            pending.discard((k, i))
    return (tuple(big), tuple(small)), used


def reference_top_m(rng, alpha: float, beta: float, m: int, family):
    """[(value, hits)] of the first m atoms on the unit carrier."""
    sampler, member = _atom_walk(beta, family)
    out, gamma = [], 0.0
    for _ in range(m):
        gamma += rng.standard_exponential()
        hit = sampler.draw(rng)
        out.append((gamma ** (-1.0 / alpha), tuple(bool(mask & hit) for mask in member)))
    return out
