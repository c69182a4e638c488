"""Independent reference computations for the tests.

These deliberately avoid the code paths they check: the zeta constant comes
from a truncated series with an Euler-Maclaurin tail, set algebra is checked
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

from karlin_rsm.distributions import qbeta_tail
from karlin_rsm.interval_sets import CapacityError, atomize, normalize


def zeta_series(s: float, terms: int = 10 ** 6) -> float:
    """zeta(s) via direct summation plus an Euler-Maclaurin tail."""
    ell = np.arange(1, terms + 1, dtype=float)
    head = float(np.sum(ell ** -s))
    a = terms + 1.0
    tail = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s + s * a ** (-s - 1.0) / 12.0
    return head + tail


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
# under Q i.i.d. uniforms, and the walk stops once every set is hit.  They
# share no code with the pattern-clock samplers they check.

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
    deco = atomize(family)
    return HitPatternSampler(beta, deco.measures), deco.member_masks()


def reference_karlin(rng, alpha: float, beta: float, family):
    """(values, atoms_used) of M over a family on a carrier [0, w], atom by atom.

    Values on [0, w] are those on the unit carrier times w**(beta/alpha).
    """
    unit, width = _on_unit(family)
    sampler, member = _atom_walk(beta, unit)
    values = [0.0] * len(family)
    pending = {i for i, a in enumerate(unit) if a.lebesgue() > 0}
    gamma, used = 0.0, 0
    while pending:
        used += 1
        gamma += rng.standard_exponential()
        hit = sampler.draw(rng)
        for i in [i for i in pending if member[i] & hit]:
            values[i] = gamma ** (-1.0 / alpha) * width ** (beta / alpha)
            pending.discard(i)
    return tuple(values), used


def reference_mstar(rng, alpha: float, beta: float, family):
    """(values, atoms_used) of M*: each atom hits only the minimum of its Q uniforms."""
    values = [0.0] * len(family)
    pending = {i for i, a in enumerate(family) if a.lebesgue() > 0}
    gamma, used = 0.0, 0
    while pending:
        used += 1
        gamma += rng.standard_exponential()
        q = float(qbeta_sample(rng, beta))
        x = -math.expm1(math.log1p(-rng.random()) / q)
        for i in [i for i in pending if family[i].contains(x)]:
            values[i] = gamma ** (-1.0 / alpha)
            pending.discard(i)
    return tuple(values), used


def reference_coupled(rng, alpha: float, beta: float, family):
    """((M values, M* values), atoms_used): one atom walk over the atoms and gaps of [0, 1).

    The minimum uniform lies in the leftmost hit cell.
    """
    deco = atomize(family)
    union = normalize([iv for a in family for iv in a.intervals])
    cells = sorted([a.intervals[0] for a in deco.atoms] + list(union.complement().intervals))
    sampler = HitPatternSampler(beta, [hi - lo for lo, hi in cells])
    member = [sum(1 << cells.index(deco.atoms[j].intervals[0]) for j in idx) for idx in deco.membership]
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
