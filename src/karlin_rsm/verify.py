"""Statistical verification harness.

Turns the limit theorems into quantitative desk-scale checks: empirical
CDFs against closed-form Frechet targets, hitting frequencies against
Wilson intervals, occupancy and pattern counts against their limits, and
the exact limit samplers against the closed-form oracle.  Every pass/fail
threshold is either a confidence bound computed from the run or a fixed
calibration constant in :data:`DEFAULT_THRESHOLDS` (the theory provides no
convergence rates, so the KS-style bounds are calibrated, not derived).  A
Frechet KS row and an extremal median row, whose statistics have a
closed-form sampling law, take the larger of their constant and that law's
99 % bound at the row's replica count, so no row fails by design.

Each suite's inputs are listed in one table, ``_SUITE_INPUTS``, which
only :class:`SuiteConfig` reads; its parts (an urn family or one limit
batch, each limit family drawn once) and their stream blocks in another,
:data:`_PARTS`.  An urn part gets its runs from one function, ``_urn_map``,
which draws them as batches of ``karlin_sim.chunk_runs`` runs (2**8 unless
runs are long), cut into the cells of the part's query sets, and hands each
batch to the suite's statistic, whose queries return one value per run:
chunk c draws from the counter-based stream ``replica_rng(seed, block *
2**20 + c)``; only a part whose chunks are large enough to share
(``karlin_sim.threads_pay``) runs them on more than one thread, at most one
per CPU; a suite takes at most 2**20 replicas per part, and only
``marginal`` takes more than one n.  A limit part draws all its replicas,
in replica order, as one vectorised batch from the single stream
``replica_rng(seed, block * 2**20)``, and the limit parts run one after
another.  So no two parts share a stream, and reports are byte-identical
for any ``threads`` setting.  The urn rows compare with exact finite-n
means where one exists (``mean_kn_ratio`` and the pattern rows), and
each of them takes the larger of its constant and 99 % of its standard
error, estimated from the replicas.
Every confidence bound is at the 99 % level.  A run returns a :class:`SuiteReport`
of :class:`CheckRow` values; the CLI writes it as CSV or JSON.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import choquet_oracle as oracle
from . import karlin_sim as ksim
from . import limit_sim as lsim
from .distributions import frechet_cdf, qbeta_pmf, qbeta_tail
from .interval_sets import UNIT, IntervalSet, normalize
from .karlin_sim import MAX_REPLICAS, replica_rng

__all__ = [
    "SuiteConfig",
    "CheckRow",
    "SuiteReport",
    "DEFAULT_THRESHOLDS",
    "SUITES",
    "ks_statistic",
    "ks_critical",
    "two_sample_ks",
    "two_sample_ks_critical",
    "wilson_ci",
    "run_suite",
    "suite_marginal",
    "suite_locations",
    "suite_occupancy",
    "suite_patterns",
    "suite_limit_vs_oracle",
    "suite_extremal_and_mstar",
]

# Calibration constants, the same for every run: the acceptance criteria are
# stated at these gates.
DEFAULT_THRESHOLDS = {
    "ks_marginal": 0.05,        # KS bound at the largest n of the marginal grid (see _frechet_row)
    "ks_marginal_other": 0.30,  # sanity bound at smaller grid points
    "ks_star": 0.07,            # KS bound for the discrete first-occurrence variant (see _frechet_row)
    "occupancy_rel": 0.02,      # relative error of mean K_n / nu(n) (see _mean_row)
    "pattern_rel": 0.05,        # relative error of pattern counts from their exact means (see _mean_row)
    "median_rel": 0.02,         # relative error of extremal-process medians (see _median_row)
    "binom_se_mult": 3.0,       # +-k*SE window for binomial comparisons
}

# Stream block of each part of each suite; tests/test_verify.py checks that
# no two parts of a suite share a stream.  Grid point k of the marginal suite
# is its own urn part, at block k.  Query 7 draws from block 11, as block 7
# holds the stream of the query parameters.  Block 10 of limit-vs-oracle and
# blocks 3 and 7 of extremal-mstar are unused, so that no later part's stream
# moves.
_PARTS = {
    "marginal": {"grid": 0},
    "locations": {"urn": 0, "top_m": 1},
    "occupancy": {"urn": 0},
    "patterns": {"urn": 0},
    "limit-vs-oracle": {
        "q0": 0, "q1": 1, "q2": 2, "q3": 3, "q4": 4, "q5": 5, "q6": 6, "queries": 7, "q8": 8,
        "q9": 9, "q7": 11, "t1.5": 12, "t2.0": 13, "t5.0": 14,
    },
    "extremal-mstar": {
        "t0.25": 0, "t1.0": 1, "t4.0": 2, "translation": 4, "mstar_marginal": 5,
        "time_change": 6, "coupled": 8, "discrete": 9,
    },
}

# Per suite: default n, replicas and query family, and the most sets a family
# may hold (0: fixed sets only).  A multi-n marginal grid adds a convergence-
# direction row, which needs replicas in the thousands to have power (the
# finite-n bias is within a couple of percent already at n = 1e3).
_QUARTERS = (normalize([(0.0, 0.25)]), normalize([(0.5, 0.75)]))
_SUITE_INPUTS = {
    "marginal": (10 ** 5, 2000, (normalize([(0.0, 1.0)]),), math.inf),
    "locations": (10 ** 5, 10 ** 4, _QUARTERS, ksim.WALK),  # one set per walked top box
    "occupancy": (10 ** 6, 100, (), 0),
    "patterns": (10 ** 6, 100, _QUARTERS, 3),
    "limit-vs-oracle": (10 ** 5, 10 ** 5, (), 0),
    "extremal-mstar": (10 ** 5, 10 ** 5, (), 0),
}

_RATE_REL = 1e-12  # relative gate of the pattern_rates_exact row

# 99 % quantiles, equal to SciPy's kstwobign.ppf(0.99), norm.ppf(0.995) and
# chi2.ppf(0.99, 10) to the last bit.
_KS_QUANTILE = 1.6276236115189502
_NORMAL_QUANTILE = 2.5758293035489004
_CHI2_10_QUANTILE = 23.209251158954356


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    beta: float = 0.5
    n_grid: tuple = None  # None: the suite's default, as for replicas
    replicas: int = None
    family: tuple = ()  # (): the suite's default sets
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.suite not in _SUITE_INPUTS:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {sorted(_SUITE_INPUTS)}")
        n, replicas, family, max_sets = _SUITE_INPUTS[self.suite]
        if self.n_grid is None:
            object.__setattr__(self, "n_grid", (n,))
        if self.replicas is None:
            object.__setattr__(self, "replicas", replicas)
        if not self.family:
            object.__setattr__(self, "family", family)
        elif not max_sets:
            raise ValueError(f"the {self.suite} suite takes no query family")
        elif len(self.family) > max_sets:
            raise ValueError(f"the {self.suite} suite takes at most {max_sets} query sets")
        elif any(a.carrier != UNIT for a in self.family):
            raise ValueError(f"the {self.suite} suite takes sets on the unit carrier {UNIT} only")
        elif not all(a.lebesgue() > 0 for a in self.family):
            raise ValueError(f"the {self.suite} suite takes sets of positive measure only")
        if not 100 <= self.replicas <= MAX_REPLICAS:
            raise ValueError(f"replica count must be between 100 and {MAX_REPLICAS}")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n grid must contain positive integers")
        if len(set(self.n_grid)) < len(self.n_grid):
            raise ValueError(f"n grid {self.n_grid} repeats a point")
        if len(self.n_grid) > 1 and self.suite != "marginal":
            raise ValueError(f"the {self.suite} suite takes one n, got the grid {self.n_grid}")
        for n in self.n_grid:  # every suite, so a bad n or beta exits before any part runs
            ksim.b_n(self.beta, n)
            if n > ksim.MAX_N:
                raise ksim.ResourceError(f"n={n} exceeds the allocation budget n <= {ksim.MAX_N}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    estimate: float
    target: float
    se_or_crit: float
    passed: bool
    n: int
    replicas: int
    seed: int

    def __post_init__(self):
        # numpy scalars serialize badly; pin plain types at the boundary
        object.__setattr__(self, "estimate", float(self.estimate))
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "se_or_crit", float(self.se_or_crit))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "replicas", int(self.replicas))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class SuiteReport:
    suite: str
    seed: int
    rows: list
    runtime: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


# ---------------------------------------------------------------------------
# statistics


def ks_statistic(samples, cdf) -> float:
    """Sup distance between the empirical CDF and a reference, exact at jumps.

    ``samples`` must be sorted ascending; the reference is a nondecreasing
    CDF that maps an array to an array of the same shape.  Left limits at the jump points are taken one float
    ulp below the samples, so step references (e.g. the samples' own
    empirical CDF) are handled exactly as well as continuous laws.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(np.diff(x) < 0):
        raise ValueError("samples must be sorted ascending")
    n = x.size
    f_right = np.asarray(cdf(x), dtype=float)
    f_left = np.asarray(cdf(np.nextafter(x, -np.inf)), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(f_right - hi), np.abs(f_left - lo))))


def ks_critical(n: int) -> float:
    """Asymptotic one-sample KS critical value at the 99 % level."""
    return _KS_QUANTILE / math.sqrt(n)


def two_sample_ks(a, b) -> float:
    """Two-sample KS statistic: sup distance of the empirical CDFs, at the pooled samples."""
    a, b = np.sort(a), np.sort(b)
    if not a.size or not b.size:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def two_sample_ks_critical(n1: int, n2: int) -> float:
    """Asymptotic two-sample KS critical value at the 99 % level."""
    return _KS_QUANTILE * math.sqrt((n1 + n2) / (n1 * n2))


def wilson_ci(hits: int, trials: int):
    """99 % Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    z = _NORMAL_QUANTILE
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _replica_stream_map(fn, count: int, seed: int, offset: int = 0):
    """fn(replica_rng(seed, offset + r)) for r = 0 .. count-1, serially.

    No suite calls it since the limit parts are drawn as batches; the
    benchmark's tracer still looks it up by name.
    """
    return [fn(replica_rng(seed, offset + r)) for r in range(count)]


# ---------------------------------------------------------------------------
# suite helpers


def _offset(cfg: SuiteConfig, part: str, index: int = 0) -> int:
    """First replica stream of a part of the suite (of its grid point ``index``)."""
    return (_PARTS[cfg.suite][part] + index) * MAX_REPLICAS


def _urn_map(cfg: SuiteConfig, part: str, sets, fn, n=None, index=0, count=None) -> list:
    """fn(batch) for the chunks of an urn part, in chunk order, on up to ``cfg.threads`` threads.

    The part's count runs (default: the replicas) of n draws (default: the
    suite's one n), cut into the cells of the query sets ``sets``, are drawn
    as batches of ``karlin_sim.chunk_runs`` runs: chunk c from the stream
    ``_offset(cfg, part, index) + c``.  If runs are long enough to share
    (``karlin_sim.threads_pay``), the chunks go to at most one thread per CPU.
    """
    n = max(cfg.n_grid) if n is None else n
    count = cfg.replicas if count is None else count
    size = ksim.chunk_runs(cfg.beta, n)
    offset = _offset(cfg, part, index)

    def chunk(c):
        runs = min(size, count - c * size)
        return fn(ksim.simulate_batch(cfg.beta, n, replica_rng(cfg.seed, offset + c), runs, sets))

    chunks = range(-(-count // size))
    workers = min(cfg.threads, os.cpu_count() or 1, len(chunks))
    if workers <= 1 or not ksim.threads_pay(cfg.beta, n):
        return [chunk(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk, chunks))


def _stream(cfg: SuiteConfig, part: str) -> np.random.Generator:
    """The single stream from which a limit part draws its whole batch."""
    return replica_rng(cfg.seed, _offset(cfg, part))


def _row(cfg, check, estimate, target, crit, passed, n=0, replicas=0) -> CheckRow:
    return CheckRow(cfg.suite, check, estimate, target, crit, passed, n, replicas, cfg.seed)


def _wilson_row(cfg, check, hits, trials, target, n=0) -> CheckRow:
    lo, hi = wilson_ci(hits, trials)
    return _row(cfg, check, hits / trials, target, 0.5 * (hi - lo), lo <= target <= hi, n, trials)


def _binom_row(cfg, check, hits, trials, target, n=0) -> CheckRow:
    crit = DEFAULT_THRESHOLDS["binom_se_mult"] * math.sqrt(max(target * (1.0 - target), 1e-12) / trials)
    est = hits / trials
    return _row(cfg, check, est, target, crit, abs(est - target) <= crit, n, trials)


def _mean_row(cfg, check, values, target, rel, n=0, estimate=None) -> CheckRow:
    """Mean of the values against target, gated at the relative ``rel``, or at 99 % of the mean's
    standard error estimated from the values' spread where that is larger.  A caller that has
    summed the mean in another order passes it as ``estimate``."""
    est = float(np.mean(values) if estimate is None else estimate)
    tol = max(rel * abs(target), _NORMAL_QUANTILE * float(np.std(values, ddof=1)) / math.sqrt(len(values)))
    return _row(cfg, check, est, target, tol, abs(est - target) <= tol, n, len(values))


def _median_row(cfg, check, values, target) -> CheckRow:
    """Sample median of Frechet(1) draws against target, gated at the relative ``median_rel``, or at
    99 % of the median's relative standard error 1/(ln 2 sqrt(replicas)) where that is larger."""
    est = float(np.median(values))
    se = 1.0 / (math.log(2.0) * math.sqrt(len(values)))
    tol = max(DEFAULT_THRESHOLDS["median_rel"], _NORMAL_QUANTILE * se) * abs(target)
    return _row(cfg, check, est, target, tol, abs(est - target) <= tol, replicas=len(values))


def _frechet_row(cfg, check, values, sigma, crit=None, n=0) -> CheckRow:
    """KS distance of the draws from the Frechet law of index 1 and scale sigma, gated at the 99 %
    critical value at their count, or at crit where that is larger."""
    stat = ks_statistic(np.sort(values), lambda z: frechet_cdf(z, sigma))
    crit = ks_critical(len(values)) if crit is None else max(crit, ks_critical(len(values)))
    return _row(cfg, check, stat, 0.0, crit, stat <= crit, n, len(values))


def _two_sample_row(cfg, check, a, b, n=0) -> CheckRow:
    """Two-sample KS distance of a from the reference sample b, at the 99 % critical value."""
    stat, crit = two_sample_ks(a, b), two_sample_ks_critical(len(a), len(b))
    return _row(cfg, check, stat, 0.0, crit, stat <= crit, n, len(b))


# ---------------------------------------------------------------------------
# suites


def suite_marginal(cfg: SuiteConfig) -> list:
    """Empirical sup-measure marginals against their Frechet limits.

    For each n in the grid and each query set A, the KS distance between
    the normalized sup over N replicas and the closed-form Frechet law with
    scale Leb(A)**beta; also reports whether the KS distance at the largest
    n improved on the smallest.
    """
    family = cfg.family
    rows = []
    ks_by_set = {j: [] for j in range(len(family))}
    grid = sorted(cfg.n_grid)
    for n_idx, n in enumerate(grid):
        sups = np.concatenate(_urn_map(
            cfg, "grid", family,
            lambda batch: np.stack([ksim.empirical_sup(batch, a) for a in family], 1) / batch.b_n,
            n=n, index=n_idx,
        ))
        is_last = n_idx == len(grid) - 1
        crit = DEFAULT_THRESHOLDS["ks_marginal" if is_last else "ks_marginal_other"]
        for j, a in enumerate(family):
            rows.append(_frechet_row(cfg, f"ks_frechet_n{n}_set{j}", sups[:, j], oracle.theta(a, cfg.beta),
                                     crit, n=n))
            ks_by_set[j].append(rows[-1].estimate)
    if len(grid) >= 2:
        for j in range(len(family)):
            drop = ks_by_set[j][-1] - ks_by_set[j][0]
            rows.append(_row(cfg, f"ks_decreases_set{j}", drop, 0.0, 0.0, drop < 0.0, n=grid[-1],
                             replicas=cfg.replicas))
    return rows


def suite_locations(cfg: SuiteConfig) -> list:
    """Top order statistics: location-set hits and value laws.

    Hitting frequencies of the k-th location set are compared with the
    Leb**beta marginals and the product-form joint target; the normalized
    top values are compared with the limit point-process sampler by
    two-sample KS.
    """
    family = cfg.family
    m = len(family)
    n = max(cfg.n_grid)

    def one(batch):
        # top box k hits A_k, and its normalized mark; a run with fewer boxes has a miss and NaN
        hits = np.stack([ksim.ranked_hit(batch, k, a) for k, a in enumerate(family)], 1)
        return hits, ksim.top_marks(batch, m) / batch.b_n

    results = _urn_map(cfg, "urn", family, one)
    hits = np.concatenate([h for h, _ in results])
    values = np.concatenate([v for _, v in results])

    limit_values, _ = lsim.top_m_batch(_stream(cfg, "top_m"), cfg.beta, m, family, cfg.replicas)

    rows = []
    for k in range(m):
        target = oracle.theta(family[k], cfg.beta)
        rows.append(_wilson_row(cfg, f"hit_top{k + 1}", int(hits[:, k].sum()), cfg.replicas, target, n=n))
    joint_target = math.prod(oracle.theta(a, cfg.beta) for a in family)
    rows.append(_wilson_row(cfg, "hit_joint", int(hits.all(axis=1).sum()), cfg.replicas, joint_target, n=n))
    for k in range(m):
        vals = values[np.isfinite(values[:, k]), k]
        if not vals.size:
            raise ValueError(f"no run of n={n} draws has a box of mark rank {k + 1}, "
                             f"so value_top{k + 1} has no sample")
        rows.append(_two_sample_row(cfg, f"value_top{k + 1}_two_sample", vals, limit_values[:, k], n=n))
    return rows


def suite_occupancy(cfg: SuiteConfig) -> list:
    """Occupancy growth and block frequencies of the urn.

    Checks mean K_n / nu((0, n]) against its exact mean E K_n / nu((0, n]),
    which tends to gamma(1-beta), and the pooled box-size frequencies
    against the block-size pmf for k <= 10 by chi-square.
    """
    n = max(cfg.n_grid)
    nu = ksim.nu_count(cfg.beta, n)
    kmax = 10

    def one(batch):
        hist = ksim.occupancy_histogram(batch)
        return batch.k_n, [hist.get(k, 0) for k in range(1, kmax + 1)]

    results = _urn_map(cfg, "urn", (), one)
    k_n = np.concatenate([k for k, _ in results]).astype(float)
    pooled = np.sum([c for _, c in results], axis=0).astype(float)
    total = float(k_n.sum())

    rows = [_mean_row(cfg, "mean_kn_ratio", k_n / nu, ksim.mean_occupancy(cfg.beta, n) / nu,
                      DEFAULT_THRESHOLDS["occupancy_rel"], n=n)]
    for k in (1, 2):
        rows.append(_binom_row(cfg, f"block_freq_{k}", int(pooled[k - 1]), int(total),
                               qbeta_pmf(k, cfg.beta), n=n))
    expected = np.array([qbeta_pmf(k, cfg.beta) for k in range(1, kmax + 1)]) * total
    tail_obs = total - pooled.sum()
    tail_exp = qbeta_tail(kmax, cfg.beta) * total
    chi2 = float(np.sum((pooled - expected) ** 2 / expected) + (tail_obs - tail_exp) ** 2 / tail_exp)
    crit = _CHI2_10_QUANTILE  # the quantile is for df = kmax = 10
    rows.append(_row(cfg, "block_freq_chi2", chi2, float(kmax), crit, chi2 <= crit, n, cfg.replicas))
    return rows


def suite_patterns(cfg: SuiteConfig) -> list:
    """Occupancy-pattern counts against their exact finite-n means.  As n grows, the mean count of
    the boxes hit in exactly the sets S, over nu(n), tends to gamma(1 - beta) * p_S, with p_S the
    rate of the limit atoms whose hit pattern is S (``limit_sim.pattern_rates``)."""
    n = max(cfg.n_grid)
    nu = ksim.nu_count(cfg.beta, n)
    family = cfg.family
    d = len(family)
    names = [format(mask, f"0{d}b") for mask in range(1, 1 << d)]  # digit k from the left: set k hit
    entries = [int(name[::-1], 2) for name in names]  # in the pattern table, bit k for set k
    single = (normalize([(0.0, 0.5)]),)

    def one(batch):
        return np.column_stack([ksim.pattern_count_table(batch, family)[:, entries],
                                ksim.pattern_count_table(batch, single)[:, 1]]) / nu

    values = np.concatenate(_urn_map(cfg, "urn", family + single, one))
    means = values.mean(axis=0)
    rel = DEFAULT_THRESHOLDS["pattern_rel"]

    targets = ksim.mean_pattern_counts(cfg.beta, n, family) / nu
    half = ksim.mean_pattern_counts(cfg.beta, n, single)[1] / nu
    rows = [_mean_row(cfg, "tau_half_interval", values[:, -1], half, rel, n, means[-1])]
    for j, (name, entry) in enumerate(zip(names, entries)):
        rows.append(_mean_row(cfg, f"tau_{name}", values[:, j], targets[entry], rel, n, means[j]))
    in_union = ksim.mean_pattern_counts(cfg.beta, n, (reduce(IntervalSet.union, family),))[1] / nu
    rows.append(_mean_row(cfg, "tau_partition_sum", values[:, :len(names)].sum(axis=1), in_union, rel, n,
                          means[:len(names)].sum()))
    return rows


def _random_queries(cfg: SuiteConfig):
    """Ten deterministic pseudo-random query families of 1 to 3 sets with comfortable measures."""
    rng = _stream(cfg, "queries")
    queries = []
    for _ in range(10):
        d = int(rng.integers(1, 4))
        pairs = []
        for _ in range(d):
            width = float(rng.uniform(0.1, 0.45))
            lo = float(rng.uniform(0.0, 1.0 - width))
            z = float(rng.uniform(0.7, 2.0))
            pairs.append((normalize([(lo, lo + width)]), z))
        queries.append(oracle.ChoquetQuery(pairs=tuple(pairs), beta=cfg.beta))
    return queries


def _pattern_rates_row(cfg: SuiteConfig, families) -> CheckRow:
    """Worst relative gap, over the families, between the pattern rates and theta.

    For every family the rates of the patterns containing set i must add up
    to Leb(A_i)**beta, and all rates to Leb(union)**beta.
    """
    worst = 0.0
    for family in families:
        rates = lsim.pattern_rates(cfg.beta, family)
        patterns = np.arange(rates.size)
        union = reduce(IntervalSet.union, family)
        sums = [(rates[patterns & (1 << i) != 0].sum(), oracle.theta(a, cfg.beta))
                for i, a in enumerate(family)]
        sums.append((rates[1:].sum(), oracle.theta(union, cfg.beta)))
        worst = max(worst, *(abs(got - want) / want for got, want in sums))
    return _row(cfg, "pattern_rates_exact", worst, 0.0, _RATE_REL, worst <= _RATE_REL)


def _karlin(cfg: SuiteConfig, family, part: str) -> np.ndarray:
    """(replicas, sets) levels of the limit sup-measure from the stream of one suite part."""
    return lsim.karlin_batch(_stream(cfg, part), cfg.beta, family, cfg.replicas)


def suite_limit_vs_oracle(cfg: SuiteConfig) -> list:
    """Exact limit sampler against the closed-form oracle.

    Randomized joint queries are estimated by Monte Carlo and compared at
    +-3 binomial SE; the pattern rates of every sampled family must add up
    to theta; the non-ergodicity statistic is estimated on windows and
    adjudicated against the two candidate closed forms (2**beta versus
    2 - 2**beta for the joint exponent).
    """
    rows = []
    queries = _random_queries(cfg)
    families = []
    for qi, q in enumerate(queries):
        family = tuple(a for a, _ in q.pairs)
        zs = np.array([z for _, z in q.pairs])
        hits = int((_karlin(cfg, family, f"q{qi}") <= zs).all(axis=1).sum())
        rows.append(_binom_row(cfg, f"joint_cdf_q{qi}", hits, cfg.replicas, oracle.joint_cdf(q)))
        families.append(family)

    # non-ergodicity statistic on windows [0, t+1]
    windows = []
    for t in (1.5, 2.0, 5.0):
        carrier = (0.0, t + 1.0)
        windows.append((t, (IntervalSet(((0.0, 1.0),), carrier), IntervalSet(((t, t + 1.0),), carrier))))
    rows.append(_pattern_rates_row(cfg, families + [fam for _, fam in windows]))

    z = 1.0
    mult = DEFAULT_THRESHOLDS["binom_se_mult"]
    tau_rows = []
    p_joints = {}
    for t, fam in windows:
        below = _karlin(cfg, fam, f"t{t}") <= z
        p_single = int(below[:, 0].sum()) / cfg.replicas
        p_joint = int(below.all(axis=1).sum()) / cfg.replicas
        tau_hat = math.log(p_joint) - 2.0 * math.log(p_single)
        # conservative SE: Var(log p) ~ (1-p)/(p N); covariance is positive
        se = math.sqrt(
            (1.0 - p_joint) / (p_joint * cfg.replicas) + 4.0 * (1.0 - p_single) / (p_single * cfg.replicas)
        )
        target = oracle.tau_z(t, z, cfg.beta)
        tau_rows.append((t, tau_hat, se))
        p_joints[t] = p_joint
        rows.append(_row(cfg, f"tau_z_t{t}", tau_hat, target, mult * se,
                         abs(tau_hat - target) <= mult * se, replicas=cfg.replicas))
    spread = max(a for _, a, _ in tau_rows) - min(a for _, a, _ in tau_rows)
    spread_crit = mult * max(se for _, _, se in tau_rows) * math.sqrt(2.0)
    rows.append(_row(cfg, "tau_constant_in_t", spread, 0.0, spread_crit, spread <= spread_crit,
                     replicas=cfg.replicas))
    positive = all(a - mult * se > 0 for _, a, se in tau_rows)
    rows.append(_row(cfg, "tau_strictly_positive", min(a for _, a, _ in tau_rows), 0.0, 0.0, positive,
                     replicas=cfg.replicas))

    # adjudication of the joint exponent on disjoint unit windows: [0, 1) and [2, 3), the t = 2 batch
    p_joint = p_joints[2.0]
    neg_log = -math.log(p_joint)
    se_neglog = math.sqrt((1.0 - p_joint) / (p_joint * cfg.replicas))
    union_form = 2.0 ** cfg.beta / z
    and_form = (2.0 - 2.0 ** cfg.beta) / z
    crit = mult * se_neglog
    rows.append(_row(cfg, "adjudication_joint_exponent_union_form", neg_log, union_form, crit,
                     abs(neg_log - union_form) <= crit, replicas=cfg.replicas))
    rows.append(_row(cfg, "adjudication_joint_exponent_and_form_flagged", neg_log, and_form, crit,
                     not abs(neg_log - and_form) <= crit, replicas=cfg.replicas))
    return rows


def suite_extremal_and_mstar(cfg: SuiteConfig) -> list:
    """Extremal process, self-similarity, and the first-occurrence variant.

    Medians and KS of M([0, t]) against Frechet with scale t**beta; window
    versus scaled-unit two-sample KS; translation invariance; the variant
    marginal law, the pathwise domination of the coupled pair, and the
    discrete variant's convergence.
    """
    rows = []
    vals = {}
    for t in (0.25, 1.0, 4.0):
        fam = (IntervalSet(((0.0, t),), (0.0, max(t, 1.0))),)
        vals[t] = _karlin(cfg, fam, f"t{t}")[:, 0]
        rows.append(_median_row(cfg, f"extremal_median_t{t}", vals[t], t ** cfg.beta / math.log(2.0)))
        rows.append(_frechet_row(cfg, f"extremal_ks_t{t}", vals[t], t ** cfg.beta))

    # self-similarity: the [0, 4] window versus the 4**beta-scaled [0, 1] window
    rows.append(_two_sample_row(cfg, "self_similarity_two_sample", vals[4.0], vals[1.0] * 4.0 ** cfg.beta))

    # translation invariance of increments: same-width windows at two origins
    tr = _karlin(cfg, (normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)])), "translation")
    rows.append(_two_sample_row(cfg, "translation_invariance_two_sample", tr[:, 0], tr[:, 1]))

    # variant marginal on [a, b): P(M* <= z) = exp(-(b**beta - a**beta) / z)
    a_lo, b_hi, z = 0.25, 1.0, 1.0
    star_vals = lsim.mstar_batch(_stream(cfg, "mstar_marginal"), cfg.beta, (normalize([(a_lo, b_hi)]),),
                                 cfg.replicas)[:, 0]
    sigma_star = oracle.mstar_theta(a_lo, b_hi, cfg.beta)
    rows.append(_binom_row(cfg, "mstar_marginal_prob", int((star_vals <= z).sum()), cfg.replicas,
                           math.exp(-sigma_star / z)))
    rows.append(_frechet_row(cfg, "mstar_marginal_ks", star_vals, sigma_star))

    # variant equals the time-changed law on [0, t]
    t_tc = 0.49
    tc_vals = lsim.mstar_batch(_stream(cfg, "time_change"), cfg.beta, (normalize([(0.0, t_tc)]),),
                               cfg.replicas)[:, 0]
    rows.append(_frechet_row(cfg, "mstar_time_change_ks", tc_vals, t_tc ** cfg.beta))

    # pathwise domination of the coupled pair
    big, small = lsim.coupled_batch(_stream(cfg, "coupled"), cfg.beta,
                                    (normalize([(0.25, 1.0)]), normalize([(0.1, 0.6)])), cfg.replicas)
    dominated = int((big >= small).all(axis=1).sum())
    rows.append(_row(cfg, "coupled_domination", dominated / cfg.replicas, 1.0, 0.0,
                     dominated == cfg.replicas, replicas=cfg.replicas))

    # discrete first-occurrence variant against its limit law
    n = max(cfg.n_grid)
    star_set = normalize([(a_lo, b_hi)])
    n_star = min(cfg.replicas, 2000)
    disc_vals = np.concatenate(_urn_map(
        cfg, "discrete", (star_set,), lambda batch: ksim.variant_star_sup(batch, star_set) / batch.b_n,
        count=n_star,
    ))
    rows.append(_frechet_row(cfg, "variant_discrete_ks", disc_vals, sigma_star, DEFAULT_THRESHOLDS["ks_star"],
                             n=n))
    return rows


SUITES = {
    "marginal": suite_marginal,
    "locations": suite_locations,
    "occupancy": suite_occupancy,
    "patterns": suite_patterns,
    "limit-vs-oracle": suite_limit_vs_oracle,
    "extremal-mstar": suite_extremal_and_mstar,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    t0 = time.perf_counter()
    rows = SUITES[cfg.suite](cfg)
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)
