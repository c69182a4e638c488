"""Statistical verification harness.

Turns the limit theorems into quantitative desk-scale checks: empirical
CDFs against closed-form Frechet targets, hitting frequencies against
Wilson intervals, occupancy and pattern counts against their limits, and
the exact limit samplers against the closed-form oracle.  Every pass/fail
threshold is either a confidence bound computed from the run or a fixed
calibration constant in :data:`DEFAULT_THRESHOLDS` (the theory provides no
convergence rates, so the KS-style bounds are calibrated, not derived).

Replica r of an urn part of a suite draws from the counter-based stream
``replica_rng(seed, offset + r)``, and the replicas run on ``threads``
threads.  A limit part draws all its replicas, in replica order, as one
vectorised batch from the single stream ``replica_rng(seed, offset)``, and
the limit parts run one after another.  Distinct parts use disjoint offset
blocks, so reports are byte-identical for any ``threads`` setting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from . import choquet_oracle as oracle
from . import karlin_sim as ksim
from . import limit_sim as lsim
from .distributions import FrechetLaw, HeavyTailSpec, frechet_cdf, gamma_fn, qbeta_pmf, qbeta_tail
from .interval_sets import IntervalSet, normalize
from .karlin_sim import FrequencyModel, replica_rng

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
    "ks_marginal": 0.05,        # KS bound at the largest n of the marginal grid
    "ks_marginal_other": 0.30,  # sanity bound at smaller grid points
    "ks_star": 0.07,            # KS bound for the discrete first-occurrence variant
    "occupancy_rel": 0.02,      # relative error of mean K_n / nu(n)
    "pattern_rel": 0.05,        # relative error of pattern-count limits
    "median_rel": 0.02,         # relative error of extremal-process medians
    "binom_se_mult": 3.0,       # +-k*SE window for binomial comparisons
}

_BLOCK = 1 << 20  # replica-offset block separating independent suite parts
_RATE_REL = 1e-12  # relative gate of the pattern_rates_exact row

# Quantiles at the two confidences SuiteConfig accepts, equal to SciPy's
# kstwobign.ppf(c), norm.ppf((1 + c) / 2) and chi2.ppf(c, 10) to the last bit.
_KS_QUANTILE = {0.95: 1.3580986393225505, 0.99: 1.6276236115189502}
_NORMAL_QUANTILE = {0.95: 1.959963984540054, 0.99: 2.5758293035489004}
_CHI2_10_QUANTILE = {0.95: 18.307038053275146, 0.99: 23.209251158954356}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    alpha: float = 1.0
    beta: float = 0.5
    n_grid: tuple = (10 ** 5,)
    replicas: int = 2000
    family: tuple = ()
    seed: int = 0
    confidence: float = 0.99
    threads: int = 1

    def __post_init__(self):
        if self.replicas < 100:
            raise ValueError("replica count must be at least 100")
        if self.confidence not in _KS_QUANTILE:
            raise ValueError("confidence level must be 0.95 or 0.99")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n grid must contain positive integers")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


# report columns, in the order of the CheckRow fields (``passed`` is "pass")
_REPORT_FIELDS = ("suite", "check", "estimate", "target", "se_or_crit", "pass", "n", "replicas", "seed")


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        for r in self.rows:
            writer.writerow(
                [r.suite, r.check, repr(r.estimate), repr(r.target), repr(r.se_or_crit),
                 "true" if r.passed else "false", r.n, r.replicas, r.seed]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [dict(zip(_REPORT_FIELDS, astuple(r))) for r in self.rows]
        return json.dumps({"suite": self.suite, "seed": self.seed, "rows": rows}, indent=2)


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


def _quantile(table: dict, confidence: float) -> float:
    try:
        return table[confidence]
    except KeyError:
        raise ValueError(f"confidence level must be 0.95 or 0.99, got {confidence}") from None


def ks_critical(n: int, confidence: float) -> float:
    """Asymptotic one-sample KS critical value at the given confidence."""
    return _quantile(_KS_QUANTILE, confidence) / math.sqrt(n)


def two_sample_ks(a, b) -> float:
    """Two-sample KS statistic: sup distance of the empirical CDFs, at the pooled samples."""
    a, b = np.sort(a), np.sort(b)
    if not a.size or not b.size:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def two_sample_ks_critical(n1: int, n2: int, confidence: float) -> float:
    """Asymptotic two-sample KS critical value at the given confidence."""
    return _quantile(_KS_QUANTILE, confidence) * math.sqrt((n1 + n2) / (n1 * n2))


def wilson_ci(hits: int, trials: int, confidence: float):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    z = _quantile(_NORMAL_QUANTILE, confidence)
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _parallel_map(fn, count: int, threads: int):
    """fn(i) for i in range(count), results in index order regardless of scheduling."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _replica_stream_map(fn, count: int, seed: int, offset: int = 0):
    """fn(rng) across replica streams offset .. offset+count-1, serially.

    One Philox is reused by resetting its counter block, which reproduces
    ``replica_rng(seed, offset + r)`` draw for draw at a fraction of the
    construction cost.  No suite calls it since the limit parts are drawn
    as batches; the benchmark's tracer still looks it up by name.
    """
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    out = []
    for r in range(count):
        st = bg.state
        st["state"]["counter"] = np.array([0, 0, offset + r, 0], dtype=np.uint64)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        bg.state = st
        out.append(fn(gen))
    return out


# ---------------------------------------------------------------------------
# suite helpers


def _model_spec(cfg: SuiteConfig):
    model, spec = FrequencyModel(beta=cfg.beta), HeavyTailSpec(alpha=cfg.alpha)
    ksim.b_n(model, spec, min(cfg.n_grid))  # raises where no normalisation exists
    return model, spec


def _wilson_row(cfg, check, hits, trials, target, n=0) -> CheckRow:
    lo, hi = wilson_ci(hits, trials, cfg.confidence)
    return CheckRow(
        suite=cfg.suite, check=check, estimate=hits / trials, target=target,
        se_or_crit=0.5 * (hi - lo), passed=lo <= target <= hi,
        n=n, replicas=trials, seed=cfg.seed,
    )


def _binom_row(cfg, check, hits, trials, target, n=0) -> CheckRow:
    mult = DEFAULT_THRESHOLDS["binom_se_mult"]
    se = math.sqrt(max(target * (1.0 - target), 1e-12) / trials)
    est = hits / trials
    return CheckRow(
        suite=cfg.suite, check=check, estimate=est, target=target,
        se_or_crit=mult * se, passed=abs(est - target) <= mult * se,
        n=n, replicas=trials, seed=cfg.seed,
    )


def _rel_row(cfg, check, estimate, target, rel_key, n=0, replicas=0) -> CheckRow:
    tol = DEFAULT_THRESHOLDS[rel_key] * abs(target)
    return CheckRow(
        suite=cfg.suite, check=check, estimate=estimate, target=target,
        se_or_crit=tol, passed=abs(estimate - target) <= tol,
        n=n, replicas=replicas, seed=cfg.seed,
    )


def _ks_row(cfg, check, stat, crit, n=0, replicas=0) -> CheckRow:
    return CheckRow(
        suite=cfg.suite, check=check, estimate=stat, target=0.0,
        se_or_crit=crit, passed=stat <= crit,
        n=n, replicas=replicas, seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# suites


def suite_marginal(cfg: SuiteConfig) -> SuiteReport:
    """Empirical sup-measure marginals against their Frechet limits.

    For each n in the grid and each query set A, the KS distance between
    the normalized sup over N replicas and the closed-form Frechet law with
    scale Leb(A)**beta; also reports whether the KS distance at the largest
    n improved on the smallest.
    """
    t0 = time.perf_counter()
    model, spec = _model_spec(cfg)
    family = cfg.family or (normalize([(0.0, 1.0)]),)
    rows = []
    ks_by_set = {j: [] for j in range(len(family))}
    grid = sorted(cfg.n_grid)
    for n_idx, n in enumerate(grid):
        def one(r, n=n, off=n_idx * _BLOCK):
            run = ksim.simulate(model, spec, n, cfg.seed, replica=off + r)
            return [ksim.empirical_sup(run, a, normalized=True) for a in family]

        sups = np.array(_parallel_map(one, cfg.replicas, cfg.threads))
        is_last = n_idx == len(grid) - 1
        crit = DEFAULT_THRESHOLDS["ks_marginal" if is_last else "ks_marginal_other"]
        for j, a in enumerate(family):
            law = FrechetLaw(cfg.alpha, oracle.theta(a, cfg.beta))
            stat = ks_statistic(np.sort(sups[:, j]), lambda z: frechet_cdf(z, law))
            ks_by_set[j].append(stat)
            rows.append(_ks_row(cfg, f"ks_frechet_n{n}_set{j}", stat, crit, n=n, replicas=cfg.replicas))
    if len(grid) >= 2:
        for j in range(len(family)):
            drop = ks_by_set[j][-1] - ks_by_set[j][0]
            rows.append(CheckRow(
                suite=cfg.suite, check=f"ks_decreases_set{j}", estimate=drop, target=0.0,
                se_or_crit=0.0, passed=drop < 0.0, n=grid[-1], replicas=cfg.replicas, seed=cfg.seed,
            ))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


def suite_locations(cfg: SuiteConfig) -> SuiteReport:
    """Top order statistics: location-set hits and value laws.

    Hitting frequencies of the k-th location set are compared with the
    Leb**beta marginals and the product-form joint target; the normalized
    top values are compared with the limit point-process sampler by
    two-sample KS.
    """
    t0 = time.perf_counter()
    model, spec = _model_spec(cfg)
    family = cfg.family or (normalize([(0.0, 0.25)]), normalize([(0.5, 0.75)]))
    m = len(family)
    if m > 5:
        raise ValueError("locations suite supports at most 5 query sets")
    n = max(cfg.n_grid)

    def one(r):
        run = ksim.simulate(model, spec, n, cfg.seed, replica=r)
        tops = ksim.top_m(run, m)
        hits = []
        values = []
        for k in range(m):
            if k < len(tops):
                locs = np.asarray(tops[k].locations)
                hits.append(bool(family[k].contains_points(locs).any()))
                values.append(tops[k].value_normalized)
            else:
                hits.append(False)
                values.append(np.nan)
        return hits, values

    results = _parallel_map(one, cfg.replicas, cfg.threads)
    hits = np.array([h for h, _ in results], dtype=bool)
    values = np.array([v for _, v in results])

    limit_values, _ = lsim.top_m_batch(replica_rng(cfg.seed, _BLOCK), cfg.alpha, cfg.beta, m,
                                       family, cfg.replicas)

    rows = []
    for k in range(m):
        target = oracle.theta(family[k], cfg.beta)
        rows.append(_wilson_row(cfg, f"hit_top{k + 1}", int(hits[:, k].sum()), cfg.replicas, target, n=n))
    joint_target = math.prod(oracle.theta(a, cfg.beta) for a in family)
    rows.append(_wilson_row(cfg, "hit_joint", int(hits.all(axis=1).sum()), cfg.replicas, joint_target, n=n))
    for k in range(m):
        vals = values[:, k]
        vals = vals[np.isfinite(vals)]
        stat = two_sample_ks(vals, limit_values[:, k])
        crit = two_sample_ks_critical(vals.size, cfg.replicas, cfg.confidence)
        rows.append(_ks_row(cfg, f"value_top{k + 1}_two_sample", stat, crit, n=n, replicas=cfg.replicas))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


def suite_occupancy(cfg: SuiteConfig) -> SuiteReport:
    """Occupancy growth and block frequencies of the urn.

    Checks mean K_n / nu((0, n]) against gamma(1-beta) and the pooled
    box-size frequencies against the block-size pmf for k <= 10 by
    chi-square.
    """
    t0 = time.perf_counter()
    model, spec = _model_spec(cfg)
    n = max(cfg.n_grid)
    nu = model.nu_count(n)
    kmax = 10

    def one(r):
        run = ksim.simulate(model, spec, n, cfg.seed, replica=r)
        hist = ksim.occupancy_histogram(run)
        counts = [hist.get(k, 0) for k in range(1, kmax + 1)]
        return run.k_n, counts

    results = _parallel_map(one, cfg.replicas, cfg.threads)
    k_n = np.array([k for k, _ in results], dtype=float)
    pooled = np.sum([c for _, c in results], axis=0).astype(float)
    total = float(k_n.sum())

    rows = [
        _rel_row(cfg, "mean_kn_ratio", float(np.mean(k_n / nu)), gamma_fn(1.0 - cfg.beta),
                 "occupancy_rel", n=n, replicas=cfg.replicas)
    ]
    for k in (1, 2):
        rows.append(_binom_row(cfg, f"block_freq_{k}", int(pooled[k - 1]), int(total),
                               qbeta_pmf(k, cfg.beta), n=n))
    expected = np.array([qbeta_pmf(k, cfg.beta) for k in range(1, kmax + 1)]) * total
    tail_obs = total - pooled.sum()
    tail_exp = qbeta_tail(kmax, cfg.beta) * total
    chi2 = float(np.sum((pooled - expected) ** 2 / expected) + (tail_obs - tail_exp) ** 2 / tail_exp)
    df = kmax
    crit = _quantile(_CHI2_10_QUANTILE, cfg.confidence)  # the table is for df = 10
    rows.append(CheckRow(
        suite=cfg.suite, check="block_freq_chi2", estimate=chi2, target=float(df),
        se_or_crit=crit, passed=chi2 <= crit, n=n, replicas=cfg.replicas, seed=cfg.seed,
    ))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


def suite_patterns(cfg: SuiteConfig) -> SuiteReport:
    """Occupancy-pattern counts against their closed-form limits."""
    t0 = time.perf_counter()
    model, spec = _model_spec(cfg)
    n = max(cfg.n_grid)
    nu = model.nu_count(n)
    family = cfg.family or (normalize([(0.0, 0.25)]), normalize([(0.5, 0.75)]))
    d = len(family)
    if d > 3:
        raise ValueError("patterns suite supports at most 3 query sets")
    deltas = [tuple(int(b) for b in format(mask, f"0{d}b")) for mask in range(1, 1 << d)]
    entries = [sum(b << k for k, b in enumerate(delta)) for delta in deltas]  # in the pattern table
    single = (normalize([(0.0, 0.5)]),)

    def one(r):
        run = ksim.simulate(model, spec, n, cfg.seed, replica=r)
        per_delta = list(ksim.pattern_count_table(run, family)[entries] / nu)
        per_delta.append(ksim.pattern_counts(run, single, (1,)) / nu)
        return per_delta

    results = np.array(_parallel_map(one, cfg.replicas, cfg.threads))
    means = results.mean(axis=0)

    rows = []
    rows.append(_rel_row(
        cfg, "tau_half_interval", float(means[-1]),
        oracle.pattern_limit(oracle.PatternQuery(family=single, delta=(1,)), cfg.beta),
        "pattern_rel", n=n, replicas=cfg.replicas,
    ))
    for j, delta in enumerate(deltas):
        target = oracle.pattern_limit(oracle.PatternQuery(family=family, delta=delta), cfg.beta)
        name = "tau_" + "".join(str(b) for b in delta)
        rows.append(_rel_row(cfg, name, float(means[j]), target, "pattern_rel", n=n, replicas=cfg.replicas))
    union_all = family[0]
    for a in family[1:]:
        union_all = union_all.union(a)
    partition_target = gamma_fn(1.0 - cfg.beta) * oracle.theta(union_all, cfg.beta)
    rows.append(_rel_row(
        cfg, "tau_partition_sum", float(means[: len(deltas)].sum()), partition_target,
        "pattern_rel", n=n, replicas=cfg.replicas,
    ))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


def _random_queries(cfg: SuiteConfig, count: int, max_d: int = 3):
    """Deterministic pseudo-random query families with comfortable measures."""
    rng = replica_rng(cfg.seed, 7 * _BLOCK)
    queries = []
    for _ in range(count):
        d = int(rng.integers(1, max_d + 1))
        pairs = []
        for _ in range(d):
            width = float(rng.uniform(0.1, 0.45))
            lo = float(rng.uniform(0.0, 1.0 - width))
            z = float(rng.uniform(0.7, 2.0))
            pairs.append((normalize([(lo, lo + width)]), z))
        queries.append(oracle.ChoquetQuery(pairs=tuple(pairs), alpha=cfg.alpha, beta=cfg.beta))
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
        union = family[0]
        for a in family[1:]:
            union = union.union(a)
        sums = [(rates[patterns & (1 << i) != 0].sum(), oracle.theta(a, cfg.beta))
                for i, a in enumerate(family)]
        sums.append((rates[1:].sum(), oracle.theta(union, cfg.beta)))
        worst = max(worst, *(abs(got - want) / want for got, want in sums))
    return CheckRow(
        suite=cfg.suite, check="pattern_rates_exact", estimate=worst, target=0.0,
        se_or_crit=_RATE_REL, passed=worst <= _RATE_REL, n=0, replicas=0, seed=cfg.seed,
    )


def _karlin(cfg: SuiteConfig, family, offset: int) -> np.ndarray:
    """(replicas, sets) values of the limit sup-measure from the stream of one suite part."""
    return lsim.karlin_batch(replica_rng(cfg.seed, offset), cfg.alpha, cfg.beta, family, cfg.replicas)


def suite_limit_vs_oracle(cfg: SuiteConfig) -> SuiteReport:
    """Exact limit sampler against the closed-form oracle.

    Randomized joint queries are estimated by Monte Carlo and compared at
    +-3 binomial SE; the pattern rates of every sampled family must add up
    to theta; the non-ergodicity statistic is estimated on windows and
    adjudicated against the two candidate closed forms (2**beta versus
    2 - 2**beta for the joint exponent).
    """
    t0 = time.perf_counter()
    rows = []
    queries = _random_queries(cfg, 10)
    families = []
    for qi, q in enumerate(queries):
        family = tuple(a for a, _ in q.pairs)
        zs = np.array([z for _, z in q.pairs])
        hits = int((_karlin(cfg, family, qi * _BLOCK) <= zs).all(axis=1).sum())
        rows.append(_binom_row(cfg, f"joint_cdf_q{qi}", hits, cfg.replicas, oracle.joint_cdf(q)))
        families.append(family)

    # non-ergodicity statistic on windows [0, t+1]; adjudication on [0, 3]
    windows = []
    for t in (1.5, 2.0, 5.0):
        carrier = (0.0, t + 1.0)
        windows.append((t, (IntervalSet(((0.0, 1.0),), carrier), IntervalSet(((t, t + 1.0),), carrier))))
    fam_adj = (IntervalSet(((0.0, 1.0),), (0.0, 3.0)), IntervalSet(((2.0, 3.0),), (0.0, 3.0)))
    rows.append(_pattern_rates_row(cfg, families + [fam for _, fam in windows] + [fam_adj]))

    z = 1.0
    mult = DEFAULT_THRESHOLDS["binom_se_mult"]
    tau_rows = []
    for ti, (t, fam) in enumerate(windows):
        below = _karlin(cfg, fam, (12 + ti) * _BLOCK) <= z
        p_single = int(below[:, 0].sum()) / cfg.replicas
        p_joint = int(below.all(axis=1).sum()) / cfg.replicas
        tau_hat = math.log(p_joint) - 2.0 * math.log(p_single)
        # conservative SE: Var(log p) ~ (1-p)/(p N); covariance is positive
        se = math.sqrt(
            (1.0 - p_joint) / (p_joint * cfg.replicas) + 4.0 * (1.0 - p_single) / (p_single * cfg.replicas)
        )
        target = oracle.tau_z(t, z, cfg.alpha, cfg.beta)
        tau_rows.append((t, tau_hat, se))
        rows.append(CheckRow(
            suite=cfg.suite, check=f"tau_z_t{t}", estimate=tau_hat, target=target,
            se_or_crit=mult * se, passed=abs(tau_hat - target) <= mult * se,
            n=0, replicas=cfg.replicas, seed=cfg.seed,
        ))
    spread = max(a for _, a, _ in tau_rows) - min(a for _, a, _ in tau_rows)
    spread_crit = mult * max(se for _, _, se in tau_rows) * math.sqrt(2.0)
    rows.append(CheckRow(
        suite=cfg.suite, check="tau_constant_in_t", estimate=spread, target=0.0,
        se_or_crit=spread_crit, passed=spread <= spread_crit,
        n=0, replicas=cfg.replicas, seed=cfg.seed,
    ))
    positive = all(a - mult * se > 0 for _, a, se in tau_rows)
    rows.append(CheckRow(
        suite=cfg.suite, check="tau_strictly_positive", estimate=min(a for _, a, _ in tau_rows),
        target=0.0, se_or_crit=0.0, passed=positive, n=0, replicas=cfg.replicas, seed=cfg.seed,
    ))

    # adjudication of the joint exponent on disjoint unit windows (t = 2)
    joint_hits = int((_karlin(cfg, fam_adj, 14 * _BLOCK) <= z).all(axis=1).sum())
    p_joint = joint_hits / cfg.replicas
    neg_log = -math.log(p_joint)
    se_neglog = math.sqrt((1.0 - p_joint) / (p_joint * cfg.replicas))
    union_form = 2.0 ** cfg.beta * z ** -cfg.alpha
    and_form = (2.0 - 2.0 ** cfg.beta) * z ** -cfg.alpha
    agrees_union = abs(neg_log - union_form) <= mult * se_neglog
    agrees_and = abs(neg_log - and_form) <= mult * se_neglog
    rows.append(CheckRow(
        suite=cfg.suite, check="adjudication_joint_exponent_union_form", estimate=neg_log,
        target=union_form, se_or_crit=mult * se_neglog, passed=agrees_union,
        n=0, replicas=cfg.replicas, seed=cfg.seed,
    ))
    rows.append(CheckRow(
        suite=cfg.suite, check="adjudication_joint_exponent_and_form_flagged", estimate=neg_log,
        target=and_form, se_or_crit=mult * se_neglog, passed=not agrees_and,
        n=0, replicas=cfg.replicas, seed=cfg.seed,
    ))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


def suite_extremal_and_mstar(cfg: SuiteConfig) -> SuiteReport:
    """Extremal process, self-similarity, and the first-occurrence variant.

    Medians and KS of M([0, t]) against Frechet with scale t**beta; window
    versus scaled-unit two-sample KS; translation invariance; the variant
    marginal law, the pathwise domination of the coupled pair, and the
    discrete variant's convergence.
    """
    t0 = time.perf_counter()
    rows = []

    for ti, t in enumerate((0.25, 1.0, 4.0)):
        fam = (IntervalSet(((0.0, t),), (0.0, max(t, 1.0))),)
        vals = _karlin(cfg, fam, ti * _BLOCK)[:, 0]
        med_target = (t ** cfg.beta / math.log(2.0)) ** (1.0 / cfg.alpha)
        rows.append(_rel_row(cfg, f"extremal_median_t{t}", float(np.median(vals)), med_target,
                             "median_rel", replicas=cfg.replicas))
        law = FrechetLaw(cfg.alpha, t ** cfg.beta)
        stat = ks_statistic(np.sort(vals), lambda v: frechet_cdf(v, law))
        rows.append(_ks_row(cfg, f"extremal_ks_t{t}", stat, ks_critical(cfg.replicas, cfg.confidence),
                            replicas=cfg.replicas))
    window_vals = vals  # the [0, 4] window

    # self-similarity: [0, T] window versus T**(beta/alpha)-scaled unit samples
    unit_vals = _karlin(cfg, (normalize([(0.0, 1.0)]),), 3 * _BLOCK)[:, 0]
    scaled = unit_vals * 4.0 ** (cfg.beta / cfg.alpha)
    stat = two_sample_ks(window_vals, scaled)
    rows.append(_ks_row(cfg, "self_similarity_two_sample", stat,
                        two_sample_ks_critical(cfg.replicas, cfg.replicas, cfg.confidence),
                        replicas=cfg.replicas))

    # translation invariance of increments: same-width windows at two origins
    tr = _karlin(cfg, (normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)])), 4 * _BLOCK)
    stat = two_sample_ks(tr[:, 0], tr[:, 1])
    rows.append(_ks_row(cfg, "translation_invariance_two_sample", stat,
                        two_sample_ks_critical(cfg.replicas, cfg.replicas, cfg.confidence),
                        replicas=cfg.replicas))

    # variant marginal on [a, b): P(M* <= z) = exp(-(b**beta - a**beta) z**-alpha)
    a_lo, b_hi, z = 0.25, 1.0, 1.0
    star_vals = lsim.mstar_batch(replica_rng(cfg.seed, 5 * _BLOCK), cfg.alpha, cfg.beta,
                                 (normalize([(a_lo, b_hi)]),), cfg.replicas)[:, 0]
    sigma_star = oracle.mstar_theta(a_lo, b_hi, cfg.beta)
    target_p = math.exp(-sigma_star * z ** -cfg.alpha)
    rows.append(_binom_row(cfg, "mstar_marginal_prob", int((star_vals <= z).sum()), cfg.replicas, target_p))
    law_star = FrechetLaw(cfg.alpha, sigma_star)
    stat = ks_statistic(np.sort(star_vals), lambda v: frechet_cdf(v, law_star))
    rows.append(_ks_row(cfg, "mstar_marginal_ks", stat, ks_critical(cfg.replicas, cfg.confidence),
                        replicas=cfg.replicas))

    # variant equals the time-changed law on [0, t]
    t_tc = 0.49
    tc_vals = lsim.mstar_batch(replica_rng(cfg.seed, 6 * _BLOCK), cfg.alpha, cfg.beta,
                               (normalize([(0.0, t_tc)]),), cfg.replicas)[:, 0]
    law_tc = FrechetLaw(cfg.alpha, t_tc ** cfg.beta)
    stat = ks_statistic(np.sort(tc_vals), lambda v: frechet_cdf(v, law_tc))
    rows.append(_ks_row(cfg, "mstar_time_change_ks", stat, ks_critical(cfg.replicas, cfg.confidence),
                        replicas=cfg.replicas))

    # pathwise domination of the coupled pair
    big, small = lsim.coupled_batch(replica_rng(cfg.seed, 8 * _BLOCK), cfg.alpha, cfg.beta,
                                    (normalize([(0.25, 1.0)]), normalize([(0.1, 0.6)])), cfg.replicas)
    dominated = int((big >= small).all(axis=1).sum())
    rows.append(CheckRow(
        suite=cfg.suite, check="coupled_domination", estimate=dominated / cfg.replicas, target=1.0,
        se_or_crit=0.0, passed=dominated == cfg.replicas, n=0, replicas=cfg.replicas, seed=cfg.seed,
    ))

    # discrete first-occurrence variant against its limit law
    model, spec = _model_spec(cfg)
    n = max(cfg.n_grid)
    star_set = normalize([(a_lo, b_hi)])
    n_star = min(cfg.replicas, 2000)

    def disc_one(r):
        run = ksim.simulate(model, spec, n, cfg.seed, replica=9 * _BLOCK + r)
        return ksim.variant_star_sup(run, star_set, normalized=True)

    disc_vals = np.array(_parallel_map(disc_one, n_star, cfg.threads))
    stat = ks_statistic(np.sort(disc_vals), lambda v: frechet_cdf(v, law_star))
    rows.append(_ks_row(cfg, "variant_discrete_ks", stat, DEFAULT_THRESHOLDS["ks_star"],
                        n=n, replicas=n_star))
    return SuiteReport(cfg.suite, cfg.seed, rows, time.perf_counter() - t0)


SUITES = {
    "marginal": suite_marginal,
    "locations": suite_locations,
    "occupancy": suite_occupancy,
    "patterns": suite_patterns,
    "limit-vs-oracle": suite_limit_vs_oracle,
    "extremal-mstar": suite_extremal_and_mstar,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    return SUITES[cfg.suite](cfg)
