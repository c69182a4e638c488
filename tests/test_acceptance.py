"""Acceptance criteria, each at its stated tolerance.

Runs the statistical suites at their canonical scales (minutes of total
runtime) and prints one PASS/FAIL line per criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete.
All randomness is pinned to ACCEPTANCE_SEED, so the outcome is
reproducible bit for bit.
"""

import numpy as np
import pytest

from karlin_rsm.choquet_oracle import ChoquetQuery, tail_dependence
from karlin_rsm.distributions import qbeta_pmf, qbeta_tail
from karlin_rsm.interval_sets import normalize
from karlin_rsm.verify import SuiteConfig, run_suite, wilson_ci

from oracles import exponent_by_quadrature, sample_rbeta_hits

ACCEPTANCE_SEED = 42
THREADS = 2
BETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def emit(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} [{tag}] {desc}" + (f"  ({detail})" if detail else "")
    print(line, flush=True)
    assert ok, line


def row(report, name):
    return next(r for r in report.rows if r.check == name)


@pytest.fixture(scope="module")
def limit_oracle_report():
    cfg = SuiteConfig(
        suite="limit-vs-oracle", alpha=1.0, beta=0.5, n_grid=(10 ** 5,),
        replicas=10 ** 5, seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    return run_suite(cfg)


@pytest.fixture(scope="module")
def extremal_report():
    cfg = SuiteConfig(
        suite="extremal-mstar", alpha=1.0, beta=0.5, n_grid=(10 ** 5,),
        replicas=10 ** 5, seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    return run_suite(cfg)


def test_01_block_size_law():
    worst_tel, worst_rec = 0.0, 0.0
    for beta in BETAS:
        t_prev = 1.0
        t_rec = 1.0
        for k in range(1, 10 ** 4 + 1):
            t = qbeta_tail(k, beta)
            t_rec = t_rec * (k - beta) / k
            worst_rec = max(worst_rec, abs(t - t_rec))
            worst_tel = max(worst_tel, abs(t_prev - t - qbeta_pmf(k, beta)))
            t_prev = t
    worst_gen = 0.0
    for beta in BETAS:
        for z in np.arange(0.1, 0.95, 0.1):
            partial, k = 0.0, 0
            while True:
                k += 1
                partial += (1.0 - z) ** k * qbeta_pmf(k, beta)
                bound = (1.0 - z) ** (k + 1) * qbeta_tail(k, beta)
                if bound < 1e-10 or k > 10 ** 4:
                    break
            target = 1.0 - z ** beta
            gap = max(partial - target, target - partial - bound, 0.0)
            worst_gen = max(worst_gen, gap)
    ok = worst_rec <= 1e-10 and worst_tel <= 1e-12 and worst_gen <= 1e-8
    emit(1, "block-size law: closed form vs recurrence, telescoping, generating identity",
         ok, f"rec={worst_rec:.1e} tel={worst_tel:.1e} gen={worst_gen:.1e}")


def test_02_capacity_functional():
    from karlin_rsm.karlin_sim import replica_rng

    n = 10 ** 5
    rng = replica_rng(ACCEPTANCE_SEED, 0)
    hits = sum(bool(sample_rbeta_hits(rng, 0.5, (0.25,))[0]) for _ in range(n))
    lo, hi = wilson_ci(hits, n, 0.99)
    ok = lo <= 0.5 <= hi
    emit(2, "capacity functional: hit frequency of Leb=1/4 set at beta=1/2",
         ok, f"estimate={hits / n:.4f}, 99% CI=({lo:.4f}, {hi:.4f}), target 0.5")


def test_03_oracle_vs_quadrature():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        pairs = []
        for _ in range(d):
            w = float(rng.uniform(0.08, 0.4))
            lo = float(rng.uniform(0.0, 1.0 - w))
            pairs.append((normalize([(lo, lo + w)]), float(rng.uniform(0.5, 2.5))))
        q = ChoquetQuery(
            pairs=tuple(pairs),
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.05, 0.95)),
        )
        worst = max(worst, abs(tail_dependence(q) - exponent_by_quadrature(q)))
    ok = worst <= 1e-8
    emit(3, "oracle internal consistency: layer cake vs adaptive quadrature, 100 queries",
         ok, f"worst |diff|={worst:.2e}")


def test_04_limit_sampler_vs_oracle(limit_oracle_report):
    joint_rows = [r for r in limit_oracle_report.rows if r.check.startswith("joint_cdf_q")]
    rates = row(limit_oracle_report, "pattern_rates_exact")
    ok = len(joint_rows) == 10 and all(r.passed for r in joint_rows) and rates.passed
    worst = max(abs(r.estimate - r.target) / r.se_or_crit * 3.0 for r in joint_rows)
    emit(4, "exact limit sampler vs oracle: 10 joint queries at 1e5 reps + pattern rates add up to theta",
         ok, f"worst deviation={worst:.2f} SE (gate 3), rate residual={rates.estimate:.1e} "
             f"(gate {rates.se_or_crit:.0e})")


def test_05_empirical_marginal_convergence():
    grid = (10 ** 3, 10 ** 4, 10 ** 5)
    cfg = SuiteConfig(
        suite="marginal", alpha=1.0, beta=0.5, n_grid=grid, replicas=2000,
        seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    rep = run_suite(cfg)
    ks_at_max = row(rep, "ks_frechet_n100000_set0")
    clause1 = ks_at_max.passed and ks_at_max.estimate <= 0.05

    # convergence direction: medians over 3 harness repetitions; the
    # replica count here is a calibration constant sized so the check has
    # power (finite-n bias is ~1e-2 at n=1e3 vs a KS noise floor of
    # 0.87/sqrt(N))
    ks_by_n = {n: [] for n in grid}
    for rep_idx in range(3):
        cfg_r = SuiteConfig(
            suite="marginal", alpha=1.0, beta=0.5, n_grid=grid, replicas=8000,
            seed=ACCEPTANCE_SEED + 1000 * rep_idx, threads=THREADS,
        )
        r = run_suite(cfg_r)
        for n in grid:
            ks_by_n[n].append(row(r, f"ks_frechet_n{n}_set0").estimate)
    med = {n: float(np.median(ks_by_n[n])) for n in grid}
    clause2 = med[10 ** 5] < med[10 ** 3]
    emit(5, "empirical sup-measure vs Frechet: KS<=0.05 at n=1e5 and KS decreasing in median",
         clause1 and clause2,
         f"KS(n=1e5,N=2000)={ks_at_max.estimate:.4f}; medians "
         f"1e3={med[10**3]:.4f} 1e4={med[10**4]:.4f} 1e5={med[10**5]:.4f}")


def test_06_top_order_locations():
    cfg = SuiteConfig(
        suite="locations", alpha=1.0, beta=0.5, n_grid=(10 ** 5,), replicas=10 ** 4,
        seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    rep = run_suite(cfg)
    top1 = row(rep, "hit_top1")
    joint = row(rep, "hit_joint")
    ok = top1.passed and joint.passed
    emit(6, "top order statistics: location-set hit probabilities in 99% Wilson CIs",
         ok, f"top1={top1.estimate:.4f} (target 0.5), joint={joint.estimate:.4f} (target 0.25)")


def test_07_occupancy_laws():
    cfg = SuiteConfig(
        suite="occupancy", alpha=1.0, beta=0.5, n_grid=(10 ** 6,), replicas=100,
        seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    rep = run_suite(cfg)
    ratio = row(rep, "mean_kn_ratio")
    chi2 = row(rep, "block_freq_chi2")
    ok = ratio.passed and chi2.passed
    emit(7, "occupancy: mean K_n/nu within 2% of gamma(1/2), block sizes pass chi-square",
         ok, f"ratio={ratio.estimate:.4f} vs {ratio.target:.4f}; chi2={chi2.estimate:.1f} < {chi2.se_or_crit:.1f}")


def test_08_pattern_limits():
    cfg = SuiteConfig(
        suite="patterns", alpha=1.0, beta=0.5, n_grid=(10 ** 6,), replicas=100,
        seed=ACCEPTANCE_SEED, threads=THREADS,
    )
    rep = run_suite(cfg)
    tau_rows = [r for r in rep.rows if r.check.startswith("tau_")]
    ok = all(r.passed for r in tau_rows)
    worst = max(abs(r.estimate - r.target) / abs(r.target) for r in tau_rows)
    emit(8, "occupancy-pattern counts within 5% of closed-form limits (d<=2, n=1e6)",
         ok, f"{len(tau_rows)} patterns, worst rel err={worst:.3f}")


def test_09_extremal_process(extremal_report):
    med_rows = [row(extremal_report, f"extremal_median_t{t}") for t in (0.25, 1.0, 4.0)]
    selfsim = row(extremal_report, "self_similarity_two_sample")
    ok = all(r.passed for r in med_rows) and selfsim.passed
    worst = max(abs(r.estimate - r.target) / r.target for r in med_rows)
    emit(9, "extremal process: medians within 2% at t in {1/4, 1, 4}; self-similarity KS at 99%",
         ok, f"worst median rel err={worst:.4f}; two-sample KS={selfsim.estimate:.4f}")


def test_10_variant_measure(extremal_report):
    marg = row(extremal_report, "mstar_marginal_prob")
    dom = row(extremal_report, "coupled_domination")
    disc = row(extremal_report, "variant_discrete_ks")
    ok = marg.passed and dom.passed and dom.estimate == 1.0 and disc.passed
    emit(10, "first-occurrence variant: marginal law, pathwise domination, discrete convergence",
         ok, f"P(M*<=1)={marg.estimate:.4f} vs {marg.target:.4f}; dominated={dom.estimate:.0%}; "
             f"discrete KS={disc.estimate:.4f} (gate {disc.se_or_crit})")


def test_11_ergodicity_statistic(limit_oracle_report):
    taus = [row(limit_oracle_report, f"tau_z_t{t}") for t in (1.5, 2.0, 5.0)]
    const = row(limit_oracle_report, "tau_constant_in_t")
    positive = row(limit_oracle_report, "tau_strictly_positive")
    union = row(limit_oracle_report, "adjudication_joint_exponent_union_form")
    flagged = row(limit_oracle_report, "adjudication_joint_exponent_and_form_flagged")
    ok = (
        all(r.passed for r in taus)
        and const.passed
        and positive.passed
        and union.passed
        and flagged.passed
    )
    emit(11, "non-ergodicity: tau constant and positive; joint exponent adjudicated to 2**beta",
         ok, f"tau estimates={[round(r.estimate, 4) for r in taus]}, "
             f"-log joint={union.estimate:.4f} vs union 2**b={union.target:.4f} "
             f"(rejected alternative {flagged.target:.4f})")


def test_12_determinism_across_threads():
    small = {
        "marginal": dict(n_grid=(10 ** 3,), replicas=100),
        "locations": dict(n_grid=(10 ** 4,), replicas=100),
        "occupancy": dict(n_grid=(10 ** 4,), replicas=100),
        "patterns": dict(n_grid=(10 ** 4,), replicas=100),
        "limit-vs-oracle": dict(n_grid=(10 ** 4,), replicas=100),
        "extremal-mstar": dict(n_grid=(10 ** 4,), replicas=100),
    }
    ok = True
    for suite, kw in small.items():
        out = []
        for threads in (1, 3):
            cfg = SuiteConfig(
                suite=suite, alpha=1.0, beta=0.5, seed=ACCEPTANCE_SEED, threads=threads, **kw,
            )
            rep = run_suite(cfg)
            out.append((rep.to_csv(), rep.to_json()))
        ok = ok and out[0] == out[1]
    emit(12, "determinism: every suite byte-identical across thread counts", ok)
