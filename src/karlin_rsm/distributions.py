"""Elementary laws used across the toolkit.

Exact samplers and closed-form densities for Pareto-tailed marks, Frechet
distributions, the block-size law with parameter ``beta`` (an N-valued law
with infinite mean whose tail decays like ``k**-beta``), and the zeta (Zipf)
draw distribution.  All samplers are pure given an explicit
``numpy.random.Generator`` handle; parallel callers must use distinct
generators.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HeavyTailSpec",
    "FrechetLaw",
    "gamma_fn",
    "log_gamma",
    "pareto_from_uniform",
    "pareto_sample_batch",
    "frechet_cdf",
    "frechet_quantile",
    "qbeta_pmf",
    "qbeta_tail",
    "qbeta_from_uniform",
    "qbeta_sample",
    "riemann_zeta",
    "zeta_sample_batch",
    "zeta_acceptance_rate",
]


def gamma_fn(x: float) -> float:
    """Gamma function on (0, inf), relative error well below 1e-12.

    Backed by the C library's Lanczos-style ``tgamma``; raises ``ValueError``
    for nonpositive arguments instead of following the reflection formula.
    """
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log of the gamma function for positive x (use for large arguments)."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


@dataclass(frozen=True)
class HeavyTailSpec:
    """Mark law with survival function ~ c_alpha * y**-alpha.

    The default law ("pareto") is exactly Pareto: P(mark > y) = c_alpha *
    y**-alpha for y >= c_alpha**(1/alpha).  A "frechet" option with the same
    tail constant is provided since only the tail matters for the limit
    theorems.
    """

    alpha: float
    c_alpha: float = 1.0
    mark_law: str = "pareto"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.c_alpha > 0:
            raise ValueError(f"c_alpha must be positive, got {self.c_alpha}")
        if self.mark_law not in ("pareto", "frechet"):
            raise ValueError(f"unknown mark_law {self.mark_law!r}")


@dataclass(frozen=True)
class FrechetLaw:
    """alpha-Frechet distribution, CDF z -> exp(-sigma * z**-alpha)."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def pareto_from_uniform(u, spec: HeavyTailSpec):
    """Map a tail probability u in (0, 1] to the mark value.

    For the Pareto law this is the exact survival-function inverse
    ``(c_alpha / u) ** (1/alpha)``; for the Frechet option the exact quantile
    at 1-u.  Accepts scalars or arrays.
    """
    u = np.asarray(u, dtype=float)
    if spec.mark_law == "frechet":
        # -log(1-u) in stable form; tail P(>y) = 1 - exp(-c y^-a) ~ c y^-a
        out = (-np.log1p(-u) / spec.c_alpha) ** (-1.0 / spec.alpha)
    else:
        out = (u / spec.c_alpha) ** (-1.0 / spec.alpha)
    return out if out.ndim else float(out)


def pareto_sample_batch(rng: np.random.Generator, spec: HeavyTailSpec, size: int) -> np.ndarray:
    return pareto_from_uniform(1.0 - rng.random(size), spec)


def frechet_cdf(z, law: FrechetLaw):
    """CDF of the alpha-Frechet law; returns 0 for z <= 0 by convention."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(z > 0, np.exp(-law.sigma * np.maximum(z, 0.0) ** -law.alpha), 0.0)
    return out if out.ndim else float(out)


def frechet_quantile(p, law: FrechetLaw):
    """Exact inverse of :func:`frechet_cdf` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("frechet_quantile requires p in (0, 1)")
    out = (law.sigma / -np.log(p)) ** (1.0 / law.alpha)
    return out if out.ndim else float(out)


def _check_beta(beta: float):
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def _stirling_series(x: float) -> float:
    """Tail of Stirling's formula, 1/(12x) - 1/(360x^3) + 1/(1260x^5)."""
    inv2 = 1.0 / (x * x)
    return (1.0 - inv2 / 30.0 * (1.0 - 2.0 * inv2 / 7.0)) / (12.0 * x)


def _log_core(k: float, beta: float) -> float:
    """lgamma(k-beta) - lgamma(1-beta) - lgamma(k+1), to ~1e-15 absolute.

    Direct log-gamma loses absolute accuracy for large k (the summands grow
    like k log k while the result stays O(log k)), so beyond k = 100 the
    difference of the two large terms is evaluated in Stirling form, where
    every term is O(log k).
    """
    if k <= 100:
        return math.lgamma(k - beta) - math.lgamma(1.0 - beta) - math.lgamma(k + 1.0)
    x = k - beta
    a = 1.0 + beta
    diff = (
        (x - 0.5) * math.log1p(a / x) + a * math.log(x + a) - a
        + _stirling_series(x + a) - _stirling_series(x)
    )
    return -diff - math.lgamma(1.0 - beta)


def qbeta_pmf(k: int, beta: float) -> float:
    """pmf of the block-size law: beta * (1-beta)_(k-1 rising) / k!.

    Computed in log space so it stays accurate for large k, where the mass
    decays like beta * k**-(1+beta) / gamma(1-beta).
    """
    _check_beta(beta)
    if k < 1:
        raise ValueError(f"qbeta_pmf requires k >= 1, got {k}")
    # (1-beta)_(k-1 rising) = gamma(k-beta) / gamma(1-beta)
    return beta * math.exp(_log_core(float(k), beta))


def _log_qbeta_tail(k, beta: float) -> float:
    if k == 0:
        return 0.0
    kf = float(k)
    if kf > 1e300:
        # Stirling limit of the exact ratio; error O(1/k) is invisible here.
        return -beta * math.log(k) - math.lgamma(1.0 - beta)
    # gamma(k+1-beta) = (k-beta) gamma(k-beta)
    return math.log(kf - beta) + _log_core(kf, beta)


def qbeta_tail(k: int, beta: float) -> float:
    """P(Q > k) in closed form: gamma(k+1-beta) / (gamma(1-beta) * k!).

    Evaluated via log-gamma in O(1) (with a Stirling-difference form for
    large k, see :func:`_log_core`); telescopes against :func:`qbeta_pmf`
    and satisfies T(k) = T(k-1) * (k-beta) / k.
    """
    _check_beta(beta)
    if k < 0:
        raise ValueError(f"qbeta_tail requires k >= 0, got {k}")
    return math.exp(_log_qbeta_tail(k, beta))


_TAIL_TABLE_SIZE = 64


@lru_cache(maxsize=64)
def _neg_tail_table(beta: float) -> list:
    """-P(Q > k) for k = 0..63, ascending, for the fast inversion path."""
    return [-qbeta_tail(k, beta) for k in range(_TAIL_TABLE_SIZE)]


def qbeta_from_uniform(u: float, beta: float) -> int:
    """Invert the tail at u in (0, 1]: smallest k >= 1 with P(Q > k) < u.

    Small values come from a cached table of the closed-form tail;
    otherwise exponential search plus bisection on the tail, so the cost is
    O(log k) gamma evaluations.  The mean of Q is infinite, which rules out
    sequential summation of the pmf.
    """
    _check_beta(beta)
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    # first k with tail(k) < u; index 0 is tail(0) = 1 >= u always
    idx = bisect_right(_neg_tail_table(beta), -u)
    if idx < _TAIL_TABLE_SIZE:
        return idx
    # compare exponentiated tails so boundary cases agree with qbeta_tail
    # down to the last ulp
    hi = _TAIL_TABLE_SIZE
    while math.exp(_log_qbeta_tail(hi, beta)) >= u:
        hi *= 2
    lo = hi // 2  # tail(lo) >= u > tail(hi) since the tail is decreasing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.exp(_log_qbeta_tail(mid, beta)) < u:
            hi = mid
        else:
            lo = mid
    return hi


def qbeta_sample(rng: np.random.Generator, beta: float) -> int:
    """Exact inverse-CDF draw of the block-size law."""
    return qbeta_from_uniform(1.0 - rng.random(), beta)


_ZETA_HEAD = 15
# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin correction coefficients
_ZETA_EM = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000, 1 / 74724249600)


def riemann_zeta(s: float) -> float:
    """zeta(s) = sum of k**-s over k >= 1, for real s > 1.

    Euler-Maclaurin: the first 15 terms summed directly, the rest as the
    integral from N = 16 plus half the N-th term and 7 Bernoulli
    corrections.  Within a few ulp of the true value for every s > 1.
    """
    if not s > 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s}")
    n = _ZETA_HEAD + 1.0
    total = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    # j-th correction: B_2j / (2j)! * s (s+1) ... (s+2j-2) * n**(-s-2j+1)
    term = s * n ** (-s - 1.0)
    for j, coeff in enumerate(_ZETA_EM):
        total += coeff * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return sum(k ** -s for k in range(1, _ZETA_HEAD + 1)) + total


def zeta_acceptance_rate(s: float) -> float:
    """Per-trial acceptance probability of the zeta rejection sampler.

    Equals (1 - 2**(1-s)) * zeta(s); it is minimized as s -> 1 where it
    tends to log 2, so the expected number of trials never exceeds
    1/log 2 ~ 1.443.
    """
    if not s > 1.0:
        raise ValueError(f"zeta law requires s > 1, got {s}")
    return (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s)


def _bigint_from_log(log_x: float) -> int:
    """floor(exp(log_x)) for values beyond float range (magnitude-accurate)."""
    t = log_x / math.log(2.0)
    e = int(t) - 53
    m = int(2.0 ** (t - int(t) + 53))
    return m << e if e > 0 else m >> -e


def zeta_sample_batch(rng: np.random.Generator, s: float, size: int) -> np.ndarray:
    """Vectorized exact sampling of P(Y = k) = k**-s / zeta(s), k >= 1.

    Rejection from the Pareto envelope floor(U**(-1/(s-1))) (Devroye's
    method); see :func:`zeta_acceptance_rate` for the documented constant.
    Labels above 2**53 carry float64 granularity in their low bits; labels
    beyond float range are produced on a separate exact-arithmetic branch.
    Returns an int64 array when every label fits, else an object array of
    Python ints.
    """
    if not s > 1.0:
        raise ValueError(f"zeta law requires s > 1, got {s}")
    if size < 0:
        raise ValueError("size must be nonnegative")
    sm1 = s - 1.0
    b = 2.0 ** sm1
    chunks = []
    big_labels = False
    filled = 0
    while filled < size:
        m = int((size - filled) * 1.6) + 16
        u = 1.0 - rng.random(m)
        v = rng.random(m)
        with np.errstate(over="ignore"):
            x = np.floor(u ** (-1.0 / sm1))
        finite = np.isfinite(x)
        xf = x[finite]
        log_t = sm1 * np.log1p(1.0 / xf)
        tm1 = np.expm1(log_t)
        # accept iff v * x * (t-1) / (b-1) <= t / b, rearranged without division
        acc = v[finite] * xf * tm1 * b <= (tm1 + 1.0) * (b - 1.0)
        accepted = xf[acc]
        if not np.all(finite):
            # x beyond float range: t -> 1 and x*(t-1) -> s-1 to full precision
            extras = [
                _bigint_from_log(-math.log(ui) / sm1)
                for ui, vi in zip(u[~finite], v[~finite])
                if vi * sm1 * b <= b - 1.0
            ]
            if extras:
                big_labels = True
                accepted = np.concatenate([accepted, np.array(extras, dtype=object)])
        if accepted.size:
            take = min(size - filled, accepted.size)
            chunks.append(accepted[:take])
            filled += take
    if not chunks:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate([np.asarray(c, dtype=object) for c in chunks]) if big_labels else np.concatenate(chunks)
    if big_labels:
        return np.array([int(val) for val in out], dtype=object)
    if out.size and out.max() < 2.0 ** 62:
        return out.astype(np.int64)
    return np.array([int(val) for val in out], dtype=object)
