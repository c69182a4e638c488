"""Elementary laws used across the toolkit.

Exact samplers and closed-form densities for Pareto marks, Frechet
distributions and the zeta (Zipf) draw distribution, and the closed-form
pmf and tail of the block-size law with parameter ``beta`` (an N-valued law
with infinite mean whose tail decays like ``k**-beta``).  A run counts zeta
draws up to a label L by one multinomial (:func:`_zeta_head`, cut from the
table :func:`_zeta_pmf`) and draws the rest from Y | Y > L by rejection
(:func:`_zeta_tail`, which also defines the label keys).  Indices are plain
floats: ``beta`` (block sizes) and s = 1/beta (zeta); marks and Frechet laws
are of index 1, and only the CLI maps values to another index.  All samplers
are pure given an explicit generator (``numpy.random.Generator``); parallel
callers must use distinct ones.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .choquet_oracle import _check_beta

__all__ = [
    "pareto_sample_batch",
    "frechet_cdf",
    "qbeta_pmf",
    "qbeta_tail",
    "riemann_zeta",
    "ZETA_TABLE_SIZE",
]


def pareto_sample_batch(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Pareto(1) marks, P(mark > y) = 1/y for y >= 1: 1/u for tail probabilities u uniform
    on (0, 1]."""
    return 1.0 / (1.0 - rng.random(size))


def frechet_cdf(z, sigma: float = 1.0):
    """CDF of the Frechet law of index 1 and scale sigma, z -> exp(-sigma / z); 0 for z <= 0 by
    convention."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(z > 0, np.exp(-sigma * np.maximum(z, 0.0) ** -1.0), 0.0)
    return out if out.ndim else float(out)


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
    if k > 1e300:  # the Stirling limit, as in the tail: k may lie beyond float range
        return beta * math.exp(-(1.0 + beta) * math.log(k) - math.lgamma(1.0 - beta))
    # (1-beta)_(k-1 rising) = gamma(k-beta) / gamma(1-beta)
    return beta * math.exp(_log_core(float(k), beta))


def _log_qbeta_tail(k, beta: float) -> float:
    if k == 0:
        return 0.0
    if k > 1e300:
        # Stirling limit of the exact ratio; error O(1/k) is invisible here, and k may lie beyond
        # float range, so it is compared before any conversion.
        return -beta * math.log(k) - math.lgamma(1.0 - beta)
    kf = float(k)
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


_ZETA_HEAD = 15
# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin correction coefficients
_ZETA_EM = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000, 1 / 74724249600)


def _scaled_zeta_tail(s: float, n: float) -> float:
    """n**(s-1) times the sum of k**-s over k >= n (n >= 16), by Euler-Maclaurin:
    the integral from n, half the n-th term and 7 Bernoulli corrections."""
    total = 1.0 / (s - 1.0) + 0.5 / n
    # j-th correction: B_2j / (2j)! * s (s+1) ... (s+2j-2) * n**(-2j)
    term = s / (n * n)
    for j, coeff in enumerate(_ZETA_EM):
        total += coeff * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return total


def _zeta_tail_mass(s: float, n: float) -> float:
    """The sum of k**-s over k >= n (n >= 16).  Where n**(1-s) underflows, the sum is 0.0 in float,
    and the Euler-Maclaurin terms, which grow like s**14, may overflow: 0 * inf would be NaN."""
    power = n ** (1.0 - s)
    return power * _scaled_zeta_tail(s, n) if power else 0.0


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1: 15 terms summed, the rest by Euler-Maclaurin from
    N = 16 (:func:`_zeta_tail_mass`).  Within a few ulp for every s > 1."""
    if not s > 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s}")
    return sum(k ** -s for k in range(1, _ZETA_HEAD + 1)) + _zeta_tail_mass(s, _ZETA_HEAD + 1.0)


ZETA_TABLE_SIZE = 2 ** 12


def _envelope_ratio(x, s: float):
    """f(x) = x (1 - (1 + 1/x)**(1-s)), increasing from f(1) to s - 1, so that
    P(floor(Z) = k) is proportional to k**-s f(k) for Z = (L+1) U**(-1/(s-1)).
    Clamped at 2**1000 (inf included), where f is s - 1 to double precision."""
    x = np.minimum(x, 2.0 ** 1000)
    return -np.expm1((1.0 - s) * np.log1p(1.0 / x)) * x


def _zeta_tail(rng: np.random.Generator, s: float, size: int, after: int) -> np.ndarray:
    """``size`` i.i.d. keys of Y ~ k**-s / zeta(s) conditioned on Y > ``after``, in trial order:
    X = floor((after+1) U**(-1/(s-1))) accepted with probability f(after+1) / f(X), so each round
    draws ``need`` over the least acceptance rate f(after+1) / (s-1) candidates.

    A key is the label itself below 2**1024 (exact up to 2**53, float-granular
    above), and -log2(label) beyond float range: below -1024, and distinct."""
    out = np.empty(size)
    sm1, start = s - 1.0, after + 1.0
    least = _envelope_ratio(start, s)
    done = 0
    while done < size:
        need = size - done
        u = 1.0 - rng.random(int(need * sm1 / least) + 16)
        v = rng.random(u.size)
        with np.errstate(over="ignore"):
            x = np.floor(start * u ** (-1.0 / sm1))
        keep = np.flatnonzero(v * _envelope_ratio(x, s) <= least)[:need]
        huge = keep[np.isinf(x[keep])]
        x[huge] = np.log2(u[huge]) / sm1 - math.log2(start)
        out[done:done + keep.size] = x[keep]
        done += keep.size
    return out


@lru_cache(maxsize=16)
def _zeta_pmf(s: float) -> np.ndarray:
    """P(Y = k) for k = 1..L, then P(Y > L), for L = ZETA_TABLE_SIZE: the table :func:`_zeta_head` cuts."""
    k = np.arange(1, ZETA_TABLE_SIZE + 1, dtype=float)
    return np.append(k ** -s, _zeta_tail_mass(s, ZETA_TABLE_SIZE + 1.0)) / riemann_zeta(s)


@lru_cache(maxsize=64)
def _zeta_head(s: float, size: int) -> np.ndarray:
    """P(Y = k) for k = 1..size, then P(Y > size): the cells of a run's multinomial head."""
    pmf = _zeta_pmf(s)
    return np.append(pmf[:size], min(pmf[size:].sum(), 1.0))  # 1 but for rounding at size 0
