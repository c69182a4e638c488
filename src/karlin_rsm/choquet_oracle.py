"""Closed-form evaluation of the limit laws.

Every joint law of the limit sup-measure reduces to a Choquet integral of a
max of weighted indicators against the extremal coefficient functional
``theta(K) = Leb(K)**beta``.  Comonotonic additivity turns that integral
into a layer cake over the sorted weights, which is what
:func:`tail_dependence` computes; everything else here is a reparametrized
call into it, plus the functional of the first-occurrence variant.
A query is built from Python values, with its thresholds at index 1; the CLI
reads it from JSON and maps its thresholds to index 1.  The arithmetic is
pure Python: this module and :mod:`~karlin_rsm.interval_sets`, which it
reads, import no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval_sets import IntervalSet, atomize

__all__ = [
    "ChoquetQuery",
    "theta",
    "tail_dependence",
    "joint_cdf",
    "tau_z",
    "mstar_theta",
]


def _check_beta(beta: float):
    """beta, the index of theta, lies in (0, 1); every module of the package checks it here."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def theta(k: IntervalSet, beta: float) -> float:
    """Extremal coefficient of a set: Leb(K)**beta, with 0**beta = 0."""
    _check_beta(beta)
    return k.lebesgue() ** beta


@dataclass(frozen=True)
class ChoquetQuery:
    """A finite family of (set, threshold) pairs at index 1, plus beta."""

    pairs: tuple  # of (IntervalSet, z): z in [0, inf], where 0 and inf are the limits of small and large z
    beta: float

    def __post_init__(self):
        _check_beta(self.beta)
        if not self.pairs:
            raise ValueError("query must contain at least one pair")
        for _, z in self.pairs:
            if not z >= 0:
                raise ValueError(f"thresholds must be nonnegative, got {z}")

    @property
    def weights(self) -> tuple:
        return tuple(1.0 / z if z else math.inf for _, z in self.pairs)


def _leb(atoms, owners, sets: int) -> float:
    """Lebesgue measure of the union of the sets in a bitmask: its atoms, summed left to right."""
    return sum((hi - lo for (lo, hi), owner in zip(atoms, owners) if owner & sets), 0.0)


def tail_dependence(q: ChoquetQuery) -> float:
    """Choquet integral of max_i w_i 1_{A_i} against theta, by layer cake.

    Weights w_i = 1/z_i are sorted decreasingly and the integral is
    sum_k (w_(k) - w_(k+1)) * Leb(A_(1) u ... u A_(k))**beta; ties collapse
    because their increments vanish, and a union of measure 0 adds nothing.
    """
    atoms, owners = atomize([a for a, _ in q.pairs])
    order = sorted(range(len(q.pairs)), key=lambda i: -q.weights[i])
    w = [q.weights[i] for i in order] + [0.0]
    total = 0.0
    cum = 0
    for k, i in enumerate(order):
        cum |= 1 << i
        leb = _leb(atoms, owners, cum)
        if w[k] > w[k + 1] and leb > 0:
            total += (w[k] - w[k + 1]) * leb ** q.beta
    return float(total)


def joint_cdf(q: ChoquetQuery) -> float:
    """P(M(A_i) <= z_i for all i) = exp(-tail_dependence)."""
    return math.exp(-tail_dependence(q))


def tau_z(t: float, z: float, beta: float) -> float:
    """Non-ergodicity statistic of the unit max-increment process.

    tau_z(t) = log P(increment at 0 <= z, increment at t <= z)
               - 2 log P(increment <= z), computed on the window [0, t+1]
    (the law is translation invariant).  For t > 1 this is the constant
    (2 - 2**beta) / z > 0, which is what rules out ergodicity.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if not z > 0:
        raise ValueError(f"z must be positive, got {z}")
    carrier = (0.0, t + 1.0)
    a1 = IntervalSet(((0.0, 1.0),), carrier)
    a2 = IntervalSet(((t, t + 1.0),), carrier)
    single = tail_dependence(ChoquetQuery(pairs=((a1, z),), beta=beta))
    joint = tail_dependence(ChoquetQuery(pairs=((a1, z), (a2, z)), beta=beta))
    return 2.0 * single - joint


def mstar_theta(a: float, b: float, beta: float) -> float:
    """Functional of the first-occurrence variant on [a, b): b**beta - a**beta.

    Equals the Lebesgue measure of the image of [a, b] under t -> t**beta,
    and agrees with theta on [0, b).
    """
    _check_beta(beta)
    if a < 0 or a >= b:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    return b ** beta - a ** beta

