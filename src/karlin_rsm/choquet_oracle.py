"""Closed-form evaluation of the limit laws.

Every joint law of the limit sup-measure reduces to a Choquet integral of a
max of weighted indicators against the extremal coefficient functional
``theta(K) = Leb(K)**beta``.  Comonotonic additivity turns that integral
into a layer cake over the sorted weights, which is what
:func:`tail_dependence` computes; everything else here is a reparametrized
call into it, plus the table of occupancy-pattern limits (indexed by the
bitmask of the sets hit) and the functional of the first-occurrence variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import _check_alpha, _check_beta
from .interval_sets import IntervalSet, _json_fields, _json_number, atomize

__all__ = [
    "ChoquetQuery",
    "theta",
    "tail_dependence",
    "joint_cdf",
    "tau_z",
    "pattern_limit",
    "mstar_theta",
]


def theta(k: IntervalSet, beta: float) -> float:
    """Extremal coefficient of a set: Leb(K)**beta, with 0**beta = 0."""
    _check_beta(beta)
    return k.lebesgue() ** beta


@dataclass(frozen=True)
class ChoquetQuery:
    """A finite family of (set, threshold) pairs plus the two indices."""

    pairs: tuple  # of (IntervalSet, z > 0)
    alpha: float
    beta: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_beta(self.beta)
        if not self.pairs:
            raise ValueError("query must contain at least one pair")
        for _, z in self.pairs:
            if not z > 0:
                raise ValueError(f"thresholds must be positive, got {z}")

    @property
    def weights(self) -> tuple:
        return tuple(z ** -self.alpha for _, z in self.pairs)

    @classmethod
    def from_json(cls, obj) -> "ChoquetQuery":
        """The query of a JSON object; a malformed field's error starts with its JSON path."""
        alpha, beta, raw = _json_fields(obj, ("alpha", "beta", "pairs"), "")
        if not isinstance(raw, list) or not raw:
            raise ValueError("pairs: expected a nonempty list of {set, z} objects")
        pairs = []
        for i, pair in enumerate(raw):
            a, z = _json_fields(pair, ("set", "z"), f"pairs[{i}]")
            pairs.append((IntervalSet.from_json(a, f"pairs[{i}].set"), _json_number(z, f"pairs[{i}].z")))
        return cls(pairs=tuple(pairs), alpha=_json_number(alpha, "alpha"), beta=_json_number(beta, "beta"))


def _leb(atoms, owners, sets: int) -> float:
    """Lebesgue measure of the union of the sets in a bitmask: its atoms, summed left to right."""
    return sum((hi - lo for (lo, hi), owner in zip(atoms, owners) if owner & sets), 0.0)


def tail_dependence(q: ChoquetQuery) -> float:
    """Choquet integral of max_i w_i 1_{A_i} against theta, by layer cake.

    Weights w_i = z_i**-alpha are sorted decreasingly and the integral is
    sum_k (w_(k) - w_(k+1)) * Leb(A_(1) u ... u A_(k))**beta; ties collapse
    automatically because their increments vanish.
    """
    atoms, owners = atomize([a for a, _ in q.pairs])
    order = sorted(range(len(q.pairs)), key=lambda i: -q.weights[i])
    w = [q.weights[i] for i in order] + [0.0]
    total = 0.0
    cum = 0
    for k, i in enumerate(order):
        cum |= 1 << i
        if w[k] > w[k + 1]:
            total += (w[k] - w[k + 1]) * _leb(atoms, owners, cum) ** q.beta
    return float(total)


def joint_cdf(q: ChoquetQuery) -> float:
    """P(M(A_i) <= z_i for all i) = exp(-tail_dependence)."""
    return math.exp(-tail_dependence(q))


def tau_z(t: float, z: float, alpha: float, beta: float) -> float:
    """Non-ergodicity statistic of the unit max-increment process.

    tau_z(t) = log P(increment at 0 <= z, increment at t <= z)
               - 2 log P(increment <= z), computed on the window [0, t+1]
    (the law is translation invariant).  For t > 1 this is the constant
    (2 - 2**beta) * z**-alpha > 0, which is what rules out ergodicity.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if not z > 0:
        raise ValueError(f"z must be positive, got {z}")
    carrier = (0.0, t + 1.0)
    a1 = IntervalSet(((0.0, 1.0),), carrier)
    a2 = IntervalSet(((t, t + 1.0),), carrier)
    single = tail_dependence(ChoquetQuery(pairs=((a1, z),), alpha=alpha, beta=beta))
    joint = tail_dependence(ChoquetQuery(pairs=((a1, z), (a2, z)), alpha=alpha, beta=beta))
    return 2.0 * single - joint


def pattern_limit(beta: float, family) -> np.ndarray:
    """Limits of the normalized occupancy-pattern counts, one per entry of the pattern table.

    Entry S (bit k for set k, as in ``karlin_sim.pattern_count_table``)
    counts the boxes hit in exactly the sets of S.  For S > 0,
    inclusion-exclusion over the hit events followed by termwise
    integration gives gamma(1-beta) * sum over T within S of
    (-1)**(|T|+1) * Leb(union of T and the sets outside S)**beta, the empty
    T contributing -Leb(union of the sets outside S)**beta.  Entry 0, the
    boxes hit nowhere, is gamma(1-beta) * (Leb(carrier)**beta - Leb(union)**beta).
    """
    _check_beta(beta)
    atoms, owners = atomize(family)
    full = (1 << len(family)) - 1
    lo, hi = family[0].carrier
    table = [(hi - lo) ** beta - _leb(atoms, owners, full) ** beta]
    for hit_mask in range(1, full + 1):
        hit = [k for k in range(len(family)) if hit_mask >> k & 1]
        total = 0.0
        for size in range(0, len(hit) + 1):
            sign = 1.0 if size % 2 == 1 else -1.0
            for subset in combinations(hit, size):
                total += sign * _leb(atoms, owners, full & ~hit_mask | sum(1 << k for k in subset)) ** beta
        table.append(total)
    return math.gamma(1.0 - beta) * np.array(table)


def mstar_theta(a: float, b: float, beta: float) -> float:
    """Functional of the first-occurrence variant on [a, b): b**beta - a**beta.

    Equals the Lebesgue measure of the image of [a, b] under t -> t**beta,
    and agrees with theta on [0, b).
    """
    _check_beta(beta)
    if a < 0 or a >= b:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    return b ** beta - a ** beta

