"""Closed-form evaluation of the limit laws.

Every joint law of the limit sup-measure reduces to a Choquet integral of a
max of weighted indicators against the extremal coefficient functional
``theta(K) = Leb(K)**beta``.  Comonotonic additivity turns that integral
into a layer cake over the sorted weights, which is what
:func:`tail_dependence` computes; everything else here is a reparametrized
call into it, plus the occupancy-pattern limits and the functional of the
first-occurrence variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .distributions import _check_alpha, _check_beta
from .interval_sets import IntervalSet, _json_fields, _json_number, atomize

__all__ = [
    "ChoquetQuery",
    "PatternQuery",
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


@dataclass(frozen=True)
class PatternQuery:
    """Occupancy pattern: which sets must be hit (1) and which missed (0)."""

    family: tuple  # of IntervalSet
    delta: tuple  # 0/1, at least one 1

    def __post_init__(self):
        if len(self.family) != len(self.delta):
            raise ValueError("delta length must match the family")
        if any(d not in (0, 1) for d in self.delta):
            raise ValueError("delta entries must be 0 or 1")
        if not any(self.delta):
            raise ValueError("delta must contain at least one 1")


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


def pattern_limit(p: PatternQuery, beta: float) -> float:
    """Limit of the normalized occupancy-pattern counts.

    Inclusion-exclusion over the hit events followed by termwise
    integration gives gamma(1-beta) * sum over S within the hit set of
    (-1)**(|S|+1) * Leb(union of S and the missed sets)**beta, the empty S
    contributing -Leb(union of the missed sets)**beta (0 when all hit).
    """
    _check_beta(beta)
    atoms, owners = atomize(p.family)
    hit = [k for k, d in enumerate(p.delta) if d == 1]
    miss_mask = sum(1 << k for k, d in enumerate(p.delta) if d == 0)
    total = 0.0
    for size in range(0, len(hit) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(hit, size):
            mask = miss_mask | sum(1 << k for k in subset)
            total += sign * _leb(atoms, owners, mask) ** beta
    return float(math.gamma(1.0 - beta) * total)


def mstar_theta(a: float, b: float, beta: float) -> float:
    """Functional of the first-occurrence variant on [a, b): b**beta - a**beta.

    Equals the Lebesgue measure of the image of [a, b] under t -> t**beta,
    and agrees with theta on [0, b).
    """
    _check_beta(beta)
    if a < 0 or a >= b:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    return b ** beta - a ** beta

