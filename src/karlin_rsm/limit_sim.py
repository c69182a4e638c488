"""Exact joint samplers of the limiting random sup-measures.

Each limit object is a Poisson sequence of levels ``gamma**(-1/alpha)``
whose atoms carry i.i.d. random hitting sets; a query set takes the level
of the first atom whose hitting set meets it.  Every joint law depends on
the sets only through ``theta(K) = Leb(K)**beta``, so by the marking
theorem the atoms whose hit pattern over the family is S arrive as
independent Poisson clocks of rate p_S, the inclusion-exclusion of theta
over the family.  A replica therefore needs one exponential per pattern:
M(A_i) is the level at the first arrival among the clocks whose pattern
contains i.  The rates hold on any carrier, so no rescaling is needed.

The first-occurrence variant M* reads only the leftmost point of a hitting
set, which lands in [a, b) at rate b**beta - a**beta: one clock per atom of
the family, on the unit carrier only.  The coupled pair runs the pattern
clocks over the full partition of [0, 1) and M* reads the lowest cell of
each pattern.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import _check_beta
from .interval_sets import UNIT, CapacityError, atomize, normalize

__all__ = [
    "LimitSample",
    "pattern_rates",
    "karlin_batch",
    "mstar_batch",
    "coupled_batch",
    "top_m_batch",
    "sample_karlin",
    "sample_mstar",
    "limit_samples_csv",
]

PATTERN_BUDGET = 20  # cells of a coupled pair, as atomize caps the sets: 2**20 clocks at most
_CHUNK_FLOATS = 1 << 16  # largest per-chunk array: 512 KB
_POISSON_MAX = 1e18  # numpy's Poisson sampler stops near 9.2e18
_SCALE = 1 << 1074  # every double is an integer multiple of 2**-1074


@dataclass(frozen=True)
class LimitSample:
    """Joint values of a limit sup-measure over a query family.

    ``atoms_used`` is the index of the Poisson atom at which the last set
    with positive measure is first hit (0 when there is none).
    """

    values: tuple
    atoms_used: int


@dataclass(frozen=True)
class _Clocks:
    """Independent exponential clocks and the outputs each of them hits."""

    rates: np.ndarray  # (clocks,) positive rates
    misses: np.ndarray  # (clocks, outputs): 0 where the clock hits the output, else inf
    idle: float  # rate of the atoms that hit no clock; only atoms_used sees it


def _hits(patterns: np.ndarray, masks) -> np.ndarray:
    """(clocks, outputs) True where a clock's pattern meets an output's mask."""
    return (patterns[:, None] & np.array(masks, dtype=np.int64)) != 0


def _clocks(rates: np.ndarray, hits: np.ndarray, idle: float) -> _Clocks:
    return _Clocks(rates, np.where(hits, 0.0, np.inf), idle)


def _family(family) -> tuple:
    family = tuple(family)
    if not family:
        raise ValueError("query family must be nonempty")
    lo, hi = family[0].carrier
    if not math.isfinite(hi - lo):
        raise ValueError(f"carrier {family[0].carrier} must be a finite interval")
    return family


def _require_unit(family) -> None:
    for a in family:
        if a.carrier != UNIT:
            raise ValueError(
                f"the first-occurrence variant M* is defined on the unit carrier only, "
                f"got carrier {a.carrier}"
            )


def _exact(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_SCALE // den)


def _union_theta(beta: float, measures, members) -> np.ndarray:
    """Leb(union of the sets in U)**beta for every subset U, indexed by bitmask.

    ``members[i]`` is the bitmask of the disjoint atoms inside set i.
    """
    covered = np.zeros(1, dtype=np.int64)
    for mask in members:
        covered = np.concatenate([covered, covered | mask])
    leb = np.zeros(covered.size)
    for j, mu in enumerate(measures):
        leb += ((covered >> j) & 1) * mu
    return leb ** beta


def _moebius_rates(f: np.ndarray) -> np.ndarray:
    """p_S = sum over T within S of (-1)**(|T|+1) f[S^c | T], for every S.

    The alternating sums run in integer arithmetic on the rounded f, so no
    rate is lost to cancellation between nearly equal measures (a set of
    measure 1e-300 beside one of 1/2 keeps its rate).  Each rate is rounded
    once, and rounding residue below 0 is cut to 0.  Entry 0 is meaningless.
    """
    h = np.array([_exact(x) for x in f[::-1].tolist()], dtype=object)  # h[V] = f[V^c]
    for j in range(f.size.bit_length() - 1):
        v = h.reshape(-1, 2, 1 << j)
        v[:, 1, :] -= v[:, 0, :]
    return np.array([max(0.0, -x / _SCALE) for x in h.tolist()])


@lru_cache(maxsize=256)
def _karlin_rates(beta: float, family: tuple) -> np.ndarray:
    _check_beta(beta)
    deco = atomize(family)
    f = _union_theta(beta, deco.measures, deco.member_masks())
    rates = _moebius_rates(f)
    lo, hi = family[0].carrier
    rates[0] = max(0.0, (hi - lo) ** beta - f[-1])
    rates.setflags(write=False)
    return rates


def pattern_rates(beta: float, family) -> np.ndarray:
    """Rate p_S of the Poisson atoms whose hit pattern over the family is S.

    Entry S (a bitmask, bit i for set i) is the inclusion-exclusion of
    Leb(union)**beta; entry 0 is the rate of the atoms that hit no set,
    Leb(carrier)**beta - Leb(union of the family)**beta.  Read-only.
    """
    return _karlin_rates(beta, _family(family))


@lru_cache(maxsize=256)
def _karlin_clocks(beta: float, family: tuple) -> _Clocks:
    rates = _karlin_rates(beta, family)
    live = np.flatnonzero(rates[1:]) + 1
    return _clocks(rates[live], _hits(live, [1 << i for i in range(len(family))]), float(rates[0]))


def _mstar_rate(lo: float, hi: float, beta: float) -> float:
    """hi**beta - lo**beta, without cancellation for atoms narrower than lo."""
    if hi >= 2.0 * lo:
        return hi ** beta - lo ** beta
    return lo ** beta * math.expm1(beta * math.log1p((hi - lo) / lo))


@lru_cache(maxsize=256)
def _mstar_clocks(beta: float, family: tuple) -> _Clocks:
    _check_beta(beta)
    _require_unit(family)
    deco = atomize(family)
    rates = np.array([_mstar_rate(*a.intervals[0], beta) for a in deco.atoms])
    hits = _hits(1 << np.arange(rates.size, dtype=np.int64), deco.member_masks())
    return _clocks(rates, hits, max(0.0, 1.0 - float(rates.sum())))


@lru_cache(maxsize=256)
def _coupled_clocks(beta: float, family: tuple) -> _Clocks:
    """Pattern clocks over the atoms and gaps of [0, 1), left to right.

    The leftmost point of a hitting set lies in the lowest cell it hits, so
    M* of a set reads the clocks whose lowest cell is inside the set.
    """
    _check_beta(beta)
    _require_unit(family)
    deco = atomize(family)
    union = normalize([iv for a in family for iv in a.intervals])
    cells = sorted([a.intervals[0] for a in deco.atoms] + list(union.complement().intervals))
    if len(cells) > PATTERN_BUDGET:
        raise CapacityError(f"{len(cells)} cells exceed the {PATTERN_BUDGET}-cell pattern budget")
    rank = {iv: c for c, iv in enumerate(cells)}
    members = [sum(1 << rank[deco.atoms[j].intervals[0]] for j in idx) for idx in deco.membership]
    f = _union_theta(beta, [hi - lo for lo, hi in cells], [1 << c for c in range(len(cells))])
    rates = _moebius_rates(f)
    live = np.flatnonzero(rates[1:]) + 1
    hits = np.hstack([_hits(live, members), _hits(live & -live, members)])
    return _clocks(rates[live], hits, max(0.0, 1.0 - float(f[-1])))


def _chunk_rows(per_replica: int) -> int:
    """Replicas per chunk; the stream never depends on it, only the memory does."""
    return max(1, _CHUNK_FLOATS // max(1, per_replica))


def _first_hits(g: np.ndarray, clocks: _Clocks) -> np.ndarray:
    """Per replica and output, the first arrival among the clocks it reads; inf for none."""
    return (g[:, :, None] + clocks.misses).min(axis=1, initial=np.inf)


def _batch(rng, alpha: float, clocks: _Clocks, replicas: int) -> np.ndarray:
    """(replicas, outputs) values, drawn a chunk of replicas at a time.

    Every chunk draws its exponentials in replica order, so replica r of a
    batch reads the same draws however the batch is chunked.
    """
    k = clocks.rates.size
    rows = _chunk_rows(clocks.misses.size)
    first = [
        _first_hits(rng.standard_exponential((min(rows, replicas - start), k)) / clocks.rates, clocks)
        for start in range(0, replicas, rows)
    ]
    return np.concatenate(first) ** (-1.0 / alpha)


def _poisson(rng: np.random.Generator, lam: float) -> int:
    if lam < _POISSON_MAX:
        return int(rng.poisson(lam))
    # the normal limit; its error, of order lam**-0.5, is below float resolution
    return int(round(lam + math.sqrt(lam) * rng.standard_normal()))


def _sample(rng, alpha: float, clocks: _Clocks) -> tuple:
    """One replica, as a batch of one: (values, atoms_used).

    With T the arrival at which the last output is first hit, the atoms
    before T are: the first arrival of each clock that fired before T, the
    Poisson(p (T - arrival)) later arrivals of those clocks, and the
    Poisson(idle T) atoms that hit nothing.
    """
    g = rng.standard_exponential((1, clocks.rates.size)) / clocks.rates
    first = _first_hits(g, clocks)[0]
    values = tuple((first ** (-1.0 / alpha)).tolist())
    hit = [x for x in first.tolist() if x < math.inf]
    if not hit:
        return values, 0
    t = max(hit)
    early = g[0] < t
    lam = clocks.idle * t + float(clocks.rates[early] @ (t - g[0, early]))
    return values, 1 + int(early.sum()) + _poisson(rng, lam)


def karlin_batch(rng: np.random.Generator, alpha: float, beta: float, family, replicas: int) -> np.ndarray:
    """Values of M over the family for ``replicas`` replicas, shape (replicas, len(family)).

    Sets of measure 0 are 0 (a hitting set is a.s. finite).  A batch of R
    replicas is the first R rows of a larger batch from the same stream.
    """
    return _batch(rng, alpha, _karlin_clocks(beta, _family(family)), replicas)


def mstar_batch(rng: np.random.Generator, alpha: float, beta: float, family, replicas: int) -> np.ndarray:
    """Values of the first-occurrence variant M*; unit carrier only."""
    return _batch(rng, alpha, _mstar_clocks(beta, _family(family)), replicas)


def coupled_batch(rng: np.random.Generator, alpha: float, beta: float, family, replicas: int):
    """(M, M*) from one Poisson realization; pathwise M >= M*."""
    values = _batch(rng, alpha, _coupled_clocks(beta, _family(family)), replicas)
    d = values.shape[1] // 2
    return values[:, :d], values[:, d:]


@lru_cache(maxsize=256)
def _race(beta: float, family: tuple):
    """Clocks of all patterns with positive rate, the idle one included, and their hits."""
    rates = _karlin_rates(beta, family)
    live = np.flatnonzero(rates)
    return rates[live], _hits(live, [1 << i for i in range(len(family))])


def top_m_batch(rng: np.random.Generator, alpha: float, beta: float, m: int, family, replicas: int):
    """Levels and per-set hits of the first m limit atoms.

    Returns values of shape (replicas, m) and hits of shape (replicas, m,
    len(family)).  Each atom is the winner of a race of the pattern clocks,
    so the level increments are Exp(total rate) and the patterns i.i.d.
    with probabilities proportional to p_S, independently of the levels.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    rates, hits = _race(beta, _family(family))
    rows = _chunk_rows(m * rates.size)
    values, winners = [], []
    for start in range(0, replicas, rows):
        g = rng.standard_exponential((min(rows, replicas - start), m, rates.size)) / rates
        values.append(np.cumsum(g.min(axis=2), axis=1) ** (-1.0 / alpha))
        winners.append(g.argmin(axis=2))
    return np.concatenate(values), hits[np.concatenate(winners)]


def sample_karlin(rng: np.random.Generator, alpha: float, beta: float, family) -> LimitSample:
    """Exact joint sample of the limit sup-measure over a family on any finite carrier."""
    return LimitSample(*_sample(rng, alpha, _karlin_clocks(beta, _family(family))))


def sample_mstar(rng: np.random.Generator, alpha: float, beta: float, family) -> LimitSample:
    """Variant sup-measure whose hitting set is its leftmost point only.

    An interval [a, b) is hit at rate b**beta - a**beta; unit carrier only.
    """
    return LimitSample(*_sample(rng, alpha, _mstar_clocks(beta, _family(family))))


def limit_samples_csv(samples) -> str:
    """CSV export of a batch: columns replica,set_id,value,atoms_used."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replica", "set_id", "value", "atoms_used"])
    for replica, sample in enumerate(samples):
        for set_id, value in enumerate(sample.values):
            writer.writerow([replica, set_id, repr(value), sample.atoms_used])
    return buf.getvalue()
