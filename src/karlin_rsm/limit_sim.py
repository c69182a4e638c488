"""Exact joint samplers of the limiting random sup-measures.

Each limit object is a Poisson sequence of levels ``1/gamma`` whose atoms
carry i.i.d. random hitting sets; a query set takes the level of the first
atom whose hitting set meets it.  Every joint law depends on
the sets only through ``theta(K) = Leb(K)**beta``, so by the marking
theorem the atoms whose hit pattern over the family is S arrive as
independent Poisson clocks of rate p_S, the inclusion-exclusion of theta
over the family.  A replica therefore needs one exponential per pattern:
M(A_i) is the level at the first arrival among the clocks whose pattern
contains i.  The rates hold on any carrier, so no rescaling is needed.
The clocks read a family as :func:`atomize` gives it: ``(lo, hi)`` atoms,
each with the bitmask of the sets that hold it, so a family may hold any
number of intervals; the rates are the :func:`moebius` inversion of theta
over the unions of sets.

The first-occurrence variant M* reads only the leftmost point of a hitting
set, which lands in [a, b) at rate b**beta - a**beta: one clock per atom of
the family, on the unit carrier only.  The coupled pair runs the pattern
clocks over the cells of [0, 1), the pieces between 0, 1 and the atoms'
ends (at most ``PATTERN_BUDGET``), and M* reads the lowest cell of each
pattern.  :func:`_clocks` builds every race, and drops its clocks of rate 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .choquet_oracle import _check_beta
from .interval_sets import PATTERN_BUDGET, UNIT, CapacityError, atomize, moebius, union_measures

__all__ = [
    "LimitSample",
    "pattern_rates",
    "karlin_batch",
    "mstar_batch",
    "coupled_batch",
    "top_m_batch",
    "sample_karlin",
    "sample_mstar",
]

_CHUNK_FLOATS = 1 << 16  # largest per-chunk array: 512 KB
_POISSON_MAX = 1e18  # numpy's Poisson sampler stops near 9.2e18


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


def _clocks(rates: np.ndarray, codes: np.ndarray, outputs: int, idle: float = 0.0) -> _Clocks:
    """The one race of every limit object: the clocks of positive rate, in order; clock c
    hits output i when bit i of its hit code ``codes[c]`` is set."""
    live = rates > 0
    hits = (codes[live, None] & (1 << np.arange(outputs))) != 0
    return _Clocks(rates[live], np.where(hits, 0.0, np.inf), idle)


def _family(family) -> tuple:
    family = tuple(family)
    if not family:
        raise ValueError("query family must be nonempty")
    lo, hi = family[0].carrier
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"carrier {family[0].carrier} must be a finite interval")
    if not math.isfinite(hi - lo):
        raise ValueError(f"carrier {family[0].carrier} has a length hi - lo beyond float range")
    return family


def _require_unit(family) -> None:
    for a in family:
        if a.carrier != UNIT:
            raise ValueError(
                f"the first-occurrence variant M* is defined on the unit carrier only, "
                f"got carrier {a.carrier}"
            )


@lru_cache(maxsize=256)
def _karlin_rates(beta: float, family: tuple) -> np.ndarray:
    _check_beta(beta)
    f = union_measures(*atomize(family), len(family)) ** beta
    rates = moebius(f)
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
    return _clocks(rates[1:], np.arange(1, rates.size), len(family), float(rates[0]))


def _mstar_rate(lo: float, hi: float, beta: float) -> float:
    """hi**beta - lo**beta, without cancellation for atoms narrower than lo."""
    if hi >= 2.0 * lo:
        return hi ** beta - lo ** beta
    return lo ** beta * math.expm1(beta * math.log1p((hi - lo) / lo))


@lru_cache(maxsize=256)
def _mstar_clocks(beta: float, family: tuple) -> _Clocks:
    _check_beta(beta)
    _require_unit(family)
    atoms, owners = atomize(family)
    rates = np.array([_mstar_rate(lo, hi, beta) for lo, hi in atoms])
    idle = max(0.0, 1.0 - float(rates.sum()))
    return _clocks(rates, np.array(owners, dtype=np.int64), len(family), idle)  # int64 with no atoms too


@lru_cache(maxsize=256)
def _coupled_clocks(beta: float, family: tuple) -> _Clocks:
    """Pattern clocks over the cells of [0, 1), the pieces between 0, 1 and the atoms' ends.

    The leftmost point of a hitting set lies in the lowest cell it hits, so
    M* of set i (output d + i) reads the clocks whose lowest cell is inside the set.
    """
    _check_beta(beta)
    _require_unit(family)
    atoms, owners = atomize(family)
    ends = sorted({0.0, 1.0, *(end for atom in atoms for end in atom)})
    cells = list(zip(ends, ends[1:]))
    if len(cells) > PATTERN_BUDGET:
        raise CapacityError(f"{len(cells)} cells exceed the {PATTERN_BUDGET}-cell pattern budget")
    rates = moebius(union_measures(cells, [1 << c for c in range(len(cells))], len(cells)) ** beta)
    rates[0] = 0.0  # every atom hits a cell
    owner = dict(zip(atoms, owners))  # gaps hold no set
    meets = np.zeros(1, dtype=np.int64)  # meets[P]: the sets that the cells of pattern P hold
    for cell in cells:
        meets = np.concatenate([meets, meets | owner.get(cell, 0)])
    patterns = np.arange(rates.size)
    return _clocks(rates, meets | meets[patterns & -patterns] << len(family), 2 * len(family))


def _chunks(replicas: int, per_replica: int) -> list:
    """Replicas per chunk, in order; the stream never depends on them, only the memory does."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    rows = max(1, _CHUNK_FLOATS // max(1, per_replica))
    return [min(rows, replicas - start) for start in range(0, replicas, rows)]


def _first_hits(g: np.ndarray, clocks: _Clocks) -> np.ndarray:
    """Per replica and output, the first arrival among the clocks it reads; inf for none."""
    return (g[:, :, None] + clocks.misses).min(axis=1, initial=np.inf)


def _batch(rng, clocks: _Clocks, replicas: int) -> np.ndarray:
    """(replicas, outputs) levels, drawn a chunk of replicas at a time.

    Every chunk draws its exponentials in replica order, so replica r of a
    batch reads the same draws however the batch is chunked.
    """
    k = clocks.rates.size
    first = [
        _first_hits(rng.standard_exponential((size, k)) / clocks.rates, clocks)
        for size in _chunks(replicas, clocks.misses.size)
    ]
    return 1.0 / np.concatenate(first)


def _poisson(rng: np.random.Generator, lam: float) -> int:
    if lam < _POISSON_MAX:
        return int(rng.poisson(lam))
    # the normal limit; its error, of order lam**-0.5, is below float resolution
    return int(round(lam + math.sqrt(lam) * rng.standard_normal()))


def _sample(rng, clocks: _Clocks) -> tuple:
    """One replica, as a batch of one: (values, atoms_used).

    With T the arrival at which the last output is first hit, the atoms
    before T are: the first arrival of each clock that fired before T, the
    Poisson(p (T - arrival)) later arrivals of those clocks, and the
    Poisson(idle T) atoms that hit nothing.
    """
    g = rng.standard_exponential((1, clocks.rates.size)) / clocks.rates
    first = _first_hits(g, clocks)[0]
    values = tuple((1.0 / first).tolist())
    hit = [x for x in first.tolist() if x < math.inf]
    if not hit:
        return values, 0
    t = max(hit)
    early = g[0] < t
    lam = clocks.idle * t + float(clocks.rates[early] @ (t - g[0, early]))
    return values, 1 + int(early.sum()) + _poisson(rng, lam)


def karlin_batch(rng: np.random.Generator, beta: float, family, replicas: int) -> np.ndarray:
    """Levels of M over the family for ``replicas`` replicas, shape (replicas, len(family)).

    Sets of measure 0 are 0 (a hitting set is a.s. finite).  A batch of R
    replicas is the first R rows of a larger batch from the same stream.
    """
    return _batch(rng, _karlin_clocks(beta, _family(family)), replicas)


def mstar_batch(rng: np.random.Generator, beta: float, family, replicas: int) -> np.ndarray:
    """Levels of the first-occurrence variant M*; unit carrier only."""
    return _batch(rng, _mstar_clocks(beta, _family(family)), replicas)


def coupled_batch(rng: np.random.Generator, beta: float, family, replicas: int):
    """(M, M*) from one Poisson realization; pathwise M >= M*."""
    values = _batch(rng, _coupled_clocks(beta, _family(family)), replicas)
    d = values.shape[1] // 2
    return values[:, :d], values[:, d:]


def top_m_batch(rng: np.random.Generator, beta: float, m: int, family, replicas: int):
    """Levels and per-set hits of the first m limit atoms.

    Returns levels of shape (replicas, m) and hits of shape (replicas, m,
    len(family)).  Each atom is the winner of a race of the pattern clocks,
    so the level increments are Exp(total rate) and the patterns i.i.d.
    with probabilities proportional to p_S, independently of the levels.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    family = _family(family)
    rates = _karlin_rates(beta, family)  # pattern 0 races too: the atoms that hit no set
    clocks = _clocks(rates, np.arange(rates.size), len(family))
    rates, hits = clocks.rates, clocks.misses == 0
    values, winners = [], []
    for size in _chunks(replicas, m * rates.size):
        g = rng.standard_exponential((size, m, rates.size)) / rates
        values.append(1.0 / np.cumsum(g.min(axis=2), axis=1))
        winners.append(g.argmin(axis=2))
    return np.concatenate(values), hits[np.concatenate(winners)]


def sample_karlin(rng: np.random.Generator, beta: float, family) -> LimitSample:
    """Exact joint sample of the limit sup-measure over a family on any finite carrier."""
    return LimitSample(*_sample(rng, _karlin_clocks(beta, _family(family))))


def sample_mstar(rng: np.random.Generator, beta: float, family) -> LimitSample:
    """Variant sup-measure whose hitting set is its leftmost point only.

    An interval [a, b) is hit at rate b**beta - a**beta; unit carrier only.
    """
    return LimitSample(*_sample(rng, _mstar_clocks(beta, _family(family))))
