"""The benchmark's workloads: the CLI calls each one makes, generated from a seed.

Every call is one ``karlin-rsm`` invocation.  The workload seed fixes the
CLI seeds and the positions of the query sets; the set widths, sizes and
replica counts are fixed, so two seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BETA = 0.5
ALPHA = 1.0

# Report rows of each suite at its default query family (see verify.py).
SUITE_ROWS = {
    "occupancy": 4,
    "patterns": 5,
    "marginal": 1,
    "locations": 5,
    "limit-vs-oracle": 18,
    "extremal-mstar": 13,
}

WHY = {
    "urn": "discrete urn at beta 0.5: label sampling, occupancy counting and set "
           "queries over n draws do almost all the work; limit samplers almost none",
    "limit": "exact limit samplers and the oracle do most of the work: verify via the "
             "serial replica stream, limit-sample via one generator per replica",
    "cli-short": "small calls of every subcommand: interpreter start and package import "
                 "dominate, so import and set-up costs show here and nowhere else",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its report must look like."""

    name: str
    kind: str  # "simulate", "limit-sample", "oracle" or "verify"
    argv: tuple
    out: str | None  # report path passed as --out; None: the report is stdout
    expect: dict = field(default_factory=dict)
    urn_draws: int = 0  # urn draws made: n times the urn runs
    limit_replicas: int = 0  # limit-sampler replicas drawn

    def variant(self, suffix: str, threads: int | None = None) -> "Call":
        """The same call writing its own report, optionally at another ``--threads``."""
        argv = list(self.argv)
        out = self.out
        if out is not None:
            stem, ext = out.rsplit(".", 1)
            out = f"{stem}-{suffix}.{ext}"
            argv[argv.index("--out") + 1] = out
        if threads is not None:
            argv[argv.index("--threads") + 1] = str(threads)
        return Call(f"{self.name}-{suffix}", self.kind, tuple(argv), out, self.expect,
                    self.urn_draws, self.limit_replicas)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    inputs: dict  # file path -> JSON text the calls read
    threads_check: bool  # compare a --threads 1 run of the first verify call


def _interval(lo: float, width: float) -> dict:
    return {"carrier": [0.0, 1.0], "intervals": [[lo, lo + width]]}


def _verify(work: Path, suite: str, n: int, replicas: int, seed: int, threads: int,
            urn_draws: int = 0, limit_replicas: int = 0) -> Call:
    out = str(work / f"verify-{suite}.csv")
    argv = ("verify", "--suite", suite, "--beta", repr(BETA), "--alpha", repr(ALPHA),
            "--n", str(n), "--replicas", str(replicas), "--seed", str(seed),
            "--threads", str(threads), "--out", out)
    expect = {"suite": suite, "rows": SUITE_ROWS[suite], "seed": seed}
    return Call(f"verify-{suite}", "verify", argv, out, expect, urn_draws, limit_replicas)


def _simulate(work: Path, name: str, beta: float, n: int, seed: int, fmt: str) -> Call:
    out = str(work / f"{name}.{fmt}")
    argv = ("simulate", "--beta", repr(beta), "--alpha", repr(ALPHA), "--n", str(n),
            "--seed", str(seed), "--format", fmt, "--out", out)
    return Call(name, "simulate", argv, out, {"format": fmt, "n": n, "seed": seed, "top_m": 5},
                urn_draws=n)


def _limit_sample(work: Path, name: str, query: Path, sets: int, replicas: int,
                  seed: int, variant: str) -> Call:
    out = str(work / f"{name}.csv")
    argv = ("limit-sample", "--beta", repr(BETA), "--alpha", repr(ALPHA),
            "--replicas", str(replicas), "--query", str(query), "--variant", variant,
            "--seed", str(seed), "--out", out)
    return Call(name, "limit-sample", argv, out, {"replicas": replicas, "sets": sets},
                limit_replicas=replicas)


def _three_sets(rng: random.Random) -> list:
    """Three overlapping sets; positions move with the seed, widths and overlaps stay."""
    shift = rng.uniform(0.0, 0.05)
    return [_interval(0.02 + shift, 0.25), _interval(0.3 + shift, 0.3),
            _interval(0.5 + shift, 0.4)]


def build(name: str, seed: int, work: Path, threads: int) -> Workload:
    """The calls of workload ``name`` for ``seed``; inputs and reports live in ``work``."""
    rng = random.Random(f"{name}:{seed}")

    def cli_seed() -> int:
        return rng.getrandbits(63)

    if name == "urn":
        calls = (
            _verify(work, "occupancy", 100_000, 100, cli_seed(), threads, urn_draws=100_000 * 100),
            _verify(work, "patterns", 100_000, 100, cli_seed(), threads, urn_draws=100_000 * 100),
            _verify(work, "marginal", 10_000, 500, cli_seed(), threads, urn_draws=10_000 * 500),
            _verify(work, "locations", 10_000, 500, cli_seed(), threads,
                    urn_draws=10_000 * 500, limit_replicas=500),
            _simulate(work, "simulate-beta0.5", 0.5, 1_000_000, cli_seed(), "csv"),
            # beta 0.9 draws labels beyond 2**62, which takes the object-dtype path
            _simulate(work, "simulate-beta0.9", 0.9, 200_000, cli_seed(), "json"),
        )
        return Workload(name, calls, {}, threads_check=False)

    if name == "limit":
        family = work / "family3.json"
        narrow = work / "narrow.json"
        lo = rng.uniform(0.2, 0.4)
        inputs = {
            family: json.dumps({"family": _three_sets(rng)}),
            # a set of measure 1e-4 needs many Poisson atoms before it is hit
            narrow: json.dumps({"family": [_interval(lo, 1e-4), _interval(0.5, 0.25)]}),
        }
        replicas = 2500
        calls = (
            _verify(work, "limit-vs-oracle", 1000, replicas, cli_seed(), threads,
                    limit_replicas=14 * replicas + 2),
            _verify(work, "extremal-mstar", 1000, replicas, cli_seed(), threads,
                    urn_draws=1000 * min(replicas, 2000), limit_replicas=8 * replicas),
            _limit_sample(work, "limit-sample-karlin", family, 3, 3000, cli_seed(), "karlin"),
            _limit_sample(work, "limit-sample-mstar", family, 3, 3000, cli_seed(), "mstar"),
            _limit_sample(work, "limit-sample-narrow", narrow, 2, 600, cli_seed(), "karlin"),
        )
        return Workload(name, calls, inputs, threads_check=False)

    if name == "cli-short":
        family = work / "family3.json"
        query = work / "query.json"
        lo = rng.uniform(0.0, 0.5)
        z = rng.uniform(0.8, 1.6)
        width = 0.3
        inputs = {
            family: json.dumps({"family": _three_sets(rng)}),
            query: json.dumps({"alpha": ALPHA, "beta": BETA,
                               "pairs": [{"set": _interval(lo, width), "z": z}]}),
        }
        leb = (lo + width) - lo  # the measure of the set as the CLI reads it
        expected = math.exp(-(leb ** BETA) * z ** -ALPHA)
        calls = (
            Call("oracle", "oracle", ("oracle", "--query", str(query)), None,
                 {"value": expected}),
            _simulate(work, "simulate", BETA, 10_000, cli_seed(), "csv"),
            _limit_sample(work, "limit-sample", family, 3, 100, cli_seed(), "karlin"),
            _verify(work, "occupancy", 10_000, 100, cli_seed(), threads, urn_draws=10_000 * 100),
        )
        return Workload(name, calls, inputs, threads_check=True)

    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
