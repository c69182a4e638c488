"""Karlin random sup-measures: simulation, exact limit sampling, closed-form
laws, and statistical verification of the limit theorems at desk scale."""

from . import choquet_oracle, distributions, interval_sets, karlin_sim, limit_sim, verify
from .choquet_oracle import ChoquetQuery
from .interval_sets import IntervalSet, normalize
from .karlin_sim import SimRun, UrnBatch, replica_rng, simulate, simulate_batch
from .limit_sim import LimitSample, sample_karlin, sample_mstar
from .verify import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ChoquetQuery",
    "IntervalSet",
    "normalize",
    "SimRun",
    "UrnBatch",
    "replica_rng",
    "simulate",
    "simulate_batch",
    "LimitSample",
    "sample_karlin",
    "sample_mstar",
    "SuiteConfig",
    "SuiteReport",
    "run_suite",
    "choquet_oracle",
    "distributions",
    "interval_sets",
    "karlin_sim",
    "limit_sim",
    "verify",
    "__version__",
]
