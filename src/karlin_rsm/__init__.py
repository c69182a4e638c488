"""Karlin random sup-measures: simulation, exact limit sampling, closed-form
laws, and statistical verification of the limit theorems at desk scale."""

from . import choquet_oracle, distributions, interval_sets, karlin_sim, limit_sim, verify
from .choquet_oracle import ChoquetQuery
from .interval_sets import normalize
from .karlin_sim import simulate

__version__ = "0.1.0"

__all__ = [
    "ChoquetQuery",
    "normalize",
    "simulate",
    "choquet_oracle",
    "distributions",
    "interval_sets",
    "karlin_sim",
    "limit_sim",
    "verify",
    "__version__",
]
