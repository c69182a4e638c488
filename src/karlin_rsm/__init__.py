"""Karlin random sup-measures: simulation, exact limit sampling, closed-form
laws, and statistical verification of the limit theorems at desk scale.

Only the numpy-free closed forms load with the package; ``simulate`` and the
other submodules load on first use (PEP 562), so ``import karlin_rsm`` and
the oracle need no numpy."""

import importlib

from .choquet_oracle import ChoquetQuery
from .interval_sets import normalize

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

_SUBMODULES = ("distributions", "karlin_sim", "limit_sim", "verify")


def __getattr__(name):
    if name == "simulate":  # not cached, so it follows karlin_sim.simulate when a tracer replaces that
        return importlib.import_module(".karlin_sim", __name__).simulate
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
