"""Logarithmic-coordinate dynamics of exponential-type entire maps.

Library layout:

- models: the model-kind and plane-map tables, log lifts, JSON descriptors
- tracts: tract addresses and inverse branches
- orbits: iteration, membership certificates, external addresses,
  backward-orbit point construction
- conjugacy: the pullback conjugacy near infinity, its residual and
  the inverse round-trip check
- semiconj: the hyperbolic-map semiconjugacy, one certified
  closed-form preimage per level and g-orbit position
- gridkernel: escape-time grid classification (one NumPy kernel over
  the models family table) and image output
- cli: the `tractlab` command-line entry point
"""

from .errors import TractlabError
from .models import (
    EntireMapSpec,
    LogLiftModel,
    domain_contains,
    eval_dF,
    eval_F,
    model_from_json,
    model_to_json,
)
from .orbits import ExternalAddress, OrbitRecord, iterate, point_with_address
from .tracts import TractAddress, inverse_branch, tract_of

__version__ = "0.1.0"

# the only grid kernel; perfbench/worker.py records this name
GRID_BACKEND = "numpy"

__all__ = [
    "TractlabError",
    "GRID_BACKEND",
    "EntireMapSpec",
    "LogLiftModel",
    "domain_contains",
    "eval_dF",
    "eval_F",
    "model_from_json",
    "model_to_json",
    "ExternalAddress",
    "OrbitRecord",
    "iterate",
    "point_with_address",
    "TractAddress",
    "inverse_branch",
    "tract_of",
    "__version__",
]
