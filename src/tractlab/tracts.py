"""Tract identification and inverse branches.

Branch indices are carried explicitly with every inverse evaluation;
they are never inferred from the principal argument after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, RangeError
from .models import LogLiftModel, domain_contains, require_finite

__all__ = [
    "TractAddress",
    "tract_of",
    "inverse_branch",
]


@dataclass(frozen=True)
class TractAddress:
    branch_index: int
    inner_branch: int = 0


def tract_of(model: LogLiftModel, z: complex) -> TractAddress:
    """Address of the unique tract containing z."""
    z = require_finite(z)
    if not domain_contains(model, z):
        raise DomainError(f"z = {z!r} is not in the domain")
    return model._address(z + model.kappa)


@lru_cache(maxsize=1024)
def _interned(k: int, inner: bool) -> TractAddress:
    # one shared instance per address, for the models' address kernels
    return TractAddress(k, int(inner))


def inverse_branch(
    model: LogLiftModel,
    tract: TractAddress,
    w: complex,
    seed: complex | None = None,
) -> complex:
    """The preimage of w in the given tract.

    Closed form for shifted_exp; Newton continuation for lifted entire
    maps, seeded from ``seed`` when given and from the tract's asymptotic
    base point otherwise.  F is 2 pi i periodic, so a seed in another
    period strip is first moved into the tract's strip by whole periods;
    a Newton solution outside the tract raises NewtonDiverged.
    """
    return model._inverse(tract, _require_target(model, w), seed)


def _require_target(model: LogLiftModel, w: complex) -> complex:
    """w as ``inverse_branch`` accepts it: finite, with Re w > Q."""
    w = require_finite(w, "w")
    if w.real <= model.half_plane_Q:
        raise RangeError(
            f"Re w = {w.real:g} is not inside the half-plane "
            f"{{Re > {model.half_plane_Q:g}}}"
        )
    return w

