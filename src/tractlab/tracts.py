"""Tract identification and inverse branches.

Branch indices are carried explicitly with every inverse evaluation;
they are never inferred from the principal argument after the fact.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError
from .models import TWO_PI, LogLiftModel, _address_key, _contains, require_finite

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
    zk = z + model.kappa
    if not _contains(model, zk):
        raise DomainError(f"z = {z!r} is not in the domain")
    return _address(model, zk)


@lru_cache(maxsize=1024)
def _interned(k: float, inner: bool) -> TractAddress:
    # one shared instance per address; k may be an integral float
    return TractAddress(int(k), int(inner))


def _address(model: LogLiftModel, zk: complex) -> TractAddress:
    return _interned(*_address_key(model, zk))


def _addresses(model: LogLiftModel, z: np.ndarray) -> list[TractAddress]:
    """Addresses of an array of points z already proved in the domain."""
    im = (z + model.kappa).imag
    ks = np.rint(im / TWO_PI).tolist()
    if not model.kind.two_sided(model):
        return [_interned(k, False) for k in ks]
    return [_interned(k, c < 0.0) for k, c in zip(ks, np.cos(im).tolist())]


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
    return _inverse_kernel(model)(tract, _require_target(model, w), seed)


def _require_target(model: LogLiftModel, w: complex) -> complex:
    """w as ``inverse_branch`` accepts it: finite, with Re w > Q."""
    w = require_finite(w, "w")
    if w.real <= model.half_plane_Q:
        raise RangeError(
            f"Re w = {w.real:g} is not inside the half-plane "
            f"{{Re > {model.half_plane_Q:g}}}"
        )
    return w


def _inverse_kernel(
    model: LogLiftModel,
) -> Callable[[TractAddress, complex, complex | None], complex]:
    """The inverse-branch solve of the model's kind, as
    ``solve(tract, w, seed)``, without ``_require_target``'s checks on w:
    the kind's ``inverse_kernel`` column of ``models.MODEL_KINDS``.  A
    caller that solves many levels on one model looks the kernel up once.
    """
    return model.kind.inverse_kernel(model)
