"""Tract identification and inverse branches.

Branch indices are carried explicitly with every inverse evaluation;
they are never inferred from the principal argument after the fact.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NewtonDiverged, RangeError
from .models import TWO_PI, LogLiftModel, _contains, require_finite

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


# The address of a domain point zk = z + kappa is (k, inner) with
# k = round(Im zk / 2 pi).  A two-sided row has two tracts per period
# strip, toward Re exp(z) = +/-inf; sign(Re exp(z)) = sign(cos Im z)
# picks the one containing zk, inner = 1 where cos(Im zk) < 0.
# ``_address`` is the scalar form and ``_addresses`` the array form.

def _two_sided(model: LogLiftModel) -> bool:
    return model.family != "shifted_exp" and model.plane_map.row.two_sided


@lru_cache(maxsize=1024)
def _interned(k: float, inner: bool) -> TractAddress:
    # one shared instance per address; k may be an integral float
    return TractAddress(int(k), int(inner))


def _address(model: LogLiftModel, zk: complex) -> TractAddress:
    inner = _two_sided(model) and math.cos(zk.imag) < 0.0
    return _interned(round(zk.imag / TWO_PI), inner)


def _addresses(model: LogLiftModel, z: np.ndarray) -> list[TractAddress]:
    """Addresses of an array of points z already proved in the domain."""
    im = (z + model.kappa).imag
    ks = np.rint(im / TWO_PI).tolist()
    if not _two_sided(model):
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
    """The inverse-branch solve of the model's family, as
    ``solve(tract, w, seed)``, without ``_require_target``'s checks on w.

    For shifted_exp it is the closed form log(w + R) + 2 pi i k - kappa,
    which needs no seed; for a lifted model the seeded Newton solve of
    ``inverse_branch``.  A caller that solves many levels on one model
    looks the kernel up once.
    """
    kappa = model.kappa
    if model.family == "shifted_exp":
        log, R, period = cmath.log, model.R, TWO_PI * 1j

        def solve(tract, w, seed=None):
            return log(w + R) + period * tract.branch_index - kappa

        return solve

    def solve(tract, w, seed=None):
        # Newton runs in the coordinates of the untranslated map
        seed_k = None if seed is None else seed + kappa
        if seed_k is not None:
            shift = tract.branch_index - round(seed_k.imag / TWO_PI)
            if shift:
                seed_k += TWO_PI * 1j * shift
        zk = _newton_inverse(model, tract, w, seed_k)
        if _address(model, zk) != tract:
            raise NewtonDiverged(
                f"Newton inverse of w = {w!r} left tract {tract} for {zk - kappa!r}"
            )
        return zk - kappa

    return solve


def _asymptotic_seed(model: LogLiftModel, tract: TractAddress, w: complex) -> complex:
    """Approximate inverse from the exponential-dominated asymptotics."""
    pm = model.plane_map
    u = pm.row.newton_seed(pm.params, w, tract.inner_branch)
    if u == 0:
        u = 1.0
    return cmath.log(u) + TWO_PI * 1j * tract.branch_index


# Newton stops once |f(exp z) - exp(w)| <= NEWTON_TOL (1 + |exp(w)|), and
# raises NewtonDiverged after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _newton_inverse(
    model: LogLiftModel,
    tract: TractAddress,
    w: complex,
    seed: complex | None,
) -> complex:
    # + 0j turns a -0.0 imaginary part of w into +0.0: w and w - 0j are
    # equal, and a real w must get one seed, not one per side of the cut
    # of the principal log in _asymptotic_seed
    ws = w + 0j
    if ws.real > 690.0:
        raise OverflowError("exp(w) overflows; cannot form the Newton target")
    target = cmath.exp(ws)
    z = seed if seed is not None else _asymptotic_seed(model, tract, ws)
    pm = model.plane_map
    tol = NEWTON_TOL * (1.0 + abs(target))
    for _ in range(NEWTON_MAX_ITER):
        zeta = cmath.exp(z)
        g = pm.eval(zeta) - target
        if abs(g) <= tol:
            return z
        dg = pm.deriv(zeta) * zeta
        if dg == 0:
            break
        step = g / dg
        # damp wild steps; the seed is close, so this rarely triggers
        if abs(step) > 1.0:
            step /= abs(step)
        z -= step
    raise NewtonDiverged(
        f"Newton failed to invert w = {w!r} in tract {tract} from seed {seed!r}"
    )
