"""Tract identification, inverse branches, and continuous path lifting.

Branch indices are carried explicitly with every inverse evaluation;
they are never inferred from the principal argument after the fact.
"""

from __future__ import annotations

import cmath
import csv
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContinuationError, DomainError, NewtonDiverged, RangeError
from .models import (
    TWO_PI,
    LogLiftModel,
    _contains,
    eval_F,
    require_finite,
)

__all__ = [
    "TractAddress",
    "LiftedPath",
    "tract_of",
    "inverse_branch",
    "continuous_lift",
    "lift_path",
]

# a lift step larger than this forces bisection of the source step, so a
# branch integer can never silently slip by a full period
MAX_LIFT_STEP = math.pi / 2
MAX_BISECTION_DEPTH = 48


@dataclass(frozen=True)
class TractAddress:
    branch_index: int
    inner_branch: int = 0


@dataclass
class LiftedPath:
    samples: list[complex]
    source_samples: list[complex]
    branch_log: list[int]

    def write_csv(self, path) -> None:
        n = len(self.samples)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t", "source_re", "source_im", "lift_re", "lift_im", "branch"]
            )
            for i, (src, lift, b) in enumerate(
                zip(self.source_samples, self.samples, self.branch_log)
            ):
                t = i / (n - 1) if n > 1 else 0.0
                writer.writerow([t, src.real, src.imag, lift.real, lift.imag, b])


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
    w = require_finite(w, "w")
    if w.real <= model.half_plane_Q:
        raise RangeError(
            f"Re w = {w.real:g} is not inside the half-plane "
            f"{{Re > {model.half_plane_Q:g}}}"
        )
    if model.family == "shifted_exp":
        base = cmath.log(w + model.R + model.offset)
        return base + TWO_PI * 1j * tract.branch_index - model.offset - model.kappa
    # Newton runs in the coordinates of the untranslated map
    seed_k = None if seed is None else seed + model.kappa
    if seed_k is not None:
        shift = tract.branch_index - round(seed_k.imag / TWO_PI)
        if shift:
            seed_k += TWO_PI * 1j * shift
    zk = _newton_inverse(model, tract, w, seed_k)
    if _address(model, zk) != tract:
        raise NewtonDiverged(
            f"Newton inverse of w = {w!r} left tract {tract} for {zk - model.kappa!r}"
        )
    return zk - model.kappa


def _asymptotic_seed(model: LogLiftModel, tract: TractAddress, w: complex) -> complex:
    """Approximate inverse from the exponential-dominated asymptotics."""
    pm = model.plane_map
    u = pm.row.newton_seed(pm.params, w + model.offset, tract.inner_branch)
    if u == 0:
        u = 1.0
    zs = cmath.log(u) + TWO_PI * 1j * tract.branch_index
    return zs - model.offset


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
    ws = w + model.offset
    if ws.real > 690.0:
        raise OverflowError("exp(w) overflows; cannot form the Newton target")
    target = cmath.exp(ws)
    z = seed if seed is not None else _asymptotic_seed(model, tract, w)
    pm = model.plane_map
    tol = NEWTON_TOL * (1.0 + abs(target))
    for _ in range(NEWTON_MAX_ITER):
        zeta = cmath.exp(z + model.offset)
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


def _lift_step(
    model: LogLiftModel, z_cur: complex, w: complex
) -> tuple[complex, int]:
    """Lift of w chosen continuously from the current lift value z_cur."""
    zk_cur = z_cur + model.kappa
    if model.family == "shifted_exp":
        base = cmath.log(w + model.R + model.offset)
        k = round((zk_cur.imag - base.imag) / TWO_PI)
        return base + TWO_PI * 1j * k - model.offset - model.kappa, k
    tract = TractAddress(round(zk_cur.imag / TWO_PI))
    zk = _newton_inverse(model, tract, w, seed=zk_cur)
    return zk - model.kappa, round(zk.imag / TWO_PI)


def continuous_lift(
    step: Callable[[complex, complex], tuple[complex, int]],
    z0: complex,
    path: list[complex],
    branch0: int = 0,
) -> LiftedPath:
    """Lift of a polyline from the known lift z0 of path[0].

    ``step(z_cur, w)`` returns the lift of w chosen continuously from
    z_cur, with its branch integer.  A step whose lift would move by more
    than MAX_LIFT_STEP, or whose Newton solve diverges, is bisected in the
    source plane, at most MAX_BISECTION_DEPTH times; past that it raises
    ContinuationError.
    """
    samples = [z0]
    sources = [complex(path[0])]
    branches = [branch0]

    def advance(z_cur: complex, w_from: complex, w_to: complex, depth: int):
        diverged = None
        try:
            z_next, b = step(z_cur, w_to)
        except NewtonDiverged as exc:
            diverged = exc
        else:
            if abs(z_next - z_cur) <= MAX_LIFT_STEP:
                samples.append(z_next)
                sources.append(w_to)
                branches.append(b)
                return z_next
        if depth >= MAX_BISECTION_DEPTH:
            raise ContinuationError(
                f"cannot keep the branch continuous near w = {w_to!r}"
            ) from diverged
        mid = 0.5 * (w_from + w_to)
        z_mid = advance(z_cur, w_from, mid, depth + 1)
        return advance(z_mid, mid, w_to, depth + 1)

    z_cur = z0
    for w_prev, w_next in zip(path, path[1:]):
        z_cur = advance(z_cur, complex(w_prev), complex(w_next), 0)
    return LiftedPath(samples, sources, branches)


def lift_path(
    model: LogLiftModel,
    tract_at_start: TractAddress,
    path: list[complex],
) -> LiftedPath:
    """Continuous lift of a half-plane curve under the inverse of F.

    Steps whose lift would jump by more than pi/2, or whose Newton solve
    diverges, are bisected in the source plane; refinement failure raises
    ContinuationError.
    """
    if not path:
        raise RangeError("path must contain at least one sample")
    Q = model.half_plane_Q
    for w in path:
        w = require_finite(w, "path sample")
        if w.real <= Q:
            raise RangeError(f"path sample {w!r} lies outside the half-plane")
    z0 = inverse_branch(model, tract_at_start, path[0])
    return continuous_lift(
        lambda z_cur, w: _lift_step(model, z_cur, w),
        z0,
        path,
        tract_at_start.branch_index,
    )
