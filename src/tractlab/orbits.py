"""Forward iteration, finite-horizon membership certificates, external
addresses, the doubling expansion check, and backward-orbit construction
of points with prescribed itineraries.

Membership in J_Q is only ever certified up to a finite horizon; every
record carries the horizon it was checked at.  Addresses are read off
the points ``iterate`` proved in V, with no second membership test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AddressMismatch,
    AddressUndefined,
    DomainError,
    PullbackLeftDomain,
    RangeError,
)
from .models import LogLiftModel, _member_past_overflow, eval_F, require_finite
from .tracts import TractAddress, _address, inverse_branch


class EscapeFlag(Enum):
    STAYED_IN_JQ = "stayed_in_JQ"
    LEFT_DOMAIN = "left_domain"
    OVERFLOWED = "overflowed"


@dataclass
class OrbitRecord:
    points: list[complex]
    horizon: int
    Q: float
    escape_flag: EscapeFlag
    exit_step: int | None = None
    saturated: bool = False  # orbit left double range while certifiably escaping
    min_Re_after_first: float = field(default=math.inf)

    @property
    def certified(self) -> bool:
        return self.escape_flag is EscapeFlag.STAYED_IN_JQ


def iterate(model: LogLiftModel, z: complex, horizon: int, Q: float) -> OrbitRecord:
    """Iterate up to the horizon, a domain exit, or the overflow guard.

    An orbit point whose image overflows while the sign structure shows
    Re F is hugely positive counts as certified (the orbit is escaping
    faster than doubles can represent); the record is marked saturated.
    Every point but the last is proved in V, the last too if saturated.
    """
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    z = require_finite(z)
    points = [z]
    min_re = math.inf
    flag, exit_step, saturated = EscapeFlag.STAYED_IN_JQ, None, False
    for step in range(horizon):
        cur = points[-1]
        try:
            w = eval_F(model, cur)
        except OverflowError:
            saturated = _member_past_overflow(model, cur + model.kappa)
            flag = EscapeFlag.STAYED_IN_JQ if saturated else EscapeFlag.OVERFLOWED
        except DomainError:
            flag = EscapeFlag.LEFT_DOMAIN
        else:
            min_re = min(min_re, w.real)
            if not w.real < Q:
                points.append(w)
                continue
            flag = EscapeFlag.LEFT_DOMAIN
        exit_step = step
        break
    return OrbitRecord(
        points, horizon, Q, flag,
        exit_step=exit_step, saturated=saturated, min_Re_after_first=min_re,
    )


@dataclass(frozen=True)
class ExternalAddress:
    entries: tuple[TractAddress, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i) -> TractAddress:
        return self.entries[i]

    @staticmethod
    def periodic(branch_indices: list[int]) -> "ExternalAddress":
        return ExternalAddress(tuple(TractAddress(k) for k in branch_indices))


def external_address(model: LogLiftModel, z: complex, n: int) -> ExternalAddress:
    """Tract itinerary of the first n orbit points."""
    record = iterate(model, z, n, Q=model.half_plane_Q)
    if len(record.points) - 1 + record.saturated < n:  # points proved in V
        raise AddressUndefined(
            f"orbit leaves the domain at step {record.exit_step} < {n}"
        )
    return ExternalAddress(
        tuple(_address(model, p + model.kappa) for p in record.points[:n])
    )


def expansion_ratios(
    model: LogLiftModel, z: complex, w: complex, n: int
) -> list[float]:
    """Separation ratios |F^k(z) - F^k(w)| / (2^k |z - w|) for k = 0..n."""
    z, w = require_finite(z), require_finite(w, "w")
    if z == w:
        return [1.0] * (n + 1)
    oz = iterate(model, z, n, Q=model.half_plane_Q)
    ow = iterate(model, w, n, Q=model.half_plane_Q)
    depth = min(len(oz.points), len(ow.points))
    if depth < n + 1:
        raise AddressMismatch(
            f"orbits only representable to depth {depth - 1} < {n}"
        )
    for k in range(n):
        a = _address(model, oz.points[k] + model.kappa)
        if a != _address(model, ow.points[k] + model.kappa):
            raise AddressMismatch(f"itineraries diverge at step {k}")
    d0 = abs(z - w)
    return [
        abs(oz.points[k] - ow.points[k]) / (2.0**k * d0) for k in range(n + 1)
    ]


# backward iteration stops once one period moves the point by at most
# BACKWARD_TOL / 2, after at most BACKWARD_MAX_CYCLES periods; the point
# must then reproduce itself over one more period to within BACKWARD_TOL
BACKWARD_TOL = 1e-12
BACKWARD_MAX_CYCLES = 200


def point_with_address(
    model: LogLiftModel, address: ExternalAddress, Q: float
) -> complex:
    """Backward iteration along a periodic address.

    The composite of one period of inverse branches contracts by at least
    2^-period, so iterating it from the half-plane base point converges to
    the unique point realizing the address, to within BACKWARD_TOL.

    On a lifted model ``eval_F`` takes the principal log, so every image
    has |Im| <= pi; a converged point past that is on no ``eval_F`` cycle
    and raises RangeError.
    """
    p = len(address)
    if p < 1:
        raise RangeError("address must have period at least 1")
    z = complex(Q + 1.0, 0.0)
    prev_step = math.inf
    for _ in range(BACKWARD_MAX_CYCLES):
        z_next = z
        for tract in reversed(address.entries):
            z_next = inverse_branch(model, tract, z_next)
            if z_next.real <= model.half_plane_Q:
                raise PullbackLeftDomain(
                    f"pullback exited the half-plane at {z_next!r}"
                )
        step = abs(z_next - z)
        z = z_next
        if step <= BACKWARD_TOL * 0.5:
            break
        if not math.isinf(prev_step) and step > 0.5 * prev_step + 1e-12:
            # the 2^-p contraction failed; should not happen for p >= 1
            raise PullbackLeftDomain("backward iteration stopped contracting")
        prev_step = step
    residual = z
    for tract in reversed(address.entries):
        residual = inverse_branch(model, tract, residual)
    if abs(residual - z) > BACKWARD_TOL:
        raise PullbackLeftDomain(
            f"backward iteration residual {abs(residual - z):g} > {BACKWARD_TOL:g}"
        )
    if model.plane_map is not None and abs(z.imag) > math.pi:
        # eval_F takes the principal log, so no image leaves |Im| <= pi
        raise RangeError(
            f"{model.plane_map.family}: no eval_F cycle realizes the address "
            f"{[t.branch_index for t in address.entries]}; its point {z!r} "
            f"has |Im z| > pi"
        )
    return z


def periodic_orbit(
    model: LogLiftModel,
    address: ExternalAddress,
    Q: float,
    length: int,
) -> list[complex]:
    """Exact forward orbit of the point realizing a periodic address.

    Forward iteration from a repelling periodic point drifts away at the
    rate of |F'| per step, so deep certificates cannot be produced by
    plain iteration.  Each cycle point is solved independently from the
    rotated address (forward evals would amplify the backward-solve
    error by the derivative product around the cycle); the cycle values
    are then repeated to the requested length.  On a lifted model an
    address that no ``eval_F`` cycle realizes raises RangeError (see
    ``point_with_address``).
    """
    if length < 1:
        raise RangeError("orbit length must be at least 1")
    p = len(address)
    entries = list(address.entries)
    cycle = []
    for i in range(p):
        rotated = ExternalAddress(tuple(entries[i:] + entries[:i]))
        cycle.append(point_with_address(model, rotated, Q))
    return [cycle[i % p] for i in range(length)]

