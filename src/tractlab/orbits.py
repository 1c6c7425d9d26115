"""Forward iteration, finite-horizon membership certificates, external
addresses, the doubling expansion check, and backward-orbit construction
of points with prescribed itineraries.

Membership in J_Q is only ever certified up to a finite horizon.  An
``iterate`` record carries the address of every point it proved in V,
so no caller reads an address with a second membership test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AddressMismatch,
    AddressUndefined,
    DomainError,
    PullbackLeftDomain,
    RangeError,
)
from .models import LogLiftModel, _member_past_overflow, require_finite
from .tracts import TractAddress, inverse_branch


@dataclass
class OrbitRecord:
    """An orbit as ``iterate`` proves it: its points, the tract address of
    every point proved in V, the step that ended it (None at the
    horizon), and whether it ended past double range while certifiably
    escaping."""

    points: list[complex]
    addresses: list[TractAddress]
    exit_step: int | None = None
    saturated: bool = False

    @property
    def certified(self) -> bool:
        return self.exit_step is None or self.saturated


def iterate(model: LogLiftModel, z: complex, horizon: int, Q: float) -> OrbitRecord:
    """Iterate up to the horizon, a domain exit, or the overflow guard.

    An image is kept only with Re > Q, strictly, as J_Q requires; any
    other ends the orbit at that step.  An orbit point whose image
    overflows while a proved bound shows Re F > Q counts as certified
    (the orbit is escaping faster than doubles can represent); the
    record is marked saturated.  Every point but the last is proved in
    V, the last too if saturated, and each of those has its address.

    Each step calls the model's value kernel once and compares the image
    with max(Q, the model's Q), so a domain exit raises nothing; only an
    image past an exp guard, or where F has no value, raises inside it.
    The model's address kernel gives the addresses.
    """
    if horizon < 1:
        raise RangeError("horizon must be at least 1")
    z = require_finite(z)
    value, address, kappa = model._F_value, model._address, model.kappa
    # an image is kept past both this Q and the model's
    bar = max(Q, model.half_plane_Q)
    points, addresses = [z], []
    exit_step, saturated = None, False
    for step in range(horizon):
        zk = points[-1] + kappa
        try:
            w = value(zk)
        except OverflowError:
            saturated = _member_past_overflow(model, zk, bar)
            if saturated:
                addresses.append(address(zk))
        except DomainError:
            pass
        else:
            if w.real > bar:
                addresses.append(address(zk))
                points.append(w)
                continue
        exit_step = step
        break
    return OrbitRecord(points, addresses, exit_step, saturated)


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
    if len(record.addresses) < n:
        raise AddressUndefined(
            f"orbit leaves the domain at step {record.exit_step} < {n}"
        )
    return ExternalAddress(tuple(record.addresses[:n]))


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
        if oz.addresses[k] != ow.addresses[k]:
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
    p = _period(address)
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
    if model.kind.principal_log and abs(z.imag) > math.pi:
        # eval_F takes the principal log, so no image leaves |Im| <= pi
        raise RangeError(
            f"{model.plane_map.family}: no eval_F cycle realizes the address "
            f"{[t.branch_index for t in address.entries]}; its point {z!r} "
            f"has |Im z| > pi"
        )
    return z


def _period(address: ExternalAddress) -> int:
    p = len(address)
    if p < 1:
        raise RangeError("address must have period at least 1")
    return p


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
    p = _period(address)
    entries = list(address.entries)
    cycle = []
    for i in range(p):
        rotated = ExternalAddress(tuple(entries[i:] + entries[:i]))
        cycle.append(point_with_address(model, rotated, Q))
    return [cycle[i % p] for i in range(length)]

