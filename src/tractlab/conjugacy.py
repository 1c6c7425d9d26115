"""Pullback construction of the conjugacy near infinity.

For the translation family F_kappa(z) = F_0(z + kappa) the map Theta is
the limit of the tower

    Theta_0 = id,   Theta_{n+1}(z) = (F_0)_T^{-1}(Theta_n(F_0(z))) - kappa,

which is Cauchy at the a priori rate 2|kappa| / 2^n once Q > 2|kappa| + 1,
provided |F_0'| >= 2 wherever the tower pulls back.  No code checks that
for a lifted model, so there the rate is an estimate, not a proof;
``displacement_bound`` proves it for shifted_exp and reports nothing
otherwise.  Depth is always selected from that explicit rate, never
adaptively.  Every tower runs one loop, ``_pullback_tower``; the
residual and the inverse round-trip check complete the module.

Each tower proves the forward orbit of z once, in ``_certified_orbit``,
which returns the orbit and the tract address of every point the tower
pulls back through.  ``theta_limit`` proves it one step past its depth,
in one ``iterate`` call or one validation, and its residual reads the
orbit of F(z) as the tail of that proof; a failure of the extra step
only leaves the residual unformed.  Where that proof stops short of
depth + 1 steps, as a saturated orbit does, the residual's towers
Theta_n(F z) and Theta_{n+1}(z) are levels of theta's own chain, so
``theta_limit`` runs one chain per sample and reads both from it.

An ``iterate`` record carries those addresses.  A supplied orbit is
checked in one array pass over all its steps, and ``tracts._address``
is read at each point that pass proves; both are remembered for each
distinct content (``ORBIT_MEMO_SIZE`` of them), so towers of every
depth on one orbit share them.  Past the first step that pass rejects,
the scalar checks name the step and the reason.  The memo key is the
model's repr, computed once per model, and the orbit's complex128 bytes
(``np.fromiter`` for Python complex or float points, ``require_finite``
for others, such as text).

The pullback levels then use those addresses and prove no membership
again.  Each level calls the ``inverse_kernel`` of the model's row of
``models.MODEL_KINDS`` (the closed form for shifted_exp, the seeded
Newton solve for a lifted map), looked up once per tower, after the
checks ``inverse_branch`` makes on its argument, with the same errors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DepthExceeded,
    DomainError,
    OrbitLeftJQ,
    PreconditionError,
    RangeError,
    TractlabError,
)
from .models import (
    LogLiftModel,
    _eval_F_array,
    eval_dF,
    eval_F,
    require_finite,
    write_json,
)
from .orbits import ExternalAddress, OrbitRecord, iterate, periodic_orbit
from .tracts import TractAddress, _address, _require_target, tract_of

# theta_limit refuses a tolerance that needs a deeper tower
DEFAULT_MAX_DEPTH = 400
# distinct supplied orbits whose proof is remembered; a sweep over the
# depths of one orbit with theta_limit needs one
ORBIT_MEMO_SIZE = 16
# the point types np.fromiter converts as complex() does; it would also
# parse text, bytes and None, and fail on an int past double range
_NUMBERS = frozenset({complex, float})


@dataclass
class ConjugacySample:
    z: complex
    theta: complex
    depth: int
    tail_bound: float
    residual: float
    address_prefix: ExternalAddress
    # steps of the orbit the tower pulled back through; below depth
    # exactly where that orbit saturated
    proved_steps: int

    def displacement(self) -> float:
        return abs(self.theta - self.z)

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "status": "ok",
            "theta": [self.theta.real, self.theta.imag],
            "depth": self.depth,
            "proved_steps": self.proved_steps,
            "tail_bound": self.tail_bound,
            # null where the residual could not be formed
            "residual": None if math.isnan(self.residual) else self.residual,
            "displacement": self.displacement(),
            "address_prefix": [t.branch_index for t in self.address_prefix.entries],
        }


@dataclass
class RefusedSample:
    """A sample whose value was refused; the report keeps the error."""

    z: complex
    error: Exception

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "status": type(self.error).__name__,
            "error": str(self.error),
        }


def _require_kappa_admissible(kappa: complex, Q: float) -> complex:
    kappa = require_finite(kappa, "kappa")
    if not Q > 2.0 * abs(kappa) + 1.0:
        raise PreconditionError(
            f"Q = {Q:g} must exceed 2|kappa|+1 = {2.0 * abs(kappa) + 1.0:g}"
        )
    return kappa


class _ProvedOrbit(NamedTuple):
    """An orbit proved to ``depth`` steps, as ``_certified_orbit`` returns
    it; a deeper tower raises ``refusal``, the failure of the next step."""

    points: list[complex]
    addresses: list[TractAddress]
    depth: int
    refusal: Exception | None


def _certified_orbit(
    base: LogLiftModel,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | OrbitRecord | _ProvedOrbit | None = None,
) -> tuple[list[complex], list[TractAddress]]:
    """Forward orbit of z to depth n with Re > Q after the first point,
    and the tract address of every point but the last.

    The list may be shorter than n+1 when the orbit escapes past the
    overflow guard while certifiably staying in the domain; deeper tower
    levels then act as the identity, with the truncation error tracked
    by the caller through the pullback contraction factors.

    A caller-supplied ``orbit`` (e.g. the exact cycle of a periodic
    point, where plain forward iteration would drift off the repelling
    cycle) is validated for consistency and membership instead.  Either
    way every point but the last is proved in the domain, so its address
    needs no second membership check.  ``orbit`` may also be an
    ``iterate`` record of horizon >= n, or a ``_ProvedOrbit``.
    """
    if isinstance(orbit, _ProvedOrbit):
        if n > orbit.depth:
            raise orbit.refusal or RangeError(f"proved to {orbit.depth} < {n} steps")
        if abs(orbit.points[0] - z) > 1e-9 * (1.0 + abs(z)):
            raise OrbitLeftJQ(f"supplied orbit does not start at {z!r}")
        return orbit.points[: n + 1], orbit.addresses[:n]
    if orbit is None:
        if n == 0:
            return [require_finite(z)], []
        orbit = iterate(base, z, n, Q)
    if not isinstance(orbit, OrbitRecord):
        return _validate_orbit(base, z, n, Q, orbit)
    if not orbit.certified and orbit.exit_step < n:
        raise OrbitLeftJQ(
            f"orbit of {z!r} fails the J_Q certificate at step {orbit.exit_step}"
        )
    pts = orbit.points[: n + 1]
    return pts, orbit.addresses[: len(pts) - 1]


def _proved_one_deeper(
    base: LogLiftModel, z: complex, n: int, Q: float, orbit: list[complex] | None
) -> _ProvedOrbit:
    """The orbit of z proved to depth n + 1, by one ``iterate`` call or one
    validation, for a depth-n tower and its residual; where only step
    n + 1 fails, to depth n with that failure as its refusal."""
    source = iterate(base, z, n + 1, Q) if orbit is None else orbit
    if orbit is None and not source.certified:
        # the record fails by step n + 1: check depth n first, so that a
        # sample refused within it raises once
        _certified_orbit(base, z, n, Q, source)
    try:
        return _ProvedOrbit(*_certified_orbit(base, z, n + 1, Q, source), n + 1, None)
    # what converting or checking a point raises
    except (TractlabError, TypeError, ValueError, OverflowError) as exc:
        refusal = exc
    return _ProvedOrbit(*_certified_orbit(base, z, n, Q, source), n, refusal)


def _validate_orbit(
    base: LogLiftModel, z: complex, n: int, Q: float, orbit: list[complex]
) -> tuple[list[complex], list[TractAddress]]:
    # Every supplied orbit is proved by _orbit_proof, once per content, and
    # a depth its proof covers is answered from it.  Otherwise the scalar
    # checks run from the first step the proof rejects, so a failure
    # raises exactly what the step-by-step scalar validation raises.
    if len(orbit) < n + 1:
        raise RangeError(f"supplied orbit covers {len(orbit) - 1} < {n} steps")
    if _NUMBERS.issuperset(map(type, orbit)):
        arr = np.fromiter(orbit, np.complex128, len(orbit))
    else:
        # other input, such as text: convert the points the depth needs
        arr = np.array([require_finite(p, "orbit point") for p in orbit[: n + 1]])
    pts, proved, addresses = _orbit_proof(base, base._memo_repr, Q, arr.tobytes())
    if (
        proved >= n
        and abs(pts[0] - z) <= 1e-9 * (1.0 + abs(z))
        and (n == 0 or pts[n].real > Q)
    ):
        return pts[: n + 1], addresses[:n]
    pts = pts[: n + 1]
    for p in pts:  # raises at the first point that is not finite
        require_finite(p, "orbit point")
    if abs(pts[0] - z) > 1e-9 * (1.0 + abs(z)):
        raise OrbitLeftJQ(f"supplied orbit does not start at {z!r}")
    for i in range(min(proved, n), n):
        if i >= 1 and pts[i].real <= Q:
            raise OrbitLeftJQ(f"supplied orbit leaves {{Re > {Q:g}}} at step {i}")
        try:
            nxt = eval_F(base, pts[i])
        except (DomainError, OverflowError) as exc:
            raise OrbitLeftJQ(f"supplied orbit invalid at step {i}: {exc}") from exc
        if abs(nxt - pts[i + 1]) > 1e-6 * (1.0 + abs(nxt)):
            raise OrbitLeftJQ(f"supplied orbit inconsistent at step {i}")
    if n >= 1 and pts[n].real <= Q:
        raise OrbitLeftJQ(f"supplied orbit leaves {{Re > {Q:g}}} at step {n}")
    # a proof that covers the depth returned above, so proved < n here
    return pts, addresses + [_address(base, p + base.kappa) for p in pts[proved:n]]


@lru_cache(maxsize=ORBIT_MEMO_SIZE)
def _orbit_proof(
    base: LogLiftModel, base_repr: str, Q: float, data: bytes
) -> tuple[list[complex], int, list[TractAddress]]:
    """The array pass over a whole supplied orbit, given as the bytes of
    its complex128 array: its points, the first step the pass rejects
    (the number of steps if none) and the addresses of the points before
    that step.  A point that is not finite fails the step that reaches
    it, so no proof covers it."""
    arr = np.frombuffer(data, dtype=np.complex128)
    proved = _first_rejected(base, Q, arr)
    pts = arr.tolist()
    return pts, proved, [_address(base, p + base.kappa) for p in pts[:proved]]


def _first_rejected(base: LogLiftModel, Q: float, arr: np.ndarray) -> int:
    # step i is F(arr[i]) ~ arr[i + 1], with Re arr[i] > Q for i >= 1
    n = len(arr) - 1
    w, ok = _eval_F_array(base, arr[:n])
    with np.errstate(invalid="ignore"):  # inf - inf fails the step as nan
        ok &= np.abs(w - arr[1:]) <= 1e-6 * (1.0 + np.abs(w))
    ok[1:] &= arr[1:n].real > Q
    return n if ok.all() else int(np.argmin(ok))


def _pullback_tower(
    model: LogLiftModel,
    kappa: complex,
    orbit: list[complex],
    tracts: list[TractAddress],
    n: int,
) -> tuple[complex, float, complex]:
    """Downward pass of the tower; returns (theta, truncation_error_bound,
    above), where ``above`` is the chain's value before level 0 (theta
    itself on a one-point list).

    Level j inverts ``model`` on tract j from the Newton seed
    ``orbit[j]``, then subtracts kappa.  When the orbit list stops short
    of depth n the top levels are taken as the identity; the induced
    error starts at 2|kappa| and shrinks by the inverse-branch
    derivative 1/|F'| at every pullback level.
    """
    m = len(orbit) - 1
    theta = above = orbit[m]
    err = 0.0 if m >= n else 2.0 * abs(kappa)
    solve, Q = model.kind.inverse_kernel(model), model.half_plane_Q
    for j in range(m - 1, -1, -1):
        if not (theta.real > Q and cmath.isfinite(theta)):
            _require_target(model, theta)  # raises what inverse_branch raises
        above = theta
        pre = solve(tracts[j], theta, orbit[j])
        if err > 0.0:
            err /= max(abs(eval_dF(model, pre)), 1.0)
        theta = pre - kappa
    return theta, err, above


def theta_n(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | _ProvedOrbit | None = None,
) -> complex:
    """Depth-n pullback approximation of the conjugacy at z.

    Requires Q > 2|kappa| + 1 and a finite-horizon certificate that the
    orbit of z stays in {Re > Q} to depth n.  ``orbit`` may supply the
    exact forward orbit (see _certified_orbit).
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    if n < 0:
        raise RangeError("depth must be nonnegative")
    if n == 0 or kappa == 0:
        if n > 0:
            _certified_orbit(base, z, n, Q, orbit)
        return z
    pts, tracts = _certified_orbit(base, z, n, Q, orbit)
    return _pullback_tower(base, kappa, pts, tracts, n)[0]


def displacement_bound(base: LogLiftModel, kappa: complex, Q: float) -> float | None:
    """2|kappa| where |Theta_n(z) - z| <= 2|kappa| is proved, else None.

    The induction needs |F_0'| >= 2 on the segment from F_0(z) to
    Theta_n(F_0(z)), where Re w > Q - 2|kappa|: the model kind's
    ``dF_floor`` there, Re w + R for shifted_exp (|F_0'| = |w + R|) and
    0 for a lifted model, which has no such proof.
    """
    scale = 2.0 * abs(kappa)
    if base.kind.dF_floor(base, Q - scale) >= 2.0:
        return scale
    return None


def depth_for_tolerance(kappa: complex, tol: float) -> int:
    """Smallest n with 2|kappa| * 2^(1-n) <= tol.

    With 2|kappa| = ms 2^es and tol = mt 2^et, mantissas in [1/2, 1), the
    product is exact and the condition reads ms 2^(es+1-n-et) <= mt, which
    holds exactly when es+1-n-et < 0, or = 0 with ms <= mt.
    """
    if not tol > 0:
        raise RangeError("tol must be positive")
    scale = 2.0 * abs(kappa)
    if scale == 0.0 or tol == math.inf:
        return 0
    ms, es = math.frexp(scale)
    mt, et = math.frexp(tol)
    return max(0, es - et + 1 + (ms > mt))


def theta_limit(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    tol: float,
    Q: float,
    orbit: list[complex] | None = None,
) -> ConjugacySample:
    """Conjugacy value at the depth whose a priori rate meets tol.

    The sample's ``tail_bound`` adds the truncation error of a saturated
    orbit to that rate, so it is reported, not guaranteed: it can exceed
    tol without an error being raised (``bound_held`` in a report counts
    the samples where it holds).  Raises DepthExceeded when tol needs
    more than DEFAULT_MAX_DEPTH levels.

    Where the proved orbit has at most depth + 1 points, as where it
    saturates, the top levels of both of the residual's towers are the
    identity: Theta_{n+1}(z) runs theta's own chain, and Theta_n(F z) is
    that chain's value one level above theta, so the residual needs no
    further tower.  A one-point orbit has no level above; there, as
    where the orbit is longer, ``conjugacy_residual`` forms it.
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    depth = depth_for_tolerance(kappa, tol)
    if depth > DEFAULT_MAX_DEPTH:
        raise DepthExceeded(
            f"required depth {depth} exceeds the maximum {DEFAULT_MAX_DEPTH}"
        )
    proof = _proved_one_deeper(base, z, depth, Q, orbit)
    pts, tracts = proof.points[: depth + 1], proof.addresses[:depth]
    theta, trunc_err, above = _pullback_tower(base, kappa, pts, tracts, depth)
    tail = 2.0 * abs(kappa) * 2.0 ** (1 - depth) + trunc_err
    prefix = ExternalAddress(tuple(tracts) or (tract_of(base, z),))
    try:
        if 1 < len(proof.points) <= depth + 1:
            # conjugacy_residual's checks on its tail proof, in its order;
            # two points need depth >= 1, so kappa != 0
            fz = eval_F(base, z)
            if proof.refusal is not None:  # proved to depth, not depth + 1
                raise proof.refusal
            if abs(proof.points[1] - fz) > 1e-9 * (1.0 + abs(fz)):
                raise OrbitLeftJQ(f"supplied orbit does not start at {fz!r}")
            residual = abs(above - eval_F(base.translated(kappa), theta))
        else:
            residual = conjugacy_residual(base, kappa, z, depth, Q, proof)
    except (OverflowError, OrbitLeftJQ, RangeError):
        # F(z) or its one-deeper certificate is out of reach; the value
        # itself is fine but the residual cannot be formed at this z
        residual = math.nan
    return ConjugacySample(z, theta, depth, tail, residual, prefix, len(pts) - 1)


def conjugacy_residual(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | _ProvedOrbit | None = None,
) -> float:
    """|Theta_n(F_0(z)) - F_kappa(Theta_{n+1}(z))| at matched depths.

    Zero in exact arithmetic by the recursion's definition.  Both towers
    run the same pullback chain down to Theta_n(F_0(z)), so in floats the
    value is the rounding of the last level's round trip,
    |w - F_kappa(G^{-1}(w) - kappa)| with w = Theta_n(F_0(z)) and G^{-1}
    the inverse branch on the tract of z: it does not measure the noise
    accumulated down the tower.  A supplied orbit must cover n+1 steps;
    its tail serves as the orbit of F_0(z).
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    if kappa == 0:
        return 0.0
    fz = eval_F(base, z)
    if isinstance(orbit, _ProvedOrbit):
        pts, addresses, depth, refusal = orbit
        tail = _ProvedOrbit(pts[1:], addresses[1:], depth - 1, refusal)
    else:
        tail = None if orbit is None else orbit[1:]
    lhs = theta_n(base, kappa, fz, n, Q, tail)
    member = base.translated(kappa)
    rhs = eval_F(member, theta_n(base, kappa, z, n + 1, Q, orbit))
    return abs(lhs - rhs)


def inverse_theta_check(
    base: LogLiftModel,
    kappa: complex,
    w: complex,
    tol: float,
    Q: float,
    address: ExternalAddress,
) -> float:
    """|Theta(Theta'(w)) - w| where Theta' is built over base F_kappa
    with translation parameter -kappa (so that (F_kappa)_{-kappa} = F_0).

    w is the periodic point of F_kappa with the periodic ``address``, and
    exact cycle orbits are used for both towers: Theta' transports w to
    the F_0-periodic point with the same address, so the forward orbit of
    Theta'(w) is that cycle up to the tower tolerance.
    """
    member = base.translated(kappa)
    depth = depth_for_tolerance(kappa, tol)
    w_orbit = periodic_orbit(member, address, Q, depth + 2)
    inner = theta_limit(member, -kappa, w, tol, Q, orbit=w_orbit)
    z_cycle = periodic_orbit(base, address, Q, depth + 2)
    pseudo = [inner.theta] + z_cycle[1:]
    outer = theta_limit(base, kappa, inner.theta, tol, Q, orbit=pseudo)
    return abs(outer.theta - require_finite(w, "w"))


# -- report emission ---------------------------------------------------

def write_sample_report(
    path, samples: list[ConjugacySample | RefusedSample], summary: dict
) -> None:
    write_json(path, {"summary": summary, "samples": [s.to_json() for s in samples]})
