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

Every tower pulls back through one proof of the forward orbit of z,
``_prove``: the points, the tract address of each point proved in V,
the depth proved and the failure of the step past it.  ``upto(n)``
slices what a depth-n tower needs or raises that failure, and
``tail()`` is the proof of the orbit of F(z).  ``theta_limit`` proves
one step past its depth and hands the proof to its residual, so a
failure of the extra step only leaves the residual unformed.  Where
that proof stops short of depth + 1 steps, as a saturated orbit does,
the residual's towers Theta_n(F z) and Theta_{n+1}(z) are levels of
theta's own chain, so ``theta_limit`` runs one chain per sample and
reads both from it.

Without a supplied orbit one ``iterate`` call makes the proof.  A
supplied list gets one verdict per distinct content, remembered for
``ORBIT_MEMO_SIZE`` of them: an array pass over all its steps, then the
scalar checks from the first step that pass rejects, which name the
step and the reason.  A list with several faults is refused at the
first, at every depth past it.  The memo key is the model's repr,
computed once per model, and the bytes of the list as ``np.fromiter``
converts it, once per call: a point that does not convert refuses the
call, and None becomes nan, which fails the step that reaches it.  An
``iterate`` record is not an orbit argument; it is refused at once.

The pullback levels then use those addresses and prove no membership
again.  Each level calls the ``inverse_kernel`` of the model's row of
``models.MODEL_KINDS`` (the closed form for shifted_exp, the seeded
Newton solve for a lifted map), which the model builds once, after the
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
    _F_kernel,
    eval_F,
    require_finite,
    write_json,
)
from .orbits import ExternalAddress, OrbitRecord, iterate, periodic_orbit
from .tracts import TractAddress, _require_target, tract_of

# theta_limit refuses a tolerance that needs a deeper tower
DEFAULT_MAX_DEPTH = 400
# distinct supplied orbits whose proof is remembered; a sweep over the
# depths of one orbit with theta_limit needs one
ORBIT_MEMO_SIZE = 16


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
    """The orbit of z as ``_prove`` proves it: its points, the tract
    address of every point proved in V, the depth a tower may pull back
    through, and the failure of the step past that depth (None where the
    depth is all that was asked or all the list holds)."""

    points: list[complex]
    addresses: list[TractAddress]
    depth: int
    refusal: Exception | None

    def upto(self, n: int) -> tuple[list[complex], list[TractAddress]]:
        """The points and addresses a depth-n tower pulls back through; on
        a saturated orbit the points stop short of depth n."""
        if n > self.depth:
            error = self.refusal or RangeError(
                f"supplied orbit covers {self.depth} < {n} steps"
            )
            # a remembered failure is raised on every query: drop the last
            # raise's traceback, which would otherwise grow with each one
            raise error.with_traceback(None)
        return self.points[: n + 1], self.addresses[:n]

    def tail(self) -> _ProvedOrbit:
        """The proof of the orbit of F(z)."""
        pts, addresses, depth, refusal = self
        return _ProvedOrbit(pts[1:], addresses[1:], depth - 1, refusal)


def _prove(
    base: LogLiftModel,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | _ProvedOrbit | None = None,
) -> _ProvedOrbit:
    """The proof of the orbit of z that every tower pulls back through.

    Without ``orbit``, one ``iterate`` call to horizon n proves it; a
    saturated orbit covers every depth up to n with fewer points.  A
    proof is used as it is.  A supplied list or array (e.g. the exact
    cycle of a periodic point, where plain forward iteration would drift
    off the repelling cycle) is converted once by ``np.fromiter`` and gets the
    verdict ``_orbit_proof`` remembers for its content; a point that does
    not convert refuses the whole call.  Anything else, such as an
    ``iterate`` record, is refused with a TypeError.  A list or proof must
    start at z, unless not even its first point is proved.
    """
    if orbit is None:
        record = iterate(base, z, n, Q) if n else OrbitRecord([z], [])
        if record.certified:
            return _ProvedOrbit(record.points, record.addresses, n, None)
        step = record.exit_step
        refusal = OrbitLeftJQ(f"orbit of {z!r} fails the J_Q certificate at step {step}")
        return _ProvedOrbit(record.points, record.addresses, step, refusal)
    if not isinstance(orbit, _ProvedOrbit):
        if len(orbit) == 0:
            raise RangeError("supplied orbit is empty")
        arr = np.fromiter(orbit, np.complex128, len(orbit))
        orbit = _orbit_proof(base, base._memo_repr, Q, arr.tobytes())
    if orbit.depth >= 0 and abs(orbit.points[0] - z) > 1e-9 * (1.0 + abs(z)):
        raise OrbitLeftJQ(f"supplied orbit does not start at {z!r}")
    return orbit


@lru_cache(maxsize=ORBIT_MEMO_SIZE)
def _orbit_proof(
    base: LogLiftModel, base_repr: str, Q: float, data: bytes
) -> _ProvedOrbit:
    """The verdict on a whole supplied orbit, given as the bytes of its
    complex128 array: the array pass over every step, then the scalar
    checks from the first step it rejects, which name the step and the
    reason.  Its depth ends before the first fault."""
    arr = np.frombuffer(data, dtype=np.complex128)
    pts = arr.tolist()
    depth, refusal = _scalar_checks(base, Q, pts, _first_rejected(base, Q, arr))
    address, kappa = base._address, base.kappa
    addresses = [address(p + kappa) for p in pts[:depth]]
    return _ProvedOrbit(pts, addresses, depth, refusal)


def _scalar_checks(
    base: LogLiftModel, Q: float, pts: list[complex], first: int
) -> tuple[int, Exception | None]:
    # the depth proved by the steps from ``first`` on, and the fault that
    # ends it; step i is F(pts[i]) ~ pts[i + 1], with Re pts[i] > Q for
    # i >= 1, and a point that is not finite fails the step that reaches it
    depth = first - 1
    try:
        if first == 0:
            require_finite(pts[0], "orbit point")
        for i in range(first, len(pts)):
            if i >= 1 and pts[i].real <= Q:
                raise OrbitLeftJQ(f"supplied orbit leaves {{Re > {Q:g}}} at step {i}")
            depth = i
            if i + 1 == len(pts):
                break
            try:
                nxt = eval_F(base, pts[i])
            except (DomainError, OverflowError) as exc:
                raise OrbitLeftJQ(f"supplied orbit invalid at step {i}: {exc}") from exc
            require_finite(pts[i + 1], "orbit point")
            if abs(nxt - pts[i + 1]) > 1e-6 * (1.0 + abs(nxt)):
                raise OrbitLeftJQ(f"supplied orbit inconsistent at step {i}")
    except TractlabError as exc:
        return depth, exc
    return depth, None


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
    solve, dF, Q = model._inverse, model._dF, model.half_plane_Q
    for j in range(m - 1, -1, -1):
        if not (theta.real > Q and cmath.isfinite(theta)):
            _require_target(model, theta)  # raises what inverse_branch raises
        above = theta
        pre = solve(tracts[j], theta, orbit[j])
        if err > 0.0:
            err /= max(abs(dF(pre)), 1.0)
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
    exact forward orbit (see ``_prove``): a list gets one remembered
    verdict on all its steps, which every depth reads.
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    if n < 0:
        raise RangeError("depth must be nonnegative")
    pts, tracts = _prove(base, z, n, Q, orbit).upto(n)
    if n == 0 or kappa == 0:
        return z
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


@lru_cache(maxsize=64)
def depth_for_tolerance(kappa: complex, tol: float) -> int:
    """Smallest n with 2|kappa| * 2^(1-n) <= tol, remembered per (kappa,
    tol): it depends on |kappa| alone, so kappas that compare equal share
    it, signed zeros included.

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
    further tower, and F_kappa is the kernel the base caches per kappa.
    A one-point orbit ``iterate`` proved here saturated at z, so F(z)
    overflows and the residual is NaN; any other one-point orbit, like a
    longer one, takes ``conjugacy_residual``.
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    depth = depth_for_tolerance(kappa, tol)
    if depth > DEFAULT_MAX_DEPTH:
        raise DepthExceeded(
            f"required depth {depth} exceeds the maximum {DEFAULT_MAX_DEPTH}"
        )
    proof = _prove(base, z, depth + 1, Q, orbit)
    pts, tracts = proof.upto(depth)
    theta, trunc_err, above = _pullback_tower(base, kappa, pts, tracts, depth)
    tail = 2.0 * abs(kappa) * 2.0 ** (1 - depth) + trunc_err
    # an address for every proved point; the proof holds none at depth 0
    prefix = ExternalAddress(tuple(tracts) or (tract_of(base, z),))
    # a one-point proof that iterate made here: F(z) overflowed, so the
    # residual cannot be formed (at kappa = 0 it is 0 without F)
    overflowed = orbit is None and len(proof.points) == 1 and proof.refusal is None
    try:
        if overflowed and kappa:
            residual = math.nan
        elif 1 < len(proof.points) <= depth + 1:
            # the checks of the residual's tower Theta_n(F z), whose value
            # is ``above``; two points need depth >= 1, so kappa != 0
            # F(z) as iterate proved it, or as a supplied list's tail must
            # start at it
            fz = proof.points[1] if orbit is None else base._F(z)
            _prove(base, fz, depth, Q, proof.tail()).upto(depth)
            residual = abs(above - _F_kernel(base, base.kappa + kappa)(theta))
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
    accumulated down the tower.  The orbit of z is proved once, to n+1
    steps; its tail serves as the orbit of F_0(z).
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    if kappa == 0:
        return 0.0
    fz = eval_F(base, z)
    proof = _prove(base, z, n + 1, Q, orbit)
    lhs = theta_n(base, kappa, fz, n, Q, proof.tail())
    rhs = _F_kernel(base, base.kappa + kappa)(theta_n(base, kappa, z, n + 1, Q, proof))
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
