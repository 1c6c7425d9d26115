"""Pullback construction of the conjugacy near infinity.

For the translation family F_kappa(z) = F_0(z + kappa) the map Theta is
the limit of the tower

    Theta_0 = id,   Theta_{n+1}(z) = (F_0)_T^{-1}(Theta_n(F_0(z))) - kappa,

which is Cauchy at the a priori rate 2|kappa| / 2^n once Q > 2|kappa| + 1.
Depth is always selected from that explicit rate, never adaptively.  A
general two-map pullback is provided alongside: it follows a tract
correspondence given as a mapping of branch indices, the form a JSON
descriptor can carry.  The displacement, inverse, uniqueness, holomorphy
and dilatation-ceiling checks the construction admits complete the module.

Each tower certifies the forward orbit of z once, in ``_certified_orbit``,
which returns the orbit and the tract address of every point the tower
pulls back through.  A supplied orbit is checked in one array pass over
all its steps; when that pass rejects a step, the scalar checks re-run
from that step, so the error names the step and the reason.  The
pullback levels then use those addresses and prove no membership again.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorrespondenceGap,
    DepthExceeded,
    DomainError,
    OrbitLeftJQ,
    PreconditionError,
    RangeError,
)
from .hypmetric import dist_half_plane
from .models import LogLiftModel, _eval_F_array, eval_dF, eval_F, require_finite
from .orbits import EscapeFlag, ExternalAddress, iterate, periodic_orbit
from .tracts import TractAddress, _address, _addresses, inverse_branch, tract_of

# theta_limit refuses a tolerance that needs a deeper tower
DEFAULT_MAX_DEPTH = 400
# the common tower depth of the four kappa-stencil towers
KAPPA_STENCIL_DEPTH = 40

# branch index of an F-tract -> branch index of its G-tract; None is the
# identity
Correspondence = Mapping[int, int] | None


@dataclass
class ConjugacySample:
    z: complex
    theta: complex
    depth: int
    tail_bound: float
    residual: float
    address_prefix: ExternalAddress

    def displacement(self) -> float:
        return abs(self.theta - self.z)

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "theta": [self.theta.real, self.theta.imag],
            "depth": self.depth,
            "tail_bound": self.tail_bound,
            "residual": self.residual,
            "displacement": self.displacement(),
            "address_prefix": [t.branch_index for t in self.address_prefix.entries],
        }


def _require_kappa_admissible(kappa: complex, Q: float) -> complex:
    kappa = require_finite(kappa, "kappa")
    if not Q > 2.0 * abs(kappa) + 1.0:
        raise PreconditionError(
            f"Q = {Q:g} must exceed 2|kappa|+1 = {2.0 * abs(kappa) + 1.0:g}"
        )
    return kappa


def _certified_orbit(
    base: LogLiftModel,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | None = None,
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
    needs no second membership check.
    """
    if orbit is not None:
        return _validate_orbit(base, z, n, Q, orbit)
    if n == 0:
        return [require_finite(z)], []
    rec = iterate(base, z, n, Q)
    if rec.escape_flag is not EscapeFlag.STAYED_IN_JQ:
        raise OrbitLeftJQ(
            f"orbit of {z!r} fails the J_Q certificate at step {rec.exit_step}"
        )
    if rec.min_Re_after_first <= Q:
        # boundary contact: the tower is only defined on strict membership
        raise OrbitLeftJQ(f"orbit of {z!r} touches the half-plane boundary")
    addresses = [_address(base, p + base.kappa) for p in rec.points[:-1]]
    return rec.points, addresses


def _validate_orbit(
    base: LogLiftModel, z: complex, n: int, Q: float, orbit: list[complex]
) -> tuple[list[complex], list[TractAddress]]:
    # One array pass checks every step; the scalar checks below re-run
    # from the first step it rejects, so a failure raises exactly what
    # the step-by-step scalar validation raises.
    if len(orbit) < n + 1:
        raise RangeError(f"supplied orbit covers {len(orbit) - 1} < {n} steps")
    arr = _orbit_array(orbit[: n + 1])
    pts = arr.tolist()
    if abs(pts[0] - z) > 1e-9 * (1.0 + abs(z)):
        raise OrbitLeftJQ(f"supplied orbit does not start at {z!r}")
    w, ok = _eval_F_array(base, arr[:n])
    ok &= np.abs(w - arr[1:]) <= 1e-6 * (1.0 + np.abs(w))
    ok[1:] &= arr[1:n].real > Q
    for i in range(n if ok.all() else int(np.argmin(ok)), n):
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
    return pts, _addresses(base, arr[:n])


def _orbit_array(points: list[complex]) -> np.ndarray:
    # numbers only: numpy would also parse text and bytes
    try:
        arr = np.array(points)
        numeric = arr.ndim == 1 and arr.dtype.kind in "biufc"
    except ValueError:  # ragged nesting
        numeric = False
    if numeric:
        arr = arr.astype(np.complex128, copy=False)
        if np.isfinite(arr).all():
            return arr
    # require_finite raises at the first point that is not a finite number
    return np.array([require_finite(p, "orbit point") for p in points])


def _pullback_tower(
    base: LogLiftModel,
    kappa: complex,
    orbit: list[complex],
    tracts: list[TractAddress],
    n: int,
) -> tuple[complex, float]:
    """Downward pass of the tower; returns (theta, truncation_error_bound).

    When the orbit list stops short of depth n the top levels are taken
    as the identity; the induced error starts at 2|kappa| and shrinks by
    the inverse-branch derivative 1/|F'| at every pullback level.
    """
    m = len(orbit) - 1
    theta = orbit[m]
    err = 0.0 if m >= n else 2.0 * abs(kappa)
    for j in range(m - 1, -1, -1):
        pre = inverse_branch(base, tracts[j], theta, seed=orbit[j])
        if err > 0.0:
            err /= max(abs(eval_dF(base, pre)), 1.0)
        theta = pre - kappa
    return theta, err


def theta_n(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | None = None,
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
    theta, _ = _pullback_tower(base, kappa, pts, tracts, n)
    return theta


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
    """Converged conjugacy value with the a priori tail bound <= tol.

    Raises DepthExceeded when tol needs more than DEFAULT_MAX_DEPTH levels.
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    depth = depth_for_tolerance(kappa, tol)
    if depth > DEFAULT_MAX_DEPTH:
        raise DepthExceeded(
            f"required depth {depth} exceeds the maximum {DEFAULT_MAX_DEPTH}"
        )
    pts, tracts = _certified_orbit(base, z, depth, Q, orbit)
    theta, trunc_err = _pullback_tower(base, kappa, pts, tracts, depth)
    tail = 2.0 * abs(kappa) * 2.0 ** (1 - depth) + trunc_err
    prefix = ExternalAddress(tuple(tracts) or (tract_of(base, z),))
    residual = _matched_residual(base, kappa, z, depth, Q, orbit)
    return ConjugacySample(z, theta, depth, tail, residual, prefix)


def _matched_residual(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | None = None,
) -> float:
    try:
        return conjugacy_residual(base, kappa, z, n, Q, orbit)
    except (OverflowError, OrbitLeftJQ, RangeError):
        # F(z) or its one-deeper certificate is out of reach; the value
        # itself is fine but the residual cannot be formed at this z
        return math.nan


def conjugacy_residual(
    base: LogLiftModel,
    kappa: complex,
    z: complex,
    n: int,
    Q: float,
    orbit: list[complex] | None = None,
) -> float:
    """|Theta_n(F_0(z)) - F_kappa(Theta_{n+1}(z))| at matched depths.

    Zero in exact arithmetic by the recursion's definition; the returned
    value measures accumulated floating-point noise.  A supplied orbit
    must cover n+1 steps; its tail serves as the orbit of F_0(z).
    """
    kappa = _require_kappa_admissible(kappa, Q)
    z = require_finite(z)
    if kappa == 0:
        return 0.0
    fz = eval_F(base, z)
    lhs = theta_n(base, kappa, fz, n, Q, None if orbit is None else orbit[1:])
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


def _resolve(correspondence: Correspondence, tract: TractAddress) -> TractAddress:
    if correspondence is None:
        return tract
    try:
        return TractAddress(correspondence[tract.branch_index], tract.inner_branch)
    except KeyError as exc:
        raise CorrespondenceGap(f"no image for tract {tract}") from exc


def general_pullback(
    F: LogLiftModel,
    G: LogLiftModel,
    correspondence: Correspondence,
    z: complex,
    n: int,
    Q: float,
    increments: list[tuple[float, float]] | None = None,
    orbit: list[complex] | None = None,
) -> complex:
    """Depth-n tower Theta_{j+1}(z) = G_corr(T)^{-1}(Theta_j(F(z))).

    ``correspondence`` maps the branch index of each F-tract to that of
    its G-tract (None: the same index).  When ``increments`` is given it
    receives, per level j >= 1, the pair
    (dist_half_plane(Theta_{j+1}(z), Theta_j(z)),
     dist_half_plane(Theta_j(F(z)), Theta_{j-1}(F(z)))) so the measured
    contraction constant of the pullback step can be extracted.
    """
    z = require_finite(z)
    if n < 0:
        raise RangeError("depth must be nonnegative")
    orbit, tracts = _certified_orbit(F, z, n, Q, orbit)
    m = len(orbit) - 1

    def pull(v: complex, top: int, bottom: int = 0) -> complex:
        # pull v, a value at orbit position top, down to position bottom
        for j in range(top - 1, bottom - 1, -1):
            tract = _resolve(correspondence, tracts[j])
            v = inverse_branch(G, tract, v, seed=orbit[j])
        return v

    if increments is None:
        return pull(orbit[m], m)
    # Theta_j(F(z)) is the tower over orbit[j + 1] stopped one level above
    # z, and one more level gives Theta_{j+1}(z)
    upstairs = [pull(orbit[j + 1], j + 1, 1) for j in range(m)]
    values = [orbit[0]] + [pull(u, 1) for u in upstairs]
    for j in range(1, m):
        d_new = dist_half_plane(Q, values[j + 1], values[j])
        d_arg = dist_half_plane(Q, upstairs[j], upstairs[j - 1])
        increments.append((d_new, d_arg))
    return values[m]


def uniqueness_crosscheck(
    base: LogLiftModel,
    kappa: complex,
    samples: list[complex],
    tol: float,
    Q: float,
    orbits_by_sample: list[list[complex]] | None = None,
) -> float:
    """Max discrepancy between the translation-family tower and the
    general two-map pullback with the branch-preserving correspondence.
    """
    kappa = _require_kappa_admissible(kappa, Q)
    member = base.translated(kappa)
    depth = depth_for_tolerance(kappa, tol)
    worst = 0.0
    for i, z in enumerate(samples):
        orb = None if orbits_by_sample is None else orbits_by_sample[i]
        a = theta_limit(base, kappa, z, tol, Q, orbit=orb).theta
        b = general_pullback(base, member, None, z, depth, Q, orbit=orb)
        worst = max(worst, abs(a - b))
    return worst


def _kappa_stencil(
    base: LogLiftModel,
    z: complex,
    kappa0: complex,
    h: float,
    Q: float,
    orbit: list[complex] | None,
) -> tuple[complex, complex, complex, complex]:
    """Towers of depth KAPPA_STENCIL_DEPTH at kappa0 + h, - h, + ih and - ih;
    every kappa is checked first."""
    if not h > 0:
        raise RangeError("h must be positive")
    kappa0 = require_finite(kappa0, "kappa0")
    kappas = (kappa0 + h, kappa0 - h, kappa0 + 1j * h, kappa0 - 1j * h)
    for k in kappas:
        _require_kappa_admissible(k, Q)
    return tuple(theta_n(base, k, z, KAPPA_STENCIL_DEPTH, Q, orbit) for k in kappas)


def holomorphy_in_kappa(
    base: LogLiftModel,
    z: complex,
    kappa0: complex,
    h: float,
    Q: float,
    orbit: list[complex] | None = None,
) -> float:
    """Central-difference Wirtinger quotient |dTheta/d(conj kappa)|.

    Four towers at kappa0 +/- h and kappa0 +/- ih at the common fixed
    depth KAPPA_STENCIL_DEPTH; the tower orbit is always the base-map
    orbit of z, so one orbit serves all four.  For a kappa-holomorphic
    tower the quotient is O(h^2).
    """
    tp, tm, tip, tim = _kappa_stencil(base, z, kappa0, h, Q, orbit)
    return abs((tp - tm) + 1j * (tip - tim)) / (4.0 * h)


def kappa_derivative(
    base: LogLiftModel,
    z: complex,
    kappa0: complex,
    h: float,
    Q: float,
    orbit: list[complex] | None = None,
) -> complex:
    """Central-difference holomorphic derivative dTheta/dkappa, from towers
    of depth KAPPA_STENCIL_DEPTH."""
    tp, tm, tip, tim = _kappa_stencil(base, z, kappa0, h, Q, orbit)
    return ((tp - tm) - 1j * (tip - tim)) / (4.0 * h)


def motion_dilatation_ceiling(kappa: complex, Q_prime: float) -> float:
    """Reported dilatation ceiling 2|kappa|/(Q' - 1) for the holomorphic
    motion induced by the family; no coefficient is measured.
    """
    if not Q_prime > 1.0:
        raise RangeError(f"Q' = {Q_prime:g} must exceed 1")
    return 2.0 * abs(require_finite(kappa, "kappa")) / (Q_prime - 1.0)


# -- report emission ---------------------------------------------------

def write_sample_report(path, samples: list[ConjugacySample], summary: dict) -> None:
    payload = {"summary": summary, "samples": [s.to_json() for s in samples]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_sample_csv(path, samples: list[ConjugacySample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["z_re", "z_im", "theta_re", "theta_im", "depth", "tail_bound",
             "residual", "displacement"]
        )
        for s in samples:
            writer.writerow(
                [s.z.real, s.z.imag, s.theta.real, s.theta.imag, s.depth,
                 s.tail_bound, s.residual, s.displacement()]
            )
