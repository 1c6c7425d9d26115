"""Half-plane hyperbolic geometry and certified one-sided density bounds.

The half-plane values are exact (curvature -1 normalization, density
1/(Re z - Q)).  For general plane domains only one-sided bounds are
produced; each bound records the estimate it came from.  The constant K
in the two-puncture estimate is a configuration parameter (default 1);
results involving it are only meaningful up to that constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, RangeError
from .models import LogLiftModel, eval_dF, eval_F, require_finite


class BoundMethod(Enum):
    HALF_PLANE_EXACT = "half_plane_exact"
    STANDARD_ESTIMATE = "standard_estimate"
    TWO_PUNCTURE = "two_puncture"
    INSCRIBED_DISK = "inscribed_disk"
    PUNCTURED_SEQUENCE = "punctured_sequence"


@dataclass(frozen=True)
class DensityBound:
    lower: float
    upper: float
    method: BoundMethod
    simply_connected_only: bool = False  # lower bound valid only then

    def __post_init__(self):
        if self.lower < 0 or self.lower > self.upper:
            raise RangeError(f"invalid density interval [{self.lower}, {self.upper}]")

    def contains(self, rho: float) -> bool:
        return self.lower <= rho <= self.upper


def rho_half_plane(Q: float, z: complex) -> float:
    """Exact hyperbolic density of {Re > Q} at z."""
    z = require_finite(z)
    if z.real <= Q:
        raise RangeError(f"Re z = {z.real:g} <= Q = {Q:g}")
    return 1.0 / (z.real - Q)


def dist_half_plane(Q: float, z: complex, w: complex) -> float:
    """Exact hyperbolic distance in {Re > Q}."""
    z, w = require_finite(z), require_finite(w, "w")
    x, y = z.real - Q, w.real - Q
    if x <= 0 or y <= 0:
        raise RangeError("both points must lie inside the half-plane")
    if z == w:
        return 0.0
    return math.acosh(1.0 + abs(z - w) ** 2 / (2.0 * x * y))


def standard_estimate_bound(dist_to_boundary: float) -> DensityBound:
    """Two-sided estimate [1/(2d), 2/d] from the boundary distance.

    The lower endpoint requires simple connectivity; the returned bound
    is tagged accordingly.
    """
    d = float(dist_to_boundary)
    if d <= 0:
        raise RangeError(f"dist_to_boundary must be positive, got {d:g}")
    return DensityBound(
        0.5 / d, 2.0 / d, BoundMethod.STANDARD_ESTIMATE, simply_connected_only=True
    )


def inscribed_disk_upper(dist_to_boundary: float) -> DensityBound:
    """Upper density bound 2/d, valid for any domain."""
    d = float(dist_to_boundary)
    if d <= 0:
        raise RangeError(f"dist_to_boundary must be positive, got {d:g}")
    return DensityBound(0.0, 2.0 / d, BoundMethod.INSCRIBED_DISK)


def two_puncture_upper(a: complex, b: complex, z: complex, K: float = 1.0) -> float:
    """Upper bound for 1/rho of the twice-punctured plane C minus {a, b}.

    By monotonicity the same value bounds 1/rho of every subdomain.
    Valid up to the configured constant K.
    """
    a, b, z = require_finite(a, "a"), require_finite(b, "b"), require_finite(z)
    if K <= 0:
        raise RangeError("K must be positive")
    if z == a or z == b or a == b:
        raise RangeError("z must be distinct from the two punctures")
    da, db = abs(z - a), abs(z - b)
    if da > db:
        a, b = b, a
        da, db = db, da
    return K * da * (1.0 + abs(math.log(abs(b - a) / da)))


def punctured_sequence_upper(
    punctures: list[complex],
    ratio: float,
    z: complex,
    K: float = 1.0,
) -> float:
    """Upper bound for 1/rho of the plane punctured at 0 and a geometric
    sequence, following the three-case nearest/companion puncture choice.

    ``punctures`` must contain 0 and the w_j in increasing modulus with
    |w_{j+1}| <= ratio * |w_j|.  The list must reach past max(|z|, 3|z-a|)
    for the required companion to exist.
    """
    z = require_finite(z)
    C = float(ratio)
    if C <= 1.0:
        raise RangeError("ratio must exceed 1")
    pts = [require_finite(p, "puncture") for p in punctures]
    if not any(p == 0 for p in pts):
        raise RangeError("puncture set must contain 0")
    ws = sorted((p for p in pts if p != 0), key=abs)
    if not ws:
        raise RangeError("at least one nonzero puncture is required")
    for wj, wj1 in zip(ws, ws[1:]):
        if abs(wj1) > C * abs(wj) * (1.0 + 1e-12):
            raise RangeError(
                f"ratio hypothesis fails: |{wj1!r}| > {C:g}*|{wj!r}|"
            )
    if abs(z) < abs(ws[0]):
        raise RangeError(f"|z| = {abs(z):g} is below the first puncture modulus")
    a = min(pts, key=lambda p: abs(z - p))
    if z == a:
        raise RangeError("z coincides with a puncture")
    da = abs(z - a)
    if a == 0:
        b = _first_with_modulus(ws, abs(z))
    elif da > abs(a) / 2.0:
        b = _first_with_modulus(ws, 3.0 * da)
    else:
        b = 0.0 + 0.0j
    return two_puncture_upper(a, b, z, K)


def _first_with_modulus(ws: list[complex], floor: float) -> complex:
    for w in ws:
        if abs(w) >= floor:
            return w
    raise RangeError(
        f"puncture list too short: no puncture with modulus >= {floor:g}"
    )


def hyperbolic_derivative(
    model: LogLiftModel, z: complex, Q: float | None = None
) -> float:
    """Hyperbolic derivative of F at z, half-plane metric on both sides."""
    z = require_finite(z)
    if Q is None:
        Q = model.half_plane_Q
    if z.real <= Q:
        raise RangeError(f"Re z = {z.real:g} <= Q = {Q:g}")
    w = eval_F(model, z)
    if w.real <= Q:
        raise DomainError(f"F(z) = {w!r} is not inside the half-plane")
    return abs(eval_dF(model, z)) * (z.real - Q) / (w.real - Q)
