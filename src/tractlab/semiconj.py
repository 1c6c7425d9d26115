"""Semiconjugacy between a hyperbolic exponential-type map and its
rescaled outside-model, built by iterated curve lifting.

The default instance is f(z) = lambda (e^z - 1) with |lambda| < 1, an
attracting fixed point at 0 and the single asymptotic value -lambda.
With U a disk around the postsingular set, W its complement, R >= K and
M = R/K, the rescaled map g(z) = f(z/M) is of disjoint type on W and the
levels

    theta_0 = id,  theta_1(z) = z/M,
    theta_{j+1}(z) = endpoint of the f-lift of gamma_j(g(z))
                     starting at theta_j(z)

converge geometrically; the tower stops early where the g-orbit leaves
double range.  W is the complement of a closed disk, so its
hyperbolic density is known in closed form,

    rho_W(z) = 1 / (|z| log(|z| / r_U)),

via the conformal map z -> r_U/z onto the punctured unit disk; both the
expansion certificate and the curve-length reports use this exact
density rather than one-sided estimates.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateFailed,
    CertificateMissing,
    ContinuationError,
    HorizonError,
    RangeError,
    SetupInvalid,
)
from .models import (
    EXP_OVERFLOW_GUARD,
    TWO_PI,
    EntireMapSpec,
    require_finite,
    write_json,
)

# polyline resolution of the level-1 segment; lifts refine adaptively
SEGMENT_SAMPLES = 17
_SEGMENT_FRACTIONS = tuple(t / (SEGMENT_SAMPLES - 1) for t in range(SEGMENT_SAMPLES))
# a lift step larger than this forces bisection of the source step, so a
# branch integer can never silently slip by a full period; a step still
# too long after MAX_BISECTION_DEPTH halvings raises ContinuationError
MAX_LIFT_STEP = math.pi / 2
MAX_BISECTION_DEPTH = 48
POSTSINGULAR_ITERATES = 100
# points of the circle |z| = r_U on which f(cl U) inside U is checked
BOUNDARY_SAMPLES = 256
# the expansion certificate minimizes over CERTIFICATE_SAMPLES points of V
# in r_U < |z| <= CERTIFICATE_RADIUS, drawn with seed 0 in blocks of
# CERTIFICATE_BLOCK attempts, CERTIFICATE_MAX_ATTEMPTS at most
CERTIFICATE_SAMPLES = 400
CERTIFICATE_RADIUS = 1e3
CERTIFICATE_BLOCK = 4 * CERTIFICATE_SAMPLES
CERTIFICATE_MAX_ATTEMPTS = 200 * CERTIFICATE_SAMPLES
# an array value this close (relative) to a threshold or to the minimum
# is recomputed in scalar arithmetic, whose result is the one reported;
# array and scalar |f| differ by up to ~1e-13 at |z| ~ CERTIFICATE_RADIUS
CONFIRM_MARGIN = 1e-9


@dataclass(frozen=True)
class HyperbolicSetup:
    lam: complex
    r_U: float
    K: float
    R: float
    # f = lambda (e^z - 1), built and validated once per setup
    map_spec: EntireMapSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "map_spec", EntireMapSpec.lambda_expm1(self.lam))

    @property
    def M(self) -> float:
        return self.R / self.K

    def f(self, z: complex) -> complex:
        return self.map_spec.eval(z)

    def df(self, z: complex) -> complex:
        return self.map_spec.deriv(z)

    def g(self, z: complex) -> complex:
        return self.f(complex(z) / self.M)

    def inverse_branch_f(self, w: complex, branch: int) -> complex:
        """Solve f(z) = w: z = Log(w/lam + 1) + 2 pi i b, explicit."""
        u = complex(w) / self.lam + 1.0
        if u == 0:
            raise RangeError("w is the asymptotic value; no preimage")
        return cmath.log(u) + TWO_PI * 1j * branch


def rho_W(setup: HyperbolicSetup, z: complex) -> float:
    """Exact hyperbolic density of W = {|z| > r_U} (curvature -1)."""
    z = require_finite(z)
    r = abs(z)
    if r <= setup.r_U:
        raise RangeError(f"|z| = {r:g} <= r_U = {setup.r_U:g}")
    return 1.0 / (r * math.log(r / setup.r_U))


def hyperbolic_derivative_W(setup: HyperbolicSetup, z: complex) -> float:
    """||Df(z)||_W = |f'(z)| rho_W(f(z)) / rho_W(z); exact density."""
    w = setup.f(z)
    return abs(setup.df(z)) * rho_W(setup, w) / rho_W(setup, z)


def _rho_W_array(setup: HyperbolicSetup, z: np.ndarray) -> np.ndarray:
    # rho_W over an array, in the scalar formula's order; no range check
    r = np.abs(z)
    return 1.0 / (r * np.log(r / setup.r_U))


def _above(
    approx: np.ndarray, threshold: float, exact: Callable[[int], bool]
) -> np.ndarray:
    """approx > threshold, for array values that may differ from their
    scalar computation in the last bits: where approx is within
    CONFIRM_MARGIN of the positive threshold, or nan, the scalar test
    ``exact(i)`` decides."""
    above = approx > threshold * (1.0 + CONFIRM_MARGIN)
    undecided = ~above & ~(approx <= threshold * (1.0 - CONFIRM_MARGIN))
    for i in np.flatnonzero(undecided):
        above[i] = exact(int(i))
    return above


def build_setup(lam: complex, r_U: float, K: float, R: float) -> HyperbolicSetup:
    """Validate the hyperbolic configuration; every failed check is named."""
    lam = require_finite(lam, "lambda")
    if not abs(lam) < 1.0:
        raise SetupInvalid(f"|lambda| = {abs(lam):g} must be < 1")
    if lam == 0:
        raise SetupInvalid("lambda = 0: f is constant")
    if not r_U > 0:
        raise SetupInvalid("r_U must be positive")
    if not K >= 1.0:
        raise SetupInvalid(f"K = {K:g} must be >= 1")
    if not r_U < K / 2.0:
        raise SetupInvalid(
            f"cl U not inside D(0, K/2): r_U = {r_U:g} >= K/2 = {K / 2.0:g}"
        )
    if not R >= K:
        raise SetupInvalid(f"R = {R:g} must be >= K = {K:g}")
    if not math.log(2.0 * R - 1.0) >= K + 1.0:
        raise SetupInvalid(
            f"preimage condition log(2R-1) >= K+1 fails: "
            f"{math.log(2.0 * R - 1.0):g} < {K + 1.0:g}"
        )
    setup = HyperbolicSetup(lam, float(r_U), float(K), float(R))
    # compact containment f(cl U) inside U, on a boundary sample, in one
    # array pass confirmed in scalar near |f| = r_U

    def boundary_point(i: int) -> complex:
        return r_U * cmath.exp(2j * math.pi * i / BOUNDARY_SAMPLES)

    pm = setup.map_spec
    angles = 2j * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    with np.errstate(all="ignore"):
        fb = np.abs(pm.row.f(np, pm.params, r_U * np.exp(angles)))
    fails = _above(fb, r_U, lambda i: abs(setup.f(boundary_point(i))) >= r_U)
    if fails.any():
        zb = boundary_point(int(np.argmax(fails)))
        raise SetupInvalid(f"containment |f| < r_U fails on the boundary at {zb!r}")
    # postsingular orbit: forward iterates of the map's asymptotic value
    p = pm.asymptotic_value()
    for step in range(POSTSINGULAR_ITERATES):
        if abs(p) >= r_U:
            raise SetupInvalid(
                f"postsingular orbit exits U at step {step}: |p| = {abs(p):g}"
            )
        p = setup.f(p)
    return setup


@dataclass
class SemiconjSample:
    z: complex
    thetas: list[complex]  # thetas[j] = theta_j(z)
    increments: list[float] = field(default_factory=list)
    gamma_lengths: list[float] = field(default_factory=list)  # hyp length in W
    theta: complex | None = None
    displacement_bound: float = math.inf
    mu: float = math.nan
    sampled_C: float = math.nan
    tail_estimate: float = math.inf
    # deepest computed theta value per forward position, used to bound
    # the contraction of the levels the tower could not represent
    tops: list[complex] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "status": "ok",
            "theta": None
            if self.theta is None
            else [self.theta.real, self.theta.imag],
            "levels": [[t.real, t.imag] for t in self.thetas],
            "increments": self.increments,
            "gamma_lengths": self.gamma_lengths,
            "mu": self.mu,
            "displacement_bound": self.displacement_bound,
            "tail_estimate": self.tail_estimate,
        }


def mu_constant(setup: HyperbolicSetup) -> float:
    """Hyperbolic length bound of the level-1 segment: log(1 + log M / log 2)."""
    return math.log(1.0 + math.log(setup.M) / math.log(2.0))


def _g_positions(setup: HyperbolicSetup, z: complex, needed: int) -> list[complex]:
    """Forward g-orbit positions, stopping at the representability guard.

    Every returned position must lie in {|w| > R}; a violation within the
    requested range raises HorizonError.
    """
    pos = [require_finite(z)]
    if abs(z) <= setup.R:
        raise HorizonError(f"|z| = {abs(z):g} <= R = {setup.R:g}")
    while len(pos) < needed:
        try:
            nxt = setup.g(pos[-1])
        except OverflowError:
            break  # orbit is escaping faster than doubles represent
        if abs(nxt) > 1e250:
            # the next lift would need log|w| past the exp guard; the
            # remaining levels contract by 1/|f'| ~ 1/|w| and are dropped
            pos.append(nxt)
            break
        if abs(nxt) <= setup.R:
            raise HorizonError(
                f"g-orbit of {z!r} drops to |w| = {abs(nxt):g} <= R "
                f"at step {len(pos)}"
            )
        pos.append(nxt)
    return pos


def _lift_polyline(
    setup: HyperbolicSetup, start: complex, path: list[complex]
) -> list[complex]:
    """Continuous f-preimage of a polyline, starting at the known
    preimage ``start`` of path[0].

    Each step takes the closed-form preimage on the branch nearest the
    current sample.  A step that would move by more than MAX_LIFT_STEP
    goes to ``_bisected_step``; a step onto the asymptotic value raises
    ``inverse_branch_f``'s RangeError.
    """
    f0 = setup.f(start)
    if abs(f0 - path[0]) > 1e-6 * (1.0 + abs(path[0])):
        raise ContinuationError(
            f"start {start!r} is not a preimage of the path head {path[0]!r}"
        )
    inv = setup.inverse_branch_f
    period = TWO_PI * 1j
    samples = [start]
    z_cur = start
    for w_prev, w in zip(path, path[1:]):
        base = inv(w, 0)
        z_next = base + period * round((z_cur.imag - base.imag) / TWO_PI)
        if abs(z_next - z_cur) <= MAX_LIFT_STEP:
            samples.append(z_next)
        else:
            z_next = _bisected_step(
                inv, samples, z_cur, complex(w_prev), complex(w), 0
            )
        z_cur = z_next
    return samples


def _bisected_step(
    inv: Callable[[complex, int], complex],
    samples: list[complex],
    z_cur: complex,
    w_from: complex,
    w_to: complex,
    depth: int,
) -> complex:
    """Lift of the source step w_from -> w_to from z_cur, by the rule of
    ``_lift_polyline``: a lift step that moves by more than MAX_LIFT_STEP
    is split at its midpoint, first half first, at most
    MAX_BISECTION_DEPTH times.  Appends the lifted samples and returns
    the last."""
    base = inv(w_to, 0)
    z_next = base + TWO_PI * 1j * round((z_cur.imag - base.imag) / TWO_PI)
    if abs(z_next - z_cur) <= MAX_LIFT_STEP:
        samples.append(z_next)
        return z_next
    if depth >= MAX_BISECTION_DEPTH:
        raise ContinuationError(
            f"cannot keep the branch continuous near w = {w_to!r}"
        )
    mid = 0.5 * (w_from + w_to)
    z_mid = _bisected_step(inv, samples, z_cur, w_from, mid, depth + 1)
    return _bisected_step(inv, samples, z_mid, mid, w_to, depth + 1)


def _polyline_hyp_length(setup: HyperbolicSetup, path: list[complex]) -> float:
    """Midpoint-quadrature hyperbolic length of a polyline in W.

    The density is ``rho_W``'s formula inline; a midpoint outside its
    range goes to ``rho_W`` itself, which raises.
    """
    r_U, log, inf = setup.r_U, math.log, math.inf
    total = 0.0
    for a, b in zip(path, path[1:]):
        seg = abs(b - a)
        if seg == 0.0:
            continue
        mid = 0.5 * (a + b)
        r = abs(mid)
        if r_U < r < inf:
            total += seg * (1.0 / (r * log(r / r_U)))
        else:
            total += seg * rho_W(setup, mid)
    return total


def theta_level(setup: HyperbolicSetup, z: complex, k: int) -> SemiconjSample:
    """Levels theta_0 .. theta_j at z via the triangular curve tower, with
    j = min(k, number of g-orbit positions inside double range)."""
    if k < 0:
        raise RangeError("level must be nonnegative")
    z = require_finite(z)
    if k == 0:
        return SemiconjSample(z, [z], mu=mu_constant(setup))
    pos = _g_positions(setup, z, k)
    M = setup.M
    # level 1: straight segments from each position to its rescale
    curves = []
    for p in pos:
        d = p / M - p
        curves.append([p + d * t for t in _SEGMENT_FRACTIONS])
    thetas = [z, z / M]
    increments = [abs(z / M - z)]
    lengths = [_polyline_hyp_length(setup, curves[0])]
    tops = [c[-1] for c in curves]
    for level in range(2, min(k, len(pos)) + 1):
        lifted = [
            _lift_polyline(setup, curves[i][-1], curves[i + 1])
            for i in range(len(curves) - 1)
        ]
        curves = lifted
        for i, c in enumerate(curves):
            tops[i] = c[-1]
        thetas.append(curves[0][-1])
        increments.append(abs(thetas[-1] - thetas[-2]))
        lengths.append(_polyline_hyp_length(setup, curves[0]))
    return SemiconjSample(
        z, thetas, increments, lengths, mu=mu_constant(setup), tops=tops
    )


def _certificate_point(
    setup: HyperbolicSetup, log_span: float, u: np.ndarray
) -> complex:
    # the scalar form of an attempt's point; log-uniform modulus reaches
    # both ends of the annulus
    r = setup.r_U * math.exp(log_span * float(u[0]))
    return r * cmath.exp(2j * math.pi * float(u[1]))


def _attempts_in_V(
    setup: HyperbolicSetup, log_span: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points of a block of attempts and the mask of those in V: the
    scalar ``setup.f`` returns |f| > r_U there without overflowing."""
    pm = setup.map_spec
    with np.errstate(all="ignore"):
        zs = setup.r_U * np.exp(log_span * u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        fz = np.abs(pm.row.f(np, pm.params, zs))
    # past the guard the scalar call overflows: outside (0); near the
    # guard it may fall on either side: undecided (nan)
    approx = np.where(zs.real <= EXP_OVERFLOW_GUARD, fz, 0.0)
    guard_gap = np.abs(zs.real - EXP_OVERFLOW_GUARD)
    approx[guard_gap <= CONFIRM_MARGIN * EXP_OVERFLOW_GUARD] = np.nan

    def exact(i: int) -> bool:
        try:
            return abs(setup.f(_certificate_point(setup, log_span, u[i]))) > setup.r_U
        except OverflowError:
            return False

    return zs, _above(approx, setup.r_U, exact)


def expansion_certificate(setup: HyperbolicSetup) -> float:
    """Sampled lower bound C > 1 for ||Df||_W over V = f^{-1}(W) ∩ W.

    Draws points of the annulus {r_U < |z| <= CERTIFICATE_RADIUS} with
    seed 0, keeps the first CERTIFICATE_SAMPLES that lie in V, and
    returns the least exact hyperbolic derivative over them.  C is a
    sampled minimum, not a proof.  The points are drawn and evaluated in
    one array pass per block of attempts; membership within
    CONFIRM_MARGIN of |f| = r_U or of the overflow guard, and every value
    within CONFIRM_MARGIN of the minimum, are recomputed in scalar
    arithmetic, so C is the scalar minimum over the scalar sample.
    Fails loudly instead of returning a useless C <= 1.
    """
    rng = np.random.default_rng(0)
    log_span = math.log(CERTIFICATE_RADIUS / setup.r_U)
    kept_z, kept_u = [], []
    counted = attempts = 0
    while counted < CERTIFICATE_SAMPLES and attempts < CERTIFICATE_MAX_ATTEMPTS:
        # attempt i draws (log modulus, angle) = (log_span u[i, 0], u[i, 1]),
        # the doubles of successive rng.uniform calls
        u = rng.random((min(CERTIFICATE_BLOCK, CERTIFICATE_MAX_ATTEMPTS - attempts), 2))
        attempts += len(u)
        zs, in_V = _attempts_in_V(setup, log_span, u)
        kept_z.append(zs[in_V])
        kept_u.append(u[in_V])
        counted += int(np.count_nonzero(in_V))
    if counted < CERTIFICATE_SAMPLES:
        raise CertificateFailed(
            f"could only place {counted}/{CERTIFICATE_SAMPLES} samples inside V"
        )
    z = np.concatenate(kept_z)[:CERTIFICATE_SAMPLES]
    u = np.concatenate(kept_u)[:CERTIFICATE_SAMPLES]
    pm = setup.map_spec
    with np.errstate(all="ignore"):
        vals = (
            np.abs(pm.row.df(np, pm.params, z))
            * _rho_W_array(setup, pm.row.f(np, pm.params, z))
            / _rho_W_array(setup, z)
        )
        low = vals.min()
        # a nan anywhere makes low nan and sends every sample to scalar
        near = np.flatnonzero(~(vals > low + CONFIRM_MARGIN * abs(low)))
    points = [_certificate_point(setup, log_span, u[i]) for i in near]
    values = [hyperbolic_derivative_W(setup, zi) for zi in points]
    k = min(range(len(values)), key=values.__getitem__)
    worst, worst_z = values[k], points[k]
    if worst <= 1.0:
        raise CertificateFailed(
            f"||Df||_W = {worst:g} <= 1 at sample {worst_z!r}"
        )
    return worst


def _truncation_tail(
    setup: HyperbolicSetup, sample: SemiconjSample, sampled_C: float
) -> float:
    """Tail estimate when the g-orbit outran the representable range.

    The first missing increment is a curve of bounded length at the last
    position, pulled down through one lift per position; each lift
    contracts by 1/|f'| near the deepest computed theta value there.
    The product is formed in log domain because |f'| at near-saturated
    positions is itself past double range.  The remaining levels decay
    by the sampled constant on top of that.
    """
    c_top = abs(cmath.log(2.0 * setup.lam / setup.M)) + 1.0
    log_tail = math.log(c_top)
    for t in sample.tops[:-1]:
        # log |f'(t)| = log|lam| + Re t, exact for this map family
        log_df = math.log(abs(setup.lam)) + t.real
        log_tail -= max(0.0, log_df)
    log_tail += math.log(sampled_C / (sampled_C - 1.0))
    if log_tail < -700.0:
        return 0.0
    return math.exp(log_tail)


def semiconj_limit(
    setup: HyperbolicSetup, z: complex, tol: float, sampled_C: float
) -> SemiconjSample:
    """Converged theta(z) with depth chosen from mu / C^k <= tol, where
    ``sampled_C`` is the constant of ``expansion_certificate(setup)``.

    Escaping orbits usually saturate the representable range first, so
    ``theta_level`` stops short; the remaining tail is then estimated
    from the last computed increment and the sampled contraction and
    must itself be below tol.
    """
    if not tol > 0:
        raise RangeError("tol must be positive")
    if not (sampled_C > 1.0):
        raise CertificateMissing(
            f"no expansion constant C > 1 available (got {sampled_C!r})"
        )
    mu = mu_constant(setup)
    # mu <= tol needs one level; at tol = inf, mu / tol is 0, whose log
    # would raise
    depth = max(1, math.ceil(math.log(max(mu / tol, 1.0)) / math.log(sampled_C)))
    sample = theta_level(setup, z, depth)
    usable = len(sample.thetas) - 1
    sample.sampled_C = sampled_C
    sample.displacement_bound = mu * sampled_C / (sampled_C - 1.0)
    if usable >= depth:
        sample.tail_estimate = mu / sampled_C**depth
    else:
        sample.tail_estimate = _truncation_tail(setup, sample, sampled_C)
    if sample.tail_estimate > tol:
        raise HorizonError(
            f"tail estimate {sample.tail_estimate:g} above tol {tol:g} "
            f"at the representability limit"
        )
    sample.theta = sample.thetas[-1]
    return sample


def functional_residual(
    setup: HyperbolicSetup, z: complex, tol: float, sampled_C: float
) -> float:
    """|f(theta(z)) - theta(g(z))| at convergence."""
    s_z = semiconj_limit(setup, z, tol, sampled_C)
    s_gz = semiconj_limit(setup, setup.g(z), tol, sampled_C)
    return abs(setup.f(s_z.theta) - s_gz.theta)


def write_report(
    path, setup: HyperbolicSetup, samples: list, tol: float, sampled_C: float
) -> None:
    """The report of a batch run at ``tol`` with the expansion constant
    ``sampled_C``; each sample, a SemiconjSample or a refused one
    (``conjugacy.RefusedSample``), is written by its ``to_json``."""
    payload = {
        "setup": {
            "lambda": [setup.lam.real, setup.lam.imag],
            "r_U": setup.r_U,
            "K": setup.K,
            "R": setup.R,
            "M": setup.M,
            "mu": mu_constant(setup),
            "tol": tol,
            "sampled_C": sampled_C,
        },
        "samples": [s.to_json() for s in samples],
    }
    write_json(path, payload)
