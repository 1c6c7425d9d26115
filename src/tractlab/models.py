"""Catalog of model maps and their logarithmic lifts.

Two kinds of models are provided: the closed-form shifted exponential
``F(z) = e^z - R`` (the canonical explicit member of the class, already
normalized and of disjoint type for ``R >= 2``) and lifts of entire
plane maps, evaluated through the principal logarithm; inverse branches
carry their tract integers explicitly (see ``tracts``).  The plane maps
form one table, ``PLANE_FAMILIES``: every per-family formula (scalar and
grid evaluation, derivative, asymptotic value, Newton seed, JSON
parameter names) lives there and nowhere else.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, SearchFailed

TWO_PI = 2.0 * math.pi

# double-precision exp overflows near Re z = 709; stay clear of it
EXP_OVERFLOW_GUARD = 700.0


def require_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must have finite components, got {z!r}")
    return z


@dataclass(frozen=True)
class PlaneFamily:
    """One row of the plane-map table.

    ``f(m, params, z)`` and ``df(m, params, z)`` are written once and
    evaluated with ``m = cmath`` for scalars and ``m = numpy`` for grids.
    ``newton_seed(params, ws, inner)`` returns u with exp(z) ~ u for the
    preimage of exp(ws) in the tract with the given inner branch.
    """

    param_names: tuple[str, ...]
    f: Callable
    df: Callable
    # limit of f(w) as Re w -> -infinity, or None where there is none
    asymptotic_value: Callable[[tuple], complex | None]
    newton_seed: Callable[[tuple, complex, int], complex]
    # overflows toward Re z -> -infinity as well, with two tracts per
    # period strip, toward Re exp(z) = +infinity and -infinity
    two_sided: bool = False


def _sinh_seed(p: tuple, ws: complex, inner: int) -> complex:
    lam_half = cmath.log(p[0] / 2.0)
    if inner == 0:
        return ws - lam_half
    return lam_half - ws + 1j * math.pi


PLANE_FAMILIES: dict[str, PlaneFamily] = {
    "exp_affine": PlaneFamily(
        ("a", "b"),
        f=lambda m, p, z: p[0] * m.exp(z) + p[1],
        df=lambda m, p, z: p[0] * m.exp(z),
        asymptotic_value=lambda p: p[1],
        newton_seed=lambda p, ws, inner: ws - cmath.log(p[0]),
    ),
    "lambda_expm1": PlaneFamily(
        ("lambda",),
        f=lambda m, p, z: p[0] * (m.exp(z) - 1.0),
        df=lambda m, p, z: p[0] * m.exp(z),
        asymptotic_value=lambda p: -p[0],
        newton_seed=lambda p, ws, inner: ws - cmath.log(p[0]),
    ),
    "zexp": PlaneFamily(
        (),
        f=lambda m, p, z: (z + 1.0) * m.exp(z) - 1.0,
        df=lambda m, p, z: (z + 2.0) * m.exp(z),
        asymptotic_value=lambda p: -1.0 + 0.0j,
        newton_seed=lambda p, ws, inner: (ws - cmath.log(ws)) if ws != 0 else ws,
    ),
    "sinh": PlaneFamily(
        ("lambda",),
        f=lambda m, p, z: p[0] * m.sinh(z),
        df=lambda m, p, z: p[0] * m.cosh(z),
        asymptotic_value=lambda p: None,
        newton_seed=_sinh_seed,
        two_sided=True,
    ),
    "exp_plus_kappa": PlaneFamily(
        ("kappa",),
        f=lambda m, p, z: m.exp(z) + p[0],
        df=lambda m, p, z: m.exp(z),
        asymptotic_value=lambda p: p[0],
        newton_seed=lambda p, ws, inner: ws,
    ),
}


def _finite_value(v: complex) -> complex:
    # complex multiplication overflows to inf or nan without raising, as
    # in a e^z for a large multiplier a inside the exp guard
    if not cmath.isfinite(v):
        raise OverflowError("the plane map's value overflows double range")
    return v


@dataclass(frozen=True)
class EntireMapSpec:
    """A member of the plane-map table, with closed-form derivative."""

    family: str
    params: tuple[complex, ...] = ()
    # the family's table row, looked up once
    row: PlaneFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in PLANE_FAMILIES:
            raise ValueError(f"unknown map family {self.family!r}")
        row = PLANE_FAMILIES[self.family]
        if len(self.params) != len(row.param_names):
            raise ValueError(f"{self.family} takes parameters {row.param_names}")
        for p in self.params:
            require_finite(p, "parameter")
        object.__setattr__(self, "row", row)

    # -- constructors -------------------------------------------------
    @staticmethod
    def exp_affine(a: complex, b: complex) -> "EntireMapSpec":
        return EntireMapSpec("exp_affine", (complex(a), complex(b)))

    @staticmethod
    def lambda_expm1(lam: complex) -> "EntireMapSpec":
        return EntireMapSpec("lambda_expm1", (complex(lam),))

    @staticmethod
    def zexp() -> "EntireMapSpec":
        return EntireMapSpec("zexp")

    @staticmethod
    def sinh(lam: complex) -> "EntireMapSpec":
        return EntireMapSpec("sinh", (complex(lam),))

    @staticmethod
    def exp_plus_kappa(kappa: complex) -> "EntireMapSpec":
        return EntireMapSpec("exp_plus_kappa", (complex(kappa),))

    # -- evaluation ---------------------------------------------------
    def _guard(self, z: complex) -> None:
        bound = abs(z.real) if self.row.two_sided else z.real
        if bound > EXP_OVERFLOW_GUARD:
            raise OverflowError(
                f"Re z = {z.real:g} exceeds the exponent-overflow guard"
            )

    def eval(self, z: complex) -> complex:
        z = require_finite(z)
        self._guard(z)
        return _finite_value(self.row.f(cmath, self.params, z))

    def deriv(self, z: complex) -> complex:
        z = require_finite(z)
        self._guard(z)
        return _finite_value(self.row.df(cmath, self.params, z))

    def asymptotic_value(self) -> complex | None:
        """Limit of f(w) as Re w -> -infinity, where one exists."""
        return self.row.asymptotic_value(self.params)


@dataclass(frozen=True)
class LogLiftModel:
    """A log-coordinate model F: V -> {Re > Q} with V = F^{-1}({Re > Q}).

    ``offset`` records a normalization conjugation: the model evaluates
    F(z + offset) - offset, restricting the original domain to the part
    mapped ``offset`` deep into the half plane.  ``kappa`` makes it the
    member F(z + kappa) of the translation family, on the domain V - kappa.
    """

    family: str  # "shifted_exp" | "lifted_entire"
    R: float = 10.0
    plane_map: EntireMapSpec | None = None
    half_plane_Q: float = 0.0
    offset: float = 0.0
    kappa: complex = 0j

    def __post_init__(self):
        require_finite(self.kappa, "kappa")
        if self.family == "shifted_exp":
            if not math.isfinite(self.R):
                raise ValueError("R must be finite")
        elif self.family == "lifted_entire":
            if self.plane_map is None:
                raise ValueError("lifted_entire requires a plane_map")
        else:
            raise ValueError(f"unknown model family {self.family!r}")

    def shifted(self, extra_offset: float) -> "LogLiftModel":
        return replace(self, offset=self.offset + extra_offset)

    def translated(self, kappa: complex) -> "LogLiftModel":
        """The member F(z + kappa) of this model's translation family."""
        return replace(self, kappa=self.kappa + kappa)


def eval_F(model: LogLiftModel, z: complex) -> complex:
    """Evaluate the log-coordinate map at z, checking domain membership.

    A lifted entire map takes the principal logarithm of f(exp z).
    """
    z = require_finite(z)
    w = _eval_raw(model, z + model.kappa)
    if w.real <= model.half_plane_Q:
        raise DomainError(
            f"z = {z!r} is outside the domain (Re F = {w.real:g} <= "
            f"{model.half_plane_Q:g})"
        )
    return w


def _eval_F_array(
    model: LogLiftModel, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_F`` over a 1-D array, through the table row's
    ``f`` with ``m = numpy``.

    Returns the values and a mask that is true where the scalar call
    succeeds with a finite value: a finite point inside the model's
    overflow guard and the plane map's ``_guard``, f(exp z) != 0, a
    finite value and Re F > Q.  Values may differ from the scalar call's
    in the last bit, so they serve checks only; a caller that needs the
    scalar call's outcome re-runs ``eval_F`` where the mask is false.
    """
    with np.errstate(all="ignore"):
        # the scalar call's order, so the guard sees the same zs
        zs = (z + model.kappa) + model.offset
        ok = np.isfinite(zs) & (zs.real <= EXP_OVERFLOW_GUARD)
        zeta = np.exp(zs)
        if model.family == "shifted_exp":
            w = zeta - (model.R + model.offset)
        else:
            pm = model.plane_map
            bound = np.abs(zeta.real) if pm.row.two_sided else zeta.real
            fv = pm.row.f(np, pm.params, zeta)
            ok &= (bound <= EXP_OVERFLOW_GUARD) & (fv != 0)
            w = np.log(fv) - model.offset
        ok &= np.isfinite(w) & (w.real > model.half_plane_Q)
    return w, ok


def _eval_raw(model: LogLiftModel, zk: complex) -> complex:
    # zk is in the coordinates of the untranslated map: z + kappa
    zs = zk + model.offset
    if zs.real > EXP_OVERFLOW_GUARD:
        raise OverflowError(
            f"Re z = {zs.real:g} exceeds the exponent-overflow guard"
        )
    if model.family == "shifted_exp":
        return cmath.exp(zs) - model.R - model.offset
    zeta = cmath.exp(zs)
    fv = model.plane_map.eval(zeta)
    if fv == 0:
        raise DomainError(f"f(exp z) = 0 at z = {zk!r}; log lift undefined")
    # + 0j turns a -0.0 imaginary part of the log into +0.0: a parameter
    # with a signed zero, as in exp_affine(-1 - 0j, 100 - 0j), gives
    # f(exp z) = x - 0j, and the reported value has kept +0.0
    return (cmath.log(fv) + 0j) - model.offset


def eval_dF(model: LogLiftModel, z: complex) -> complex:
    """Derivative of the log-coordinate map (branch independent)."""
    z = require_finite(z)
    zk = z + model.kappa
    if not _contains(model, zk):
        raise DomainError(f"z = {z!r} is outside the domain")
    zs = zk + model.offset
    if zs.real > EXP_OVERFLOW_GUARD:
        raise OverflowError(
            f"Re z = {zs.real:g} exceeds the exponent-overflow guard"
        )
    zeta = cmath.exp(zs)
    if model.family == "shifted_exp":
        return zeta
    fv = model.plane_map.eval(zeta)
    return model.plane_map.deriv(zeta) * zeta / fv


def domain_contains(model: LogLiftModel, z: complex) -> bool:
    """Membership in V = F^{-1}({Re > Q}); never raises."""
    try:
        z = require_finite(z)
    except DomainError:
        return False
    return _contains(model, z + model.kappa)


def _contains(model: LogLiftModel, zk: complex) -> bool:
    # membership of the finite point zk = z + kappa
    try:
        w = _eval_raw(model, zk)
    except DomainError:
        return False
    except OverflowError:
        return _member_past_overflow(model, zk)
    return w.real > model.half_plane_Q


def _member_past_overflow(model: LogLiftModel, zk: complex) -> bool:
    # the one rule turning an OverflowError of _eval_raw(model, zk) into
    # membership: inside the exp guard f(exp z) overflowed in the plane
    # map, so |f| > e^{Q + offset}; past it Re exp(zs) = e^{Re zs} cos(Im zs)
    # with e^{Re zs} astronomically large, so the sign of cos decides
    zs = zk + model.offset
    if zs.real <= EXP_OVERFLOW_GUARD:
        return True
    c = math.cos(zs.imag)
    if model.family == "shifted_exp":
        return c > 0.0
    if c > 0.0:
        # exp(zs) has a huge positive real part; every catalog map has
        # |f| -> infinity there, so log|f| certainly exceeds Q + offset.
        return True
    if model.plane_map.row.two_sided:
        return c < 0.0  # the map also blows up toward -infinity
    limit = model.plane_map.asymptotic_value()
    if limit is None or limit == 0:
        return False
    return math.log(abs(limit)) - model.offset > model.half_plane_Q


# ``normalize`` bisects the extra offset in [0, NORMALIZE_MAX_OFFSET] and
# checks |F'| >= 2 on NORMALIZE_SAMPLES domain points drawn with seed 0
NORMALIZE_MAX_OFFSET = 64.0
NORMALIZE_SAMPLES = 1000


def normalize(model: LogLiftModel) -> LogLiftModel:
    """Restrict-and-conjugate until |F'| >= 2 holds on a verification sample.

    Returns the model unchanged when its current sample already certifies
    the bound; otherwise bisects the extra offset in
    [0, NORMALIZE_MAX_OFFSET] and records it.
    """
    if _certify_expansion(model):
        return model
    lo, hi = 0.0, NORMALIZE_MAX_OFFSET
    if not _certify_expansion(model.shifted(hi)):
        raise SearchFailed(
            f"no offset in [{lo:g}, {hi:g}] certifies |F'| >= 2 on the sample"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _certify_expansion(model.shifted(mid)):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    return model.shifted(hi)


def _certify_expansion(model: LogLiftModel) -> bool:
    for z in sample_domain_points(model, NORMALIZE_SAMPLES):
        try:
            if abs(eval_dF(model, z)) < 2.0:
                return False
        except OverflowError:
            continue
    return True


# ``sample_domain_points`` draws from -3 <= Re z <= 8 and the tracts
# with branch index -2 .. 2: |Im z| <= 2 pi (2 + 1/2)
SAMPLE_RE_RANGE = (-3.0, 8.0)
SAMPLE_IM_SPAN = TWO_PI * 2.5


def sample_domain_points(
    model: LogLiftModel, count: int, seed: int = 0
) -> list[complex]:
    """Draw ``count`` domain points by rejection sampling; deterministic."""
    rng = np.random.default_rng(seed)
    points: list[complex] = []
    attempts = 0
    while len(points) < count and attempts < 1000 * count:
        attempts += 1
        z = complex(
            rng.uniform(*SAMPLE_RE_RANGE),
            rng.uniform(-SAMPLE_IM_SPAN, SAMPLE_IM_SPAN),
        )
        if domain_contains(model, z):
            points.append(z)
    if len(points) < count:
        raise SearchFailed(
            f"could only sample {len(points)}/{count} domain points"
        )
    return points


# -- JSON descriptors ------------------------------------------------

def _real(raw, field: str, kind=float):
    """A finite number, or text that parses as one; ``kind=int`` wants an
    integer (an integral float is accepted)."""
    try:
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            x = kind(raw) if isinstance(raw, str) else raw
            if math.isfinite(x) and kind(x) == x:
                return kind(x)
    except (ValueError, OverflowError):
        pass
    wanted = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{field}: expected {wanted}, got {raw!r}")


def _positive(raw, field: str, kind=float):
    """A number read by ``_real`` that is greater than zero."""
    x = _real(raw, field, kind)
    if not x > 0:
        raise ConfigError(f"{field}: must be positive, got {x!r}")
    return x


def _complex(raw, field: str) -> complex:
    """Finite ``a+bi`` text, an ``[re, im]`` pair or a plain number."""
    try:
        if isinstance(raw, str):
            z = complex(raw.replace("i", "j").replace(" ", ""))
        elif isinstance(raw, list) and len(raw) == 2:
            z = complex(_real(raw[0], field), _real(raw[1], field))
        else:
            z = complex(_real(raw, field))
        if cmath.isfinite(z):
            return z
    except (ConfigError, ValueError):
        pass
    raise ConfigError(f"{field}: expected a+bi, [re, im] or a number, got {raw!r}")


def plane_map_from_json(desc: dict) -> EntireMapSpec:
    """Plane map from its descriptor; an error names the failing field."""
    if not isinstance(desc, dict):
        raise ConfigError("map: must be a JSON object")
    family = desc.get("family")
    if family not in PLANE_FAMILIES:
        raise ConfigError(f"map.family: unknown map family {family!r}")
    params = []
    for name in PLANE_FAMILIES[family].param_names:
        if name not in desc:
            raise ConfigError(f"map.{name}: missing for family {family!r}")
        params.append(_complex(desc[name], f"map.{name}"))
    return EntireMapSpec(family, tuple(params))


def plane_map_to_json(spec: EntireMapSpec) -> dict:
    desc: dict = {"family": spec.family}
    for name, p in zip(spec.row.param_names, spec.params):
        desc[name] = [p.real, p.imag]
    return desc


def model_from_json(desc: dict) -> LogLiftModel:
    """Read a model descriptor; an error names the failing field."""
    if not isinstance(desc, dict):
        raise ConfigError("model: must be a JSON object")
    family = desc.get("family")
    Q = _real(desc.get("Q", 0.0), "model.Q")
    if family == "shifted_exp":
        R = _real(desc.get("R", 10.0), "model.R")
        return LogLiftModel("shifted_exp", R=R, half_plane_Q=Q)
    if family == "lifted_entire":
        if "map" not in desc:
            raise ConfigError("map: missing from the lifted_entire model")
        return LogLiftModel(
            "lifted_entire", plane_map=plane_map_from_json(desc["map"]), half_plane_Q=Q
        )
    raise ConfigError(f"model.family: unknown model family {family!r}")


def model_to_json(model: LogLiftModel) -> dict:
    """Descriptor of a model; a translated or normalized model has none."""
    if model.kappa or model.offset:
        raise ValueError("no descriptor expresses a translated or normalized model")
    if model.family == "shifted_exp":
        return {"family": "shifted_exp", "R": model.R, "Q": model.half_plane_Q}
    return {
        "family": "lifted_entire",
        "map": plane_map_to_json(model.plane_map),
        "Q": model.half_plane_Q,
    }
