"""Catalog of model maps and their logarithmic lifts.

Two kinds of models are provided, the rows of the table ``MODEL_KINDS``:
the closed-form shifted exponential ``F(z) = e^z - R`` (the canonical
explicit member of the class, with |F'| >= 2 on its domain and of
disjoint type for ``R >= 2``) and lifts of entire plane maps, evaluated
through the principal logarithm; inverse branches carry their tract
integers explicitly (see ``tracts``).  Every rule that depends on the
kind is a column of that table, and no other module branches on it.
Three columns build kernels: ``value_kernel``, ``dF_kernel`` and
``inverse_kernel`` return closures over one model, which a model builds
once, as it builds its F kernel and its address kernel.  The value
kernel is F at z + kappa inside the exp guard, without the rule Re F > Q;
``orbits.iterate`` steps on it and compares with its own threshold, so a
domain exit raises nothing.  The F kernel adds that rule, and ``eval_F``
and ``eval_dF`` are ``require_finite`` plus a kernel.  The lifted F'
kernel reads exp(z + kappa) and f once where they prove z in V.  The
address kernel, built by ``_address_key``, is the one home of the
address rule.
The plane maps form one table, ``PLANE_FAMILIES``: every per-family
formula (scalar and grid evaluation, derivative, asymptotic value,
Newton seed, lower bound for log|f|, JSON parameter names) lives there
and nowhere else.
"""

from __future__ import annotations

import cmath
import json
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, DomainError, NewtonDiverged, SearchFailed

TWO_PI = 2.0 * math.pi

# double-precision exp overflows near Re z = 709; stay clear of it
EXP_OVERFLOW_GUARD = 700.0
# the bytes of a complex number's two doubles, signed zeros included
_DOUBLES = struct.Struct("2d")


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
    ``log_abs_floor(log_moduli, zeta)``, given log|p| of every parameter
    p, is a lower bound for log|f(zeta)| that holds under rounding at
    every finite zeta, also where f(zeta) itself overflows; it is -inf
    where the bound proves nothing.
    """

    param_names: tuple[str, ...]
    f: Callable
    df: Callable
    log_abs_floor: Callable[[tuple, complex], float]
    # limit of f(w) as Re w -> -infinity, or None where there is none
    asymptotic_value: Callable[[tuple], complex | None]
    newton_seed: Callable[[tuple, complex, int], complex]
    # overflows toward Re z -> -infinity as well, with two tracts per
    # period strip, toward Re exp(z) = +infinity and -infinity
    two_sided: bool = False


# relative slack for the rounding of the few operations in _log_floor,
# far above their error of a few units in the last place
LOG_FLOOR_SLACK = 1e-12


def _log_abs(c: complex) -> float:
    """log|c| for a finite c, also where |c| overflows; -inf at 0."""
    r = abs(c)
    if r == math.inf:
        return math.log(abs(c * 0.5)) + math.log(2.0)
    return math.log(r) if r else -math.inf


def _log_floor(lead: float, tail: float) -> float:
    """A lower bound, holding under rounding, for log|u + v| with
    |u| >= e^lead and |v| <= e^tail: log(e^lead - e^tail), or -inf
    where e^tail >= e^lead."""
    d = tail - lead
    if d < -40.0:
        # log1p(-e^d) > -5e-18 is far inside the slack (also for tail = -inf)
        return lead - LOG_FLOOR_SLACK * (1.0 + abs(lead))
    d += LOG_FLOOR_SLACK * (1.0 + abs(lead) + abs(tail))
    if not d < 0.0:
        return -math.inf
    g = math.log1p(-math.exp(d))
    return lead + g - LOG_FLOOR_SLACK * (1.0 + abs(lead) + abs(g))


def _sinh_floor(lp: tuple, zeta: complex) -> float:
    # lambda sinh(zeta) = (lambda/2) e^zeta - (lambda/2) e^-zeta
    half = lp[0] - math.log(2.0)
    x = abs(zeta.real)
    return _log_floor(half + x, half - x)


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
        log_abs_floor=lambda lp, zeta: _log_floor(lp[0] + zeta.real, lp[1]),
        asymptotic_value=lambda p: p[1],
        newton_seed=lambda p, ws, inner: ws - cmath.log(p[0]),
    ),
    "lambda_expm1": PlaneFamily(
        ("lambda",),
        f=lambda m, p, z: p[0] * (m.exp(z) - 1.0),
        df=lambda m, p, z: p[0] * m.exp(z),
        log_abs_floor=lambda lp, zeta: _log_floor(lp[0] + zeta.real, lp[0]),
        asymptotic_value=lambda p: -p[0],
        newton_seed=lambda p, ws, inner: ws - cmath.log(p[0]),
    ),
    "zexp": PlaneFamily(
        (),
        f=lambda m, p, z: (z + 1.0) * m.exp(z) - 1.0,
        df=lambda m, p, z: (z + 2.0) * m.exp(z),
        log_abs_floor=lambda lp, zeta: _log_floor(
            _log_abs(zeta + 1.0) + zeta.real, 0.0
        ),
        asymptotic_value=lambda p: -1.0 + 0.0j,
        newton_seed=lambda p, ws, inner: (ws - cmath.log(ws)) if ws != 0 else ws,
    ),
    "sinh": PlaneFamily(
        ("lambda",),
        f=lambda m, p, z: p[0] * m.sinh(z),
        df=lambda m, p, z: p[0] * m.cosh(z),
        log_abs_floor=_sinh_floor,
        asymptotic_value=lambda p: None,
        newton_seed=_sinh_seed,
        two_sided=True,
    ),
    "exp_plus_kappa": PlaneFamily(
        ("kappa",),
        f=lambda m, p, z: m.exp(z) + p[0],
        df=lambda m, p, z: m.exp(z),
        log_abs_floor=lambda lp, zeta: _log_floor(zeta.real, lp[0]),
        asymptotic_value=lambda p: p[0],
        newton_seed=lambda p, ws, inner: ws,
    ),
}


def _guard_error(x: float, real_part: str = "Re z") -> OverflowError:
    # real_part names x: Re z of the plane map's argument, or Re(z + kappa)
    # in a model's kernels, whose caller passed z
    return OverflowError(f"{real_part} = {x:g} exceeds the exponent-overflow guard")


@dataclass(frozen=True)
class EntireMapSpec:
    """A member of the plane-map table, with closed-form derivative."""

    family: str
    params: tuple[complex, ...] = ()
    # the family's table row, looked up once
    row: PlaneFamily = field(init=False, repr=False, compare=False)
    # log|p| of every parameter, for the row's log_abs_floor
    log_moduli: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = PLANE_FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if row is None:
            raise ValueError(f"unknown map family {self.family!r}")
        if len(self.params) != len(row.param_names):
            raise ValueError(f"{self.family} takes parameters {row.param_names}")
        for p in self.params:
            require_finite(p, "parameter")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "log_moduli", tuple(map(_log_abs, self.params)))
        object.__setattr__(self, "_f", self._guarded(row.f))
        object.__setattr__(self, "_df", self._guarded(row.df))

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
    def _guarded(self, formula: Callable) -> Callable:
        """``formula`` of the row at a finite z, under the plane map's two
        rules: its exp guard and a finite value (``_f`` and ``_df``)."""
        params, two_sided = self.params, self.row.two_sided

        def value(z: complex) -> complex:
            if (abs(z.real) if two_sided else z.real) > EXP_OVERFLOW_GUARD:
                raise _guard_error(z.real)
            v = formula(cmath, params, z)
            # complex multiplication overflows to inf or nan without
            # raising, as in a e^z for a large multiplier a inside the guard
            if not cmath.isfinite(v):
                raise OverflowError("the plane map's value overflows double range")
            return v

        return value

    def eval(self, z: complex) -> complex:
        return self._f(require_finite(z))

    def deriv(self, z: complex) -> complex:
        return self._df(require_finite(z))

    def asymptotic_value(self) -> complex | None:
        """Limit of f(w) as Re w -> -infinity, where one exists."""
        return self.row.asymptotic_value(self.params)


@dataclass(frozen=True)
class LogLiftModel:
    """A log-coordinate model F: V -> {Re > Q} with V = F^{-1}({Re > Q}).

    ``kappa`` makes it the member F(z + kappa) of the translation family,
    on the domain V - kappa.
    """

    family: str  # a key of MODEL_KINDS: "shifted_exp" | "lifted_entire"
    R: float = 10.0
    plane_map: EntireMapSpec | None = None
    half_plane_Q: float = 0.0
    kappa: complex = 0j
    # the family's row of MODEL_KINDS, looked up once
    kind: ModelKind = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self.kappa, "kappa")
        if not math.isfinite(self.half_plane_Q):
            raise ValueError("half_plane_Q must be finite")
        kind = MODEL_KINDS.get(self.family) if isinstance(self.family, str) else None
        if kind is None:
            raise ValueError(f"unknown model family {self.family!r}")
        problem = kind.problem(self)
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "kind", kind)

    @cached_property
    def _memo_repr(self) -> str:
        """``repr(self)``, computed once: it tells apart models that compare
        equal but differ in the sign of a zero in kappa or a parameter,
        which can move the log lift by 2 pi i."""
        return repr(self)

    # the kernels, built once: F at zk = z + kappa inside the exp guard,
    # without the Q rule; eval_F and eval_dF at a finite z; the address of
    # a domain point zk; and the inverse-branch solve
    _F_value = cached_property(lambda self: self.kind.value_kernel(self))
    _F = cached_property(lambda self: _F_kernel(self))
    _dF = cached_property(lambda self: self.kind.dF_kernel(self))
    _address = cached_property(lambda self: _address_key(self))
    _inverse = cached_property(lambda self: self.kind.inverse_kernel(self))

    def _member_F(self, kappa: complex) -> Callable:
        """The F kernel of ``translated(kappa)``.  The model keeps the last
        one, as every caller uses one kappa per base, keyed on the bytes of
        kappa's two doubles so that a zero's sign keeps kappas apart."""
        return self._members(_DOUBLES.pack(kappa.real, kappa.imag))

    _members = cached_property(lambda self: lru_cache(maxsize=1)(
        lambda key: self.translated(complex(*_DOUBLES.unpack(key)))._F))

    def translated(self, kappa: complex) -> "LogLiftModel":
        """The member F(z + kappa) of this model's translation family."""
        # the constructor directly: dataclasses.replace costs twice as much
        return LogLiftModel(
            family=self.family,
            R=self.R,
            plane_map=self.plane_map,
            half_plane_Q=self.half_plane_Q,
            kappa=self.kappa + kappa,
        )


# -- the model-kind table ---------------------------------------------

@dataclass(frozen=True)
class ModelKind:
    """One row of the model-kind table; with zk = z + kappa, zeta = exp(zk),
    every callable column but ``from_json`` takes the model m first."""

    problem: Callable  # m -> why m is invalid, or a false value
    # m -> value, where value(zk) is F at zk - kappa inside the exp guard;
    # it raises only past a guard, or where F has no value
    value_kernel: Callable
    F_array: Callable  # (m, zeta array) -> F, and where the scalar F succeeds
    dF_kernel: Callable  # m -> dF, where dF(z) is eval_dF(m, z) at a finite z
    overflow_floor: Callable  # (m, zk) -> Re F floor where F overflowed
    asymptotic_value: Callable  # m -> a, Re F -> log|a| as Re zeta -> -inf
    two_sided: Callable  # m -> whether also Re F -> +inf as Re zeta -> -inf
    inverse_kernel: Callable  # m -> solve(tract, w, seed), see tracts
    dF_floor: Callable  # (m, q) -> a floor for |F'| on F^-1({Re > q}), or 0
    principal_log: bool  # F takes the principal log, so |Im F| <= pi
    to_json: Callable  # m -> the descriptor entries between family and Q
    from_json: Callable  # descriptor -> constructor arguments but family, Q


def _value_kernel(value: Callable) -> Callable:
    # the value_kernel column of a kind with F(zk - kappa) = value(m)(zk)
    # inside the model's exp guard
    def build(model: LogLiftModel) -> Callable:
        v = value(model)

        def guarded(zk):
            if zk.real > EXP_OVERFLOW_GUARD:
                raise _guard_error(zk.real, "Re(z + kappa)")
            return v(zk)

        return guarded

    return build


def _F_kernel(model: LogLiftModel) -> Callable:
    # eval_F at a finite z: the value kernel on the domain where Re F > Q
    value, kappa, Q = model._F_value, model.kappa, model.half_plane_Q

    def F(z):
        w = value(z + kappa)
        if w.real <= Q:
            raise DomainError(
                f"z = {z!r} is outside the domain (Re F = {w.real:g} <= {Q:g})"
            )
        return w

    return F


def _dF_kernel(derivative: Callable) -> Callable:
    # the dF_kernel column of a kind with F' = derivative(m)(exp(z + kappa))
    def build(model: LogLiftModel) -> Callable:
        d, kappa = derivative(model), model.kappa

        def dF(z):
            if not domain_contains(model, z):
                raise DomainError(f"z = {z!r} is outside the domain")
            zk = z + kappa
            if zk.real > EXP_OVERFLOW_GUARD:
                raise _guard_error(zk.real, "Re(z + kappa)")
            return d(cmath.exp(zk))

        return dF

    return build


def _closed_form_kernel(model: LogLiftModel) -> Callable:
    # log(w + R) + 2 pi i k - kappa, which needs no seed
    log, R, period, kappa = cmath.log, model.R, TWO_PI * 1j, model.kappa

    def solve(tract, w, seed=None):
        return log(w + R) + period * tract.branch_index - kappa

    return solve


def _lifted_F(model: LogLiftModel) -> Callable:
    exp, log, f = cmath.exp, cmath.log, model.plane_map._f

    def value(zk):
        fv = f(exp(zk))
        if fv == 0:
            raise DomainError(
                f"f(exp(z + kappa)) = 0 at z + kappa = {zk!r}; log lift undefined"
            )
        # + 0j turns a -0.0 imaginary part of the log into +0.0: parameters
        # with signed zeros, as exp_affine(complex(-1, -0.0), complex(100,
        # -0.0)), give f(exp z) = x - 0j, and the reported value keeps +0.0
        return log(fv) + 0j

    return value


def _lifted_dF(model: LogLiftModel) -> Callable:
    # F' = f'(zeta) zeta / f(zeta) from one exp and one f(zeta) where they
    # prove z in V; everywhere else _dF_kernel's order decides the outcome
    exp, log, isfinite = cmath.exp, cmath.log, cmath.isfinite
    f, df = model.plane_map._f, model.plane_map._df
    kappa, Q = model.kappa, model.half_plane_Q
    checked = _dF_kernel(lambda m: lambda zeta: df(zeta) * zeta / f(zeta))(model)

    def dF(z):
        zk = z + kappa
        if zk.real <= EXP_OVERFLOW_GUARD and isfinite(z):
            zeta = exp(zk)
            try:
                fv = f(zeta)
            except OverflowError:
                return checked(z)
            # Re F > Q as the F kernel decides it, where log(0) would raise
            if fv != 0 and log(fv).real > Q:
                return df(zeta) * zeta / fv
        return checked(z)

    return dF


def _lifted_F_array(model: LogLiftModel, zeta: np.ndarray) -> tuple:
    pm = model.plane_map
    bound = np.abs(zeta.real) if pm.row.two_sided else zeta.real
    fv = pm.row.f(np, pm.params, zeta)
    return np.log(fv), (bound <= EXP_OVERFLOW_GUARD) & (fv != 0)


def _lifted_from_json(desc: dict) -> dict:
    if "map" not in desc:
        raise ConfigError("map: missing from the lifted_entire model")
    return {"plane_map": plane_map_from_json(desc["map"])}


def _newton_kernel(model: LogLiftModel) -> Callable:
    # the seeded Newton solve that tracts.inverse_branch documents
    kappa, address = model.kappa, model._address

    def solve(tract, w, seed=None):
        # Newton runs in the coordinates of the untranslated map
        seed_k = None if seed is None else seed + kappa
        if seed_k is not None:
            shift = tract.branch_index - address(seed_k).branch_index
            if shift:
                seed_k += TWO_PI * 1j * shift
        zk = _newton_inverse(model, tract, w, seed_k)
        if address(zk) != tract:
            raise NewtonDiverged(
                f"Newton inverse of w = {w!r} left tract {tract} for {zk - kappa!r}"
            )
        return zk - kappa

    return solve


# Newton stops once |f(exp z) - exp(w)| <= NEWTON_TOL (1 + |exp(w)|), and
# raises NewtonDiverged after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _newton_inverse(
    model: LogLiftModel, tract, w: complex, seed: complex | None
) -> complex:
    # + 0j turns a -0.0 imaginary part of w into +0.0: w and w - 0j are
    # equal, and a real w must get one seed, not one per side of the cut
    # of the principal log in the asymptotic seed
    ws = w + 0j
    if ws.real > 690.0:
        raise OverflowError("exp(w) overflows; cannot form the Newton target")
    target = cmath.exp(ws)
    pm, z = model.plane_map, seed
    if z is None:  # from the exponential-dominated asymptotics
        u = pm.row.newton_seed(pm.params, ws, tract.inner_branch)
        z = cmath.log(u if u != 0 else 1.0) + TWO_PI * 1j * tract.branch_index
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


MODEL_KINDS: dict[str, ModelKind] = {
    # F(z) = e^z - R
    "shifted_exp": ModelKind(
        problem=lambda m: not math.isfinite(m.R) and "R must be finite",
        value_kernel=_value_kernel(lambda m: lambda zk: cmath.exp(zk) - m.R),
        F_array=lambda m, zeta: (zeta - m.R, True),
        dF_kernel=_dF_kernel(lambda m: lambda zeta: zeta),  # F' = e^z
        # e^z - R does not overflow inside the guard
        overflow_floor=lambda m, zk: -math.inf,
        asymptotic_value=lambda m: None,
        two_sided=lambda m: False,
        inverse_kernel=_closed_form_kernel,
        # |F'| = |w + R| >= Re w + R
        dF_floor=lambda m, q: q + m.R,
        principal_log=False,
        to_json=lambda m: {"R": m.R},
        from_json=lambda desc: {"R": _real(desc.get("R", 10.0), "model.R")},
    ),
    # F(z) = log f(e^z), principal branch, for f from PLANE_FAMILIES
    "lifted_entire": ModelKind(
        problem=lambda m: m.plane_map is None and "lifted_entire requires a plane_map",
        value_kernel=_value_kernel(_lifted_F),
        F_array=_lifted_F_array,
        dF_kernel=_lifted_dF,
        overflow_floor=lambda m, zk: m.plane_map.row.log_abs_floor(
            m.plane_map.log_moduli, cmath.exp(zk)
        ),
        asymptotic_value=lambda m: m.plane_map.asymptotic_value(),
        two_sided=lambda m: m.plane_map.row.two_sided,
        inverse_kernel=_newton_kernel,
        dF_floor=lambda m, q: 0.0,
        principal_log=True,
        to_json=lambda m: {"map": plane_map_to_json(m.plane_map)},
        from_json=_lifted_from_json,
    ),
}


def _address_key(model: LogLiftModel) -> Callable:
    """The address kernel of a model: the interned tract address (k, inner)
    of a domain point zk = z + kappa, with k = round(Im zk / 2 pi); a
    two-sided kind has two tracts per period strip, toward Re exp(z) =
    +/-inf, so inner = 1 where sign(Re exp(zk)) = sign(cos Im zk) < 0."""
    from .tracts import _interned  # tracts imports this module

    if model.kind.two_sided(model):
        return lambda zk: _interned(round(zk.imag / TWO_PI), math.cos(zk.imag) < 0.0)
    return lambda zk: _interned(round(zk.imag / TWO_PI), False)


def eval_F(model: LogLiftModel, z: complex) -> complex:
    """Evaluate the log-coordinate map at z, checking domain membership.

    A lifted entire map takes the principal logarithm of f(exp z).
    """
    return model._F(require_finite(z))


def _eval_F_array(
    model: LogLiftModel, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_F`` over a 1-D array, through the model kind's ``F_array``.

    Returns the values and a mask that is true where the scalar call
    succeeds with a finite value: a finite point inside the model's
    overflow guard and the plane map's, f(exp z) != 0, a finite value
    and Re F > Q.  Values may differ from the scalar call's
    in the last bit, so they serve checks only; a caller that needs the
    scalar call's outcome re-runs ``eval_F`` where the mask is false.
    """
    with np.errstate(all="ignore"):
        zk = z + model.kappa
        ok = np.isfinite(zk) & (zk.real <= EXP_OVERFLOW_GUARD)
        w, kind_ok = model.kind.F_array(model, np.exp(zk))
        ok &= kind_ok & np.isfinite(w) & (w.real > model.half_plane_Q)
    return w, ok


def eval_dF(model: LogLiftModel, z: complex) -> complex:
    """Derivative of the log-coordinate map (branch independent)."""
    return model._dF(require_finite(z))


def domain_contains(model: LogLiftModel, z: complex) -> bool:
    """Membership in V = F^{-1}({Re > Q}); never raises."""
    try:
        z = require_finite(z)
        model._F(z)
    except DomainError:
        return False
    except OverflowError:
        return _member_past_overflow(model, z + model.kappa, model.half_plane_Q)
    return True


def _member_past_overflow(model: LogLiftModel, zk: complex, Q: float) -> bool:
    # the one rule turning an OverflowError of F at zk - kappa into a
    # proof of Re F > Q: inside the exp guard F itself overflowed (only a
    # lifted model's can), and the kind's floor for Re F decides; past it
    # Re exp(zk) = e^{Re zk} cos(Im zk) with e^{Re zk} astronomically
    # large, so the sign of cos decides
    if zk.real <= EXP_OVERFLOW_GUARD:
        return model.kind.overflow_floor(model, zk) > Q
    c = math.cos(zk.imag)
    if c > 0.0:
        # exp(zk) has a huge positive real part; every kind and every
        # catalog map has Re F -> infinity there
        return True
    if model.kind.two_sided(model):
        return c < 0.0  # the map also blows up toward -infinity
    limit = model.kind.asymptotic_value(model)
    if limit is None or limit == 0:
        return False
    return math.log(abs(limit)) > Q


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
    integer (an integral float, also as text, is accepted)."""
    try:
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            x = raw
            if isinstance(raw, str):  # long integer text keeps its exact value
                try:
                    x = int(raw)
                except ValueError:
                    x = float(raw)
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
    """Finite ``a+bi`` text, an ``[re, im]`` pair or a plain number.

    The error names the forms that ``raw``'s type can take: text, as on
    the command line, is never a pair.
    """
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
    forms = "a+bi or a number" if isinstance(raw, str) else "a+bi, [re, im] or a number"
    raise ConfigError(f"{field}: expected {forms}, got {raw!r}")


def plane_map_from_json(desc: dict) -> EntireMapSpec:
    """Plane map from its descriptor; an error names the failing field."""
    if not isinstance(desc, dict):
        raise ConfigError("map: must be a JSON object")
    family = desc.get("family")
    # a family that is not a string, such as a JSON list, names no row
    row = PLANE_FAMILIES.get(family) if isinstance(family, str) else None
    if row is None:
        raise ConfigError(f"map.family: unknown map family {family!r}")
    params = []
    for name in row.param_names:
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
    kind = MODEL_KINDS.get(family) if isinstance(family, str) else None
    if kind is None:
        raise ConfigError(f"model.family: unknown model family {family!r}")
    return LogLiftModel(family, half_plane_Q=Q, **kind.from_json(desc))


def model_to_json(model: LogLiftModel) -> dict:
    """Descriptor of a model; a translated model has none."""
    if model.kappa:
        raise ValueError("no descriptor expresses a translated model")
    own = model.kind.to_json(model)
    return {"family": model.family, **own, "Q": model.half_plane_Q}


def write_json(path, payload) -> None:
    """Every JSON artifact's encoding: indented strict JSON and a final
    newline; a NaN or infinity raises ValueError instead of being written."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
