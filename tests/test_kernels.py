"""Equivalence of the model kernels with the formulas they replace.

``iterate`` steps on the value kernel, the lifted F' kernel decides
membership and its value from one f evaluation, and the address kernel
resolves two-sidedness once per model.  Each test runs the kernel and the
plain formula over the six model families of the escaping-point sweep,
their translated members and the guard edges, and requires the same
doubles, or the same exception class and message.
"""

import cmath
import math
import struct

import numpy as np
import pytest

from tractlab import orbits, tracts
from tractlab.errors import DomainError
from tractlab.models import (
    EXP_OVERFLOW_GUARD,
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    _member_past_overflow,
    domain_contains,
    require_finite,
)


def _lifted(spec, **kw):
    return LogLiftModel("lifted_entire", plane_map=spec, **kw)


FAMILIES = {
    "shifted_exp": LogLiftModel("shifted_exp", R=10.0),
    "lambda_expm1": _lifted(EntireMapSpec.lambda_expm1(0.5)),
    "sinh": _lifted(EntireMapSpec.sinh(0.575)),
    "exp_plus_kappa": _lifted(EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)),
    "exp_affine": _lifted(EntireMapSpec.exp_affine(1.0, 0.5)),
    "zexp": _lifted(EntireMapSpec.zexp()),
    # not in the sweep: f(e^z) = e - e = 0 at z = 0, where the log lift
    # has no value
    "f_zero": _lifted(EntireMapSpec.exp_affine(1.0, -math.e)),
}
LIFTED = [name for name in FAMILIES if name != "shifted_exp"]
KAPPAS = (0j, 0.3 + 0.2j, complex(-0.3, -0.0))


def _members(name):
    # the family's model and its translated members, at Q = 0 and Q = 2
    base = FAMILIES[name]
    for Q in (0.0, 2.0):
        for kappa in KAPPAS:
            yield LogLiftModel(base.family, base.R, base.plane_map, Q, kappa)


def _points(model):
    """Escaping-sweep points and the edges of both guards and of f = 0."""
    rng = np.random.default_rng(7)
    k = rng.integers(-3, 4, 40)
    pts = [complex(a, TWO_PI * b + c) for a, b, c in
           zip(rng.uniform(3.0, 8.0, 40), k, rng.uniform(-0.5, 0.5, 40))]
    kappa = model.kappa
    for d in (-0.1, -1e-13, 0.0, 1e-13, 0.1):
        # Re(z + kappa) near the model's guard
        pts.append(complex(EXP_OVERFLOW_GUARD + d, 0.3) - kappa.real)
        # Re e^(z + kappa) near +700 and -700, the plane map's guard
        for im in (0.0, -0.0, 1e-9, math.pi, -math.pi, math.pi - 1e-9):
            pts.append(complex(math.log(EXP_OVERFLOW_GUARD + d), im) - kappa)
    # f(e^(z + kappa)) = 0 for f_zero, and points with Re F near Q
    pts += [-kappa, 0j, complex(-0.0, -0.0), -3 + 0j, 0.5 + 3.1j, 1.2 - 1.5j]
    pts += [complex(math.log(x), y) for x in (10.5, 11.5, 12.5) for y in (0.0, 1.0)]
    return pts


def _outcome(fn, *args):
    # the doubles of a complex value, or the exception's class and message
    try:
        v = fn(*args)
    except (DomainError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return struct.pack("2d", v.real, v.imag)


def _dF_formula(model, z):
    # the lifted F' before it read f once: membership first, then
    # f'(zeta) zeta / f(zeta)
    if not domain_contains(model, z):
        raise DomainError(f"z = {z!r} is outside the domain")
    zk = z + model.kappa
    if zk.real > EXP_OVERFLOW_GUARD:
        raise OverflowError(f"Re z = {zk.real:g} exceeds the exponent-overflow guard")
    zeta = cmath.exp(zk)
    pm = model.plane_map
    return pm._df(zeta) * zeta / pm._f(zeta)


NONFINITE = [complex(1, math.inf), complex(math.inf, 0), complex(-math.inf, 1),
             complex(math.nan, 0), complex(1, math.nan)]


@pytest.mark.parametrize("name", LIFTED)
def test_lifted_dF_kernel_matches_the_checked_formula(name):
    seen = set()
    for model in _members(name):
        for z in _points(model) + NONFINITE:
            got = _outcome(model._dF, z)
            assert got == _outcome(_dF_formula, model, z), (model, z)
            seen.add(got[0] if isinstance(got, tuple) else "value")
    # every outcome class occurs: values, domain exits and guard overflows
    assert {"value", "DomainError", "OverflowError"} <= seen


def test_kernels_meet_a_zero_of_f():
    model = FAMILIES["f_zero"].translated(0.3 + 0.2j)
    z = -model.kappa
    assert model.plane_map._f(cmath.exp(z + model.kappa)) == 0
    assert _outcome(model._F_value, z + model.kappa) == (
        "DomainError", "f(exp z) = 0 at z = 0j; log lift undefined")
    assert _outcome(model._dF, z) == ("DomainError", f"z = {z!r} is outside the domain")
    rec = orbits.iterate(model, z, 3, 1.0)
    assert (rec.points, rec.addresses, rec.exit_step, rec.saturated) == ([z], [], 0, False)


def _address_formula(model, zk):
    return (round(zk.imag / TWO_PI),
            int(model.kind.two_sided(model) and math.cos(zk.imag) < 0.0))


def _iterate_loop(model, z, horizon, Q):
    # the loop before iterate stepped on the value kernel: the F kernel,
    # whose DomainError is a domain exit, then the comparison with Q
    z = require_finite(z)
    points, addresses = [z], []
    exit_step, saturated = None, False
    for step in range(horizon):
        cur = points[-1]
        zk = cur + model.kappa
        try:
            w = model._F(cur)
        except OverflowError:
            saturated = _member_past_overflow(model, zk, max(Q, model.half_plane_Q))
            if saturated:
                addresses.append(_address_formula(model, zk))
        except DomainError:
            pass
        else:
            if w.real > Q:
                addresses.append(_address_formula(model, zk))
                points.append(w)
                continue
        exit_step = step
        break
    return [struct.pack("2d", p.real, p.imag) for p in points], addresses, exit_step, saturated


@pytest.mark.parametrize("name", list(FAMILIES))
def test_iterate_keeps_the_records_of_the_F_kernel_loop(name):
    exits, saturated = set(), 0
    for model in _members(name):
        for z in _points(model):
            for Q in (1.0, 2.0, 3.0):
                rec = orbits.iterate(model, z, 6, Q)
                got = ([struct.pack("2d", p.real, p.imag) for p in rec.points],
                       [(a.branch_index, a.inner_branch) for a in rec.addresses],
                       rec.exit_step, rec.saturated)
                assert got == _iterate_loop(model, z, 6, Q), (model, z, Q)
                exits.add(rec.exit_step)
                saturated += rec.saturated
    # orbits end at the first step, later, saturated and not
    assert 0 in exits and len(exits) > 1 and saturated


@pytest.mark.parametrize("name", list(FAMILIES))
def test_address_kernel_is_the_address_rule(name):
    edges = [complex(0, y) for y in (0.0, -0.0, math.pi / 2, -math.pi / 2,
                                     math.pi, -math.pi, 3 * math.pi, TWO_PI * 2.5)]
    for model in _members(name):
        for zk in _points(model) + edges:
            zk = zk + model.kappa
            k, inner = _address_formula(model, zk)
            got = model._address(zk)
            assert (got.branch_index, got.inner_branch) == (k, inner), (model, zk)
            # one shared instance per address
            assert got is tracts._interned(k, bool(inner))
