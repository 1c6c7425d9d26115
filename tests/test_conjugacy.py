"""Unit tests for the pullback conjugacy towers and their diagnostics."""

import cmath
import json
import math
from collections import Counter

import numpy as np
import pytest

from tractlab import conjugacy, gridkernel, models, orbits, semiconj, tracts
from tractlab.errors import (
    CorrespondenceGap,
    DepthExceeded,
    DomainError,
    OrbitLeftJQ,
    PreconditionError,
    RangeError,
    SetupInvalid,
    TractlabError,
)
from tractlab.hypmetric import dist_half_plane
from tractlab.models import (
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    eval_F,
)
from tractlab.tracts import TractAddress, inverse_branch, tract_of

BASE = LogLiftModel("shifted_exp", R=10.0)
KAPPA = 0.3 + 0.2j
Q = 2.0


def _orbit(branches, length):
    addr = orbits.ExternalAddress.periodic(branches)
    return orbits.periodic_orbit(BASE, addr, Q, length)


def test_depth_for_tolerance_frozen_values():
    assert conjugacy.depth_for_tolerance(KAPPA, 1e-9) == 31
    assert conjugacy.depth_for_tolerance(0.0, 1e-9) == 0
    with pytest.raises(RangeError):
        conjugacy.depth_for_tolerance(KAPPA, 0.0)


def _depth_by_halving(kappa, tol):
    # the reference: halve the a priori bound until it is within tol
    n = 0
    while 2.0 * abs(kappa) * 2.0 ** (1 - n) > tol:
        n += 1
    return n


def test_depth_for_tolerance_matches_halving_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(2000):
        kappa = complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-12, 3)
        tol = 10.0 ** rng.uniform(-300, 5)
        power = math.ldexp(1.0, math.frexp(tol)[1])
        # exact powers of two and the bound itself after k halvings, with
        # their neighbours, are where a closed form could be off by one
        exact = 2.0 * abs(kappa) * 2.0 ** -int(rng.integers(-3, 200))
        for t in (tol, power, exact):
            for u in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)):
                if u >= 1e-300:
                    assert conjugacy.depth_for_tolerance(kappa, u) == (
                        _depth_by_halving(kappa, u)
                    ), (kappa, u)
                    checked += 1
    assert checked >= 15000
    assert conjugacy.depth_for_tolerance(KAPPA, math.inf) == 0


def test_theta_limit_depth_zero_tail_bounds_the_error():
    # tol >= 4|kappa| needs no tower level; theta = z is then off by up to
    # the full a priori bound 4|kappa|, not by 0
    orb = _orbit([0, 1], 60)
    s = conjugacy.theta_limit(BASE, KAPPA, orb[0], 2.0, Q, orbit=orb)
    exact = conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-12, Q, orbit=orb)
    assert s.depth == 0
    assert s.tail_bound == pytest.approx(4.0 * abs(KAPPA))
    assert abs(s.theta - exact.theta) <= s.tail_bound <= 2.0


def test_theta_limit_refuses_a_tolerance_past_the_depth_cap():
    assert conjugacy.depth_for_tolerance(KAPPA, 1e-200) > conjugacy.DEFAULT_MAX_DEPTH
    with pytest.raises(DepthExceeded):
        conjugacy.theta_limit(BASE, KAPPA, 4.5 + 0.0j, 1e-200, Q)


NAN = math.nan


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: conjugacy.depth_for_tolerance(KAPPA, NAN), RangeError),
        (lambda: conjugacy.theta_limit(BASE, KAPPA, 3.5, NAN, Q), RangeError),
        (
            lambda: conjugacy.theta_limit(BASE, KAPPA, 3.5, 1e-9, NAN),
            PreconditionError,
        ),
        (
            lambda: semiconj.semiconj_limit(
                semiconj.build_setup(0.5, 0.7, 2.0, 11.0), 25.0, NAN, 2.0
            ),
            RangeError,
        ),
        (lambda: semiconj.build_setup(0.5, NAN, 2.0, 11.0), SetupInvalid),
        (lambda: semiconj.build_setup(0.5, 0.7, NAN, 11.0), SetupInvalid),
        (lambda: semiconj.build_setup(0.5, 0.7, 2.0, NAN), SetupInvalid),
        (
            lambda: gridkernel.classify_window(
                EntireMapSpec.zexp(), gridkernel.Window(-1, 1, -1, 1), (4, 4), NAN, 5
            ),
            RangeError,
        ),
    ],
    ids=["depth_tol", "theta_tol", "theta_Q", "semiconj_tol", "setup_r_U",
         "setup_K", "setup_R", "grid_escape_radius"],
)
def test_nan_fails_range_checks(call, error):
    with pytest.raises(error):
        call()


def test_theta_n_base_cases():
    orb = _orbit([0], 12)
    z = orb[0]
    assert conjugacy.theta_n(BASE, KAPPA, z, 0, Q) == z
    assert conjugacy.theta_n(BASE, 0.0, z, 10, Q, orb) == z


def test_kappa_admissibility_guard():
    with pytest.raises(PreconditionError):
        conjugacy.theta_n(BASE, 0.6 + 0.4j, 3.0 + 0j, 5, Q)


def test_distance_bound_along_depths():
    orb = _orbit([1, -1], 42)
    for n in range(0, 41, 4):
        theta = conjugacy.theta_n(BASE, KAPPA, orb[0], n, Q, orb)
        assert abs(theta - orb[0]) <= 2.0 * abs(KAPPA) + 1e-9


def test_theta_limit_sample_fields():
    orb = _orbit([0, 1], 33)
    s = conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert s.depth == 31
    assert s.tail_bound <= 1e-9 + 1e-12
    assert s.residual <= 1e-12
    assert [t.branch_index for t in s.address_prefix.entries[:4]] == [0, 1, 0, 1]
    assert s.displacement() == abs(s.theta - s.z)
    payload = s.to_json()
    json.dumps(payload)  # must be serializable as-is
    assert payload["depth"] == 31


def test_equivariance_under_vertical_translation():
    orb = _orbit([0], 23)
    shifted = [orb[0] + TWO_PI * 1j] + orb[1:]
    a = conjugacy.theta_n(BASE, KAPPA, orb[0], 22, Q, orb)
    b = conjugacy.theta_n(BASE, KAPPA, orb[0] + TWO_PI * 1j, 22, Q, shifted)
    assert abs(b - (a + TWO_PI * 1j)) <= 1e-9


def test_conjugacy_residual_is_float_noise():
    orb = _orbit([1], 34)
    r = conjugacy.conjugacy_residual(BASE, KAPPA, orb[0], 31, Q, orb)
    fz = eval_F(BASE, orb[0])
    assert r <= 1e-10 * (1.0 + abs(fz))


def test_inverse_theta_roundtrip_on_member_cycle():
    member = BASE.translated(KAPPA)
    addr = orbits.ExternalAddress.periodic([20])
    w = orbits.periodic_orbit(member, addr, Q, 1)[0]
    gap = conjugacy.inverse_theta_check(BASE, KAPPA, w, 1e-9, Q, addr)
    assert gap <= 4e-9


def test_uniqueness_crosscheck_zero_on_cycles():
    depth = conjugacy.depth_for_tolerance(KAPPA, 1e-8)
    orbs = [_orbit([0], depth + 2), _orbit([1, -1], depth + 2)]
    worst = conjugacy.uniqueness_crosscheck(
        BASE, KAPPA, [o[0] for o in orbs], 1e-8, Q, orbs
    )
    assert worst <= 1e-10


def test_general_pullback_correspondence_gap():
    member = BASE.translated(KAPPA)
    orb = _orbit([0], 8)
    with pytest.raises(CorrespondenceGap):
        conjugacy.general_pullback(BASE, member, {}, orb[0], 6, Q, orbit=orb)


def _two_loop_pullback(F, G, correspondence, z, n, Q, increments=None, orbit=None):
    """general_pullback with one loop per tower and a second loop for the
    towers over F(z): the reference for the single pullback helper."""
    orbit, tracts = conjugacy._certified_orbit(F, z, n, Q, orbit)
    m = len(orbit) - 1

    def tower(depth):
        v = orbit[depth]
        for j in range(depth - 1, -1, -1):
            tract = conjugacy._resolve(correspondence, tracts[j])
            v = inverse_branch(G, tract, v, seed=orbit[j])
        return v

    if increments is None:
        return tower(m)
    values = [tower(j) for j in range(m + 1)]
    upstairs = []
    for j in range(m):
        v = orbit[j + 1]
        for i in range(j, 0, -1):
            tract = conjugacy._resolve(correspondence, tracts[i])
            v = inverse_branch(G, tract, v, seed=orbit[i])
        upstairs.append(v)
    for j in range(1, m):
        increments.append((
            dist_half_plane(Q, values[j + 1], values[j]),
            dist_half_plane(Q, upstairs[j], upstairs[j - 1]),
        ))
    return values[m]


def _pullback_cases():
    # (F, G, correspondence, z, depth, orbit): exact cycles of shifted_exp,
    # and escaping points of lifted families whose orbits may stop short
    shift = {k: k + 1 for k in range(-8, 9)}
    for branches, corr in (([0], None), ([0, 1], None), ([1, -1, 2], shift)):
        orb = _orbit(branches, 14)
        yield BASE, BASE.translated(KAPPA), corr, orb[0], 12, orb
    rng = np.random.default_rng(5)
    identity = {i: i for i in range(-3, 4)}
    lam, sinh, zexp = (_lifted(s) for s in (
        EntireMapSpec.lambda_expm1(0.5), EntireMapSpec.sinh(0.575), EntireMapSpec.zexp()
    ))
    for F in (lam, sinh, zexp):
        for _ in range(8):
            # points of the conjugacy_escaping benchmark, in tracts -3 .. 3
            k = int(rng.integers(-3, 4))
            z = complex(rng.uniform(3.0, 8.0), TWO_PI * k + rng.uniform(-0.5, 0.5))
            yield F, F.translated(KAPPA), identity, z, 6, None
    # orbits that stay in {Re > Q} for three steps before they saturate,
    # and whose pullbacks stay in their tracts, so they measure increments
    for F, z in ((sinh, 3.186 - 1.722j), (sinh, 3.031 + 1.784j), (zexp, 3.35 - 1.6j)):
        yield F, F.translated(KAPPA), identity, z, 6, None


def test_general_pullback_matches_the_two_loop_version():
    checked = measured = 0
    for F, G, corr, z, depth, orb in _pullback_cases():
        expected_inc, got_inc = [], []
        try:
            expected = _two_loop_pullback(F, G, corr, z, depth, Q, expected_inc, orb)
        except (TractlabError, OverflowError) as exc:
            # an orbit that leaves {Re > Q}, or a preimage out of reach
            with pytest.raises(type(exc)):
                conjugacy.general_pullback(F, G, corr, z, depth, Q, got_inc, orb)
            continue
        assert conjugacy.general_pullback(F, G, corr, z, depth, Q, got_inc, orb) == (
            expected
        )
        assert got_inc == expected_inc
        measured += len(got_inc) if F.plane_map is not None else 0
        assert conjugacy.general_pullback(F, G, corr, z, depth, Q, orbit=orb) == (
            _two_loop_pullback(F, G, corr, z, depth, Q, orbit=orb)
        )
        checked += 1
    assert checked >= 15, checked
    assert measured >= 5, measured


@pytest.mark.parametrize(
    "model",
    [BASE, LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))],
    ids=["shifted_exp", "lambda_expm1"],
)
def test_general_pullback_follows_a_shifted_correspondence(model):
    # F is 2 pi i periodic, so tract 0 -> tract 1 moves z by one period
    z = 3.0 + 0.01j
    theta = conjugacy.general_pullback(model, model, {0: 1}, z, 1, Q)
    assert abs(theta - (z + TWO_PI * 1j)) <= 1e-9


def test_general_pullback_increment_contraction():
    member = BASE.translated(KAPPA)
    orb = _orbit([0, 1], 14)
    increments = []
    conjugacy.general_pullback(BASE, member, None, orb[0], 12, Q, increments, orb)
    assert increments
    for d_new, d_arg in increments:
        assert d_new <= 0.5 * d_arg + 1e-12


def test_holomorphy_quotient_shrinks_quadratically():
    orb = _orbit([0, 1], 42)
    r1 = conjugacy.holomorphy_in_kappa(BASE, orb[0], 0.2 + 0j, 1e-3, Q, orb)
    r2 = conjugacy.holomorphy_in_kappa(BASE, orb[0], 0.2 + 0j, 5e-4, Q, orb)
    assert 3.0 <= r1 / r2 <= 5.0


def test_kappa_derivative_near_deep_tract_asymptotic():
    orb = _orbit([0, 1], 42)
    d = conjugacy.kappa_derivative(BASE, orb[0], 0.0 + 0j, 1e-3, Q, orb)
    assert abs(d + 1.0) < 0.3


def test_motion_dilatation_ceiling():
    assert conjugacy.motion_dilatation_ceiling(KAPPA, 3.0) == pytest.approx(
        abs(KAPPA)
    )
    with pytest.raises(RangeError):
        conjugacy.motion_dilatation_ceiling(KAPPA, 1.0)


def test_orbit_validation_rejects_bad_certificates():
    orb = _orbit([0], 33)
    with pytest.raises(OrbitLeftJQ):
        conjugacy.theta_n(BASE, KAPPA, orb[0] + 0.5, 31, Q, orb)
    with pytest.raises(RangeError):
        conjugacy.theta_n(BASE, KAPPA, orb[0], 31, Q, orb[:5])


def test_saturated_escaping_certificate_converges():
    # real escaping points saturate doubles in two steps; the truncated
    # tower still certifies because the error divides by |F'| per level
    s = conjugacy.theta_limit(BASE, KAPPA, 4.5 + 0.0j, 1e-9, Q)
    assert abs(s.theta - 4.5) <= 2.0 * abs(KAPPA)
    assert s.tail_bound <= 1e-9 + 1e-12


def test_report_writers(tmp_path):
    orb = _orbit([0], 33)
    s = conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    conjugacy.write_sample_report(jpath, [s], {"kappa": [KAPPA.real, KAPPA.imag]})
    conjugacy.write_sample_csv(cpath, [s])
    payload = json.loads(jpath.read_text())
    assert payload["summary"]["kappa"] == [0.3, 0.2]
    assert len(payload["samples"]) == 1
    assert cpath.read_text().count("\n") >= 2


def _lifted(spec):
    return LogLiftModel("lifted_entire", plane_map=spec)


# the six model families of the conjugacy_escaping benchmark, and a member
ESCAPING_MODELS = [
    BASE,
    _lifted(EntireMapSpec.lambda_expm1(0.5)),
    _lifted(EntireMapSpec.sinh(0.575)),
    _lifted(EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)),
    _lifted(EntireMapSpec.exp_affine(1.0, 0.5)),
    _lifted(EntireMapSpec.zexp()),
    _lifted(EntireMapSpec.sinh(0.575)).translated(0.2 + 3.0j),
]


@pytest.mark.parametrize("model", ESCAPING_MODELS, ids=[
    "shifted_exp", "lambda_expm1", "sinh", "exp_plus_kappa", "exp_affine",
    "zexp", "sinh_member"])
def test_certified_tracts_match_tract_of(model):
    # Im z = 2 pi k + pi puts the points of a two-sided row in inner branch 1
    rng = np.random.default_rng(11)
    inner_seen = set()
    checked = 0
    for _ in range(80):
        k = int(rng.integers(-3, 4))
        shift = math.pi if rng.random() < 0.5 else 0.0
        re = rng.uniform(3.0, 8.0)
        z = complex(re, TWO_PI * k + shift + rng.uniform(-0.5, 0.5))
        try:
            pts, addresses = conjugacy._certified_orbit(model, z, 4, Q)
        except OrbitLeftJQ:
            continue
        expected = [tract_of(model, p) for p in pts[:-1]]
        assert addresses == expected
        # the same orbit, supplied, gives the same addresses
        n = len(pts) - 1
        assert conjugacy._certified_orbit(model, z, n, Q, pts) == (pts, expected)
        inner_seen.update(t.inner_branch for t in expected)
        checked += 1
    assert checked >= 10
    if model.plane_map is not None and model.plane_map.row.two_sided:
        assert inner_seen == {0, 1}


def _ending_at(model, w, steps):
    """An orbit of ``steps`` steps ending at w, from tract-0 preimages."""
    pts = [complex(w)]
    for _ in range(steps):
        pts.insert(0, inverse_branch(model, TractAddress(0), pts[0]))
    return pts


def _rejected_orbits():
    # (model, z, orbit, depth, Q, error class, message); the messages are
    # those of the step-by-step scalar validation
    cyc = _orbit([0, 1], 8)
    sinh = _lifted(EntireMapSpec.sinh(0.575))
    # exp(z_sinh) = -701: past the guard on the negative side only
    z_sinh = complex(math.log(701.0), math.pi)
    beyond = cmath.log(0.575 * cmath.sinh(cmath.exp(z_sinh)))
    zexp = _lifted(EntireMapSpec.zexp())
    # (699.7 + 0.1) + 0.2 is past the guard, 699.7 + (0.1 + 0.2) is not
    nudged = BASE.translated(0.1).shifted(0.2)
    off_domain = 3.0 + math.pi * 1j
    return {
        "short": (BASE, None, cyc[:5], 7, Q, RangeError,
                  "supplied orbit covers 4 < 7 steps"),
        "non_finite": (BASE, None, cyc[:3] + [complex(math.nan, 0.0)] + cyc[4:],
                       7, Q, DomainError,
                       "orbit point must have finite components, got (nan+0j)"),
        "wrong_start": (BASE, cyc[0] + 0.5, cyc, 7, Q, OrbitLeftJQ,
                        f"supplied orbit does not start at {cyc[0] + 0.5!r}"),
        # 2.9 is in the domain and maps to Re 8.17 > Q
        "re_at_step": (BASE, None, [cmath.log(12.9), 2.9 + 0j, cmath.exp(2.9) - 10],
                       2, 3.0, OrbitLeftJQ,
                       "supplied orbit leaves {Re > 3} at step 1"),
        "re_at_last_step": (BASE, None, _ending_at(BASE, 1.5, 3), 3, Q, OrbitLeftJQ,
                            "supplied orbit leaves {Re > 2} at step 3"),
        "outside_domain": (BASE, None, _ending_at(BASE, off_domain, 2)
                           + [cmath.exp(off_domain) - 10], 3, Q, OrbitLeftJQ,
                           "supplied orbit invalid at step 2: z = (3+3.1415926"
                           "53589793j) is outside the domain (Re F = -30.0855 <= 0)"),
        "past_guard": (BASE, None, _ending_at(BASE, 701.0, 2) + [cmath.exp(701) - 10],
                       3, Q, OrbitLeftJQ,
                       "supplied orbit invalid at step 2: Re z = 701 exceeds the"
                       " exponent-overflow guard"),
        "past_guard_by_rounding": (nudged, None, _ending_at(nudged, 699.7, 1)
                                   + [cmath.exp(700.0) - 10.2], 2, Q, OrbitLeftJQ,
                                   "supplied orbit invalid at step 1: Re z = 700"
                                   " exceeds the exponent-overflow guard"),
        "past_two_sided_guard": (sinh, None, [z_sinh, beyond], 1, Q, OrbitLeftJQ,
                                 "supplied orbit invalid at step 0: Re z = -701"
                                 " exceeds the exponent-overflow guard"),
        "f_zero": (zexp, None, [-800.0 + 0j, 5.0 + 0j], 1, Q, OrbitLeftJQ,
                   "supplied orbit invalid at step 0: f(exp z) = 0 at z = (-800+0j);"
                   " log lift undefined"),
        "inconsistent": (BASE, None, cyc[:4] + [cyc[4] + 1e-3] + cyc[5:], 7, Q,
                         OrbitLeftJQ, "supplied orbit inconsistent at step 3"),
    }


@pytest.mark.parametrize("case", list(_rejected_orbits()))
def test_rejected_orbit_names_the_failing_step(case):
    model, z, orbit, n, Q_, error, message = _rejected_orbits()[case]
    with pytest.raises(error) as info:
        conjugacy.theta_n(model, KAPPA, orbit[0] if z is None else z, n, Q_, orbit)
    assert str(info.value) == message


def test_supplied_orbit_tower_makes_no_scalar_membership_calls(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("tract_of", tract_of), ("eval_F", eval_F)):
        for module in (models, tracts, orbits, conjugacy):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    orb = _orbit([0, 1], 42)
    theta = conjugacy.theta_n(BASE, KAPPA, orb[0], 40, Q, orb)
    assert abs(theta - orb[0]) <= 2.0 * abs(KAPPA)
    assert calls == {}
    # the wrappers do count: the residual evaluates F twice
    conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert calls == {"eval_F": 2}
