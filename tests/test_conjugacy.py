"""Unit tests for the pullback conjugacy towers and their diagnostics."""

import cmath
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab import conjugacy, gridkernel, models, orbits, semiconj, tracts
from tractlab.errors import (
    DepthExceeded,
    DomainError,
    OrbitLeftJQ,
    PreconditionError,
    RangeError,
    SetupInvalid,
    TractlabError,
)
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


def _every_cycle(max_period):
    # the branch indices of every cycle of period 1 .. max_period in -3 .. 3
    for period in range(1, max_period + 1):
        yield from itertools.product(range(-3, 4), repeat=period)


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


def test_theta_n_refuses_a_negative_depth():
    with pytest.raises(RangeError, match="depth must be nonnegative"):
        conjugacy.theta_n(BASE, KAPPA, 3.0 + 0j, -1, Q)


def test_conjugacy_residual_is_zero_at_kappa_zero():
    # Theta is the identity, so the residual is exactly zero at any depth
    orb = _orbit([0], 12)
    assert conjugacy.conjugacy_residual(BASE, 0.0, orb[0], 10, Q, orb) == 0.0


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


def _two_map_tower(F, G, z, n, orbit=None):
    """Theta_{j+1}(z) = G_T^{-1}(Theta_j(F(z))), T the G-tract with the
    address of z's F-tract, each Newton solve seeded at the F-orbit point
    (F and G have kappa = 0, so it lies in G's coordinates too)."""
    pts, addresses = conjugacy._prove(F, z, n, Q, orbit).upto(n)
    return conjugacy._pullback_tower(G, 0j, pts, addresses, n)[0]


def _two_loop_pullback(F, G, z, n, orbit=None):
    """The towers of every depth up to n, one inverse_branch loop per
    tower: the reference for _two_map_tower's single loop."""
    orbit, tracts = conjugacy._prove(F, z, n, Q, orbit).upto(n)
    values = []
    for depth in range(len(orbit)):
        v = orbit[depth]
        for j in range(depth - 1, -1, -1):
            v = inverse_branch(G, tracts[j], v, seed=orbit[j])
        values.append(v)
    return values


def _pullback_cases():
    # (F, G, z, depth, orbit): exact cycles of shifted_exp against another
    # R, and escaping points of lifted families, against a post-translated
    # member, whose orbits may stop short
    G = LogLiftModel("shifted_exp", R=10.5)
    for branches in ([0], [0, 1], [1, -1, 2]):
        orb = _orbit(branches, 14)
        yield BASE, G, orb[0], 12, orb
    rng = np.random.default_rng(5)
    for make, lam in ((EntireMapSpec.lambda_expm1, 0.5), (EntireMapSpec.sinh, 0.575)):
        F, G = _lifted(make(lam)), _lifted(make(lam * cmath.exp(0.1 + 0.05j)))
        for _ in range(8):
            # points of the conjugacy_escaping benchmark, in tracts -3 .. 3
            k = int(rng.integers(-3, 4))
            z = complex(rng.uniform(3.0, 8.0), TWO_PI * k + rng.uniform(-0.5, 0.5))
            yield F, G, z, 6, None


def test_general_pullback_matches_the_two_loop_version():
    checked = 0
    for F, G, z, depth, orb in _pullback_cases():
        try:
            expected = _two_loop_pullback(F, G, z, depth, orb)
        except (TractlabError, OverflowError) as exc:
            # an orbit that leaves {Re > Q}, or a preimage out of reach
            with pytest.raises(type(exc)):
                _two_map_tower(F, G, z, depth, orb)
            continue
        assert _two_map_tower(F, G, z, depth, orb) == expected[-1]
        if orb is not None:
            # on an exact cycle every shallower tower is one too
            assert [
                _two_map_tower(F, G, z, n, orb) for n in range(len(expected))
            ] == expected
        checked += 1
    assert checked >= 15, checked


def _conjugacy_defect(F, G, z, n, orbit=None):
    # |G(Theta_n(z)) - Theta_{n-1}(F(z))| relative to |Theta_{n-1}(F(z))|
    theta = _two_map_tower(F, G, z, n, orbit)
    tail = None if orbit is None else orbit[1:]
    theta_fz = _two_map_tower(F, G, eval_F(F, z), n - 1, tail)
    return abs(eval_F(G, theta) - theta_fz) / (1.0 + abs(theta_fz))


@pytest.mark.parametrize(
    "make, lam",
    [(EntireMapSpec.lambda_expm1, 0.5), (EntireMapSpec.sinh, 0.575)],
    ids=["lambda_expm1", "sinh"],
)
def test_general_pullback_conjugates_a_post_translated_pair(make, lam):
    # G = lambda e^sigma (...) is F plus sigma in log coordinates, not a
    # translation F(. + kappa); the tower still satisfies
    # G o Theta_6 = Theta_5 o F up to rounding, on points of the
    # conjugacy_escaping kind
    F, G = _lifted(make(lam)), _lifted(make(lam * cmath.exp(0.1 + 0.05j)))
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        k = int(rng.integers(-3, 4))
        z = complex(rng.uniform(3.0, 8.0), TWO_PI * k + rng.uniform(-0.5, 0.5))
        try:
            defect = _conjugacy_defect(F, G, z, 6)
        except (TractlabError, OverflowError):
            continue
        assert defect <= 1e-12, (z, defect)
        checked += 1
    assert checked >= 50, checked


def test_general_pullback_conjugates_shifted_exp_of_another_r():
    # e^z - 10.5 is e^z - 10 post-translated by -0.5; deep towers on exact
    # cycles conjugate the two, and have converged
    G = LogLiftModel("shifted_exp", R=10.5)
    for branches in ([0], [0, 1], [2, -1, 0]):
        orb = _orbit(branches, 42)
        assert _conjugacy_defect(BASE, G, orb[0], 40, orb) <= 1e-12
        deep = _two_map_tower(BASE, G, orb[0], 40, orb)
        step = deep - _two_map_tower(BASE, G, orb[0], 39, orb)
        assert abs(step) <= 1e-12
        assert 0.0 < abs(deep - orb[0]) <= 1.0


def test_holomorphy_quotient_shrinks_quadratically():
    # the central-difference Wirtinger quotient |dTheta/d(conj kappa)| of
    # the depth-40 tower is O(h^2) for a tower holomorphic in kappa
    orb = _orbit([0, 1], 42)
    pts, addresses = conjugacy._prove(BASE, orb[0], 40, Q, orb).upto(40)

    def quotient(kappa0, h):
        tp, tm, tip, tim = (
            conjugacy._pullback_tower(BASE, k, pts, addresses, 40)[0]
            for k in (kappa0 + h, kappa0 - h, kappa0 + 1j * h, kappa0 - 1j * h)
        )
        return abs((tp - tm) + 1j * (tip - tim)) / (4.0 * h)

    r1, r2 = quotient(0.2 + 0j, 1e-3), quotient(0.2 + 0j, 5e-4)
    assert 3.0 <= r1 / r2 <= 5.0


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
    jpath = tmp_path / "r.json"
    conjugacy.write_sample_report(jpath, [s], {"kappa": [KAPPA.real, KAPPA.imag]})
    payload = json.loads(jpath.read_text())
    assert payload["summary"]["kappa"] == [0.3, 0.2]
    assert len(payload["samples"]) == 1
    # a value JSON cannot hold is refused, not written as NaN
    with pytest.raises(ValueError):
        conjugacy.write_sample_report(jpath, [s], {"x": math.nan})


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
    inner_seen, saturated_inner = set(), set()
    checked = 0
    for _ in range(80):
        k = int(rng.integers(-3, 4))
        shift = math.pi if rng.random() < 0.5 else 0.0
        re = rng.uniform(3.0, 8.0)
        z = complex(re, TWO_PI * k + shift + rng.uniform(-0.5, 0.5))
        # iterate records the address of every point it proved in V, a
        # saturated last point too, and external_address reads them back
        rec = orbits.iterate(model, z, 4, Q)
        assert len(rec.addresses) == len(rec.points) - 1 + rec.saturated
        proved = rec.points[: len(rec.addresses)]
        assert rec.addresses == [tract_of(model, p) for p in proved]
        if rec.addresses:
            got = orbits.external_address(model, z, len(rec.addresses))
            assert list(got.entries) == rec.addresses
        if rec.saturated:
            saturated_inner.add(rec.addresses[-1].inner_branch)
        try:
            pts, addresses = conjugacy._prove(model, z, 4, Q).upto(4)
        except OrbitLeftJQ:
            continue
        # the proof holds the record's addresses, a saturated last point's too
        assert addresses == rec.addresses
        expected = [tract_of(model, p) for p in pts[:-1]]
        # the same orbit, supplied, gives the addresses of all but its last point
        n = len(pts) - 1
        assert conjugacy._prove(model, z, n, Q, pts).upto(n) == (pts, expected)
        assert addresses[:n] == expected
        inner_seen.update(t.inner_branch for t in expected)
        checked += 1
    assert checked >= 10 and saturated_inner
    if model.plane_map is not None and model.plane_map.row.two_sided:
        assert inner_seen == saturated_inner == {0, 1}


def _ending_at(model, w, steps):
    """An orbit of ``steps`` steps ending at w, from tract-0 preimages."""
    pts = [complex(w)]
    for _ in range(steps):
        pts.insert(0, inverse_branch(model, TractAddress(0), pts[0]))
    return pts


def _rejected_orbits():
    # (model, z, orbit, depth, Q, error class, message); the messages are
    # those of the step-by-step scalar validation, and a list with two
    # faults is refused at the first
    cyc = _orbit([0, 1], 8)
    sinh = _lifted(EntireMapSpec.sinh(0.575))
    # exp(z_sinh) = -701: past the guard on the negative side only
    z_sinh = complex(math.log(701.0), math.pi)
    beyond = cmath.log(0.575 * cmath.sinh(cmath.exp(z_sinh)))
    zexp = _lifted(EntireMapSpec.zexp())
    # 699.7 + kappa rounds to the double just past the guard at 700
    nudged = BASE.translated(0.3000000000000682)
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
                       "supplied orbit invalid at step 2: Re(z + kappa) = 701"
                       " exceeds the exponent-overflow guard"),
        "past_guard_by_rounding": (nudged, None, _ending_at(nudged, 699.7, 1)
                                   + [cmath.exp(700.0) - 10], 2, Q, OrbitLeftJQ,
                                   "supplied orbit invalid at step 1: Re(z + kappa) ="
                                   " 700 exceeds the exponent-overflow guard"),
        "past_two_sided_guard": (sinh, None, [z_sinh, beyond], 1, Q, OrbitLeftJQ,
                                 "supplied orbit invalid at step 0: Re z = -701"
                                 " exceeds the exponent-overflow guard"),
        "f_zero": (zexp, None, [-800.0 + 0j, 5.0 + 0j], 1, Q, OrbitLeftJQ,
                   "supplied orbit invalid at step 0: f(exp(z + kappa)) = 0 at"
                   " z + kappa = (-800+0j); log lift undefined"),
        "inconsistent": (BASE, None, cyc[:4] + [cyc[4] + 1e-3] + cyc[5:], 7, Q,
                         OrbitLeftJQ, "supplied orbit inconsistent at step 3"),
        # depth 0 checks the orbit too
        "wrong_start_at_depth_0": (BASE, cyc[0], [7 + 0j], 0, Q, OrbitLeftJQ,
                                   f"supplied orbit does not start at {cyc[0]!r}"),
        "empty": (BASE, cyc[0], [], 0, Q, RangeError, "supplied orbit is empty"),
        "inconsistent_and_short": (BASE, None, cyc[:3] + [cyc[3] + 1e-3, cyc[4]], 7, Q,
                                   OrbitLeftJQ, "supplied orbit inconsistent at step 2"),
        "inconsistent_then_non_finite": (BASE, None, cyc[:3] + [cyc[3] + 1e-3]
                                         + [complex(math.nan, 0.0)] + cyc[5:], 7, Q,
                                         OrbitLeftJQ,
                                         "supplied orbit inconsistent at step 2"),
    }


@pytest.mark.parametrize("case", list(_rejected_orbits()))
def test_rejected_orbit_names_the_failing_step(case):
    conjugacy._orbit_proof.cache_clear()
    model, z, orbit, n, Q_, error, message = _rejected_orbits()[case]
    for _ in range(2):  # the second run meets the orbit's remembered proof
        with pytest.raises(error) as info:
            conjugacy.theta_n(model, KAPPA, orbit[0] if z is None else z, n, Q_, orbit)
        assert str(info.value) == message


def test_a_changed_orbit_is_proved_again():
    conjugacy._orbit_proof.cache_clear()
    orb = _orbit([0, 1], 10)
    conjugacy.theta_n(BASE, KAPPA, orb[0], 8, Q, orb)
    orb[5] += 1e-3
    with pytest.raises(OrbitLeftJQ) as info:
        conjugacy.theta_n(BASE, KAPPA, orb[0], 8, Q, orb)
    assert str(info.value) == "supplied orbit inconsistent at step 4"


def test_orbits_differing_in_a_signed_zero_keep_their_own_points():
    # the real fixed point of e^z - 10; the orbits compare equal point by
    # point but differ in the sign of every imaginary part
    conjugacy._orbit_proof.cache_clear()
    x = _orbit([0], 1)[0].real
    for sign in (0.0, -0.0, 0.0):  # +0.0 again, after -0.0 was proved
        orb = [complex(x, sign)] * 6
        pts, addresses = conjugacy._prove(BASE, orb[0], 5, Q, orb).upto(5)
        assert repr(pts) == repr(orb)
        assert addresses == [TractAddress(0)] * 5


def test_models_differing_in_a_signed_zero_keep_their_own_proofs():
    # the models compare equal, but at z = 5 f(exp z) is a negative real
    # whose imaginary zero takes the parameters' sign, so Im F = -pi for
    # one and +pi for the other
    conjugacy._orbit_proof.cache_clear()
    neg, pos = (
        _lifted(EntireMapSpec.exp_affine(complex(-1.0, s), complex(100.0, s)))
        for s in (-0.0, 0.0)
    )
    assert neg == pos
    orb = [5.0 + 0j, eval_F(neg, 5.0 + 0j)]
    assert conjugacy._prove(neg, orb[0], 1, Q, orb).upto(1)[0] == orb
    with pytest.raises(OrbitLeftJQ) as info:
        conjugacy._prove(pos, orb[0], 1, Q, orb).upto(1)
    assert str(info.value) == "supplied orbit inconsistent at step 0"


def test_a_fault_past_the_depth_does_not_reach_it():
    # each faulty orbit first differs from the cycle at point 7
    conjugacy._orbit_proof.cache_clear()
    clean = _orbit([0, 1], 10)
    faults = [
        (clean[:7] + [clean[7] + 1e-3] + clean[8:], OrbitLeftJQ,
         "supplied orbit inconsistent at step 6"),
        (clean[:7] + [complex(math.nan, 0.0)] + clean[8:], DomainError,
         "orbit point must have finite components, got (nan+0j)"),
        (clean[:7] + [complex(math.inf, 0.0)] * 2 + clean[9:], DomainError,
         "orbit point must have finite components, got (inf+0j)"),
        # None converts to nan, a point that is not finite
        (clean[:7] + [None] + clean[8:], DomainError,
         "orbit point must have finite components, got (nan+nanj)"),
    ]
    # a point that does not convert refuses the list at every depth
    unconverted = [
        (clean[:7] + ["not a number"] + clean[8:], ValueError,
         "complex() arg is a malformed string"),
        (clean[:7] + [10**400] + clean[8:], OverflowError,
         "int too large to convert to float"),
    ]
    cases = [(7, *fault) for fault in faults] + [(0, *fault) for fault in unconverted]
    for first, orbit, error, message in cases:
        for n in range(len(clean)):
            if n < first:
                got = conjugacy.theta_n(BASE, KAPPA, clean[0], n, Q, orbit)
                assert got == conjugacy.theta_n(BASE, KAPPA, clean[0], n, Q, clean)
                continue
            with pytest.raises(error) as info:
                conjugacy.theta_n(BASE, KAPPA, clean[0], n, Q, orbit)
            assert str(info.value) == message
    # theta_limit at depth 6 proves point 7 for its residual: a point there
    # that is not a finite number raises, where a wrong one gives a NaN
    tol = 2.0 * abs(KAPPA) * 2.0**-5
    assert conjugacy.depth_for_tolerance(KAPPA, tol) == 6
    sample = conjugacy.theta_limit(BASE, KAPPA, clean[0], tol, Q, faults[0][0])
    assert math.isnan(sample.residual)
    for orbit, error, message in faults[1:] + unconverted:
        with pytest.raises(error) as info:
            conjugacy.theta_limit(BASE, KAPPA, clean[0], tol, Q, orbit)
        assert str(info.value) == message


def test_a_supplied_iterate_record_is_refused_at_once(monkeypatch):
    # an iterate record is not an orbit argument: no tower reads it, so it
    # can neither skip the start check nor reach past its points
    other = orbits.iterate(BASE, 3.5 + 0j, 3, Q)
    assert other.certified
    with pytest.raises(OrbitLeftJQ) as info:  # its points, as a list
        conjugacy.theta_n(BASE, KAPPA, 4.5 + 0j, 3, Q, other.points)
    assert str(info.value) == "supplied orbit does not start at (4.5+0j)"
    # saturated at its only point, within 1e-9 of z = 700, where F(z) is finite
    saturated = orbits.iterate(BASE, 700 + 1e-9, 32, Q)
    assert saturated.saturated and len(saturated.points) == 1

    def unreached(*args):
        raise AssertionError("a supplied record was proved")

    monkeypatch.setattr(conjugacy, "iterate", unreached)
    monkeypatch.setattr(conjugacy, "_orbit_proof", unreached)
    for fn, args in (
        (conjugacy.theta_n, (BASE, KAPPA, 4.5 + 0j, 3, Q, other)),
        (conjugacy.theta_limit, (BASE, KAPPA, 700 + 0j, 1e-9, Q, saturated)),
        (conjugacy.conjugacy_residual, (BASE, KAPPA, 3.5 + 0j, 2, Q, other)),
        (conjugacy.conjugacy_residual, (BASE, KAPPA, 700 + 0j, 31, Q, saturated)),
    ):
        with pytest.raises(TypeError):
            fn(*args)


def test_a_supplied_array_is_the_list_it_holds():
    # an array converts to the bytes the list does: one value, one memo entry
    o = _orbit([0, 1], 8)
    from_list = conjugacy.theta_n(BASE, KAPPA, o[0], 5, Q, o)
    before = conjugacy._orbit_proof.cache_info()
    from_array = conjugacy.theta_n(BASE, KAPPA, o[0], 5, Q, np.array(o))
    after = conjugacy._orbit_proof.cache_info()
    assert repr(from_array) == repr(from_list)
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    with pytest.raises(RangeError, match="supplied orbit is empty"):
        conjugacy.theta_n(BASE, KAPPA, o[0], 5, Q, np.array([], complex))


def _validate_orbit_reference(base, z, n, Q_, orbit):
    # the supplied-orbit validation as it stood before proofs were
    # remembered: one array pass over the first n steps, every call
    if len(orbit) < n + 1:
        raise RangeError(f"supplied orbit covers {len(orbit) - 1} < {n} steps")
    head = orbit[: n + 1]
    try:
        arr = np.array(head)
        numeric = arr.ndim == 1 and arr.dtype.kind in "biufc"
    except ValueError:
        numeric = False
    if numeric:
        arr = arr.astype(np.complex128, copy=False)
    if not (numeric and np.isfinite(arr).all()):
        arr = np.array([models.require_finite(p, "orbit point") for p in head])
    pts = arr.tolist()
    if abs(pts[0] - z) > 1e-9 * (1.0 + abs(z)):
        raise OrbitLeftJQ(f"supplied orbit does not start at {z!r}")
    w, ok = models._eval_F_array(base, arr[:n])
    ok &= np.abs(w - arr[1:]) <= 1e-6 * (1.0 + np.abs(w))
    ok[1:] &= arr[1:n].real > Q_
    for i in range(n if ok.all() else int(np.argmin(ok)), n):
        if i >= 1 and pts[i].real <= Q_:
            raise OrbitLeftJQ(f"supplied orbit leaves {{Re > {Q_:g}}} at step {i}")
        try:
            nxt = eval_F(base, pts[i])
        except (DomainError, OverflowError) as exc:
            raise OrbitLeftJQ(f"supplied orbit invalid at step {i}: {exc}") from exc
        if abs(nxt - pts[i + 1]) > 1e-6 * (1.0 + abs(nxt)):
            raise OrbitLeftJQ(f"supplied orbit inconsistent at step {i}")
    if n >= 1 and pts[n].real <= Q_:
        raise OrbitLeftJQ(f"supplied orbit leaves {{Re > {Q_:g}}} at step {n}")
    return pts, [base._address(p + base.kappa) for p in pts[:n]]


def _proved_upto(base, z, n, Q_, orbit):
    return conjugacy._prove(base, z, n, Q_, orbit).upto(n)


def _outcome(fn, *args):
    try:
        pts, addresses = fn(*args)
    except TractlabError as exc:
        return type(exc), str(exc)
    return repr(pts), addresses


SINH = _lifted(EntireMapSpec.sinh(0.575))
# (model, branch indices, Q) of exact cycles to perturb
PERTURBED_CYCLES = [
    (BASE, [0, 1], Q),
    (BASE, [-2, 0, 3], Q),
    (BASE.translated(KAPPA), [1], Q),
    (SINH, [0], 0.5),
]


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(0, len(PERTURBED_CYCLES) - 1),
    where=st.integers(0, 11),
    delta=st.sampled_from([0.0, -0.0, 1e-12, 1e-7j, 1e-5, -1e-3j, 0.5, -3.0,
                           10.0 + 2.0j, math.inf]),
    depths=st.lists(st.integers(0, 11), min_size=1, max_size=6),
)
def test_remembered_proofs_match_the_validation_they_replace(
    case, where, delta, depths
):
    conjugacy._orbit_proof.cache_clear()
    model, branches, Q_ = PERTURBED_CYCLES[case]
    address = orbits.ExternalAddress.periodic(branches)
    orbit = orbits.periodic_orbit(model, address, Q_, 12)
    if delta == 0.0 and math.copysign(1.0, delta) < 0.0:
        # the same point with the sign of its imaginary zero flipped
        orbit[where] = complex(orbit[where].real, -orbit[where].imag)
    else:
        orbit[where] += delta
    z = orbit[0]
    for n in depths + depths:  # each depth again, against a warm memo
        expected = _outcome(_validate_orbit_reference, model, z, n, Q_, orbit)
        got = _outcome(_proved_upto, model, z, n, Q_, orbit)
        assert got == expected


def _orbits_of_every_point_kind():
    # (name, orbit, z): each kind of point a caller may supply
    cyc = _orbit([0, 1], 12)
    x = _orbit([0], 1)[0].real  # the real fixed point of e^z - 10
    yield "ints", [round(p.real) for p in cyc], cyc[0]
    yield "an int", cyc[:4] + [round(cyc[4].real)] + cyc[5:], cyc[0]
    yield "floats", [x] * 12, complex(x)
    yield "a float", cyc[:4] + [cyc[4].real] + cyc[5:], cyc[0]
    yield "numpy", [np.complex128(p) for p in cyc], cyc[0]
    yield "text", [repr(p) for p in cyc], cyc[0]
    yield "a text", cyc[:4] + ["(2.2-0.2j)"] + cyc[5:], cyc[0]
    yield "a None", cyc[:4] + [None] + cyc[5:], cyc[0]


@pytest.mark.parametrize("kind", [name for name, _, _ in _orbits_of_every_point_kind()])
def test_every_kind_of_point_meets_the_validation_it_replaces(kind):
    # np.fromiter converts every point as complex() does, and None to nan:
    # the reference validation sees the nan point in its place
    conjugacy._orbit_proof.cache_clear()
    (orbit, z), = [(o, z) for name, o, z in _orbits_of_every_point_kind() if name == kind]
    nan = complex(math.nan, math.nan)
    reference = [nan if p is None else p for p in orbit]
    for n in list(range(11)) * 2:  # each depth again, against a warm memo
        expected = _outcome(_validate_orbit_reference, BASE, z, n, Q, reference)
        assert _outcome(_proved_upto, BASE, z, n, Q, orbit) == expected


def _inverse_branch_chain(base, kappa, z, n, Q_, orbit=None):
    """theta_n as the chain inverse_branch(base, tract, theta, seed) - kappa,
    one call per level: the reference for the tower's level kernel."""
    pts, addresses = conjugacy._prove(base, z, n, Q_, orbit).upto(n)
    theta = pts[-1]
    for j in range(len(pts) - 2, -1, -1):
        theta = inverse_branch(base, addresses[j], theta, seed=pts[j]) - kappa
    return theta


def _lifted_escaping_points():
    # points of the conjugacy_escaping benchmark, in tracts -3 .. 3, 8 on
    # each of three lifted families; some orbits stop short or fail
    rng = np.random.default_rng(5)
    for spec in (EntireMapSpec.lambda_expm1(0.5), EntireMapSpec.sinh(0.575),
                 EntireMapSpec.zexp()):
        F = _lifted(spec)
        for _ in range(8):
            k = int(rng.integers(-3, 4))
            yield F, complex(rng.uniform(3.0, 8.0), TWO_PI * k + rng.uniform(-0.5, 0.5))


def _value_or_error_type(fn, *args):
    try:
        return repr(fn(*args))
    except (TractlabError, OverflowError) as exc:
        return type(exc)


def test_level_kernel_matches_the_inverse_branch_chain():
    member = BASE.translated(KAPPA)  # a base whose own kappa is nonzero
    for base in (BASE, member):
        for branches in _every_cycle(3):
            address = orbits.ExternalAddress.periodic(list(branches))
            orb = orbits.periodic_orbit(base, address, Q, 43)
            for n in range(43):
                got = conjugacy.theta_n(base, KAPPA, orb[0], n, Q, orb)
                expected = _inverse_branch_chain(base, KAPPA, orb[0], n, Q, orb)
                assert repr(got) == repr(expected), (base, branches, n)
    # saturating orbits: the truncated path, closed form and Newton
    sinh, zexp = _lifted(EntireMapSpec.sinh(0.575)), _lifted(EntireMapSpec.zexp())
    for base, z in ((BASE, 4.5 + 0j), (BASE, 3.5 + 0.2j), (BASE, 5.0 - 0.4j),
                    (sinh, 3.186 - 1.722j), (zexp, 3.35 - 1.6j)):
        assert 2 <= len(conjugacy._prove(base, z, 12, Q).upto(12)[0]) < 13
        for n in range(13):
            got = conjugacy.theta_n(base, KAPPA, z, n, Q)
            expected = _inverse_branch_chain(base, KAPPA, z, n, Q)
            assert repr(got) == repr(expected), (base, z, n)
    values = 0
    for base, z in _lifted_escaping_points():
        for n in range(7):
            expected = _value_or_error_type(_inverse_branch_chain, base, KAPPA, z, n, Q)
            got = _value_or_error_type(conjugacy.theta_n, base, KAPPA, z, n, Q)
            assert got == expected, (base, z, n)
            values += isinstance(got, str)
    assert values >= 100, values


def _level_check_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except RangeError as exc:
        return RangeError, str(exc)


def test_every_tower_level_keeps_the_inverse_branch_checks():
    # the cycle lies at Re ~ 2.5 > 2.4, so it is a valid orbit of the
    # model with Q = 2.4; each level moves the value by -kappa, to Re ~ 2.2,
    # so the level after it is refused as inverse_branch refuses it
    conjugacy._orbit_proof.cache_clear()
    high = LogLiftModel("shifted_exp", R=10.0, half_plane_Q=2.4)
    orb = _orbit([0, 1], 14)
    assert min(p.real for p in orb) > 2.4
    refused = 0
    for n in list(range(13)) * 2:  # each depth again, against a warm memo
        expected = _level_check_outcome(_inverse_branch_chain, high, KAPPA, orb[0], n, Q, orb)
        got = _level_check_outcome(conjugacy.theta_n, high, KAPPA, orb[0], n, Q, orb)
        assert got == expected, n
        refused += got[0] is RangeError
    assert refused == 2 * 11  # every depth from 2 on
    depth = conjugacy.depth_for_tolerance(KAPPA, 1e-3)
    expected = _level_check_outcome(_inverse_branch_chain, high, KAPPA, orb[0], depth, Q, orb)
    assert expected[0] is RangeError
    assert _level_check_outcome(
        conjugacy.theta_limit, high, KAPPA, orb[0], 1e-3, Q, orb
    ) == expected


def test_depth_sweep_proves_each_supplied_orbit_once(monkeypatch):
    # a tower_periodic job: 41 depths and theta_limit on one exact cycle
    # run the array pass once, on the whole orbit; the residual reads the
    # orbit of F(z) as the tail of theta_limit's proof
    conjugacy._orbit_proof.cache_clear()
    lengths = []
    array_pass = conjugacy._eval_F_array

    def counting(model, z):
        lengths.append(len(z))
        return array_pass(model, z)

    monkeypatch.setattr(conjugacy, "_eval_F_array", counting)
    orb = _orbit([0, 1], 43)
    for n in range(41):
        conjugacy.theta_n(BASE, KAPPA, orb[0], n, Q, orb)
    conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert lengths == [42]


def test_depth_sweep_converts_a_text_orbit_once(monkeypatch):
    # the cycle as repr text is converted whole at every depth, so the
    # sweep has one memo key and makes one array pass
    orb = _orbit([0, 1], 43)
    expected = [conjugacy.theta_n(BASE, KAPPA, orb[0], n, Q, orb) for n in range(41)]
    conjugacy._orbit_proof.cache_clear()
    lengths = []
    array_pass = conjugacy._eval_F_array

    def counting(model, z):
        lengths.append(len(z))
        return array_pass(model, z)

    monkeypatch.setattr(conjugacy, "_eval_F_array", counting)
    text = [repr(p) for p in orb]
    got = [conjugacy.theta_n(BASE, KAPPA, orb[0], n, Q, text) for n in range(41)]
    assert got == expected
    assert lengths == [42]


def test_depth_sweep_checks_a_faulty_orbit_once(monkeypatch):
    # one verdict per list: 12 depths over an orbit whose step 6 fails run
    # the scalar checks once, from the step the array pass rejects
    conjugacy._orbit_proof.cache_clear()
    steps = []
    scalar = conjugacy.eval_F

    def counting(model, z):
        steps.append(z)
        return scalar(model, z)

    monkeypatch.setattr(conjugacy, "eval_F", counting)
    clean = _orbit([0, 1], 12)
    orbit = clean[:7] + [clean[7] + 1e-3] + clean[8:]
    refused = 0
    for n in range(12):
        try:
            conjugacy.theta_n(BASE, KAPPA, clean[0], n, Q, orbit)
        except OrbitLeftJQ as exc:
            assert n >= 7 and str(exc) == "supplied orbit inconsistent at step 6"
            refused += 1
    assert refused == 5
    assert steps == [clean[6]]


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
    # the wrappers do count: the residual checks F(z) with eval_F (and
    # evaluates F_kappa through the member's kernel)
    conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert calls == {"eval_F": 1}


def test_proved_steps_fall_below_depth_exactly_where_the_orbit_saturates():
    z = 4.5 + 0j
    sample = conjugacy.theta_limit(BASE, KAPPA, z, 1e-9, Q)
    rec = orbits.iterate(BASE, z, sample.depth + 1, Q)
    assert rec.saturated and sample.proved_steps == rec.exit_step == 2
    assert sample.proved_steps < sample.depth == 31
    # an exact cycle is proved to the tower's full depth
    orb = _orbit([1, -2], 33)
    cycle = conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert cycle.proved_steps == cycle.depth == 31


def test_address_prefix_lists_every_proved_address():
    # orbits that saturate after m = 0, 1 and 2 proved steps: the prefix
    # holds the address of each of their m + 1 points
    for model, z, m in ((BASE, 700.5 + 0j, 0),
                        (SINH, 3.4045116317306596 + 12.921036882155637j, 1),
                        (BASE, 4.5 + 0j, 2)):
        sample = conjugacy.theta_limit(model, KAPPA, z, 1e-9, Q)
        rec = orbits.iterate(model, z, sample.depth + 1, Q)
        assert rec.saturated and sample.proved_steps == rec.exit_step == m
        assert len(sample.address_prefix) == m + 1
        assert sample.address_prefix.entries == tuple(rec.addresses)


def test_theta_limit_iterates_each_orbit_once(monkeypatch):
    # theta_limit proves the orbit of z to depth + 1 in one iterate call;
    # its residual reads the orbit of F(z) as the tail of that proof
    horizons = []
    iterate = conjugacy.iterate

    def counting(model, z, horizon, Q_):
        horizons.append(horizon)
        return iterate(model, z, horizon, Q_)

    monkeypatch.setattr(conjugacy, "iterate", counting)
    certified = conjugacy.theta_limit(BASE, KAPPA, 4.5 + 0j, 1e-9, Q)
    assert certified.depth == 31 and math.isfinite(certified.residual)
    assert horizons == [32]
    # depth 2 holds, step 3 leaves J_Q: the sample stands, its residual not
    horizons.clear()
    z = 2.8 + 0.3j
    rec = orbits.iterate(BASE, z, 3, Q)
    assert rec.exit_step == 2 and not (rec.certified or rec.saturated)
    short = conjugacy.theta_limit(BASE, KAPPA, z, 0.5, Q)
    assert short.depth == 2 and math.isnan(short.residual)
    assert horizons == [3]
    horizons.clear()
    with pytest.raises(OrbitLeftJQ) as info:
        conjugacy.theta_limit(BASE, KAPPA, -5 + 0j, 1e-9, Q)
    assert str(info.value) == "orbit of (-5+0j) fails the J_Q certificate at step 0"
    assert horizons == [32]


# the six model families of the conjugacy_escaping benchmark workload
ESCAPING_FAMILIES = (
    BASE,
    _lifted(EntireMapSpec.lambda_expm1(0.5)),
    _lifted(EntireMapSpec.sinh(0.575)),
    _lifted(EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)),
    _lifted(EntireMapSpec.exp_affine(1.0, 0.5)),
    _lifted(EntireMapSpec.zexp()),
)


def test_theta_limit_residual_is_the_standalone_residual():
    # the standalone residual proves both of its orbits itself; the one
    # theta_limit forms from its own proof is the same value, or NaN exactly
    # where the standalone call raises what theta_limit turns into NaN
    rng = np.random.default_rng(17)
    kinds = Counter()
    for model in ESCAPING_FAMILIES:
        for _ in range(20):
            k = int(rng.integers(-3, 4))
            z = complex(rng.uniform(3.0, 8.0), TWO_PI * k + rng.uniform(-0.5, 0.5))
            for tol in (1e-9, 0.5):
                try:
                    sample = conjugacy.theta_limit(model, KAPPA, z, tol, Q)
                except (TractlabError, OverflowError):
                    kinds["refused"] += 1
                    continue
                try:
                    expected = conjugacy.conjugacy_residual(model, KAPPA, z, sample.depth, Q)
                except (OverflowError, OrbitLeftJQ, RangeError):
                    expected = math.nan
                assert repr(sample.residual) == repr(expected), (model, z, tol)
                kinds["nan" if math.isnan(expected) else "value"] += 1
    assert min(kinds["refused"], kinds["nan"], kinds["value"]) >= 10, kinds


def test_theta_limit_edge_cases_keep_their_outcomes():
    # outcomes recorded before theta_limit handed its proof to the residual
    cyc = _orbit([0, 1], 43)
    depth = conjugacy.depth_for_tolerance(KAPPA, 1e-9)
    moved = list(cyc)
    moved[1] += 1e-7
    for orbit, residual in ((cyc[: depth + 2], "9.930136612989092e-16"),
                            (cyc[: depth + 1], "nan"),
                            (moved, "nan")):
        sample = conjugacy.theta_limit(BASE, KAPPA, cyc[0], 1e-9, Q, orbit=orbit)
        assert repr(sample.theta) == "(2.3138761900585374+0.2635892990938315j)"
        assert repr(sample.tail_bound) == "6.715862593546489e-10"
        assert repr(sample.residual) == residual
    # depth 0: a point outside V is refused by its address
    assert conjugacy.depth_for_tolerance(KAPPA, 2.0) == 0
    for z in (-5 + 0j, 2.1 + 0j, 2.4 + 3j):
        with pytest.raises(DomainError) as info:
            conjugacy.theta_limit(BASE, KAPPA, z, 2.0, Q)
        assert str(info.value) == f"z = {z!r} is not in the domain"
    # F(z) saturates: the value stands at the identity, the residual is null
    z = complex(7.138512969102209, -0.09080086363083872)
    sample = conjugacy.theta_limit(ESCAPING_FAMILIES[1], KAPPA, z, 1e-9, Q)
    assert sample.theta == z and repr(sample.tail_bound) == "0.721110255764384"
    assert sample.to_json()["residual"] is None


# conjugacy_residual as defined, captured before a test can wrap the name
_RESIDUAL = conjugacy.conjugacy_residual


def _three_tower_theta_limit(base, kappa, z, tol, Q_, orbit=None):
    """theta_limit as it was before it read the residual off theta's own
    chain: the value's tower, then the two of conjugacy_residual."""
    kappa = conjugacy._require_kappa_admissible(kappa, Q_)
    z = models.require_finite(z)
    depth = conjugacy.depth_for_tolerance(kappa, tol)
    if depth > conjugacy.DEFAULT_MAX_DEPTH:
        raise DepthExceeded(
            f"required depth {depth} exceeds the maximum {conjugacy.DEFAULT_MAX_DEPTH}"
        )
    proof = conjugacy._prove(base, z, depth + 1, Q_, orbit)
    pts, addresses = proof.upto(depth)
    theta, trunc_err = conjugacy._pullback_tower(base, kappa, pts, addresses, depth)[:2]
    tail = 2.0 * abs(kappa) * 2.0 ** (1 - depth) + trunc_err
    # the proof's addresses up to the depth: m + 1 on an orbit saturated
    # after m steps, tract_of only at depth 0, where the proof holds none
    prefix = orbits.ExternalAddress(tuple(addresses) or (tract_of(base, z),))
    try:
        residual = _RESIDUAL(base, kappa, z, depth, Q_, proof)
    except (OverflowError, OrbitLeftJQ, RangeError):
        residual = math.nan
    return conjugacy.ConjugacySample(
        z, theta, depth, tail, residual, prefix, len(pts) - 1
    )


def _sample_outcome(fn, *args):
    # theta, tail_bound, depth and residual to the bit (every nan alike),
    # or the exception's class and message
    try:
        s = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        repr((s.theta, s.tail_bound, s.depth, s.residual, s.proved_steps)),
        s.address_prefix,
    )


def _escaping_jobs(seed, count):
    # the job stream of the conjugacy_escaping benchmark workload
    rng = np.random.default_rng(seed)
    for index in range(count):
        re = rng.uniform(3.0, 8.0, 64)
        k = rng.integers(-3, 4, 64)
        im = TWO_PI * k + rng.uniform(-0.5, 0.5, 64)
        for z in map(complex, re, im):
            yield ESCAPING_FAMILIES[index % len(ESCAPING_FAMILIES)], z


def test_one_chain_residual_keeps_the_three_tower_outcomes(monkeypatch):
    # where the proved orbit stops short of depth + 1 steps, theta_limit
    # reads the residual off theta's own chain; every outcome is the one
    # of the three-tower theta_limit, and both paths are taken
    residual_calls = []

    def counting(*args):
        residual_calls.append(args)
        return _RESIDUAL(*args)

    monkeypatch.setattr(conjugacy, "conjugacy_residual", counting)
    cyc = _orbit([0, 1], 43)
    depth = conjugacy.depth_for_tolerance(KAPPA, 1e-9)
    moved = list(cyc)
    moved[1] += 1e-7
    lam = _lifted(EntireMapSpec.lambda_expm1(0.5))
    cases = [(F, KAPPA, z, 1e-9, Q, None)
             for seed in (101, 7) for F, z in _escaping_jobs(seed, 12)]
    cases += [(BASE, KAPPA, z, 1e-9, Q, None) for z in (699 + 0j, 700.5 + 0j, 50 + 0j)]
    cases += [(lam, kappa, z, tol, Q, None)
              for kappa, tol in ((KAPPA, 1e-9), (0j, 1e-9), (KAPPA, 1e300))
              for z in (50 + 0j, 4.6 + 0.3j)]
    cases += [(BASE, KAPPA, cyc[0], 1e-9, Q, orbit)
              for orbit in (cyc[: depth + 2], cyc[: depth + 1], moved)]
    paths = Counter()
    for F, kappa, z, tol, Q_, orbit in cases:
        expected = _sample_outcome(_three_tower_theta_limit, F, kappa, z, tol, Q_, orbit)
        residual_calls.clear()
        got = _sample_outcome(conjugacy.theta_limit, F, kappa, z, tol, Q_, orbit)
        assert got == expected, (F, kappa, z, tol, orbit is None)
        if isinstance(got[0], type):
            paths["refused"] += 1
        else:
            chain = "residual" if residual_calls else "one chain"
            paths[chain, "nan" if "nan" in got[0] else "value"] += 1
    assert min(paths.values()) >= 1 and len(paths) == 5, paths
    assert paths["one chain", "value"] >= 500, paths


def test_residual_members_keep_signed_zero_kappas_apart():
    # with a base kappa of -0i, kappa = 0.3 + 0i and 0.3 - 0i give members
    # whose kappas differ in the sign of a zero, and whose F at a real
    # point lands on opposite sides of the log's cut
    spec = EntireMapSpec.exp_affine(complex(-1, -0.0), complex(100, -0.0))
    pos, neg = complex(0.3, 0.0), complex(0.3, -0.0)
    for order in ((pos, neg), (neg, pos)):
        base = LogLiftModel("lifted_entire", plane_map=spec, kappa=complex(0.0, -0.0))
        for kappa in order:
            for z in (5 + 0.1j, 5 - 0.1j, 2 + 0.5j):
                args = (base, kappa, z, 1e-9, Q)
                expected = _sample_outcome(_three_tower_theta_limit, *args)
                assert _sample_outcome(conjugacy.theta_limit, *args) == expected
        # one member is kept, and the second kappa does not reuse the first's
        info = base._members.cache_info()
        assert info.misses == 2 and info.currsize == 1
        edge = complex(3.0, -0.0)
        values = [repr(base._member_F(kappa)(edge)) for kappa in order]
        assert values == [repr(eval_F(base.translated(kappa), edge)) for kappa in order]
        assert values[0] != values[1]


def test_a_kappa_sweep_keeps_one_residual_member():
    # a fresh model, so its cache starts empty; F(z) is proved, F(F(z))
    # saturates, so every sample takes the one-chain residual
    sinh, z = ESCAPING_FAMILIES[2], 3.4045116317306596 + 12.921036882155637j
    base = LogLiftModel(sinh.family, plane_map=sinh.plane_map)
    for i in range(1000):
        kappa = complex(0.3, 0.2 * i / 1000)
        sample = conjugacy.theta_limit(base, kappa, z, 1e-9, Q)
        assert sample.residual == _RESIDUAL(base, kappa, z, sample.depth, Q)
    info = base._members.cache_info()
    assert info.misses == 1000 and info.currsize == 1


def test_saturated_sample_runs_one_tower(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_pullback_tower", "theta_n"):
        monkeypatch.setattr(conjugacy, name, counting(name, getattr(conjugacy, name)))
    # sinh(0.575): F(z) is proved, F(F(z)) saturates
    sinh = ESCAPING_FAMILIES[2]
    z = 3.4045116317306596 + 12.921036882155637j
    assert len(orbits.iterate(sinh, z, 32, Q).points) == 2
    sample = conjugacy.theta_limit(sinh, KAPPA, z, 1e-9, Q)
    assert math.isfinite(sample.residual)
    assert calls == {"_pullback_tower": 1}
    # an exact cycle covers depth + 1 steps: the residual's two towers run
    calls.clear()
    orb = _orbit([0, 1], 43)
    sample = conjugacy.theta_limit(BASE, KAPPA, orb[0], 1e-9, Q, orbit=orb)
    assert math.isfinite(sample.residual)
    assert calls == {"_pullback_tower": 3, "theta_n": 2}


def test_residual_is_the_last_levels_round_trip():
    # both towers of the residual share the chain down to w = Theta_n(F z),
    # so the residual is |w - F_kappa(G^-1(w) - kappa)| for the inverse
    # branch G^-1 on the tract of z, seeded at z, to the bit
    member = BASE.translated(KAPPA)
    for branches in itertools.islice(_every_cycle(2), 20, 40):
        orb = _orbit(list(branches), 33)
        for n in (1, 7, 31):
            w = conjugacy.theta_n(BASE, KAPPA, orb[1], n, Q, orb[1:])
            pre = inverse_branch(BASE, tract_of(BASE, orb[0]), w, seed=orb[0])
            residual = conjugacy.conjugacy_residual(BASE, KAPPA, orb[0], n, Q, orb)
            assert residual == abs(w - eval_F(member, pre - KAPPA))
