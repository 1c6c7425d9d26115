"""Unit tests for the hyperbolic-map semiconjugacy construction."""

import cmath
import json
import math

import numpy as np
import pytest

from tractlab import semiconj
from tractlab.errors import (
    CertificateFailed,
    CertificateMissing,
    HorizonError,
    SetupInvalid,
)

SETUP = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)


def test_setup_derived_quantities():
    assert SETUP.M == pytest.approx(5.5)
    assert SETUP.g(11.0 + 0j) == pytest.approx(SETUP.f(2.0 + 0j))
    mu = semiconj.mu_constant(SETUP)
    assert mu == pytest.approx(math.log(1.0 + math.log(5.5) / math.log(2.0)))


@pytest.mark.parametrize(
    "args",
    [
        (1.5, 0.7, 2.0, 11.0),   # |lambda| >= 1
        (0.5, -0.1, 2.0, 11.0),  # r_U <= 0
        (0.5, 1.2, 2.0, 11.0),   # r_U >= K/2
        (0.5, 0.7, 0.5, 11.0),   # K < 1
        (0.5, 0.7, 2.0, 5.0),    # log(2R-1) < K+1
    ],
)
def test_setup_rejects_bad_parameters(args):
    with pytest.raises(SetupInvalid):
        semiconj.build_setup(*args)


def test_density_outside_disk():
    # the complement of a closed disk is conformal to the punctured unit
    # disk via r_U / z, so the density has a closed form
    for z in (2.0 + 0j, -5.0 + 3.0j, 100.0j):
        expect = 1.0 / (abs(z) * math.log(abs(z) / SETUP.r_U))
        assert semiconj.rho_W(SETUP, z) == pytest.approx(expect)


def test_inverse_branch_f_roundtrip():
    for b in (-1, 0, 2):
        z = SETUP.inverse_branch_f(9.0 + 2.0j, b)
        assert SETUP.f(z) == pytest.approx(9.0 + 2.0j, rel=1e-12)


def test_level_one_is_exact_rescaling():
    for z in (25.0 + 0j, 40.0 + 0.2j):
        s = semiconj.theta_level(SETUP, z, 1)
        assert s.thetas[1] == z / SETUP.M


def test_functional_equation_links_levels():
    z = 25.0 + 0j
    s2 = semiconj.theta_level(SETUP, z, 2)
    s1 = semiconj.theta_level(SETUP, SETUP.g(z), 1)
    assert abs(SETUP.f(s2.thetas[2]) - s1.thetas[1]) <= 1e-9 * (
        1.0 + abs(s1.thetas[1])
    )


def test_curve_lengths_contract_geometrically():
    s = semiconj.theta_level(SETUP, 25.0 + 0j, 4)
    lengths = [g for g in s.gamma_lengths if g > 0.0]
    for a, b in zip(lengths[1:], lengths[:-1]):
        assert a < b


def test_expansion_certificate_exceeds_one_and_is_deterministic():
    c1 = semiconj.expansion_certificate(SETUP)
    c2 = semiconj.expansion_certificate(SETUP)
    assert c1 == c2
    assert c1 > 1.0


def _scalar_certificate(setup):
    # the certificate as one scalar rejection-sampling loop: the oracle
    # for the array pass, which must return the same double
    rng = np.random.default_rng(0)
    worst = math.inf
    worst_z = None
    counted = 0
    attempts = 0
    while (
        counted < semiconj.CERTIFICATE_SAMPLES
        and attempts < 200 * semiconj.CERTIFICATE_SAMPLES
    ):
        attempts += 1
        r = setup.r_U * math.exp(
            rng.uniform(0.0, math.log(semiconj.CERTIFICATE_RADIUS / setup.r_U))
        )
        zs = r * cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))
        try:
            fz = setup.f(zs)
        except OverflowError:
            continue
        if abs(fz) <= setup.r_U:
            continue
        counted += 1
        val = semiconj.hyperbolic_derivative_W(setup, zs)
        if val < worst:
            worst, worst_z = val, zs
    if counted < semiconj.CERTIFICATE_SAMPLES:
        raise CertificateFailed(
            f"could only place {counted}/{semiconj.CERTIFICATE_SAMPLES} "
            f"samples inside V"
        )
    if worst <= 1.0:
        raise CertificateFailed(f"||Df||_W = {worst:g} <= 1 at sample {worst_z!r}")
    return worst


# the semiconj benchmark's lambdas, then seeded complex ones in |lambda| < 0.55
_RNG = np.random.default_rng(8)
ORACLE_LAMBDAS = [0.5, 0.3, 0.6, 0.4 + 0.1j] + [
    complex(cmath.rect(0.55 * math.sqrt(a), math.tau * b))
    for a, b in _RNG.random((20, 2))
]


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_expansion_certificate_matches_scalar_oracle(lam):
    setup = semiconj.build_setup(lam, 0.7, 2.0, 11.0)
    assert semiconj.expansion_certificate(setup) == _scalar_certificate(setup)


def _failure(certificate, setup) -> str:
    with pytest.raises(CertificateFailed) as info:
        certificate(setup)
    return str(info.value)


def test_expansion_certificate_fails_like_the_oracle_at_the_attempt_cap(monkeypatch):
    # a hair-thin annulus next to cl U: f maps all of it into U
    monkeypatch.setattr(semiconj, "CERTIFICATE_RADIUS", SETUP.r_U * (1.0 + 1e-9))
    message = _failure(semiconj.expansion_certificate, SETUP)
    assert message.startswith("could only place 0/")
    assert message == _failure(_scalar_certificate, SETUP)


def test_expansion_certificate_fails_like_the_oracle_without_expansion():
    # r_U past K/2: build_setup refuses it, and f does not expand on V
    setup = semiconj.HyperbolicSetup(0.5, 2.0, 2.0, 11.0)
    message = _failure(semiconj.expansion_certificate, setup)
    assert "<= 1 at sample" in message
    assert message == _failure(_scalar_certificate, setup)


def test_boundary_check_names_the_first_failing_point():
    # |f| = |lambda| |e^z - 1| peaks on |z| = r_U at z = r_U, the first
    # boundary point, where 0.7 (e^0.7 - 1) = 0.71 > r_U
    with pytest.raises(SetupInvalid, match=r"boundary at \(0\.7\+0j\)"):
        semiconj.build_setup(0.7, 0.7, 2.0, 11.0)


@pytest.mark.parametrize("ulps", range(-3, 4))
def test_boundary_check_at_the_threshold_agrees_with_scalar(ulps):
    # |f(r_U)| = r_U to within a few ulps, inside the array pass's margin,
    # so the scalar evaluation decides
    lam = 0.7 / math.expm1(0.7) * (1.0 + ulps * 2.0**-52)
    fails = abs(semiconj.HyperbolicSetup(lam, 0.7, 2.0, 11.0).f(0.7 + 0j)) >= 0.7
    if fails:
        with pytest.raises(SetupInvalid, match="boundary"):
            semiconj.build_setup(lam, 0.7, 2.0, 11.0)
    else:
        semiconj.build_setup(lam, 0.7, 2.0, 11.0)


def _in_V_scalar(setup, log_span, row) -> bool:
    try:
        point = semiconj._certificate_point(setup, log_span, row)
        return abs(setup.f(point)) > setup.r_U
    except OverflowError:
        return False


def test_attempts_near_the_thresholds_are_decided_in_scalar(monkeypatch):
    log_span = math.log(semiconj.CERTIFICATE_RADIUS / SETUP.r_U)
    # real attempts at Re z = 700, the overflow guard, and at
    # z = log(r_U / lambda + 1), where |f| = r_U; a few ulps either side
    rows = []
    for r in (700.0, math.log(SETUP.r_U / SETUP.lam.real + 1.0)):
        u0 = math.log(r / SETUP.r_U) / log_span
        for k in range(-3, 4):
            rows.append([u0 * (1.0 + k * 2.0**-52), 0.0])
    far = np.random.default_rng(2).random((20, 2))
    u = np.vstack([rows, far])
    confirmed = []
    point = semiconj._certificate_point

    def counting(setup, span, row):
        confirmed.append(tuple(row))
        return point(setup, span, row)

    monkeypatch.setattr(semiconj, "_certificate_point", counting)
    _, in_V = semiconj._attempts_in_V(SETUP, log_span, u)
    monkeypatch.undo()
    assert in_V.tolist() == [_in_V_scalar(SETUP, log_span, row) for row in u]
    assert set(map(tuple, rows)) <= set(confirmed)
    # each threshold is met from both sides
    assert set(in_V[:7]) == set(in_V[7:14]) == {False, True}


def test_semiconj_limit_untruncated_tail_is_mu_over_C():
    C = semiconj.expansion_certificate(SETUP)
    mu = semiconj.mu_constant(SETUP)
    s = semiconj.semiconj_limit(SETUP, 25.0 + 0j, mu / C * (1.0 + 1e-12), C)
    assert len(s.thetas) == 2
    assert s.tail_estimate == mu / C


def test_semiconj_limit_converges_with_tiny_tail():
    C = semiconj.expansion_certificate(SETUP)
    s = semiconj.semiconj_limit(SETUP, 25.0 + 0j, 1e-6, C)
    assert s.tail_estimate <= 1e-6
    assert abs(s.theta - s.thetas[-1]) == 0.0
    r = semiconj.functional_residual(SETUP, 25.0 + 0j, 1e-6, C)
    assert r <= 1e-9


def test_semiconj_limit_rejects_uncertifiable_orbits():
    C = semiconj.expansion_certificate(SETUP)
    with pytest.raises(HorizonError):
        # orbit falls below R: not escaping through the horizon
        semiconj.semiconj_limit(SETUP, 5.0 + 0j, 1e-6, C)
    with pytest.raises(HorizonError):
        # escapes too fast: doubles saturate before the tail certifies
        semiconj.semiconj_limit(SETUP, 60.0 - 0.05j, 1e-6, C)
    with pytest.raises(CertificateMissing):
        semiconj.semiconj_limit(SETUP, 25.0 + 0j, 1e-6, 0.9)


def test_theta_level_stops_where_the_g_orbit_leaves_double_range():
    # 25 has 4 representable g-orbit positions: levels 0 .. 4, no HorizonError
    pos = semiconj._g_positions(SETUP, 25.0 + 0j, 30)
    assert len(pos) == 4
    s = semiconj.theta_level(SETUP, 25.0 + 0j, 30)
    assert len(s.thetas) == len(pos) + 1
    assert s.thetas == semiconj.theta_level(SETUP, 25.0 + 0j, len(pos)).thetas
    assert len(s.tops) == len(pos)


def test_semiconj_limit_computes_each_g_orbit_once(monkeypatch):
    C = semiconj.expansion_certificate(SETUP)
    calls = []
    real = semiconj._g_positions

    def counted(setup, z, needed):
        calls.append(z)
        return real(setup, z, needed)

    monkeypatch.setattr(semiconj, "_g_positions", counted)
    for z in (25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j):
        semiconj.semiconj_limit(SETUP, z, 1e-6, C)
    assert calls == [25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j]


def test_displacement_stays_below_mu_geometric_bound():
    C = semiconj.expansion_certificate(SETUP)
    mu = semiconj.mu_constant(SETUP)
    for z in (25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j):
        s = semiconj.semiconj_limit(SETUP, z, 1e-6, C)
        # the hyperbolic curve lengths (not the Euclidean increments)
        # telescope below the geometric-series ceiling
        total = sum(s.gamma_lengths)
        assert total <= mu * C / (C - 1.0) + 1e-9
        assert s.displacement_bound == pytest.approx(mu * C / (C - 1.0))


def test_write_report(tmp_path):
    C = semiconj.expansion_certificate(SETUP)
    s = semiconj.semiconj_limit(SETUP, 25.0 + 0j, 1e-6, C)
    out = tmp_path / "semi.json"
    semiconj.write_report(out, SETUP, [s])
    payload = json.loads(out.read_text())
    assert payload["setup"]["M"] == pytest.approx(5.5)
    assert len(payload["samples"]) == 1
