"""Unit tests for the hyperbolic-map semiconjugacy construction."""

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tractlab import semiconj
from tractlab.errors import (
    CertificateFailed,
    CertificateMissing,
    ContinuationError,
    DomainError,
    HorizonError,
    RangeError,
    SetupInvalid,
    TractlabError,
)
from tractlab.models import TWO_PI

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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
        (0, 0.7, 2.0, 11.0),     # lambda = 0: f is constant
        (-0.0j, 0.7, 2.0, 11.0),
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


@pytest.mark.parametrize("z, error", [
    (complex(math.inf, 0.0), DomainError),
    (complex(math.nan, 0.0), DomainError),
    (complex(0.0, math.inf), DomainError),
    (0j, RangeError),
    (0.7 + 0j, RangeError),  # |z| = r_U exactly
], ids=["inf", "nan", "inf_imag", "inside_U", "on_the_circle"])
def test_rho_W_refuses_outside_W(z, error):
    with pytest.raises(error):
        semiconj.rho_W(SETUP, z)


def test_inverse_branch_f_roundtrip():
    for b in (-1, 0, 2):
        z = SETUP.inverse_branch_f(9.0 + 2.0j, b)
        assert SETUP.f(z) == pytest.approx(9.0 + 2.0j, rel=1e-12)


def test_inverse_branch_f_refuses_the_asymptotic_value():
    with pytest.raises(RangeError, match="asymptotic value"):
        SETUP.inverse_branch_f(-SETUP.lam, 0)


def test_level_one_is_exact_rescaling():
    for z in (25.0 + 0j, 40.0 + 0.2j):
        s = semiconj.theta_level(SETUP, z, 1)
        assert s.thetas[1] == z / SETUP.M


def test_functional_equation_links_levels():
    # f(theta_L(z)) = theta_{L-1}(g(z)) at every level the orbit reaches;
    # level 3 is the first that lifts a lifted curve, not a segment
    checked = set()
    for z in (22.0 + 0j, 24.0 - 1.0j, 25.0 + 0j, 30.0 + 0.1j, 40.0 + 0j):
        s = semiconj.theta_level(SETUP, z, 4)
        s_g = semiconj.theta_level(SETUP, SETUP.g(z), 3)
        for level in range(2, len(s.thetas)):
            want = s_g.thetas[level - 1]
            assert abs(SETUP.f(s.thetas[level]) - want) <= 1e-12 * abs(want), (z, level)
            checked.add(level)
    assert checked == {2, 3, 4}


def test_each_level_solves_once_per_position(monkeypatch):
    # level L lifts one point at each of the positions 0 .. n - L
    solve = semiconj.HyperbolicSetup.inverse_branch_f
    calls = []

    def counted(setup, w, branch):
        calls.append(w)
        return solve(setup, w, branch)

    monkeypatch.setattr(semiconj.HyperbolicSetup, "inverse_branch_f", counted)
    n = len(semiconj._g_positions(SETUP, 25.0 + 0j, 30))
    s = semiconj.theta_level(SETUP, 25.0 + 0j, 30)
    assert len(s.thetas) == n + 1
    assert len(calls) == sum(n - level + 1 for level in range(2, n + 1))


def _d_W(setup, a, b):
    # the exact distance of W: w -> r_U / w maps W onto the punctured unit
    # disk, tau = -i log lifts that to the upper half-plane, and the deck
    # shifts 2 pi k identify the lifts of one point
    ta = -1j * cmath.log(setup.r_U / a)
    tb = -1j * cmath.log(setup.r_U / b)
    return min(
        math.acosh(1.0 + abs(ta - tb - TWO_PI * k) ** 2 / (2.0 * ta.imag * tb.imag))
        for k in (-1, 0, 1)
    )


def test_d_W_is_the_distance_of_rho_W():
    # near the diagonal d_W is rho_W times the Euclidean distance, also
    # across the negative axis, where a deck shift takes the short way
    for a, b in [(25.0 + 0j, 25.0 + 0.01j), (-25.0 + 0.005j, -25.0 - 0.005j)]:
        expect = semiconj.rho_W(SETUP, a) * abs(a - b)
        assert _d_W(SETUP, a, b) == pytest.approx(expect, rel=1e-3)


def test_level_steps_contract_geometrically_in_W():
    C = semiconj.expansion_certificate(SETUP)
    mu = semiconj.mu_constant(SETUP)
    for z in (25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j, 35.0 - 0.05j):
        s = semiconj.semiconj_limit(SETUP, z, 1e-6, C)
        steps = [_d_W(SETUP, a, b) for a, b in zip(s.thetas, s.thetas[1:])]
        assert len(steps) >= 2
        for j, d in enumerate(steps):
            assert d <= mu / C**j, (z, j)
        for a, b in zip(steps, steps[1:]):
            assert b < a, z


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


def test_semiconj_limit_at_an_infinite_tol_takes_one_level():
    # mu / tol is 0 there; every tol of at least mu takes depth 1, as an
    # infinite tol takes theta_limit's depth-0 sample
    C = semiconj.expansion_certificate(SETUP)
    mu = semiconj.mu_constant(SETUP)
    z = 30.0 + 0.1j
    s = semiconj.semiconj_limit(SETUP, z, math.inf, C)
    assert len(s.thetas) == 2 and s.tail_estimate == mu / C
    same = semiconj.semiconj_limit(SETUP, z, mu, C)
    assert s.theta == same.theta and s.thetas == same.thetas


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
    for z in (25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j, 35.0 - 0.05j):
        s = semiconj.semiconj_limit(SETUP, z, 1e-6, C)
        # the hyperbolic distances between levels (not the Euclidean
        # increments) telescope below the geometric-series ceiling
        total = sum(_d_W(SETUP, a, b) for a, b in zip(s.thetas, s.thetas[1:]))
        assert total <= mu * C / (C - 1.0) + 1e-9
        assert s.displacement_bound == pytest.approx(mu * C / (C - 1.0))


def test_write_report(tmp_path):
    C = semiconj.expansion_certificate(SETUP)
    s = semiconj.semiconj_limit(SETUP, 25.0 + 0j, 1e-6, C)
    out = tmp_path / "semi.json"
    semiconj.write_report(out, SETUP, [s], 1e-6, C)
    payload = json.loads(out.read_text())
    assert payload["setup"]["M"] == pytest.approx(5.5)
    assert (payload["setup"]["tol"], payload["setup"]["sampled_C"]) == (1e-6, C)
    # the constant is recorded once, in the setup, not in every sample
    assert len(payload["samples"]) == 1 and "sampled_C" not in payload["samples"][0]
    assert s.sampled_C == C


# -- theta_level against the curve tower it replaced -----------------------

# the curve tower's resolution: samples of each level-1 segment, the
# largest lift step before the source step is halved, and the halvings
# allowed before it gives up
SEGMENT_SAMPLES = 17
MAX_LIFT_STEP = math.pi / 2
MAX_BISECTION_DEPTH = 48


def _continuous_lift(step, z0, path):
    # recursive bisection over a per-step closure: a step whose lift moves
    # by more than MAX_LIFT_STEP is halved, at most MAX_BISECTION_DEPTH times
    samples = [z0]

    def advance(z_cur, w_from, w_to, depth):
        z_next = step(z_cur, w_to)
        if abs(z_next - z_cur) <= MAX_LIFT_STEP:
            samples.append(z_next)
            return z_next
        if depth >= MAX_BISECTION_DEPTH:
            raise ContinuationError(
                f"cannot keep the branch continuous near w = {w_to!r}"
            )
        mid = 0.5 * (w_from + w_to)
        z_mid = advance(z_cur, w_from, mid, depth + 1)
        return advance(z_mid, mid, w_to, depth + 1)

    z_cur = z0
    for w_prev, w_next in zip(path, path[1:]):
        z_cur = advance(z_cur, complex(w_prev), complex(w_next), 0)
    return samples


def _reference_lift(setup, start, path):
    # the lift as _continuous_lift computes it over a per-step closure
    if abs(setup.f(start) - path[0]) > 1e-6 * (1.0 + abs(path[0])):
        raise ContinuationError(
            f"start {start!r} is not a preimage of the path head {path[0]!r}"
        )

    def step(z_cur, w):
        base = setup.inverse_branch_f(w, 0)
        b = round((z_cur.imag - base.imag) / TWO_PI)
        return base + TWO_PI * 1j * b

    return _continuous_lift(step, start, path)


def _curve_tower(setup, z, k):
    # theta_level's thetas, increments and tops, k >= 1, by lifting whole
    # polylines: level 1 samples each segment p -> p/M, and level L + 1 at
    # position i lifts level L's curve at i + 1 from its endpoint at i
    pos = semiconj._g_positions(setup, z, k)
    M = setup.M
    fractions = [t / (SEGMENT_SAMPLES - 1) for t in range(SEGMENT_SAMPLES)]
    curves = [[p + (p / M - p) * t for t in fractions] for p in pos]
    thetas, increments = [z, z / M], [abs(z / M - z)]
    tops = [c[-1] for c in curves]
    for _ in range(2, min(k, len(pos)) + 1):
        curves = [
            _reference_lift(setup, curves[i][-1], curves[i + 1])
            for i in range(len(curves) - 1)
        ]
        for i, c in enumerate(curves):
            tops[i] = c[-1]
        thetas.append(curves[0][-1])
        increments.append(abs(thetas[-1] - thetas[-2]))
    return thetas, increments, tops


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except TractlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _levels(setup, z, k):
    s = semiconj.theta_level(setup, z, k)
    return s.thetas, s.increments, s.tops


def _oracle_cases(name):
    # (setup, points) pairs: the semiconj benchmark's reference jobs and 24
    # jobs of its seed-101 stream, the CLI's default points on the default
    # setup, and seeded points on every ORACLE_LAMBDAS setup
    workload = workloads.WORKLOADS["semiconj"]()

    def setup_of(lam):
        return semiconj.build_setup(lam, workload.r_U, workload.K, workload.R)

    if name == "cli_defaults":
        return [(SETUP, [25.0 + 0j, 40.0 + 0j, 30.0 + 0.1j, 35.0 - 0.05j])]
    if name == "oracle_lambdas":
        rng = np.random.default_rng(34)
        radii = np.exp(rng.uniform(math.log(12.0), math.log(400.0), 8))
        points = [complex(cmath.rect(r, a)) for r, a in zip(radii, rng.uniform(-0.3, 0.3, 8))]
        return [(setup_of(lam), points) for lam in ORACLE_LAMBDAS]
    if name == "reference_jobs":
        jobs = workload.reference_jobs()
    else:
        stream = workload.jobs(101)
        jobs = [next(stream) for _ in range(24)]
    return [(setup_of(workload.lambdas[i]), points) for i, points in jobs]


@pytest.mark.parametrize(
    "name", ["reference_jobs", "seed_101", "cli_defaults", "oracle_lambdas"]
)
def test_theta_level_matches_the_curve_tower(name):
    outcomes = []
    for setup, points in _oracle_cases(name):
        for z in points:
            for k in (1, 2, 5, 12, 25):
                got = _outcome(_levels, setup, z, k)
                assert got == _outcome(_curve_tower, setup, z, k), (setup.lam, z, k)
                outcomes.append(got)
    # deep levels are compared, not only refusals
    assert sum(o.startswith("(") for o in outcomes) >= len(outcomes) // 3


def test_theta_level_refuses_a_lift_it_cannot_certify():
    # |lambda| = 0.99: build_setup refuses it, and the level-2 curve at
    # position 1 is only known to lie right of 0.34, short of |lambda|
    setup = semiconj.HyperbolicSetup(0.99, 0.7, 1.0, 3.0)
    with pytest.raises(SetupInvalid):
        semiconj.build_setup(0.99, 0.7, 1.0, 3.0)
    assert len(semiconj.theta_level(setup, 6.0 + 0j, 2).thetas) == 3
    with pytest.raises(ContinuationError, match=r"^level 3, position 0: "):
        semiconj.theta_level(setup, 6.0 + 0j, 5)
