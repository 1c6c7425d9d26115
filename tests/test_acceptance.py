"""Acceptance gate: one test and one printed pass/fail line per criterion.

All quantitative tolerances and runtime budgets are asserted as stated;
sample construction uses exact periodic orbits where forward float
iteration from repelling points would destroy the certificates.
"""

import math
import random
import time

import numpy as np
import pytest

from tractlab import conjugacy, gridkernel, hypmetric, orbits, semiconj
from tractlab.models import EntireMapSpec, LogLiftModel, eval_F

BASE = LogLiftModel("shifted_exp", R=10.0)
KAPPA = 0.3 + 0.2j
Q = 2.0
SCALE = 2.0 * abs(KAPPA)  # = 2|kappa| = 0.72111...


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_periodic_addresses(count: int, seed: int, lo=-3, hi=3, max_period=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.randint(1, max_period)
        out.append(orbits.ExternalAddress.periodic(
            [rng.randint(lo, hi) for _ in range(p)]
        ))
    return out


@pytest.fixture(scope="module")
def depth_sweeps():
    """(z, orbit, [Theta_0..Theta_40]) for 500 random period<=3 samples.

    Shared by criteria 1-3; the stopwatch for the criterion-1 budget is
    returned alongside.
    """
    t0 = time.perf_counter()
    sweeps = []
    for addr in _random_periodic_addresses(500, seed=101):
        orbit = orbits.periodic_orbit(BASE, addr, Q, 43)
        z = orbit[0]
        thetas = [conjugacy.theta_n(BASE, KAPPA, z, n, Q, orbit) for n in range(41)]
        sweeps.append((z, orbit, thetas))
    elapsed = time.perf_counter() - t0
    return sweeps, elapsed


def test_criterion_01_distance_bound(depth_sweeps):
    sweeps, elapsed = depth_sweeps
    worst = max(
        abs(th - z) for z, _, thetas in sweeps for th in thetas
    )
    ok = worst <= SCALE + 1e-9 and elapsed < 5.0
    _report(1, ok, f"max |Theta_n(z)-z| = {worst:.3e} <= {SCALE + 1e-9:.6f}, "
                   f"500 samples x 41 depths in {elapsed:.2f} s < 5 s")


def test_criterion_02_cauchy_rate(depth_sweeps):
    sweeps, _ = depth_sweeps
    worst_margin = -math.inf
    for _, _, thetas in sweeps:
        for n in range(40):
            gap = abs(thetas[n + 1] - thetas[n])
            worst_margin = max(worst_margin, gap - SCALE * 2.0 ** (-n))
    ok = worst_margin <= 1e-12
    _report(2, ok, f"max |Theta_(n+1)-Theta_n| - 2|kappa| 2^-n = "
                   f"{worst_margin:.3e} <= 1e-12 over all n <= 40")


def test_criterion_03_conjugacy_residual(depth_sweeps):
    sweeps, _ = depth_sweeps
    worst_ratio = 0.0
    for z, orbit, _ in sweeps:
        for n in (5, 20, 40):
            fz = eval_F(BASE, z)
            r = conjugacy.conjugacy_residual(BASE, KAPPA, z, n, Q, orbit)
            worst_ratio = max(worst_ratio, r / (1.0 + abs(fz)))
    ok = worst_ratio <= 1e-8
    _report(3, ok, f"max residual / (1+|F0(z)|) = {worst_ratio:.3e} <= 1e-8 "
                   f"at matched depths 5, 20, 40")


def test_criterion_04_inverse_image():
    # J_4 membership of the F_kappa samples requires every cycle point to
    # stay at Re >= 4; branch indices |k| >= 13 put the cycles there
    member = BASE.translated(KAPPA)
    rng = random.Random(202)
    worst = 0.0
    count = 0
    while count < 100:
        p = rng.randint(1, 3)
        ks = [rng.choice([1, -1]) * rng.randint(13, 400) for _ in range(p)]
        addr = orbits.ExternalAddress.periodic(ks)
        cycle = orbits.periodic_orbit(member, addr, Q, p)
        if min(pt.real for pt in cycle) < 4.0:
            continue
        w = cycle[0]
        worst = max(
            worst, conjugacy.inverse_theta_check(BASE, KAPPA, w, 1e-9, Q, addr)
        )
        count += 1
    ok = worst <= 4e-9
    _report(4, ok, f"max |Theta(Theta'(w)) - w| = {worst:.3e} <= 4e-9 "
                   f"over 100 J_4(F_kappa) samples at tol 1e-9")


def test_criterion_05_uniqueness():
    addrs = _random_periodic_addresses(100, seed=303)
    depth = conjugacy.depth_for_tolerance(KAPPA, 1e-8)
    samples, orbs = [], []
    for addr in addrs:
        orb = orbits.periodic_orbit(BASE, addr, Q, depth + 2)
        samples.append(orb[0])
        orbs.append(orb)
    worst = conjugacy.uniqueness_crosscheck(BASE, KAPPA, samples, 1e-8, Q, orbs)
    ok = worst <= 1e-8
    _report(5, ok, f"max |family tower - general pullback| = {worst:.3e} "
                   f"<= 1e-8 over 100 samples")


def test_criterion_06_expansion():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = math.inf
    addrs = _random_periodic_addresses(1000, seed=404, lo=-2, hi=2)
    for addr in addrs:
        z = orbits.point_with_address(BASE, addr, Q)
        dz = complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9)) or 1e-10
        ratios = orbits.expansion_ratios(BASE, z, z + dz, 6)
        worst = min(worst, min(ratios))
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.0 - 1e-9 and elapsed < 2.0
    _report(6, ok, f"min separation ratio = {worst:.12f} >= 1 - 1e-9 over "
                   f"1000 same-address pairs to depth 6 in {elapsed:.2f} s < 2 s")


def test_criterion_07_holomorphy_in_kappa():
    # |k| <= 2 keeps the h^4 Taylor term negligible at h = 1e-3
    addrs = _random_periodic_addresses(20, seed=505, lo=-2, hi=2)
    worst_lo, worst_hi = math.inf, 0.0
    for kappa0 in (0.0 + 0j, 0.2 + 0j, 0.2j):
        for addr in addrs:
            orbit = orbits.periodic_orbit(BASE, addr, Q, 42)
            r1 = conjugacy.holomorphy_in_kappa(BASE, orbit[0], kappa0, 1e-3, Q,
                                               orbit=orbit)
            r2 = conjugacy.holomorphy_in_kappa(BASE, orbit[0], kappa0, 5e-4, Q,
                                               orbit=orbit)
            ratio = r1 / r2
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    ok = 3.0 <= worst_lo and worst_hi <= 5.0
    _report(7, ok, f"anti-holomorphic residual ratios in [{worst_lo:.3f}, "
                   f"{worst_hi:.3f}] within [3, 5] when h halves, "
                   f"kappa0 in {{0, 0.2, 0.2i}}, 20 samples each")


def test_criterion_08_displacement():
    # real points at Re >= floor escape monotonically along the real
    # axis, so their finite-horizon certificates saturate after a step
    # or two with a truncation tail far below tol
    rng = random.Random(606)
    maxima = []
    for floor in (3.0, 10.0, 20.0):
        worst = 0.0
        min_re = math.inf
        for _ in range(40):
            z = complex(floor + 0.5 + rng.uniform(0.0, 2.0), 0.0)
            s = conjugacy.theta_limit(BASE, KAPPA, z, 1e-9, Q)
            worst = max(worst, hypmetric.dist_half_plane(Q, s.z, s.theta))
            min_re = min(min_re, s.z.real)
        ceiling = SCALE / (min_re - SCALE - Q)
        assert worst <= ceiling, f"floor {floor}: {worst:.3e} > ceiling {ceiling:.3e}"
        maxima.append(worst)
    monotone = maxima[0] > maxima[1] > maxima[2]
    ok = monotone
    _report(8, ok, f"max hyperbolic displacement {maxima[0]:.3e} > "
                   f"{maxima[1]:.3e} > {maxima[2]:.3e} shrinking through "
                   f"floors Re z >= 3, 10, 20, each below its segment ceiling")


def test_criterion_09_semiconjugacy():
    t0 = time.perf_counter()
    setup = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)
    mu = semiconj.mu_constant(setup)
    C = semiconj.expansion_certificate(setup)
    # both z and g(z) must certify for the residual to be evaluable at
    # double precision; candidates failing that are skipped, not hidden
    samples = []
    x = 24.0
    while len(samples) < 50 and x < 80.0:
        for dy in (0.0, 0.05, -0.03):
            z = complex(x, dy)
            try:
                s = semiconj.semiconj_limit(setup, z, 1e-6, C)
                r = semiconj.functional_residual(setup, z, 1e-6, C)
            except Exception:
                continue
            samples.append((z, s, r))
            if len(samples) >= 50:
                break
        x += 0.15
    assert len(samples) == 50, "could not place 50 certifiable escaping samples"
    worst_res = max(r for _, _, r in samples)
    worst_ratio = 0.0
    for _, s, _ in samples:
        inc = [d for d in s.increments if d > 0.0]
        for a, b in zip(inc[1:], inc[:-1]):
            worst_ratio = max(worst_ratio, a / b)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mu - 1.2412) < 5e-4
        and worst_res <= 1e-6
        and C > 1.0
        and worst_ratio <= 1.0 / C + 0.05
        and elapsed < 30.0
    )
    _report(9, ok, f"mu = {mu:.4f} (~1.2412), max scaled residual = "
                   f"{worst_res:.3e} <= 1e-6 on 50 escaping samples, "
                   f"certified C = {C:.4f} > 1, max increment ratio "
                   f"{worst_ratio:.4f} <= {1.0 / C + 0.05:.4f}, "
                   f"{elapsed:.1f} s < 30 s")


def test_criterion_10_hyperbolic_metric():
    t0 = time.perf_counter()
    punctures = [0j] + [complex(2.0**j) for j in range(0, 25)]  # K=1, C=2
    ceiling = 1.0 + math.log(6.0)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        r = math.exp(rng.uniform(0.0, math.log(1e6)))
        z = r * complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
        if any(z == p for p in punctures):
            continue
        worst = max(worst, hypmetric.punctured_sequence_upper(punctures, 2.0, z) / abs(z))
    elapsed = time.perf_counter() - t0
    ok = worst <= ceiling + 1e-12 and elapsed < 1.0
    _report(10, ok, f"max bound/|z| = {worst:.4f} <= 1 + log 6 = {ceiling:.4f} "
                    f"for 1000 random |z| in [1, 1e6] in {elapsed:.2f} s < 1 s")


def test_criterion_11_rendering():
    win = gridkernel.Window(-4.0, 4.0, -4.0, 4.0)
    spec_exp = EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)
    spec_sinh = EntireMapSpec.sinh(0.575)
    t0 = time.perf_counter()
    g_exp = gridkernel.classify_window(spec_exp, win, (256, 256), 50.0, 30)
    t1 = time.perf_counter()
    g_sinh = gridkernel.classify_window(spec_sinh, win, (256, 256), 50.0, 30)
    t2 = time.perf_counter()
    black = gridkernel.black_mask(g_exp)
    nonempty_touching = black.any() and black[:, -1].any()
    symmetric = bool((g_sinh == g_sinh[::-1, ::-1]).all())
    nested = True
    for spec in (spec_exp, spec_sinh):
        masks = [
            gridkernel.black_mask(
                gridkernel.classify_window(spec, win, (256, 256), 50.0, hz)
            )
            for hz in (10, 20, 30)
        ]
        nested = nested and bool((masks[1] <= masks[0]).all()) \
            and bool((masks[2] <= masks[1]).all())
    ok = (
        (t1 - t0) < 10.0 and (t2 - t1) < 10.0
        and nonempty_touching and symmetric and nested
    )
    _report(11, ok, f"256^2 renders in {t1 - t0:.2f} s / {t2 - t1:.2f} s < 10 s; "
                    f"exp+kappa black set nonempty touching right edge: "
                    f"{nonempty_touching}; sinh black set 180-degree "
                    f"pixel-exact: {symmetric}; black sets nested over "
                    f"horizons 10 > 20 > 30: {nested}")


def test_criterion_12_finite_horizon_only(tmp_path):
    spec = EntireMapSpec.sinh(0.575)
    win = gridkernel.Window(-4.0, 4.0, -4.0, 4.0)
    side = tmp_path / "render.json"
    gridkernel.write_sidecar(side, spec, win, (64, 64), 50.0, 10)
    meta = gridkernel.read_sidecar(side)
    ok = meta["finite_horizon_proxy"] is True and "horizon" in meta
    _report(12, ok, "renders declare finite_horizon_proxy = true with the "
                    "horizon recorded; no full-plane set is claimed")
