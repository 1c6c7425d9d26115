"""Built-in invariant suite behind `tractlab verify`.

Each property is a small, fast, deterministic check; the CLI prints one
pass/fail line per property.  The pytest suite covers the same ground
more thoroughly; this module exists so a deployed install can sanity
check itself without a test harness.
"""

from __future__ import annotations

import cmath
import math
import traceback

import numpy as np

from . import conjugacy, gridkernel, hypmetric, orbits, semiconj, tracts
from .models import (
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    eval_dF,
    eval_F,
    sample_domain_points,
)

_MODEL = LogLiftModel("shifted_exp", R=10.0)
_KAPPA = 0.3 + 0.2j
_Q = 2.0


def _check_models_periodicity():
    for z in sample_domain_points(_MODEL, 100, seed=1):
        a = eval_F(_MODEL, z)
        b = eval_F(_MODEL, z + TWO_PI * 1j)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), f"periodicity fails at {z!r}"


def _check_models_normalized():
    for z in sample_domain_points(_MODEL, 200, seed=2):
        assert abs(eval_dF(_MODEL, z)) >= 2.0, f"|F'| < 2 at {z!r}"


def _check_models_lift_relation():
    spec = EntireMapSpec.lambda_expm1(0.5)
    lifted = LogLiftModel("lifted_entire", plane_map=spec)
    for z in sample_domain_points(lifted, 100, seed=3):
        try:
            w = eval_F(lifted, z)
            fv = spec.eval(cmath.exp(z))
        except OverflowError:
            continue  # inside the domain but past the exp guard
        assert abs(cmath.exp(w) - fv) <= 1e-9 * abs(fv), f"lift relation at {z!r}"


def _check_tracts_roundtrip():
    for z in sample_domain_points(_MODEL, 200, seed=4):
        t = tracts.tract_of(_MODEL, z)
        back = tracts.inverse_branch(_MODEL, t, eval_F(_MODEL, z))
        assert abs(back - z) <= 1e-10, f"round trip fails at {z!r}"


def _check_tracts_equivariance():
    w = 7.5 + 1.25j
    z0 = tracts.inverse_branch(_MODEL, tracts.TractAddress(0), w)
    for k in (-2, 1, 3):
        zk = tracts.inverse_branch(_MODEL, tracts.TractAddress(k), w)
        assert zk == z0 + TWO_PI * 1j * k, "translate equivariance fails"


def _check_tracts_lift_consistency():
    path = [10.0 + 0.5j * t for t in range(20)]
    lifted = tracts.lift_path(_MODEL, tracts.TractAddress(0), path)
    for src, z in zip(lifted.source_samples, lifted.samples):
        assert abs(eval_F(_MODEL, z) - src) <= 1e-9, "lift consistency fails"


def _check_hyp_sandwich():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = rng.uniform(0.01, 100.0)
        bound = hypmetric.standard_estimate_bound(d)
        assert bound.contains(1.0 / d), "half-plane density escapes the sandwich"


def _check_hyp_linear_ceiling():
    punctures = [0j] + [complex(2.0**j) for j in range(0, 22)]
    ceiling = 1.0 + math.log(6.0)
    rng = np.random.default_rng(6)
    for _ in range(200):
        z = complex(rng.uniform(1.0, 1e6), rng.uniform(-1.0, 1.0))
        if any(z == p for p in punctures):
            continue
        bound = hypmetric.punctured_sequence_upper(punctures, 2.0, z)
        assert bound / abs(z) <= ceiling + 1e-12, f"ceiling fails at {z!r}"


def _check_hyp_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 50.0), rng.uniform(-50.0, 50.0))
        w = complex(rng.uniform(0.1, 50.0), rng.uniform(-50.0, 50.0))
        d1 = hypmetric.dist_half_plane(0.0, z, w)
        d2 = hypmetric.dist_half_plane(0.0, w, z)
        assert abs(d1 - d2) <= 1e-12, "distance symmetry fails"


def _check_orbits_expansion():
    rng = np.random.default_rng(8)
    addr = orbits.ExternalAddress.periodic([0])
    z_star = orbits.point_with_address(_MODEL, addr, _Q)
    for _ in range(100):
        # small enough that six doublings keep both orbits representable
        dz = complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
        ratios = orbits.expansion_ratios(_MODEL, z_star, z_star + dz, 6)
        assert all(r >= 1.0 - 1e-9 for r in ratios), "expansion fails"


def _check_orbits_backward_contraction():
    addr = orbits.ExternalAddress.periodic([0, 1])
    z = orbits.point_with_address(_MODEL, addr, _Q)
    got = orbits.external_address(_MODEL, z, 6)
    expect = [0, 1, 0, 1, 0, 1]
    assert [t.branch_index for t in got.entries] == expect, "address mismatch"


def _check_conj_distance_bound():
    addr = orbits.ExternalAddress.periodic([0])
    z = orbits.point_with_address(_MODEL, addr, _Q)
    orbit = orbits.periodic_orbit(_MODEL, addr, _Q, 41)
    for n in range(0, 41, 5):
        theta = conjugacy.theta_n(_MODEL, _KAPPA, z, n, _Q, orbit)
        assert abs(theta - z) <= 2.0 * abs(_KAPPA) + 1e-9, "distance bound fails"


def _check_conj_cauchy_rate():
    addr = orbits.ExternalAddress.periodic([1])
    z = orbits.point_with_address(_MODEL, addr, _Q)
    orbit = orbits.periodic_orbit(_MODEL, addr, _Q, 31)
    prev = conjugacy.theta_n(_MODEL, _KAPPA, z, 0, _Q, orbit)
    for n in range(1, 30):
        cur = conjugacy.theta_n(_MODEL, _KAPPA, z, n, _Q, orbit)
        assert abs(cur - prev) <= 2.0 * abs(_KAPPA) * 2.0 ** (1 - n) + 1e-12, (
            f"Cauchy rate fails at n = {n}"
        )
        prev = cur


def _check_conj_equivariance():
    addr = orbits.ExternalAddress.periodic([0])
    z = orbits.point_with_address(_MODEL, addr, _Q)
    orbit = orbits.periodic_orbit(_MODEL, addr, _Q, 21)
    shifted = [orbit[0] + TWO_PI * 1j] + orbit[1:]
    a = conjugacy.theta_n(_MODEL, _KAPPA, z, 20, _Q, orbit)
    b = conjugacy.theta_n(_MODEL, _KAPPA, z + TWO_PI * 1j, 20, _Q, shifted)
    assert abs(b - (a + TWO_PI * 1j)) <= 1e-9, "equivariance fails"


def _check_semiconj_default_setup():
    setup = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)
    assert abs(setup.M - 5.5) < 1e-15
    mu = semiconj.mu_constant(setup)
    assert abs(mu - math.log(1.0 + math.log(5.5) / math.log(2.0))) < 1e-15


def _check_semiconj_level1():
    setup = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)
    for z in (25.0 + 0j, 30.0 + 10.0j):
        s = semiconj.theta_level(setup, z, 1)
        assert s.thetas[1] == z / setup.M, "level-1 exactness fails"


def _check_semiconj_functional_eq():
    setup = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)
    z = 25.0 + 0j
    s = semiconj.theta_level(setup, z, 2)
    lhs = setup.f(s.thetas[2])
    rhs = setup.g(z) / setup.M
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs)), "functional equation fails"


def _check_grid_determinism():
    spec = EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)
    win = gridkernel.Window(-4.0, 4.0, -4.0, 4.0)
    g1 = gridkernel.classify_window(spec, win, (64, 64), 50.0, 10)
    g2 = gridkernel.classify_window(spec, win, (64, 64), 50.0, 10)
    assert (g1 == g2).all(), "grid classification is not deterministic"


# (window, resolution, escape radius, horizon) of the grid oracle; between
# them every exit of the kernel loop occurs at two or more steps
_ORACLE_CASES = [
    # asymmetric window: every family shows both codes and neither a row
    # nor a column flip of the grid leaves it unchanged
    (gridkernel.Window(-5.5, 6.0, -2.0, 3.0), (7, 5), 50.0, 12),
    # short horizons: pixels still iterating when the horizon ends
    (gridkernel.Window(-5.5, 6.0, -2.0, 3.0), (7, 5), 50.0, 1),
    (gridkernel.Window(-5.5, 6.0, -2.0, 3.0), (7, 5), 50.0, 2),
    # the overflow guard band: |F| > 1e300 or the guard at the first steps
    (gridkernel.Window(680.0, 705.0, -2.0, 3.0), (7, 5), 50.0, 12),
    # pixels whose first image lands in the band, so |F| > 1e300 one step later
    (gridkernel.Window(4.5, 8.0, -0.3, 0.3), (401, 3), 50.0, 12),
]


def _scalar_exit(
    spec: EntireMapSpec, z: complex, radius: float, horizon: int
) -> tuple[int, str, int]:
    """(code, exit, step) of one orbit, iterated with the scalar map."""
    for step in range(horizon):
        try:
            w = spec.eval(z)  # raises past the overflow guard or on overflow
        except OverflowError:
            return gridkernel.OVERFLOWED_LARGE, "guard", step
        mag = abs(w)
        if not mag <= 1e300:  # also true for inf and nan
            return gridkernel.OVERFLOWED_LARGE, "huge", step
        if mag < radius:
            return gridkernel.ESCAPED_SMALL, "small", step
        z = w
    return gridkernel.IN_JR_HORIZON, "horizon", horizon


def _grid_exit_steps(spec: EntireMapSpec) -> dict[str, set[int]]:
    """Steps of each exit over the oracle cases; every pixel must match."""
    exit_steps: dict[str, set[int]] = {}
    for win, (width, height), radius, horizon in _ORACLE_CASES:
        grid = gridkernel.classify_window(spec, win, (width, height), radius, horizon)
        dx = (win.xmax - win.xmin) / width
        dy = (win.ymax - win.ymin) / height
        for row, col in np.ndindex(height, width):
            # pixel centers, row 0 at the top of the window
            z = complex(win.xmin + (col + 0.5) * dx, win.ymax - (row + 0.5) * dy)
            code, exit_, step = _scalar_exit(spec, z, radius, horizon)
            exit_steps.setdefault(exit_, set()).add(step)
            assert grid[row, col] == code, (
                f"{spec.family} grid disagrees with scalar iteration "
                f"on {win} at pixel ({row}, {col})"
            )
    return exit_steps


def _check_grid_scalar_oracle():
    specs = [
        EntireMapSpec.exp_affine(2.0 + 0.5j, 1.0 - 0.25j),
        EntireMapSpec.lambda_expm1(0.5),
        EntireMapSpec.zexp(),
        EntireMapSpec.sinh(0.575),
        EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j),
    ]
    exits = {exit_ for spec in specs for exit_ in _grid_exit_steps(spec)}
    assert exits == {"guard", "horizon", "huge", "small"}, (
        f"the oracle cases reach only the exits {sorted(exits)}"
    )


SUITES: dict[str, list] = {
    "models": [
        _check_models_periodicity,
        _check_models_normalized,
        _check_models_lift_relation,
    ],
    "tracts": [
        _check_tracts_roundtrip,
        _check_tracts_equivariance,
        _check_tracts_lift_consistency,
    ],
    "hypmetric": [
        _check_hyp_sandwich,
        _check_hyp_linear_ceiling,
        _check_hyp_symmetry,
    ],
    "orbits": [
        _check_orbits_expansion,
        _check_orbits_backward_contraction,
    ],
    "conjugacy": [
        _check_conj_distance_bound,
        _check_conj_cauchy_rate,
        _check_conj_equivariance,
    ],
    "semiconj": [
        _check_semiconj_default_setup,
        _check_semiconj_level1,
        _check_semiconj_functional_eq,
    ],
    "grid": [
        _check_grid_determinism,
        _check_grid_scalar_oracle,
    ],
}


def run_suite(name: str) -> int:
    """Run a named suite (or "all"), printing PASS or FAIL per check and
    the traceback of each failure; returns the number of failures."""
    if name == "all":
        checks = [(s, fn) for s in SUITES for fn in SUITES[s]]
    elif name in SUITES:
        checks = [(name, fn) for fn in SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}")
    failures = 0
    for suite, fn in checks:
        label = f"{suite}.{fn.__name__.removeprefix('_check_')}"
        try:
            fn()
        except Exception:
            failures += 1
            print(f"FAIL {label}")
            traceback.print_exc()
        else:
            print(f"PASS {label}")
    return failures


__all__ = ["run_suite", "SUITES"]
