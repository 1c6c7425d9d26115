"""Built-in invariant suite behind `tractlab verify`.

Each property is a small, fast, deterministic check; the CLI prints one
pass/fail line per property.  The pytest suite covers the same ground
more thoroughly; this module exists so a deployed install can sanity
check itself without a test harness.
"""

from __future__ import annotations

import cmath
import math
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import conjugacy, gridkernel, orbits, semiconj, tracts
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


def _check_conj_inverse_roundtrip():
    # Theta'(w) carries the F_kappa cycle point w to the F_0 cycle point with
    # the same address, and Theta carries it back
    member = _MODEL.translated(_KAPPA)
    addr = orbits.ExternalAddress.periodic([20])
    w = orbits.periodic_orbit(member, addr, _Q, 1)[0]
    gap = conjugacy.inverse_theta_check(_MODEL, _KAPPA, w, 1e-9, _Q, addr)
    assert gap <= 4e-9, f"Theta(Theta'(w)) misses w by {gap:.3e}"


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


def _check_semiconj_functional_limit():
    # the converged semiconjugacy satisfies f(theta(z)) = theta(g(z))
    setup = semiconj.build_setup(0.5, 0.7, 2.0, 11.0)
    C = semiconj.expansion_certificate(setup)
    residual = semiconj.functional_residual(setup, 25.0 + 0j, 1e-6, C)
    assert residual <= 1e-9, f"functional equation misses by {residual:.3e}"


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
    # a radius of 1 near the zeros of f: small pixels that only the computed
    # |f| finishes, because the modulus ceiling is 1 or more there
    (gridkernel.Window(-3.0, 2.5, -3.5, 3.0), (11, 13), 1.0, 12),
]


def _scalar_exit(
    spec: EntireMapSpec, z: complex, radius: float, horizon: int
) -> tuple[int, str, int, complex]:
    """(code, exit, step, z) of one orbit, iterated with the scalar map;
    z is the orbit's point at that step."""
    for step in range(horizon):
        try:
            w = spec.eval(z)  # raises past the overflow guard or on overflow
        except OverflowError:
            return gridkernel.OVERFLOWED_LARGE, "guard", step, z
        mag = abs(w)
        if not mag <= 1e300:  # also true for inf and nan
            return gridkernel.OVERFLOWED_LARGE, "huge", step, z
        if mag < radius:
            return gridkernel.ESCAPED_SMALL, "small", step, z
        z = w
    return gridkernel.IN_JR_HORIZON, "horizon", horizon, z


def _grid_exit_steps(spec: EntireMapSpec) -> dict[str, set[int]]:
    """Steps of each exit over the oracle cases; every pixel must match,
    and the kernel must finish small pixels both through the modulus
    ceiling and through the |f| it computes."""
    exit_steps: dict[str, set[int]] = {}
    small_by = set()  # whether the ceiling proved a small pixel's exit
    for win, (width, height), radius, horizon in _ORACLE_CASES:
        grid = gridkernel.classify_window(spec, win, (width, height), radius, horizon)
        dx = (win.xmax - win.xmin) / width
        dy = (win.ymax - win.ymin) / height
        for row, col in np.ndindex(height, width):
            # pixel centers, row 0 at the top of the window
            z = complex(win.xmin + (col + 0.5) * dx, win.ymax - (row + 0.5) * dy)
            code, exit_, step, last = _scalar_exit(spec, z, radius, horizon)
            exit_steps.setdefault(exit_, set()).add(step)
            assert grid[row, col] == code, (
                f"{spec.family} grid disagrees with scalar iteration "
                f"on {win} at pixel ({row}, {col})"
            )
            if exit_ == "small":
                ceiling = spec.row.abs_ceiling(spec.params, np.array([last]))[0]
                small_by.add(bool(ceiling < min(radius, gridkernel._HUGE)))
    assert small_by == {True, False}, (
        f"{spec.family}: the modulus ceiling proves "
        f"{'every' if small_by == {True} else 'no'} small exit of the oracle "
        f"cases; it must prove some and not others"
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


def _check_grid_png_stream():
    # render_png deflates its rows band by band while bands are classified;
    # its bytes equal write_png's over the finished codes only if this
    # zlib's chunked deflate gives the bytes of its one-shot deflate
    # six bands: 0.575 cosh(Re z) > 50 on the window, so every column is live
    config = (EntireMapSpec.sinh(0.575), gridkernel.Window(5.5, 12.0, -3.0, 3.0),
              (300, 300), 50.0, 30)
    with tempfile.TemporaryDirectory() as tmp:
        streamed, whole = Path(tmp, "streamed.png"), Path(tmp, "whole.png")
        gridkernel.write_png(whole, gridkernel.render_png(streamed, *config))
        assert streamed.read_bytes() == whole.read_bytes(), (
            "a streamed PNG differs from write_png's bytes"
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
    ],
    "orbits": [
        _check_orbits_expansion,
        _check_orbits_backward_contraction,
    ],
    "conjugacy": [
        _check_conj_distance_bound,
        _check_conj_cauchy_rate,
        _check_conj_equivariance,
        _check_conj_inverse_roundtrip,
    ],
    "semiconj": [
        _check_semiconj_default_setup,
        _check_semiconj_level1,
        _check_semiconj_functional_eq,
        _check_semiconj_functional_limit,
    ],
    "grid": [
        _check_grid_determinism,
        _check_grid_scalar_oracle,
        _check_grid_png_stream,
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
