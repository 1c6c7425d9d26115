"""Unit tests for tract addressing, inverse branches, and path lifting."""

import cmath
import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.errors import (
    ContinuationError,
    DomainError,
    NewtonDiverged,
    RangeError,
)
from tractlab.models import (
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    eval_F,
)
from tractlab.tracts import (
    MAX_LIFT_STEP,
    TractAddress,
    continuous_lift,
    inverse_branch,
    lift_path,
    tract_of,
)

SHIFTED = LogLiftModel("shifted_exp", R=10.0)


def test_tract_of_tracks_imaginary_strip():
    assert tract_of(SHIFTED, 3.0 + 0.2j) == TractAddress(0)
    assert tract_of(SHIFTED, 3.0 + TWO_PI * 1j * 2 + 0.2j) == TractAddress(2)
    assert tract_of(SHIFTED, 3.0 - TWO_PI * 1j + 0.2j) == TractAddress(-1)


def test_tract_of_rejects_outside_domain():
    with pytest.raises(DomainError):
        tract_of(SHIFTED, 1.0 + 3.0j)


def test_inverse_branch_closed_form_roundtrip():
    for w in (5.0 + 1.0j, 0.5 - 2.0j, 40.0 + 10.0j):
        for k in (-2, 0, 3):
            z = inverse_branch(SHIFTED, TractAddress(k), w)
            assert tract_of(SHIFTED, z) == TractAddress(k)
            assert abs(eval_F(SHIFTED, z) - w) <= 1e-12 * (1.0 + abs(w))


def test_inverse_branch_rejects_outside_half_plane():
    with pytest.raises(RangeError):
        inverse_branch(SHIFTED, TractAddress(0), -1.0 + 0.0j)


@pytest.mark.parametrize(
    "spec",
    [
        EntireMapSpec.exp_affine(2.0 + 0.5j, 1.0 - 0.25j),
        EntireMapSpec.lambda_expm1(0.5),
        EntireMapSpec.zexp(),
        EntireMapSpec.sinh(0.575),
        EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j),
    ],
    ids=lambda s: s.family,
)
def test_newton_inverse_solves_plane_equation(spec):
    model = LogLiftModel("lifted_entire", plane_map=spec)
    for w in (6.0 + 0.5j, 9.0 - 1.2j):
        z = inverse_branch(model, TractAddress(0), w)
        # the defining relation exp(F(z)) = f(exp z) at the solved preimage
        assert abs(spec.eval(cmath.exp(z)) - cmath.exp(w)) <= 1e-6 * abs(
            cmath.exp(w)
        )


def test_sinh_has_two_tracts_per_strip():
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.sinh(0.575))
    w = 8.0 + 0.5j
    z0 = inverse_branch(model, TractAddress(0, 0), w)
    z1 = inverse_branch(model, TractAddress(0, 1), w)
    # opposite ends of the strip: Re exp(z) has opposite signs
    assert cmath.exp(z0).real > 0 > cmath.exp(z1).real
    assert tract_of(model, z0).inner_branch == 0
    assert tract_of(model, z1).inner_branch == 1


def test_seeded_inverse_branch_keeps_its_tract():
    # a seed in another period strip is moved by whole periods first
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))
    z = 3.0 + 0.01j
    w = eval_F(model, z)
    seeded = inverse_branch(model, TractAddress(1), w, seed=z)
    assert tract_of(model, seeded) == TractAddress(1)
    assert abs(seeded - inverse_branch(model, TractAddress(1), w)) <= 1e-9
    assert abs(seeded - (z + TWO_PI * 1j)) <= 1e-9


def test_seeded_inverse_branch_refuses_a_preimage_in_another_tract():
    # Newton from the inner-0 preimage stays there; that is not tract (0, 1)
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.sinh(0.575))
    w = 8.0 + 0.5j
    z0 = inverse_branch(model, TractAddress(0, 0), w)
    with pytest.raises(NewtonDiverged, match="inner_branch=1"):
        inverse_branch(model, TractAddress(0, 1), w, seed=z0)


def test_translate_equivariance_is_exact():
    w = 7.5 + 1.25j
    z0 = inverse_branch(SHIFTED, TractAddress(0), w)
    for k in (-3, 1, 4):
        assert inverse_branch(SHIFTED, TractAddress(k), w) == z0 + TWO_PI * 1j * k


def test_kappa_member_inverse_translates():
    kappa = 0.3 + 0.2j
    member = SHIFTED.translated(kappa)
    w = 5.0 + 1.0j
    zk = inverse_branch(member, TractAddress(0), w)
    assert abs(eval_F(member, zk) - w) <= 1e-12 * (1.0 + abs(w))


def test_lift_path_consistency_and_continuity():
    path = [complex(10.0, 0.5 * t) for t in range(40)]
    lifted = lift_path(SHIFTED, TractAddress(0), path)
    assert lifted.samples[0] == inverse_branch(SHIFTED, TractAddress(0), path[0])
    for src, z in zip(lifted.source_samples, lifted.samples):
        assert abs(eval_F(SHIFTED, z) - src) <= 1e-9
    steps = [
        abs(b - a) for a, b in zip(lifted.samples, lifted.samples[1:])
    ]
    assert max(steps) <= math.pi / 2 + 1e-12
    # w + R never winds around 0 inside the half-plane: branch constant
    assert set(lifted.branch_log) == {0}


def _check_lift(model, path, lifted):
    for a, b in zip(lifted.samples, lifted.samples[1:]):
        assert abs(b - a) <= MAX_LIFT_STEP
    for src, z in zip(lifted.source_samples, lifted.samples):
        assert abs(eval_F(model, z) - src) <= 1e-9 * (1.0 + abs(src))
    assert set(path) <= set(lifted.source_samples)


def test_lift_path_bisects_long_steps():
    # long source steps, whose lifts move by more than MAX_LIFT_STEP
    path = [10.0 + 0j, 10.0 + 400j, 300.0 + 400j, 5.0 - 300j, 6.0 + 0j]
    lifted = lift_path(SHIFTED, TractAddress(1), path)
    assert len(lifted.samples) > len(path)
    _check_lift(SHIFTED, path, lifted)


def test_lift_path_on_a_lifted_family():
    # Newton lift steps; |Im w| < pi, so F's principal value is w itself
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))
    path = [complex(6.0, 0.25 * t) for t in range(-12, 13)]
    lifted = lift_path(model, TractAddress(1), path)
    assert set(lifted.branch_log) == {1}
    _check_lift(model, path, lifted)


def test_lift_path_bisects_where_newton_diverges():
    # Newton from the current lift diverges on this whole step; its
    # halves lift, so the step is bisected like one that moves too far
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))
    path = [4.0 - 0.5j, 9.5 + 0.5j]
    lifted = lift_path(model, TractAddress(0), path)
    assert len(lifted.samples) > len(path)
    _check_lift(model, path, lifted)


def test_continuous_lift_gives_up_on_a_step_that_always_diverges():
    def step(z_cur, w):
        raise NewtonDiverged(f"no preimage of {w!r}")

    with pytest.raises(ContinuationError) as info:
        continuous_lift(step, 0j, [1.0 + 0j, 2.0 + 0j])
    assert isinstance(info.value.__cause__, NewtonDiverged)


def test_lift_path_rejects_bad_input():
    with pytest.raises(RangeError):
        lift_path(SHIFTED, TractAddress(0), [])
    with pytest.raises(RangeError):
        lift_path(SHIFTED, TractAddress(0), [5.0 + 0j, -1.0 + 0j])


def test_lifted_path_csv(tmp_path):
    path = [complex(10.0, 0.2 * t) for t in range(5)]
    lifted = lift_path(SHIFTED, TractAddress(1), path)
    out = tmp_path / "lift.csv"
    lifted.write_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) - 1 == len(lifted.samples)


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(min_value=0.1, max_value=50.0),
    im=st.floats(min_value=-50.0, max_value=50.0),
    k=st.integers(min_value=-4, max_value=4),
)
def test_inverse_branch_roundtrip_property(re, im, k):
    w = complex(re, im)
    z = inverse_branch(SHIFTED, TractAddress(k), w)
    assert abs(eval_F(SHIFTED, z) - w) <= 1e-9 * (1.0 + abs(w))
    assert round(z.imag / TWO_PI) == k
