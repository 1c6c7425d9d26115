"""Unit tests for tract addressing and inverse branches."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.errors import DomainError, NewtonDiverged, RangeError
from tractlab.models import (
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    eval_F,
)
from tractlab.tracts import TractAddress, inverse_branch, tract_of

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


def test_inverse_branch_ignores_the_sign_of_a_zero_imaginary_part():
    # with a = 1e10 the asymptotic seed log(w - log a) lies on the cut of
    # the principal log, where w and w - 0j, which are equal, would get
    # seeds 2 pi apart and land in different period strips
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.exp_affine(1e10, 0.5))
    for w in (3.0, 5.5):
        plus = inverse_branch(model, TractAddress(0), complex(w, 0.0))
        minus = inverse_branch(model, TractAddress(0), complex(w, -0.0))
        assert minus == plus and minus.imag == math.pi


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
