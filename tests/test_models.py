"""Unit tests for the map catalog and the log-coordinate evaluators."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab import models
from tractlab.errors import DomainError
from tractlab.models import (
    TWO_PI,
    EntireMapSpec,
    LogLiftModel,
    domain_contains,
    eval_dF,
    eval_F,
    model_from_json,
    model_to_json,
    normalize,
    plane_map_from_json,
    require_finite,
    sample_domain_points,
)
from tractlab.tracts import inverse_branch, tract_of

SHIFTED = LogLiftModel("shifted_exp", R=10.0)

ALL_SPECS = [
    EntireMapSpec.exp_affine(2.0 + 0.5j, 1.0 - 0.25j),
    EntireMapSpec.lambda_expm1(0.5),
    EntireMapSpec.zexp(),
    EntireMapSpec.sinh(0.575),
    EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_deriv_matches_finite_difference(spec):
    h = 1e-6
    for z in (0.3 + 0.7j, -1.2 + 0.4j, 2.0 - 1.5j):
        fd = (spec.eval(z + h) - spec.eval(z - h)) / (2.0 * h)
        assert abs(fd - spec.deriv(z)) <= 1e-6 * (1.0 + abs(spec.deriv(z)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_asymptotic_value(spec):
    limit = spec.asymptotic_value()
    if limit is None:
        assert spec.family == "sinh"
        return
    assert abs(spec.eval(-40.0 + 0.3j) - limit) <= 1e-15 + abs(limit) * 1e-12


ARRAY_MODELS = [
    SHIFTED,
    SHIFTED.translated(0.3 + 0.2j).shifted(1.5),
    # Re z = 699.7 passes the guard as 699.7 + (0.1 + 0.2), not as
    # (699.7 + 0.1) + 0.2, the scalar call's order
    SHIFTED.translated(0.1).shifted(0.2),
    *(LogLiftModel("lifted_entire", plane_map=s, half_plane_Q=2.0) for s in ALL_SPECS),
    LogLiftModel("lifted_entire", plane_map=EntireMapSpec.sinh(0.575)).translated(3j),
]


@pytest.mark.parametrize("model", ARRAY_MODELS, ids=[
    "shifted_exp", "shifted_member", "guard_rounding", *(s.family for s in ALL_SPECS), "sinh_member"])
def test_eval_F_array_matches_scalar(model):
    # scalar eval_F is the reference: the mask is true exactly where it
    # returns a finite value, and the values agree to rounding
    rng = np.random.default_rng(5)
    special = [
        math.log(701.0), complex(math.log(701.0), math.pi),  # plane-map guard
        699.0, 699.7, 701.0, -800.0, complex(math.nan, 0.0), complex(0.0, math.inf),
    ]
    z = np.concatenate([
        rng.uniform(-5.0, 8.0, 400) + 1j * rng.uniform(-10.0, 10.0, 400),
        np.array(special, dtype=complex),
    ])
    w, ok = models._eval_F_array(model, z)
    for zi, wi, oki in zip(z.tolist(), w.tolist(), ok.tolist()):
        try:
            ref = eval_F(model, zi)
        except (DomainError, OverflowError):
            ref = None
        if ref is None or not cmath.isfinite(ref):
            assert not oki, zi
        else:
            assert oki, zi
            assert abs(wi - ref) <= 1e-12 * (1.0 + abs(ref)), zi
    assert 0 < ok.sum() < ok.size


def test_shifted_exp_is_exact():
    for z in (3.0 + 0.5j, 4.0 - 1.0j, 3.5 + 6.5j):
        assert eval_F(SHIFTED, z) == cmath.exp(z) - 10.0


def test_lifted_value_has_no_negative_zero_imaginary_part():
    # f(exp 1) = 100 - e^e - 0j; its log is reported with Im = +0.0
    spec = EntireMapSpec.exp_affine(complex(-1.0, -0.0), complex(100.0, -0.0))
    w = eval_F(LogLiftModel("lifted_entire", plane_map=spec), 1.0 + 0j)
    assert w.imag == 0.0 and math.copysign(1.0, w.imag) == 1.0


def test_kappa_member_translates():
    kappa = 0.3 + 0.2j
    sinh = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.sinh(0.575))
    # sinh has two tracts per period strip, meeting at Im = pi/2: Im z = 1.45
    # lies in the outer one and Im(z + kappa) = 1.65 in the inner one
    for model, z, inner in ((SHIFTED, 3.0 + 0.2j, 0), (sinh, 3.0 + 1.45j, 1)):
        member = model.translated(kappa)
        assert eval_F(member, z) == eval_F(model, z + kappa)
        assert eval_dF(member, z) == eval_dF(model, z + kappa)
        tract = tract_of(member, z)
        assert tract == tract_of(model, z + kappa)
        assert tract.inner_branch == inner
        w = eval_F(member, z)
        assert inverse_branch(member, tract, w) == (
            inverse_branch(model, tract, w) - kappa
        )
        assert inverse_branch(member, tract, w, seed=z) == (
            inverse_branch(model, tract, w, seed=z + kappa) - kappa
        )
        assert member.half_plane_Q == model.half_plane_Q
        assert member.translated(-kappa) == model


def test_kappa_must_be_finite():
    with pytest.raises(DomainError):
        SHIFTED.translated(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        LogLiftModel("shifted_exp", kappa=complex(0.0, math.inf))


def test_model_to_json_refuses_what_no_descriptor_holds():
    with pytest.raises(ValueError):
        model_to_json(SHIFTED.translated(0.3 + 0.2j))
    with pytest.raises(ValueError):
        model_to_json(normalize(LogLiftModel("shifted_exp", R=1.5)))


def test_domain_membership_and_errors():
    # Re F(1+3j) = e cos(3) - 10 < 0: outside the domain
    z_out = 1.0 + 3.0j
    assert not domain_contains(SHIFTED, z_out)
    with pytest.raises(DomainError):
        eval_F(SHIFTED, z_out)
    assert domain_contains(SHIFTED, 3.0 + 0.2j)
    # beyond the exponent guard membership is decided by the cosine sign
    assert domain_contains(SHIFTED, 800.0 + 0.0j)
    assert not domain_contains(SHIFTED, 800.0 + math.pi * 1j)


@pytest.mark.parametrize("im", [0.0, math.pi], ids=["im0", "im_pi"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_membership_past_the_guard(spec, im):
    # Re exp(z) = e^750 cos(Im z): at Im z = 0 every map blows up; at
    # Im z = pi, f(exp z) is at its asymptotic value b, so z is in the
    # domain iff log|b| > Q, unless a two-sided row blows up there too
    model = LogLiftModel("lifted_entire", plane_map=spec)
    if im == 0.0 or spec.row.two_sided:
        expected = True
    else:
        expected = math.log(abs(spec.asymptotic_value())) > model.half_plane_Q
    assert domain_contains(model, complex(750.0, im)) is expected


def test_overflow_guard():
    with pytest.raises(OverflowError):
        eval_F(SHIFTED, 701.0 + 0.0j)


def test_require_finite_rejects_nonfinite():
    with pytest.raises(DomainError):
        require_finite(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        require_finite(complex(0.0, math.inf))


def test_normalize_keeps_certified_model():
    assert normalize(SHIFTED) == SHIFTED


@pytest.mark.parametrize(
    "model",
    [
        LogLiftModel("shifted_exp", R=1.5),
        LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5)),
        LogLiftModel("lifted_entire", plane_map=EntireMapSpec.zexp()),
    ],
    ids=["shifted_R1.5", "lambda_expm1", "zexp"],
)
def test_normalize_certifies_expansion(model):
    # the certificate is sample-based: it holds on the verification
    # sample normalize itself draws (seed 0), not on every domain point
    out = normalize(model)
    assert out.offset >= 0.0
    for z in sample_domain_points(out, 1000, seed=0):
        try:
            assert abs(eval_dF(out, z)) >= 2.0
        except OverflowError:
            continue


def test_normalize_small_R_records_positive_offset():
    out = normalize(LogLiftModel("shifted_exp", R=1.5))
    assert out.offset > 0.0


def test_normalize_certifies_each_offset_once(monkeypatch):
    calls = []
    certify = models._certify_expansion

    def counting(model):
        ok = certify(model)
        calls.append((model.offset, ok))
        return ok

    monkeypatch.setattr(models, "_certify_expansion", counting)
    out = normalize(LogLiftModel("shifted_exp", R=1.5))
    offsets = [offset for offset, _ in calls]
    assert len(calls) == 38
    assert len(set(offsets)) == len(offsets)
    # bisection returns the smallest offset that certified
    assert out.offset == min(offset for offset, ok in calls if ok)


def test_sample_domain_points_deterministic_and_valid():
    a = sample_domain_points(SHIFTED, 50, seed=3)
    b = sample_domain_points(SHIFTED, 50, seed=3)
    assert a == b
    assert all(domain_contains(SHIFTED, z) for z in a)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_model_json_roundtrip(spec):
    model = LogLiftModel("lifted_entire", plane_map=spec, half_plane_Q=1.0)
    back = model_from_json(model_to_json(model))
    assert back == model
    # an old descriptor's "newton" block is ignored, like any unknown key
    old = {**model_to_json(model), "newton": {"tol": 0, "max_iter": "a"}}
    assert model_from_json(old) == model
    back2 = model_from_json(model_to_json(SHIFTED))
    assert back2 == SHIFTED


def test_plane_map_from_json_named_params():
    spec = plane_map_from_json({"family": "exp_plus_kappa", "kappa": [1.0, 2.0]})
    assert spec.params[0] == 1.0 + 2.0j
    with pytest.raises(Exception):
        plane_map_from_json({"family": "no_such_family"})


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.5, max_value=6.0),
    y=st.floats(min_value=-15.0, max_value=15.0),
    k=st.integers(min_value=-3, max_value=3),
)
def test_vertical_period_property(x, y, k):
    z = complex(x, y)
    if not domain_contains(SHIFTED, z):
        return
    a = eval_F(SHIFTED, z)
    b = eval_F(SHIFTED, z + TWO_PI * 1j * k)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
