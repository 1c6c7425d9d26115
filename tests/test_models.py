"""Unit tests for the map catalog and the log-coordinate evaluators."""

import cmath
import dataclasses
import hashlib
import json
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
    SHIFTED.translated(0.3 + 0.2j),
    # Re z = 699.7 lands exactly on the guard at 700, which it passes
    SHIFTED.translated(0.3),
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


def _lifted(spec, Q=0.0):
    return LogLiftModel("lifted_entire", plane_map=spec, half_plane_Q=Q)


# shifted_exp and each plane family, with the three maps of the edge
# cases: a zero of f(e^z), a multiplier that overflows the plane map, and
# a parameter whose signed zero makes the log's imaginary part -0.0
KERNEL_MODELS = {
    "shifted_exp": SHIFTED,
    "exp_affine": _lifted(EntireMapSpec.exp_affine(1.0, 0.5)),
    "lambda_expm1": _lifted(EntireMapSpec.lambda_expm1(0.5)),
    "zexp": _lifted(EntireMapSpec.zexp()),
    "sinh": _lifted(EntireMapSpec.sinh(0.575)),
    "exp_plus_kappa": _lifted(EntireMapSpec.exp_plus_kappa(1.0038 + 2.8999j)),
    "zero": _lifted(EntireMapSpec.exp_affine(1.0, -math.e)),
    "huge": _lifted(EntireMapSpec.exp_affine(1e300, 0.0)),
    "signed_zero": _lifted(
        EntireMapSpec.exp_affine(complex(-1, -0.0), complex(100, -0.0))),
}
GUARD = "OverflowError: Re z = {} exceeds the exponent-overflow guard"
# a model's own guard names the argument it tests, z + kappa
KAPPA_GUARD = "OverflowError: Re(z + kappa) = {} exceeds the exponent-overflow guard"
LIFTED = ("exp_affine", "lambda_expm1", "zexp", "sinh", "exp_plus_kappa")

# (model, kappa of its member, z, outcomes of eval_F, eval_dF and
# domain_contains) as recorded before the model kinds built kernels: the
# value's repr, or the exception's class and message
KERNEL_EDGES = [
    # Re z + kappa = 699.9, inside the guard; a lifted map's e^z is past it
    ("shifted_exp", 0.3 + 0.2j, 699.6 + 0j,
     "(8.994219109129372e+303+1.8232184749843957e+303j)",
     "(8.994219109129372e+303+1.8232184749843957e+303j)", True),
    *((name, 0.3 + 0.2j, 699.6 + 0j, GUARD.format("8.99422e+303"),
       GUARD.format("8.99422e+303"), True) for name in LIFTED),
    # Re z + kappa = 700.1, past the guard
    *((name, 0.3 + 0.2j, 699.8 + 0j, KAPPA_GUARD.format("700.1"),
       KAPPA_GUARD.format("700.1"), True) for name in ("shifted_exp", *LIFTED)),
    # sinh is two-sided: Re e^z < -700 is past its guard
    ("sinh", 0, 6.6 + 3.1j, GUARD.format("-734.459"), GUARD.format("-734.459"), True),
    ("sinh", 0, 699.9 + 3.1j,
     GUARD.format("-9.16921e+303"), GUARD.format("-9.16921e+303"), True),
    ("sinh", 0, -3 + 0j,
     "DomainError: z = (-3+0j) is outside the domain (Re F = -3.55297 <= 0)",
     "DomainError: z = (-3+0j) is outside the domain", False),
    ("shifted_exp", 0, -3 + 0j,
     "DomainError: z = (-3+0j) is outside the domain (Re F = -9.95021 <= 0)",
     "DomainError: z = (-3+0j) is outside the domain", False),
    ("exp_plus_kappa", 0, -3 + 0j, "(1.268109407523414+0.9543268598736465j)",
     "(0.00851240964451575-0.012013124806146342j)", True),
    ("zero", 0, 0j,
     "DomainError: f(exp(z + kappa)) = 0 at z + kappa = 0j; log lift undefined",
     "DomainError: z = 0j is outside the domain", False),
    ("huge", 0, 5 + 0j, "OverflowError: the plane map's value overflows double range",
     "OverflowError: the plane map's value overflows double range", True),
    ("signed_zero", 0, 1 + 0j,
     "(4.440834757755254+0j)", "(-0.48551119670804205-0j)", True),
]


def _kernel_outcome(fn, model, z):
    try:
        return repr(fn(model, z))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, kappa, z, F, dF, member", KERNEL_EDGES)
def test_kernels_keep_every_value_and_error(name, kappa, z, F, dF, member):
    model = KERNEL_MODELS[name]
    if kappa:
        model = model.translated(kappa)
    assert _kernel_outcome(eval_F, model, z) == F
    assert _kernel_outcome(eval_dF, model, z) == dF
    assert domain_contains(model, z) is member


def test_kernels_keep_every_outcome_on_a_grid():
    # the three evaluators on every model above, its members at +-kappa
    # and Q = 0 and 2, over a grid through both guards and signed zeros:
    # the SHA-256 of their outcomes as recorded before the kernels
    digest = hashlib.sha256()
    reals = (-800, -3, -0.0, 0, 1, 2.5, 4.4, 6.6, 50, 699.6, 699.8, 699.9, 700.1, 800)
    imags = (0.0, -0.0, 0.3, 3.1, 3.14159, -3.1, 6.4)
    grid = [complex(re, im) for re in reals for im in imags]
    for model in KERNEL_MODELS.values():
        for kappa in (0j, 0.3 + 0.2j, -0.3 - 0.2j):
            for Q in (0.0, 2.0):
                m = dataclasses.replace(model, half_plane_Q=Q, kappa=kappa)
                for z in grid:
                    outcomes = tuple(_kernel_outcome(fn, m, z)
                                     for fn in (eval_F, eval_dF, domain_contains))
                    digest.update(repr(outcomes).encode())
    assert digest.hexdigest() == (
        "6408e1cb2e931c98833104073526efb76d8ad4b7eea160b05d93816bb6a624e8"
    )


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


@pytest.mark.parametrize("kappa", [0.3 + 0.2j, complex(-0.0, 0.0), complex(0.0, -0.0), -0.5j])
def test_translated_is_the_member_replace_builds(kappa):
    # the member is built field by field; it must be the same model,
    # signed zeros of the summed kappa included
    for model in (
        SHIFTED,
        LogLiftModel("shifted_exp", R=10.0, kappa=complex(-0.0, -0.0)),
        LogLiftModel("lifted_entire", plane_map=EntireMapSpec.sinh(0.575), half_plane_Q=2.0),
    ):
        member = model.translated(kappa)
        assert repr(member) == repr(dataclasses.replace(model, kappa=model.kappa + kappa))
        assert member == dataclasses.replace(model, kappa=model.kappa + kappa)


def test_kappa_must_be_finite():
    with pytest.raises(DomainError):
        SHIFTED.translated(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        LogLiftModel("shifted_exp", kappa=complex(0.0, math.inf))
    # so must Q, for every kind: a nan Q made eval_F and domain_contains disagree
    lifted = EntireMapSpec.sinh(0.575)
    for Q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="half_plane_Q"):
            LogLiftModel("shifted_exp", half_plane_Q=Q)
        with pytest.raises(ValueError, match="half_plane_Q"):
            LogLiftModel("lifted_entire", plane_map=lifted, half_plane_Q=Q)


def test_model_to_json_refuses_what_no_descriptor_holds():
    with pytest.raises(ValueError):
        model_to_json(SHIFTED.translated(0.3 + 0.2j))


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


def test_membership_inside_the_guard_needs_a_proved_modulus():
    # exp(z) = 701 trips the plane map's guard, yet |1e-300 e^701| = e^10.2
    # is below e^Q; with a multiplier 1e-290 it is e^33.2, above it
    z = complex(math.log(701.0))
    for a, member in ((1e-300, False), (1e-290, True)):
        spec = EntireMapSpec.exp_affine(a, 0)
        model = LogLiftModel("lifted_entire", plane_map=spec, half_plane_Q=20.0)
        assert domain_contains(model, z) is member


def _mp_abs_f(spec, zeta):
    # |f(zeta)| in 50-digit arithmetic, where doubles overflow
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.mpc(zeta.real, zeta.imag)
        p = [mpmath.mpc(c.real, c.imag) for c in spec.params]
        e = mpmath.exp(z)
        value = {
            "exp_affine": lambda: p[0] * e + p[1],
            "lambda_expm1": lambda: p[0] * (e - 1),
            "zexp": lambda: (z + 1) * e - 1,
            "sinh": lambda: p[0] * mpmath.sinh(z),
            "exp_plus_kappa": lambda: e + p[0],
        }[spec.family]()
        return abs(value)


def _mp_log_abs_f(spec, zeta):
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.log(_mp_abs_f(spec, zeta)))


FLOOR_SPECS = ALL_SPECS + [
    EntireMapSpec.exp_affine(1e-300, 0),
    EntireMapSpec.exp_affine(-1e300 - 1e300j, 1e300),
    EntireMapSpec.lambda_expm1(1e-200j),
    EntireMapSpec.sinh(1e-300),
]


@pytest.mark.parametrize("spec", FLOOR_SPECS, ids=lambda s: f"{s.family}{s.params}")
def test_log_abs_floor_bounds_the_modulus(spec):
    floor = spec.row.log_abs_floor
    for x in (-800.0, -60.0, -1.0, 0.0, 0.5, 3.0, 60.0, 701.0, 1e3, 1e5):
        for y in (0.0, 1.0, math.pi / 2, 3.0, -2.0, 1e3):
            zeta = complex(x, y)
            exact = _mp_log_abs_f(spec, zeta)
            bound = floor(spec.log_moduli, zeta)
            assert bound <= exact, (zeta, bound, exact)
            if abs(x) >= 60.0 and (x > 0.0 or spec.row.two_sided):
                # far out the leading term dominates: the floor is tight
                assert bound >= exact - 1e-9 * (1.0 + abs(exact)), (zeta, bound)


@pytest.mark.parametrize("spec", FLOOR_SPECS, ids=lambda s: f"{s.family}{s.params}")
def test_abs_ceiling_bounds_the_modulus(spec):
    # the grid kernel finishes a pixel as small where the ceiling is below
    # the escape radius, so it must bound both the exact |f| and the |f|
    # that the row's f computes in doubles
    xs = [-800.0, -60.0, -1.0, 0.0, 0.5, 3.0, math.log(50.0), 60.0, 700.0]
    ys = [0.0, 1.0, math.pi / 2, 3.0, -2.0, math.pi, 1e3, -1e3]
    z = np.array([complex(x, y) for x in xs for y in ys])
    with np.errstate(over="ignore", invalid="ignore"):
        ceiling = spec.row.abs_ceiling(spec.params, z)
        computed = np.abs(spec.row.f(np, spec.params, z))
    for zeta, c in zip(z, ceiling):
        assert c >= _mp_abs_f(spec, complex(zeta)), (zeta, c)
    # a nan |f| fails the kernel's comparison, and only an inf ceiling may
    # stand over it
    bounded = (ceiling >= computed) | (np.isnan(computed) & (ceiling == math.inf))
    assert bounded.all(), z[~bounded]


@pytest.mark.parametrize("spec", FLOOR_SPECS, ids=lambda s: f"{s.family}{s.params}")
def test_abs_ceiling_bounds_the_modulus_where_exp_underflows(spec):
    # the ceilings take e^Re z at Re z = -700 below it, off np.exp's
    # subnormal and underflow paths; they must still bound the computed |f|
    z = np.linspace(-3000.0, -700.0, 47)[:, None] + 1j * np.array([0.0, 1.0, math.pi, -2.5])
    with np.errstate(over="ignore", invalid="ignore"):
        ceiling = spec.row.abs_ceiling(spec.params, z)
        computed = np.abs(spec.row.f(np, spec.params, z))
    bounded = (ceiling >= computed) | (np.isnan(computed) & (ceiling == math.inf))
    assert bounded.all(), z[~bounded]


@settings(max_examples=400, deadline=None)
@given(
    spec=st.sampled_from(FLOOR_SPECS),
    x=st.floats(-3000.0, 820.0),
    y=st.floats(-1e6, 1e6),
    t=st.floats(-1.0, 1.0),
)
def test_abs_ceiling_of_a_column_peaks_farthest_from_the_axis(spec, x, y, t):
    # the grid kernel tests step 1 once per column, at the row with the
    # largest |Im z|: there the ceiling bounds every pixel of the column
    near, far = complex(x, y * t), complex(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        c_near, c_far = spec.row.abs_ceiling(spec.params, np.array([near, far]))
        computed = abs(spec.row.f(np, spec.params, np.array([near]))[0])
    assert c_far >= c_near, (near, far, c_near, c_far)
    if math.isfinite(c_far) and math.isfinite(computed):
        assert c_far >= computed, (near, far, c_far, computed)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        eval_F(SHIFTED, 701.0 + 0.0j)


def test_require_finite_rejects_nonfinite():
    with pytest.raises(DomainError):
        require_finite(complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        require_finite(complex(0.0, math.inf))


def test_write_json_keeps_the_old_file_when_it_refuses_a_payload(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text("OLD CONTENT")
    with pytest.raises(ValueError):
        models.write_json(path, {"a": 1, "b": [1.0, math.nan]})
    assert path.read_text() == "OLD CONTENT"


def test_write_json_bytes_are_json_dump_and_a_newline(tmp_path):
    payload = {"summary": {"x": [1.5, -0.0, 1e300], "s": "\u00e9"}, "n": None}
    models.write_json(tmp_path / "new.json", payload)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


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


def test_map_family_must_be_a_known_name():
    # a list family was a TypeError (unhashable) from the table lookup
    for family in (["sinh"], {"sinh": 1}, "no_such_family"):
        with pytest.raises(ValueError, match="unknown map family"):
            EntireMapSpec(family, (0.575,))


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
