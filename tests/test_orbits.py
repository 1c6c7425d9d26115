"""Unit tests for orbit certificates, addresses, and backward solving."""

import cmath
import math

import pytest

from tractlab import conjugacy, orbits
from tractlab.errors import (
    AddressMismatch,
    AddressUndefined,
    OrbitLeftJQ,
    RangeError,
)
from tractlab.models import EntireMapSpec, LogLiftModel, eval_F

SHIFTED = LogLiftModel("shifted_exp", R=10.0)
Q = 2.0

# backward-iteration fixed/periodic points, frozen from an independent
# high-precision solve of z = log(z + 10) + 2*pi*i*k
FIXED_K0 = 2.52796320198217
FIXED_K1 = 2.66462898439789 + 6.77436493294247j
PERIOD2_01 = 2.64195115873685 + 0.466912455837032j


def test_iterate_saturates_on_fast_escape():
    rec = orbits.iterate(SHIFTED, 4.0 + 0.0j, 10, Q)
    assert rec.exit_step == 2 and rec.saturated and rec.certified
    # the saturated last point is proved in V, so it has its address
    assert len(rec.addresses) == len(rec.points) == 3
    assert rec.points[1] == pytest.approx(math.e**4 - 10.0)


def test_iterate_saturates_when_the_plane_map_overflows():
    # 1e10 e^zeta overflows to inf inside the map, below the exp guard;
    # that is an escape past double range, not an orbit point at Re = inf
    big = LogLiftModel(
        "lifted_entire", plane_map=EntireMapSpec.exp_affine(1e10, 0)
    )
    z = math.log(700.0) + 0.01j
    rec = orbits.iterate(big, z, 5, Q)
    assert rec.exit_step == 0 and rec.saturated and rec.certified
    assert rec.points == [z]
    kappa = 0.3 + 0.2j
    s = conjugacy.theta_limit(big, kappa, z, 1e-9, Q)
    assert s.depth == 31 and abs(s.theta - z) <= 2.0 * abs(kappa)


def test_iterate_saturates_only_past_a_proved_modulus():
    # exp(z) = 701 trips the plane map's guard, but Re F = log|1e-300 e^701|
    # = 10.2: an overflow is an escape only where log|f| is proved > Q
    spec = EntireMapSpec.exp_affine(1e-300, 0)
    z = complex(math.log(701.0))
    for model_Q, Q_, saturated in ((20.0, 20.0, False), (0.0, 20.0, False),
                                   (0.0, 10.0, True)):
        model = LogLiftModel("lifted_entire", plane_map=spec, half_plane_Q=model_Q)
        rec = orbits.iterate(model, z, 5, Q_)
        assert rec.saturated is saturated and rec.points == [z]
        assert rec.certified is saturated
    model = LogLiftModel("lifted_entire", plane_map=spec)
    with pytest.raises(OrbitLeftJQ, match="fails the J_Q certificate at step 0"):
        conjugacy.theta_limit(model, 0.3 + 0.2j, z, 1e-9, 20.0)


def test_iterate_detects_domain_exit():
    rec = orbits.iterate(SHIFTED, 1.0 + 3.0j, 10, Q)
    assert rec.exit_step == 0 and not rec.saturated
    assert not rec.certified and rec.addresses == []


def test_an_image_on_the_half_plane_boundary_leaves_J_Q():
    # F(z) = e^z - 10 is exactly Q + 0j: J_Q needs Re > Q, so step 0 fails
    # in iterate and in every tower over it
    z = 2.4849066497880004 + 0j
    assert eval_F(SHIFTED, z) == Q
    rec = orbits.iterate(SHIFTED, z, 1, Q)
    assert not (rec.certified or rec.saturated)
    assert (rec.points, rec.addresses, rec.exit_step) == ([z], [], 0)
    with pytest.raises(OrbitLeftJQ, match="fails the J_Q certificate at step 0"):
        conjugacy.theta_n(SHIFTED, 0.3 + 0.2j, z, 1, Q)


def test_iterate_passes_on_errors_other_than_domain_exits():
    # only a DomainError means "left the domain"; any other error is a bug
    def broken(zk):
        raise ZeroDivisionError("injected")

    model = LogLiftModel("shifted_exp", R=10.0)
    vars(model)["_F_value"] = broken  # the value kernel iterate steps on
    with pytest.raises(ZeroDivisionError, match="injected"):
        orbits.iterate(model, 4.0 + 0.0j, 10, Q)


def test_iterate_requires_positive_horizon():
    with pytest.raises(RangeError):
        orbits.iterate(SHIFTED, 4.0 + 0.0j, 0, Q)


def test_point_with_address_matches_frozen_values():
    z0 = orbits.point_with_address(SHIFTED, orbits.ExternalAddress.periodic([0]), Q)
    assert abs(z0 - FIXED_K0) < 1e-11
    z1 = orbits.point_with_address(SHIFTED, orbits.ExternalAddress.periodic([1]), Q)
    assert abs(z1 - FIXED_K1) < 1e-11
    z2 = orbits.point_with_address(
        SHIFTED, orbits.ExternalAddress.periodic([0, 1]), Q
    )
    assert abs(z2 - PERIOD2_01) < 1e-11
    assert abs(eval_F(SHIFTED, z0) - z0) < 1e-10


def test_external_address_reads_back_itinerary():
    z = orbits.point_with_address(
        SHIFTED, orbits.ExternalAddress.periodic([0, 1, -2]), Q
    )
    got = orbits.external_address(SHIFTED, z, 6)
    assert [t.branch_index for t in got.entries] == [0, 1, -2, 0, 1, -2]


def test_external_address_undefined_past_saturation():
    with pytest.raises(AddressUndefined):
        orbits.external_address(SHIFTED, 4.0 + 0.0j, 8)


def test_external_address_needs_each_point_proved_in_the_domain():
    model = LogLiftModel("shifted_exp", R=10.0, half_plane_Q=2.0)
    # F(z) = 3 + pi i is in the half plane, but not in V: cos(pi) < 0
    z = cmath.log(13.0 + math.pi * 1j)
    assert abs(eval_F(model, z) - (3.0 + math.pi * 1j)) < 1e-12
    assert [t.branch_index for t in orbits.external_address(model, z, 1)] == [0]
    with pytest.raises(AddressUndefined):
        orbits.external_address(model, z, 2)
    # a point outside V has no address at all
    with pytest.raises(AddressUndefined):
        orbits.external_address(model, 10.36152439957624 - 16.827016068829987j, 1)


def test_iterate_evaluates_the_map_once_per_step():
    # the image of the second point overflows past the plane map's guard;
    # that overflow decides membership without another evaluation
    kappa = 0.3 + 0.2j
    model = LogLiftModel(
        "lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5), kappa=kappa
    )
    calls = []
    real = model._F_value

    def counted(zk):
        calls.append(zk)
        return real(zk)

    vars(model)["_F_value"] = counted  # the value kernel iterate steps on
    rec = orbits.iterate(model, 4.7 - 0.2j, 10, Q)
    assert rec.saturated and rec.exit_step == 1 and len(rec.points) == 2
    assert calls == [p + kappa for p in rec.points]


def test_expansion_ratios_equal_points_and_mismatch():
    z = orbits.point_with_address(SHIFTED, orbits.ExternalAddress.periodic([0]), Q)
    assert orbits.expansion_ratios(SHIFTED, z, z, 4) == [1.0] * 5
    with pytest.raises(AddressMismatch):
        orbits.expansion_ratios(SHIFTED, z, z + 2.0 * math.pi * 1j, 3)


def test_expansion_ratios_doubling_lower_bound():
    z = orbits.point_with_address(SHIFTED, orbits.ExternalAddress.periodic([1]), Q)
    ratios = orbits.expansion_ratios(SHIFTED, z, z + 1e-9, 6)
    assert all(r >= 1.0 - 1e-9 for r in ratios)


def test_periodic_orbit_cycles_and_is_consistent():
    addr = orbits.ExternalAddress.periodic([0, 1, -1])
    orb = orbits.periodic_orbit(SHIFTED, addr, Q, 10)
    assert len(orb) == 10
    assert orb[3] == orb[0] and orb[4] == orb[1]
    for a, b in zip(orb, orb[1:]):
        assert abs(eval_F(SHIFTED, a) - b) <= 1e-8 * (1.0 + abs(b))


def test_periodic_orbit_high_branch_cycle_closes():
    # forward evaluation would amplify the solver tolerance by the cycle
    # derivative product (~1e10 here); per-point rotated solves must not
    addr = orbits.ExternalAddress.periodic([372, 395, 227])
    orb = orbits.periodic_orbit(SHIFTED, addr, Q, 4)
    for a, b in zip(orb, orb[1:]):
        assert abs(eval_F(SHIFTED, a) - b) <= 1e-6 * (1.0 + abs(b))


def test_periodic_orbit_on_kappa_member():
    member = SHIFTED.translated(0.3 + 0.2j)
    addr = orbits.ExternalAddress.periodic([0, 1])
    orb = orbits.periodic_orbit(member, addr, Q, 4)
    for a, b in zip(orb, orb[1:]):
        assert abs(eval_F(member, a) - b) <= 1e-8 * (1.0 + abs(b))


@pytest.mark.parametrize("branches", [[3], [2, -3]])
def test_periodic_orbit_refuses_an_address_no_lifted_cycle_realizes(branches):
    # eval_F takes the principal log: no image has |Im| > pi
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))
    addr = orbits.ExternalAddress.periodic(branches)
    with pytest.raises(RangeError, match=r"lambda_expm1.*\[" + str(branches[0])):
        orbits.periodic_orbit(model, addr, Q, 10)


def test_periodic_orbit_refuses_an_empty_address_as_point_with_address_does():
    # an empty address has no cycle: the error is the RangeError of
    # point_with_address, not a ZeroDivisionError from the cycle's period
    empty = orbits.ExternalAddress(())
    for solve in (orbits.point_with_address, lambda *a: orbits.periodic_orbit(*a, 3)):
        with pytest.raises(RangeError, match="^address must have period at least 1$"):
            solve(SHIFTED, empty, Q)


def test_address_container_protocol():
    addr = orbits.ExternalAddress.periodic([2, -1])
    assert len(addr) == 2
    assert addr[0].branch_index == 2
    with pytest.raises(RangeError):
        orbits.point_with_address(SHIFTED, orbits.ExternalAddress(()), Q)
    with pytest.raises(RangeError):
        orbits.periodic_orbit(SHIFTED, addr, Q, 0)
