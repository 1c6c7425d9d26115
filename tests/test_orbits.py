"""Unit tests for orbit certificates, addresses, and backward solving."""

import cmath
import math

import pytest

from tractlab import conjugacy, orbits
from tractlab.errors import AddressMismatch, AddressUndefined, RangeError
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
    assert rec.escape_flag is orbits.EscapeFlag.STAYED_IN_JQ
    assert rec.certified and rec.saturated
    assert rec.points[1] == pytest.approx(math.e**4 - 10.0)


def test_iterate_saturates_when_the_plane_map_overflows():
    # 1e10 e^zeta overflows to inf inside the map, below the exp guard;
    # that is an escape past double range, not an orbit point at Re = inf
    big = LogLiftModel(
        "lifted_entire", plane_map=EntireMapSpec.exp_affine(1e10, 0)
    )
    z = math.log(700.0) + 0.01j
    rec = orbits.iterate(big, z, 5, Q)
    assert rec.escape_flag is orbits.EscapeFlag.STAYED_IN_JQ and rec.saturated
    assert rec.points == [z]
    kappa = 0.3 + 0.2j
    s = conjugacy.theta_limit(big, kappa, z, 1e-9, Q)
    assert s.depth == 31 and abs(s.theta - z) <= 2.0 * abs(kappa)


def test_iterate_detects_domain_exit():
    rec = orbits.iterate(SHIFTED, 1.0 + 3.0j, 10, Q)
    assert rec.escape_flag is orbits.EscapeFlag.LEFT_DOMAIN
    assert rec.exit_step == 0
    assert not rec.certified


def test_iterate_passes_on_errors_other_than_domain_exits(monkeypatch):
    # only a DomainError means "left the domain"; any other error is a bug
    def broken(model, z):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(orbits, "eval_F", broken)
    with pytest.raises(ZeroDivisionError, match="injected"):
        orbits.iterate(SHIFTED, 4.0 + 0.0j, 10, Q)


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


def test_iterate_evaluates_the_map_once_per_step(monkeypatch):
    # the image of the second point overflows past the plane map's guard;
    # that overflow decides membership without another evaluation
    model = LogLiftModel("lifted_entire", plane_map=EntireMapSpec.lambda_expm1(0.5))
    calls = []
    real = EntireMapSpec.eval

    def counted(self, z):
        calls.append(z)
        return real(self, z)

    monkeypatch.setattr(EntireMapSpec, "eval", counted)
    rec = orbits.iterate(model, 5.0 + 0j, 10, Q)
    assert rec.saturated and rec.exit_step == 1 and len(rec.points) == 2
    assert len(calls) == 2


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


def test_address_container_protocol():
    addr = orbits.ExternalAddress.periodic([2, -1])
    assert len(addr) == 2
    assert addr[0].branch_index == 2
    with pytest.raises(RangeError):
        orbits.point_with_address(SHIFTED, orbits.ExternalAddress(()), Q)
    with pytest.raises(RangeError):
        orbits.periodic_orbit(SHIFTED, addr, Q, 0)
