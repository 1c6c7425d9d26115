"""Unit tests for half-plane hyperbolic geometry and density bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab import hypmetric
from tractlab.errors import RangeError
from tractlab.models import LogLiftModel

SHIFTED = LogLiftModel("shifted_exp", R=10.0)

pos = st.floats(min_value=0.05, max_value=50.0)
im = st.floats(min_value=-50.0, max_value=50.0)


def test_density_is_reciprocal_boundary_distance():
    assert hypmetric.rho_half_plane(2.0, 5.0 + 3.0j) == 1.0 / 3.0
    with pytest.raises(RangeError):
        hypmetric.rho_half_plane(2.0, 1.0 + 0.0j)


def test_distance_on_real_axis_is_log_ratio():
    # along the geodesic orthogonal to the boundary the distance is exact
    assert abs(hypmetric.dist_half_plane(0.0, 1.0, 2.0) - math.log(2.0)) < 1e-12
    assert abs(hypmetric.dist_half_plane(0.0, 0.5, 8.0) - math.log(16.0)) < 1e-12


def test_distance_invariances():
    z, w = 3.0 + 1.0j, 7.0 - 2.0j
    d = hypmetric.dist_half_plane(0.0, z, w)
    # vertical translation and dilation about the boundary are isometries
    assert abs(hypmetric.dist_half_plane(0.0, z + 5j, w + 5j) - d) < 1e-12
    assert abs(hypmetric.dist_half_plane(0.0, 3.0 * z, 3.0 * w) - d) < 1e-12
    assert abs(hypmetric.dist_half_plane(2.0, z + 2.0, w + 2.0) - d) < 1e-12


@settings(max_examples=80, deadline=None)
@given(x1=pos, y1=im, x2=pos, y2=im, x3=pos, y3=im)
def test_distance_metric_axioms(x1, y1, x2, y2, x3, y3):
    a, b, c = complex(x1, y1), complex(x2, y2), complex(x3, y3)
    dab = hypmetric.dist_half_plane(0.0, a, b)
    assert abs(dab - hypmetric.dist_half_plane(0.0, b, a)) <= 1e-10
    assert dab >= 0.0
    dac = hypmetric.dist_half_plane(0.0, a, c)
    dcb = hypmetric.dist_half_plane(0.0, c, b)
    assert dab <= dac + dcb + 1e-10


def test_standard_estimate_brackets_half_plane_density():
    for d in (0.1, 1.0, 42.0):
        bound = hypmetric.standard_estimate_bound(d)
        assert bound.contains(1.0 / d)
        assert bound.simply_connected_only
    with pytest.raises(RangeError):
        hypmetric.standard_estimate_bound(0.0)


def test_inscribed_disk_upper_dominates_exact():
    bound = hypmetric.inscribed_disk_upper(3.0)
    assert bound.upper == pytest.approx(2.0 / 3.0)
    assert not bound.simply_connected_only


def test_two_puncture_upper_rejects_coincident_points():
    with pytest.raises(RangeError):
        hypmetric.two_puncture_upper(0.0, 0.0, 1.0 + 0.0j)
    with pytest.raises(RangeError):
        hypmetric.two_puncture_upper(0.0, 1.0, 1.0 + 0.0j)


def test_punctured_sequence_linear_ceiling():
    punctures = [0j] + [complex(2.0**j) for j in range(0, 25)]
    ceiling = 1.0 + math.log(6.0)
    for z in (7.3 + 2.0j, 100.0 - 55.0j, 3.0e5 + 1.0e5j):
        bound = hypmetric.punctured_sequence_upper(punctures, 2.0, z)
        assert bound / abs(z) <= ceiling + 1e-12


def test_punctured_sequence_validates_hypotheses():
    with pytest.raises(RangeError):
        hypmetric.punctured_sequence_upper([1.0 + 0j, 2.0 + 0j], 2.0, 1.5 + 0j)
    with pytest.raises(RangeError):
        # gap 1 -> 8 violates the ratio-2 hypothesis
        hypmetric.punctured_sequence_upper([0j, 1.0 + 0j, 8.0 + 0j], 2.0, 3.0 + 0j)
    with pytest.raises(RangeError):
        hypmetric.punctured_sequence_upper([0j, 1.0 + 0j], 0.5, 3.0 + 0j)


def test_hyperbolic_derivative_expands_on_samples():
    # disjoint-type half-plane dynamics expand the hyperbolic metric
    for z in (3.0 + 0.2j, 4.0 - 1.0j, 5.0 + 6.5j):
        assert hypmetric.hyperbolic_derivative(SHIFTED, z) > 1.0
