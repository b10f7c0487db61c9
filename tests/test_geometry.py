import math

import numpy as np
import pytest

from risplan import (
    CellGeometry,
    DegenerateGeometry,
    RisPose,
    UserLocation,
    ValidationError,
    coverage_indicator,
    link_angles,
)
from risplan.geometry import panel_geometry, wrap_to_2pi

GEOM = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0, h_min=1.0, h_max=10.0)


def test_wrap_2pi_range():
    assert wrap_to_2pi(-0.1) == pytest.approx(2 * math.pi - 0.1)
    assert wrap_to_2pi(2 * math.pi) == 0.0


def test_geometry_invariants_enforced():
    with pytest.raises(ValidationError):
        CellGeometry(r=100.0, r_min=0.0, r_max=50.0)
    with pytest.raises(ValidationError):
        CellGeometry(r=100.0, r_min=60.0, r_max=50.0)
    with pytest.raises(ValidationError):
        CellGeometry(r=100.0, r_min=10.0, r_max=50.0, h_u=12.0, h_b=10.0)


def test_pose_wraps_angles():
    pose = RisPose(d0=10.0, phi0=-math.pi / 2, h0=5.0, phiR=5 * math.pi)
    assert 0.0 <= pose.phi0 < 2 * math.pi
    assert pose.phi0 == pytest.approx(3 * math.pi / 2)
    assert pose.phiR == pytest.approx(math.pi)


def _dkr(pose, user):
    """Horizontal RIS-user distance of one user, from panel_geometry."""
    view = panel_geometry(pose.d0, pose.phi0, pose.phiR, np.array([user.dk]), np.array([user.phik]))
    return float(view.dkr[0])


def test_distance_coincident():
    pose = RisPose(d0=10.0, phi0=1.0, h0=5.0, phiR=0.0)
    assert _dkr(pose, UserLocation(10.0, 1.0)) == 0.0


def test_distance_right_angle():
    # Pythagoras by hand: sqrt(100 + 100) = sqrt(200)
    pose = RisPose(d0=10.0, phi0=math.pi / 2, h0=5.0, phiR=0.0)
    d = _dkr(pose, UserLocation(10.0, 0.0))
    assert d == pytest.approx(math.sqrt(200.0), rel=1e-12)
    assert d == pytest.approx(14.1421, abs=1e-4)


def test_distance_collinear_opposite():
    pose = RisPose(d0=10.0, phi0=0.0, h0=5.0, phiR=0.0)
    assert _dkr(pose, UserLocation(20.0, math.pi)) == pytest.approx(30.0)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d0, dk = rng.uniform(0.1, 200, 2)
        phi0, phik = rng.uniform(0, 2 * math.pi, 2)
        pose = RisPose(d0=d0, phi0=phi0, h0=5.0, phiR=0.0)
        swapped = RisPose(d0=dk, phi0=phik, h0=5.0, phiR=0.0)
        d = _dkr(pose, UserLocation(dk, phik))
        assert d == pytest.approx(_dkr(swapped, UserLocation(d0, phi0)), rel=1e-12)
        assert abs(d0 - dk) - 1e-9 <= d <= d0 + dk + 1e-9


def test_link_angles_boresight_equal_heights():
    geom = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0,
                        h_min=1.0, h_max=10.0)
    # phiR = 0 points the normal at the BS
    pose = RisPose(d0=10.0, phi0=0.0, h0=10.0, phiR=0.0)
    ang = link_angles(pose, UserLocation(30.0, 0.5), geom)
    assert ang.theta0_az == pytest.approx(0.0, abs=1e-12)
    assert ang.theta0_el == pytest.approx(0.0, abs=1e-12)


def test_link_angles_elevation_quarter_pi():
    # arctan(|10 - 0| / 10) = pi/4; RIS height 0 is outside the usual box but
    # the angle formula itself has no box dependence.
    geom = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0,
                        h_min=0.0, h_max=10.0)
    pose = RisPose(d0=10.0, phi0=0.3, h0=0.0, phiR=1.0)
    ang = link_angles(pose, UserLocation(30.0, 0.5), geom)
    assert ang.theta0_el == pytest.approx(math.pi / 4, rel=1e-12)


def test_link_angles_collinear_beyond():
    # user behind the panel on the BS axis: with the normal turned away from
    # the BS (phiR = pi) the user sits at its boresight, azimuth 0
    pose = RisPose(d0=10.0, phi0=0.0, h0=5.0, phiR=math.pi)
    ang = link_angles(pose, UserLocation(50.0, 0.0), GEOM)
    assert ang.theta2_az == pytest.approx(0.0, abs=1e-12)


def test_link_angles_wrap_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d0 = rng.uniform(1, 100)
        dk = rng.uniform(1, 100)
        phi0, phik, phiR = rng.uniform(0, 2 * math.pi, 3)
        user = UserLocation(dk, phik)
        base = link_angles(RisPose(d0, phi0, 5.0, phiR), user, GEOM)
        bumped = link_angles(RisPose(d0, phi0 + 2 * math.pi, 5.0, phiR),
                             UserLocation(dk, phik + 2 * math.pi), GEOM)
        assert base.theta0_az == pytest.approx(bumped.theta0_az, abs=1e-9)
        assert base.theta2_az == pytest.approx(bumped.theta2_az, abs=1e-9)


def test_link_angles_degenerate():
    pose = RisPose(d0=10.0, phi0=1.0, h0=5.0, phiR=0.0)
    with pytest.raises(DegenerateGeometry):
        link_angles(pose, UserLocation(10.0, 1.0), GEOM)
    with pytest.raises(DegenerateGeometry):
        link_angles(RisPose(0.0, 0.0, 5.0, 0.0), UserLocation(10.0, 1.0), GEOM)


def test_coverage_boresight_and_flip():
    # the panel faces the BS, and the user stands beyond the BS on its boresight
    pose = RisPose(d0=10.0, phi0=0.0, h0=10.0, phiR=0.0)
    user = UserLocation(50.0, math.pi)
    assert coverage_indicator(pose, user) == 1
    flipped = RisPose(d0=10.0, phi0=0.0, h0=10.0, phiR=math.pi)
    assert coverage_indicator(flipped, user) == 0


def test_coverage_flip_kills_strict_interior():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        pose = RisPose(rng.uniform(5, 50), rng.uniform(0, 2 * math.pi), 5.0,
                       rng.uniform(0, 2 * math.pi))
        user = UserLocation(rng.uniform(1, 150), rng.uniform(0, 2 * math.pi))
        ang = link_angles(pose, user, GEOM)
        strict = abs(ang.theta0_az) < math.pi / 2 - 1e-6 and abs(ang.theta2_az) < math.pi / 2 - 1e-6
        if strict and coverage_indicator(pose, user) == 1:
            checked += 1
            flipped = RisPose(pose.d0, pose.phi0, pose.h0, pose.phiR + math.pi)
            assert coverage_indicator(flipped, user) == 0
    assert checked > 20


def test_coverage_degenerate_is_zero():
    pose = RisPose(d0=10.0, phi0=1.0, h0=5.0, phiR=0.0)
    assert coverage_indicator(pose, UserLocation(10.0, 1.0)) == 0
    assert coverage_indicator(RisPose(0.0, 0.0, 5.0, 0.0), UserLocation(10.0, 1.0)) == 0


def test_coverage_deterministic():
    pose = RisPose(d0=12.0, phi0=0.7, h0=6.0, phiR=1.1)
    user = UserLocation(80.0, 0.9)
    vals = {coverage_indicator(pose, user) for _ in range(5)}
    assert len(vals) == 1


# ------------------------------------------- frame-free checks of the angles
#
# These hold whatever the orientation convention: they compare the panel-side
# azimuths with one another and with the triangle, never with phiR.

def _random_layout(rng):
    pose = RisPose(rng.uniform(1, 100), rng.uniform(0, 2 * math.pi), 5.0,
                   rng.uniform(0, 2 * math.pi))
    return pose, UserLocation(rng.uniform(1, 150), rng.uniform(0, 2 * math.pi))


def test_bs_user_separation_is_the_interior_angle():
    rng = np.random.default_rng(8)
    for _ in range(300):
        pose, user = _random_layout(rng)
        ang = link_angles(pose, user, GEOM)
        dkr = _dkr(pose, user)
        # law of cosines at the panel corner of the BS-panel-user triangle
        cos_tri = (pose.d0 ** 2 + dkr ** 2 - user.dk ** 2) / (2.0 * pose.d0 * dkr)
        assert math.cos(ang.theta2_az - ang.theta0_az) == pytest.approx(cos_tri, abs=1e-9)


def test_mirrored_users_get_opposite_separations():
    # users mirrored across the BS-panel line sit on opposite sides of the BS
    # as the panel sees them
    rng = np.random.default_rng(9)
    for _ in range(300):
        pose, user = _random_layout(rng)
        offset = rng.uniform(0.05, math.pi - 0.05)
        seps = []
        for side in (1.0, -1.0):
            ang = link_angles(pose, UserLocation(user.dk, pose.phi0 + side * offset), GEOM)
            seps.append(math.sin(ang.theta2_az - ang.theta0_az))
        assert abs(seps[0]) > 1e-6
        assert seps[0] == pytest.approx(-seps[1], abs=1e-9)


def test_covered_exactly_when_bs_and_user_face_the_normal():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(2000):
        pose, user = _random_layout(rng)
        ang = link_angles(pose, user, GEOM)
        margins = (math.pi / 2 - abs(ang.theta0_az), math.pi / 2 - abs(ang.theta2_az))
        if min(abs(m) for m in margins) < 1e-9:
            continue
        checked += 1
        assert coverage_indicator(pose, user) == int(min(margins) > 0.0)
    assert checked > 1900


def test_no_orientation_covers_more_than_a_half_plane():
    # A line through a panel at distance d0 from the centre of the r-disc
    # leaves at most 1/2 + 2 d0 / (pi r) of the disc on one side; the bound
    # allows five standard errors of the sampled share on top.
    n, d0 = 20_000, GEOM.r_min
    rng = np.random.default_rng(11)
    d, phi = GEOM.r * np.sqrt(rng.random(n)), rng.uniform(0.0, 2 * math.pi, n)
    phi0 = np.array([0.0, math.pi / 4, math.pi / 2, math.pi])[:, None, None]
    phiR = (2 * math.pi * np.arange(64) / 64)[:, None]
    shares = np.mean(panel_geometry(d0, phi0, phiR, d, phi).omega, axis=-1)
    assert shares.shape == (4, 64)
    bound = 0.5 + 2.0 * d0 / (math.pi * GEOM.r) + 5.0 * 0.5 / math.sqrt(n)
    assert shares.max() <= bound
    assert shares.max() > 0.5
