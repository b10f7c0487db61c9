"""Cell geometry in one Cartesian frame: offsets, link angles, coverage.

The cell is centred on the BS.  The RIS sits at horizontal distance d0 and
azimuth phi0 from the BS, at height h0; users live at (dk, phik) at the
common height h_u.  Each pose is seen in its BS-to-panel frame, the cell
turned by -phi0: the panel sits at (d0, 0) and a user at
dk * (cos, sin)(phik - phi0).  The panel orientation phiR is the angle of
the panel normal from the panel-to-BS direction, counter-clockwise, so
phiR = 0 faces the BS.  A reflecting panel serves one half-plane: a user is
served only when it and the BS are both in front of the panel, within pi/2
of its normal.  `panel_geometry` computes offsets, distances and coverage
for a batch of poses against a batch of users; `link_angles` and
`coverage_indicator` are its single-user views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, ValidationError

TWO_PI = 2.0 * math.pi


def wrap_to_2pi(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    wrapped = math.fmod(angle, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return 0.0 if wrapped >= TWO_PI else wrapped


@dataclass(frozen=True)
class CellGeometry:
    """Cell radius, BS/user heights, and the allowed RIS placement box."""

    r: float = 200.0
    h_b: float = 10.0
    h_u: float = 1.5
    r_min: float = 10.0
    r_max: float = 200.0
    h_min: float = 1.0
    h_max: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.r_min <= self.r_max <= self.r):
            raise ValidationError(
                f"need 0 < r_min <= r_max <= r, got {self.r_min}, {self.r_max}, {self.r}"
            )
        if not (0.0 <= self.h_min <= self.h_max):
            raise ValidationError(f"need 0 <= h_min <= h_max, got {self.h_min}, {self.h_max}")
        if not self.h_u < self.h_b:
            raise ValidationError("user height must be below BS height")


@dataclass(frozen=True)
class RisPose:
    """RIS placement: horizontal distance and azimuth from the BS, height,
    and the panel normal's angle phiR from the panel-to-BS direction."""

    d0: float
    phi0: float
    h0: float
    phiR: float

    def __post_init__(self):
        if self.d0 < 0.0:
            raise ValidationError("d0 must be nonnegative")
        object.__setattr__(self, "phi0", wrap_to_2pi(self.phi0))
        object.__setattr__(self, "phiR", wrap_to_2pi(self.phiR))


@dataclass(frozen=True)
class UserLocation:
    """User position in BS-centred polar coordinates (height is geometry-wide h_u)."""

    dk: float
    phik: float

    def __post_init__(self):
        if self.dk < 0.0:
            raise ValidationError("dk must be nonnegative")


@dataclass(frozen=True)
class LinkAngles:
    """Physical angles of the BS-RIS and RIS-user links; azimuths are
    measured from the panel normal, in [-pi, pi]."""

    theta0_az: float  # BS seen from the panel, azimuth
    theta0_el: float  # BS seen from the panel, elevation
    theta2_az: float  # user seen from the panel, azimuth
    theta2_el: float  # user seen from the panel, elevation


class PanelGeometry(NamedTuple):
    """Panel-side view of users, broadcast over poses and samples: coverage
    flags omega, horizontal RIS-user distances dkr, and each user's offset
    (dx, dy) from the panel in the pose's BS-to-panel frame."""

    omega: np.ndarray
    dkr: np.ndarray
    dx: np.ndarray
    dy: np.ndarray


def per_pose(fn, *terms):
    """fn of each pose's terms in Python float arithmetic: floats give a
    float, arrays their broadcast shape, with fn evaluated once per element.
    numpy's vectorised power differs from Python's in the last bit on some
    inputs; per-pose terms keep Python's, so a pose scores the same alone,
    in a batch or on a grid."""
    if not any(isinstance(t, np.ndarray) for t in terms):
        return fn(*map(float, terms))
    return np.asarray(np.frompyfunc(fn, len(terms), 1)(*terms), dtype=float)


def elevation(height_gap, distance):
    """Elevation angle of a link with the given height gap over the given
    horizontal distance."""
    return np.arctan(np.abs(height_gap) / distance)


def panel_azimuth(dx, dy, phiR: float):
    """Azimuth from the normal of a point at offset (dx, dy) from the panel
    in the BS-to-panel frame: atan2(n x v, n . v) for the normal
    n = -(cos, sin)(phiR).  The BS, at offset (-d0, 0), reads -phiR."""
    c, s = math.cos(phiR), math.sin(phiR)
    return np.arctan2(dx * s - dy * c, -(dx * c + dy * s))


def panel_geometry(d0, phi0, phiR, d: np.ndarray, phi: np.ndarray) -> PanelGeometry:
    """Coverage, distances and panel offsets of users at (d, phi).

    The pose terms d0, phi0 and phiR are floats or arrays that end in a
    length-1 user axis; they broadcast against the user arrays, and each
    term is formed at the shape of the pose terms it depends on: dy at
    phi0, dx and distances at (d0, phi0), coverage at (d0, phi0, phiR).  A
    user is covered when both the BS and the user are in front of the panel
    (n . v >= 0, boundary counted as covered) and neither d0 nor dkr is zero.
    """
    along = phi - phi0
    dx = d * np.cos(along) - d0
    dy = d * np.sin(along)
    dkr = np.hypot(dx, dy)
    c, s = per_pose(math.cos, phiR), per_pose(math.sin, phiR)
    omega = (dkr > 0.0) & (d0 > 0.0) & (c >= 0.0) & (dx * c + dy * s <= 0.0)
    return PanelGeometry(omega=omega, dkr=dkr, dx=dx, dy=dy)


def _single(pose: RisPose, user: UserLocation) -> PanelGeometry:
    return panel_geometry(pose.d0, pose.phi0, pose.phiR, np.array([user.dk]), np.array([user.phik]))


def link_angles(pose: RisPose, user: UserLocation, geom: CellGeometry) -> LinkAngles:
    """Panel-relative azimuth/elevation angles for both hops of the reflected
    path; DegenerateGeometry when the BS-RIS or RIS-user horizontal distance
    is zero, where that link has no direction."""
    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    view = _single(pose, user)
    dkr = float(view.dkr[0])
    if not dkr > 0.0:
        raise DegenerateGeometry("RIS and user are horizontally coincident")
    return LinkAngles(theta0_az=float(panel_azimuth(-pose.d0, 0.0, pose.phiR)),
                      theta0_el=float(elevation(geom.h_b - pose.h0, pose.d0)),
                      theta2_az=float(panel_azimuth(view.dx[0], view.dy[0], pose.phiR)),
                      theta2_el=float(elevation(geom.h_u - pose.h0, dkr)))


def coverage_indicator(pose: RisPose, user: UserLocation) -> int:
    """1 when both the BS and the user are in front of the panel (within
    pi/2 of its normal, boundary counted as covered), else 0; degenerate
    geometry counts as uncovered."""
    return int(_single(pose, user).omega[0])
