"""Polar-coordinate cell geometry: RIS/user distances, link angles, coverage.

The cell is centred on the BS.  The RIS sits at horizontal distance d0 and
azimuth phi0 from the BS, at height h0, with its panel orientation given by
phiR (counter-clockwise from the x axis).  Users live at (dk, phik) at the
common height h_u.  `panel_geometry` computes distances, coverage and
angles for a batch of poses against a batch of users; `link_angles` and
`coverage_indicator` are its single-user views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, ValidationError

TWO_PI = 2.0 * math.pi


def wrap_to_pm_pi(angle):
    """Wrap an angle, or an array of angles, to (-pi, pi]."""
    wrapped = np.mod(angle + np.pi, TWO_PI)
    wrapped = np.where(wrapped <= 0.0, wrapped + TWO_PI, wrapped)
    return wrapped - np.pi


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
    """RIS placement: horizontal distance, azimuth, height, panel orientation."""

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
    """Physical angles of the BS-RIS and RIS-user links, azimuths in (-pi, pi]."""

    theta0_az: float  # BS seen from the panel, azimuth
    theta0_el: float  # BS seen from the panel, elevation
    theta2_az: float  # user seen from the panel, azimuth
    theta2_el: float  # user seen from the panel, elevation


class PanelGeometry(NamedTuple):
    """Panel-side view of users, broadcast over poses and samples.

    omega: coverage flags; dkr: horizontal RIS-user distances; theta0_az:
    azimuth of the BS seen from the panel; theta2_az: azimuth of each user
    seen from the panel, meaningless for degenerate (dkr or d0 zero) users.
    """

    omega: np.ndarray
    dkr: np.ndarray
    theta0_az: np.ndarray
    theta2_az: np.ndarray


def per_pose(fn, *terms):
    """fn of each pose's terms in Python float arithmetic: floats give a
    float, (P, 1) columns a (P, 1) column, with fn evaluated once per
    distinct row.  numpy's vectorised power differs from Python's in the
    last bit on some inputs; per-pose terms keep Python's, so a pose scores
    the same alone or in any batch."""
    if not isinstance(terms[0], np.ndarray):
        return fn(*map(float, terms))
    distinct = {}
    index = [distinct.setdefault(row, len(distinct))
             for row in zip(*[t.ravel().tolist() for t in terms])]
    return np.array([fn(*row) for row in distinct])[index].reshape(terms[0].shape)


def _square(v: float) -> float:
    return v ** 2


# Squared RIS-user distances at or below this share of d0^2 + d^2 are
# rounding noise: the per-pose Python square and the per-sample numpy square
# of one distance may differ in the last bit, which would put a user directly
# under the panel about 1e-7 m away from it.
_ROUNDING = 4.0 * np.finfo(float).eps


def _ris_user_distance(d0, d0_sq, phi0, d: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Horizontal RIS-user distances via the law of cosines; d0_sq is d0 ** 2
    per pose."""
    d_sq = d ** 2
    dkr_sq = d0_sq + d_sq - 2.0 * d0 * d * np.cos(phi0 - phi)
    return np.sqrt(np.where(dkr_sq > _ROUNDING * (d0_sq + d_sq), dkr_sq, 0.0))


def elevation(height_gap, distance):
    """Elevation angle of a link with the given height gap over the given
    horizontal distance."""
    return np.arctan(np.abs(height_gap) / distance)


def bs_azimuth(phi0, phiR):
    """Azimuth of the BS seen from the panel, in (-pi, pi]; it depends on the
    pose alone."""
    return wrap_to_pm_pi(math.pi / 2.0 - phi0 - phiR)


def panel_geometry(d0, phi0, phiR, d: np.ndarray, phi: np.ndarray) -> PanelGeometry:
    """Coverage, distances and panel-side azimuths of users at (d, phi).

    The pose terms d0, phi0 and phiR are floats, or (P, 1) columns with one
    row per pose, and broadcast against the (T,) user arrays.  A user is
    covered when both the BS and the user fall in the panel's frontal
    azimuth half-space (|azimuth| <= pi/2, boundary counted as covered);
    degenerate users (d0 or dkr zero) are uncovered.
    """
    d0_sq = per_pose(_square, d0)
    dkr = _ris_user_distance(d0, d0_sq, phi0, d, phi)
    ok = (dkr > 0.0) & (d0 > 0.0)
    safe = np.where(ok, dkr, 1.0)
    # Interior angle at the RIS of the BS-RIS-user triangle; the cosine is
    # clamped against floating-point overshoot on collinear layouts.
    cos_tri = (d0_sq + safe ** 2 - d ** 2) / (2.0 * d0 * safe)
    theta2_az = wrap_to_pm_pi(np.arccos(np.clip(cos_tri, -1.0, 1.0))
                              - (math.pi / 2.0 - phi0) - phiR)
    theta0_az = bs_azimuth(phi0, phiR)
    half_pi = math.pi / 2.0
    omega = ok & (np.abs(theta0_az) <= half_pi) & (np.abs(theta2_az) <= half_pi)
    return PanelGeometry(omega=omega, dkr=dkr, theta0_az=theta0_az, theta2_az=theta2_az)


def _single(pose: RisPose, user: UserLocation) -> PanelGeometry:
    return panel_geometry(pose.d0, pose.phi0, pose.phiR, np.array([user.dk]), np.array([user.phik]))


def link_angles(pose: RisPose, user: UserLocation, geom: CellGeometry) -> LinkAngles:
    """Panel-relative azimuth/elevation angles for both hops of the reflected path.

    Raises DegenerateGeometry when the BS-RIS or RIS-user horizontal distance
    is zero, since the triangle the azimuths are built from is then undefined.
    """
    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    view = _single(pose, user)
    dkr = float(view.dkr[0])
    if not dkr > 0.0:
        raise DegenerateGeometry("RIS and user are horizontally coincident")
    return LinkAngles(theta0_az=float(view.theta0_az),
                      theta0_el=float(elevation(geom.h_b - pose.h0, pose.d0)),
                      theta2_az=float(view.theta2_az[0]),
                      theta2_el=float(elevation(geom.h_u - pose.h0, dkr)))


def coverage_indicator(pose: RisPose, user: UserLocation) -> int:
    """1 when both the BS and the user fall in the panel's frontal azimuth
    half-space (|azimuth| <= pi/2, boundary counted as covered), else 0.

    Degenerate geometry counts as uncovered.
    """
    if pose.d0 <= 0.0:
        return 0
    return int(_single(pose, user).omega[0])
