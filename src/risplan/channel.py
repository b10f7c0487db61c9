"""Wideband Rician channel synthesis for the BS-RIS-user geometry.

Each link splits into a deterministic steering-vector component and an i.i.d.
complex-Gaussian scattered component, mixed by the link's Rician factor and
scaled by the large-scale gain.  Steering vectors are unit-norm and every
scattered component is normalised so its expected squared norm matches the
steering structure (1), which keeps each link's expected power equal to its
large-scale gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, IndexOutOfRange, ValidationError
from .geometry import CellGeometry, RisPose, UserLocation, elevation, panel_geometry, per_pose

SPEED_OF_LIGHT = 299_792_458.0


def reference_gain(fc: float) -> float:
    """Free-space reference gain (wavelength/4pi)^2 at carrier fc."""
    lam = SPEED_OF_LIGHT / fc
    return lam * lam / (16.0 * math.pi * math.pi)


@dataclass(frozen=True)
class SystemConfig:
    """Array sizes, OFDM layout, powers and large-scale channel constants.

    C0/C1 are the reference-distance gains of the reflected and direct paths.
    C1 is (wavelength/4pi)^2 at fc, and C0 defaults to it; d_spacing is half
    a wavelength at the centre carrier.  C1 and d_spacing are derived from
    fc, so `replace(cfg, fc=...)` updates both.  los_only zeroes every
    scattered component and sets the deterministic weight to one (the
    infinite Rician factor limit), which makes channel draws deterministic.
    """

    nt: int = 128
    nr_x: int = 10
    nr_y: int = 10
    m: int = 16
    k: int = 4
    fc: float = 28e9
    bandwidth: float = 4e9
    pmax: float = 1.0
    sigma2: float = 10.0 ** (-10.4) * 1e-3
    k0: float = 15.0
    k1: float = 10.0
    k2: float = 15.0
    alpha0: float = 2.2
    alpha1: float = 4.0
    alpha2: float = 2.8
    c0: float = None
    los_only: bool = False

    def __post_init__(self):
        if self.k < 1 or self.nt <= self.k:
            raise ValidationError(f"need nt > k >= 1, got nt={self.nt}, k={self.k}")
        if self.m < 1:
            raise ValidationError("need at least one subcarrier")
        if min(self.nr_x, self.nr_y) < 1:
            raise ValidationError("panel grid must be at least 1x1")
        if self.pmax <= 0.0 or self.sigma2 <= 0.0:
            raise ValidationError("powers must be positive")
        if self.fc <= 0.0 or self.bandwidth < 0.0:
            raise ValidationError("need a positive carrier and a nonnegative bandwidth")
        if min(self.k0, self.k1, self.k2) < 0.0:
            raise ValidationError("Rician factors must be nonnegative")
        if self.c0 is None:
            object.__setattr__(self, "c0", self.c1)
        if self.c0 < 0.0:
            raise ValidationError(f"reference gains must be nonnegative, got {self.c0}, {self.c1}")

    @property
    def c1(self) -> float:
        return reference_gain(self.fc)

    @property
    def d_spacing(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.fc)

    @property
    def nr(self) -> int:
        return self.nr_x * self.nr_y

    @property
    def power_per_stream(self) -> float:
        """Equal power split across users and subcarriers."""
        return self.pmax / (self.k * self.m)


def subcarrier_frequency(m: int, cfg: SystemConfig) -> float:
    """Frequency of the 1-based subcarrier m, symmetric around the carrier."""
    if not 1 <= m <= cfg.m:
        raise IndexOutOfRange(f"subcarrier {m} outside 1..{cfg.m}")
    return float(subcarrier_frequencies(cfg)[m - 1])


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """All M subcarrier frequencies, index-aligned with 0-based storage."""
    idx = np.arange(1, cfg.m + 1, dtype=float)
    return cfg.fc + (cfg.bandwidth / cfg.m) * (idx - 1 - (cfg.m - 1) / 2.0)


def spatial_direction(f, physical_angle, cfg: SystemConfig):
    """Dimensionless per-subcarrier direction (f/c) * spacing * sin(angle);
    frequencies and angles broadcast."""
    return (f / SPEED_OF_LIGHT) * cfg.d_spacing * np.sin(physical_angle)


def steering_ula(n: int, direction) -> np.ndarray:
    """Unit-norm linear-array response with per-element phase 2*pi*direction;
    an array of directions gives one response per entry along a new last axis."""
    if n < 1:
        raise ValidationError("array needs at least one element")
    phases = 2.0 * np.pi * np.arange(n) * np.asarray(direction)[..., None]
    return np.exp(1j * phases) / math.sqrt(n)


def steering_upa(nx: int, ny: int, dir_az, dir_el) -> np.ndarray:
    """Unit-norm planar-array response: Kronecker of the azimuth-phased
    x-axis vector with the elevation-phased y-axis vector.  Arrays of
    directions broadcast and give one response per entry along a new last
    axis."""
    if nx < 1 or ny < 1:
        raise ValidationError("panel needs at least one element per axis")
    vx = np.exp(2j * np.pi * np.arange(nx) * np.asarray(dir_az)[..., None])
    vy = np.exp(2j * np.pi * np.arange(ny) * np.asarray(dir_el)[..., None])
    outer = vx[..., :, None] * vy[..., None, :]
    return outer.reshape(outer.shape[:-2] + (nx * ny,)) / math.sqrt(nx * ny)


def path_loss_bs_user(dk, cfg: SystemConfig):
    """Direct-link gain c1 * dk^-alpha1, of one distance or an array."""
    if np.any(np.asarray(dk) <= 0.0):
        raise DegenerateGeometry("BS-user distance is zero")
    return cfg.c1 * dk ** (-cfg.alpha1)


def path_loss_bs_ris(d0, h0, h_b: float, cfg: SystemConfig):
    """Reflected first-hop gain c0 * (3D distance^2)^(-alpha0/2), of one pose
    or of (P, 1) pose columns (see geometry.per_pose)."""
    def gain(d0, h0):
        dist2 = d0 ** 2 + (h0 - h_b) ** 2
        if dist2 <= 0.0:
            raise DegenerateGeometry("BS-RIS distance is zero")
        return cfg.c0 * dist2 ** (-cfg.alpha0 / 2.0)

    return per_pose(gain, d0, h0)


def path_loss_ris_user(dkr, h0, h_u: float, cfg: SystemConfig):
    """Reflected second-hop gain c0 * (3D distance^2)^(-alpha2/2), of one
    horizontal distance or an array; h0 is a float or a (P, 1) pose column."""
    dist2 = dkr ** 2 + per_pose(lambda h0: (h0 - h_u) ** 2, h0)
    if np.any(np.asarray(dist2) <= 0.0):
        raise DegenerateGeometry("RIS-user distance is zero")
    return cfg.c0 * dist2 ** (-cfg.alpha2 / 2.0)


@dataclass(frozen=True)
class LosGeometry:
    """Deterministic per-subcarrier steering structure for a fixed layout.

    b_ris: BS-side unit vector of the BS-RIS link, (M, Nt).
    a_ris: panel-side unit vector of the BS-RIS link, (M, Nr).
    g_bar: BS-RIS structure b_ris a_ris^H per subcarrier, (M, Nt, Nr).
    d_bar: direct-link structure per user, (K, M, Nt).
    h_bar: panel-user structure per user, (K, M, Nr); zero rows for users the
           panel cannot serve.
    """

    b_ris: np.ndarray
    a_ris: np.ndarray
    g_bar: np.ndarray
    d_bar: np.ndarray
    h_bar: np.ndarray
    beta0: float
    beta1: np.ndarray
    beta2: np.ndarray
    omega: np.ndarray


def precompute_los(cfg: SystemConfig, geom: CellGeometry, pose: RisPose,
                   users: list[UserLocation]) -> LosGeometry:
    """Steering vectors, large-scale gains and coverage for a fixed layout,
    in one pass over all users and subcarriers."""
    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    dk = np.array([user.dk for user in users], dtype=float)
    phik = np.array([user.phik for user in users], dtype=float)
    freqs = subcarrier_frequencies(cfg)
    view = panel_geometry(pose.d0, pose.phi0, pose.phiR, dk, phik)
    covered = view.omega

    beta2 = np.where(covered, path_loss_ris_user(np.where(covered, view.dkr, 1.0),
                                                 pose.h0, geom.h_u, cfg), 0.0)
    b_ris = steering_ula(cfg.nt, spatial_direction(freqs, pose.phi0, cfg))
    a_ris = steering_upa(
        cfg.nr_x, cfg.nr_y, spatial_direction(freqs, view.theta0_az, cfg),
        spatial_direction(freqs, elevation(geom.h_b - pose.h0, pose.d0), cfg))
    h_bar = np.zeros((len(users), cfg.m, cfg.nr), dtype=complex)
    h_bar[covered] = np.conj(steering_upa(
        cfg.nr_x, cfg.nr_y,
        spatial_direction(freqs, view.theta2_az[covered, None], cfg),
        spatial_direction(freqs, elevation(geom.h_u - pose.h0, view.dkr[covered, None]), cfg),
    ))
    return LosGeometry(
        b_ris=b_ris, a_ris=a_ris, g_bar=np.einsum("mt,mr->mtr", b_ris, np.conj(a_ris)),
        d_bar=np.conj(steering_ula(cfg.nt, spatial_direction(freqs, phik[:, None], cfg))),
        h_bar=h_bar, beta0=path_loss_bs_ris(pose.d0, pose.h0, geom.h_b, cfg),
        beta1=path_loss_bs_user(dk, cfg), beta2=beta2, omega=covered.astype(int),
    )


@dataclass
class ChannelRealization:
    """One random draw of all links at every subcarrier.

    g: (M, Nt, Nr) BS-RIS matrices; d: (K, M, Nt) direct vectors;
    h: (K, M, Nr) panel-user vectors; omega flags which users the panel serves.
    """

    g: np.ndarray
    d: np.ndarray
    h: np.ndarray
    beta0: float
    beta1: np.ndarray
    beta2: np.ndarray
    omega: np.ndarray


def _mix_weights(k_factor: float, los_only: bool) -> tuple[float, float]:
    if los_only:
        return 1.0, 0.0
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


def _fill_normals(rng: np.random.Generator, out: list) -> None:
    """Fill each stacked complex array in `out` with standard normals, draw
    by draw and array by array, real parts before imaginary parts.  The
    normals pass through two float buffers sized for one draw of the
    largest array, which are freed on return."""
    size = max(z[0].size for z in out)
    re, im = np.empty(size), np.empty(size)
    parts = [(z.real, z.imag, re[:z[0].size].reshape(z.shape[1:]),
              im[:z[0].size].reshape(z.shape[1:])) for z in out]
    for i in range(out[0].shape[0]):
        for z_re, z_im, draw_re, draw_im in parts:
            rng.standard_normal(out=draw_re)
            rng.standard_normal(out=draw_im)
            z_re[i] = draw_re
            z_im[i] = draw_im


def sample_channel_draws(cfg: SystemConfig, los: LosGeometry, rng: np.random.Generator,
                         n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n successive Rician draws of every link, stacked on a leading axis:
    g (n, M, Nt, Nr), d (n, K, M, Nt), h (n, K, M, Nr).

    Each draw consumes the stream as g, d, h, each link's real parts before
    its imaginary parts, so the stack equals n single draws bit for bit.
    Each link is then assembled in place in its complex output, with the
    same operations in the same order for every draw.
    """
    if n < 1:
        raise ValidationError("need at least one draw")
    links = (
        (los.g_bar, cfg.nt * cfg.nr, cfg.k0, math.sqrt(los.beta0)),
        (los.d_bar, cfg.nt, cfg.k1, np.sqrt(los.beta1)[:, None, None]),
        (los.h_bar, cfg.nr, cfg.k2, np.sqrt(los.beta2)[:, None, None]),
    )
    out = [np.empty((n,) + bar.shape, dtype=complex) for bar, *_ in links]
    _fill_normals(rng, out)
    for z, (bar, norm, k_factor, gain) in zip(out, links):
        w_los, w_nlos = _mix_weights(k_factor, cfg.los_only)
        z /= math.sqrt(2.0)
        z /= math.sqrt(norm)
        z *= w_nlos
        z += w_los * bar
        z *= gain
    return tuple(out)


def sample_channel_realization(cfg: SystemConfig, geom: CellGeometry, pose: RisPose,
                               users: list[UserLocation], rng: np.random.Generator,
                               los: LosGeometry = None) -> ChannelRealization:
    """Draw one Rician realization of every link; deterministic given rng state."""
    if los is None:
        los = precompute_los(cfg, geom, pose, users)
    g, d, h = sample_channel_draws(cfg, los, rng, 1)
    return ChannelRealization(g=g[0], d=d[0], h=h[0], beta0=los.beta0, beta1=los.beta1.copy(),
                              beta2=los.beta2.copy(), omega=los.omega.copy())


def effective_channel(real: ChannelRealization, theta: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x Nt effective matrix; row k is the conjugated sum of
    the direct vector and the phase-shifted reflected cascade."""
    k, m, nr = real.h.shape
    theta = np.asarray(theta)
    if theta.shape != (nr,):
        raise DimensionMismatch(f"phase vector must have length {nr}, got {theta.shape}")
    omega = np.asarray(omega)
    if omega.shape != (k,):
        raise DimensionMismatch(f"omega must have length {k}, got {omega.shape}")
    # One (Nt x Nr) @ (Nr x K) product per subcarrier: (M, Nt, K).
    cascade = real.g @ (theta * real.h).transpose(1, 2, 0)
    rows = np.transpose(real.d, (1, 0, 2)) + omega[:, None] * np.transpose(cascade, (0, 2, 1))
    return np.conj(rows)
