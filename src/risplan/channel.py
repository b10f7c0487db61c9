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
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, IndexOutOfRange, ValidationError
from .geometry import (CellGeometry, PanelGeometry, RisPose, UserLocation, elevation,
                       panel_azimuth, panel_geometry, per_pose)

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
        if min(self.alpha0, self.alpha1, self.alpha2) < 0.0:
            raise ValidationError("path-loss exponents must be nonnegative")
        # The gains are referred to 1 m, which is in the far field only when
        # c1 = (wavelength / 4 pi)^2 <= 1, i.e. fc >= c / 4 pi (23.86 MHz).
        if not self.c1 <= 1.0:
            raise ValidationError(f"the carrier must be at least c/4pi = 23.86 MHz, so that the"
                                  f" 1 m reference is in the far field, got fc={self.fc} Hz")
        if self.c0 is None:
            object.__setattr__(self, "c0", self.c1)
        if self.c0 < 0.0:
            raise ValidationError(f"reference gains must be nonnegative, got {self.c0}, {self.c1}")
        # A cascade's gain is a product of two c0 terms, and the height step
        # forms c0 ** 2.
        if not math.isfinite(self.c0 * self.c0):
            raise ValidationError(f"c0 and its square must be finite, got c0={self.c0}")
        lowest = subcarrier_frequencies(self)[0]
        if not lowest > 0.0:
            raise ValidationError(f"every subcarrier needs a positive frequency, the lowest is"
                                  f" {lowest} Hz")

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


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """All M subcarrier frequencies, ascending and symmetric around the carrier."""
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
    or of pose arrays, which broadcast (see geometry.per_pose)."""
    def gain(d0, h0):
        dist2 = d0 ** 2 + (h0 - h_b) ** 2
        if dist2 <= 0.0:
            raise DegenerateGeometry("BS-RIS distance is zero")
        return cfg.c0 * dist2 ** (-cfg.alpha0 / 2.0)

    return per_pose(gain, d0, h0)


def path_loss_ris_user(dkr, h0, h_u: float, cfg: SystemConfig):
    """Reflected second-hop gain c0 * (3D distance^2)^(-alpha2/2), of one
    horizontal distance or an array; h0 is a float or a pose array that
    broadcasts against it."""
    dist2 = dkr ** 2 + per_pose(lambda h0: (h0 - h_u) ** 2, h0)
    if np.any(np.asarray(dist2) <= 0.0):
        raise DegenerateGeometry("RIS-user distance is zero")
    return cfg.c0 * dist2 ** (-cfg.alpha2 / 2.0)


def second_hop_gain(view: PanelGeometry, h0, h_u: float, cfg: SystemConfig):
    """Second-hop gain of each user of a `panel_geometry` view, zero for a
    user the panel cannot serve.  The path loss is formed wherever the
    RIS-user distance is positive, at the shape of the view's distances and
    h0, and coverage then selects from it; a served user's distance is
    positive, so it gets the same gain however the view was batched."""
    reach = np.where(view.dkr > 0.0, view.dkr, 1.0)
    return np.where(view.omega, path_loss_ris_user(reach, h0, h_u, cfg), 0.0)


@dataclass(frozen=True)
class LosGeometry:
    """Deterministic per-subcarrier steering structure for a fixed layout,
    or for T user layouts at one pose stacked on a leading (T,) axis of the
    user terms.

    Pose terms (see `pose_los`):
    b_ris: BS-side unit vector of the BS-RIS link, (M, Nt).
    a_ris: panel-side unit vector of the BS-RIS link, (M, Nr).
    User terms:
    d_bar: direct-link structure per user, (K, M, Nt).
    h_bar: panel-user structure per user, (K, M, Nr); its row and beta2 are
           zero for a user the panel cannot serve.
    """

    b_ris: np.ndarray
    a_ris: np.ndarray
    beta0: float
    d_bar: np.ndarray
    h_bar: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    def subcarrier(self, m: int) -> LosGeometry:
        """The view of subcarrier m alone, indexed as a sequence of the M
        subcarriers (0-based, negative from the end): every per-subcarrier
        array keeps its M axis with length 1, and the gains are shared.
        Every scatter scale of a draw is independent of M and the
        subcarriers are drawn independently, so a draw on the view has the
        distribution of subcarrier m of a full draw, from 1/M of its normals."""
        size = self.b_ris.shape[0]
        if not -size <= m < size:
            raise IndexOutOfRange(f"subcarrier index {m} outside {-size}..{size - 1}")
        m %= size
        return replace(self, b_ris=self.b_ris[m:m + 1], a_ris=self.a_ris[m:m + 1],
                       d_bar=self.d_bar[..., m:m + 1, :], h_bar=self.h_bar[..., m:m + 1, :])


def pose_los(cfg: SystemConfig, geom: CellGeometry, pose: RisPose) -> tuple:
    """The pose terms of LosGeometry, (b_ris, a_ris, beta0), built once for
    any number of user layouts at the pose."""
    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    freqs = subcarrier_frequencies(cfg)
    b_ris = steering_ula(cfg.nt, spatial_direction(freqs, pose.phi0, cfg))
    a_ris = steering_upa(cfg.nr_x, cfg.nr_y,
                         spatial_direction(freqs, panel_azimuth(-pose.d0, 0.0, pose.phiR), cfg),
                         spatial_direction(freqs, elevation(geom.h_b - pose.h0, pose.d0), cfg))
    return b_ris, a_ris, path_loss_bs_ris(pose.d0, pose.h0, geom.h_b, cfg)


def precompute_los(cfg: SystemConfig, geom: CellGeometry, pose: RisPose, users,
                   pose_terms: tuple = None) -> LosGeometry:
    """Steering vectors and large-scale gains for a fixed layout, in one
    pass over all users and subcarriers; a user the panel cannot serve gets
    a zero second-hop gain and h_bar row, the only record of coverage.

    `users` is a list of UserLocation or a (dk, phik) pair of (K,) arrays;
    a pair of (T, K) arrays for T layouts gives the user terms a leading
    (T,) axis.
    `pose_terms`, the pose's `pose_los`, is reused instead of rebuilt.
    """
    if pose_terms is None:
        pose_terms = pose_los(cfg, geom, pose)
    if isinstance(users[0], UserLocation):
        users = ([user.dk for user in users], [user.phik for user in users])
    dk, phik = (np.asarray(v, dtype=float) for v in users)
    freqs = subcarrier_frequencies(cfg)
    view = panel_geometry(pose.d0, pose.phi0, pose.phiR, dk, phik)
    covered = view.omega
    h_bar = np.zeros(dk.shape + (cfg.m, cfg.nr), dtype=complex)
    h_bar[covered] = np.conj(steering_upa(
        cfg.nr_x, cfg.nr_y,
        spatial_direction(freqs, panel_azimuth(view.dx[covered, None], view.dy[covered, None],
                                               pose.phiR), cfg),
        spatial_direction(freqs, elevation(geom.h_u - pose.h0, view.dkr[covered, None]), cfg),
    ))
    return LosGeometry(
        *pose_terms,
        d_bar=np.conj(steering_ula(cfg.nt, spatial_direction(freqs, phik[..., None], cfg))),
        h_bar=h_bar, beta1=path_loss_bs_user(dk, cfg),
        beta2=second_hop_gain(view, pose.h0, geom.h_u, cfg),
    )


@dataclass
class ChannelRealization:
    """One random draw of all links at every subcarrier, or T draws stacked
    on a leading (T,) axis of every array below.

    g: (M, Nt, Nr) BS-RIS matrices; d: (K, M, Nt) direct vectors;
    h: (K, M, Nr) panel-user vectors, zero for a user the panel cannot serve.
    """

    g: np.ndarray
    d: np.ndarray
    h: np.ndarray


def _mix_weights(k_factor: float, los_only: bool) -> tuple[float, float]:
    if los_only:
        return 1.0, 0.0
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


# Floats of the draw scratch, which normals pass through a piece at a
# time: small enough to stay in cache while they are scaled, whatever the
# link size.
_NORMALS_PIECE = 2 ** 15

def draw_buffers(los: LosGeometry, n: int) -> tuple:
    """Arrays for up to n draws of sample_channel_realization at the shapes
    of `los`, for a caller that draws repeatedly: complex g, d and h stacks,
    then a float scratch for pieces of normals (at most the n draws') or
    the deterministic BS-RIS term of at least one subcarrier."""
    (m, nt), nr = los.b_ris.shape, los.a_ris.shape[-1]
    shapes = [(m, nt, nr)] + [bar.shape[-3:] for bar in (los.d_bar, los.h_bar)]
    normals = 2 * n * sum(map(math.prod, shapes))
    return (*(np.empty((n,) + shape, dtype=complex) for shape in shapes),
            np.empty(max(min(_NORMALS_PIECE, normals), 2 * nt * nr)))


def _fill_normals(rngs: list, scratch: np.ndarray, out: list, scales: list) -> None:
    """Fill the first len(rngs) draws of each stacked complex array in `out`
    with standard normals, draw i's from rngs[i], in the generator's order:
    draw by draw, array by array, real parts before imaginary parts.  Each
    array's normals are multiplied by its real factors in `scales`, in turn.

    The normals are made a piece at a time in `scratch`, which takes as many
    whole draws as it holds, or one draw in pieces of its size that run on
    from one link to the next.  Consecutive draws of a piece that share a
    generator are filled by one call: a Generator's successive fills give
    the stream of one larger fill.  The normals are scaled in the piece: a
    complex times a real factor is the real factor times each part, so this
    gives the bits of scaling the complex draw.
    """
    n = len(rngs)
    sizes = [z[0].size for z in out]
    starts = [2 * sum(sizes[:k]) for k in range(len(sizes))]  # in a draw's normals
    total = 2 * sum(sizes)
    width, per = min(total, scratch.size), max(1, scratch.size // total)
    for i in range(0, n, per):
        rows = min(per, n - i)
        for lo in range(0, total, width):
            hi = min(lo + width, total)
            block = scratch[:rows * (hi - lo)].reshape(rows, hi - lo)
            row = 0
            for _, run in groupby(rngs[i:i + rows], key=id):
                run = list(run)
                run[0].standard_normal(out=block[row:row + len(run)])
                row += len(run)
            for z, size, start, (*first, last) in zip(out, sizes, starts, scales):
                a, b = max(lo, start), min(hi, start + 2 * size)
                if a >= b:
                    continue
                segment = block[:, a - lo:b - lo]
                for factor in first:
                    segment *= factor
                flat = z[i:i + rows].reshape(rows, -1)
                for part, p in ((flat.real, start), (flat.imag, start + size)):
                    x, y = max(a, p), min(b, p + size)
                    if x < y:
                        np.multiply(block[:, x - lo:y - lo], last, out=part[:, x - p:y - p])


def _draw_links(cfg: SystemConfig, los: LosGeometry, rngs: list, scratch: np.ndarray,
                g: np.ndarray, d: np.ndarray, h: np.ndarray) -> float:
    """Fill the g, d and h stacks, one draw per generator of `rngs`, with
    their links' scatter through `scratch` (see _fill_normals), in that
    order, and finish d and h; return g's Rician LOS weight.  g holds G's
    scatter (sample_channel_realization) or the matrix that takes its place
    (sample_effective_channel)."""
    weights = [_mix_weights(k_factor, cfg.los_only) for k_factor in (cfg.k0, cfg.k1, cfg.k2)]
    # Each link's scatter is scaled by 1/sqrt(2), by its normalisation and
    # by its Rician weight.  numpy divides a complex array by a real scalar
    # as a multiplication by its reciprocal, so these give the division's bits.
    _fill_normals(rngs, scratch, (g, d, h),
                  [(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(norm), w_nlos)
                   for norm, (_, w_nlos) in zip((cfg.nt * cfg.nr, cfg.nt, cfg.nr), weights)])
    # Then d and h add their weighted deterministic terms and take their
    # large-scale amplitudes, which zero every h row the panel cannot serve.
    for z, bar, (w_los, _), beta in ((d, los.d_bar, weights[1], los.beta1),
                                     (h, los.h_bar, weights[2], los.beta2)):
        z += w_los * bar
        z *= np.sqrt(beta)[..., None, None]
    return weights[0][0]


def sample_channel_realization(cfg: SystemConfig, los: LosGeometry, rngs,
                               out: tuple = None) -> ChannelRealization:
    """Rician draws of every link, one per generator of `rngs`, stacked on a
    leading axis: g (n, M, Nt, Nr), d (n, K, M, Nt), h (n, K, M, Nr).

    Each draw consumes its generator as g, d, h, each link's real parts
    before its imaginary parts, so `[rng] * n` on a one-layout `los` makes
    n draws from one generator in turn that equal n one-draw calls bit for
    bit.  A stacked `los` (see precompute_los) takes one generator per
    layout, and draw i takes its layout i.  The draws go into the first n
    entries of `out`, arrays from `draw_buffers`, or into fresh ones, and
    each link is assembled there in place, with the same operations in the
    same order for every draw.
    """
    n = len(rngs)
    if not n:
        raise ValidationError("need at least one draw")
    if los.d_bar.shape[:-3] not in ((), (n,)):
        raise DimensionMismatch(f"need one generator per layout, got {n}")
    *stacks, scratch = draw_buffers(los, n) if out is None else out
    g, d, h = (stack[:n] for stack in stacks)
    g_los = _draw_links(cfg, los, rngs, scratch, g, d, h)
    # g's term w_los * b_ris a_ris^H is formed in the scratch for as many
    # subcarriers as it holds at a time (one at full scale), so no draw
    # holds it whole.
    (m, nt), nr = los.b_ris.shape, los.a_ris.shape[-1]
    block = scratch.size // (2 * nt * nr)
    a_conj, gain = np.conj(los.a_ris), math.sqrt(los.beta0)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        term = scratch[:2 * (hi - lo) * nt * nr].view(complex).reshape(hi - lo, nt, nr)
        np.einsum("mt,mr->mtr", los.b_ris[lo:hi], a_conj[lo:hi], out=term)
        term *= g_los
        g[:, lo:hi] += term
        g[:, lo:hi] *= gain
    return ChannelRealization(g, d, h)


def effective_channel(real: ChannelRealization, theta: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x Nt effective matrix, (M, K, Nt); row k is the
    conjugated sum of the direct vector and the phase-shifted reflected
    cascade, which is zero for a user the panel cannot serve.  A stacked
    realization takes (T, Nr) phases and gives (T, M, K, Nt)."""
    *stack, _, _, nr = real.h.shape
    theta = np.asarray(theta)
    if theta.shape != (*stack, nr):
        raise DimensionMismatch(f"phase vector must have shape {(*stack, nr)}, got {theta.shape}")
    # One (Nt x Nr) @ (Nr x K) product per subcarrier: (..., M, Nt, K).
    cascade = real.g @ np.moveaxis(theta[..., None, None, :] * real.h, -3, -1)
    return np.conj(np.swapaxes(real.d, -3, -2) + np.swapaxes(cascade, -2, -1))


def sample_effective_channel(cfg: SystemConfig, los: LosGeometry, theta: np.ndarray,
                             rngs) -> np.ndarray:
    """Draws of the effective channel of one layout at fixed phases, one per
    generator of `rngs`, stacked on a leading axis, (n, M, K, Nt), each
    with the distribution of effective_channel on sample_channel_realization
    of `los`, without forming the BS-RIS G.

    The cascade reads G_m only through G_m X_m, X_m = Phi [h_km] (Nr x K).
    An i.i.d. CN(0, 1) matrix Z times a fixed X has independent rows of
    covariance X^H X (Tulino & Verdu, Random Matrix Theory and Wireless
    Communications, 2004, section 2.2), and so has W R for an i.i.d.
    CN(0, 1) Nt x K matrix W and X = QR, rank-deficient X included, since
    X^H X = R^H R.  W takes G's place and scale in the draw, and each draw
    consumes its generator as W, d, h (see sample_channel_realization).
    """
    n = len(rngs)
    if n < 1:
        raise ValidationError(f"need at least one draw, got {n}")
    (m, nt), nr = los.b_ris.shape, los.a_ris.shape[-1]
    theta = np.asarray(theta)
    if theta.shape != (nr,):
        raise DimensionMismatch(f"phase vector must have shape {(nr,)}, got {theta.shape}")
    if los.d_bar.ndim != 3:
        raise DimensionMismatch("effective-channel draws take the LOS structure of one layout")
    w, d, h = (np.empty((n,) + shape, dtype=complex) for shape in
               ((m, nt, min(nr, los.d_bar.shape[0])), los.d_bar.shape, los.h_bar.shape))
    scratch = np.empty(min(_NORMALS_PIECE, 2 * (w.size + d.size + h.size)))
    g_los = _draw_links(cfg, los, rngs, scratch, w, d, h)
    x = np.transpose(h, (0, 2, 3, 1)) * theta[:, None]  # (n, M, Nr, K)
    los_term = los.b_ris[:, :, None] * (np.conj(los.a_ris)[:, None, :] @ x)  # (n, M, Nt, K)
    cascade = math.sqrt(los.beta0) * (g_los * los_term + w @ np.linalg.qr(x, mode="r"))
    return np.conj(np.swapaxes(d, 1, 2) + np.swapaxes(cascade, -2, -1))
