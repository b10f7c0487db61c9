"""RIS placement optimizers and user-location samplers.

The heuristic walks one coordinate at a time: panel orientation by maximising
the number of covered samples over a grid, radial distance to its analytic
optimum (the closest allowed point to the BS), height by a one-dimensional
stationarity search, and azimuth by the closed-form minimiser of the summed
squared RIS-user distances.  Exhaustive-grid, stochastic-gradient, random and
single-sample baselines share the same sample-average objective.  Every
candidate pose is scored by one broadcasting kernel, `score_poses`, against
a batch of location samples: a pose list is its zip case, and the grid
searches pass their grids as axes, a block of bounded size per call, so
each pose-only term is formed once per value of the axes it depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (SystemConfig, path_loss_bs_ris, path_loss_bs_user, path_loss_ris_user,
                      second_hop_gain)
from .errors import ObjectiveBoundExceeded, ValidationError
from .geometry import CellGeometry, RisPose, panel_geometry, wrap_to_2pi
from .rate import composite_gain, snr_scale

_HOTSPOT_DEFAULTS = {
    "one_hotspot": ((50.0, math.pi / 4.0),),
    "multi_hotspot": (
        (50.0, math.pi / 4.0),
        (100.0, 3.0 * math.pi / 4.0),
        (50.0, -3.0 * math.pi / 4.0),
        (100.0, -math.pi / 4.0),
    ),
}

_KINDS = ("uniform_disc", "one_hotspot", "multi_hotspot", "custom_centers")


@dataclass(frozen=True)
class UserDistribution:
    """Long-term geographic law the placement is optimized against."""

    kind: str
    cell: CellGeometry
    centers: tuple = ()
    hotspot_radius: float = 10.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        if self.hotspot_radius < 0.0:
            raise ValidationError(f"hotspot radius must be nonnegative, got {self.hotspot_radius}")
        if self.kind in _HOTSPOT_DEFAULTS and not self.centers:
            object.__setattr__(self, "centers", _HOTSPOT_DEFAULTS[self.kind])
        if self.kind == "custom_centers" and not self.centers:
            raise ValidationError("custom_centers needs at least one center")
        for dist_c, _ in self.centers:
            if dist_c < 0.0 or dist_c + self.hotspot_radius > self.cell.r:
                raise ValidationError(f"hotspot center distance {dist_c} is negative or puts "
                                      "its disc beyond the cell")


def sample_location_arrays(dist: UserDistribution, t: int, rng: np.random.Generator):
    """(distance, azimuth) arrays of t samples from the distribution."""
    if t < 1:
        raise ValidationError("need at least one sample")
    if dist.kind == "uniform_disc":
        d = dist.cell.r * np.sqrt(rng.random(t))
        phi = rng.uniform(0.0, 2.0 * math.pi, t)
        return d, phi
    centers = np.asarray(dist.centers)
    idx = rng.integers(0, len(centers), t)
    rad = dist.hotspot_radius * np.sqrt(rng.random(t))
    ang = rng.uniform(0.0, 2.0 * math.pi, t)
    cx = centers[idx, 0] * np.cos(centers[idx, 1]) + rad * np.cos(ang)
    cy = centers[idx, 0] * np.sin(centers[idx, 1]) + rad * np.sin(ang)
    return np.hypot(cx, cy), np.arctan2(cy, cx)


# Pose-sample pairs scored per kernel call by the grid searches; bounds the
# kernel's temporaries whatever the grid or sample count (one pose's samples
# at least).
_CHUNK_CELLS = 4096


def score_poses(d0, phi0, h0, phiR, d: np.ndarray, phi: np.ndarray,
                cfg: SystemConfig, geom: CellGeometry):
    """Placement kernel: poses against (T,) location samples.

    The pose terms d0, phi0, h0 and phiR are floats or arrays that broadcast
    to the pose shape S; the samples sit on a trailing axis, and each term is
    formed at the shape of the terms it depends on (see `panel_geometry`;
    the first-hop gain at (d0, h0), the second-hop gain at (d0, phi0, h0)).
    Returns the per-sample composite gains kappa, S + (T,), the coverage
    flags omega at the shape of (d0, phi0, phiR) plus (T,), and the sample
    average of the closed-form lower-bound user rate, S.  Every cell is
    bit-identical to scoring its pose alone.
    """
    d0, phi0, h0, phiR = (v[..., None] if isinstance(v, np.ndarray) else v
                          for v in (d0, phi0, h0, phiR))
    view = panel_geometry(d0, phi0, phiR, d, phi)
    kappa = composite_gain(path_loss_bs_user(d, cfg), path_loss_bs_ris(d0, h0, geom.h_b, cfg),
                           second_hop_gain(view, h0, geom.h_u, cfg), cfg)
    scale = snr_scale(cfg)
    return kappa, view.omega, np.mean(np.log2(1.0 + scale * kappa), axis=-1)


def _blocks(shape: tuple, t: int):
    """Index tuples cutting a pose grid of `shape` in C order into blocks of
    at most _CHUNK_CELLS pose-sample pairs against t samples (one pose at
    least); an axis is cut only where the axes after it exceed that, and a
    grid that fits whole is the one block ()."""
    inner = math.prod(shape[1:])
    if not shape or shape[0] * inner * t <= _CHUNK_CELLS:
        return [()]
    if len(shape) > 1 and inner * t > _CHUNK_CELLS:
        return [(i,) + rest for i in range(shape[0]) for rest in _blocks(shape[1:], t)]
    step = max(1, _CHUNK_CELLS // (inner * t))
    return [(slice(i, i + step),) for i in range(0, shape[0], step)]


def _block(term, index: tuple):
    """Block `index` of a pose term padded to the grid's axes, at its own
    shape; a block of one value is a float."""
    if not index or not isinstance(term, np.ndarray):
        return term
    block = term[tuple(i if n > 1 else 0 if isinstance(i, int) else slice(None)
                       for i, n in zip(index, term.shape))]
    return block.item() if block.size == 1 else block


def _objectives(terms: tuple, d: np.ndarray, phi: np.ndarray,
                cfg: SystemConfig, geom: CellGeometry):
    """Objective and served-sample count of every pose of the broadcast pose
    terms (d0, phi0, h0, phiR), scored block by block; each block's cells
    are reduced before the next is scored."""
    shape = np.broadcast(*terms).shape
    terms = [v.reshape((1,) * (len(shape) - v.ndim) + v.shape) if isinstance(v, np.ndarray) else v
             for v in terms]
    objective, served = np.empty(shape), np.empty(shape, dtype=int)
    for index in _blocks(shape, len(d)):
        # kappa is dropped here, so no block's gains are held while the next is scored
        omega, objective[index] = score_poses(*(_block(v, index) for v in terms),
                                              d, phi, cfg, geom)[1:]
        served[index] = np.sum(omega, axis=-1)
    return objective, served


def _first_argmax(values: np.ndarray):
    """Index of the first largest value, as a `value > best` scan from -inf
    picks it: NaN never wins, and None means no value beat -inf."""
    values = np.where(np.isnan(values), -math.inf, values)
    i = int(np.argmax(values))
    return i if values[i] > -math.inf else None


def coverage_bulk(pose: RisPose, d: np.ndarray, phi: np.ndarray):
    """Coverage flags and horizontal RIS-user distances of one pose against
    the sample arrays."""
    view = panel_geometry(pose.d0, pose.phi0, pose.phiR, d, phi)
    return view.omega, view.dkr


def composite_gains(pose: RisPose, d: np.ndarray, phi: np.ndarray,
                    cfg: SystemConfig, geom: CellGeometry):
    """Per-sample composite gains (the summands of the placement objective)
    plus the coverage flags."""
    kappa, omega, _ = score_poses(pose.d0, pose.phi0, pose.h0, pose.phiR, d, phi, cfg, geom)
    return kappa, omega


def saa_lower_bound_objective(pose: RisPose, d: np.ndarray, phi: np.ndarray,
                              cfg: SystemConfig, geom: CellGeometry) -> float:
    """Sample-average of the closed-form lower-bound user rate at the pose."""
    return float(score_poses(pose.d0, pose.phi0, pose.h0, pose.phiR, d, phi, cfg, geom)[2])


def kappa_objective(pose: RisPose, d: np.ndarray, phi: np.ndarray,
                    cfg: SystemConfig, geom: CellGeometry):
    """(sum of composite gains, served count) at the pose."""
    kappa, omega = composite_gains(pose, d, phi, cfg, geom)
    return float(np.sum(kappa)), int(np.sum(omega))


def orientation_grid(n_orient: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n_orient) / n_orient


def optimize_orientation(pose: RisPose, d: np.ndarray, phi: np.ndarray, n_orient: int) -> float:
    """Grid angle serving the most samples; ties break to the smallest index."""
    if n_orient < 4:
        raise ValidationError("orientation grid needs at least 4 angles")
    angles = orientation_grid(n_orient)
    counts = np.concatenate([
        np.sum(panel_geometry(pose.d0, pose.phi0, angles[index][:, None], d, phi).omega, axis=-1)
        for index in _blocks((n_orient,), len(d))])
    return float(angles[int(np.argmax(counts))])


def optimize_radial_distance(geom: CellGeometry) -> float:
    """The radial objective decreases with distance, so the closest allowed
    position to the BS is optimal."""
    return geom.r_min


def _height_slope(h: float, d0: float, q1: float, q2: float, n: float,
                  geom: CellGeometry, cfg: SystemConfig) -> float:
    first = -cfg.alpha0 * q1 * (h - geom.h_b) * (d0 ** 2 + (h - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0 - 1.0)
    second = -cfg.alpha2 * n * (h - geom.h_u) * (q2 + n * (h - geom.h_u) ** 2) ** (cfg.alpha2 / 2.0 - 1.0)
    return first + second


def optimize_height(pose: RisPose, d: np.ndarray, phi: np.ndarray, geom: CellGeometry,
                    cfg: SystemConfig) -> float:
    """Height maximising the transformed placement objective.

    Coverage and RIS-user distances are frozen at the given pose.  With no
    covered samples the previous height is kept; the unconstrained optimum
    always lies between the user and BS heights and is clamped into the
    allowed range.
    """
    omega, dkr = coverage_bulk(pose, d, phi)
    served = int(np.sum(omega))
    if served == 0:
        return pose.h0
    q1 = cfg.c0 ** 2 * served
    return _height_root(pose.d0, q1, float(np.sum(dkr[omega] ** 2)), float(served), geom, cfg)


def _height_root(d0: float, q1: float, q2: float, n: float,
                 geom: CellGeometry, cfg: SystemConfig) -> float:
    clamp = lambda h: min(max(h, geom.h_min), geom.h_max)
    if q1 <= 0.0:
        return clamp(geom.h_u)
    lo, hi = geom.h_u, geom.h_b
    slope_lo = _height_slope(lo + 1e-12, d0, q1, q2, n, geom, cfg)
    slope_hi = _height_slope(hi - 1e-12, d0, q1, q2, n, geom, cfg)
    if slope_lo <= 0.0:
        return clamp(lo)
    if slope_hi >= 0.0:
        return clamp(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _height_slope(mid, d0, q1, q2, n, geom, cfg) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return clamp(0.5 * (lo + hi))


def optimize_azimuth(pose: RisPose, d: np.ndarray, phi: np.ndarray,
                     covered_only: bool = True) -> float:
    """Closed-form azimuth minimising the summed squared RIS-user distances.

    The objective reduces to a pure sinusoid a1*cos + a2*sin whose minimiser
    is atan2(a2, a1) + pi; a zero phasor returns azimuth 0.
    """
    sel = ...  # every sample
    if covered_only:
        sel = coverage_bulk(pose, d, phi)[0]
        if not np.any(sel):
            return 0.0
    a1 = float(np.sum(-2.0 * pose.d0 * d[sel] * np.cos(phi[sel])))
    a2 = float(np.sum(-2.0 * pose.d0 * d[sel] * np.sin(phi[sel])))
    if a1 == 0.0 and a2 == 0.0:
        return 0.0
    return wrap_to_2pi(math.atan2(a2, a1) + math.pi)


# Pass bound of the azimuth oracle: one step of a 100,000-point azimuth grid.
AZIMUTH_TOLERANCE = 2.0 * math.pi / 100_000


def azimuth_gap(geom: CellGeometry, rng: np.random.Generator) -> float:
    """Oracle for optimize_azimuth: the largest angle between its closed form
    and the minimiser of the summed squared RIS-user distances, over 200
    random sets of 1-39 users from `rng`, covered or not, seen from one fixed
    pose.

    In the azimuth x the objective is C - R*cos(x - m), so its first and
    second derivatives at x are R*sin(x - m) and R*cos(x - m), and their
    atan2 is the angle from x to the minimiser m (0 when R is 0, where every
    azimuth is a minimiser).  The closed form it checks is never used.
    """
    pose = RisPose(d0=10.0, phi0=0.0, h0=5.0, phiR=0.0)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 40))
        d = rng.uniform(1.0, geom.r, t)
        phi = rng.uniform(-math.pi, math.pi, t)
        x = optimize_azimuth(pose, d, phi, covered_only=False)
        slope = float(np.sum(2.0 * pose.d0 * d * np.sin(x - phi)))
        curvature = float(np.sum(2.0 * pose.d0 * d * np.cos(x - phi)))
        worst = max(worst, abs(math.atan2(slope, curvature)))
    return worst


# Placement settings no run varies: the orientation grid's angle count (the
# heuristic's orientation step, and both SGD angles), the heuristic's sweep
# cap and relative stopping tolerance, and SGD's d0 and h0 steps in metres
# per (bps/Hz per metre).
_N_ORIENT = 16
_HEURISTIC_SWEEPS = 20
_HEURISTIC_TOL = 1e-6
_SGD_STEP_D0 = 1.0
_SGD_STEP_H0 = 0.5


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs a run may vary: the location sample count t of every method,
    and SGD's iteration count; the other settings are the constants above."""

    t: int = 200
    sgd_iters: int = 200

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError("sample size must be at least 1")
        if self.sgd_iters < 0:
            raise ValidationError("SGD iteration count must be nonnegative")


@dataclass
class DeploymentResult:
    pose: RisPose
    objective_trace: list = field(default_factory=list)
    served_count_trace: list = field(default_factory=list)
    iterations: int = 0


def objective_upper_bound(cfg: SystemConfig, pose: RisPose, geom: CellGeometry,
                          d: np.ndarray, phi: np.ndarray) -> float:
    """Boundedness certificate for the placement objective at a pose: the
    direct terms of the samples at (d, phi) plus one cascade term per served
    sample at the second-hop gain of the nearest served sample, whose
    horizontal distance is positive, since a user under the panel is not
    served."""
    direct = float(np.sum(composite_gain(path_loss_bs_user(d, cfg), 0.0, 0.0, cfg)))
    omega, dkr = coverage_bulk(pose, d, phi)
    if not np.any(omega):
        return direct
    beta0 = path_loss_bs_ris(pose.d0, pose.h0, geom.h_b, cfg)
    beta2 = path_loss_ris_user(float(np.min(dkr[omega])), pose.h0, geom.h_u, cfg)
    return direct + int(np.sum(omega)) * composite_gain(0.0, beta0, beta2, cfg)


def heuristic_deploy(dist: UserDistribution, settings: OptimizerSettings, geom: CellGeometry,
                     cfg: SystemConfig, rng: np.random.Generator) -> DeploymentResult:
    """Coordinate-descent placement over a fixed set of location samples.

    The radial distance is fixed at its closed form from the start.  Each
    sweep then proposes orientation (coverage-count argmax over _N_ORIENT
    angles), height (stationarity of the transformed objective) and azimuth
    (closed-form phasor minimiser, evaluated jointly with its re-facing) in
    turn.  A proposal is accepted only when it does not decrease the sampled
    objective; unguarded proposals cycle between competing coverage basins
    on symmetric layouts, where the azimuth phasor degenerates to sample
    noise.  At most _HEURISTIC_SWEEPS sweeps run, and one that changes the
    objective by at most _HEURISTIC_TOL of its previous value is the last.
    """
    d, phi = sample_location_arrays(dist, settings.t, rng)
    # start at the top of the height box: panel height trades a stronger
    # BS-side hop against user proximity, and the top is the better default
    # for any cell whose BS sits above the users
    pose = RisPose(d0=optimize_radial_distance(geom), phi0=0.0, h0=geom.h_max, phiR=0.0)
    trace, served_trace = [], []
    scores = {}

    def score(p):
        """(objective, served count) of a pose, scored once per distinct pose."""
        if p not in scores:
            scores[p] = kappa_objective(p, d, phi, cfg, geom)
        return scores[p]

    def realigned(p):
        cand = replace(p, phiR=optimize_orientation(p, d, phi, _N_ORIENT))
        (cand_obj, cand_served), (obj, served) = score(cand), score(p)
        return cand if cand_served > served and cand_obj >= obj else p

    for _ in range(_HEURISTIC_SWEEPS):
        work = realigned(pose)
        cand = replace(work, h0=optimize_height(work, d, phi, geom, cfg))
        if score(cand)[0] > score(work)[0]:
            work = cand
        cand = realigned(replace(work, phi0=optimize_azimuth(work, d, phi)))
        if score(cand)[0] > score(work)[0]:
            work = cand

        obj, served = score(work)
        if trace and obj < trace[-1]:
            break
        bound = objective_upper_bound(cfg, work, geom, d, phi)
        if not obj <= bound * (1.0 + 1e-12):
            raise ObjectiveBoundExceeded(f"placement objective {obj} exceeded its bound {bound}")
        pose = work
        trace.append(obj)
        served_trace.append(served)
        if len(trace) > 1 and abs(obj - trace[-2]) <= _HEURISTIC_TOL * max(abs(trace[-2]), 1e-300):
            break

    return DeploymentResult(pose=pose, objective_trace=trace,
                            served_count_trace=served_trace, iterations=len(trace))


def exhaustive_deploy(dist: UserDistribution, settings: OptimizerSettings,
                      geom: CellGeometry, cfg: SystemConfig,
                      rng: np.random.Generator) -> DeploymentResult:
    """Grid argmax of the sample-average lower-bound objective over a fixed
    grid: d0 steps by (r_max - r_min)/5 and h0 by (h_max - h_min)/3 (1e-9 on
    a degenerate axis), phi0 by pi/4 and phiR by pi/6, at most 2,304 poses.
    The scan order is fixed (d0, then h0, phi0, phiR innermost) so ties
    resolve deterministically to the first maximiser.
    """
    d_step = max((geom.r_max - geom.r_min) / 5.0, 1e-9)
    h_step = max((geom.h_max - geom.h_min) / 3.0, 1e-9)
    d0_vals = np.arange(geom.r_min, geom.r_max + d_step / 2.0, d_step)
    h0_vals = np.arange(geom.h_min, geom.h_max + h_step / 2.0, h_step)
    phi0_vals = np.arange(0.0, 2.0 * math.pi, math.pi / 4.0)
    phiR_vals = np.arange(0.0, 2.0 * math.pi, math.pi / 6.0)

    d, phi = sample_location_arrays(dist, settings.t, rng)
    # Grid axes (d0, phi0, phiR, h0): coverage does not depend on h0, so a
    # block shares it across the heights.  The transpose puts the axes in
    # scan order, so the first maximiser of the flat grid is the scan's.
    objective, served = (v.transpose(0, 3, 1, 2) for v in _objectives(
        (d0_vals[:, None, None, None], phi0_vals[:, None, None], h0_vals, phiR_vals[:, None]),
        d, phi, cfg, geom))
    row = _first_argmax(objective.ravel())
    i, j, k, l = np.unravel_index(row, objective.shape)
    return DeploymentResult(pose=RisPose(float(d0_vals[i]), float(phi0_vals[k]),
                                         float(h0_vals[j]), float(phiR_vals[l])),
                            iterations=1,
                            objective_trace=[float(objective[i, j, k, l])],
                            served_count_trace=[int(served[i, j, k, l])])


def sgd_deploy(dist: UserDistribution, settings: OptimizerSettings,
               geom: CellGeometry, cfg: SystemConfig, rng: np.random.Generator) -> DeploymentResult:
    """Single-sample gradient baseline.

    Each iteration draws one location sample, moves distance and height by
    _SGD_STEP_D0 and _SGD_STEP_H0 times central finite differences of the
    single-sample lower-bound rate, then grid-searches both angles over
    `orientation_grid(_N_ORIENT)` on the same sample.  The traces report the objective and served count on a fixed
    evaluation sample set, one entry for the start pose (a random_deploy
    draw) and one per iteration.
    """
    d_eval, phi_eval = sample_location_arrays(dist, settings.t, rng)
    pose = random_deploy(geom, rng).pose
    delta_d0 = 1e-3 * max(geom.r_max - geom.r_min, 1.0)
    delta_h0 = 1e-3 * max(geom.h_max - geom.h_min, 1.0)
    angles = orientation_grid(_N_ORIENT)
    path = [pose]

    for _ in range(settings.sgd_iters):
        ds, ps = sample_location_arrays(dist, 1, rng)

        lo = max(pose.d0 - delta_d0, geom.r_min)
        hi = min(pose.d0 + delta_d0, geom.r_max)
        lo_h = max(pose.h0 - delta_h0, geom.h_min)
        hi_h = min(pose.h0 + delta_h0, geom.h_max)
        val = score_poses(np.array([hi, lo, pose.d0, pose.d0]), pose.phi0,
                          np.array([pose.h0, pose.h0, hi_h, lo_h]), pose.phiR,
                          ds, ps, cfg, geom)[2].tolist()
        grad_d0 = (val[0] - val[1]) / max(hi - lo, 1e-12)
        grad_h0 = (val[2] - val[3]) / max(hi_h - lo_h, 1e-12)
        d0_new = min(max(pose.d0 + _SGD_STEP_D0 * grad_d0, geom.r_min), geom.r_max)
        h0_new = min(max(pose.h0 + _SGD_STEP_H0 * grad_h0, geom.h_min), geom.h_max)
        pose = replace(pose, d0=d0_new, h0=h0_new)

        # phi0 is the outer loop of the angle grid
        objective, _ = _objectives((pose.d0, angles[:, None], pose.h0, angles), ds, ps, cfg, geom)
        row = _first_argmax(objective.ravel())
        if row is not None:
            k, l = divmod(row, len(angles))
            pose = replace(pose, phi0=float(angles[k]), phiR=float(angles[l]))
        path.append(pose)

    terms = tuple(np.array([getattr(p, name) for p in path]) for name in ("d0", "phi0", "h0", "phiR"))
    trace, served = _objectives(terms, d_eval, phi_eval, cfg, geom)
    return DeploymentResult(pose=pose, objective_trace=trace.tolist(),
                            served_count_trace=served.tolist(),
                            iterations=settings.sgd_iters)


def random_deploy(geom: CellGeometry, rng: np.random.Generator) -> DeploymentResult:
    """Uniformly random pose inside the allowed box."""
    pose = RisPose(
        d0=float(rng.uniform(geom.r_min, geom.r_max)),
        phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
        h0=float(rng.uniform(geom.h_min, geom.h_max)),
        phiR=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    return DeploymentResult(pose=pose)


def one_sample_deploy(dist: UserDistribution, settings: OptimizerSettings,
                      geom: CellGeometry, cfg: SystemConfig,
                      rng: np.random.Generator) -> DeploymentResult:
    """Heuristic run on a single location sample."""
    return heuristic_deploy(dist, replace(settings, t=1), geom, cfg, rng)
