"""The broadcasting placement kernel against the per-pose scalar formulas.

The reference functions below score one pose at a time: coverage in the
pose's BS-to-panel frame (the panel at (d0, 0), the normal at angle
pi + phiR), then the composite-gain and objective code the kernel replaced,
kept verbatim, and so are the flat exhaustive and SGD scans that scored a
(P, 4) pose array.  Every batched or gridded cell must equal them bit for
bit (`==`, not `isclose`): the placement searches pick first maximisers, so
a last-bit difference can move a pose and change the CSV.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma

from risplan import GridTooLarge, OptimizerSettings, RisPose, parse_config
from risplan import deployment
from risplan.channel import path_loss_bs_ris, path_loss_bs_user, path_loss_ris_user
from risplan.deployment import (
    DeploymentResult,
    _first_argmax,
    _objectives,
    exhaustive_deploy,
    kappa_objective,
    optimize_orientation,
    orientation_grid,
    random_deploy,
    saa_lower_bound_objective,
    sample_location_arrays,
    score_poses,
    sgd_deploy,
)
from risplan.geometry import panel_geometry, wrap_to_2pi
from risplan.harness import scaled_config, scaled_distribution, scaled_ris_config
from risplan.rate import composite_gain, rician_ratios, snr_scale

PRESETS = {
    "scaled_ris": scaled_ris_config(),
    "scaled": scaled_config(),
    "full_scale": (parse_config("").cfg, parse_config("").geom),
}


def _ref_coverage(pose, d, phi):
    """Coverage flags and RIS-user distances of one pose: the user and the
    BS, at offsets (dx, dy) and (-d0, 0) from the panel, must both have
    n . v >= 0 for the normal n = -(cos, sin)(phiR)."""
    dx = d * np.cos(phi - pose.phi0) - pose.d0
    dy = d * np.sin(phi - pose.phi0)
    dkr = np.hypot(dx, dy)
    cos_r, sin_r = math.cos(pose.phiR), math.sin(pose.phiR)
    bs_front = pose.d0 * cos_r >= 0.0
    user_front = -(dx * cos_r + dy * sin_r) >= 0.0
    omega = (dkr > 0.0) & (pose.d0 > 0.0) & bs_front & user_front
    return omega, dkr


def _ref_gains(pose, d, phi, cfg, geom):
    omega, dkr = _ref_coverage(pose, d, phi)
    r_nlos, _, r_direct = rician_ratios(cfg)
    beta1 = cfg.c1 * d ** (-cfg.alpha1)
    beta0 = cfg.c0 * (pose.d0 ** 2 + (pose.h0 - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0)
    dist2 = dkr ** 2 + (pose.h0 - geom.h_u) ** 2
    beta2 = np.where(omega, cfg.c0 * np.maximum(dist2, 1e-300) ** (-cfg.alpha2 / 2.0), 0.0)
    kappa = beta1 * (1.0 + r_direct / cfg.nt) + omega * r_nlos * beta0 * beta2
    return kappa, omega


def _ref_objective(pose, d, phi, cfg, geom):
    kappa, _ = _ref_gains(pose, d, phi, cfg, geom)
    scale = cfg.power_per_stream * math.exp(digamma(cfg.nt - cfg.k + 1)) / (cfg.nt * cfg.sigma2)
    return float(np.mean(np.log2(1.0 + scale * kappa)))


unit = st.floats(0.0, 1.0)
pose_fractions = st.tuples(unit, unit, unit, unit)


def _pose(geom, frac):
    fd, fphi, fh, fr = frac
    return RisPose(d0=geom.r_min + fd * (geom.r_max - geom.r_min),
                   phi0=2.0 * math.pi * fphi,
                   h0=geom.h_min + fh * (geom.h_max - geom.h_min),
                   phiR=2.0 * math.pi * fr)


def _samples(preset, kind, t, seed):
    _, geom = PRESETS[preset]
    dist = scaled_distribution(kind, geom)
    return sample_location_arrays(dist, t, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)),
       kind=st.sampled_from(["uniform_disc", "one_hotspot", "multi_hotspot"]),
       t=st.sampled_from([1, 200]),
       seed=st.integers(0, 2 ** 32 - 1),
       fractions=st.lists(pose_fractions, min_size=1, max_size=16))
def test_batched_rows_equal_scalar_formulas(preset, kind, t, seed, fractions):
    cfg, geom = PRESETS[preset]
    d, phi = _samples(preset, kind, t, seed)
    _assert_rows_equal_scalar([_pose(geom, f) for f in fractions], d, phi, cfg, geom)


def _python_square_differs(x):
    """Entries of x whose Python `x ** 2` differs from numpy's `x * x`."""
    return x[np.array([v ** 2 for v in x.tolist()]) != x * x]


@pytest.mark.parametrize("t", [1, 200])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_poses_where_python_and_numpy_powers_differ(preset, t):
    # Python's `x ** 2` and numpy's square disagree in the last bit on about
    # one input in a thousand, away from the edge values hypothesis favours;
    # these poses sit exactly on such inputs for d0, h0 - h_u and h0 - h_b
    cfg, geom = PRESETS[preset]
    d, phi = _samples(preset, "multi_hotspot", t, 4)
    rng = np.random.default_rng(5)
    d0 = _python_square_differs(rng.uniform(geom.r_min, geom.r_max, 60_000))[:24]
    h0 = np.concatenate([
        geom.h_u + _python_square_differs(rng.uniform(geom.h_min, geom.h_max, 30_000) - geom.h_u),
        geom.h_b + _python_square_differs(rng.uniform(geom.h_min, geom.h_max, 30_000) - geom.h_b),
    ])
    h0 = h0[(h0 >= geom.h_min) & (h0 <= geom.h_max)][:24]
    assert len(d0) == len(h0) == 24
    angles = rng.uniform(0.0, 2.0 * math.pi, (24, 2))
    poses = [RisPose(d0=a, phi0=p0, h0=b, phiR=pr)
             for a, b, (p0, pr) in zip(d0.tolist(), h0.tolist(), angles.tolist())]
    poses += [_pose(geom, f) for f in rng.random((200, 4)).tolist()]
    _assert_rows_equal_scalar(poses, d, phi, cfg, geom)


def _zip_terms(poses):
    """(d0, phi0, h0, phiR) arrays of a pose list, the kernel's zip case."""
    return tuple(np.array([getattr(p, name) for p in poses]) for name in ("d0", "phi0", "h0", "phiR"))


def _assert_rows_equal_scalar(poses, d, phi, cfg, geom):
    t = len(d)
    kappa, omega, objective = score_poses(*_zip_terms(poses), d, phi, cfg, geom)
    assert kappa.shape == omega.shape == (len(poses), t)
    assert objective.shape == (len(poses),)
    for row, pose in enumerate(poses):
        ref_kappa, ref_omega = _ref_gains(pose, d, phi, cfg, geom)
        ref_obj = _ref_objective(pose, d, phi, cfg, geom)
        assert np.array_equal(kappa[row], ref_kappa)
        assert np.array_equal(omega[row], ref_omega)
        assert float(objective[row]) == ref_obj
        assert saa_lower_bound_objective(pose, d, phi, cfg, geom) == ref_obj
        assert kappa_objective(pose, d, phi, cfg, geom) == (
            float(np.sum(ref_kappa)), int(np.sum(ref_omega)))


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)),
       kind=st.sampled_from(["uniform_disc", "one_hotspot", "multi_hotspot"]),
       t=st.sampled_from([1, 200]),
       seed=st.integers(0, 2 ** 32 - 1),
       frac=pose_fractions,
       n_orient=st.sampled_from([4, 16, 25]))
def test_orientation_counts_equal_scalar_loop(preset, kind, t, seed, frac, n_orient):
    cfg, geom = PRESETS[preset]
    d, phi = _samples(preset, kind, t, seed)
    pose = _pose(geom, frac)
    angles = orientation_grid(n_orient)
    ref_counts = [int(np.sum(_ref_coverage(replace(pose, phiR=float(a)), d, phi)[0]))
                  for a in angles]
    _, omega, _ = score_poses(pose.d0, pose.phi0, pose.h0, angles, d, phi, cfg, geom)
    assert np.sum(omega, axis=1).tolist() == ref_counts
    assert optimize_orientation(pose, d, phi, n_orient) == float(
        angles[int(np.argmax(ref_counts))])


def test_first_argmax_keeps_the_scalar_scan_tie_break():
    nan, inf = math.nan, math.inf
    assert _first_argmax(np.array([1.0, 3.0, 2.0, 3.0])) == 1
    assert _first_argmax(np.array([nan, 0.5, nan, 0.5])) == 1
    assert _first_argmax(np.array([nan, -inf, 2.0])) == 2
    assert _first_argmax(np.array([nan, nan])) is None
    assert _first_argmax(np.array([-inf, nan])) is None


def _grid_values(preset):
    """d0, h0, phi0 and phiR axes of a product grid: the d0 and h0 values
    include inputs where Python's and numpy's powers differ, and the angles
    include both ends of the circle."""
    _, geom = PRESETS[preset]
    rng = np.random.default_rng(7)
    d0 = np.concatenate([[geom.r_min, geom.r_max],
                         _python_square_differs(rng.uniform(geom.r_min, geom.r_max, 20_000))[:3]])
    gaps = np.concatenate([
        geom.h_u + _python_square_differs(rng.uniform(geom.h_min, geom.h_max, 20_000) - geom.h_u),
        geom.h_b + _python_square_differs(rng.uniform(geom.h_min, geom.h_max, 20_000) - geom.h_b)])
    gaps = gaps[(gaps >= geom.h_min) & (gaps <= geom.h_max)]
    h0 = np.concatenate([[geom.h_min, geom.h_max, geom.h_u], gaps[:2], gaps[-2:]])
    phi0 = np.array([0.0, math.pi / 4.0, 2.0, math.pi, 6.0])
    phiR = np.concatenate([orientation_grid(4), [5.5, np.nextafter(2.0 * math.pi, 0.0)]])
    return d0, h0, phi0, phiR


@pytest.mark.parametrize("t", [1, 200])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_product_grid_cells_equal_scalar_formulas(preset, t):
    cfg, geom = PRESETS[preset]
    d, phi = _samples(preset, "multi_hotspot", t, 11)
    d0, h0, phi0, phiR = _grid_values(preset)
    terms = (d0[:, None, None, None], phi0[:, None], h0[:, None, None], phiR)
    kappa, omega, objective = score_poses(*terms, d, phi, cfg, geom)
    shape = (len(d0), len(h0), len(phi0), len(phiR))
    assert objective.shape == shape and kappa.shape == shape + (t,)
    # coverage does not depend on h0, and is formed without its axis
    assert omega.shape == (len(d0), 1, len(phi0), len(phiR), t)
    grid_objective, grid_served = _objectives(terms, d, phi, cfg, geom)
    for i, j, k, l in np.ndindex(shape):
        pose = RisPose(d0=float(d0[i]), phi0=float(phi0[k]), h0=float(h0[j]), phiR=float(phiR[l]))
        ref_kappa, ref_omega = _ref_gains(pose, d, phi, cfg, geom)
        ref_obj = _ref_objective(pose, d, phi, cfg, geom)
        assert np.array_equal(kappa[i, j, k, l], ref_kappa)
        assert np.array_equal(omega[i, 0, k, l], ref_omega)
        assert float(objective[i, j, k, l]) == ref_obj
        assert float(grid_objective[i, j, k, l]) == ref_obj
        assert int(grid_served[i, j, k, l]) == int(np.sum(ref_omega))


@pytest.mark.parametrize("t", [1, 7, 200])
def test_blocks_cover_the_grid_in_scan_order(monkeypatch, t):
    # Small blocks cut every axis somewhere; each block must stay within the
    # cell bound (or hold one pose) and the blocks must tile the grid in C
    # order, so the scores equal one unchunked kernel call.
    cfg, geom = PRESETS["scaled_ris"]
    d, phi = _samples("scaled_ris", "uniform_disc", t, 3)
    d0, h0, phi0, phiR = _grid_values("scaled_ris")
    terms = (d0[:, None, None, None], phi0[:, None], h0[:, None, None], phiR)
    shape = np.broadcast(*terms).shape
    _, omega, objective = score_poses(*terms, d, phi, cfg, geom)
    served = np.broadcast_to(np.sum(omega, axis=-1), shape)
    for cells in (1, 3 * t, 40 * t, 4096):
        monkeypatch.setattr(deployment, "_CHUNK_CELLS", cells)
        order = np.arange(math.prod(shape)).reshape(shape)
        seen = np.concatenate([order[index].ravel() for index in deployment._blocks(shape, t)])
        assert seen.tolist() == list(range(order.size))
        assert all(order[index].size * t <= max(cells, t) for index in deployment._blocks(shape, t))
        got_objective, got_served = _objectives(terms, d, phi, cfg, geom)
        assert np.array_equal(got_objective, objective)
        assert np.array_equal(got_served, served)


# The flat scans the broadcasting kernel replaced, kept verbatim: every pose
# of a grid is a row of a (P, 4) array, scored in chunks of pose rows.

_FLAT_CHUNK_CELLS = 4096


def _flat_pose_array(poses) -> np.ndarray:
    """(P, 4) array of (d0, phi0, h0, phiR) rows, the kernel's pose layout."""
    return np.array([(p.d0, p.phi0, p.h0, p.phiR) for p in poses], dtype=float)


def _flat_score_poses(poses: np.ndarray, d: np.ndarray, phi: np.ndarray, cfg, geom):
    d0, h0 = poses[:, 0:1], poses[:, 2:3]
    view = panel_geometry(d0, poses[:, 1:2], poses[:, 3:4], d, phi)
    omega = view.omega
    beta2 = np.where(omega, path_loss_ris_user(np.where(omega, view.dkr, 1.0), h0, geom.h_u, cfg),
                     0.0)
    kappa = composite_gain(path_loss_bs_user(d, cfg), path_loss_bs_ris(d0, h0, geom.h_b, cfg),
                           beta2, cfg)
    scale = snr_scale(cfg)
    return kappa, omega, np.mean(np.log2(1.0 + scale * kappa), axis=1)


def _flat_chunks(p: int, t: int):
    step = max(1, _FLAT_CHUNK_CELLS // t)
    return [slice(start, start + step) for start in range(0, p, step)]


def _flat_objectives(poses: np.ndarray, d: np.ndarray, phi: np.ndarray, cfg, geom):
    chunks = (_flat_score_poses(poses[rows], d, phi, cfg, geom)
              for rows in _flat_chunks(len(poses), len(d)))
    objective, served = zip(*[(obj, np.sum(omega, axis=1)) for _, omega, obj in chunks])
    return np.concatenate(objective), np.concatenate(served)


def _flat_exhaustive_deploy(dist, settings, geom, cfg, rng) -> DeploymentResult:
    d0_step = settings.d0_step or max((geom.r_max - geom.r_min) / 5.0, 1e-9)
    h0_step = settings.h0_step or max((geom.h_max - geom.h_min) / 3.0, 1e-9)
    d0_vals = np.arange(geom.r_min, geom.r_max + d0_step / 2.0, d0_step)
    h0_vals = np.arange(geom.h_min, geom.h_max + h0_step / 2.0, h0_step)
    phi0_vals = np.arange(0.0, 2.0 * math.pi, settings.phi0_step)
    phiR_vals = np.arange(0.0, 2.0 * math.pi, settings.phiR_step)
    total = len(d0_vals) * len(h0_vals) * len(phi0_vals) * len(phiR_vals)
    if total > settings.grid_budget:
        raise GridTooLarge(f"{total} grid points exceed budget {settings.grid_budget}")

    d, phi = sample_location_arrays(dist, settings.t, rng)
    d0_g, h0_g, phi0_g, phiR_g = np.meshgrid(
        d0_vals, h0_vals, [wrap_to_2pi(a) for a in phi0_vals.tolist()],
        [wrap_to_2pi(a) for a in phiR_vals.tolist()], indexing="ij")
    grid = np.stack([d0_g.ravel(), phi0_g.ravel(), h0_g.ravel(), phiR_g.ravel()], axis=1)
    objective, served = _flat_objectives(grid, d, phi, cfg, geom)
    row = _first_argmax(objective)
    return DeploymentResult(pose=RisPose(*grid[row].tolist()), iterations=1,
                            objective_trace=[float(objective[row])],
                            served_count_trace=[int(served[row])])


def _flat_sgd_deploy(dist, settings, geom, cfg, rng) -> DeploymentResult:
    d_eval, phi_eval = sample_location_arrays(dist, settings.t, rng)
    pose = random_deploy(geom, rng).pose
    delta_d0 = 1e-3 * max(geom.r_max - geom.r_min, 1.0)
    delta_h0 = 1e-3 * max(geom.h_max - geom.h_min, 1.0)
    angles = orientation_grid(settings.n_orient)
    # the angle grid with phi0 as the outer loop; d0 and h0 filled per step
    angle_grid = np.zeros((len(angles) ** 2, 4))
    angle_grid[:, 1] = np.repeat(angles, len(angles))
    angle_grid[:, 3] = np.tile(angles, len(angles))
    path = [pose]

    for _ in range(settings.sgd_iters):
        ds, ps = sample_location_arrays(dist, 1, rng)

        lo = max(pose.d0 - delta_d0, geom.r_min)
        hi = min(pose.d0 + delta_d0, geom.r_max)
        lo_h = max(pose.h0 - delta_h0, geom.h_min)
        hi_h = min(pose.h0 + delta_h0, geom.h_max)
        probes = _flat_pose_array([replace(pose, d0=hi), replace(pose, d0=lo),
                                   replace(pose, h0=hi_h), replace(pose, h0=lo_h)])
        val = _flat_score_poses(probes, ds, ps, cfg, geom)[2].tolist()
        grad_d0 = (val[0] - val[1]) / max(hi - lo, 1e-12)
        grad_h0 = (val[2] - val[3]) / max(hi_h - lo_h, 1e-12)
        d0_new = min(max(pose.d0 + settings.sgd_step_d0 * grad_d0, geom.r_min), geom.r_max)
        h0_new = min(max(pose.h0 + settings.sgd_step_h0 * grad_h0, geom.h_min), geom.h_max)
        pose = replace(pose, d0=d0_new, h0=h0_new)

        angle_grid[:, 0] = pose.d0
        angle_grid[:, 2] = pose.h0
        row = _first_argmax(_flat_objectives(angle_grid, ds, ps, cfg, geom)[0])
        if row is not None:
            pose = replace(pose, phi0=float(angle_grid[row, 1]), phiR=float(angle_grid[row, 3]))
        path.append(pose)

    trace, served = _flat_objectives(_flat_pose_array(path), d_eval, phi_eval, cfg, geom)
    return DeploymentResult(pose=pose, objective_trace=trace.tolist(),
                            served_count_trace=served.tolist(),
                            iterations=settings.sgd_iters)


def _outcome(deploy, *args):
    """The pose and traces a placement returns as one float list (NaN equal
    to NaN), or the name of the exception it raises."""
    try:
        res = deploy(*args)
    except Exception as exc:  # the flat and broadcast scans must fail alike
        return type(exc).__name__
    pose = res.pose
    return (np.array([pose.d0, pose.phi0, pose.h0, pose.phiR] + res.objective_trace),
            res.served_count_trace, res.iterations)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a[0], b[0], equal_nan=True) and a[1:] == b[1:]


# c0 = 0 makes every pose score alike, so the first grid pose wins every tie;
# an infinite c0 gives a served sample an infinite gain and an unserved one
# NaN, so objectives are inf or NaN.
_GAINS = {"default": None, "tied": 0.0, "nan": math.inf}


def _config(preset, gain):
    cfg, geom = PRESETS[preset]
    if _GAINS[gain] is not None:
        cfg = replace(cfg)
        object.__setattr__(cfg, "c0", _GAINS[gain])
    return cfg, geom


@pytest.mark.parametrize("gain", sorted(_GAINS))
@pytest.mark.parametrize("kind", ["uniform_disc", "one_hotspot", "multi_hotspot"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_grid_scans_equal_the_flat_scans(preset, kind, gain):
    cfg, geom = _config(preset, gain)
    dist = scaled_distribution(kind, geom)
    for seed, t in ((0, 200), (1, 1), (2, 37)):
        settings = OptimizerSettings(t=t, sgd_iters=12, n_orient=16 if seed else 8)
        with np.errstate(invalid="ignore"):
            for ours, flat in ((exhaustive_deploy, _flat_exhaustive_deploy),
                               (sgd_deploy, _flat_sgd_deploy)):
                args = (dist, settings, geom, cfg)
                got = _outcome(ours, *args, np.random.default_rng(seed))
                want = _outcome(flat, *args, np.random.default_rng(seed))
                assert _same(got, want), (ours.__name__, seed, t, got, want)


def _peak(fn, *args):
    """tracemalloc peak of a call, after one untimed call has warmed the
    allocator caches it reuses."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("t", [200, 2000])
@pytest.mark.parametrize("method", ["exhaustive", "sgd"])
def test_grid_scan_peak_memory(method, t):
    # A block holds at most _CHUNK_CELLS pose-sample pairs, as a chunk of the
    # flat scans did, and a grid block forms coverage and distances without
    # the axes they do not depend on, so no scan may peak above the flat one.
    cfg, geom = scaled_ris_config()
    dist = scaled_distribution("one_hotspot", geom)
    settings = OptimizerSettings(t=t)
    ours, flat = {"exhaustive": (exhaustive_deploy, _flat_exhaustive_deploy),
                  "sgd": (sgd_deploy, _flat_sgd_deploy)}[method]
    args = (dist, settings, geom, cfg)
    assert _peak(ours, *args, np.random.default_rng(4)) <= _peak(flat, *args, np.random.default_rng(4))
