"""The batched placement kernel against the per-pose scalar formulas.

The reference functions below are the scalar coverage / composite-gain /
objective code the kernel replaced, kept verbatim.  Every batched row must
equal them bit for bit (`==`, not `isclose`): the placement searches pick
first maximisers, so a last-bit difference can move a pose and change the
CSV.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma

from risplan import RisPose, parse_config
from risplan.deployment import (
    _first_argmax,
    kappa_objective,
    optimize_orientation,
    orientation_grid,
    pose_array,
    saa_lower_bound_objective,
    sample_location_arrays,
    score_poses,
)
from risplan.harness import scaled_config, scaled_distribution, scaled_ris_config
from risplan.rate import rician_ratios

PRESETS = {
    "scaled_ris": scaled_ris_config(),
    "scaled": scaled_config(),
    "full_scale": (parse_config("").cfg, parse_config("").geom),
}


def _ref_wrap(angle):
    wrapped = np.mod(angle + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    return wrapped - np.pi


def _ref_coverage(pose, d, phi):
    dkr2 = pose.d0 ** 2 + d ** 2 - 2.0 * pose.d0 * d * np.cos(pose.phi0 - phi)
    dkr = np.sqrt(np.maximum(dkr2, 0.0))
    ok = (dkr > 0.0) & (pose.d0 > 0.0)
    safe = np.where(ok, dkr, 1.0)
    cos_tri = (pose.d0 ** 2 + safe ** 2 - d ** 2) / (2.0 * pose.d0 * safe)
    theta2 = _ref_wrap(np.arccos(np.clip(cos_tri, -1.0, 1.0))
                       - (math.pi / 2.0 - pose.phi0) - pose.phiR)
    theta0 = _ref_wrap(np.array(math.pi / 2.0 - pose.phi0 - pose.phiR))
    half_pi = math.pi / 2.0
    omega = ok & (np.abs(theta0) <= half_pi) & (np.abs(theta2) <= half_pi)
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


def _assert_rows_equal_scalar(poses, d, phi, cfg, geom):
    t = len(d)
    kappa, omega, objective = score_poses(pose_array(poses), d, phi, cfg, geom)
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
    grid = pose_array([replace(pose, phiR=float(a)) for a in angles])
    _, omega, _ = score_poses(grid, d, phi, cfg, geom)
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
