import math
from dataclasses import replace

import numpy as np
import pytest

from risplan import (
    CellGeometry,
    ChannelRealization,
    RisPose,
    SystemConfig,
    UserLocation,
    ValidationError,
    optimize_phases,
    precompute_los,
    quantize_phases,
    sample_channel_realization,
    sum_rate_for_phases,
    update_auxiliary,
    update_phases,
)
from risplan.harness import parse_config, scaled_config
from risplan.phase import compute_zf_precoders

GEOM = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0, h_min=1.0, h_max=10.0)


def make_realization(cfg, pose, users, seed=0):
    los = precompute_los(cfg, GEOM, pose, users)
    return sample_channel_realization(cfg, los, [np.random.default_rng(seed)])


def small_setup(c0=1e-2, seed=0):
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=2, c0=c0)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(40.0, 0.4), UserLocation(60.0, 1.2)]
    real = make_realization(cfg, pose, users, seed)
    return cfg, real


def test_auxiliary_scalar_instance():
    # one antenna, one element, one user, one subcarrier: gamma is the
    # hand-evaluated product conj(row) . f * p / sigma2 with f = row^H/|row|
    cfg = SystemConfig(nt=2, nr_x=1, nr_y=1, m=1, k=1, pmax=2.0, sigma2=0.5)
    real = ChannelRealization(
        g=np.zeros((1, 1, 2, 1), dtype=complex),
        d=np.array([[[[0.3 + 0.4j, 0.0]]]]),
        h=np.zeros((1, 1, 1, 1), dtype=complex),
    )
    theta = np.ones((1, 1), dtype=complex)
    h_eff, f, _ = compute_zf_precoders(real, theta)
    gammas = update_auxiliary(h_eff, f, cfg)
    # |row| = 0.5, coupling = |row| = 0.5, p = 2.0 -> gamma = 0.5 * 4 = 2.0
    assert gammas[0, 0, 0] == pytest.approx(0.5 * cfg.power_per_stream / cfg.sigma2)


def test_auxiliary_orthogonal_coupling_is_zero():
    cfg = SystemConfig(nt=2, nr_x=1, nr_y=1, m=1, k=1)
    h_eff = np.array([[[1.0 + 0j, 0.0]]])
    f = np.array([[[0.0], [1.0 + 0j]]])
    gammas = update_auxiliary(h_eff, f, cfg)
    assert gammas[0, 0] == 0.0


def test_update_phases_normalises_entrywise():
    # hand-built steering sums [(1+j), -2] normalise to [(1+j)/sqrt(2), -1]
    real2 = ChannelRealization(
        g=np.ones((1, 1, 1, 2), dtype=complex),
        d=np.zeros((1, 1, 1, 1), dtype=complex),
        h=np.conj(np.array([[[[1.0 + 1.0j, -2.0]]]])),
    )
    gammas = np.array([[[1.0 + 0j]]])
    f = np.ones((1, 1, 1, 1), dtype=complex)
    prev = np.ones((1, 2), dtype=complex)
    theta = update_phases(real2, gammas, f, prev)
    expected = np.array([(1 + 1j) / math.sqrt(2), -1.0])
    assert np.allclose(theta, expected)


def test_update_phases_keeps_previous_on_zero():
    real2 = ChannelRealization(
        g=np.zeros((1, 1, 1, 2), dtype=complex),
        d=np.zeros((1, 1, 1, 1), dtype=complex),
        h=np.zeros((1, 1, 1, 2), dtype=complex),
    )
    prev = np.exp(1j * np.array([[0.3, 2.2]]))
    theta = update_phases(real2, np.array([[[1.0 + 0j]]]),
                          np.ones((1, 1, 1, 1), dtype=complex), prev)
    assert np.allclose(theta, prev)


def test_update_phases_real_positive_sum_gives_ones():
    real2 = ChannelRealization(
        g=np.ones((1, 1, 1, 2), dtype=complex),
        d=np.zeros((1, 1, 1, 1), dtype=complex),
        h=np.conj(np.array([[[[2.0, 3.0]]]])),
    )
    theta = update_phases(real2, np.array([[[1.0 + 0j]]]),
                          np.ones((1, 1, 1, 1), dtype=complex), np.ones((1, 2), dtype=complex))
    assert np.allclose(theta, np.ones(2))


def _ref_update_phases(real, gammas, f, prev_theta):
    # The einsum form update_phases replaced, kept verbatim but for its
    # coverage flags: an unserved user's h row is zero.
    gf = np.einsum("mtr,mtk->mkr", np.conj(real.g), f)
    v = np.conj(real.h) * np.transpose(gf, (1, 0, 2))
    nu = np.einsum("mk,kmr->r", np.conj(gammas), v)
    mags = np.abs(nu)
    theta = np.where(mags > 0.0, nu / np.where(mags > 0.0, mags, 1.0), prev_theta)
    return theta


@pytest.mark.parametrize("preset", ["desk", "full_scale"])
def test_update_phases_matches_einsum(preset):
    spec = parse_config("")
    cfg, geom = scaled_config() if preset == "desk" else (spec.cfg, spec.geom)
    pose = RisPose(d0=10.0, phi0=math.pi, h0=8.0, phiR=0.0)
    users = [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0), UserLocation(50.0, -2.0)]
    rng = np.random.default_rng(12)
    for _ in range(3):
        real = sample_channel_realization(cfg, precompute_los(cfg, geom, pose, users), [rng])
        # one user reaches the panel
        assert [bool(np.any(row)) for row in real.h[0]] == [True, False, False]
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (1, cfg.nr)))
        h_eff, f, _ = compute_zf_precoders(real, theta)
        gammas = update_auxiliary(h_eff, f, cfg)
        # the reference takes the stack's one draw without its stack axis
        one = ChannelRealization(real.g[0], real.d[0], real.h[0])
        np.testing.assert_allclose(update_phases(real, gammas, f, theta)[0],
                                   _ref_update_phases(one, gammas[0], f[0], theta[0]),
                                   rtol=1e-12, atol=0.0)


def test_quantize_fixed_points_and_examples():
    grid_point = np.exp(2j * np.pi * np.array([0, 3, 5]) / 8)
    assert np.allclose(quantize_phases(grid_point, 3), grid_point)
    # one bit: angle 0.6*pi is closer to pi (0.4*pi) than to 0 (0.6*pi)
    theta = np.array([np.exp(1j * 0.6 * np.pi)])
    assert np.allclose(quantize_phases(theta, 1), [-1.0])
    with pytest.raises(ValidationError):
        quantize_phases(theta, 0)


def test_quantize_tie_breaks_to_lower_angle():
    # angle pi/2 is exactly equidistant from the two one-bit levels 0 and pi
    theta = np.array([1j])
    assert np.allclose(quantize_phases(theta, 1), [1.0])


def test_quantize_error_bound():
    rng = np.random.default_rng(0)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
    for bits in (1, 2, 3):
        snapped = quantize_phases(theta, bits)
        gap = np.abs(np.angle(snapped * np.conj(theta)))
        assert np.max(gap) <= np.pi / (2 ** bits) + 1e-12


def test_optimize_phases_panel_off():
    cfg, real = small_setup()
    real = replace(real, h=np.zeros_like(real.h))  # the panel reaches nobody
    result = optimize_phases(real, cfg, max_iters=20, tol=1e-12)[0]
    assert len(result.objective_trace) <= 2
    assert np.allclose(result.phases, np.ones(cfg.nr))
    # sum-rate bit-identical with and without running the optimizer
    direct = sum_rate_for_phases(real, np.ones((1, cfg.nr), dtype=complex), cfg)[0]
    assert result.objective_trace[-1] == direct


def test_optimize_phases_limits_are_required_keywords():
    cfg, real = small_setup()
    for args in ((), (50, 1e-6)):
        with pytest.raises(TypeError):
            optimize_phases(real, cfg, *args)


def test_optimize_phases_unit_modulus_and_monotone():
    cfg, real = small_setup(c0=1e-3, seed=3)
    result = optimize_phases(real, cfg, max_iters=40, tol=1e-10)[0]
    assert np.max(np.abs(np.abs(result.phases) - 1.0)) < 1e-12
    tr = result.objective_trace
    assert all(tr[i] >= tr[i - 1] for i in range(1, len(tr)))


def test_optimize_phases_quantized_output():
    cfg, real = small_setup(c0=1e-3, seed=4)
    result = optimize_phases(real, cfg, max_iters=30, tol=1e-10)[0]
    levels = np.exp(2j * np.pi * np.arange(8) / 8)
    for entry in quantize_phases(result.phases, 3):
        assert np.min(np.abs(levels - entry)) < 1e-12


def test_optimize_phases_improves_over_start():
    cfg, real = small_setup(c0=1e-3, seed=5)
    result = optimize_phases(real, cfg, max_iters=40, tol=1e-10)[0]
    start = sum_rate_for_phases(real, np.ones((1, cfg.nr), dtype=complex), cfg)[0]
    assert result.objective_trace[-1] >= start - 1e-12
