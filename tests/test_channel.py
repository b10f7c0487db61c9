import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risplan import (
    CellGeometry,
    ChannelRealization,
    DegenerateGeometry,
    DimensionMismatch,
    IndexOutOfRange,
    RisPose,
    SystemConfig,
    UserLocation,
    ValidationError,
    coverage_indicator,
    effective_channel,
    link_angles,
    path_loss_bs_ris,
    path_loss_bs_user,
    path_loss_ris_user,
    precompute_los,
    reference_gain,
    sample_channel_realization,
    sample_effective_channel,
    spatial_direction,
    steering_ula,
    steering_upa,
    subcarrier_frequencies,
)
from risplan import channel
from risplan.channel import SPEED_OF_LIGHT, draw_buffers
from risplan.deployment import sample_location_arrays
from risplan.geometry import panel_geometry
from risplan.harness import parse_config, scaled_config, scaled_distribution, scaled_ris_config

GEOM = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0, h_min=1.0, h_max=10.0)


def small_cfg(**kw):
    defaults = dict(nt=8, nr_x=2, nr_y=2, m=4, k=2, fc=28e9, bandwidth=4e9)
    defaults.update(kw)
    return SystemConfig(**defaults)


def _first(real):
    """Draw 0 of a stacked realization, without its stack axis."""
    return ChannelRealization(real.g[0], real.d[0], real.h[0])


def _realization(cfg, pose, users, rng):
    """One realization of `users` with the panel at `pose` in GEOM, unstacked."""
    return _first(sample_channel_realization(cfg, precompute_los(cfg, GEOM, pose, users), [rng]))


def test_config_invariants():
    with pytest.raises(ValidationError):
        SystemConfig(nt=2, k=4)
    with pytest.raises(ValidationError):
        SystemConfig(m=0)
    with pytest.raises(ValidationError):
        SystemConfig(k0=-1.0)
    # the placement certificate bounds the second-hop gain by its value at
    # the height gap, which needs a nonnegative exponent
    for name in ("alpha0", "alpha1", "alpha2"):
        with pytest.raises(ValidationError, match="path-loss exponents"):
            SystemConfig(**{name: -0.1})
    with pytest.raises(ValidationError, match="positive frequency"):
        SystemConfig(fc=1e9, bandwidth=4e9, m=4)  # the lowest subcarrier sits at -0.5 GHz
    # c1 = (wavelength / 4 pi)^2 > 1 puts the 1 m reference point in the near
    # field: below c / 4 pi (23.86 MHz) the carrier is rejected
    for fc in (1e-100, 1e-69, SPEED_OF_LIGHT / (4.0 * math.pi) * 0.999):
        with pytest.raises(ValidationError, match="far field"):
            SystemConfig(fc=fc, bandwidth=0.0)
    assert SystemConfig(fc=SPEED_OF_LIGHT / (4.0 * math.pi) * 1.001, bandwidth=0.0).c1 <= 1.0
    with pytest.raises(ValidationError, match="square must be finite"):
        SystemConfig(c0=1e200)  # an explicit c0 may exceed 1, but not overflow its square


def test_subcarrier_frequency_values():
    cfg = SystemConfig(nt=128, m=16, k=4, fc=28e9, bandwidth=4e9)
    # hand evaluation: 28e9 + (4e9/16) * (1 - 1 - 7.5) = 26.125 GHz
    freqs = subcarrier_frequencies(cfg)
    assert freqs[0] == pytest.approx(26.125e9)
    assert np.mean(freqs) == pytest.approx(cfg.fc)
    assert np.all(np.diff(freqs) > 0)
    # mirrored subcarriers straddle the carrier symmetrically
    assert np.allclose(freqs + freqs[::-1], 2 * cfg.fc)


def test_single_subcarrier_is_carrier():
    cfg = SystemConfig(nt=8, m=1, k=2)
    assert subcarrier_frequencies(cfg).tolist() == pytest.approx([cfg.fc])


def test_spatial_direction_values():
    cfg = SystemConfig(nt=8, k=2, fc=28e9)
    # half wavelength spacing at the carrier gives 0.5 at broadside extreme
    assert spatial_direction(cfg.fc, math.pi / 2, cfg) == pytest.approx(0.5)
    assert spatial_direction(cfg.fc, 0.0, cfg) == 0.0
    # hand evaluation: 26.125/56 = 0.46651785714...
    val = spatial_direction(26.125e9, math.pi / 2, cfg)
    assert val == pytest.approx(26.125 / 56.0, rel=1e-12)
    assert val == pytest.approx(0.46652, abs=1e-5)


def test_steering_ula_values():
    assert np.allclose(steering_ula(1, 0.37), [1.0])
    assert np.allclose(steering_ula(2, 0.5), np.array([1.0, -1.0]) / math.sqrt(2))
    # hand evaluation of phases 2*pi*n*0.25 for n = 0..3
    expected = np.array([1.0, 1j, -1.0, -1j]) / 2.0
    assert np.allclose(steering_ula(4, 0.25), expected, atol=1e-12)


def test_steering_upa_values():
    assert np.allclose(steering_upa(1, 1, 0.3, 0.7), [1.0])
    assert np.allclose(steering_upa(2, 1, 0.5, 0.9), np.array([1.0, -1.0]) / math.sqrt(2))
    # Kronecker order: azimuth-phased x vector outermost
    expected = np.array([1.0, -1.0, 1j, -1j]) / 2.0
    assert np.allclose(steering_upa(2, 2, 0.25, 0.5), expected, atol=1e-12)


def test_steering_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        v = steering_ula(n, rng.uniform(-2, 2))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        nx, ny = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = steering_upa(nx, ny, rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_reference_gain_hand_value():
    # wavelength at 28 GHz is 0.010706873 m; lambda^2 / (16 pi^2)
    lam = SPEED_OF_LIGHT / 28e9
    assert lam == pytest.approx(0.0107069, abs=1e-7)
    expected = lam * lam / (16.0 * math.pi ** 2)
    got = reference_gain(28e9)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(7.2595e-7, rel=1e-4)


def test_path_loss_values():
    cfg = SystemConfig(nt=8, k=2, fc=28e9, alpha1=4.0)
    # hand evaluation: c1 * 100^-4
    assert path_loss_bs_user(100.0, cfg) == pytest.approx(cfg.c1 * 1e-8, rel=1e-12)
    flat = SystemConfig(nt=8, k=2, alpha0=0.0, alpha2=0.0, c0=0.5)
    assert path_loss_bs_ris(25.0, 5.0, 10.0, flat) == pytest.approx(0.5)
    assert path_loss_ris_user(40.0, 5.0, 1.5, flat) == pytest.approx(0.5)
    with pytest.raises(DegenerateGeometry):
        path_loss_bs_user(0.0, cfg)
    with pytest.raises(DegenerateGeometry):
        path_loss_bs_ris(0.0, 10.0, 10.0, cfg)


def test_los_only_realization_is_pure_steering():
    cfg = small_cfg(los_only=True)
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.4), UserLocation(80.0, 1.0)]
    los = precompute_los(cfg, GEOM, pose, users)
    rng = np.random.default_rng(0)
    real = sample_channel_realization(cfg, los, [rng])
    g_bar = np.einsum("mt,mr->mtr", los.b_ris, np.conj(los.a_ris))
    assert np.allclose(real.g, math.sqrt(los.beta0) * g_bar)
    assert np.allclose(real.d, np.sqrt(los.beta1)[:, None, None] * los.d_bar)
    # a second draw is identical: the limit is deterministic
    real2 = sample_channel_realization(cfg, los, [np.random.default_rng(1)])
    assert np.allclose(real.d, real2.d)


def test_zero_rician_is_pure_scatter():
    cfg = small_cfg(k0=0.0, k1=0.0, k2=0.0)
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.4)]
    rng = np.random.default_rng(0)
    real = _realization(cfg, pose, users, rng)
    # no deterministic component survives: two seeds are uncorrelated and the
    # scaled second moment matches the large-scale gain
    assert np.mean(np.abs(real.d) ** 2) * cfg.nt == pytest.approx(path_loss_bs_user(50.0, cfg),
                                                                 rel=0.5)


def test_direct_link_power_matches_gain():
    # expected squared norm is the large-scale gain: unit-norm steering plus
    # the 1/sqrt(nt) scatter normalisation
    cfg = small_cfg()
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(60.0, 0.4)]
    los = precompute_los(cfg, GEOM, pose, users)
    rng = np.random.default_rng(7)
    acc, count = 0.0, 0
    for _ in range(2000):
        real = sample_channel_realization(cfg, los, [rng])
        acc += float(np.sum(np.abs(real.d[0, 0]) ** 2))
        count += cfg.m
    assert acc / count == pytest.approx(los.beta1[0], rel=0.01)


def test_nlos_entry_second_moment():
    rng = np.random.default_rng(5)
    draws = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) / math.sqrt(2)
    second = np.mean(np.abs(draws) ** 2)
    # 3-sigma band of the mean of |CN(0,1)|^2 over n draws (variance 1/n)
    assert abs(second - 1.0) < 3.0 / math.sqrt(200_000)


def test_effective_channel_no_panel():
    cfg = small_cfg()
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.4), UserLocation(80.0, 1.0)]
    rng = np.random.default_rng(2)
    real = _realization(cfg, pose, users, rng)
    theta = np.exp(1j * rng.uniform(0, 2 * math.pi, cfg.nr))
    real = replace(real, h=np.zeros_like(real.h))  # the panel reaches nobody
    h_eff = effective_channel(real, theta)
    assert np.allclose(h_eff[1][0], np.conj(real.d[0, 1]))
    # with the panel off the phases are irrelevant
    h_eff2 = effective_channel(real, np.ones(cfg.nr, dtype=complex))
    assert np.allclose(h_eff, h_eff2)


def test_effective_channel_single_element_cascade():
    cfg = SystemConfig(nt=4, nr_x=1, nr_y=1, m=1, k=1, c0=1.0)
    pose = RisPose(d0=10.0, phi0=math.pi, h0=8.0, phiR=0.0)
    users = [UserLocation(50.0, 0.0)]
    rng = np.random.default_rng(3)
    real = _realization(cfg, pose, users, rng)
    theta = np.array([np.exp(0.7j)])
    assert real.h[0, 0, 0] != 0.0  # the panel serves the user
    h_eff = effective_channel(real, theta)
    expected = np.conj(real.d[0, 0] + real.g[0][:, 0] * theta[0] * real.h[0, 0, 0])
    assert np.allclose(h_eff[0][0], expected)


def test_effective_channel_linear_in_phases():
    cfg = small_cfg(c0=1.0)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.2)
    users = [UserLocation(50.0, 0.3)]
    rng = np.random.default_rng(4)
    real = _realization(cfg, pose, users, rng)
    assert np.any(real.h)  # the panel serves the user
    t1 = np.exp(1j * rng.uniform(0, 2 * math.pi, cfg.nr))
    t2 = np.exp(1j * rng.uniform(0, 2 * math.pi, cfg.nr))
    h1 = effective_channel(real, t1)
    h2 = effective_channel(real, t2)
    h_sum = effective_channel(real, t1 + t2)
    h_zero = effective_channel(real, np.zeros(cfg.nr))
    assert np.allclose(h_sum + h_zero, h1 + h2, atol=1e-12)


def test_effective_channel_shape_errors():
    cfg = small_cfg()
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.4)]
    real = _realization(cfg, pose, users, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        effective_channel(real, np.ones(cfg.nr + 1))
    # a one-layout `los` takes any number of generators, one per draw, and
    # a stacked `los` one generator per layout
    los, rng = precompute_los(cfg, GEOM, pose, users), np.random.default_rng(0)
    assert sample_channel_realization(cfg, los, [rng, rng]).g.shape[0] == 2
    with pytest.raises(ValidationError):
        sample_channel_realization(cfg, los, [])
    two_layouts = (np.array([[50.0], [60.0]]), np.array([[0.4], [0.5]]))
    stacked = precompute_los(cfg, GEOM, pose, two_layouts)
    for rngs in ([rng], [rng] * 3):
        with pytest.raises(DimensionMismatch):
            sample_channel_realization(cfg, stacked, rngs)


def test_sampling_deterministic_given_stream():
    cfg = small_cfg()
    pose = RisPose(d0=10.0, phi0=0.2 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.4)]
    r1 = _realization(cfg, pose, users, np.random.default_rng(42))
    r2 = _realization(cfg, pose, users, np.random.default_rng(42))
    assert np.array_equal(r1.g, r2.g)
    assert np.array_equal(r1.d, r2.d)
    assert np.array_equal(r1.h, r2.h)


# ------------------------------------------- LOS precompute against the loop
#
# The reference below is the per-user, per-subcarrier loop precompute_los
# replaced, with the scalar path-loss and steering helpers it called
# (`d0 * d0`, np.kron).  Its geometry is plane vectors in the BS-to-panel
# frame: the panel at (d0, 0), the normal n at angle pi + phiR, and a point
# at offset v from the panel in front when n . v >= 0, at azimuth
# atan2(n x v, n . v).  Coverage must match exactly.  beta0 may move by one
# rounding: the library squares d0 with Python's `**`, as the placement
# kernel does, and that differs from `d0 * d0` in the last bit on about one
# input in a thousand.  Everything else may move by rounding only: numpy's
# trigonometry and power differ from math's and Python's `**` in the last
# bit on some inputs.

def _ref_normal(pose):
    return -math.cos(pose.phiR), -math.sin(pose.phiR)


def _ref_user_offset(pose, user):
    """The user's offset from the panel in the BS-to-panel frame; the BS's
    is (-d0, 0)."""
    turn = user.phik - pose.phi0
    return user.dk * math.cos(turn) - pose.d0, user.dk * math.sin(turn)


def _ref_seen_from_panel(normal, v):
    """(in front of the panel, azimuth from the normal) of offset v."""
    dot = normal[0] * v[0] + normal[1] * v[1]
    return dot >= 0.0, math.atan2(normal[0] * v[1] - normal[1] * v[0], dot)


def _ref_ris_user_distance(pose, user):
    return math.hypot(*_ref_user_offset(pose, user))


def _ref_link_angles(pose, user, geom):
    """(theta0_az, theta0_el, theta2_az, theta2_el, covered) of one user."""
    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    dkr = _ref_ris_user_distance(pose, user)
    if dkr <= 0.0:
        raise DegenerateGeometry("RIS and user are horizontally coincident")
    bs_front, theta0_az = _ref_seen_from_panel(_ref_normal(pose), (-pose.d0, 0.0))
    user_front, theta2_az = _ref_seen_from_panel(_ref_normal(pose), _ref_user_offset(pose, user))
    theta0_el = math.atan(abs(geom.h_b - pose.h0) / pose.d0)
    theta2_el = math.atan(abs(geom.h_u - pose.h0) / dkr)
    return theta0_az, theta0_el, theta2_az, theta2_el, bs_front and user_front


def _ref_coverage_indicator(pose, user, geom):
    try:
        return int(_ref_link_angles(pose, user, geom)[4])
    except DegenerateGeometry:
        return 0


def _ref_path_loss_bs_user(dk, cfg):
    if dk <= 0.0:
        raise DegenerateGeometry("BS-user distance is zero")
    return cfg.c1 * dk ** (-cfg.alpha1)


def _ref_path_loss_bs_ris(d0, h0, h_b, cfg):
    dist2 = d0 * d0 + (h0 - h_b) ** 2
    if dist2 <= 0.0:
        raise DegenerateGeometry("BS-RIS distance is zero")
    return cfg.c0 * dist2 ** (-cfg.alpha0 / 2.0)


def _ref_path_loss_ris_user(dkr, h0, h_u, cfg):
    dist2 = dkr * dkr + (h0 - h_u) ** 2
    if dist2 <= 0.0:
        raise DegenerateGeometry("RIS-user distance is zero")
    return cfg.c0 * dist2 ** (-cfg.alpha2 / 2.0)


def _ref_steering_ula(n, direction):
    phases = 2.0 * np.pi * np.arange(n) * direction
    return np.exp(1j * phases) / math.sqrt(n)


def _ref_steering_upa(nx, ny, dir_az, dir_el):
    vx = np.exp(2j * np.pi * np.arange(nx) * dir_az)
    vy = np.exp(2j * np.pi * np.arange(ny) * dir_el)
    return np.kron(vx, vy) / math.sqrt(nx * ny)


def _ref_precompute_los(cfg, geom, pose, users):
    k = len(users)
    freqs = subcarrier_frequencies(cfg)
    beta0 = _ref_path_loss_bs_ris(pose.d0, pose.h0, geom.h_b, cfg)

    b_ris = np.zeros((cfg.m, cfg.nt), dtype=complex)
    a_ris = np.zeros((cfg.m, cfg.nr), dtype=complex)
    d_bar = np.zeros((k, cfg.m, cfg.nt), dtype=complex)
    h_bar = np.zeros((k, cfg.m, cfg.nr), dtype=complex)
    beta1 = np.zeros(k)
    beta2 = np.zeros(k)
    omega = np.zeros(k, dtype=int)

    for mi, f in enumerate(freqs):
        dir_phi0 = spatial_direction(f, pose.phi0, cfg)
        b_ris[mi] = _ref_steering_ula(cfg.nt, dir_phi0)

    for ki, user in enumerate(users):
        beta1[ki] = _ref_path_loss_bs_user(user.dk, cfg)
        omega[ki] = _ref_coverage_indicator(pose, user, geom)
        for mi, f in enumerate(freqs):
            d_bar[ki, mi] = np.conj(_ref_steering_ula(cfg.nt, spatial_direction(f, user.phik, cfg)))
        if omega[ki]:
            _, _, theta2_az, theta2_el, _ = _ref_link_angles(pose, user, geom)
            dkr = _ref_ris_user_distance(pose, user)
            beta2[ki] = _ref_path_loss_ris_user(dkr, pose.h0, geom.h_u, cfg)
            for mi, f in enumerate(freqs):
                h_bar[ki, mi] = np.conj(_ref_steering_upa(
                    cfg.nr_x, cfg.nr_y,
                    spatial_direction(f, theta2_az, cfg),
                    spatial_direction(f, theta2_el, cfg),
                ))

    if pose.d0 <= 0.0:
        raise DegenerateGeometry("BS and RIS are horizontally coincident")
    theta0_az = _ref_seen_from_panel(_ref_normal(pose), (-pose.d0, 0.0))[1]
    theta0_el = math.atan(abs(geom.h_b - pose.h0) / pose.d0)
    for mi, f in enumerate(freqs):
        a_ris[mi] = _ref_steering_upa(
            cfg.nr_x, cfg.nr_y,
            spatial_direction(f, theta0_az, cfg),
            spatial_direction(f, theta0_el, cfg),
        )
    return dict(b_ris=b_ris, a_ris=a_ris, d_bar=d_bar, h_bar=h_bar,
                beta0=beta0, beta1=beta1, beta2=beta2, omega=omega)


LOS_PRESETS = {
    "desk": scaled_ris_config(),
    "full_scale": (parse_config("").cfg, parse_config("").geom),
}


def _assert_los_matches_loop(cfg, geom, pose, users):
    los = precompute_los(cfg, geom, pose, users)
    ref = _ref_precompute_los(cfg, geom, pose, users)
    assert np.array_equal(los.beta2 != 0.0, ref["omega"] == 1)  # served users keep a gain
    assert math.isclose(los.beta0, ref["beta0"], rel_tol=1e-15, abs_tol=0.0)
    for name in ("beta1", "beta2", "b_ris", "a_ris", "d_bar", "h_bar"):
        got, want = getattr(los, name), ref[name]
        assert got.shape == want.shape, name
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), name
    g_bar = np.einsum("mt,mr->mtr", ref["b_ris"], np.conj(ref["a_ris"]))
    assert np.allclose(np.einsum("mt,mr->mtr", los.b_ris, np.conj(los.a_ris)), g_bar,
                       rtol=1e-12, atol=0.0)
    return los


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(sorted(LOS_PRESETS)),
       kind=st.sampled_from(["uniform_disc", "one_hotspot", "multi_hotspot"]),
       k=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1),
       frac=st.tuples(*[st.floats(0.0, 1.0)] * 4))
def test_precompute_los_matches_per_user_loop(preset, kind, k, seed, frac):
    cfg, geom = LOS_PRESETS[preset]
    fd, fphi, fh, fr = frac
    pose = RisPose(d0=geom.r_min + fd * (geom.r_max - geom.r_min), phi0=2.0 * math.pi * fphi,
                   h0=geom.h_min + fh * (geom.h_max - geom.h_min), phiR=2.0 * math.pi * fr)
    d, phi = sample_location_arrays(scaled_distribution(kind, geom), k,
                                    np.random.default_rng(seed))
    users = [UserLocation(dk, phik) for dk, phik in zip(d.tolist(), phi.tolist())]
    _assert_los_matches_loop(cfg, geom, pose, users)


def _python_square_differs(geom, n):
    """n distances in the placement box whose Python `d ** 2` differs from
    numpy's `d * d` in the last bit."""
    x = np.random.default_rng(7).uniform(geom.r_min, geom.r_max, 20_000)
    return x[np.array([v ** 2 for v in x.tolist()]) != x * x][:n].tolist()


@pytest.mark.parametrize("preset", sorted(LOS_PRESETS))
def test_precompute_los_user_under_panel_is_uncovered(preset):
    cfg, geom = LOS_PRESETS[preset]
    # r_min squares exactly; the other distances are ones where Python's and
    # numpy's squares differ, which a law-of-cosines distance had to guard
    # against.  The user's offset from the panel is d0 * (cos, sin)(0) -
    # (d0, 0), so it sits under the panel at distance 0.0 with no guard.
    d0s = [geom.r_min] + _python_square_differs(geom, 12)
    assert len(d0s) == 13
    for d0 in d0s:
        pose = RisPose(d0=d0, phi0=0.7, h0=geom.h_max, phiR=-1.0)
        under = UserLocation(d0, 0.7)
        los = _assert_los_matches_loop(cfg, geom, pose, [under, UserLocation(d0 + 20.0, 1.2)])
        assert los.beta2[0] == 0.0 and not np.any(los.h_bar[0])
        assert los.beta2[1] > 0.0
        view = panel_geometry(pose.d0, pose.phi0, pose.phiR, np.array([d0]), np.array([0.7]))
        assert view.dkr[0] == 0.0
        assert coverage_indicator(pose, under) == 0
        with pytest.raises(DegenerateGeometry):
            link_angles(pose, under, geom)


def test_precompute_los_degenerate_layouts_raise():
    cfg, geom = LOS_PRESETS["desk"]
    users = [UserLocation(40.0, 0.5)]
    with pytest.raises(DegenerateGeometry):
        precompute_los(cfg, geom, RisPose(d0=0.0, phi0=0.3, h0=5.0, phiR=1.0), users)
    with pytest.raises(DegenerateGeometry):
        precompute_los(cfg, geom, RisPose(d0=10.0, phi0=0.3, h0=5.0, phiR=1.0),
                       users + [UserLocation(0.0, 1.0)])


# ------------------------------------------- channel draws against one draw
#
# The reference is the single draw the stacked kernel replaced, kept
# verbatim: two fresh normal arrays per link joined with `1j *`, then the
# scatter normalisation, the Rician mix and the large-scale gain.  The
# kernel must reproduce it bit for bit and leave the generator where n of
# these draws leave it.

def _ref_crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _ref_mix_weights(k_factor, los_only):
    if los_only:
        return 1.0, 0.0
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


def _ref_draw(cfg, los, rng):
    k = los.d_bar.shape[0]
    w0_los, w0_nlos = _ref_mix_weights(cfg.k0, cfg.los_only)
    w1_los, w1_nlos = _ref_mix_weights(cfg.k1, cfg.los_only)
    w2_los, w2_nlos = _ref_mix_weights(cfg.k2, cfg.los_only)

    g_tilde = _ref_crandn(rng, (cfg.m, cfg.nt, cfg.nr)) / math.sqrt(cfg.nt * cfg.nr)
    g_bar = np.einsum("mt,mr->mtr", los.b_ris, np.conj(los.a_ris))
    g = math.sqrt(los.beta0) * (w0_los * g_bar + w0_nlos * g_tilde)

    d_tilde = _ref_crandn(rng, (k, cfg.m, cfg.nt)) / math.sqrt(cfg.nt)
    d = np.sqrt(los.beta1)[:, None, None] * (w1_los * los.d_bar + w1_nlos * d_tilde)

    h_tilde = _ref_crandn(rng, (k, cfg.m, cfg.nr)) / math.sqrt(cfg.nr)
    h = np.sqrt(los.beta2)[:, None, None] * (w2_los * los.h_bar + w2_nlos * h_tilde)
    return g, d, h


DRAW_PRESETS = {
    "desk": scaled_config(),
    "full_scale": (parse_config("").cfg, parse_config("").geom),
}
# Covers the first user only, so both the cascade and its zero rows show:
# the panel stands across the BS from that user and faces the BS.
DRAW_POSE = RisPose(d0=10.0, phi0=math.pi, h0=8.0, phiR=0.0)
DRAW_USERS = [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0), UserLocation(50.0, -2.0)]


def _draw_layout(preset, los_only=False):
    cfg, geom = DRAW_PRESETS[preset]
    if los_only:
        cfg = replace(cfg, los_only=True)
    los = precompute_los(cfg, geom, DRAW_POSE, DRAW_USERS)
    assert (los.beta2 != 0.0).tolist() == [True, False, False]
    return cfg, geom, los


@pytest.mark.parametrize("los_only", [False, True])
# piece, when set, overrides _NORMALS_PIECE: the scratch then holds one
# BS-RIS subcarrier (1024 floats at desk scale), so every draw passes
# through it in pieces that run on from one link to the next.
@pytest.mark.parametrize("preset, piece", [pytest.param("desk", None, id="desk"),
                                           pytest.param("full_scale", None, id="full_scale"),
                                           pytest.param("desk", 1, id="desk-piece1")])
@pytest.mark.parametrize("n", [1, 3, 17])
def test_sample_channel_draws_equal_sequential_draws(n, preset, piece, los_only, monkeypatch):
    if piece is not None:
        monkeypatch.setattr(channel, "_NORMALS_PIECE", piece)
    cfg, _, los = _draw_layout(preset, los_only)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    real = sample_channel_realization(cfg, los, [rng] * n)
    g, d, h = real.g, real.d, real.h
    assert (g.shape, d.shape, h.shape) == (
        (n, cfg.m, cfg.nt, cfg.nr), (n, 3, cfg.m, cfg.nt), (n, 3, cfg.m, cfg.nr))
    for i in range(n):
        ref_g, ref_d, ref_h = _ref_draw(cfg, los, ref_rng)
        assert np.array_equal(g[i], ref_g)
        assert np.array_equal(d[i], ref_d)
        assert np.array_equal(h[i], ref_h)
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_sample_channel_realization_is_one_draw():
    cfg, geom, los = _draw_layout("desk")
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    real = sample_channel_realization(cfg, los, [rng])
    ref_g, ref_d, ref_h = _ref_draw(cfg, los, ref_rng)
    assert np.array_equal(real.g[0], ref_g)
    assert np.array_equal(real.d[0], ref_d)
    assert np.array_equal(real.h[0], ref_h)
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_sample_channel_draws_needs_one_draw():
    cfg, _, los = _draw_layout("desk")
    with pytest.raises(ValidationError):
        sample_channel_realization(cfg, los, [])


# ------------------------------------------------- one-subcarrier views
#
# A draw on los.subcarrier(m) is subcarrier m of a full draw: with every
# scattered component zeroed (los_only) the two are equal, and a draw on
# the view takes only that subcarrier's normals from the generator.

# Two layouts of the three draw users, stacked on a leading (T,) axis.
STACKED_USERS = (np.array([[40.0, 60.0, 50.0], [45.0, 70.0, 30.0]]),
                 np.array([[0.0, 2.0, -2.0], [0.3, 1.0, -1.5]]))


def test_subcarrier_view_shapes_and_range():
    cfg, _, los = _draw_layout("desk")
    view = los.subcarrier(1)
    assert (view.b_ris.shape, view.a_ris.shape) == ((1, cfg.nt), (1, cfg.nr))
    assert (view.d_bar.shape, view.h_bar.shape) == ((3, 1, cfg.nt), (3, 1, cfg.nr))
    assert np.array_equal(view.h_bar[:, 0], los.h_bar[:, 1])
    assert all(getattr(view, name) is getattr(los, name)
               for name in ("beta0", "beta1", "beta2"))
    assert np.array_equal(los.subcarrier(-1).d_bar, los.subcarrier(cfg.m - 1).d_bar)
    for m in (-cfg.m - 1, cfg.m):
        with pytest.raises(IndexOutOfRange):
            los.subcarrier(m)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("preset", sorted(DRAW_PRESETS))
def test_subcarrier_view_draw_is_that_subcarrier_of_a_full_draw(preset, stacked):
    cfg, geom = DRAW_PRESETS[preset]
    cfg = replace(cfg, los_only=True)
    los = precompute_los(cfg, geom, DRAW_POSE, STACKED_USERS if stacked else DRAW_USERS)
    n = 2 if stacked else 1
    real = sample_channel_realization(cfg, los, [np.random.default_rng(0)] * n)
    for m in (0, cfg.m - 1):
        view = sample_channel_realization(cfg, los.subcarrier(m), [np.random.default_rng(1)] * n)
        assert np.array_equal(view.g, real.g[:, m:m + 1])
        assert np.array_equal(view.d, real.d[..., m:m + 1, :])
        assert np.array_equal(view.h, real.h[..., m:m + 1, :])


@pytest.mark.parametrize("preset, count, block, effective", [
    pytest.param("desk", 150, 64, False, id="desk-150-64"),
    pytest.param("full_scale", 3, 2, False, id="full_scale-3-2"),
    pytest.param("desk", 150, 64, True, id="effective-desk-150-64"),
    pytest.param("full_scale", 3, 2, True, id="effective-full_scale-3-2"),
])
def test_subcarrier_view_stream_takes_one_subcarrier_of_normals(preset, count, block, effective):
    # The generator's stream of normals, drawn in blocks on the view: one
    # subcarrier's worth per draw, of G (or of W, its Nt x min(Nr, K)
    # stand-in in the effective-channel kernel), d and h.
    cfg, _, los = _draw_layout(preset)
    view, k = los.subcarrier(cfg.m - 1), len(DRAW_USERS)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, cfg.nr))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    buffers = draw_buffers(view, block)
    drawn = 0
    for start in range(0, count, block):
        n = min(block, count - start)
        if effective:
            drawn += len(sample_effective_channel(cfg, view, theta, [rng] * n))
        else:
            drawn += len(sample_channel_realization(cfg, view, [rng] * n, out=buffers).g)
    assert drawn == count
    g_cols = min(cfg.nr, k) if effective else cfg.nr
    ref_rng.standard_normal(count * 2 * (cfg.nt * g_cols + k * cfg.nt + k * cfg.nr))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_full_scale_draw_peak_memory():
    # One draw assembles each link in place in its output; the joined
    # (x + 1j * y) / sqrt(2) form it replaced peaked near 3 outputs.
    cfg, geom, los = _draw_layout("full_scale")
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        real = sample_channel_realization(cfg, los, [rng])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * real.g.nbytes


# ------------------------------- effective channel against the einsum form

def _ref_effective_channel(real, theta):
    cascade = np.einsum("mtr,kmr->kmt", real.g, theta[None, None, :] * real.h)
    rows = real.d + cascade
    return np.conj(np.transpose(rows, (1, 0, 2)))


@pytest.mark.parametrize("preset", sorted(DRAW_PRESETS))
def test_effective_channel_matches_einsum(preset):
    cfg, geom, los = _draw_layout(preset)
    rng = np.random.default_rng(11)
    for _ in range(3):
        real = _first(sample_channel_realization(cfg, los, [rng]))
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, cfg.nr))
        # as drawn (one user served), and with every panel-user vector nonzero
        for case in (real, replace(real, h=real.h + rng.standard_normal(real.h.shape))):
            np.testing.assert_allclose(effective_channel(case, theta),
                                       _ref_effective_channel(case, theta),
                                       rtol=1e-12, atol=0.0)


# ----------------------- effective-channel draws that never form the BS-RIS G
#
# sample_effective_channel draws G's scatter already multiplied by the
# cascade input, so it must match effective_channel on full draws where the
# draw is deterministic, and in distribution otherwise.

# Serves every user of DRAW_USERS; DRAW_POSE serves the first only.
SERVING_POSE = RisPose(d0=30.0, phi0=math.pi, h0=8.0, phiR=0.0)


@pytest.mark.parametrize("pose", [DRAW_POSE, SERVING_POSE])
@pytest.mark.parametrize("preset", sorted(DRAW_PRESETS))
def test_effective_channel_draws_los_only_equal_effective_channel(preset, pose):
    cfg, geom = DRAW_PRESETS[preset]
    cfg = replace(cfg, los_only=True)
    los = precompute_los(cfg, geom, pose, DRAW_USERS)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, cfg.nr))
    real = _first(sample_channel_realization(cfg, los, [np.random.default_rng(0)]))
    ref = effective_channel(real, theta)
    rng = np.random.default_rng(1)
    for _ in range(2):
        draw = sample_effective_channel(cfg, los, theta, [rng])[0]
        assert draw.shape == (cfg.m, 3, cfg.nt)
        np.testing.assert_allclose(draw, ref, rtol=1e-12, atol=0.0)


def _named_generators(names, seed):
    # One generator per distinct name, and the list that repeats them.
    gens = {name: np.random.default_rng([seed, ord(name)]) for name in sorted(set(names))}
    return gens, [gens[name] for name in names]


# Runs of one generator inside a stack.  The long list's runs cross the
# blocks the scratch holds at desk scale: 6 full draws, or 68 effective
# draws on one subcarrier.
MIXED_LISTS = {"short": "aabacc", "long": "a" * 70 + "bab" + "c" * 60}


@pytest.mark.parametrize("names, preset", [("short", "desk"), ("short", "full_scale"),
                                           ("long", "desk")])
def test_mixed_generator_draws_equal_one_draw_calls(names, preset):
    # A run of one generator is filled in one call; every draw equals its
    # generator's one-draw call, and every generator ends where the per-draw
    # loop leaves it.
    cfg, geom = DRAW_PRESETS[preset]
    los = precompute_los(cfg, geom, SERVING_POSE, DRAW_USERS)
    gens, rngs = _named_generators(MIXED_LISTS[names], 8)
    ref_gens, ref_rngs = _named_generators(MIXED_LISTS[names], 8)
    real = sample_channel_realization(cfg, los, rngs)
    for i, ref_rng in enumerate(ref_rngs):
        ref = sample_channel_realization(cfg, los, [ref_rng])
        for link in ("g", "d", "h"):
            assert np.array_equal(getattr(real, link)[i], getattr(ref, link)[0])
    for name, gen in gens.items():
        assert gen.bit_generator.state == ref_gens[name].bit_generator.state


@pytest.mark.parametrize("names, preset", [("short", "desk"), ("short", "full_scale"),
                                           ("long", "desk")])
def test_mixed_generator_effective_draws_equal_one_draw_calls(names, preset):
    # The same on the covariance oracle's one-subcarrier view.
    cfg, geom = DRAW_PRESETS[preset]
    view = precompute_los(cfg, geom, SERVING_POSE, DRAW_USERS).subcarrier(0)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, cfg.nr))
    gens, rngs = _named_generators(MIXED_LISTS[names], 9)
    ref_gens, ref_rngs = _named_generators(MIXED_LISTS[names], 9)
    draws = sample_effective_channel(cfg, view, theta, rngs)
    for draw, ref_rng in zip(draws, ref_rngs, strict=True):
        assert np.array_equal(draw, sample_effective_channel(cfg, view, theta, [ref_rng])[0])
    for name, gen in gens.items():
        assert gen.bit_generator.state == ref_gens[name].bit_generator.state


@pytest.mark.parametrize("preset", sorted(DRAW_PRESETS))
def test_effective_channel_draws_take_their_normals(preset):
    # Each draw consumes the K-column scatter of each subcarrier, d and h.
    cfg, _, los = _draw_layout(preset)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, cfg.nr))
    n, k, m = 3, len(DRAW_USERS), cfg.m
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(n):
        sample_effective_channel(cfg, los, theta, [rng])
    ref_rng.standard_normal(n * 2 * (k * m * cfg.nt + k * m * cfg.nr + m * cfg.nt * k))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("preset", sorted(DRAW_PRESETS))
def test_effective_channel_draws_equal_sequential_draws(preset):
    # n draws in one call equal n single calls bit for bit, on a layout the
    # panel serves in full, and leave the generator where those calls leave it.
    cfg, geom = DRAW_PRESETS[preset]
    los = precompute_los(cfg, geom, SERVING_POSE, DRAW_USERS)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, cfg.nr))
    n, rng, ref_rng = 5, np.random.default_rng(8), np.random.default_rng(8)
    draws = sample_effective_channel(cfg, los, theta, [rng] * n)
    assert draws.shape == (n, cfg.m, 3, cfg.nt)
    for draw in draws:
        ref = sample_effective_channel(cfg, los, theta, [ref_rng])
        assert ref.shape == (1, cfg.m, 3, cfg.nt)
        assert np.array_equal(draw, ref[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_effective_channel_draws_reject_bad_input():
    cfg, _, los = _draw_layout("desk")
    with pytest.raises(ValidationError):
        sample_effective_channel(cfg, los, np.ones(cfg.nr), [])
    with pytest.raises(DimensionMismatch):
        sample_effective_channel(cfg, los, np.ones(cfg.nr + 1), [np.random.default_rng(0)])
    cfg, geom = DRAW_PRESETS["desk"]
    stacked = precompute_los(cfg, geom, DRAW_POSE, STACKED_USERS)
    with pytest.raises(DimensionMismatch):
        sample_effective_channel(cfg, stacked, np.ones(cfg.nr), [np.random.default_rng(0)])


def _effective_second_moment(cfg, los, theta):
    # E[H H^H] per subcarrier, (M, K, K), of the model the draws follow: the
    # rows' means (direct and deterministic cascade terms, with the direct
    # steering cross terms the Wishart closed form neglects), G's scatter
    # times the mean cascade input, and each user's own scatter power, which
    # reaches the cascade with a 1/Nr weight (unit-norm steering).
    (w0_los, w0_nlos), (w1_los, w1_nlos), (w2_los, w2_nlos) = (
        _ref_mix_weights(k, cfg.los_only) for k in (cfg.k0, cfg.k1, cfg.k2))
    mean_d = np.sqrt(los.beta1)[:, None, None] * w1_los * los.d_bar
    mean_x = np.sqrt(los.beta2)[:, None, None] * w2_los * theta * los.h_bar
    coupling = np.einsum("mr,kmr->mk", np.conj(los.a_ris), mean_x)
    mean_rows = (np.swapaxes(mean_d, 0, 1)
                 + math.sqrt(los.beta0) * w0_los * los.b_ris[:, None, :] * coupling[..., None])
    scatter = los.beta1 * w1_nlos ** 2 + los.beta0 * los.beta2 * w2_nlos ** 2 / cfg.nr
    return (np.einsum("mit,mjt->mij", np.conj(mean_rows), mean_rows)
            + los.beta0 * w0_nlos ** 2 / cfg.nr
            * np.einsum("imr,jmr->mij", np.conj(mean_x), mean_x)
            + np.eye(len(scatter)) * scatter)


@pytest.mark.parametrize("pose", [DRAW_POSE, SERVING_POSE])
def test_effective_channel_draws_match_second_moment(pose):
    # With c0 = 1 the cascade carries most of a served user's power.  The
    # tolerances are criterion 1's, with each off-diagonal error measured
    # against its two users' diagonals: an unserved user's gain is 1e-6 of
    # a served one's.
    cfg, geom = scaled_ris_config()
    los = precompute_los(cfg, geom, pose, DRAW_USERS)
    assert (los.beta2 != 0.0).tolist() == [True, pose is SERVING_POSE, pose is SERVING_POSE]
    theta = np.exp(1j * np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, cfg.nr))
    rng, draws = np.random.default_rng(21), 20_000
    acc = np.zeros((cfg.m, 3, 3), dtype=complex)
    for _ in range(draws):
        h = sample_effective_channel(cfg, los, theta, [rng])[0]
        acc += h @ np.conj(np.swapaxes(h, -1, -2))
    acc /= draws
    ref = _effective_second_moment(cfg, los, theta)
    diag = np.real(np.diagonal(ref, axis1=-2, axis2=-1))
    assert np.all(np.abs(np.real(np.diagonal(acc, axis1=-2, axis2=-1)) - diag) < 0.02 * diag)
    off = ~np.eye(3, dtype=bool)
    assert np.all(np.abs(acc - ref)[:, off]
                  < 0.10 * np.sqrt(diag[:, :, None] * diag[:, None, :])[:, off])


# ------------------------------------------------ carrier-derived constants

def test_carrier_derived_constants_follow_fc():
    cfg = small_cfg()
    moved = replace(cfg, fc=60e9)
    assert moved.c1 == reference_gain(60e9) != cfg.c1
    assert moved.d_spacing == SPEED_OF_LIGHT / (2.0 * 60e9) != cfg.d_spacing
    # c0 is a field: it keeps the value it was given, here its 28 GHz default
    assert moved.c0 == cfg.c0 == reference_gain(28e9)
