import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from risplan import (
    CellGeometry,
    RisPose,
    SingularChannel,
    SystemConfig,
    UserLocation,
    ValidationError,
    approx_rate,
    build_closed_form_context,
    covariance_entry,
    covariance_matrix,
    empirical_covariance_diagonal,
    instantaneous_user_rate,
    lower_bound_rate,
    mmse_closed_form_rate,
    mmse_precoder,
    monte_carlo_sum_rate,
    precompute_los,
    sample_channel_realization,
    sample_effective_channel,
    sigma_hat_inv_entry,
    zf_precoder,
)
from risplan import rate
from risplan.channel import draw_buffers, effective_channel
from risplan.harness import parse_config, scaled_config, scaled_ris_config
from risplan.rate import ClosedFormContext, RateSummary, rank_one_inverse_error, rician_ratios

GEOM = CellGeometry(r=200.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=200.0, h_min=1.0, h_max=10.0)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


# ---------------------------------------------------------------- precoders

def test_zf_single_user():
    rng = np.random.default_rng(0)
    h = crandn(rng, (1, 8))
    u, f, u_norm2 = zf_precoder(h)
    assert np.allclose(f[:, 0], h[0].conj() / np.linalg.norm(h[0]))
    assert u_norm2[0] == pytest.approx(1.0 / np.linalg.norm(h[0]) ** 2, rel=1e-12)


def test_zf_orthonormal_rows():
    h = np.zeros((3, 8), dtype=complex)
    h[0, 0] = h[1, 1] = h[2, 2] = 1.0
    u, f, u_norm2 = zf_precoder(h)
    assert np.allclose(u, h.conj().T)
    assert np.allclose(u_norm2, 1.0)


def test_zf_inverts_channel():
    rng = np.random.default_rng(1)
    h = crandn(rng, (3, 8))
    u, f, u_norm2 = zf_precoder(h)
    assert np.max(np.abs(h @ u - np.eye(3))) < 1e-10


def test_zf_singular_raises():
    h = np.ones((2, 8), dtype=complex)
    with pytest.raises(SingularChannel):
        zf_precoder(h)


@pytest.mark.parametrize("shape", [(4, 3, 32), (16, 4, 128)])
def test_zf_stack_equals_per_slice_calls(shape):
    h = crandn(np.random.default_rng(shape[0]), shape)
    u, f, u_norm2 = zf_precoder(h)
    for mi in range(shape[0]):
        u_m, f_m, u_norm2_m = zf_precoder(h[mi])
        assert np.all(u[mi] == u_m)
        assert np.all(f[mi] == f_m)
        assert np.all(u_norm2[mi] == u_norm2_m)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_zf_non_finite_channel_raises(value):
    # An SVD of a channel holding inf either fails to converge or returns
    # non-finite singular values; both are a singular channel, not a crash.
    h = crandn(np.random.default_rng(5), (2, 3, 8))
    h[1, 1, 2] = value
    with np.errstate(invalid="ignore"), pytest.raises(SingularChannel):
        zf_precoder(h)


def test_zf_stack_with_one_singular_slice_raises():
    h = crandn(np.random.default_rng(4), (4, 3, 8))
    h[2, 1] = h[2, 0]
    with pytest.raises(SingularChannel):
        zf_precoder(h)


def _ref_zf_is_singular(h):
    # The SVD condition test zf_precoder ran on every call before it learnt
    # to skip it where a norm bound proves the Gram well conditioned.
    svals = np.linalg.svd(h, compute_uv=False)
    smax, smin = svals[..., 0], svals[..., -1]
    return bool(np.any(smin <= 0.0) or np.any((smax / smin) ** 2 > 1e12))


@pytest.mark.parametrize("k, nt", [(3, 32), (4, 128)])
def test_zf_singular_decision_equals_svd_test(k, nt):
    # Gram condition numbers from 1e10 to 1e14, across the 1e12 limit, for
    # one matrix and for a stack whose other slices are well conditioned.
    rng = np.random.default_rng(k)
    decisions = set()
    for exponent in np.linspace(5.0, 7.0, 81):
        left, _ = np.linalg.qr(crandn(rng, (k, k)))
        right, _ = np.linalg.qr(crandn(rng, (nt, k)))
        h = (left * np.geomspace(1.0, 10.0 ** -exponent, k)) @ np.conj(right.T)
        stack = crandn(rng, (3, k, nt))
        stack[1] = h
        for case in (h, stack):
            singular = _ref_zf_is_singular(case)
            try:
                zf_precoder(case)
                assert not singular
            except SingularChannel:
                assert singular
            decisions.add(singular)
    assert decisions == {False, True}


def test_mmse_limits():
    rng = np.random.default_rng(2)
    h = crandn(rng, (3, 8))
    u_zf, _, _ = zf_precoder(h)
    u_small, _, _ = mmse_precoder(h, 1e-12)
    assert np.max(np.abs(u_small - u_zf)) < 1e-8
    u_big, _, _ = mmse_precoder(h, 1e9)
    assert np.max(np.abs(u_big - h.conj().T / 1e9)) < 1e-12


def test_mmse_matches_dense_two_by_two():
    rng = np.random.default_rng(3)
    h = crandn(rng, (2, 6))
    alpha = 0.7
    gram = h @ h.conj().T + alpha * np.eye(2)
    # explicit 2x2 inverse: [[d, -b], [-c, a]] / (ad - bc)
    a, b = gram[0, 0], gram[0, 1]
    c, d = gram[1, 0], gram[1, 1]
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det
    u, _, _ = mmse_precoder(h, alpha)
    assert np.max(np.abs(u - h.conj().T @ inv)) < 1e-12


def test_instantaneous_rate_values():
    assert instantaneous_user_rate(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert instantaneous_user_rate(1e-300, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # log2(1 + 1000/10) frozen by hand
    assert instantaneous_user_rate(1000.0, 1.0, 10.0) == pytest.approx(6.658211482751795)


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_no_panel_los_only_exact():
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=1, los_only=True)
    pose = RisPose(d0=10.0, phi0=0.0, h0=5.0, phiR=3.5)  # strictly faces away
    users = [UserLocation(60.0, 0.0)]
    rng = np.random.default_rng(0)
    summary = monte_carlo_sum_rate(cfg, GEOM, pose, users, np.ones(cfg.nr), 10, rng)
    beta1 = cfg.c1 * 60.0 ** -4
    expected = math.log2(1.0 + cfg.power_per_stream * beta1 / cfg.sigma2)
    assert np.allclose(summary.per_user_per_subcarrier, expected, rtol=1e-12)
    assert np.allclose(summary.std_error, 0.0, atol=1e-12)
    assert summary.sum_rate == pytest.approx(cfg.m * expected, rel=1e-12)


def test_monte_carlo_monotone_in_power():
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=2, c0=1e-2)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.3), UserLocation(70.0, 1.5)]
    r1 = monte_carlo_sum_rate(cfg, GEOM, pose, users, np.ones(cfg.nr), 40,
                              np.random.default_rng(1))
    cfg2 = replace(cfg, pmax=2 * cfg.pmax)
    r2 = monte_carlo_sum_rate(cfg2, GEOM, pose, users, np.ones(cfg.nr), 40,
                              np.random.default_rng(1))
    assert r2.sum_rate > r1.sum_rate


def test_monte_carlo_rejects_persistently_singular_channels():
    # two users at the same spot with deterministic channels give identical
    # rows on every draw, so every trial is skipped and the run must fail
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=1, k=2, los_only=True)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.3), UserLocation(50.0, 0.3)]
    with pytest.raises(SingularChannel):
        monte_carlo_sum_rate(cfg, GEOM, pose, users, np.ones(cfg.nr), 20,
                             np.random.default_rng(0))


def test_monte_carlo_reproducible():
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=2)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(50.0, 0.3), UserLocation(70.0, 1.5)]
    a = monte_carlo_sum_rate(cfg, GEOM, pose, users, np.ones(cfg.nr), 25,
                             np.random.default_rng(9))
    b = monte_carlo_sum_rate(cfg, GEOM, pose, users, np.ones(cfg.nr), 25,
                             np.random.default_rng(9))
    assert a.sum_rate == b.sum_rate


def _per_subcarrier_monte_carlo(cfg, geom, pose, users, theta, trials, rng):
    # The estimator as it stood with one zf_precoder call per subcarrier,
    # drawing its effective channels without G.
    los = precompute_los(cfg, geom, pose, users)
    p = cfg.power_per_stream
    samples = []
    skipped = 0
    for _ in range(trials):
        h_all = sample_effective_channel(cfg, los, theta, [rng])[0]
        trial = np.zeros((len(users), cfg.m))
        try:
            for mi in range(cfg.m):
                _, _, u_norm2 = zf_precoder(h_all[mi])
                trial[:, mi] = np.log2(1.0 + p / (cfg.sigma2 * u_norm2))
        except SingularChannel:
            skipped += 1
            continue
        samples.append(trial)
    if skipped > 0.01 * trials:
        raise SingularChannel(f"{skipped}/{trials} singular draws")
    stack = np.stack(samples)
    n = stack.shape[0]
    mean = np.apply_along_axis(math.fsum, 0, stack) / n
    std_error = stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return RateSummary(per_user_per_subcarrier=mean, sum_rate=math.fsum(mean.ravel()),
                       trials=n, std_error=std_error)


@pytest.mark.parametrize("preset", ["desk", "full_scale"])
def test_monte_carlo_matches_per_subcarrier_loop(preset):
    if preset == "desk":
        cfg, geom = scaled_ris_config()
        users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8)]
        trials = 30
    else:
        spec = parse_config("")
        cfg, geom = spec.cfg, spec.geom
        users = [UserLocation(60.0, 0.5), UserLocation(90.0, 1.2),
                 UserLocation(75.0, 0.9), UserLocation(120.0, 0.2)]
        trials = 6
    pose = RisPose(d0=40.0, phi0=3.4, h0=8.0, phiR=0.0)  # covers every user
    theta = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, cfg.nr))
    got = monte_carlo_sum_rate(cfg, geom, pose, users, theta, trials, np.random.default_rng(6))
    ref = _per_subcarrier_monte_carlo(cfg, geom, pose, users, theta, trials,
                                      np.random.default_rng(6))
    assert got.trials == ref.trials == trials
    assert np.all(got.per_user_per_subcarrier == ref.per_user_per_subcarrier)
    assert got.sum_rate == ref.sum_rate
    assert np.all(got.std_error == ref.std_error)


def _sequential_monte_carlo(cfg, geom, pose, users, theta, trials, rng, los=None):
    # monte_carlo_sum_rate as it stood before its draws went through a draw
    # stream, verbatim but for drawing its effective channels without G: one
    # draw at a time on the calling thread.
    if los is None:
        los = precompute_los(cfg, geom, pose, users)
    p = cfg.power_per_stream
    samples = []
    skipped = 0
    for _ in range(trials):
        h_eff = sample_effective_channel(cfg, los, theta, [rng])[0]
        try:
            _, _, u_norm2 = zf_precoder(h_eff)
        except SingularChannel:
            skipped += 1
            continue
        samples.append(instantaneous_user_rate(p, cfg.sigma2, u_norm2).T)
    if skipped > 0.01 * trials:
        raise SingularChannel(f"{skipped}/{trials} singular draws")
    stack = np.stack(samples)
    n = stack.shape[0]
    mean = np.apply_along_axis(math.fsum, 0, stack) / n
    std_error = stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return RateSummary(
        per_user_per_subcarrier=mean,
        sum_rate=math.fsum(mean.ravel()),
        trials=n,
        std_error=std_error,
    )


def _mc_preset(preset):
    if preset == "desk":
        cfg, geom = scaled_ris_config()
        users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8)]
        return cfg, geom, users, 41
    spec = parse_config("")
    users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8),
             UserLocation(90.0, 1.0)]
    return spec.cfg, spec.geom, users, 5


@pytest.mark.parametrize("preset", ["desk", "full_scale"])
def test_monte_carlo_equals_sequential_draw_loop(preset):
    cfg, geom, users, trials = _mc_preset(preset)
    pose = RisPose(d0=25.0, phi0=0.4, h0=6.0, phiR=0.9)
    theta = np.exp(1j * np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, cfg.nr))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = monte_carlo_sum_rate(cfg, geom, pose, users, theta, trials, rng)
    ref = _sequential_monte_carlo(cfg, geom, pose, users, theta, trials, ref_rng)
    assert got.trials == ref.trials == trials
    assert np.all(got.per_user_per_subcarrier == ref.per_user_per_subcarrier)
    assert got.sum_rate == ref.sum_rate
    assert np.all(got.std_error == ref.std_error)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_monte_carlo_singular_draws_error_leaves_no_thread(monkeypatch):
    # Every third draw is singular: over 1% skipped, so the estimate fails,
    # and no thread is left behind.
    cfg, geom, users, _ = _mc_preset("desk")
    calls = []

    def every_third_singular(h_eff):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise SingularChannel("forced")
        return zf_precoder(h_eff)

    monkeypatch.setattr(rate, "zf_precoder", every_third_singular)
    threads = threading.active_count()
    with pytest.raises(SingularChannel, match="10/30 singular draws"):
        monte_carlo_sum_rate(cfg, geom, RisPose(d0=25.0, phi0=0.4, h0=6.0, phiR=0.9), users,
                             np.ones(cfg.nr), 30, np.random.default_rng(0))
    assert len(calls) == 30
    assert threading.active_count() == threads


def _per_draw_sum_rates(cfg, h_eff):
    _, _, u_norm2 = zf_precoder(h_eff)
    return np.sum(instantaneous_user_rate(cfg.power_per_stream, cfg.sigma2, u_norm2),
                  axis=(-2, -1))


def test_effective_channel_draws_give_the_full_draw_rates():
    # Effective channels drawn without G against effective_channel on full
    # draws, from independent generators, with the cascade carrying power
    # (c0 = 1): the mean per-draw ZF sum rates agree within four combined
    # standard errors.
    cfg, geom, users, _ = _mc_preset("desk")
    pose = RisPose(d0=40.0, phi0=3.4, h0=8.0, phiR=0.0)  # covers every user
    los = precompute_los(cfg, geom, pose, users)
    theta = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, cfg.nr))
    draws, block = 3000, 500
    rng, full_rng = np.random.default_rng(31), np.random.default_rng(32)
    stacked_theta = np.broadcast_to(theta, (block, cfg.nr))
    rates = np.array([_per_draw_sum_rates(cfg, sample_effective_channel(cfg, los, theta, [rng])[0])
                      for _ in range(draws)])
    full_rates = []
    for _ in range(draws // block):
        real = sample_channel_realization(cfg, los, [full_rng] * block)
        full_rates.append(_per_draw_sum_rates(cfg, effective_channel(real, stacked_theta)))
    full_rates = np.concatenate(full_rates)
    std_error = math.hypot(rates.std(ddof=1), full_rates.std(ddof=1)) / math.sqrt(draws)
    assert abs(rates.mean() - full_rates.mean()) < 4.0 * std_error


def _oracle_layout(preset):
    # validate's layout, or the same users at c0 = 1 with a pose that serves
    # every user, so the cascade carries most of their power.
    cfg, geom = scaled_config() if preset == "validate" else scaled_ris_config()
    users = [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0), UserLocation(50.0, -2.0)]
    pose = (RisPose(d0=10.0, phi0=0.0, h0=8.0, phiR=1.2) if preset == "validate"
            else RisPose(d0=30.0, phi0=math.pi, h0=8.0, phiR=0.0))
    theta = np.ones(cfg.nr, dtype=complex)
    return cfg, users, theta, precompute_los(cfg, geom, pose, users)


def test_empirical_covariance_diagonal_equals_block_loop():
    # The oracle's loop: effective-channel draws on the first subcarrier's
    # view in blocks of 64, with a draw count that ends inside a block.
    cfg, users, theta, los = _oracle_layout("validate")
    view = los.subcarrier(0)
    draws, block = 300, 64
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    acc = np.zeros(len(users))
    for start in range(0, draws, block):
        h_eff = sample_effective_channel(cfg, view, theta, [ref_rng] * min(block, draws - start))
        acc += np.sum(np.abs(h_eff[:, 0]) ** 2, axis=(0, 2))
    acc /= draws
    assert np.array_equal(empirical_covariance_diagonal(cfg, los, theta, draws, rng), acc)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("preset", ["validate", "serving"])
def test_empirical_covariance_diagonal_matches_full_draw_loop(preset):
    # The oracle against its loop as it stood on full draws of G, verbatim
    # but for keeping each draw's row powers, from independent generators:
    # each user's mean agrees within four combined standard errors, both
    # taken from the full draws' spread.
    cfg, users, theta, los = _oracle_layout(preset)
    view = los.subcarrier(0)
    draws, block = 20_000, 64
    got = empirical_covariance_diagonal(cfg, los, theta, draws, np.random.default_rng(41))
    ref_rng = np.random.default_rng(42)
    buffers = draw_buffers(view, min(block, draws))
    powers = []
    for start in range(0, draws, block):
        real = sample_channel_realization(cfg, view, [ref_rng] * min(block, draws - start),
                                          out=buffers)
        g, d, h = real.g, real.d, real.h
        rows = d[:, :, 0, :] + (theta * h[:, :, 0, :]) @ np.transpose(g[:, 0], (0, 2, 1))
        powers.append(np.sum(np.abs(rows) ** 2, axis=2))
    powers = np.concatenate(powers)
    std_error = math.sqrt(2.0) * powers.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(got - powers.mean(axis=0)) < 4.0 * std_error)


def test_empirical_covariance_diagonal_needs_one_draw():
    cfg, _, theta, los = _oracle_layout("validate")
    for draws in (0, -1):
        with pytest.raises(ValidationError):
            empirical_covariance_diagonal(cfg, los, theta, draws, np.random.default_rng(0))


def test_rank_one_inverse_error_equals_command_loop():
    # The validate oracle's loop as it stood in the command, verbatim.
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(ref_rng.integers(2, 6))
        ctx = ClosedFormContext(
            kappa=ref_rng.uniform(0.5, 2.0, k),
            tau=float(ref_rng.uniform(0.0, 0.5)),
            xi=(ref_rng.normal(size=(1, k)) + 1j * ref_rng.normal(size=(1, k))),
        )
        dense = np.linalg.inv(np.diag(ctx.kappa)
                              + ctx.tau * np.outer(ctx.xi[0], np.conj(ctx.xi[0])))
        for idx in range(k):
            worst = max(worst, abs(sigma_hat_inv_entry(idx, 0, ctx) - dense[idx, idx].real))
    assert rank_one_inverse_error(rng) == worst
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert worst < 1e-10


# ------------------------------------------------------- covariance formulas

def test_covariance_unserved_user_is_direct_gain():
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=2)
    pose = RisPose(d0=10.0, phi0=0.0, h0=8.0, phiR=math.pi)  # faces away from all
    users = [UserLocation(50.0, 0.3), UserLocation(70.0, 1.5)]
    theta = np.ones(cfg.nr, dtype=complex)
    los = precompute_los(cfg, GEOM, pose, users)
    val = covariance_entry(0, 0, 0, cfg, los, theta)
    assert val.real == pytest.approx(cfg.c1 * 50.0 ** -4, rel=1e-12)
    assert covariance_entry(0, 1, 0, cfg, los, theta) == 0.0


def test_covariance_hermitian_positive_diagonal():
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=2, k=3, c0=1e-2)
    pose = RisPose(d0=10.0, phi0=0.4 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(40.0, 0.2), UserLocation(60.0, 0.9), UserLocation(90.0, 2.2)]
    theta = np.exp(1j * np.random.default_rng(0).uniform(0, 2 * math.pi, cfg.nr))
    sig = covariance_matrix(0, cfg, precompute_los(cfg, GEOM, pose, users), theta)
    assert np.max(np.abs(sig - sig.conj().T)) < 1e-18
    assert np.all(np.diag(sig).real > 0)


def _ref_covariance_entry(i, j, m, cfg, los, theta):
    # the per-entry formula the covariance tensor replaced, kept verbatim but
    # for its coverage flags: an unserved user's beta2 is zero
    c = np.einsum("kmr,r,mr->mk", np.conj(los.h_bar), np.conj(theta), los.a_ris)
    r_nlos, r_los, _ = rician_ratios(cfg)
    gamma_ij = c[m, i] * np.conj(c[m, j])
    if i == j:
        return complex(
            los.beta1[i]
            + r_nlos * los.beta0 * los.beta2[i]
            + r_los * los.beta0 * los.beta2[i] * gamma_ij.real
        )
    cross = r_los * los.beta0
    return complex(cross * math.sqrt(los.beta2[i] * los.beta2[j]) * gamma_ij)


def test_covariance_every_subcarrier_matches_per_entry_formula():
    cfg = SystemConfig(nt=8, nr_x=3, nr_y=2, m=4, k=4, c0=1e-2)
    pose = RisPose(d0=10.0, phi0=0.4 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(40.0, 0.2), UserLocation(60.0, 0.9), UserLocation(90.0, 2.2),
             UserLocation(120.0, 3.5)]
    theta = np.exp(1j * np.random.default_rng(3).uniform(0, 2 * math.pi, cfg.nr))
    los = precompute_los(cfg, GEOM, pose, users)
    assert 2 <= np.count_nonzero(los.beta2) < cfg.k  # some users served, not all
    for m in range(cfg.m):
        sig = covariance_matrix(m, cfg, los, theta)
        ref = np.array([[_ref_covariance_entry(i, j, m, cfg, los, theta) for j in range(cfg.k)]
                        for i in range(cfg.k)])
        np.testing.assert_allclose(sig, ref, rtol=1e-12, atol=0.0)
        for i in range(cfg.k):
            for j in range(cfg.k):
                assert covariance_entry(i, j, m, cfg, los, theta) == sig[i, j]
    last = covariance_matrix(cfg.m - 1, cfg, los, theta)
    assert np.array_equal(covariance_matrix(-1, cfg, los, theta), last)


def test_covariance_matches_monte_carlo_near_deterministic_cascade():
    # direct link has no deterministic part (zero Rician factor) and the
    # panel links are almost purely deterministic, so the covariance is
    # exactly the direct gain plus the cascade power through the coupling
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=1, k=2, k0=1e9, k1=0.0, k2=1e9, c0=1e-2)
    pose = RisPose(d0=10.0, phi0=0.3 + math.pi, h0=8.0, phiR=1.0)
    users = [UserLocation(30.0, 0.4), UserLocation(55.0, 1.1)]
    theta = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * math.pi, cfg.nr))
    los = precompute_los(cfg, GEOM, pose, users)
    assert np.all(los.beta2 > 0.0)  # both users served
    rng = np.random.default_rng(2)
    draws = 20_000
    acc = np.zeros(2)
    for _ in range(draws):
        real = sample_channel_realization(cfg, los, [rng])
        rows = real.d[0, :, 0, :] + np.einsum("tr,kr->kt", real.g[0, 0], theta * real.h[0, :, 0, :])
        acc += np.sum(np.abs(rows) ** 2, axis=1)
    acc /= draws
    for i in range(2):
        ref = covariance_entry(i, i, 0, cfg, los, theta).real
        assert acc[i] == pytest.approx(ref, rel=0.02)


# ------------------------------------------------- scale-matrix inverse chain

def random_context(rng, k):
    cfg, geom = scaled_config()
    kappa = rng.uniform(0.5, 2.0, k)
    xi = crandn(rng, (1, k))
    tau = float(rng.uniform(0.01, 0.5))

    class Ctx:
        pass

    ctx = Ctx()
    ctx.kappa = kappa
    ctx.xi = xi
    ctx.tau = tau
    return ctx


def test_sigma_hat_inv_no_rank_one_term():
    rng = np.random.default_rng(4)
    ctx = random_context(rng, 3)
    ctx.tau = 0.0
    for k in range(3):
        assert sigma_hat_inv_entry(k, 0, ctx) == pytest.approx(1.0 / ctx.kappa[k], rel=1e-14)
    ctx2 = random_context(rng, 3)
    ctx2.xi[0, 1] = 0.0
    assert sigma_hat_inv_entry(1, 0, ctx2) == pytest.approx(1.0 / ctx2.kappa[1], rel=1e-14)


def test_sigma_hat_inv_matches_dense_inverse():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        ctx = random_context(rng, k)
        dense = np.linalg.inv(np.diag(ctx.kappa) + ctx.tau * np.outer(ctx.xi[0], np.conj(ctx.xi[0])))
        for idx in range(k):
            assert abs(sigma_hat_inv_entry(idx, 0, ctx) - dense[idx, idx].real) < 1e-10


# ----------------------------------------------------------- rate closed form

def scaled_scenario(c0=None):
    cfg, geom = scaled_config()
    if c0 is not None:
        cfg = replace(cfg, c0=c0)
    pose = RisPose(d0=10.0, phi0=0.4, h0=8.0, phiR=1.0)
    users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8)]
    theta = np.ones(cfg.nr, dtype=complex)
    return cfg, geom, pose, users, theta


def test_digamma_factors():
    assert rate.digamma(1) == pytest.approx(-0.5772156649015329)
    assert math.exp(rate.digamma(1)) == pytest.approx(0.5614594835668851)
    # asymptotically exp(psi(n)) approaches n - 1/2
    assert math.exp(rate.digamma(1024 - 4 + 1)) == pytest.approx(1020.5, abs=1e-3)


def test_digamma_has_the_reference_bits():
    # Both branches (n <= 10 and the asymptotic series) and the switch
    # between them; snr_scale reads psi(nt - k + 1) at integers only.
    for n in range(1, 20001):
        assert rate.digamma(n) == scipy_digamma(n), n
    assert rate.digamma(np.int64(125)) == scipy_digamma(125)


@pytest.mark.parametrize("n", [0, -3, 2.0, 1.5, True, "4", None])
def test_digamma_rejects_non_positive_integers(n):
    with pytest.raises(ValidationError):
        rate.digamma(n)


def test_approx_equals_lower_bound_without_cascade():
    cfg, geom, pose, users, theta = scaled_scenario()
    pose = RisPose(d0=10.0, phi0=0.4, h0=8.0, phiR=pose.phiR + math.pi)  # faces away
    ctx = build_closed_form_context(cfg, geom, pose, users, theta)
    assert np.all(np.abs(ctx.xi) == 0.0)
    for k in range(cfg.k):
        for m in range(cfg.m):
            assert approx_rate(k, m, ctx, cfg) == pytest.approx(
                lower_bound_rate(k, ctx, cfg), rel=1e-14)


def test_approx_dominates_lower_bound():
    cfg, geom, pose, users, theta = scaled_scenario(c0=1e-2)
    ctx = build_closed_form_context(cfg, geom, pose, users, theta)
    for k in range(cfg.k):
        lb = lower_bound_rate(k, ctx, cfg)
        for m in range(cfg.m):
            assert approx_rate(k, m, ctx, cfg) >= lb - 1e-12


def test_approx_rate_equals_boost_form():
    # approx_rate is the SNR factor over the Sherman-Morrison inverse entry;
    # the kappa * boost form it replaced, kept verbatim, is the same rate.
    cfg, geom, pose, users, _ = scaled_scenario(c0=1e-2)
    rng = np.random.default_rng(13)
    for _ in range(5):
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, cfg.nr))
        ctx = build_closed_form_context(cfg, geom, pose, users, theta)
        assert np.any(ctx.xi)
        for k in range(cfg.k):
            for m in range(cfg.m):
                kap = ctx.kappa
                xi2 = np.abs(ctx.xi[m]) ** 2
                others = 1.0 + ctx.tau * float(np.sum(xi2 / kap) - xi2[k] / kap[k])
                boost = 1.0 + (ctx.tau * xi2[k] / kap[k]) / others
                ref = math.log2(1.0 + rate.snr_scale(cfg) * kap[k] * boost)
                assert approx_rate(k, m, ctx, cfg) == pytest.approx(ref, rel=1e-14)


def test_lower_bound_monotone_in_gain():
    cfg, geom, pose, users, theta = scaled_scenario()
    ctx = build_closed_form_context(cfg, geom, pose, users, theta)
    bumped = replace(ctx, kappa=2.0 * ctx.kappa)
    for k in range(cfg.k):
        assert lower_bound_rate(k, bumped, cfg) > lower_bound_rate(k, ctx, cfg)


def test_approx_rate_monotone_in_power():
    cfg, geom, pose, users, theta = scaled_scenario(c0=1e-2)
    prev = None
    for pmax in (0.1, 0.5, 1.0, 4.0):
        cfg_p = replace(cfg, pmax=pmax)
        ctx = build_closed_form_context(cfg_p, geom, pose, users, theta)
        total = sum(approx_rate(k, m, ctx, cfg_p)
                    for k in range(cfg_p.k) for m in range(cfg_p.m))
        if prev is not None:
            assert total > prev
        prev = total


# The rate without the panel is the lower bound of a context whose panel
# serves nobody: POSE_AWAY faces away from the base station.
POSE_AWAY = RisPose(d0=10.0, phi0=0.0, h0=8.0, phiR=math.pi + 0.3)


def _unserved_context(cfg, users):
    los = precompute_los(cfg, GEOM, POSE_AWAY, users)
    assert not np.any(los.beta2) and not np.any(los.h_bar)
    return build_closed_form_context(cfg, GEOM, POSE_AWAY, users, np.ones(cfg.nr), los=los)


def test_no_ris_rate_equals_lower_bound_when_unserved():
    # a panel that serves nobody adds exactly what a panel without gain adds
    cfg, _, _, users, theta = scaled_scenario(c0=1e-2)
    ctx = _unserved_context(cfg, users)
    absent = build_closed_form_context(replace(cfg, c0=0.0), GEOM, POSE_AWAY, users, theta)
    for k in range(cfg.k):
        assert lower_bound_rate(k, ctx, cfg) == lower_bound_rate(k, absent, cfg)


def test_no_ris_rate_zero_direct_rician():
    cfg = SystemConfig(nt=32, nr_x=4, nr_y=4, m=4, k=3, k1=0.0)
    users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8)]
    ctx = _unserved_context(cfg, users)
    for k, user in enumerate(users):
        beta1 = cfg.c1 * user.dk ** -cfg.alpha1
        expected = math.log2(1.0 + cfg.power_per_stream
                             * math.exp(scipy_digamma(cfg.nt - cfg.k + 1)) * beta1
                             / (cfg.nt * cfg.sigma2))
        assert lower_bound_rate(k, ctx, cfg) == pytest.approx(expected, rel=1e-14)


def test_lower_bound_regression_full_scale():
    # independent hand chain frozen: one user at 100 m without the panel at
    # the full-scale defaults gives snr 2.7910e-3 and rate 4.02095e-3
    cfg = SystemConfig()
    users = [UserLocation(100.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8),
             UserLocation(120.0, 1.0)]
    ctx = _unserved_context(cfg, users)
    assert lower_bound_rate(0, ctx, cfg) == pytest.approx(0.004020952577351449, rel=1e-9)


# --------------------------------------------------------- regularised chain

def test_mmse_closed_form_matches_dense_structure():
    rng = np.random.default_rng(6)
    cfg, geom, pose, users, theta = scaled_scenario(c0=1e-2)
    ctx = build_closed_form_context(cfg, geom, pose, users, theta)
    alpha = 3.0
    for m in range(cfg.m):
        kap, xi, tau = ctx.kappa, ctx.xi[m], ctx.tau
        sig_hat_inv = np.linalg.inv(np.diag(kap) + tau * np.outer(xi, np.conj(xi)))
        e_winv = cfg.nt * sig_hat_inv / (cfg.nt - cfg.k)
        z = e_winv + np.eye(cfg.k) / alpha
        varpi = np.real(np.diag(np.linalg.inv(z) @ e_winv)) / alpha
        for k in range(cfg.k):
            expected = math.log2(1.0 + cfg.power_per_stream / (cfg.sigma2 * varpi[k]))
            assert mmse_closed_form_rate(k, m, ctx, cfg, alpha) == pytest.approx(
                expected, rel=1e-10)


def test_mmse_closed_form_no_cascade_branch():
    cfg, geom, pose, users, theta = scaled_scenario()
    pose = RisPose(d0=10.0, phi0=0.4, h0=8.0, phiR=pose.phiR + math.pi)
    ctx = build_closed_form_context(cfg, geom, pose, users, theta)
    alpha = 2.0
    for k in range(cfg.k):
        scale = cfg.nt / ((cfg.nt - cfg.k) * ctx.kappa[k])
        varpi = (1.0 / alpha) * scale / (scale + 1.0 / alpha)
        expected = math.log2(1.0 + cfg.power_per_stream / (cfg.sigma2 * varpi))
        assert mmse_closed_form_rate(k, 0, ctx, cfg, alpha) == pytest.approx(expected, rel=1e-12)


def test_mmse_closed_form_monte_carlo_oracle():
    # brute-force expectation of the regularised inverted Gram's diagonal
    # against the factor-wise closed-form chain
    cfg = SystemConfig(nt=8, nr_x=2, nr_y=2, m=1, k=2, c0=1e-2)
    geom = GEOM
    pose = RisPose(d0=10.0, phi0=0.3, h0=8.0, phiR=1.0)
    users = [UserLocation(30.0, 0.4), UserLocation(55.0, 1.1)]
    theta = np.ones(cfg.nr, dtype=complex)
    los = precompute_los(cfg, geom, pose, users)
    ctx = build_closed_form_context(cfg, geom, pose, users, theta, los=los)
    # the factor-wise expectation is accurate once the regulariser dominates
    # channel fluctuations; design regularisers (sum power over noise) sit
    # far deeper in that regime than this
    alpha = 10.0 * float(ctx.kappa.mean())
    rng = np.random.default_rng(8)
    acc = np.zeros(2)
    draws = 20_000
    from risplan import effective_channel
    for _ in range(draws):
        real = sample_channel_realization(cfg, los, [rng])
        h = effective_channel(real, theta[None])[0, 0]
        gram = h @ h.conj().T
        acc += np.real(np.diag(np.linalg.inv(gram + alpha * np.eye(2))))
    acc /= draws
    kap, xi, tau = ctx.kappa, ctx.xi[0], ctx.tau
    sig_hat_inv = np.linalg.inv(np.diag(kap) + tau * np.outer(xi, np.conj(xi)))
    e_winv = cfg.nt * sig_hat_inv / (cfg.nt - cfg.k)
    z = e_winv + np.eye(cfg.k) / alpha
    varpi = np.real(np.diag(np.linalg.inv(z) @ e_winv)) / alpha
    for k in range(2):
        assert acc[k] == pytest.approx(varpi[k], rel=0.10)


def test_ergodic_inverse_gram_scale():
    # the expected inverted Gram diagonal carries an extra antenna-count
    # factor relative to the scale matrix because the per-column covariance
    # is the full inner-product matrix divided by the antenna count
    cfg, geom, pose, users, theta = scaled_scenario()
    los = precompute_los(cfg, geom, pose, users)
    ctx = build_closed_form_context(cfg, geom, pose, users, theta, los=los)
    rng = np.random.default_rng(10)
    from risplan import effective_channel
    draws = 3000
    acc = np.zeros(cfg.k)
    for _ in range(draws):
        real = sample_channel_realization(cfg, los, [rng])
        h = effective_channel(real, theta[None])[0, 0]
        acc += np.real(np.diag(np.linalg.inv(h @ h.conj().T)))
    acc /= draws
    for k in range(cfg.k):
        predicted = cfg.nt * sigma_hat_inv_entry(k, 0, ctx) / (cfg.nt - cfg.k)
        assert acc[k] == pytest.approx(predicted, rel=0.10)
