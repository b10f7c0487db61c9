"""Acceptance criteria, one test per criterion, tolerances pinned in code.

Each test prints a single `CRITERION n: PASS` line once its assertions hold;
scenario constants (reference gains, scenario seeds) are fixed here so the
whole module is deterministic.
"""

import math
import pathlib
from dataclasses import replace

import numpy as np

from risplan import (
    OptimizerSettings,
    RisPose,
    UserLocation,
    approx_rate,
    build_closed_form_context,
    covariance_entry,
    exhaustive_deploy,
    heuristic_deploy,
    lower_bound_rate,
    monte_carlo_sum_rate,
    optimize_height,
    optimize_phases,
    precompute_los,
    quantize_phases,
    random_deploy,
    sample_channel_realization,
    sigma_hat_inv_entry,
    sum_rate_for_phases,
)
from risplan.channel import draw_buffers
from risplan.deployment import (
    coverage_bulk,
    optimize_azimuth,
    sample_location_arrays,
)
from risplan.harness import (
    dbm_to_watt,
    evaluate_pose,
    scaled_config,
    scaled_distribution,
    scaled_ris_config,
)


def announce(n: int) -> None:
    print(f"CRITERION {n}: PASS")


# ---------------------------------------------------------------------------
# 1. covariance closed form vs Monte-Carlo channel mean (2% diagonal,
#    off-diagonals below 10% of the diagonal), 1e5 draws
# ---------------------------------------------------------------------------

def test_criterion_01_covariance_oracle():
    cfg, geom = scaled_config()
    users = [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0), UserLocation(50.0, -2.0)]
    pose = RisPose(d0=10.0, phi0=0.0, h0=8.0, phiR=1.2)
    theta = np.ones(cfg.nr, dtype=complex)
    los = precompute_los(cfg, geom, pose, users)
    assert np.any(los.beta2)  # the cascade terms are exercised

    rng = np.random.default_rng(101)
    draws = 100_000
    block = 64  # draws per block; the draws are those of single draws
    acc = np.zeros((3, 3), dtype=complex)
    buffers = draw_buffers(los, block)
    for start in range(0, draws, block):
        real = sample_channel_realization(cfg, los, [rng] * min(block, draws - start),
                                          out=buffers)
        rows = real.d[:, :, 0, :] + np.einsum(
            "ntr,nkr->nkt", real.g[:, 0], theta * real.h[:, :, 0, :])
        acc += np.einsum("nit,njt->ij", np.conj(rows), rows)
    acc /= draws

    diag_ref = []
    for i in range(3):
        ref = covariance_entry(i, i, 0, cfg, los, theta).real
        diag_ref.append(ref)
        assert abs(acc[i, i].real - ref) / ref < 0.02
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(acc[i, j]) < 0.10 * min(diag_ref)
    announce(1)


# ---------------------------------------------------------------------------
# 2. rank-one scale-matrix inverse identity, 100 random instances to 1e-10
# ---------------------------------------------------------------------------

def test_criterion_02_scale_matrix_inverse_oracle():
    rng = np.random.default_rng(202)

    class Ctx:
        pass

    for _ in range(100):
        k = int(rng.integers(2, 6))
        ctx = Ctx()
        ctx.kappa = rng.uniform(0.5, 2.0, k)
        ctx.xi = (rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))) / math.sqrt(2)
        ctx.tau = float(rng.uniform(0.0, 0.5))
        dense = np.linalg.inv(np.diag(ctx.kappa)
                              + ctx.tau * np.outer(ctx.xi[0], np.conj(ctx.xi[0])))
        for idx in range(k):
            assert abs(sigma_hat_inv_entry(idx, 0, ctx) - dense[idx, idx].real) < 1e-10
    announce(2)


# ---------------------------------------------------------------------------
# 3. approximation tightness over a 0-30 dBm sweep (7 points, 500 trials,
#    15% relative) and the lower-bound inequality at every point
# ---------------------------------------------------------------------------

def test_criterion_03_approximation_tightness():
    cfg, geom = scaled_config()
    users = [UserLocation(40.0, 0.5), UserLocation(70.0, 2.2), UserLocation(55.0, -1.8)]
    pose = RisPose(d0=25.0, phi0=0.4, h0=6.0, phiR=0.9)
    theta = np.ones(cfg.nr, dtype=complex)
    los = precompute_los(cfg, geom, pose, users)
    for idx, p_dbm in enumerate(np.linspace(0.0, 30.0, 7)):
        cfg_p = replace(cfg, pmax=dbm_to_watt(float(p_dbm)))
        rng = np.random.default_rng([303, idx])
        mc = monte_carlo_sum_rate(cfg_p, geom, pose, users, theta, 500, rng, los=los)
        ctx = build_closed_form_context(cfg_p, geom, pose, users, theta, los=los)
        approx = 0.0
        for k in range(cfg_p.k):
            lb = lower_bound_rate(k, ctx, cfg_p)
            for m in range(cfg_p.m):
                val = approx_rate(k, m, ctx, cfg_p)
                assert val >= lb - 1e-12  # exact lower-bound inequality
                approx += val
        assert abs(mc.sum_rate - approx) / mc.sum_rate <= 0.15
    announce(3)


# ---------------------------------------------------------------------------
# 4. the heuristic always parks the panel at the closest allowed distance,
#    confirmed by a dense grid on the frozen radial objective
# ---------------------------------------------------------------------------

def test_criterion_04_radial_optimality():
    cfg, geom = scaled_ris_config()
    settings = OptimizerSettings(t=150)
    for idx, kind in enumerate(("uniform_disc", "one_hotspot", "multi_hotspot")):
        dist = scaled_distribution(kind, geom)
        res = heuristic_deploy(dist, settings, geom, cfg, np.random.default_rng([404, idx]))
        assert res.pose.d0 == geom.r_min
    # frozen-distance radial objective on a dense grid: the left endpoint wins
    for h0 in (1.0, 5.5, 10.0):
        grid = np.linspace(geom.r_min, geom.r_max, 20_000)
        y1 = (grid ** 2 + (h0 - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0)
        assert float(np.max(y1)) == y1[0]
    announce(4)


# ---------------------------------------------------------------------------
# 5. closed-form azimuth equals a 1e5-point grid argmin on 1000 random sets
# ---------------------------------------------------------------------------

def test_criterion_05_azimuth_closed_form():
    rng = np.random.default_rng(505)
    _, geom = scaled_config()
    grid = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    cosg, sing = np.cos(grid), np.sin(grid)
    step = grid[1] - grid[0]
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    for _ in range(1000):
        t = int(rng.integers(1, 40))
        d = rng.uniform(1.0, geom.r, t)
        phi = rng.uniform(-math.pi, math.pi, t)
        best = optimize_azimuth(pose, d, phi, covered_only=False)
        a1 = float(np.sum(-2.0 * pose.d0 * d * np.cos(phi)))
        a2 = float(np.sum(-2.0 * pose.d0 * d * np.sin(phi)))
        ref = grid[int(np.argmin(a1 * cosg + a2 * sing))]
        assert abs(math.remainder(best - ref, 2.0 * math.pi)) <= step + 1e-12
    announce(5)


# ---------------------------------------------------------------------------
# 6. height stationarity: zero slope at the returned interior height and a
#    local maximum against +-1e-3 m probes
# ---------------------------------------------------------------------------

def _height_terms(pose, d, phi, cfg, geom):
    omega, dkr = coverage_bulk(pose, d, phi)
    q1 = cfg.c0 ** 2 * int(np.sum(omega))
    q2 = float(np.sum(dkr[omega] ** 2))
    n = float(np.sum(omega))
    return q1, q2, n


def _y2(h, d0, q1, q2, n, cfg, geom):
    return (q1 * (d0 ** 2 + (h - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0)
            - (q2 + n * (h - geom.h_u) ** 2) ** (cfg.alpha2 / 2.0))


def _y2_slope(h, d0, q1, q2, n, cfg, geom):
    first = -cfg.alpha0 * q1 * (h - geom.h_b) * (d0 ** 2 + (h - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0 - 1.0)
    second = -cfg.alpha2 * n * (h - geom.h_u) * (q2 + n * (h - geom.h_u) ** 2) ** (cfg.alpha2 / 2.0 - 1.0)
    return first + second


def test_criterion_06_height_stationarity():
    cfg, geom = scaled_ris_config()
    dist = scaled_distribution("one_hotspot", geom)
    d, phi = sample_location_arrays(dist, 150, np.random.default_rng(606))
    # the panel stands across the BS from the hotspot
    pose = RisPose(d0=10.0, phi0=5 * math.pi / 4, h0=6.0, phiR=math.pi / 4)
    returned = optimize_height(pose, d, phi, geom, cfg)
    assert geom.h_min < returned < geom.h_max  # interior case

    q1, q2, n = _height_terms(pose, d, phi, cfg, geom)
    slope_scale = max(abs(_y2_slope(geom.h_u + 1e-6, pose.d0, q1, q2, n, cfg, geom)),
                      abs(_y2_slope(geom.h_b - 1e-6, pose.d0, q1, q2, n, cfg, geom)))
    assert abs(_y2_slope(returned, pose.d0, q1, q2, n, cfg, geom)) < 1e-6 * slope_scale
    center = _y2(returned, pose.d0, q1, q2, n, cfg, geom)
    assert center >= _y2(returned + 1e-3, pose.d0, q1, q2, n, cfg, geom)
    assert center >= _y2(returned - 1e-3, pose.d0, q1, q2, n, cfg, geom)
    announce(6)


# ---------------------------------------------------------------------------
# 7. heuristic within 85% of the coarse-grid exhaustive optimum on both
#    hotspot scenarios (Monte-Carlo sum-rate with per-realization phases)
# ---------------------------------------------------------------------------

def test_criterion_07_heuristic_vs_exhaustive():
    cfg, geom = scaled_ris_config()
    settings = OptimizerSettings(t=200, d0_step=10.0)
    for kind in ("one_hotspot", "multi_hotspot"):
        dist = scaled_distribution(kind, geom)
        heur = heuristic_deploy(dist, settings, geom, cfg, np.random.default_rng([707, 0]))
        exh = exhaustive_deploy(dist, settings, geom, cfg, np.random.default_rng([707, 1]))
        rate_h, _ = evaluate_pose(cfg, geom, dist, heur.pose, 120, (707, 0, 0, 1))
        rate_e, _ = evaluate_pose(cfg, geom, dist, exh.pose, 120, (707, 1, 0, 1))
        assert rate_h >= 0.85 * rate_e, f"{kind}: {rate_h:.2f} vs {rate_e:.2f}"
    announce(7)


# ---------------------------------------------------------------------------
# 8. heuristic at least 2x the mean of 20 random deployments at 25 dBm on
#    both hotspot scenarios
# ---------------------------------------------------------------------------

def test_criterion_08_heuristic_vs_random():
    cfg, geom = scaled_ris_config()
    cfg = replace(cfg, pmax=dbm_to_watt(25.0))
    settings = OptimizerSettings(t=200)
    for kind in ("one_hotspot", "multi_hotspot"):
        dist = scaled_distribution(kind, geom)
        heur = heuristic_deploy(dist, settings, geom, cfg, np.random.default_rng([808, 0]))
        rate_h, _ = evaluate_pose(cfg, geom, dist, heur.pose, 60, (808, 0, 0, 1))
        rand_rates = []
        for i in range(20):
            pose = random_deploy(geom, np.random.default_rng([808, 2, i])).pose
            r, _ = evaluate_pose(cfg, geom, dist, pose, 30, (808, 2, i, 1))
            rand_rates.append(r)
        assert rate_h >= 2.0 * float(np.mean(rand_rates)), kind
    announce(8)


# ---------------------------------------------------------------------------
# 9. convergence: monotone trace per served-count segment, at most 5 sweeps,
#    on all three scenarios
# ---------------------------------------------------------------------------

def test_criterion_09_convergence():
    cfg, geom = scaled_ris_config()
    settings = OptimizerSettings(t=200)
    for kind in ("uniform_disc", "one_hotspot", "multi_hotspot"):
        dist = scaled_distribution(kind, geom)
        for seed in (0, 1):
            res = heuristic_deploy(dist, settings, geom, cfg,
                                   np.random.default_rng([909, seed]))
            assert 1 <= res.iterations <= 5, kind
            tr, served = res.objective_trace, res.served_count_trace
            for i in range(1, len(tr)):
                if served[i] == served[i - 1]:
                    assert tr[i] >= tr[i - 1] * (1.0 - 1e-9), kind
    announce(9)


# ---------------------------------------------------------------------------
# 10. phase optimization: nondecreasing trace (guarded alternation), 3-bit
#     quantization keeps 95% of the continuous rate, 1-bit lands between
#     random phases and continuous
# ---------------------------------------------------------------------------

def test_criterion_10_phase_optimization():
    cfg, geom = scaled_ris_config()
    # reference gain where phase alignment moves a visible share of the link
    cfg = replace(cfg, c0=1e-3)
    dist = scaled_distribution("multi_hotspot", geom)
    settings = OptimizerSettings(t=150)
    heur = heuristic_deploy(dist, settings, geom, cfg, np.random.default_rng([1010, 0]))

    totals = dict(cont=0.0, b3=0.0, b1=0.0, rand=0.0)
    for trial in range(5):
        rng = np.random.default_rng([1010, 1, trial])
        users = sample_location_arrays(dist, cfg.k, rng)
        los = precompute_los(cfg, geom, heur.pose, users)
        real = sample_channel_realization(cfg, los, [rng])
        res = optimize_phases(real, cfg, max_iters=40, tol=1e-9)[0]
        tr = res.objective_trace
        for i in range(1, len(tr)):
            assert tr[i] >= tr[i - 1] * (1.0 - 1e-9)
        theta = res.phases
        totals["cont"] += sum_rate_for_phases(real, theta[None], cfg)[0]
        totals["b3"] += sum_rate_for_phases(real, quantize_phases(theta, 3)[None], cfg)[0]
        totals["b1"] += sum_rate_for_phases(real, quantize_phases(theta, 1)[None], cfg)[0]
        totals["rand"] += sum_rate_for_phases(
            real, np.exp(2j * np.pi * rng.random(cfg.nr))[None], cfg)[0]
    assert totals["b3"] >= 0.95 * totals["cont"]
    assert totals["rand"] < totals["b1"] < totals["cont"]
    announce(10)


# ---------------------------------------------------------------------------
# 11. the full-scale regeneration is documented rather than executed at desk
#     scale: the README must carry the command and the full-scale defaults
# ---------------------------------------------------------------------------

def test_criterion_11_full_scale_documented():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "Full-scale run" in text
    assert "risplan sweep --config" in text
    assert "nt = 128" in text
    announce(11)
