import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from risplan import (
    CellGeometry,
    ObjectiveBoundExceeded,
    OptimizerSettings,
    RisPlanError,
    RisPose,
    UserDistribution,
    UserLocation,
    ValidationError,
    coverage_indicator,
    exhaustive_deploy,
    heuristic_deploy,
    one_sample_deploy,
    optimize_azimuth,
    optimize_height,
    optimize_orientation,
    optimize_radial_distance,
    random_deploy,
    sgd_deploy,
)
from risplan import deployment
from risplan.deployment import (
    _HEURISTIC_SWEEPS,
    _N_ORIENT,
    azimuth_gap,
    coverage_bulk,
    kappa_objective,
    objective_upper_bound,
    orientation_grid,
    saa_lower_bound_objective,
    sample_location_arrays,
)
from risplan.geometry import wrap_to_2pi
from risplan.harness import parse_config, scaled_config, scaled_ris_config, scaled_distribution

CFG, GEOM = scaled_ris_config()


# ------------------------------------------------------------------ samplers

def test_one_hotspot_containment():
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    d, phi = sample_location_arrays(dist, 500, np.random.default_rng(0))
    cx, cy = 50.0 * math.cos(math.pi / 4), 50.0 * math.sin(math.pi / 4)
    gap = np.hypot(d * np.cos(phi) - cx, d * np.sin(phi) - cy)
    assert np.all(gap <= 10.0 + 1e-9)


def test_uniform_disc_radial_moment():
    dist = UserDistribution(kind="uniform_disc", cell=GEOM)
    d, _ = sample_location_arrays(dist, 100_000, np.random.default_rng(1))
    # area-uniform disc has mean radius 2r/3
    assert np.mean(d) == pytest.approx(2.0 * GEOM.r / 3.0, rel=0.01)
    assert np.max(d) <= GEOM.r


def test_single_sample_valid():
    dist = UserDistribution(kind="multi_hotspot",
                            cell=CellGeometry(r=200.0, r_min=10.0, r_max=200.0))
    d, phi = sample_location_arrays(dist, 1, np.random.default_rng(2))
    assert d.shape == phi.shape == (1,)
    assert 0.0 <= d[0] <= 200.0


def test_hotspot_disc_must_fit_cell():
    with pytest.raises(ValidationError):
        UserDistribution(kind="custom_centers", cell=GEOM, centers=((95.0, 0.0),))
    with pytest.raises(ValidationError):
        UserDistribution(kind="no_such_kind", cell=GEOM)


def test_bulk_coverage_agrees_with_scalar():
    rng = np.random.default_rng(3)
    pose = RisPose(d0=12.0, phi0=0.7, h0=6.0, phiR=1.1)
    d = rng.uniform(1, 100, 200)
    phi = rng.uniform(0, 2 * math.pi, 200)
    omega, dkr = coverage_bulk(pose, d, phi)
    for i in range(200):
        assert omega[i] == bool(coverage_indicator(pose, UserLocation(d[i], phi[i])))


# ------------------------------------------------------------- orientation

def test_orientation_covers_cluster():
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    d, phi = sample_location_arrays(dist, 100, np.random.default_rng(4))
    # the panel stands across the BS from the hotspot
    pose = RisPose(d0=10.0, phi0=5 * math.pi / 4, h0=6.0, phiR=0.0)
    best = optimize_orientation(pose, d, phi, 16)
    count = int(np.sum(coverage_bulk(replace(pose, phiR=best), d, phi)[0]))
    assert count == 100
    # a 10x finer grid cannot do better than full coverage
    fine_best = max(
        int(np.sum(coverage_bulk(replace(pose, phiR=a), d, phi)[0]))
        for a in orientation_grid(160)
    )
    assert fine_best == count


def test_orientation_tie_breaks_smallest_index():
    # a single user is covered over a run of adjacent grid angles, so the
    # maximal count is tied several times and the first angle must win
    d = np.array([50.0])
    phi = np.array([math.pi / 4])
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    grid = orientation_grid(16)
    counts = [int(np.sum(coverage_bulk(replace(pose, phiR=a), d, phi)[0]))
              for a in grid]
    assert counts.count(max(counts)) > 1  # genuine tie exercised
    best = optimize_orientation(pose, d, phi, 16)
    assert best == grid[counts.index(max(counts))]


def test_orientation_no_coverage_returns_first_angle():
    # all samples coincide with the panel position: degenerate for any angle
    d = np.array([10.0, 10.0])
    phi = np.array([0.4, 0.4])
    pose = RisPose(d0=10.0, phi0=0.4, h0=6.0, phiR=0.0)
    assert optimize_orientation(pose, d, phi, 8) == 0.0


def test_orientation_permutation_invariant():
    rng = np.random.default_rng(5)
    d = rng.uniform(5, 100, 60)
    phi = rng.uniform(0, 2 * math.pi, 60)
    pose = RisPose(d0=10.0, phi0=0.9, h0=6.0, phiR=0.0)
    base = optimize_orientation(pose, d, phi, 16)
    perm = rng.permutation(60)
    assert optimize_orientation(pose, d[perm], phi[perm], 16) == base


# ---------------------------------------------------------------- radial

def test_radial_distance_is_minimum():
    assert optimize_radial_distance(GEOM) == GEOM.r_min
    single = CellGeometry(r=100.0, r_min=25.0, r_max=25.0)
    assert optimize_radial_distance(single) == 25.0


def test_radial_objective_endpoint_dominates_grid():
    # the frozen-distance radial objective is c * (d^2 + dh^2)^(-a/2)
    dh2 = (6.0 - GEOM.h_b) ** 2
    grid = np.linspace(GEOM.r_min, GEOM.r_max, 5000)
    y1 = (grid ** 2 + dh2) ** (-CFG.alpha0 / 2.0)
    assert np.argmax(y1) == 0


# ---------------------------------------------------------------- height

def height_objective(h, d0, q1, q2, n, cfg, geom):
    return (q1 * (d0 ** 2 + (h - geom.h_b) ** 2) ** (-cfg.alpha0 / 2.0)
            - (q2 + n * (h - geom.h_u) ** 2) ** (cfg.alpha2 / 2.0))


def covered_setup():
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    d, phi = sample_location_arrays(dist, 120, np.random.default_rng(6))
    # the panel stands across the BS from the hotspot
    pose = RisPose(d0=10.0, phi0=5 * math.pi / 4, h0=6.0, phiR=math.pi / 4)
    assert np.all(coverage_bulk(pose, d, phi)[0])
    return pose, d, phi


def test_height_no_coverage_keeps_previous():
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.5, phiR=3.6)  # faces away
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    d, phi = sample_location_arrays(dist, 50, np.random.default_rng(7))
    assert not np.any(coverage_bulk(pose, d, phi)[0])
    assert optimize_height(pose, d, phi, GEOM, CFG) == 6.5


def test_height_zero_reference_gain_clamps_to_user_height():
    cfg = replace(CFG, c0=0.0)
    pose, d, phi = covered_setup()
    assert optimize_height(pose, d, phi, GEOM, cfg) == GEOM.h_u


def test_height_box_above_bs_clamps_down():
    geom = CellGeometry(r=100.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=30.0,
                        h_min=12.0, h_max=15.0)
    pose, d, phi = covered_setup()
    assert optimize_height(pose, d, phi, geom, CFG) == 12.0


def test_height_matches_golden_section_oracle():
    pose, d, phi = covered_setup()
    returned = optimize_height(pose, d, phi, GEOM, CFG)
    omega, dkr = coverage_bulk(pose, d, phi)
    q1 = CFG.c0 ** 2 * int(np.sum(omega))
    q2 = float(np.sum(dkr[omega] ** 2))
    n = float(np.sum(omega))
    lo, hi = GEOM.h_u, GEOM.h_b
    golden = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - golden * (b - a)
    c2 = a + golden * (b - a)
    for _ in range(200):
        if height_objective(c1, pose.d0, q1, q2, n, CFG, GEOM) > height_objective(
                c2, pose.d0, q1, q2, n, CFG, GEOM):
            b, c2 = c2, c1
            c1 = b - golden * (b - a)
        else:
            a, c1 = c1, c2
            c2 = a + golden * (b - a)
    oracle = 0.5 * (a + b)
    assert abs(returned - min(max(oracle, GEOM.h_min), GEOM.h_max)) < 1e-4


# ---------------------------------------------------------------- azimuth

def test_azimuth_single_cluster_aligns():
    d = np.full(40, 50.0)
    phi = np.full(40, 1.1)
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    best = optimize_azimuth(pose, d, phi, covered_only=False)
    assert best == pytest.approx(1.1, abs=1e-12)


def test_azimuth_symmetric_pair_gives_zero():
    d = np.array([50.0, 50.0])
    phi = np.array([0.8, -0.8])
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    assert optimize_azimuth(pose, d, phi, covered_only=False) == pytest.approx(0.0, abs=1e-12)


def test_azimuth_zero_phasor_returns_zero():
    # samples at the BS carry zero weight, so both phasor sums vanish exactly
    d = np.array([0.0, 0.0])
    phi = np.array([0.7, 2.1])
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    assert optimize_azimuth(pose, d, phi, covered_only=False) == 0.0


def test_azimuth_matches_grid_oracle():
    rng = np.random.default_rng(8)
    grid = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
    step = grid[1] - grid[0]
    for _ in range(50):
        t = int(rng.integers(1, 30))
        d = rng.uniform(1, 100, t)
        phi = rng.uniform(-math.pi, math.pi, t)
        pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
        best = optimize_azimuth(pose, d, phi, covered_only=False)
        a1 = float(np.sum(-2 * pose.d0 * d * np.cos(phi)))
        a2 = float(np.sum(-2 * pose.d0 * d * np.sin(phi)))
        ref = grid[int(np.argmin(a1 * np.cos(grid) + a2 * np.sin(grid)))]
        assert abs(math.remainder(best - ref, 2 * math.pi)) <= step + 1e-12


def test_azimuth_scale_invariant():
    rng = np.random.default_rng(9)
    d = rng.uniform(1, 100, 20)
    phi = rng.uniform(0, 2 * math.pi, 20)
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.0)
    base = optimize_azimuth(pose, d, phi, covered_only=False)
    scaled = optimize_azimuth(pose, 3.7 * d, phi, covered_only=False)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_azimuth_gap_draws_the_sets_of_a_plain_loop():
    # The oracle draws each user set as t, then d, then phi.
    _, geom = scaled_config()
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    azimuth_gap(geom, rng)
    for _ in range(200):
        t = int(ref_rng.integers(1, 40))
        ref_rng.uniform(1.0, geom.r, t)
        ref_rng.uniform(-math.pi, math.pi, t)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("delta", [1e-9, 1e-5, 1e-3, 1.0, math.pi - 1e-3])
def test_azimuth_gap_reads_a_shifted_closed_form(delta, monkeypatch):
    # The derivatives give the exact angle to the minimiser, so a closed
    # form moved by delta reads delta.
    _, geom = scaled_config()
    closed_form = deployment.optimize_azimuth
    monkeypatch.setattr(deployment, "optimize_azimuth",
                        lambda *args, **kwargs: closed_form(*args, **kwargs) + delta)
    assert azimuth_gap(geom, np.random.default_rng(5)) == pytest.approx(delta, abs=1e-12)


class _FixedSets:
    # Stands in for the oracle's generator: every set is the same users.
    def __init__(self, d, phi):
        self.t, self.draws = len(d), itertools.cycle((d, phi))

    def integers(self, low, high):
        return self.t

    def uniform(self, low, high, size):
        return next(self.draws)


def test_azimuth_gap_of_users_whose_phasors_cancel_exactly():
    # Every azimuth minimises this set's objective; both derivatives are 0.
    _, geom = scaled_config()
    d, phi = np.full(4, 50.0), np.array([0.0, 0.0, math.pi, -math.pi])
    assert optimize_azimuth(RisPose(10.0, 0.0, 5.0, 0.0), d, phi, covered_only=False) == 0.0
    assert azimuth_gap(geom, _FixedSets(d, phi)) == 0.0


def test_azimuth_gap_fails_a_sign_error_in_the_reduction(monkeypatch):
    def flipped(pose, d, phi, covered_only=True):
        a1 = float(np.sum(-2.0 * pose.d0 * d * np.cos(phi)))
        a2 = float(np.sum(2.0 * pose.d0 * d * np.sin(phi)))
        return wrap_to_2pi(math.atan2(a2, a1) + math.pi)

    _, geom = scaled_config()
    monkeypatch.setattr(deployment, "optimize_azimuth", flipped)
    assert azimuth_gap(geom, np.random.default_rng(0)) > deployment.AZIMUTH_TOLERANCE


GRID = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
GRID_COS, GRID_SIN = np.cos(GRID), np.sin(GRID)
GRID_STEP = GRID[1] - GRID[0]


def _agrees_with_the_grid(d, phi):
    # The closed form against the argmin of the objective's sinusoid over
    # the full 100,000-point grid: within one step of it, around the wrap.
    pose = RisPose(d0=10.0, phi0=0.0, h0=5.0, phiR=0.0)
    best = optimize_azimuth(pose, d, phi, covered_only=False)
    a1 = float(np.sum(-2.0 * pose.d0 * d * np.cos(phi)))
    a2 = float(np.sum(-2.0 * pose.d0 * d * np.sin(phi)))
    ref = GRID[int(np.argmin(a1 * GRID_COS + a2 * GRID_SIN))]
    assert 0.0 <= best < 2.0 * math.pi
    assert abs(math.remainder(best - ref, 2.0 * math.pi)) <= GRID_STEP + 1e-12


@pytest.mark.parametrize("amplitude", [1e-3, 1.0, 1e5])
@pytest.mark.parametrize("offset", [0.0, 0.3, -0.3, 0.8, -0.8, 1.0, -1.0])
def test_grid_argmin_at_either_end_of_the_grid(amplitude, offset):
    # One user within a grid step of angle 0 and of 2pi, where the closed
    # form wraps: at -0.8 steps the grid's argmin is its last point.
    _, geom = scaled_config()
    d, phi = np.array([amplitude / 20.0]), np.array([offset * GRID_STEP])
    _agrees_with_the_grid(d, phi)
    assert azimuth_gap(geom, _FixedSets(d, phi)) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_grid_argmin_on_the_oracle_sets(seed):
    # azimuth_gap's own random sets: the closed form agrees with the grid's
    # argmin, and the derivatives put it within rounding of the minimiser.
    _, geom = scaled_config()
    rng = np.random.default_rng(seed)
    for _ in range(200):
        t = int(rng.integers(1, 40))
        _agrees_with_the_grid(rng.uniform(1.0, geom.r, t), rng.uniform(-math.pi, math.pi, t))
    assert azimuth_gap(geom, np.random.default_rng(seed)) <= 1e-12


def test_azimuth_over_all_samples_skips_coverage(monkeypatch):
    # covered_only=True gives the closed form over the covered samples;
    # covered_only=False gives it over all of them and never reads coverage.
    rng = np.random.default_rng(4)
    d, phi = rng.uniform(1.0, 100.0, 30), rng.uniform(-math.pi, math.pi, 30)
    pose = RisPose(d0=10.0, phi0=0.0, h0=6.0, phiR=0.5)
    covered = coverage_bulk(pose, d, phi)[0]
    assert 0 < np.sum(covered) < 30
    assert optimize_azimuth(pose, d, phi) == optimize_azimuth(
        pose, d[covered], phi[covered], covered_only=False)

    def refuse(*args):
        raise AssertionError("coverage computed")

    monkeypatch.setattr(deployment, "coverage_bulk", refuse)
    a1 = float(np.sum(-2.0 * pose.d0 * d * np.cos(phi)))
    a2 = float(np.sum(-2.0 * pose.d0 * d * np.sin(phi)))
    assert optimize_azimuth(pose, d, phi, covered_only=False) == wrap_to_2pi(
        math.atan2(a2, a1) + math.pi)


# ------------------------------------------------------------ full methods

def test_heuristic_returns_minimum_distance_everywhere():
    settings = OptimizerSettings(t=100)
    for idx, kind in enumerate(("uniform_disc", "one_hotspot", "multi_hotspot")):
        dist = scaled_distribution(kind, GEOM)
        res = heuristic_deploy(dist, settings, GEOM, CFG, np.random.default_rng([idx, 3]))
        assert res.pose.d0 == GEOM.r_min
        assert res.iterations <= _HEURISTIC_SWEEPS
        assert GEOM.h_min <= res.pose.h0 <= GEOM.h_max
        if kind == "one_hotspot":
            # the optimized pose serves every sample of a single hotspot
            assert res.served_count_trace[-1] == settings.t


def test_heuristic_sets_radial_distance_once(monkeypatch):
    calls = []
    monkeypatch.setattr(deployment, "optimize_radial_distance",
                        lambda geom: calls.append(geom) or GEOM.r_min)
    dist = scaled_distribution("multi_hotspot", GEOM)
    res = heuristic_deploy(dist, OptimizerSettings(t=150), GEOM, CFG, np.random.default_rng(11))
    assert res.iterations >= 2 and calls == [GEOM]
    assert res.pose.d0 == GEOM.r_min


def test_heuristic_trace_monotone_and_bounded():
    settings = OptimizerSettings(t=150)
    dist = scaled_distribution("multi_hotspot", GEOM)
    res = heuristic_deploy(dist, settings, GEOM, CFG, np.random.default_rng(11))
    tr = res.objective_trace
    assert all(tr[i] >= tr[i - 1] * (1 - 1e-12) for i in range(1, len(tr)))
    # the heuristic's own samples, replayed: its last entry is the returned
    # pose's objective, within the certificate at that pose
    d, phi = sample_location_arrays(dist, settings.t, np.random.default_rng(11))
    obj, served = kappa_objective(res.pose, d, phi, CFG, GEOM)
    assert (obj, served) == (tr[-1], res.served_count_trace[-1])
    assert obj <= objective_upper_bound(CFG, res.pose, GEOM, d, phi) * (1 + 1e-12)


@pytest.mark.parametrize("c0", [0.0, 1.0, 1e5, 1e20])
def test_objective_upper_bound_holds_at_every_pose(c0):
    # The certificate bounds the summed composite gains for any reference
    # gain: the samples' direct terms plus each served sample's cascade term
    # at the nearest served sample's distance, finite at user height too.
    cfg = replace(CFG, c0=c0)
    dist = scaled_distribution("one_hotspot", GEOM)
    rng = np.random.default_rng(14)
    d, phi = sample_location_arrays(dist, 60, rng)
    served_somewhere = False
    for _ in range(200):
        pose = random_deploy(GEOM, rng).pose
        obj, served = kappa_objective(pose, d, phi, cfg, GEOM)
        bound = objective_upper_bound(cfg, pose, GEOM, d, phi)
        assert obj <= bound * (1.0 + 1e-12)
        if served == 0:
            assert obj == bound
        served_somewhere |= served > 0
    assert served_somewhere
    at_user_height = RisPose(d0=GEOM.r_min, phi0=0.0, h0=GEOM.h_u, phiR=0.0)
    at_user_height = replace(at_user_height, phiR=optimize_orientation(at_user_height, d, phi, 16))
    obj, served = kappa_objective(at_user_height, d, phi, cfg, GEOM)
    assert served > 0 and math.isfinite(obj)
    bound = objective_upper_bound(cfg, at_user_height, GEOM, d, phi)
    assert math.isfinite(bound) and obj <= bound * (1.0 + 1e-12) < 2.0 * obj


def test_objective_upper_bound_is_tight_at_the_default_cell():
    # At the parser's default cell the heuristic often ends at user height;
    # there as at its other poses the certificate is within 1% of the objective.
    spec = parse_config("")
    at_user_height = 0
    for seed in range(20):
        res = heuristic_deploy(spec.dist, spec.settings, spec.geom, spec.cfg,
                               np.random.default_rng([seed, 0, 0]))
        d, phi = sample_location_arrays(spec.dist, spec.settings.t, np.random.default_rng([seed, 0, 0]))
        obj, _ = kappa_objective(res.pose, d, phi, spec.cfg, spec.geom)
        bound = objective_upper_bound(spec.cfg, res.pose, spec.geom, d, phi)
        assert obj <= bound * (1.0 + 1e-12) < 1.01 * obj
        at_user_height += res.pose.h0 == spec.geom.h_u
    assert at_user_height > 0


def test_heuristic_beats_random_poses():
    settings = OptimizerSettings(t=150)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    rng = np.random.default_rng(12)
    res = heuristic_deploy(dist, settings, GEOM, CFG, rng)
    d, phi = sample_location_arrays(dist, settings.t, np.random.default_rng(12))
    ours, _ = kappa_objective(res.pose, d, phi, CFG, GEOM)
    wins = 0
    pose_rng = np.random.default_rng(13)
    for _ in range(100):
        pose = random_deploy(GEOM, pose_rng).pose
        val, _ = kappa_objective(pose, d, phi, CFG, GEOM)
        wins += ours >= val
    assert wins >= 95


def test_exhaustive_degenerate_box_grid():
    # r_min = r_max and h_min = h_max leave one d0 and one h0 (the 1e-9 step
    # floor), so the grid is the 8 x 12 angle pairs
    geom = CellGeometry(r=100.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=10.0,
                        h_min=5.0, h_max=5.0)
    settings = OptimizerSettings(t=40)
    dist = UserDistribution(kind="one_hotspot", cell=geom)
    rng = np.random.default_rng(14)
    res = exhaustive_deploy(dist, settings, geom, CFG, rng)
    d, phi = sample_location_arrays(dist, settings.t, np.random.default_rng(14))
    best, best_pose = -math.inf, None
    for p0, pr in itertools.product(np.arange(0, 2 * math.pi, math.pi / 4),
                                    np.arange(0, 2 * math.pi, math.pi / 6)):
        pose = RisPose(10.0, float(p0), 5.0, float(pr))
        val = saa_lower_bound_objective(pose, d, phi, CFG, geom)
        if val > best:
            best, best_pose = val, pose
    assert res.objective_trace[0] == best
    assert res.pose == best_pose


def test_exhaustive_dominates_on_grid_points():
    settings = OptimizerSettings(t=60)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    res = exhaustive_deploy(dist, settings, GEOM, CFG, np.random.default_rng(15))
    d, phi = sample_location_arrays(dist, settings.t, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    for _ in range(25):
        pose = RisPose(
            d0=float(rng.choice([10.0, 14.0, 18.0, 22.0, 26.0, 30.0])),
            phi0=float(rng.choice(np.arange(0, 2 * math.pi, math.pi / 4))),
            h0=float(rng.choice([1.0, 4.0, 7.0, 10.0])),
            phiR=float(rng.choice(np.arange(0, 2 * math.pi, math.pi / 6))),
        )
        assert res.objective_trace[0] >= saa_lower_bound_objective(pose, d, phi, CFG, GEOM) - 1e-12


@pytest.mark.parametrize("preset, d0_axis", [
    ("desk", [10.0, 14.0, 18.0, 22.0, 26.0, 30.0]),
    ("full_scale", [10.0, 48.0, 86.0, 124.0, 162.0, 200.0]),
])
def test_exhaustive_scans_the_documented_grid(preset, d0_axis, monkeypatch):
    # the README's "Exhaustive search" grid: 6 x 4 x 8 x 12 = 2,304 poses
    cfg, geom = scaled_config() if preset == "desk" else (parse_config("").cfg, parse_config("").geom)
    scored, objectives = [], deployment._objectives

    def capture(terms, *args):
        scored.append([np.ravel(v).tolist() for v in terms])
        return objectives(terms, *args)

    monkeypatch.setattr(deployment, "_objectives", capture)
    dist = UserDistribution(kind="one_hotspot", cell=geom)
    exhaustive_deploy(dist, OptimizerSettings(t=5), geom, cfg, np.random.default_rng(0))
    [(d0, phi0, h0, phiR)] = scored
    assert d0 == d0_axis
    assert h0 == [1.0, 4.0, 7.0, 10.0]
    assert phi0 == [k * (math.pi / 4) for k in range(8)]
    assert phiR == [k * (math.pi / 6) for k in range(12)]
    assert len(d0) * len(h0) * len(phi0) * len(phiR) == 2304


def sgd_start(dist, settings, seed):
    """The start pose sgd_deploy draws from default_rng(seed): it replays
    the generator through the evaluation samples and the random pose."""
    rng = np.random.default_rng(seed)
    sample_location_arrays(dist, settings.t, rng)
    return random_deploy(GEOM, rng).pose


def test_sgd_zero_iterations_returns_init():
    settings = OptimizerSettings(t=30, sgd_iters=0)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    init = sgd_start(dist, settings, 17)
    res = sgd_deploy(dist, settings, GEOM, CFG, np.random.default_rng(17))
    assert res.pose == init
    assert len(res.objective_trace) == 1


def test_sgd_angles_lie_on_the_orientation_grid():
    settings = OptimizerSettings(t=30, sgd_iters=3)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    res = sgd_deploy(dist, settings, GEOM, CFG, np.random.default_rng(18))
    grid = set(orientation_grid(_N_ORIENT))
    assert len(grid) == 16
    assert sgd_start(dist, settings, 18).phi0 not in grid
    assert res.pose.phi0 in grid and res.pose.phiR in grid


def test_sgd_does_not_beat_heuristic():
    settings = OptimizerSettings(t=80, sgd_iters=200)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    gaps = []
    for seed in range(20):
        h = heuristic_deploy(dist, settings, GEOM, CFG, np.random.default_rng([seed, 0]))
        s = sgd_deploy(dist, settings, GEOM, CFG, np.random.default_rng([seed, 1]))
        d, phi = sample_location_arrays(dist, 200, np.random.default_rng([seed, 2]))
        gaps.append(saa_lower_bound_objective(h.pose, d, phi, CFG, GEOM)
                    - saa_lower_bound_objective(s.pose, d, phi, CFG, GEOM))
    assert np.mean(gaps) >= 0.0


def test_random_deploy_reproducible_and_uniform():
    a = random_deploy(GEOM, np.random.default_rng(19)).pose
    b = random_deploy(GEOM, np.random.default_rng(19)).pose
    assert a == b
    rng = np.random.default_rng(20)
    draws = np.array([random_deploy(GEOM, rng).pose.d0 for _ in range(10_000)])
    assert np.mean(draws) == pytest.approx((GEOM.r_min + GEOM.r_max) / 2.0, rel=0.02)
    degenerate = CellGeometry(r=100.0, r_min=15.0, r_max=15.0)
    assert random_deploy(degenerate, rng).pose.d0 == 15.0


def test_one_sample_runs_with_single_draw():
    settings = OptimizerSettings(t=200)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    res = one_sample_deploy(dist, settings, GEOM, CFG, np.random.default_rng(21))
    assert res.pose.d0 == GEOM.r_min


def test_heuristic_raises_when_objective_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(deployment, "objective_upper_bound", lambda *args: 0.0)
    dist = UserDistribution(kind="one_hotspot", cell=GEOM)
    with pytest.raises(ObjectiveBoundExceeded, match="exceeded its bound"):
        heuristic_deploy(dist, OptimizerSettings(t=50), GEOM, CFG, np.random.default_rng(22))
    assert issubclass(ObjectiveBoundExceeded, RisPlanError)
