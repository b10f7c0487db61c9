"""Stacked evaluation against the per-trial loop it replaced.

`evaluate_pose` runs its trials in stacked chunks.  The reference below is
the per-trial loop it replaced, kept verbatim: each trial samples its users,
builds its LOS terms, draws one channel and runs the phase optimiser on it
alone.  The stacked path must give the same (mean, std error) bit for bit,
and each stacked phase run must equal the run of its realization alone.
A full-scale sweep runs its rows on worker threads; each row must equal the
same reference.
"""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from risplan import SingularChannel, ValidationError, channel, harness, parse_config
from risplan.channel import (
    ChannelRealization,
    pose_los,
    precompute_los,
    sample_channel_realization,
)
from risplan.deployment import UserDistribution, sample_location_arrays
from risplan.geometry import RisPose, UserLocation
from risplan.harness import (
    _PHASE_ITERS,
    _PHASE_TOL,
    evaluate_pose,
    run_experiment,
    scaled_distribution,
    scaled_ris_config,
)
from risplan.phase import (
    compute_zf_precoders,
    optimize_phases,
    sum_rate_for_phases,
    update_auxiliary,
    update_phases,
)


def _ref_evaluate_pose(cfg, geom, dist, pose, trials, rng_key):
    totals = []
    for trial in range(trials):
        rng = np.random.default_rng(list(rng_key) + [trial])
        users = sample_location_arrays(dist, cfg.k, rng)
        los = precompute_los(cfg, geom, pose, users)
        real = sample_channel_realization(cfg, los, [rng])
        result = optimize_phases(real, cfg, max_iters=_PHASE_ITERS, tol=_PHASE_TOL)[0]
        # Without quantisation the last traced value is the true ZF sum-rate
        # at the returned phases.
        totals.append(result.objective_trace[-1])
    mean = math.fsum(totals) / len(totals)
    if len(totals) == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in totals) / (len(totals) - 1)
    return mean, math.sqrt(var / len(totals))


FULL = parse_config("")
PRESETS = {"desk": scaled_ris_config(), "full_scale": (FULL.cfg, FULL.geom)}
# Serves some users of every scenario below and misses the rest.
POSE = RisPose(d0=20.0, phi0=0.3, h0=6.0, phiR=7.0 * math.pi / 4.0)
# Faces away from the base station, so it serves no user.
BLIND_POSE = RisPose(d0=20.0, phi0=0.0, h0=6.0, phiR=math.pi + 0.3)


def _distribution(preset, kind, geom):
    return scaled_distribution(kind, geom) if preset == "desk" else UserDistribution(kind, geom)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularChannel as exc:
        return type(exc)


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 40])
@pytest.mark.parametrize("kind", ["one_hotspot", "multi_hotspot", "uniform_disc"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evaluate_pose_equals_per_trial_loop(preset, kind, trials):
    cfg, geom = PRESETS[preset]
    dist = _distribution(preset, kind, geom)
    key = (5, 1, 2, 1)
    assert (_outcome(evaluate_pose, cfg, geom, dist, POSE, trials, key)
            == _outcome(_ref_evaluate_pose, cfg, geom, dist, POSE, trials, key))


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("los_only, pose", [(False, BLIND_POSE), (True, POSE)])
def test_evaluate_pose_equals_loop_without_panel_or_scatter(preset, los_only, pose):
    cfg, geom = PRESETS[preset]
    cfg = replace(cfg, los_only=los_only)
    dist = _distribution(preset, "uniform_disc", geom)
    rng = np.random.default_rng(3)
    served = np.any(precompute_los(cfg, geom, pose, sample_location_arrays(dist, 40, rng)).beta2)
    assert served == los_only
    trials = 9 if preset == "desk" else 2
    assert (evaluate_pose(cfg, geom, dist, pose, trials, (8, 0, 0, 1))
            == _ref_evaluate_pose(cfg, geom, dist, pose, trials, (8, 0, 0, 1)))


@pytest.mark.parametrize("trials", [0, -3])
def test_evaluate_pose_needs_a_trial(trials):
    cfg, geom = PRESETS["desk"]
    with pytest.raises(ValidationError):
        evaluate_pose(cfg, geom, _distribution("desk", "one_hotspot", geom), POSE, trials,
                      (0, 0, 0, 1))


def _stack(cfg, geom, dist, seed, count):
    """A stacked realization of `count` trials, each from its own generator,
    each trial's realization alone as a stack of one, and the stacked LOS
    structure."""
    rngs = [np.random.default_rng([seed, t]) for t in range(count)]
    users = tuple(np.array(part) for part in
                  zip(*(sample_location_arrays(dist, cfg.k, rng) for rng in rngs)))
    los = precompute_los(cfg, geom, POSE, users)
    real = sample_channel_realization(cfg, los, rngs)
    alone = [ChannelRealization(g=real.g[t:t + 1], d=real.d[t:t + 1], h=real.h[t:t + 1])
             for t in range(count)]
    return real, alone, los


def _stop(result, max_iters, tol):
    trace = result.objective_trace
    if len(trace) == max_iters:
        return "max_iters"
    if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
        return "tol"
    return "first-update dip" if len(trace) == 1 else "later dip"


def test_stacked_phase_runs_equal_single_runs():
    cfg, geom = PRESETS["desk"]
    max_iters, tol = 4, 1e-3
    stops = set()
    for kind in ("one_hotspot", "multi_hotspot"):
        real, alone, _ = _stack(cfg, geom, _distribution("desk", kind, geom), 11, 8)
        stacked = optimize_phases(real, cfg, max_iters=max_iters, tol=tol)
        assert len(stacked) == len(alone)
        assert stacked.iterations == sum(r.iterations for r in stacked)
        for result, single in zip(stacked, alone):
            ref = optimize_phases(single, cfg, max_iters=max_iters, tol=tol)[0]
            assert result.objective_trace == ref.objective_trace
            assert result.dips == ref.dips
            assert result.iterations == ref.iterations
            assert np.array_equal(result.phases, ref.phases)
            # the trace ends at the true sum-rate of the returned phases
            assert ref.objective_trace[-1] == sum_rate_for_phases(single, ref.phases[None], cfg)[0]
            stops.add(_stop(ref, max_iters, tol))
    assert stops == {"first-update dip", "later dip", "tol", "max_iters"}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_stacked_steps_equal_single_steps(preset):
    cfg, geom = PRESETS[preset]
    real, alone, _ = _stack(cfg, geom, _distribution(preset, "multi_hotspot", geom), 4, 3)
    theta = np.exp(1j * np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, (3, cfg.nr)))
    h_eff, f, u_norm2 = compute_zf_precoders(real, theta)
    gammas = update_auxiliary(h_eff, f, cfg)
    phases = update_phases(real, gammas, f, theta)
    for t, single in enumerate(alone):
        ref = compute_zf_precoders(single, theta[t:t + 1])
        for got, want in zip((h_eff, f, u_norm2), ref):
            assert np.array_equal(got[t:t + 1], want)
        ref_gammas = update_auxiliary(*ref[:2], cfg)
        assert np.array_equal(gammas[t:t + 1], ref_gammas)
        assert np.array_equal(phases[t:t + 1],
                              update_phases(single, ref_gammas, ref[1], theta[t:t + 1]))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_stacked_los_and_draws_equal_single_layouts(preset):
    cfg, geom = PRESETS[preset]
    dist = _distribution(preset, "uniform_disc", geom)
    real, _, stacked_los = _stack(cfg, geom, dist, 6, 3)
    for t in range(3):
        rng = np.random.default_rng([6, t])
        users = sample_location_arrays(dist, cfg.k, rng)
        los = precompute_los(cfg, geom, POSE, users)
        single = sample_channel_realization(cfg, los, [rng])
        for name in ("g", "d", "h"):
            assert np.array_equal(getattr(real, name)[t], getattr(single, name)[0]), name
        for name in ("beta1", "beta2"):
            assert np.array_equal(getattr(stacked_los, name)[t], getattr(los, name)), name


def test_singular_trial_in_a_chunk_gives_a_nan_row(monkeypatch):
    cfg, geom = PRESETS["desk"]
    text = f"""
[system]
nt = {cfg.nt}
nr_x = {cfg.nr_x}
nr_y = {cfg.nr_y}
subcarriers = {cfg.m}
users = {cfg.k}
c0 = 1.0
[geometry]
cell_radius = {geom.r}
ris_distance_max = {geom.r_max}
[scenario]
kind = one_hotspot
[run]
methods = random
trials = 8
"""
    spec = parse_config(text)
    assert math.isfinite(run_experiment(spec)[0].sum_rate_bps_hz)
    original = harness.sample_channel_realization

    def one_dead_trial(*args, **kwargs):
        real = original(*args, **kwargs)
        real.d[2] = 0.0  # trial 2 of the 8-trial chunk loses every link
        real.h[2] = 0.0
        return real

    monkeypatch.setattr(harness, "sample_channel_realization", one_dead_trial)
    row = run_experiment(spec)[0]
    assert math.isnan(row.sum_rate_bps_hz) and math.isnan(row.std_error)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("preset, trials", [("full_scale", 3), ("desk", 40)])
def test_evaluate_pose_peak_memory(preset, trials):
    cfg, geom = PRESETS[preset]
    args = (cfg, geom, _distribution(preset, "multi_hotspot", geom), POSE, trials, (1, 0, 0, 1))
    stacked, loop = _peak(evaluate_pose, *args), _peak(_ref_evaluate_pose, *args)
    # A chunk holds up to this many trials at once, where the loop holds one.
    chunk = max(1, harness._CHUNK_ELEMENTS // (cfg.m * cfg.nt * cfg.nr))
    assert stacked <= min(chunk, trials) * loop


def _random_sweep(values):
    """A two-trial power sweep of random placements at the full-scale defaults."""
    return parse_config(f"""
[scenario]
kind = multi_hotspot
[sweep]
values = {", ".join(str(v) for v in values)}
[run]
methods = random
trials = 2
seed = 5
""")


def _rows_on_one_core(monkeypatch, spec):
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_usable_cores", lambda: 1)
        return run_experiment(spec)


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_threaded_sweep_rows_equal_per_trial_loop(monkeypatch, rows):
    spec = _random_sweep([10.0 + 5.0 * i for i in range(rows)])
    inline = _rows_on_one_core(monkeypatch, spec)
    threads = set()
    original = harness.evaluate_pose

    def recorded(*args):
        threads.add(threading.current_thread())
        return original(*args)

    # More workers than this machine's cores, switching often, so rows
    # interleave and each worker takes an unequal share of them.
    monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
    monkeypatch.setattr(harness, "evaluate_pose", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = run_experiment(spec)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == inline
    assert (threading.main_thread() in threads) == (rows == 1)
    for si, row in enumerate(threaded):
        assert math.isfinite(row.sum_rate_bps_hz)
        cfg = replace(spec.cfg, pmax=harness.dbm_to_watt(row.sweep_value))
        pose = RisPose(row.d0, row.phi0, row.h0, row.phiR)
        assert ((row.sum_rate_bps_hz, row.std_error)
                == _ref_evaluate_pose(cfg, spec.geom, spec.dist, pose, spec.trials, (5, 0, si, 1)))


def test_desk_sweep_rows_stay_on_the_calling_thread(monkeypatch):
    cfg, geom = PRESETS["desk"]
    spec = replace(_random_sweep([20.0, 30.0]), cfg=cfg, geom=geom,
                   dist=_distribution("desk", "multi_hotspot", geom))
    threads = set()
    original = harness.evaluate_pose

    def recorded(*args):
        threads.add(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "evaluate_pose", recorded)
    assert all(math.isfinite(row.sum_rate_bps_hz) for row in run_experiment(spec))
    assert threads == {threading.main_thread()}


def test_singular_row_on_a_worker_gives_a_nan_row(monkeypatch):
    spec = _random_sweep([20.0, 25.0, 30.0])
    inline = _rows_on_one_core(monkeypatch, spec)
    dead = RisPose(inline[1].d0, inline[1].phi0, inline[1].h0, inline[1].phiR)
    dead_a_ris = pose_los(spec.cfg, spec.geom, dead)[1]
    original = harness.sample_channel_realization

    def dead_row(cfg, los, *args, **kwargs):
        real = original(cfg, los, *args, **kwargs)
        if np.array_equal(los.a_ris, dead_a_ris):  # every link of this row's draws is lost
            real.d[...] = 0.0
            real.h[...] = 0.0
        return real

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "sample_channel_realization", dead_row)
    before = threading.active_count()
    rows = run_experiment(spec)
    assert threading.active_count() == before
    assert math.isnan(rows[1].sum_rate_bps_hz) and math.isnan(rows[1].std_error)
    assert [rows[0], rows[2]] == [inline[0], inline[2]]


def test_error_in_a_worker_row_propagates_and_leaves_no_thread(monkeypatch):
    spec = _random_sweep([20.0, 25.0, 30.0, 35.0])
    original = harness.evaluate_pose

    def broken_second_row(cfg, *args):
        if cfg.pmax == harness.dbm_to_watt(25.0):
            raise RuntimeError("bug in a row")
        return original(cfg, *args)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "evaluate_pose", broken_second_row)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="bug in a row"):
        run_experiment(spec)
    assert threading.active_count() == before


def _whole_link_draw(cfg, los, rng):
    """One draw with each link's normals from one call per part, assembled
    as in the single-draw code the kernel replaced."""
    g_bar = np.einsum("mt,mr->mtr", los.b_ris, np.conj(los.a_ris))
    links = ((g_bar, cfg.nt * cfg.nr, cfg.k0, math.sqrt(los.beta0)),
             (los.d_bar, cfg.nt, cfg.k1, np.sqrt(los.beta1)[:, None, None]),
             (los.h_bar, cfg.nr, cfg.k2, np.sqrt(los.beta2)[:, None, None]))
    draw = []
    for bar, norm, k_factor, gain in links:
        scatter = (rng.standard_normal(bar.shape) + 1j * rng.standard_normal(bar.shape))
        scatter = scatter / math.sqrt(2.0) / math.sqrt(norm)
        w_los, w_nlos = math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))
        draw.append(gain * (w_los * bar + w_nlos * scatter))
    return draw


def test_draws_over_several_pieces_equal_whole_link_normals():
    cfg, geom = PRESETS["full_scale"]
    cfg = replace(cfg, nt=50, nr_x=7, nr_y=7, k=3)
    # the panel serves the first user only, so both kinds of h rows show
    los = precompute_los(cfg, geom, RisPose(d0=10.0, phi0=math.pi, h0=8.0, phiR=0.0),
                         [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0),
                          UserLocation(50.0, -2.0)])
    assert (los.beta2 != 0.0).tolist() == [True, False, False]
    # g's real parts fill more than one piece of normals and end inside one
    piece, size = channel.draw_buffers(los, 1)[-1].size, cfg.m * cfg.nt * cfg.nr
    assert size > piece and size % piece
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    real = sample_channel_realization(cfg, los, [rng] * 2)
    draws = real.g, real.d, real.h
    for i in range(2):
        for got, want in zip(draws, _whole_link_draw(cfg, los, ref_rng)):
            assert np.array_equal(got[i], want)
    assert rng.standard_normal() == ref_rng.standard_normal()
