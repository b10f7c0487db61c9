"""The three benchmark workloads: inputs from a seed, the timed work, and
the checks on its output.

Every workload calls risplan through module attributes looked up at call
time (`harness.run_experiment`, not a name bound at import), so a tracer
that rebinds those attributes sees the calls.

- desk_sweep: the desk-scale `scaled_ris_config()` cell, one-hotspot users,
  all five placement methods, two transmit powers.  Placement dominates.
- full_sweep: the parser's default full-scale cell with multi-hotspot users
  (the four default hotspots, 40-110 m from the base station), the heuristic
  and random methods, two transmit powers.  Evaluation dominates.  Users stay
  off the base station's foot: the direct-link gain c1 * dk^-4 grows without
  limit as the horizontal distance dk goes to 0, so a uniform-disc user
  within about 0.2 m of the base station, beside one near the 200 m edge,
  makes the zero-forcing Gram singular and `evaluate_pose` turns the whole
  row into NaN.
- analytic: `risplan validate` at its default draws, then a closed-form
  against Monte-Carlo comparison at one fixed full-scale layout over a
  0-30 dBm sweep.  Channel draws and the closed-form chain dominate;
  placement and phase optimisation stay idle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import replace

import numpy as np

from risplan import channel, cli, harness, rate
from risplan.errors import RisPlanError
from risplan.geometry import RisPose, UserLocation

SWEEP_POWERS_DBM = (20.0, 30.0)

# Criterion 3 of tests/test_acceptance.py, copied unchanged.
TIGHTNESS_REL_GAP = 0.15
LOWER_BOUND_SLACK = 1e-12


class Workload:
    """One benchmark workload; subclasses define the document and the work."""

    name = ""

    def document(self, seed: int) -> str:
        """The config document of the inputs made from `seed`."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def run(self, seed: int, next_row=None):
        """The timed work on the inputs made from `seed`.  `next_row`, when
        given, is called before each op whose spans form their own row."""
        raise NotImplementedError

    def check(self, seed: int, output) -> dict:
        """{"attempted", "failed", ...} for the output of `run(seed)`."""
        raise NotImplementedError


class Sweep(Workload):
    """A `risplan sweep`: parse_config, run_experiment, emit_csv."""

    def run(self, seed: int, next_row=None):
        # Rows start at the placement spans themselves.
        spec = harness.parse_config(self.document(seed))
        rows = harness.run_experiment(spec)
        if next_row:
            next_row()  # the CSV emission belongs to no single row
        buffer = io.StringIO()
        harness.emit_csv(rows, buffer)
        return spec, rows, buffer.getvalue()

    def check(self, seed: int, output) -> dict:
        spec, rows, text = output
        expected = len(self.methods) * len(SWEEP_POWERS_DBM)
        geom = spec.geom
        bad = 0
        for row in rows:
            stats_ok = all(math.isfinite(x) and x >= 0.0
                           for x in (row.sum_rate_bps_hz, row.std_error))
            pose_ok = (geom.r_min <= row.d0 <= geom.r_max
                       and geom.h_min <= row.h0 <= geom.h_max
                       and 0.0 <= row.phi0 < 2.0 * math.pi
                       and 0.0 <= row.phiR < 2.0 * math.pi)
            bad += not (stats_ok and pose_ok)
        buffer = io.StringIO()
        try:
            harness.emit_csv(harness.rows_from_csv(text), buffer)
        except RisPlanError:
            pass
        round_trip = buffer.getvalue() == text
        layout_ok = ([(r.method, r.sweep_value) for r in rows]
                     == [(m, v) for v in SWEEP_POWERS_DBM for m in self.methods])
        failed = expected if not (round_trip and layout_ok) else bad
        return {"attempted": expected, "failed": failed, "csv_round_trip": round_trip,
                "csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


class DeskSweep(Sweep):
    name = "desk_sweep"
    methods = ("heuristic", "exhaustive", "sgd", "random", "one_sample")
    trials = 40
    sgd_iters = 100

    def document(self, seed: int) -> str:
        cfg, geom = harness.scaled_ris_config()
        return "\n".join([
            "[system]",
            f"nt = {cfg.nt}", f"nr_x = {cfg.nr_x}", f"nr_y = {cfg.nr_y}",
            f"subcarriers = {cfg.m}", f"users = {cfg.k}",
            f"fc_hz = {cfg.fc!r}", f"bandwidth_hz = {cfg.bandwidth!r}",
            f"pmax_dbm = {harness.watt_to_dbm(cfg.pmax)!r}",
            f"noise_dbm = {harness.watt_to_dbm(cfg.sigma2)!r}",
            f"c0 = {cfg.c0!r}",
            "[geometry]",
            f"cell_radius = {geom.r!r}", f"bs_height = {geom.h_b!r}",
            f"user_height = {geom.h_u!r}",
            f"ris_distance_min = {geom.r_min!r}", f"ris_distance_max = {geom.r_max!r}",
            f"ris_height_min = {geom.h_min!r}", f"ris_height_max = {geom.h_max!r}",
            "[scenario]",
            "kind = one_hotspot",
            "[sweep]",
            "variable = power_dbm",
            "values = " + ", ".join(repr(v) for v in SWEEP_POWERS_DBM),
            "[run]",
            "methods = " + ", ".join(self.methods),
            f"trials = {self.trials}", f"seed = {seed}", f"sgd_iters = {self.sgd_iters}",
            "",
        ])

    def sizes(self) -> dict:
        return {"cell": "scaled_ris_config", "scenario": "one_hotspot",
                "methods": list(self.methods), "sweep_variable": "power_dbm",
                "sweep_values": list(SWEEP_POWERS_DBM), "trials": self.trials,
                "sgd_iters": self.sgd_iters}


class FullSweep(Sweep):
    name = "full_sweep"
    scenario = "multi_hotspot"
    methods = ("heuristic", "random")
    trials = 30

    def document(self, seed: int) -> str:
        return "\n".join([
            "[scenario]",
            f"kind = {self.scenario}",
            "[sweep]",
            "variable = power_dbm",
            "values = " + ", ".join(repr(v) for v in SWEEP_POWERS_DBM),
            "[run]",
            "methods = " + ", ".join(self.methods),
            f"trials = {self.trials}", f"seed = {seed}",
            "",
        ])

    def sizes(self) -> dict:
        return {"cell": "parser defaults (full scale)", "scenario": self.scenario,
                "methods": list(self.methods), "sweep_variable": "power_dbm",
                "sweep_values": list(SWEEP_POWERS_DBM), "trials": self.trials}


class Analytic(Workload):
    name = "analytic"
    powers_dbm = tuple(float(p) for p in np.linspace(0.0, 30.0, 7))
    mc_trials = 20
    users = (UserLocation(40.0, 0.5), UserLocation(70.0, 2.2),
             UserLocation(55.0, -1.8), UserLocation(90.0, 1.0))
    pose = RisPose(d0=25.0, phi0=0.4, h0=6.0, phiR=0.9)

    def document(self, seed: int) -> str:
        return f"[run]\nseed = {seed}\n"

    def sizes(self) -> dict:
        return {"cell": "parser defaults (full scale)", "validate_draws": "cli default",
                "tightness_powers_dbm": list(self.powers_dbm),
                "tightness_mc_trials": self.mc_trials, "tightness_users": len(self.users)}

    def run(self, seed: int, next_row=None):
        next_row = next_row or (lambda: None)
        spec = harness.parse_config(self.document(seed))
        log = io.StringIO()
        next_row()
        with contextlib.redirect_stdout(log):
            code = cli.main(["validate", "--seed", str(seed)])
        cfg, geom = spec.cfg, spec.geom
        theta = np.ones(cfg.nr, dtype=complex)
        users = list(self.users)
        los = channel.precompute_los(cfg, geom, self.pose, users)
        points = []
        for idx, p_dbm in enumerate(self.powers_dbm):
            next_row()
            cfg_p = replace(cfg, pmax=harness.dbm_to_watt(p_dbm))
            rng = np.random.default_rng([seed, idx])
            mc = rate.monte_carlo_sum_rate(cfg_p, geom, self.pose, users, theta,
                                           self.mc_trials, rng, los=los)
            ctx = rate.build_closed_form_context(cfg_p, geom, self.pose, users, theta, los=los)
            alpha = cfg_p.k * cfg_p.sigma2 / cfg_p.pmax
            approx = [[rate.approx_rate(k, m, ctx, cfg_p) for m in range(cfg_p.m)]
                      for k in range(cfg_p.k)]
            lower = [rate.lower_bound_rate(k, ctx, cfg_p) for k in range(cfg_p.k)]
            mmse = [rate.mmse_closed_form_rate(k, m, ctx, cfg_p, alpha)
                    for k in range(cfg_p.k) for m in range(cfg_p.m)]
            points.append((mc.sum_rate, approx, lower, mmse))
        return code, log.getvalue(), points

    def check(self, seed: int, output) -> dict:
        code, log, points = output
        verdicts = re.findall(r"^([\w-]+): (PASS|FAIL) ", log, flags=re.MULTILINE)
        oracle_fails = sum(v == "FAIL" for _, v in verdicts)
        failed = oracle_fails
        if code != (1 if oracle_fails else 0):
            failed = len(verdicts) or 1
        worst_gap = 0.0
        for mc_rate, approx, lower, mmse in points:
            flat = [v for per_user in approx for v in per_user]
            finite = all(math.isfinite(v) for v in flat + lower + mmse + [mc_rate])
            bound_ok = all(v >= lb - LOWER_BOUND_SLACK for per_user, lb in zip(approx, lower)
                           for v in per_user)
            gap = abs(mc_rate - math.fsum(flat)) / mc_rate if mc_rate > 0.0 else math.inf
            worst_gap = max(worst_gap, gap)
            failed += not (finite and bound_ok and gap <= TIGHTNESS_REL_GAP)
        return {"attempted": max(len(verdicts), 1) + len(points), "failed": failed,
                "oracles": dict(verdicts), "validate_exit": code,
                "worst_tightness_gap": worst_gap}


WORKLOADS = {w.name: w for w in (DeskSweep(), FullSweep(), Analytic())}
