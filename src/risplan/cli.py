"""Command-line front end: deploy, sweep, validate, phase-opt."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .channel import precompute_los, sample_channel_realization
from .deployment import AZIMUTH_TOLERANCE, azimuth_gap, sample_location_arrays
from .errors import ParseError, RisPlanError, ValidationError
from .geometry import RisPose, UserLocation
from .harness import (METHODS, emit_csv, numerical_faults, parse_config, run_experiment,
                      scaled_config, write_table)
from .phase import optimize_phases
from .rate import covariance_entry, empirical_covariance_diagonal, rank_one_inverse_error


def _load_spec(path):
    if path is None:
        return parse_config("")
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _cmd_deploy(args) -> int:
    spec = _load_spec(args.config)
    seed = args.seed if args.seed is not None else spec.seed
    rng = np.random.default_rng([seed, 0, 0])
    result = METHODS[args.method](spec.dist, spec.settings, spec.geom, spec.cfg, rng)
    pose = result.pose
    print(f"method={args.method} iterations={result.iterations}")
    print(f"d0={pose.d0:.6g} phi0={pose.phi0:.6g} h0={pose.h0:.6g} phiR={pose.phiR:.6g}")
    if args.out:
        trace = result.objective_trace
        write_table("iteration,objective,served_count",
                    zip(range(1, len(trace) + 1), trace, result.served_count_trace, strict=True),
                    args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    emit_csv(run_experiment(spec), args.out or sys.stdout)
    return 0


def _check(name: str, passed: bool, detail: str, failures: list) -> None:
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    if not passed:
        failures.append(name)


def _cmd_validate(args) -> int:
    failures = []
    rng = np.random.default_rng(args.seed if args.seed is not None else 7)
    cfg, geom = scaled_config()

    # Covariance oracle: closed-form diagonal against the empirical mean of
    # the effective channel's squared norm.
    users = [UserLocation(40.0, 0.0), UserLocation(60.0, 2.0), UserLocation(50.0, -2.0)]
    pose = RisPose(d0=10.0, phi0=0.0, h0=8.0, phiR=1.2)
    theta = np.ones(cfg.nr, dtype=complex)
    draws = args.trials if args.trials is not None else 20000
    los = precompute_los(cfg, geom, pose, users)
    acc = empirical_covariance_diagonal(cfg, los, theta, draws, rng)
    worst = 0.0
    for i in range(len(users)):
        ref = covariance_entry(i, i, 0, cfg, los, theta).real
        worst = max(worst, abs(acc[i] - ref) / ref)
    _check("covariance-diagonal", worst < 0.02, f"max rel err {worst:.4f} over {draws} draws", failures)

    # Rank-one inverse oracle: the scalar formula against dense inversion.
    worst = rank_one_inverse_error(rng)
    _check("rank-one-inverse", worst < 1e-10, f"max abs err {worst:.2e}", failures)

    # Azimuth oracle: closed form against the objective's own derivatives.
    worst = azimuth_gap(geom, rng)
    _check("azimuth-closed-form", worst <= AZIMUTH_TOLERANCE + 1e-12,
           f"max angle gap {worst:.2e} rad", failures)

    return 1 if failures else 0


def _cmd_phase_opt(args) -> int:
    spec = _load_spec(args.config)
    seed = args.seed if args.seed is not None else spec.seed
    rng = np.random.default_rng([seed, 99])
    d, phi = sample_location_arrays(spec.dist, spec.cfg.k, rng)
    # across the BS from the first user, so the panel can serve it
    pose = RisPose(d0=spec.geom.r_min, phi0=float(phi[0]) + np.pi, h0=spec.geom.h_max, phiR=1.0)
    los = precompute_los(spec.cfg, spec.geom, pose, (d, phi))
    real = sample_channel_realization(spec.cfg, los, [rng])
    result = optimize_phases(real, spec.cfg, max_iters=50, tol=1e-8)[0]
    write_table("iteration,objective", enumerate(result.objective_trace, start=1),
                args.out or sys.stdout)
    return 0


# Flags shared by the subcommands, each declared once.
_FLAGS = {
    "--config": {},
    "--seed": {"type": int},
    "--out": {},
    "--trials": {"type": int},
    "--method": {"default": "heuristic", "choices": sorted(METHODS)},
}

# Subcommands: name, handler, help line, flags in --help order.
_COMMANDS = (
    ("deploy", _cmd_deploy, "optimize one scenario, print the pose",
     ("--config", "--seed", "--out", "--method")),
    ("sweep", _cmd_sweep, "run a full experiment sweep to CSV",
     ("--config", "--seed", "--out", "--trials")),
    ("validate", _cmd_validate, "run the numeric oracle checks", ("--seed", "--trials")),
    ("phase-opt", _cmd_phase_opt, "trace one phase optimization run",
     ("--config", "--seed", "--out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risplan",
        description="Place a reflecting panel in a wideband mmWave cell for long-term sum-rate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_line, flags in _COMMANDS:
        command = sub.add_parser(name, help=help_line)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(func=func)
    return parser


def _check_args(args) -> None:
    """Reject flag values no subcommand can use: a negative seed (numpy
    seeds are nonnegative) and fewer than one trial."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {trials}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        with numerical_faults():
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except RisPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
