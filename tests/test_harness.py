import contextlib
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from risplan import (
    ParseError,
    ResultRow,
    ValidationError,
    emit_config,
    emit_csv,
    parse_config,
    rows_from_csv,
    run_experiment,
)
from risplan import cli, deployment, rate
from risplan.cli import main as cli_main
from risplan.harness import (_SCHEMA, CSV_HEADER, METHODS, _apply_sweep, _run_row,
                             dbm_to_watt, watt_to_dbm)

SMALL_CONFIG = """
[system]
nt = 16
nr_x = 2
nr_y = 2
subcarriers = 2
users = 2
c0 = 0.01

[geometry]
cell_radius = 100
ris_distance_max = 30

[scenario]
kind = one_hotspot

[sweep]
variable = power_dbm
values = 10, 30

[run]
methods = heuristic, random
trials = 3
seed = 1
samples = 50
"""


def test_dbm_round_trip():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(-104.0) == pytest.approx(10 ** -10.4 * 1e-3)
    assert watt_to_dbm(dbm_to_watt(17.0)) == pytest.approx(17.0)


def test_empty_document_gives_full_scale_defaults():
    spec = parse_config("")
    assert spec.cfg.nt == 128
    assert spec.cfg.nr == 100
    assert spec.cfg.m == 16
    assert spec.cfg.k == 4
    assert spec.cfg.fc == 28e9
    assert spec.cfg.bandwidth == 4e9
    assert spec.cfg.pmax == pytest.approx(1.0)
    assert spec.cfg.sigma2 == pytest.approx(10 ** -10.4 * 1e-3)
    assert spec.cfg.k0 == 15.0 and spec.cfg.k1 == 10.0 and spec.cfg.k2 == 15.0
    assert spec.geom.r == 200.0
    assert spec.geom.h_b == 10.0
    assert spec.geom.h_u == 1.5
    assert spec.dist.kind == "uniform_disc"


def test_invariant_violation_reported():
    with pytest.raises(ValidationError):
        parse_config("[system]\nnt = 2\nusers = 4\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("[system]\nnt = 16\nbogus_key = 1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_config("[no_such_section]\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_config("nt = 16\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_config("[system]\nnt = sixteen\n")
    assert err.value.line == 2


def test_config_round_trip():
    spec = parse_config(SMALL_CONFIG)
    assert parse_config(emit_config(spec)) == spec
    # defaults round-trip as well
    spec_default = parse_config("")
    assert parse_config(emit_config(spec_default)) == spec_default


def test_unknown_method_rejected():
    with pytest.raises(ValidationError):
        parse_config("[run]\nmethods = heuristic, annealing\n")


def test_empty_method_list_rejected(tmp_path, capsys):
    with pytest.raises(ValidationError, match="need at least one method"):
        parse_config("[run]\nmethods =\n")
    config = tmp_path / "none.cfg"
    config.write_text("[run]\nmethods =\n")
    assert cli_main(["sweep", "--config", str(config)]) == 2
    assert "invalid configuration: need at least one method" in capsys.readouterr().err


def test_run_experiment_single_row():
    spec = parse_config(SMALL_CONFIG.replace("values = 10, 30", "values = 25")
                        .replace("methods = heuristic, random", "methods = random"))
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].method == "random"
    assert rows[0].sweep_value == 25.0
    assert rows[0].sum_rate_bps_hz >= 0.0


def test_run_experiment_deterministic_csv():
    spec = parse_config(SMALL_CONFIG)
    out1, out2 = io.StringIO(), io.StringIO()
    emit_csv(run_experiment(spec), out1)
    emit_csv(run_experiment(spec), out2)
    assert out1.getvalue() == out2.getvalue()


def test_run_experiment_order_and_power_monotone():
    spec = parse_config(SMALL_CONFIG)
    rows = run_experiment(spec)
    assert [r.sweep_value for r in rows] == [10.0, 10.0, 30.0, 30.0]
    assert [r.method for r in rows] == ["heuristic", "random", "heuristic", "random"]
    by_method = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row.sum_rate_bps_hz)
    for rates in by_method.values():
        assert rates[1] >= rates[0]


def test_sweep_override_pins_pose_parameter():
    spec = parse_config(SMALL_CONFIG
                        .replace("variable = power_dbm", "variable = d0")
                        .replace("values = 10, 30", "values = 12, 24")
                        .replace("methods = heuristic, random", "methods = heuristic"))
    rows = run_experiment(spec)
    assert [r.d0 for r in rows] == [12.0, 24.0]


def test_sweep_invalid_value_marks_failed_rows():
    # a non-square panel count cannot be mapped to a grid; the row is marked
    # rather than aborting the sweep
    spec = parse_config(SMALL_CONFIG
                        .replace("variable = power_dbm", "variable = nr")
                        .replace("values = 10, 30", "values = 15")
                        .replace("methods = heuristic, random", "methods = random"))
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert math.isnan(rows[0].sum_rate_bps_hz)


def _count_sweep(variable, value):
    return parse_config(SMALL_CONFIG
                        .replace("variable = power_dbm", f"variable = {variable}")
                        .replace("values = 10, 30", f"values = {value!r}")
                        .replace("methods = heuristic, random", "methods = random"))


@pytest.mark.parametrize("variable, value, message", [
    ("users", 2.7, "whole numbers"), ("nr", 16.5, "whole numbers"),
    ("nt", 12.5, "whole numbers"), ("samples", 20.5, "whole numbers"),
    ("nr", -4.0, "perfect squares"),
])
def test_sweep_count_that_is_not_a_whole_number_marks_failed_rows(variable, value, message):
    # A count is never truncated: users = 2.7 would run two users in a row
    # labelled 2.7.  A negative panel count is no perfect square.
    spec = _count_sweep(variable, value)
    with pytest.raises(ValidationError, match=message):
        _apply_sweep(spec, value)
    (row,) = run_experiment(spec)
    assert row.sweep_value == value and math.isnan(row.sum_rate_bps_hz)


def test_sweep_count_given_as_a_whole_float_runs():
    (row,) = run_experiment(_count_sweep("users", 3.0))
    assert row.sweep_value == 3.0 and math.isfinite(row.sum_rate_bps_hz)


def test_custom_centers_parse_and_round_trip():
    text = SMALL_CONFIG.replace(
        "kind = one_hotspot",
        "kind = custom_centers\ncenters = 40:0.5, 60:2.25")
    spec = parse_config(text)
    assert spec.dist.centers == ((40.0, 0.5), (60.0, 2.25))
    assert parse_config(emit_config(spec)) == spec


def test_emit_csv_schema_and_round_trip(tmp_path):
    row = ResultRow(method="heuristic", sweep_variable="power_dbm", sweep_value=25.0,
                    sum_rate_bps_hz=12.345678901, std_error=0.25, iterations=3,
                    d0=10.0, phi0=0.7853981633974483, h0=5.5, phiR=1.178097245,
                    seed=7)
    out = io.StringIO()
    emit_csv([row], out)
    text = out.getvalue()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert len(lines[1].split(",")) == 11
    assert text.endswith("\n") and "\r" not in text
    parsed = rows_from_csv(text)
    assert len(parsed) == 1
    # 9 significant digits survive the round trip
    assert parsed[0].sum_rate_bps_hz == pytest.approx(row.sum_rate_bps_hz, rel=1e-8)
    assert parsed[0].method == row.method
    assert parsed[0].iterations == row.iterations

    target = tmp_path / "rows.csv"
    emit_csv([row], str(target))
    assert rows_from_csv(target.read_text())[0].seed == 7


def test_emit_csv_requires_rows():
    with pytest.raises(ValidationError):
        emit_csv([], io.StringIO())


def test_rows_from_csv_rejects_bad_header():
    with pytest.raises(ParseError):
        rows_from_csv("not,a,header\n1,2,3\n")


def test_cli_validate_passes(capsys):
    assert cli_main(["validate", "--trials", "2000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


VALIDATE_STDOUT = {
    0: "covariance-diagonal: PASS (max rel err 0.0004 over 20000 draws)\n"
       "rank-one-inverse: PASS (max abs err 4.44e-16)\n"
       "azimuth-closed-form: PASS (max angle gap 1.22e-14 rad)\n",
    3: "covariance-diagonal: PASS (max rel err 0.0011 over 20000 draws)\n"
       "rank-one-inverse: PASS (max abs err 5.55e-16)\n"
       "azimuth-closed-form: PASS (max angle gap 2.78e-15 rad)\n",
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_STDOUT))
def test_cli_validate_output_is_pinned(seed, capsys):
    # The oracles' draws and scans at the default 20,000 draws print these bytes.
    assert cli_main(["validate", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == VALIDATE_STDOUT[seed]


@pytest.mark.parametrize("module, name, corrupt, check", [
    (cli, "covariance_entry", lambda v: 1.05 * v, "covariance-diagonal"),
    (rate, "sigma_hat_inv_entry", lambda v: v + 1e-6, "rank-one-inverse"),
    (deployment, "optimize_azimuth", lambda v: v + 2e-4, "azimuth-closed-form"),
    # a sign error in a2 mirrors the closed form's azimuth
    (deployment, "optimize_azimuth", lambda v: -v, "azimuth-closed-form"),
])
def test_cli_validate_fails_a_corrupted_checked_function(module, name, corrupt, check,
                                                         monkeypatch, capsys):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: corrupt(original(*args, **kwargs)))
    assert cli_main(["validate", "--trials", "2000"]) == 1
    out = capsys.readouterr().out
    assert f"{check}: FAIL" in out and out.count("PASS") == 2


def test_cli_deploy_and_sweep(tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    trace = tmp_path / "trace.csv"
    assert cli_main(["deploy", "--config", str(config), "--out", str(trace)]) == 0
    assert trace.read_text().startswith("iteration,objective,served_count")
    out_csv = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 0
    rows = rows_from_csv(out_csv.read_text())
    assert len(rows) == 4


@pytest.mark.parametrize("c0", ["1e5", "1e20"])
def test_cli_sweep_with_a_large_reflected_gain_has_finite_rows(c0, tmp_path):
    # The placement certificate holds for every c0 >= 0, so a strong panel
    # gives finite heuristic rows rather than NaN ones.
    config = tmp_path / "strong.cfg"
    config.write_text(SMALL_CONFIG.replace("c0 = 0.01", f"c0 = {c0}"))
    out_csv = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 0
    rows = [row for row in rows_from_csv(out_csv.read_text()) if row.method == "heuristic"]
    assert len(rows) == 2
    assert all(math.isfinite(value) for row in rows for value in
               (row.sum_rate_bps_hz, row.std_error, row.d0, row.phi0, row.h0, row.phiR))


# A served user's Gram at c0 = 1e100 overflows zf_precoder's Frobenius bound.
OVERFLOW_CONFIG = SMALL_CONFIG.replace("c0 = 0.01", "c0 = 1e100")


def test_floating_point_fault_gives_a_nan_row():
    rows = [row for row in run_experiment(parse_config(OVERFLOW_CONFIG))
            if row.method == "heuristic"]
    assert len(rows) == 2 and all(math.isnan(row.sum_rate_bps_hz) for row in rows)


def test_floating_point_fault_on_a_pool_thread_gives_a_nan_row():
    # numpy's error state is per thread, so a row run on a worker sets its own
    with ThreadPoolExecutor(1) as pool:
        row = pool.submit(_run_row, parse_config(OVERFLOW_CONFIG), 0, 10.0, 0, "heuristic").result()
    assert row.method == "heuristic" and math.isnan(row.sum_rate_bps_hz)


def test_cli_floating_point_fault_is_an_error(tmp_path, capsys):
    config = tmp_path / "overflow.cfg"
    config.write_text(OVERFLOW_CONFIG)
    assert cli_main(["phase-opt", "--config", str(config), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: floating-point fault: overflow")


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nnonsense = 12\n")
    assert cli_main(["sweep", "--config", str(bad)]) == 2


def test_cli_phase_opt(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / "phase.csv"
    assert cli_main(["phase-opt", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) >= 2


def test_cli_missing_config_is_a_clear_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli_main(["sweep", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "nope.cfg" in err
    assert "Traceback" not in err
    # a directory is unreadable as a config document too
    assert cli_main(["deploy", "--config", str(tmp_path)]) == 2


def test_cli_duplicate_key_is_a_parse_error(tmp_path, capsys):
    doubled = tmp_path / "doubled.cfg"
    doubled.write_text("[run]\ntrials = 5\n\n[system]\nnt = 16\n[run]\ntrials = 9\n")
    assert cli_main(["sweep", "--config", str(doubled)]) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "duplicate key 'trials' in [run]" in err
    # a section may reopen as long as no key repeats
    spec = parse_config("[run]\ntrials = 5\n[system]\nnt = 16\n[run]\nseed = 3\n")
    assert spec.trials == 5 and spec.seed == 3


@pytest.mark.parametrize("command", ["deploy", "sweep", "validate", "phase-opt"])
def test_cli_negative_seed_is_a_clear_error(command, tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    argv = [command, "--seed", "-1"]
    if command != "validate":
        argv += ["--config", str(config)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "--seed must be nonnegative, got -1" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def test_config_negative_seed_is_a_clear_error(tmp_path, capsys):
    config = tmp_path / "negative.cfg"
    config.write_text(SMALL_CONFIG.replace("seed = 1", "seed = -3"))
    for command in ("deploy", "sweep", "phase-opt"):
        assert cli_main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "seed must be nonnegative, got -3" in err and "Traceback" not in err
    with pytest.raises(ValidationError):
        parse_config("[run]\nseed = -3\n")


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_cli_needs_at_least_one_trial(command, trials, tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    argv = [command, "--trials", trials]
    if command != "validate":
        argv += ["--config", str(config)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert f"--trials must be at least 1, got {trials}" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("command", ["deploy", "sweep", "phase-opt"])
def test_cli_unwritable_output_is_a_clear_error(command, tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG.replace("trials = 3", "trials = 1"))
    out = tmp_path / "missing_dir" / "out.csv"
    assert cli_main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing_dir" in err and "Traceback" not in err
    assert not out.exists()


# Carriers below c / 4 pi put the 1 m reference point in the near field
# (c1 > 1): at 1e-100 Hz c1 * c1 overflows, and at 1e-69 Hz the placement
# objective does.
BIG_GAIN = "fc_hz = 1e-100\nbandwidth_hz = 0"
NEAR_FIELD = "fc_hz = 1e-69\nbandwidth_hz = 0"
# Two subcarriers 3 GHz apart around 1 GHz: the lower one sits at -0.5 GHz.
NEGATIVE_SUBCARRIER = "fc_hz = 1e9\nbandwidth_hz = 6e9"


@pytest.mark.parametrize("section,line", [
    ("system", "fc_hz = 0"),
    ("system", "fc_hz = 1e-300"),  # the wavelength, hence c1 and c0, overflow to inf
    ("system", BIG_GAIN),
    ("system", NEAR_FIELD),
    ("system", NEGATIVE_SUBCARRIER),
    ("system", "bandwidth_hz = -1e9"),
    ("system", "c0 = -1"),
    ("system", "alpha_ris_user = -1"),
    ("scenario", "hotspot_radius = -5"),
    ("scenario", "centers = -50:0.3"),  # would sit at 50 m on the opposite azimuth
    ("run", "sgd_iters = -3"),
])
def test_cli_out_of_range_config_value_is_a_clear_error(section, line, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    text = SMALL_CONFIG.replace("c0 = 0.01\n", "")
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert cli_main(["sweep", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line", [BIG_GAIN, NEAR_FIELD, NEGATIVE_SUBCARRIER])
def test_cli_phase_opt_rejects_an_unusable_carrier(line, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    text = SMALL_CONFIG.replace("c0 = 0.01\n", "")
    config.write_text(text.replace("[system]\n", f"[system]\n{line}\n"))
    assert cli_main(["phase-opt", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration: ") and "Traceback" not in captured.err
    assert captured.out == ""


# Runs in a fresh interpreter, because this process has scipy loaded already.
_NO_SCIPY_CHILD = """\
import contextlib, io, sys
import risplan, risplan.cli, risplan.harness
with contextlib.redirect_stdout(io.StringIO()):
    assert risplan.cli.main(["sweep", "--config", sys.argv[1]]) == 0
    assert risplan.cli.main(["validate", "--trials", "200"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    config = tmp_path / "desk.cfg"
    text = SMALL_CONFIG.replace("methods = heuristic, random", "methods = " + ", ".join(METHODS))
    config.write_text(text.replace("trials = 3", "trials = 1"))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(config)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# Former [run] keys: a switch for an all-sample height and azimuth objective,
# and five placement settings that are now constants of risplan.deployment.
@pytest.mark.parametrize("key", ["unweighted_distance_sum", "orientation_grid",
                                 "max_outer_iters", "tol", "sgd_step_d0", "sgd_step_h0"])
def test_removed_run_key_is_unknown(key, tmp_path, capsys):
    text = f"[run]\nseed = 1\n{key} = 1\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == 3 and f"unknown key {key!r}" in str(err.value)
    config = tmp_path / "old.cfg"
    config.write_text(text)
    assert cli_main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"parse error: line 3: unknown key {key!r} in [run]\n"


def test_readme_config_table_names_exactly_the_parser_keys():
    # Each row of the README's key table names a section (or continues the
    # one above) and one or more keys in backticks.
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().split("## Config documents", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| section"))
    named, section = [], None
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        section_cell, key_cell = (cell.strip() for cell in line.strip("|").split("|")[:2])
        section = section_cell.strip("`[]") or section
        named += [(section, key) for key in re.findall(r"`([^`]+)`", key_cell)]
    assert len(named) == len(set(named))
    assert set(named) == set(_SCHEMA)


def _csv_text(**changes):
    row = ResultRow(method="heuristic", sweep_variable="power_dbm", sweep_value=25.0,
                    sum_rate_bps_hz=12.5, std_error=0.25, iterations=3,
                    d0=10.0, phi0=0.5, h0=5.5, phiR=1.25, seed=7)
    out = io.StringIO()
    emit_csv([replace(row, **changes)], out)
    return out.getvalue()


@pytest.mark.parametrize("column,cell", [("iterations", "three"), ("d0", "ten"),
                                         ("seed", "7.5")])
def test_rows_from_csv_bad_value_is_a_parse_error(column, cell):
    header, line = _csv_text().splitlines()
    cells = line.split(",")
    cells[header.split(",").index(column)] = cell
    with pytest.raises(ParseError) as err:
        rows_from_csv(f"{header}\n{','.join(cells)}\n")
    assert err.value.line == 2 and repr(cell) in str(err.value)


def test_rows_from_csv_numbers_physical_lines():
    header, line = _csv_text().splitlines()
    # blank lines are skipped, but they still count toward line numbers
    assert len(rows_from_csv(f"{header}\n\n{line}\n\n")) == 1
    with pytest.raises(ParseError) as err:
        rows_from_csv(f"{header}\n{line}\n\n{line},extra\n")
    assert err.value.line == 4 and "expected 11 columns, got 12" in str(err.value)


@pytest.mark.parametrize("section,line", [
    ("system", "fc_hz = nan"),
    ("system", "pmax_dbm = nan"),
    ("system", "noise_dbm = inf"),
    ("geometry", "cell_radius = inf"),
    ("scenario", "hotspot_radius = nan"),
    ("sweep", "values = 10, nan"),
    ("scenario", "centers = 40:-inf"),
])
def test_cli_non_finite_config_value_is_a_parse_error(section, line, tmp_path, capsys):
    text = SMALL_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    if section == "sweep":
        text = text.replace("values = 10, 30\n", "")
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    line_no = text.splitlines().index(line) + 1
    assert cli_main(["sweep", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    key, raw = (part.strip() for part in line.split("="))
    assert captured.err == f"parse error: line {line_no}: {key} must be finite, got {raw!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("method", sorted(METHODS))
def test_cli_deploy_trace_has_one_line_per_objective_value(method, tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG.replace("samples = 50", "samples = 50\nsgd_iters = 7"))
    trace = tmp_path / "trace.csv"
    argv = ["deploy", "--config", str(config), "--method", method, "--out", str(trace)]
    assert cli_main(argv) == 0
    iterations = int(capsys.readouterr().out.split("iterations=")[1].split()[0])
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,objective,served_count"
    # sgd traces its start pose and each of its iterations; random traces nothing
    expected = {"sgd": iterations + 1, "random": 0}.get(method, iterations)
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, expected + 1))
    for line in lines[1:]:
        _, objective, served = line.split(",")
        assert math.isfinite(float(objective)) and 0 <= int(served) <= 50


def test_cli_deploy_rejects_an_unknown_method(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["deploy", "--method", "annealing"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'annealing'" in captured.err
    assert all(f"'{method}'" in captured.err for method in METHODS)


def test_cli_deploy_help_lists_the_methods(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["deploy", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(sorted(METHODS)) + "}" in capsys.readouterr().out


# sha256 of the --out file of each command on SMALL_CONFIG at its seed.
CLI_TRACE_SHA256 = {
    ("phase-opt",): "82beef82a61d6dc0ed35b2545bd141b32502275fbef9d9321e03ab4e7e4d89d0",
    ("deploy", "--method", "heuristic"):
        "150ee683af1bf7ad2f66dae4eb7daad7a30b8326112f4188f19511c04656d59a",
    ("deploy", "--method", "exhaustive"):
        "953e0a46ab36a3970854169bb75e19b01d4647a8657020b833ea64bf478295e5",
    ("deploy", "--method", "sgd"):
        "27bec8814f9f8f12c2135056c5c00487057b44ca174ae4ba1f6ad845c4fb42d6",
}


@pytest.mark.parametrize("command", sorted(CLI_TRACE_SHA256), ids=" ".join)
def test_cli_trace_bytes_are_pinned(command, tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / "trace.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main([*command, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_TRACE_SHA256[command]
