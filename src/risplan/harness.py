"""Experiment orchestration: config documents, seeded sweeps, CSV output.

All dBm-to-watt conversion happens here; the library below works in linear
watts.  Every row of a sweep derives its random streams from (master seed,
method index, sweep index, trial index), so output bytes depend only on the
config document and the seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import (SystemConfig, draw_buffers, pose_los, precompute_los,
                      sample_channel_realization)
from .deployment import (
    OptimizerSettings,
    UserDistribution,
    exhaustive_deploy,
    heuristic_deploy,
    one_sample_deploy,
    random_deploy,
    sample_location_arrays,
    sgd_deploy,
)
from .errors import IoError, NumericalFault, ParseError, RisPlanError, ValidationError
from .geometry import CellGeometry, RisPose
from .phase import optimize_phases

# Placement methods by name, called as (dist, settings, geom, cfg, rng).  Each
# entry looks its deploy function up in this module when called, not at import,
# so a wrapper later bound over the module attribute (a tracer, a test's
# monkeypatch) is the one that runs.
METHODS = {
    "heuristic": lambda *args: heuristic_deploy(*args),
    "exhaustive": lambda *args: exhaustive_deploy(*args),
    "sgd": lambda *args: sgd_deploy(*args),
    "random": lambda dist, settings, geom, cfg, rng: random_deploy(geom, rng),
    "one_sample": lambda *args: one_sample_deploy(*args),
}

# Phase optimisation per channel draw: iteration cap and relative tolerance.
_PHASE_ITERS = 8
_PHASE_TOL = 1e-3

# Complex elements of the stacked BS-RIS draw per chunk of evaluation
# trials: 8 desk-scale trials (2,048 elements a draw) or one full-scale
# trial (204,800).  Bounds the stacked draws and phase-step temporaries
# whatever the array sizes.  A sweep whose one draw fills a chunk runs its
# rows on one thread per usable core: their time goes to generating normals
# and to large array operations, which release the interpreter lock.
# Smaller draws leave a row bound by Python overhead, which threads would
# only contend for.
_CHUNK_ELEMENTS = 2 ** 14

SWEEP_VARIABLES = ("power_dbm", "nr", "nt", "users", "d0", "phiR", "samples")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watt_to_dbm(watt: float) -> float:
    return 10.0 * math.log10(watt * 1e3)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully-resolved description of one sweep run."""

    cfg: SystemConfig
    geom: CellGeometry
    dist: UserDistribution
    settings: OptimizerSettings
    methods: tuple
    sweep_variable: str
    sweep_values: tuple
    trials: int
    seed: int
    pmax_dbm: float
    noise_dbm: float

    def __post_init__(self):
        if not self.sweep_values:
            raise ValidationError("sweep needs at least one value")
        if not self.methods:
            raise ValidationError("need at least one method")
        if self.trials < 1:
            raise ValidationError("need at least one trial")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        for method in self.methods:
            if method not in METHODS:
                raise ValidationError(f"unknown method {method!r}")
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValidationError(f"unknown sweep variable {self.sweep_variable!r}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    sweep_variable: str
    sweep_value: float
    sum_rate_bps_hz: float
    std_error: float
    iterations: int
    d0: float
    phi0: float
    h0: float
    phiR: float
    seed: int


# The sweep CSV's columns are ResultRow's fields, in order; each cell is
# converted to and parsed from its column's declared type.
_COLUMNS = fields(ResultRow)
_CELL_TYPES = {"float": float, "int": int, "str": str}
CSV_HEADER = ",".join(column.name for column in _COLUMNS)


# The config schema in document order: (section, key) -> (part, field, type).
# The part names the ExperimentSpec attribute the value lands in ("spec" for
# the spec's own fields).  An omitted key takes its dataclass's default,
# except the keys in _DOC_DEFAULTS, whose fields have none.
_SCHEMA = {
    ("system", "nt"): ("cfg", "nt", "int"),
    ("system", "nr_x"): ("cfg", "nr_x", "int"),
    ("system", "nr_y"): ("cfg", "nr_y", "int"),
    ("system", "subcarriers"): ("cfg", "m", "int"),
    ("system", "users"): ("cfg", "k", "int"),
    ("system", "fc_hz"): ("cfg", "fc", "float"),
    ("system", "bandwidth_hz"): ("cfg", "bandwidth", "float"),
    ("system", "pmax_dbm"): ("spec", "pmax_dbm", "float"),
    ("system", "noise_dbm"): ("spec", "noise_dbm", "float"),
    ("system", "rician_bs_ris"): ("cfg", "k0", "float"),
    ("system", "rician_bs_user"): ("cfg", "k1", "float"),
    ("system", "rician_ris_user"): ("cfg", "k2", "float"),
    ("system", "alpha_bs_ris"): ("cfg", "alpha0", "float"),
    ("system", "alpha_bs_user"): ("cfg", "alpha1", "float"),
    ("system", "alpha_ris_user"): ("cfg", "alpha2", "float"),
    ("system", "c0"): ("cfg", "c0", "float"),
    ("system", "los_only"): ("cfg", "los_only", "bool"),
    ("geometry", "cell_radius"): ("geom", "r", "float"),
    ("geometry", "bs_height"): ("geom", "h_b", "float"),
    ("geometry", "user_height"): ("geom", "h_u", "float"),
    ("geometry", "ris_distance_min"): ("geom", "r_min", "float"),
    ("geometry", "ris_distance_max"): ("geom", "r_max", "float"),
    ("geometry", "ris_height_min"): ("geom", "h_min", "float"),
    ("geometry", "ris_height_max"): ("geom", "h_max", "float"),
    ("scenario", "kind"): ("dist", "kind", "str"),
    ("scenario", "hotspot_radius"): ("dist", "hotspot_radius", "float"),
    ("scenario", "centers"): ("dist", "centers", "centers"),
    ("sweep", "variable"): ("spec", "sweep_variable", "str"),
    ("sweep", "values"): ("spec", "sweep_values", "floats"),
    ("run", "methods"): ("spec", "methods", "strs"),
    ("run", "trials"): ("spec", "trials", "int"),
    ("run", "seed"): ("spec", "seed", "int"),
    ("run", "samples"): ("settings", "t", "int"),
    ("run", "orientation_grid"): ("settings", "n_orient", "int"),
    ("run", "max_outer_iters"): ("settings", "max_outer_iters", "int"),
    ("run", "tol"): ("settings", "tol", "float"),
    ("run", "sgd_iters"): ("settings", "sgd_iters", "int"),
    ("run", "sgd_step_d0"): ("settings", "sgd_step_d0", "float"),
    ("run", "sgd_step_h0"): ("settings", "sgd_step_h0", "float"),
}

# Document defaults of the run-level keys (the full-scale run).
_DOC_DEFAULTS = {
    ("system", "pmax_dbm"): 30.0,
    ("system", "noise_dbm"): -104.0,
    ("scenario", "kind"): "uniform_disc",
    ("sweep", "variable"): "power_dbm",
    ("sweep", "values"): (30.0,),
    ("run", "methods"): ("heuristic",),
    ("run", "trials"): 100,
    ("run", "seed"): 0,
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_SCALARS = {
    "int": ("integer", int),
    "float": ("number", float),
    "bool": ("boolean", lambda raw: _BOOL_WORDS[raw.lower()]),
    "str": ("string", str),
}
_FORMATS = {
    "bool": lambda value: str(value).lower(),
    "float": repr,
    "floats": lambda value: ", ".join(map(repr, value)),
    "strs": ", ".join,
    "centers": lambda value: ", ".join(f"{dc!r}:{az!r}" for dc, az in value),
}


def _parse_value(kind: str, key: str, raw: str, line_no: int):
    if kind in _SCALARS:
        expected, convert = _SCALARS[kind]
        try:
            return convert(raw)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"expected {expected} for {key}, got {raw!r}", line_no) from exc
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if kind == "strs":
        return tuple(items)
    if kind == "floats":
        try:
            return tuple(float(piece) for piece in items)
        except ValueError as exc:
            raise ParseError(f"bad sweep value in {raw!r}", line_no) from exc
    centers = []
    for piece in items:
        try:
            dist_c, az = piece.split(":")
            centers.append((float(dist_c), float(az)))
        except ValueError as exc:
            raise ParseError(f"bad center {piece!r}, expected distance:azimuth", line_no) from exc
    return tuple(centers)


def parse_config(text: str) -> ExperimentSpec:
    """Parse a sectioned key = value document into an ExperimentSpec.

    Distances are metres, angles radians, powers dBm.  Omitted keys take the
    defaults listed in the README.  Raises ParseError with a line number for
    malformed input, including a key given twice in one section, and
    ValidationError for violated invariants.
    """
    given = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in {known for known, _ in _SCHEMA}:
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line_no)
        if section is None:
            raise ParseError("key outside any [section]", line_no)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _SCHEMA:
            raise ParseError(f"unknown key {key!r} in [{section}]", line_no)
        if (section, key) in given:
            raise ParseError(f"duplicate key {key!r} in [{section}]", line_no)
        kind = _SCHEMA[section, key][2]
        value = _parse_value(kind, key, raw_value, line_no)
        # a NaN would pass every range check, as each comparison with it is false
        if kind in ("float", "floats", "centers") and not np.all(np.isfinite(value)):
            raise ParseError(f"{key} must be finite, got {raw_value!r}", line_no)
        given[section, key] = value
    parts = {part: {} for part in ("cfg", "geom", "dist", "settings", "spec")}
    for address, value in {**_DOC_DEFAULTS, **given}.items():
        part, name, _ = _SCHEMA[address]
        parts[part][name] = value
    run = parts["spec"]
    cfg = SystemConfig(pmax=dbm_to_watt(run["pmax_dbm"]), sigma2=dbm_to_watt(run["noise_dbm"]),
                       **parts["cfg"])
    geom = CellGeometry(**parts["geom"])
    return ExperimentSpec(cfg=cfg, geom=geom, dist=UserDistribution(cell=geom, **parts["dist"]),
                          settings=OptimizerSettings(**parts["settings"]), **run)


def emit_config(spec: ExperimentSpec) -> str:
    """Serialise a spec back to the document format parse_config accepts."""
    lines = []
    for (section, key), (part, name, kind) in _SCHEMA.items():
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        value = getattr(spec if part == "spec" else getattr(spec, part), name)
        if kind != "centers" or value:
            lines.append(f"{key} = {_FORMATS.get(kind, str)(value)}")
    return "\n".join(lines[1:] + [""])


def scaled_config():
    """Desk-scale system and geometry used by the acceptance property suite.

    The placement box keeps the panel within 30 m of the BS (a feeder-range
    deployment constraint); users still fill the 100 m cell."""
    cfg = SystemConfig(nt=32, nr_x=4, nr_y=4, m=4, k=3, fc=28e9, bandwidth=4e9,
                       pmax=dbm_to_watt(30.0), sigma2=dbm_to_watt(-104.0))
    geom = CellGeometry(r=100.0, h_b=10.0, h_u=1.5, r_min=10.0, r_max=30.0,
                        h_min=1.0, h_max=10.0)
    return cfg, geom


def scaled_ris_config():
    """Scaled preset with a reflected-path reference gain (1.0, i.e. 0 dB at
    1 m) large enough for the panel to carry a meaningful share of the link
    budget; used by the deployment and phase acceptance scenarios."""
    cfg, geom = scaled_config()
    return replace(cfg, c0=1.0), geom


def scaled_distribution(kind: str, geom: CellGeometry) -> UserDistribution:
    """Scenario distributions sized for the desk-scale cell: the four-hotspot
    layout keeps its azimuths but pulls the outer ring inside the cell."""
    if kind == "multi_hotspot":
        centers = ((50.0, math.pi / 4.0), (80.0, 3.0 * math.pi / 4.0),
                   (50.0, -3.0 * math.pi / 4.0), (80.0, -math.pi / 4.0))
        return UserDistribution(kind="custom_centers", cell=geom, centers=centers)
    return UserDistribution(kind=kind, cell=geom)


def _apply_sweep(spec: ExperimentSpec, value: float):
    """Config and settings with one sweep value applied, plus the pose fields
    a geometry sweep pins."""
    cfg, settings, override = spec.cfg, spec.settings, {}
    var = spec.sweep_variable
    if var in ("nr", "nt", "users", "samples"):
        if not float(value).is_integer():
            raise ValidationError(f"{var} sweep values must be whole numbers, got {value}")
        value = int(value)
    if var == "power_dbm":
        cfg = replace(cfg, pmax=dbm_to_watt(value))
    elif var == "nr":
        side = math.isqrt(max(value, 0))
        if side * side != value:
            raise ValidationError("panel-size sweep values must be perfect squares")
        cfg = replace(cfg, nr_x=side, nr_y=side)
    elif var == "nt":
        cfg = replace(cfg, nt=value)
    elif var == "users":
        cfg = replace(cfg, k=value)
    elif var == "samples":
        settings = replace(settings, t=value)
    elif var in ("d0", "phiR"):
        override[var] = float(value)
    return cfg, settings, override


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def evaluate_pose(cfg: SystemConfig, geom: CellGeometry, dist: UserDistribution,
                  pose: RisPose, trials: int, rng_key: tuple):
    """Expected sum-rate of a pose over user draws and channel draws, with
    per-realization phase optimization.  Returns (mean sum-rate, std error).

    Trial t draws its users, then its channel, from the generator seeded
    with (*rng_key, t).  Trials run in stacked chunks: the pose's LOS terms
    and draw buffers are built once, and each chunk's users, channels and
    phase runs go through one call each.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    step = max(1, _CHUNK_ELEMENTS // (cfg.m * cfg.nt * cfg.nr))
    terms, buffers, totals = pose_los(cfg, geom, pose), None, []
    for start in range(0, trials, step):
        rngs = [np.random.default_rng([*rng_key, trial])
                for trial in range(start, min(start + step, trials))]
        users = tuple(np.array(part) for part in
                      zip(*(sample_location_arrays(dist, cfg.k, rng) for rng in rngs)))
        los = precompute_los(cfg, geom, pose, users, terms)
        buffers = buffers or draw_buffers(los, min(step, trials))
        real = sample_channel_realization(cfg, los, rngs, out=buffers)
        results = optimize_phases(real, cfg, max_iters=_PHASE_ITERS, tol=_PHASE_TOL)
        # Without quantisation the last traced value is the true ZF sum-rate
        # at the returned phases.
        totals += [result.objective_trace[-1] for result in results]
    mean = math.fsum(totals) / trials
    if trials == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in totals) / (trials - 1)
    return mean, math.sqrt(var / trials)


@contextmanager
def numerical_faults():
    """Raise NumericalFault where numpy overflows, divides by zero or forms an
    invalid value inside the block; numpy's error state is per thread."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFault(f"floating-point fault: {exc}") from exc


def _run_row(spec: ExperimentSpec, si: int, value: float, mi: int, method: str) -> ResultRow:
    """Deploy and evaluate one (sweep value, method) cell of the sweep; a
    failure inside a module, including a sweep value that cannot be applied
    or a floating-point fault, gives a row with NaN rates."""
    try:
        with numerical_faults():
            cfg_v, settings_v, override = _apply_sweep(spec, value)
            result = METHODS[method](spec.dist, settings_v, spec.geom, cfg_v,
                                     np.random.default_rng([spec.seed, mi, si]))
            pose = replace(result.pose, **override)
            mean, stderr = evaluate_pose(cfg_v, spec.geom, spec.dist, pose,
                                         spec.trials, (spec.seed, mi, si, 1))
        return ResultRow(method, spec.sweep_variable, float(value), mean, stderr,
                         result.iterations, pose.d0, pose.phi0, pose.h0, pose.phiR, spec.seed)
    except RisPlanError:
        return ResultRow(method, spec.sweep_variable, float(value), math.nan, math.nan, 0,
                         math.nan, math.nan, math.nan, math.nan, spec.seed)


def run_experiment(spec: ExperimentSpec) -> list:
    """Sweep x method grid of deployments and evaluations, in sweep-major
    order; rows that fail inside a module are marked with NaN rates instead
    of aborting the sweep.

    Each row draws from its own generators, so rows are independent: when
    the document's channel draws fill an evaluation chunk (see
    _CHUNK_ELEMENTS) the rows run on one thread per usable core, and the
    rows are the same either way.
    """
    cells = [(si, value, mi, method) for si, value in enumerate(spec.sweep_values)
             for mi, method in enumerate(spec.methods)]
    run = lambda cell: _run_row(spec, *cell)
    draw_elements = spec.cfg.m * spec.cfg.nt * spec.cfg.nr
    workers = min(_usable_cores(), len(cells)) if draw_elements >= _CHUNK_ELEMENTS else 1
    if workers == 1:
        return list(map(run, cells))
    # map cancels the rows not yet started when one raises
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, cells))


def write_table(header: str, rows, destination) -> None:
    """Write a header line and rows of values as comma-separated lines with
    LF newlines, to an open stream or to a file path.  Floats take 9
    significant digits, other values `str`; an OS error becomes IoError."""
    cell = lambda x: format(x, ".9g") if isinstance(x, float) else str(x)
    payload = "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"
    try:
        if hasattr(destination, "write"):
            destination.write(payload)
        else:
            with open(destination, "w", newline="") as handle:
                handle.write(payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def emit_csv(rows: list, destination) -> None:
    """Write rows as the sweep CSV: one column per ResultRow field, of its declared type."""
    if not rows:
        raise ValidationError("no rows to write")
    write_table(CSV_HEADER, ([_CELL_TYPES[column.type](getattr(row, column.name))
                              for column in _COLUMNS] for row in rows), destination)


def rows_from_csv(text: str) -> list:
    """Inverse of emit_csv; blank lines are skipped but keep their line numbers."""
    lines = [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1) if line]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ParseError("missing or malformed header", 1)
    rows = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ParseError(f"expected {len(_COLUMNS)} columns, got {len(cells)}", line_no)
        try:
            rows.append(ResultRow(*(_CELL_TYPES[column.type](cell)
                                    for column, cell in zip(_COLUMNS, cells))))
        except ValueError as exc:
            raise ParseError(f"bad value in {line!r}: {exc}", line_no) from exc
    return rows
