"""Property tests of the config document: every valid document survives
parse -> emit -> parse, and the default document's text is pinned."""

from hypothesis import given, settings, strategies as st

from risplan import emit_config, parse_config
from risplan.harness import METHODS, SWEEP_VARIABLES

_TRUE_WORDS = ("true", "yes", "1", "True")
_FALSE_WORDS = ("false", "no", "0", "FALSE")


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw):
    """A valid document that sets every key; returns (text, los_only,
    custom centers or None)."""
    users = draw(st.integers(1, 6))
    h_u = draw(_reals(0.0, 5.0))
    r_min = draw(_reals(1e-3, 120.0))
    h_min = draw(_reals(0.0, 20.0))
    los_only = draw(st.booleans())
    kind = draw(st.sampled_from(["uniform_disc", "one_hotspot", "multi_hotspot",
                                 "custom_centers"]))
    # every center lies within 110 m of the BS, inside the smallest cell
    centers = draw(st.lists(st.tuples(_reals(0.0, 100.0), _reals(-7.0, 7.0)),
                            min_size=int(kind == "custom_centers"), max_size=4))
    fc = draw(_reals(1e9, 1e11))
    system = {
        "nt": draw(st.integers(users + 1, 256)),
        "nr_x": draw(st.integers(1, 12)),
        "nr_y": draw(st.integers(1, 12)),
        "subcarriers": draw(st.integers(1, 64)),
        "users": users,
        "fc_hz": fc,
        # at most the carrier, so every subcarrier lies above fc / 2
        "bandwidth_hz": draw(_reals(0.0, fc)),
        "pmax_dbm": draw(_reals(-50.0, 60.0)),
        "noise_dbm": draw(_reals(-150.0, -50.0)),
        "rician_bs_ris": draw(_reals(0.0, 100.0)),
        "rician_bs_user": draw(_reals(0.0, 100.0)),
        "rician_ris_user": draw(_reals(0.0, 100.0)),
        "alpha_bs_ris": draw(_reals(1.5, 5.0)),
        "alpha_bs_user": draw(_reals(1.5, 5.0)),
        "alpha_ris_user": draw(_reals(1.5, 5.0)),
        "c0": draw(_reals(0.0, 10.0)),
        "los_only": draw(st.sampled_from(_TRUE_WORDS if los_only else _FALSE_WORDS)),
    }
    geometry = {
        "cell_radius": draw(_reals(120.0, 1000.0)),
        "bs_height": draw(_reals(h_u + 0.5, 60.0)),
        "user_height": h_u,
        "ris_distance_min": r_min,
        "ris_distance_max": draw(_reals(r_min, 120.0)),
        "ris_height_min": h_min,
        "ris_height_max": draw(_reals(h_min, 50.0)),
    }
    scenario = {
        "kind": kind,
        "hotspot_radius": draw(_reals(0.0, 10.0)),
        "centers": ", ".join(f"{dc!r}:{az!r}" for dc, az in centers),
    }
    sweep = {
        "variable": draw(st.sampled_from(SWEEP_VARIABLES)),
        "values": ", ".join(map(repr, draw(st.lists(_reals(-1e6, 1e6), min_size=1,
                                                   max_size=5)))),
    }
    run = {
        "methods": ", ".join(draw(st.lists(st.sampled_from(sorted(METHODS)), min_size=1,
                                           max_size=5))),
        "trials": draw(st.integers(1, 10_000)),
        "seed": draw(st.integers(0, 2 ** 32)),
        "samples": draw(st.integers(1, 10_000)),
        "orientation_grid": draw(st.integers(4, 64)),
        "max_outer_iters": draw(st.integers(0, 100)),
        "tol": draw(_reals(1e-12, 1.0)),
        "sgd_iters": draw(st.integers(0, 1000)),
        "sgd_step_d0": draw(_reals(0.0, 10.0)),
        "sgd_step_h0": draw(_reals(0.0, 10.0)),
    }
    lines = []
    for name, keys in (("system", system), ("geometry", geometry), ("scenario", scenario),
                       ("sweep", sweep), ("run", run)):
        lines.append(f"[{name}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
    custom = tuple(centers) if kind == "custom_centers" else None
    return "\n".join(lines) + "\n", los_only, custom


@settings(max_examples=300, deadline=None)
@given(documents())
def test_emit_then_parse_is_identity(case):
    text, los_only, custom = case
    spec = parse_config(text)
    assert spec.cfg.los_only is los_only
    if custom is not None:
        assert spec.dist.centers == custom
    emitted = emit_config(spec)
    assert parse_config(emitted) == spec
    assert emit_config(parse_config(emitted)) == emitted


DEFAULT_DOCUMENT = """\
[system]
nt = 128
nr_x = 10
nr_y = 10
subcarriers = 16
users = 4
fc_hz = 28000000000.0
bandwidth_hz = 4000000000.0
pmax_dbm = 30.0
noise_dbm = -104.0
rician_bs_ris = 15.0
rician_bs_user = 10.0
rician_ris_user = 15.0
alpha_bs_ris = 2.2
alpha_bs_user = 4.0
alpha_ris_user = 2.8
c0 = 7.259481705540117e-07
los_only = false

[geometry]
cell_radius = 200.0
bs_height = 10.0
user_height = 1.5
ris_distance_min = 10.0
ris_distance_max = 200.0
ris_height_min = 1.0
ris_height_max = 10.0

[scenario]
kind = uniform_disc
hotspot_radius = 10.0

[sweep]
variable = power_dbm
values = 30.0

[run]
methods = heuristic
trials = 100
seed = 0
samples = 200
orientation_grid = 16
max_outer_iters = 20
tol = 1e-06
sgd_iters = 200
sgd_step_d0 = 1.0
sgd_step_h0 = 0.5
"""


def test_default_document_text():
    assert emit_config(parse_config("")) == DEFAULT_DOCUMENT
