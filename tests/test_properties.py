"""Property tests of the sweep CSV round trip, pose angle wrapping and phase
quantisation."""

import io
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from risplan import ResultRow, RisPose, emit_csv, quantize_phases, rows_from_csv
from risplan.harness import METHODS, SWEEP_VARIABLES

# Any float, with the values a 9-digit text form must carry exactly drawn
# often: NaN, both infinities and negative zero.
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])

_ROWS = st.builds(
    ResultRow,
    method=st.sampled_from(sorted(METHODS)),
    sweep_variable=st.sampled_from(SWEEP_VARIABLES),
    sweep_value=_FLOATS,
    sum_rate_bps_hz=_FLOATS,
    std_error=_FLOATS,
    iterations=st.integers(0, 10 ** 6),
    d0=_FLOATS,
    phi0=_FLOATS,
    h0=_FLOATS,
    phiR=_FLOATS,
    seed=st.integers(0, 2 ** 64),
)


def _emitted(rows) -> str:
    out = io.StringIO()
    emit_csv(rows, out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=6))
def test_sweep_csv_is_a_fixed_point_of_parse_then_emit(rows):
    text = _emitted(rows)
    parsed = rows_from_csv(text)
    assert _emitted(parsed) == text
    assert [(r.method, r.sweep_variable, r.iterations, r.seed) for r in parsed] == \
        [(r.method, r.sweep_variable, r.iterations, r.seed) for r in rows]


_ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e4), _ANGLES, st.floats(0.0, 100.0), _ANGLES)
def test_pose_angles_wrap_into_one_turn_once(d0, phi0, h0, phiR):
    pose = RisPose(d0=d0, phi0=phi0, h0=h0, phiR=phiR)
    for angle in (pose.phi0, pose.phiR):
        assert 0.0 <= angle < 2.0 * math.pi
    again = replace(pose)
    assert (again.phi0, again.phiR) == (pose.phi0, pose.phiR)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=32))
def test_quantize_phases_is_idempotent(bits, angles):
    once = quantize_phases(np.exp(1j * np.array(angles)), bits)
    assert np.array_equal(quantize_phases(once, bits), once)
