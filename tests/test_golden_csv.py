"""Golden CSV: a tiny desk-scale sweep over all five placement methods must
reproduce its recorded bytes.  A speed-up that changes any pose, rate or
iteration count in the emitted CSV fails here; a change meant to alter the
numbers must record the new digest and say why."""

import hashlib
import io

from risplan import emit_csv, parse_config, run_experiment

GOLDEN_CONFIG = """
[system]
nt = 32
nr_x = 4
nr_y = 4
subcarriers = 4
users = 3
pmax_dbm = 30
noise_dbm = -104
c0 = 1.0

[geometry]
cell_radius = 100
ris_distance_min = 10
ris_distance_max = 30
ris_height_min = 1
ris_height_max = 10

[scenario]
kind = one_hotspot

[sweep]
variable = power_dbm
values = 20, 30

[run]
methods = heuristic, exhaustive, sgd, random, one_sample
trials = 2
seed = 7
sgd_iters = 10
"""

GOLDEN_SHA256 = "a3ff8eeef411c841adf711a0f420747f85433c80e212c7e7dd9ecd8480b4358a"


def test_golden_csv_bytes():
    buffer = io.StringIO()
    emit_csv(run_experiment(parse_config(GOLDEN_CONFIG)), buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == GOLDEN_SHA256
