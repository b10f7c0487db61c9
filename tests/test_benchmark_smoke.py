"""A short traced run of each benchmark workload, end to end.

Each case copies `src/`, `benchmarks/` (without its `out/` records) and
`BENCHMARK.json` into a temporary directory and runs the benchmark there,
so the repository's own `benchmarks/out/` is never written.  A run that
crashes, that ends without a result line, whose output fails its checks,
or that traces a function the library no longer has fails here.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", ["desk_sweep", "full_sweep", "analytic"])
def test_traced_benchmark_run_ends_in_a_correct_result(workload, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    assert not [line for line in lines if line.startswith("absent:")]
