"""risplan benchmark: seeded sweep-shaped workloads, timed end to end, with
an optional per-layer trace.

    python3 benchmarks/run.py --workload desk_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; risplan is imported from `src/`.
The metric names, units and bounds live in `BENCHMARK.json` at the root.

A run first times set-up in fresh interpreters (import risplan and
risplan.cli, parse the workload's config; one warm-up, then the median of
nine).  It then repeats the workload until the next repeat would pass
`--seconds`.  Repeat r works on the inputs made from seed * 1000 + r, so no
two repeats in a run share inputs, and every repeat's output is checked.

--trace 0 reports the end-to-end metrics: median wall and CPU seconds per
repeat, and the process's peak resident memory.  --trace 1 alternates an
untraced and a traced repeat on the same inputs and reports the per-layer
metrics (medians over the traced repeats) and the tracing overhead (median
traced-minus-untraced wall time of a repeat); the spans of the last traced
repeat go to `benchmarks/out/`.  A per-layer metric whose function no
longer exists is listed as absent and left out.
`phase.accept_ratio` reads 0 when no update was attempted; its base,
`phase.updates_attempted`, is reported beside it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import pathlib
import platform
import resource
from statistics import median
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOAD_NAMES = ("desk_sweep", "full_sweep", "analytic")

SETUP_SAMPLES = 9
MAX_REPEATS = 1000
SETUP_CHILD = """\
import sys, time
doc = sys.stdin.read()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import risplan, risplan.cli, risplan.harness
risplan.harness.parse_config(doc)
print(repr(time.perf_counter() - start))
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def limit_blas_threads() -> int:
    """Size the OpenBLAS pool to the usable cores; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_risplan():
    if not (SRC / "risplan" / "__init__.py").is_file():
        raise BenchError(f"no risplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import risplan

    if pathlib.Path(risplan.__file__).resolve().parent != (SRC / "risplan").resolve():
        raise BenchError(f"imported risplan from {risplan.__file__}, not {SRC}")
    return risplan


def git_sha():
    """HEAD commit of the checkout; None when it is not a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "risplan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info(threads_env: int) -> dict:
    import ctypes

    import numpy as np

    info = {"threads_env": threads_env, "threads_runtime": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        info.update(name=None, version=None)
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_runtime"] = fn()
                return info
    return info


def provenance(workload, seed: int, threads_env: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(threads_env),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "repeat_input_seed": "seed * 1000 + repeat",
        "sizes": workload.sizes(),
    }


def measure_setup(document: str) -> list:
    """Seconds for fresh interpreters to import risplan and parse `document`."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], input=document,
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()}")
        if i > 0:  # the first child warms the file cache and writes bytecode
            times.append(float(done.stdout.strip()))
    return times


def timed(workload, input_seed: int, tracer=None):
    """(wall s, cpu s, output) of one repeat, traced when a tracer is given."""
    gc.collect()
    next_row = tracer.next_row if tracer is not None else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    output = workload.run(input_seed, next_row)
    return time.perf_counter() - wall0, time.process_time() - cpu0, output


def reference_digests(workload_name: str) -> dict:
    try:
        baseline = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return {}
    return baseline.get("reference_csv_sha256", {}).get(workload_name, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        threads_env = limit_blas_threads()
        spec = load_spec()
        import_risplan()
        from spans import SPAN_STATS, Tracer
        from workloads import WORKLOADS
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m for m in spec["per_layer"]}
    span_metrics = [n for n in layer_spec if n.rsplit(".", 1)[-1] in SPAN_STATS]
    traced_functions = {n.rsplit(".", 1)[0] for n in span_metrics}

    try:
        setup = measure_setup(workload.document(args.seed))
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    reps, layer_samples, accept = [], [], []
    tracer = None
    start = time.perf_counter()

    def untraced(input_seed):
        wall, cpu, output = timed(workload, input_seed)
        return {"wall_s": wall, "cpu_s": cpu, **workload.check(input_seed, output)}

    def traced(input_seed):
        nonlocal tracer
        tracer = Tracer(traced_functions)
        with tracer.installed():
            wall, _, output = timed(workload, input_seed, tracer)
        check = workload.check(input_seed, output)
        layer_samples.append(tracer.layer_metrics(span_metrics))
        accept.append(tracer.accept_counts())
        return {"traced_wall_s": wall, "traced_attempted": check["attempted"],
                "traced_failed": check["failed"], "traced_csv_sha256": check.get("csv_sha256")}

    for r in range(MAX_REPEATS):
        rep_start = time.perf_counter()
        rep = {"input_seed": args.seed * 1000 + r}
        # Traced runs alternate which pass goes first, so neither always runs warm.
        passes = (traced, untraced) if args.trace and r % 2 else (untraced, traced)
        for run_pass in passes[:1 + args.trace]:
            rep.update(run_pass(rep["input_seed"]))
        if args.trace:
            rep["traced_output_matches"] = rep["traced_csv_sha256"] == rep.get("csv_sha256")
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - rep_start) > args.seconds:
            break
    measured_s = time.perf_counter() - start

    walls = [rep["wall_s"] for rep in reps]
    attempted = sum(rep["attempted"] + rep.get("traced_attempted", 0) for rep in reps)
    failed = sum(rep["failed"] + rep.get("traced_failed", 0) for rep in reps)
    correct = failed == 0 and all(rep.get("traced_output_matches", True) for rep in reps)

    refs = reference_digests(workload.name)
    digest_status = {"match": 0, "mismatch": 0, "no_reference": 0}
    for rep in reps:
        if "csv_sha256" in rep:
            ref = refs.get(str(rep["input_seed"]))
            rep["csv_reference"] = "no_reference" if ref is None else (
                "match" if ref == rep["csv_sha256"] else "mismatch")
            digest_status[rep["csv_reference"]] += 1

    values = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "cpu_s": median([rep["cpu_s"] for rep in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    absent = []
    if args.trace:
        for name in span_metrics:
            samples = [sample[name] for sample in layer_samples if name in sample]
            if samples:
                values[name] = median(samples)
            else:
                absent.append(name)
        # Paired by repeat, so a drift in host speed between pairs cancels.
        values["trace_overhead_s"] = median([rep["traced_wall_s"] - rep["wall_s"] for rep in reps])
        if all(a is not None for a in accept):
            values["phase.accept_ratio"] = median(
                [acc / att if att else 0.0 for acc, att in accept])
            values["phase.updates_attempted"] = median([att for _, att in accept])
        wanted = layer_spec
    else:
        wanted = e2e_spec
    metrics = {}
    for name, meta in wanted.items():
        if values.get(name) is None:
            if name not in absent:
                absent.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": meta["unit"]}

    prov = provenance(workload, args.seed, threads_env)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl.gz")
    record = {"provenance": prov, "seconds": args.seconds, "measured_s": measured_s,
              "setup_s_samples": setup, "repeats": reps, "csv_reference": digest_status,
              "absent": absent, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(reps)} repeats in {measured_s:.1f} s"
          f" ({'traced and untraced' if args.trace else 'untraced'})")
    print(f"setup_s: {values['setup_s']:.4f} s (median of {len(setup)} fresh interpreters)")
    print(f"wall_s: {values['wall_s']:.4f} s (median of {len(walls)} repeats,"
          f" range {min(walls):.4f}-{max(walls):.4f})")
    print(f"cpu_s: {values['cpu_s']:.4f} s (median of {len(walls)} repeats)")
    print(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
    print(f"ops_attempted: {attempted} count")
    print(f"ops_failed: {failed} count")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        if "phase.accept_ratio" in metrics:
            print("phase.accept_ratio base, accepted/attempted per traced repeat: "
                  + ", ".join(f"{acc}/{att}" for acc, att in accept))
    if sum(digest_status.values()):
        print("csv_reference: " + ", ".join(f"{k} {v}" for k, v in digest_status.items())
              + " (informational)")
    if absent:
        print("absent: " + ", ".join(absent))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
