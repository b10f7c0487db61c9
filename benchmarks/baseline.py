"""Record the benchmark baseline of the checked-out commit.

    python3 benchmarks/baseline.py

Runs `run.py` once per seed and workload of BENCHMARK.json (workloads
interleaved, so a drift in host speed reaches all of them alike), in SETS
sets of SEEDS_PER_SET fresh seeds each, then one traced run per workload.
For every end-to-end metric it records each set's values, median and
quartiles, the spread (distance between the quartiles over the median, as
`statistics.quantiles(n=4)` gives them) and how far each later set's median
moved from the first set's.  It also records the CSV digest of every sweep
repeat, keyed by input seed, as the reference later runs compare against.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS_PER_SET = 10
SETS = 2
TRACE_SEED = 0


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The final JSON line of one benchmark run plus its detailed record."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return {"result": result, "record": record}


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for k in range(SETS):
        for seed in range(k * SEEDS_PER_SET, (k + 1) * SEEDS_PER_SET):
            for w in workloads:
                runs[w].append((k, run(w, seed, seconds, 0)))

    end_to_end, digests, correct = {}, {}, True
    for w in workloads:
        end_to_end[w] = {}
        for name, bound in bounds.items():
            sets = [summarise([r["result"]["metrics"][name]["value"] for j, r in runs[w] if j == k])
                    for k in range(SETS)]
            first = sets[0]["median"]
            end_to_end[w][name] = {
                "unit": runs[w][0][1]["result"]["metrics"][name]["unit"], "bound": bound,
                "sets": sets,
                "median_shift": [s["median"] / first - 1.0 for s in sets[1:]],
            }
        for _, r in runs[w]:
            correct &= r["result"]["correct"]
            for rep in r["record"]["repeats"]:
                if "csv_sha256" in rep:
                    seen = digests.setdefault(w, {}).setdefault(str(rep["input_seed"]), rep["csv_sha256"])
                    if seen != rep["csv_sha256"]:
                        raise SystemExit(f"{w} input seed {rep['input_seed']}: CSV bytes differ between runs")

    per_layer = {}
    for w in workloads:
        traced = run(w, TRACE_SEED, seconds, 1)
        correct &= traced["result"]["correct"]
        per_layer[w] = {"seed": TRACE_SEED, "absent": traced["record"]["absent"],
                        "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()}}

    first_record = runs[workloads[0]][0][1]["record"]
    provenance = {k: v for k, v in first_record["provenance"].items()
                  if k not in ("workload", "seed", "sizes")}
    baseline = {
        "provenance": provenance,
        "sizes": {w: runs[w][0][1]["record"]["provenance"]["sizes"] for w in workloads},
        "run_seconds": seconds,
        "seeds": {"per_set": SEEDS_PER_SET, "sets": SETS, "trace_seed": TRACE_SEED},
        "all_correct": correct,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "reference_csv_sha256": digests,
    }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    for w in workloads:
        for name, m in end_to_end[w].items():
            spreads = ", ".join(f"{s['spread']:.3f}" for s in m["sets"])
            shifts = ", ".join(f"{x:+.3f}" for x in m["median_shift"])
            print(f"{w} {name}: medians {[round(s['median'], 4) for s in m['sets']]} "
                  f"spreads [{spreads}] shift [{shifts}] bound {m['bound']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
