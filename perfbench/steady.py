"""Steadiness self-check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py

For each of two sets and each workload in BENCHMARK.json, runs
``run.py`` once per seed 1-10 with ``--trace 0`` and once on seed 1
with ``--trace 1``, at the ``run_seconds`` and bounds from
BENCHMARK.json. For every end-to-end metric and workload it prints each
set's median, quartiles and spread (interquartile distance over the
median) and whether:

* each set's spread is within the metric's bound;
* the two sets' medians differ by no more than the bound, either way;
* every count and ``lattice_cost_ratio`` repeats exactly across sets;
* no run failed, and each traced run's layer spans cover at least
  MIN_COVERAGE of its wall time.

It then prints every per-layer metric of each workload's traced run.
Exits 1 when anything disagrees. All results are also written to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2
MIN_COVERAGE = 0.9
EXACT_UNITS = ("count", "B")
EXACT_RATIOS = ("accept_ratio", "target_fill")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = []  # results[set][workload] = {"runs": [...], "trace": {...}}
    for set_index in range(SETS):
        results.append({})
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                runs.append(bench_run(workload, seed, seconds, 0))
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                      flush=True)
            traced = bench_run(workload, SEEDS[0], seconds, 1)
            results[set_index][workload] = {"runs": runs, "trace": traced}

    ok = True
    print(f"\n{'workload':<16} {'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for set_index in range(SETS):
                runs = results[set_index][workload]["runs"]
                failed = sum(r["failed"] for r in runs)
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                verdicts = []
                if share > bound:
                    verdicts.append("SPREAD>BOUND")
                if first_median is None:
                    first_median = median
                elif abs(median / first_median - 1) > bound:
                    verdicts.append("SETS DIFFER>BOUND")
                if failed:
                    verdicts.append(f"{failed} FAILED")
                ok = ok and not verdicts
                print(f"{workload:<16} {name:<20} {set_index + 1:>3} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {share:>8.4f} {bound:>6.3f}  {' '.join(verdicts) or 'ok'}")
        for set_index in range(SETS):
            traced = results[set_index][workload]["trace"]
            coverage = traced["metrics"]["trace.coverage"]["value"]
            if traced["failed"]:
                ok = False
                print(f"{workload:<16} traced run of set {set_index + 1}: "
                      f"{traced['failed']} FAILED")
            if coverage < MIN_COVERAGE:
                ok = False
                print(f"{workload:<16} traced run of set {set_index + 1}: trace.coverage "
                      f"{coverage:.4f} < {MIN_COVERAGE}")
        mismatches = exact_mismatches(results, workload, bench)
        ok = ok and not mismatches
        for message in mismatches:
            print(f"{workload:<16} MISMATCH {message}")
        if not mismatches:
            print(f"{workload:<16} counts and lattice_cost_ratio repeat exactly across sets")

    print(f"\nper-layer metrics, set 1, seed {SEEDS[0]}")
    print(f"{'metric':<42} " + " ".join(f"{w:>16}" for w in workloads))
    for metric in bench["per_layer"]:
        name = metric["name"]
        values = [results[0][w]["trace"]["metrics"][name]["value"] for w in workloads]
        print(f"{name:<42} " + " ".join(f"{v:>16.6g}" for v in values) + f"  {metric['unit']}")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(
        json.dumps({"seeds": list(SEEDS), "results": results}, indent=1), encoding="utf-8"
    )
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def exact_mismatches(results, workload: str, bench: dict) -> list[str]:
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"].endswith(EXACT_RATIOS)]
    messages = []
    first = results[0][workload]
    for set_index in range(1, SETS):
        other = results[set_index][workload]
        for name in exact:
            a = first["trace"]["metrics"][name]["value"]
            b = other["trace"]["metrics"][name]["value"]
            if a != b:
                messages.append(f"{name}: set 1 {a} vs set {set_index + 1} {b}")
        for seed_index, (a, b) in enumerate(zip(first["runs"], other["runs"])):
            ra = a["metrics"]["lattice_cost_ratio"]["value"]
            rb = b["metrics"]["lattice_cost_ratio"]["value"]
            if ra != rb:
                messages.append(f"lattice_cost_ratio run {seed_index + 1}: {ra} vs {rb}")
    return messages


if __name__ == "__main__":
    sys.exit(main())
