"""spatialnet benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload paper39_all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Each measured operation is one
``spatialnet`` CLI command (``cli.main``) in a fresh process, and the
next starts only after it has finished: a closed loop with one client
and no threads. Commands repeat until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are reported as medians over
the run's commands. ``wall_s`` and ``setup_s`` are in nominal seconds:
each raw time is scaled by NOMINAL_REF_S over the time the same process
took for a fixed reference job (``worker.reference_s``), which takes out
the shared host's drifting speed. The raw times are printed too. With ``--trace 1`` the first command runs under the
tracer (``tracer.py``) and the per-layer metrics come from it; the
untraced commands that follow give the tracing overhead.

Set-up time is sampled in every command process, from its spawn until
spatialnet is imported and the inputs are ingested. After the timed loop
every bundle is checked
(``checks.py``); a command that exits nonzero or fails a check counts as
failed. The last stdout line is the JSON result; the lines before it
print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench"

# Why each workload exists is recorded in BENCHMARK.json. `n` is the
# generated graph size; None means the shipped 39-node sample.
WORKLOADS = {
    "paper39_all": {"n": None, "command": "all"},
    "geo400_analyze": {"n": 400, "command": "analyze"},
}
EPOCH = "2010"
# About the reference job's time on a quiet 2-vCPU Xeon VM; only a scale,
# so that normalised times read as seconds.
NOMINAL_REF_S = 0.1
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    pass


def prepare_inputs(workload: str, seed: int, work: Path) -> dict[str, str]:
    spec = WORKLOADS[workload]
    if spec["n"] is None:
        files = {"nodes": SAMPLE / "nodes.csv", "edges": SAMPLE / "edges.csv",
                 "variables": SAMPLE / "variables.csv"}
        missing = [str(p) for p in files.values() if not p.is_file()]
        if missing:
            raise BenchmarkError(f"sample inputs missing: {missing}")
        return {key: str(path) for key, path in files.items()}
    import gen_inputs

    written = gen_inputs.write_inputs(work / "inputs", gen_inputs.geo_graph(spec["n"], seed))
    return {name.split(".")[0]: str(path) for name, path in written.items()}


def command_argv(workload: str, seed: int, inputs: dict, out_dir: Path) -> list[str]:
    spec = WORKLOADS[workload]
    argv = [spec["command"], "--nodes", inputs["nodes"], "--edges", inputs["edges"],
            "--epoch", EPOCH]
    if spec["command"] == "all":
        argv += ["--vars", inputs["variables"], "--seed", str(seed)]
    return argv + ["--out", str(out_dir)]


def spawn(spec: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run one worker process to completion; returns its record (None on
    failure), the monotonic time it was started at, and its stderr."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, started, "timed out"
    if proc.returncode != 0:
        return None, started, proc.stderr.strip()
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), started, proc.stderr.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units by name; BENCHMARK.json is
    the one place metrics are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_metrics(names, layers: dict, traced_wall: float, untraced_walls: list[float]) -> dict:
    """Per-layer metrics of the traced command; wall times here are raw."""
    out = {name: float(layers.get(name, 0.0)) for name in names}
    for fn in ("randomize", "latticeize"):
        attempts = layers.get(f"null_models.{fn}.attempts", 0)
        accepted = layers.get(f"null_models.{fn}.accepted", 0)
        out[f"null_models.{fn}.accept_ratio"] = accepted / attempts if attempts else 0.0
    target = layers.get("null_models.latticeize.target", 0)
    out["null_models.latticeize.target_fill"] = (
        layers.get("null_models.latticeize.accepted", 0) / target if target else 0.0
    )
    out["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "spatialnet" / "cli.py").is_file():
        raise BenchmarkError(f"no spatialnet sources under {ROOT / 'src'}")
    import checks

    end_to_end, per_layer = metric_units()

    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = prepare_inputs(workload, seed, work)

    # Timed loop: one command at a time, nothing else running.
    commands = []
    setup = []  # (raw set-up seconds, reference seconds) per command process
    begin = time.monotonic()
    while time.monotonic() < deadline and (
            not commands or time.monotonic() - begin < seconds or (trace and len(commands) < 2)):
        index = len(commands)
        out_dir = work / f"bundle-{index}"
        spec = {
            "inputs": inputs,
            "argv": command_argv(workload, seed, inputs, out_dir),
            "trace": trace and index == 0,
            "run_id": f"{workload}-s{seed}-{index}",
            "trace_file": str(work / "trace.json"),
        }
        record, started, err = spawn(spec, deadline)
        if record is not None:
            setup.append((record["ready"] - started, record["ref_setup_s"]))
        commands.append((spec, out_dir, record, err))

    # Output checks, outside the timed region.
    failed = 0
    reference = None
    ratios = set()
    for spec, out_dir, record, err in commands:
        errors = [err or "worker failed"] if record is None else []
        if record is not None:
            if record["rc"] != 0:
                errors.append(f"exit code {record['rc']}: {err}")
            errors += record.get("errors", [])
            if "lattice_cost_ratio" in record:
                ratios.add(record["lattice_cost_ratio"])
        try:
            if not errors and reference is None:
                errors = checks.check_bundle(out_dir, inputs, WORKLOADS[workload]["command"])
                if not errors:
                    reference = checks.masked_bundle(out_dir)
            elif not errors:
                errors = checks.check_same_bytes(reference, out_dir)
        except Exception as exc:  # a malformed bundle fails its command, not the run
            errors = [f"check raised {exc!r}"]
        if errors:
            failed += 1
            for message in errors[:5]:
                print(f"FAILED {spec['run_id']}: {message}", file=sys.stderr)
    if len(ratios) > 1:
        failed += 1
        print(f"FAILED lattice_cost_ratio differs between repeats: {sorted(ratios)}",
              file=sys.stderr)

    ok = [(spec, record) for spec, _out, record, _err in commands
          if record is not None and record["rc"] == 0]
    untraced = [record for spec, record in ok if not spec["trace"]]
    traced = [record for spec, record in ok if spec["trace"]]
    if not untraced or (trace and not traced):
        raise BenchmarkError("no command completed; nothing to report")
    samples = {
        "wall_s": [r["wall_s"] * 2 * NOMINAL_REF_S / (r["ref_setup_s"] + r["ref_after_s"])
                   for r in untraced],
        "raw_wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [raw * NOMINAL_REF_S / ref for raw, ref in setup],
        "raw_setup_s": [raw for raw, _ref in setup],
        "peak_rss_mb": [r["peak_rss_mib"] for r in untraced],
        # Only `all` builds a lattice; without one the input is its own
        # reference, so the ratio is 1.
        "lattice_cost_ratio": [min(ratios)] if ratios else [1.0],
    }
    if trace:
        record = traced[0]
        metrics = layer_metrics(per_layer, record["layers"], record["wall_s"],
                                samples["raw_wall_s"])
        units = per_layer
    else:
        metrics = {name: statistics.median(samples[name]) for name in end_to_end}
        units = end_to_end

    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        unit = end_to_end.get(name, "s")  # raw times are printed, not gated
        print(f"{name:<42} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(values)}")
    print(f"{'failed_frac':<42} {failed / len(commands):.6g} ratio  "
          f"({failed} of {len(commands)} commands)")
    if trace:
        for name, unit in per_layer.items():
            print(f"{name:<42} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
