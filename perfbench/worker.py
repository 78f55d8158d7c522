"""One benchmark process: set up, then run one CLI command.

    python3 perfbench/worker.py '<json spec>'

The spec names the input files, the CLI argv and whether to trace. The
process imports spatialnet from the checkout's ``src`` and ingests the
inputs; the monotonic clock reading at that point lets the parent time
set-up from process start. It then drops that graph, runs
``cli.main(argv)`` once and times it. The last stdout line is a JSON
record of the clock readings, reference times (see ``reference_s``),
exit code, peak RSS and, for traced runs, the per-layer metrics.
"""

import json
import random
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    spec = json.loads(sys.argv[1])
    from spatialnet import io

    inputs = spec["inputs"]
    graph, table = io.ingest(inputs["nodes"], inputs["edges"], inputs.get("variables"))
    record = {"ready": time.monotonic()}
    del graph, table
    record["ref_setup_s"] = reference_s()
    record.update(run_command(spec))
    print(json.dumps(record))
    return 0


def run_command(spec) -> dict:
    import contextlib
    import io as stdio

    from spatialnet import cli, null_models

    import tracer as tracing

    record = {}
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracer.install()
    else:
        # The one probe on an untraced run: read the lattice replicates'
        # ring cost at the latticeize boundary. It costs O(m) per
        # replicate, which is far below the timer's noise.
        latticeize = null_models.latticeize

        def probed(g, *args, **kwargs):
            ensemble = latticeize(g, *args, **kwargs)
            record["lattice_cost_ratio"] = tracing.lattice_cost_ratio(g, ensemble)
            return ensemble

        null_models.latticeize = probed

    captured = stdio.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall = time.perf_counter() - start
    record.update({
        "rc": rc,
        "wall_s": wall,
        "ref_after_s": reference_s(),
        "peak_rss_mib": peak_rss_mib(),
    })
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["trace_file"])
        record["layers"] = tracer.metrics(wall)
        record["errors"] = tracer.errors
        if tracer.lattice_cost_ratio is not None:
            record["lattice_cost_ratio"] = tracer.lattice_cost_ratio
    return record


def reference_s() -> float:
    """Seconds this process takes for a fixed reference job: breadth-first
    search from every node of a fixed random 400-node graph, in plain
    Python dicts and sets like the program's own sweeps.

    The shared host runs this process faster or slower for minutes at a
    time. Timed right after set-up and right after the command, in the
    same process, the reference slows down with them, so their times over
    the reference time measure the program rather than the host."""
    rng = random.Random(12345)
    n = 400
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        for j in rng.sample(range(n), 3):
            if j != i:
                adjacency[i].add(j)
                adjacency[j].add(i)
    start = time.perf_counter()
    for source in range(n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    # VmHWM is the high-water mark of this process's own address space.
    # getrusage's ru_maxrss would also count the parent's resident set,
    # which Linux carries over into a child started by vfork/exec.
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
