"""Run one batch of one workload in this fresh interpreter.

    python3 nijbench/worker.py WORKLOAD SEED BATCH TRACE

Prints one JSON line: the monotonic time at which set-up (import and input
generation) ended, the batch wall time, one record per operation, peak RSS,
and with TRACE=1 the per-layer metrics.  Spans of a traced batch are written
to .bench_build/nijbench/<workload>.spans.jsonl in the checkout.
"""

from __future__ import annotations

import json
import sys
import time

import tracing
import workloads


def peak_rss_kib():
    """Peak resident memory of this process.  Not ru_maxrss: Linux carries
    the peak of the process that started this one across fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    workload, seed, batch, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    nijalg = workloads.import_nijalg()
    ops = workloads.inputs(workload, seed, batch)
    ready = time.monotonic()

    out = {"ready": ready}
    if trace:
        tracer = tracing.Tracer()
        cache_stats = workloads.CacheStats()
        tracer.install()
        try:
            with tracer:
                wall, records = workloads.run_batch(nijalg, workload, ops, cache_stats)
        finally:
            tracer.uninstall()
        out["layers"] = {**tracer.metrics(), **cache_stats.metrics()}
        tracer.write(workloads.ROOT / ".bench_build" / "nijbench" / f"{workload}.spans.jsonl")
    else:
        wall, records = workloads.run_batch(nijalg, workload, ops)
    out["wall_s"] = wall
    out["records"] = records
    out["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
