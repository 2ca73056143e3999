"""nijalg benchmark runner.

    python3 nijbench/run.py --workload W --seed N --seconds T --trace 0|1

Runs batches of workload W (see workloads.py), each in a fresh interpreter
and one at a time, until T seconds have passed and at least MIN_BATCHES
batches ran.  Every operation's outcome is compared with its expected value;
eval-mixed outputs are also compared with nijalg's non-recursive oracle.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

Timing metrics are scaled to a reference host speed.  On a shared 2-core
VM the host's speed drifts by 15-30% over minutes, for nijalg and for any
pure-Python loop alike, so before each batch the runner times a fixed
calibration load, the reference evaluator of evalgen.py, which shares no
code with nijalg.  A batch's times are multiplied by
REFERENCE_CALIBRATION_S over that calibration time: seconds as they would
read on a host where the calibration takes REFERENCE_CALIBRATION_S.  A
change to nijalg moves them as it moves raw times; a change of host speed
largely cancels out.  Each batch's scale and the unscaled medians are
printed above the result line.

With --trace 1, traced and untraced batches alternate on the same inputs;
the per-layer numbers come from the traced batch of median root duration,
and trace.overhead_ratio is traced over untraced median scaled wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import evalgen
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MIN_BATCHES = 3
WORKER_TIMEOUT_S = 150
# the calibration's median time on a 2-core Intel Xeon VM with Python 3.11.7
REFERENCE_CALIBRATION_S = 0.30
CALIBRATION_INPUTS = evalgen.generate(0, 0)


def calibrate():
    """Seconds the reference evaluator takes on fixed inputs."""
    started = time.perf_counter()
    evalgen.expected(CALIBRATION_INPUTS)
    return time.perf_counter() - started


def run_worker(workload, seed, batch, traced):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), str(batch), "1" if traced else "0"],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=workloads.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["batch"] = batch
    result["traced"] = traced
    return result


def run_batches(workload, seed, seconds, trace):
    deadline = time.monotonic() + seconds
    batches = []
    i = 0
    while True:
        traced = trace and i % 2 == 1
        scale = REFERENCE_CALIBRATION_S / calibrate()
        batches.append(run_worker(workload, seed, 0 if trace else i, traced))
        batches[-1]["scale"] = scale
        i += 1
        untraced = sum(1 for b in batches if not b["traced"])
        enough = untraced >= MIN_BATCHES and (not trace or len(batches) - untraced >= MIN_BATCHES)
        if enough and time.monotonic() >= deadline:
            return batches


def oracle_mismatches(nijalg, workload, seed, batches):
    """Compare single-word `*` and `@` outputs with nijalg's oracle.

    Returns (expressions compared, mismatches)."""
    if workload != "eval-mixed":
        return 0, 0
    oracles = {"*": nijalg.mixed_shuffle, "@": nijalg.mod_quasi_shuffle_oracle}
    compared = wrong = 0
    by_batch = {}
    for b in batches:
        by_batch.setdefault(b["batch"], []).append(b)
    for index, group in by_batch.items():
        for i, (_, lam, node) in enumerate(evalgen.generate(seed, index)):
            if not (node and node[0] == "bin" and node[1] in oracles
                    and node[2][0] == "word" and node[3][0] == "word"):
                continue
            w1, w2 = ([nijalg.Monomial(m) for m in side[1]] for side in node[2:])
            value = oracles[node[1]](tuple(w1), tuple(w2), Fraction(lam))
            terms = {tuple(m.exponents for m in w): c for w, c in value.iterterms()}
            want = [0, workloads.digest(evalgen.render_json(terms, lam) + "\n")]
            for b in group:
                compared += 1
                wrong += b["records"][i][2] != want
    return compared, wrong


def known_failure(workload, outcome, expect):
    """True for the one tolerated failure: over-deep nesting that the CLI
    must reject with exit code 2 but that raises RecursionError instead.
    It counts as failed, not as wrong; any other mismatch is wrong."""
    return (workload == "eval-mixed" and expect[0] == 2
            and outcome == ["raised", "RecursionError"])


def verify(workload, seed, batches):
    """Return (attempted, failed, wrong outputs, first problem or None)."""
    attempted = failed = wrong = 0
    problem = None
    expectations = {}
    for b in batches:
        if b["batch"] not in expectations:
            expectations[b["batch"]] = workloads.expected(workload, seed, b["batch"])
        want = expectations[b["batch"]]
        if len(b["records"]) != len(want):
            wrong += 1
            problem = problem or f"batch {b['batch']}: {len(b['records'])} records, {len(want)} expected"
        for (key, _, outcome, _), expect in zip(b["records"], want):
            attempted += 1
            if outcome != expect:
                failed += 1
                wrong += not known_failure(workload, outcome, expect)
                problem = problem or f"op {key}: got {outcome}, expected {expect}"
    return attempted, failed, wrong, problem


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(batches, scaled=True):
    """Medians over the untraced batches; a percentile is taken per batch.

    Times are multiplied by each batch's scale unless `scaled` is false."""
    plain = [b for b in batches if not b["traced"]]

    def median_of(fn):
        return statistics.median(fn(b) for b in plain)

    def scale(b):
        return b["scale"] if scaled else 1.0

    return {
        "wall_s": median_of(lambda b: b["wall_s"] * scale(b)),
        "ops_per_s": median_of(lambda b: sum(r[3] for r in b["records"]) / (b["wall_s"] * scale(b))),
        "op_p50_ms": median_of(lambda b: percentile([r[1] for r in b["records"]], 50) * scale(b)),
        "op_p99_ms": median_of(lambda b: percentile([r[1] for r in b["records"]], 99) * scale(b)),
        "setup_s": median_of(lambda b: b["setup_s"] * scale(b)),
        "peak_rss_mib": median_of(lambda b: b["peak_rss_kib"]) / 1024,
    }


def per_layer(batches):
    traced = sorted((b for b in batches if b["traced"]), key=lambda b: b["layers"]["trace.root_s"])
    chosen = traced[(len(traced) - 1) // 2]
    plain_wall = end_to_end(batches)["wall_s"]
    return {
        **chosen["layers"],
        "trace.overhead_ratio": statistics.median(b["wall_s"] * b["scale"] for b in traced) / plain_wall,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nijalg = workloads.import_nijalg()  # stops here outside a nijalg checkout
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

    batches = run_batches(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, wrong, problem = verify(args.workload, args.seed, batches)
    compared, oracle_wrong = oracle_mismatches(nijalg, args.workload, args.seed, batches)

    plain = sum(1 for b in batches if not b["traced"])
    print(f"{args.workload} seed {args.seed}: {plain} untraced and "
          f"{len(batches) - plain} traced batches")
    print(f"attempted {attempted}, failed {failed} (error_ratio {failed / attempted:.6f}), "
          f"wrong outputs {wrong}, oracle comparisons {compared} with {oracle_wrong} mismatches")
    if problem:
        print(f"first failure: {problem}")
    if args.trace:
        values, wanted = per_layer(batches), spec["per_layer"]
    else:
        values, wanted = end_to_end(batches), spec["end_to_end"]
        print("batch wall_s in run order: " + " ".join(f"{b['wall_s']:.3f}" for b in batches))
        print("batch scale in run order:  " + " ".join(f"{b['scale']:.3f}" for b in batches))
        raw = end_to_end(batches, scaled=False)
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"latency percentiles per batch of {len(batches[0]['records'])} operations, "
              "median over batches")
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<36} {value:>16.6f} {entry['unit']}")
    print(json.dumps({
        "correct": wrong == 0 and oracle_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
