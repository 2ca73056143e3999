"""The three workloads: their inputs, one timed batch of each, and the
expected output of every operation.

A batch is the fixed unit of work one fresh interpreter runs; the runner in
run.py repeats batches until its time is up.  Every operation is a call into
nijalg's public functions, and every cache is cleared before it, as a fresh
`nijalg` process would see it.

- identity-sweep: `run_suite` over the plan below, exhaustive, seed-free.
- universal-k4:   `universal_sweep` and `rb_universal_sweep` at max_len 6.
- eval-mixed:     `cli.main(["eval", ...])` on seeded expressions (evalgen).

An operation's outcome is a short JSON-able list that run.py compares with
`expected()`: [checked, failures, report digest] for a suite,
[checked, failures] for a sweep and [exit code, stdout digest] for an
expression.  An exception escaping the call gives ["raised", its type].
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

import evalgen

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"

WORKLOADS = ("identity-sweep", "universal-k4", "eval-mixed")

SWEEP_MAX_LEN = 4
IDENTITY_PLAN = tuple(
    (suite, lam)
    for suite, lams in (
        ("assoc-qsh", ("0", "1", "-1", "2/3")),
        ("assoc-mqs", ("0", "1", "-1", "2/3")),
        ("dendriform-tri", ("0", "1", "2/3")),
        ("torsion-cocycle", ("1",)),
        ("mixed-oracle", ("0", "1", "2/3")),
    )
    for lam in lams
)

UNIVERSAL_MAX_LEN = 6
UNIVERSAL_SAMPLES = 25
# checks per sample: 16 (mask, tau) targets and 6 (mask, lambda) targets,
# each checking multiplicativity and intertwining
UNIVERSAL_CHECKS = {"universal_sweep": 32, "rb_universal_sweep": 12}


def import_nijalg():
    """Import nijalg from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "nijalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no nijalg package under {src}")
    sys.path.insert(0, str(src))
    import nijalg
    from nijalg import cli, products, suites  # noqa: F401  (bound for callers)

    if src.resolve() not in Path(nijalg.__file__).resolve().parents:
        raise SystemExit(f"error: imported nijalg from {nijalg.__file__}, not {src}")
    return nijalg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_seed(seed: int, batch: int) -> int:
    return random.Random(f"universal-k4:{seed}:{batch}").getrandbits(32)


def inputs(workload: str, seed: int, batch: int):
    """The operations of one batch: (key, argument) pairs."""
    if workload == "identity-sweep":
        return [(f"{suite}@{lam}", (suite, lam)) for suite, lam in IDENTITY_PLAN]
    if workload == "universal-k4":
        s = sweep_seed(seed, batch)
        return [(name, s) for name in UNIVERSAL_CHECKS]
    if workload == "eval-mixed":
        return [(str(i), (text, lam)) for i, (text, lam, _) in enumerate(evalgen.generate(seed, batch))]
    raise ValueError(f"unknown workload {workload!r}")


def expected(workload: str, seed: int, batch: int):
    """The outcome each operation of the batch must produce."""
    if workload == "identity-sweep":
        pins = json.loads(PINS.read_text())
        return [pins[key] for key, _ in inputs(workload, seed, batch)]
    if workload == "universal-k4":
        return [[UNIVERSAL_SAMPLES * n, 0] for n in UNIVERSAL_CHECKS.values()]
    return [[code, digest(out)] for code, out in evalgen.expected(evalgen.generate(seed, batch))]


class CacheStats:
    """`cache_info()` of the word recursions, read before every clear.

    The recursions are private; one that is gone or no longer an lru_cache
    reads as zero, so the benchmark keeps running when they are rewritten.
    """

    NAMES = {"qsh": "_qsh", "mqsh": "_mqsh"}

    def __init__(self):
        self.totals = {key: {"hits": 0, "misses": 0, "currsize": 0} for key in self.NAMES}

    def read(self, products):
        for key, attr in self.NAMES.items():
            fn = getattr(products, attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                continue
            info = fn.cache_info()
            total = self.totals[key]
            total["hits"] += info.hits
            total["misses"] += info.misses
            total["currsize"] = max(total["currsize"], info.currsize)

    def metrics(self):
        out = {}
        for key, total in self.totals.items():
            lookups = total["hits"] + total["misses"]
            for field, value in total.items():
                out[f"products.{key}.{field}"] = value
            out[f"products.{key}.hit_ratio"] = total["hits"] / lookups if lookups else 0.0
        return out


def _suite_op(nijalg, arg):
    suite, lam = arg
    report = nijalg.suites.run_suite(suite, SWEEP_MAX_LEN, [lam], 0)
    return [report["checked"], len(report["failures"]), digest(json.dumps(report))], report["checked"]


def _sweep_op(nijalg, name, arg):
    checked, failures = getattr(nijalg.suites, name)(UNIVERSAL_MAX_LEN, arg, UNIVERSAL_SAMPLES)
    return [checked, len(failures)], checked


def _eval_op(nijalg, arg):
    text, lam = arg
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nijalg.cli.main(["eval", text, "--lambda", lam, "--format", "json"])
    return [code, digest(out.getvalue())], 1


def run_batch(nijalg, workload: str, ops, cache_stats=None):
    """Run the operations in order; return (wall seconds, per-op records).

    A record is [key, milliseconds, outcome, checks completed].
    """
    products = nijalg.products
    records = []
    start = time.perf_counter()
    for key, arg in ops:
        if cache_stats is not None:
            cache_stats.read(products)
        products.clear_caches()
        t0 = time.perf_counter()
        try:
            if workload == "identity-sweep":
                outcome, checks = _suite_op(nijalg, arg)
            elif workload == "universal-k4":
                outcome, checks = _sweep_op(nijalg, key, arg)
            else:
                outcome, checks = _eval_op(nijalg, arg)
        except Exception as err:  # an escaping exception is a failed operation
            outcome, checks = ["raised", type(err).__name__], 0
        records.append([key, (time.perf_counter() - t0) * 1e3, outcome, checks])
    wall = time.perf_counter() - start
    if cache_stats is not None:
        cache_stats.read(products)
    return wall, records
