"""The benchmark's bindings into the package still resolve.

``nijbench/tracing.py`` wraps the functions its SPANS and COUNTED tables
name, and ``nijbench/workloads.py`` calls a few more by attribute.  A rename
in the package would stop ``nijbench/run.py`` only when the benchmark runs;
this checks every one of those names against the live modules instead.  The
tracing module imports only the standard library, so it is run from its
source here, and nothing is written under ``nijbench/``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "nijbench" / "tracing.py"),
    run_name="nijbench_tracing",
)

# the attributes nijbench/workloads.py calls on the package's modules
WORKLOAD_CALLS = (
    ("products", "clear_caches"),
    ("suites", "run_suite"),
    ("suites", "universal_sweep"),
    ("suites", "rb_universal_sweep"),
    ("cli", "main"),
)

# the memos whose cache_info() nijbench/workloads.py CacheStats reads
CACHE_STATS = ("_qsh", "_mqsh")
CACHE_FIELDS = ("hits", "misses", "currsize")

TARGETS = [
    (layer, qualname) for layer, qualnames in TRACING["SPANS"].items() for qualname in qualnames
] + list(TRACING["COUNTED"].values())


@pytest.mark.parametrize("layer, qualname", TARGETS, ids=[f"{l}.{q}" for l, q in TARGETS])
def test_traced_targets_resolve(layer, qualname):
    module = importlib.import_module(f"nijalg.{layer}")
    owner, attr = TRACING["_resolve"](module, qualname)
    # Tracer.install reads the original from the owner's own namespace
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize(
    "layer, name", WORKLOAD_CALLS, ids=[f"{l}.{n}" for l, n in WORKLOAD_CALLS]
)
def test_workload_calls_resolve(layer, name):
    assert callable(getattr(importlib.import_module(f"nijalg.{layer}"), name))


def test_cache_stats_read_the_product_memos():
    # CacheStats reads a memo without cache_info() as zero, silently
    nijalg = importlib.import_module("nijalg")
    products = nijalg.products
    x = nijalg.TensorElement.from_word([nijalg.gen("a"), nijalg.gen("b")])
    products.clear_caches()
    nijalg.quasi_shuffle(x, x)
    nijalg.mod_quasi_shuffle(x, x)
    for name in CACHE_STATS:
        info = getattr(products, name).cache_info()
        assert all(type(getattr(info, field)) is int for field in CACHE_FIELDS)
        assert info.misses and info.currsize
    products.clear_caches()
    for name in CACHE_STATS:
        info = getattr(products, name).cache_info()
        assert [getattr(info, field) for field in CACHE_FIELDS] == [0, 0, 0]
