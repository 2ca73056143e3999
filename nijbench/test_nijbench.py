"""Tests of the benchmark itself: python3 -m pytest nijbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import evalgen
import run
import tracing
import workloads

HERE = workloads.ROOT / "nijbench"
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
nijalg = workloads.import_nijalg()


def traced_layers(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), "0", "1"],
        capture_output=True, text=True, check=True, cwd=workloads.ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


def test_count_metrics_repeat_exactly_for_a_fixed_seed():
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    exact.remove("trace.overhead_ratio")  # a ratio of times
    for workload in workloads.WORKLOADS:
        first, second = traced_layers(workload, 5), traced_layers(workload, 5)
        assert {k: first.get(k) for k in exact} == {k: second.get(k) for k in exact}, workload


def test_a_new_seed_changes_the_seeded_inputs():
    for workload in ("eval-mixed", "universal-k4"):
        assert workloads.inputs(workload, 1, 0) == workloads.inputs(workload, 1, 0)
        assert workloads.inputs(workload, 1, 0) != workloads.inputs(workload, 2, 0)

    def sweep_pairs(seed):
        rng = random.Random(workloads.sweep_seed(seed, 0))
        nijalg.suites.random_images(rng)
        pairs = nijalg.suites.random_augmented_pairs(rng, workloads.UNIVERSAL_SAMPLES)
        return [(str(x), str(y)) for x, y in pairs]

    assert sweep_pairs(1) != sweep_pairs(2)


def test_eval_mixed_keeps_its_shape_across_seeds():
    def shapes(seed):
        return sorted(
            (lam, node is None) for _, lam, node in evalgen.generate(seed, 0)
        )

    assert shapes(1) == shapes(2)
    invalid = sum(node is None for _, _, node in evalgen.generate(1, 0))
    assert 0 < invalid < evalgen.BATCH_SIZE // 10


def _bindings():
    owners = [m for name, m in sys.modules.items() if name.startswith("nijalg")]
    owners += [nijalg.DendriformContext, nijalg.TensorElement, nijalg.Monomial]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_wrappers_rebind_everywhere_and_restore_the_originals():
    before = _bindings()
    original = nijalg.products.quasi_shuffle
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (nijalg.products, nijalg.suites, nijalg.dendriform, nijalg.expr, nijalg):
            assert module.quasi_shuffle.__wrapped__ is original
        assert nijalg.operators.aug_mod_quasi_shuffle.__wrapped__ is not None
        assert nijalg.cli.run_suite is nijalg.suites.run_suite is not before[
            (id(nijalg.suites), "run_suite")
        ]
        assert nijalg.DendriformContext.prec.__wrapped__ is before[
            (id(nijalg.DendriformContext), "prec")
        ]
        assert "__wrapped__" in vars(nijalg.TensorElement.__str__)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_add_up_to_the_root_span():
    ops = workloads.inputs("eval-mixed", 3, 0)[:60] + workloads.inputs("identity-sweep", 0, 0)[-1:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer:
            workloads.run_batch(nijalg, "eval-mixed", ops[:-1])
            workloads.run_batch(nijalg, "identity-sweep", ops[-1:])
    finally:
        tracer.uninstall()
    _, start, end, _ = tracer.spans[0]
    assert sum(tracer.self_times()) == end - start
    metrics = tracer.metrics()
    layers = [f"{layer}.self_s" for layer in tracing.LAYERS] + ["trace.root_self_s"]
    assert abs(sum(metrics[k] for k in layers) - metrics["trace.root_s"]) < 1e-6
    assert metrics["expr.parse.calls"] == 60 and metrics["oracle.calls"] > 0


def test_reference_agrees_with_the_cli():
    inputs = evalgen.generate(7, 0)[:150]
    expected = evalgen.expected(inputs)
    ops = [(str(i), (text, lam)) for i, (text, lam, _) in enumerate(inputs)]
    _, records = workloads.run_batch(nijalg, "eval-mixed", ops)
    for (_, _, outcome, _), (code, out), (text, _, _) in zip(records, expected, inputs):
        if outcome[0] == "raised":  # over-deep nesting before it exits 2
            assert outcome[1] == "RecursionError" and text.startswith("((((")
        else:
            assert outcome == [code, workloads.digest(out)], text


def _batch_with(workload, seed, replace):
    """A batch whose records match the expectations, except at `replace`."""
    want = workloads.expected(workload, seed, 0)
    records = [[str(i), 1.0, replace.get(i, expect), 1] for i, expect in enumerate(want)]
    return [{"batch": 0, "records": records}]


def test_only_deep_nesting_may_raise_without_a_wrong_output():
    inputs = evalgen.generate(1, 0)
    valid = next(i for i, (_, _, node) in enumerate(inputs) if node is not None)
    deep = next(i for i, (text, _, _) in enumerate(inputs) if text.startswith("(((("))
    raised = ["raised", "RecursionError"]

    assert run.verify("eval-mixed", 1, _batch_with("eval-mixed", 1, {}))[1:3] == (0, 0)
    assert run.verify("eval-mixed", 1, _batch_with("eval-mixed", 1, {deep: raised}))[1:3] == (1, 0)
    for outcome in (raised, ["raised", "TypeError"]):
        batch = _batch_with("eval-mixed", 1, {valid: outcome})
        assert run.verify("eval-mixed", 1, batch)[1:3] == (1, 1)
    for workload in ("identity-sweep", "universal-k4"):
        batch = _batch_with(workload, 1, {0: raised})
        assert run.verify(workload, 1, batch)[1:3] == (1, 1)


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "nijbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "nijbench/run.py", "--workload", "eval-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
