"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions listed in SPANS with wrappers
that record a span (name, start, end, parent) in memory, everywhere the
package binds them: in the defining module, in every nijalg module that
re-imported them (`from .products import ...`) and, for methods, on the
class.  COUNTED functions are too hot for spans and only count calls.
`uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so children never overlap and their
cover is the sum of their durations; the self times of all spans under the
root therefore add up to the root's duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# layer -> public functions and methods ("Class.method") that get a span
SPANS = {
    "products": (
        "quasi_shuffle", "shuffle", "aug_quasi_shuffle", "mod_quasi_shuffle",
        "aug_mod_quasi_shuffle", "mu_product", "nijenhuis_torsion",
    ),
    "oracle": ("mixed_shuffle", "mod_quasi_shuffle_oracle", "enumerate_shuffles"),
    "dendriform": (
        "DendriformContext.prec", "DendriformContext.succ", "DendriformContext.bullet",
        "DendriformContext.star", "dialgebra_defects", "trialgebra_defects",
        "omega_prec", "omega_succ",
    ),
    "operators": (
        "phi_extend", "universal_property_check", "rb_universal_check",
        "factorization_check", "nijenhuis_defect", "rota_baxter_defect",
        "hochschild_coboundary",
    ),
    "tensor": ("b_plus", "b_minus", "TensorElement.terms", "TensorElement.__str__"),
    "expr": ("tokenize", "parse_expr", "eval_expr", "to_text"),
    "suites": ("run_suite", "universal_sweep", "rb_universal_sweep"),
    "cli": ("main",),
}
LAYERS = tuple(SPANS)

# count-only: Monomial.__mul__ runs millions of times per batch
COUNTED = {"base.mono_mul.calls": ("base", "Monomial.__mul__")}

# span name -> the sub-layer group its self time and calls are reported under
GROUPS = {
    "operators.phi_extend": "operators.phi_extend",
    "operators.universal_property_check": "operators.check",
    "operators.rb_universal_check": "operators.check",
    "operators.factorization_check": "operators.check",
    "operators.nijenhuis_defect": "operators.defect",
    "operators.rota_baxter_defect": "operators.defect",
    "operators.hochschild_coboundary": "operators.defect",
    "expr.tokenize": "expr.tokenize",
    "expr.parse_expr": "expr.parse",
    "expr.eval_expr": "expr.eval",
    "cli.main": "cli.main",
}

ROOT = "root"


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _term_count(result):
    terms = getattr(result, "iterterms", None)
    return len(terms()) if terms is not None else 0


def _count_products(counts, args, kwargs, result, ns):
    counts["products.result_terms"] += _term_count(result)


def _count_shuffles(counts, args, kwargs, result, ns):
    counts["oracle.shuffles"] += len(result)


def _count_phi_words(counts, args, kwargs, result, ns):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["operators.phi_extend.words"] += _term_count(x)


def _count_suite(counts, args, kwargs, result, ns):
    name = args[0] if args else kwargs["name"]
    counts[f"suites.{name}.wall_ns"] += ns
    counts[f"suites.{name}.checks"] += result["checked"]


def _count_sweep(name):
    def hook(counts, args, kwargs, result, ns):
        counts[f"suites.{name}.wall_ns"] += ns
        counts[f"suites.{name}.checks"] += result[0]

    return hook


HOOKS = {
    **{f"products.{fn}": _count_products for fn in SPANS["products"]},
    "oracle.enumerate_shuffles": _count_shuffles,
    "operators.phi_extend": _count_phi_words,
    "suites.run_suite": _count_suite,
    "suites.universal_sweep": _count_sweep("universal_sweep"),
    "suites.rb_universal_sweep": _count_sweep("rb_universal_sweep"),
}


class Tracer:
    """In-memory spans and counts for one batch."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self.current = -1
        self.counts = Counter()
        self._patches = []

    # ---- wrapping ----

    def _span_wrapper(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            parent = tracer.current
            spans.append(None)
            tracer.current = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, end - start)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every SPANS and COUNTED target wherever nijalg binds it."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "nijalg" or name.startswith("nijalg.")
        }
        rebind = {}  # id(module-level original) -> (original, wrapper)
        for layer, qualnames in SPANS.items():
            module = modules[f"nijalg.{layer}"]
            for qualname in qualnames:
                owner, attr = _resolve(module, qualname)
                original = owner.__dict__[attr]
                name = f"{layer}.{qualname}"
                wrapper = self._span_wrapper(name, original, HOOKS.get(name))
                if owner is module:
                    rebind[id(original)] = (original, wrapper)
                else:
                    self._patch(owner, attr, wrapper)
        for metric, (layer, qualname) in COUNTED.items():
            owner, attr = _resolve(modules[f"nijalg.{layer}"], qualname)
            self._patch(owner, attr, self._count_wrapper(metric, owner.__dict__[attr]))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- the root span ----

    def __enter__(self):
        if self.spans:
            raise RuntimeError("the root span must be the first span")
        self.spans.append(None)
        self.current = 0
        self._root_start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.current = -1
        self.spans[0] = (ROOT, self._root_start, end, -1)
        return False

    # ---- results ----

    def self_times(self):
        """Self time in ns of every span, in recording order."""
        cover = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        return [end - start - cover[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def metrics(self):
        """Per-layer calls and self seconds, plus the hook counts."""
        ns = Counter()
        calls = Counter()
        for (name, _, _, _), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            ns[layer] += own
            calls[layer] += 1
            group = GROUPS.get(name)
            if group is not None:
                ns[group] += own
                calls[group] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = ns[layer] / 1e9
        for group in sorted(set(GROUPS.values())):
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = ns[group] / 1e9
        for key, value in sorted(self.counts.items()):
            if key.endswith(".wall_ns"):
                out[key[: -len("wall_ns")] + "wall_s"] = value / 1e9
            else:
                out[key] = value
        _, start, end, _ = self.spans[0]
        out["trace.root_s"] = (end - start) / 1e9
        out["trace.root_self_s"] = ns[ROOT] / 1e9
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Write the spans as JSON lines [name, start_ns, end_ns, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
