"""In-memory span tracer that wraps privkg's public calls from the outside.

``Tracer.install()`` swaps selected functions and methods of the imported
``privkg`` modules for timing wrappers; ``uninstall()`` puts the originals
back, so untraced phases run the unmodified program. A module-level function
is replaced in every privkg module that imported it by name. Hooks that a
later version of the program no longer has are skipped and listed in
``missing``.

A span is ``(name, start, end, parent, request)``. Spans stay in a list
until ``summary()`` or ``dump()`` at the end of the run.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time

import privkg.autodiff
import privkg.benchmark
import privkg.cli
import privkg.encoders
import privkg.evaluation
import privkg.graph
import privkg.queries
import privkg.symbolic
import privkg.synthetic
import privkg.training

MODULES = (privkg.autodiff, privkg.benchmark, privkg.cli, privkg.encoders,
           privkg.evaluation, privkg.graph, privkg.queries, privkg.symbolic,
           privkg.synthetic, privkg.training)

# (module, attribute, span name): module-level public functions
FUNCTION_SPANS = (
    (privkg.synthetic, "make_synthetic_kg", "synthetic.make_synthetic_kg"),
    (privkg.graph, "load_triples", "graph.load_triples"),
    (privkg.graph, "write_triples", "graph.write_triples"),
    (privkg.benchmark, "split_edges", "benchmark.split_edges"),
    (privkg.benchmark, "sample_queries", "benchmark.sample_queries"),
    (privkg.benchmark, "write_benchmark", "benchmark.write_benchmark"),
    (privkg.symbolic, "evaluate", "symbolic.evaluate"),
    (privkg.symbolic, "evaluate_tagged", "symbolic.evaluate_tagged"),
    (privkg.queries, "to_dnf", "queries.to_dnf"),
    (privkg.training, "public_loss", "training.public_loss"),
    (privkg.training, "privacy_loss", "training.privacy_loss"),
    (privkg.evaluation, "rank", "evaluation.rank"),
)

# (class, method, span name): methods, patched on every class of the module
# that defines them, so subclass overrides are wrapped too
METHOD_SPANS = (
    (privkg.graph.KnowledgeGraph, "with_triples", "graph.view_build"),
    (privkg.graph.KnowledgeGraph, "mark_private", "graph.view_build"),
    (privkg.graph.KnowledgeGraph, "public_view", "graph.view_build"),
    (privkg.encoders.Encoder, "encode", "encoders.encode"),
    (privkg.encoders.Encoder, "scores_all", "encoders.scores_all"),
    (privkg.encoders.Encoder, "log_probabilities", "encoders.log_probabilities"),
    (privkg.encoders.Encoder, "perturb", "encoders.perturb"),
    (privkg.encoders.Encoder, "post_step", "encoders.post_step"),
    (privkg.autodiff.Tensor, "backward", "autodiff.backward"),
    (privkg.autodiff.ParameterStore, "zero_grad", "autodiff.zero_grad"),
    (privkg.autodiff.ParameterStore, "load", "autodiff.checkpoint_load"),
    (privkg.autodiff.Adam, "step", "autodiff.optimizer_step"),
    (privkg.autodiff.SGD, "step", "autodiff.optimizer_step"),
)

# span name -> counter of the items its call returned
RESULT_COUNTS = {"benchmark.sample_queries": "benchmark.sample_accepted"}

# call counters without spans: hot lookups, where a span per call would
# dominate what it measures. ``_sample_template`` is the sampler's one
# attempt; it is private, so its absence is tolerated like any other hook.
COUNTERS = (
    (privkg.graph.KnowledgeGraph, "neighbors", "graph.neighbors_calls"),
    (privkg.benchmark, "_sample_template", "benchmark.sample_attempts"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self.request = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._gc_start = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.request])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _span_wrapper(self, fn, name):
        result_counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if result_counter:
                self.count(result_counter, len(result))
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, module, attr, name, make):
        original = module.__dict__.get(attr)
        if original is None:
            self.missing.add("%s.%s" % (module.__name__, attr))
            return
        wrapped = make(original, name)
        for mod in MODULES:
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapped)

    def _wrap_method(self, base, attr, name, make):
        module = sys.modules[base.__module__]
        owners = [cls for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, base) and attr in cls.__dict__]
        if not owners:
            self.missing.add("%s.%s" % (base.__qualname__, attr))
        for cls in owners:
            self._patch(cls, attr, make(cls.__dict__[attr], name))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in FUNCTION_SPANS:
            self._wrap_function(owner, attr, name, self._span_wrapper)
        for owner, attr, name in METHOD_SPANS:
            self._wrap_method(owner, attr, name, self._span_wrapper)
        for owner, attr, name in COUNTERS:
            if isinstance(owner, type):
                self._wrap_method(owner, attr, name, self._count_wrapper)
            else:
                self._wrap_function(owner, attr, name, self._count_wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")
