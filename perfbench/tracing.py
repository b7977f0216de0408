"""Spans around prooflab's public functions, recorded from outside the package.

Wrappers are installed on every module attribute a function is bound to
(``algorithms`` imports its own ``resolvent`` and ``yosida``), and removed
afterwards.  Only the outermost call into a function opens a span; nested
calls into the same function (``evaluate`` recurses hundreds of thousands of
times per oracle pass) are counted but get no span.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples until the run writes them out.

Leaf functions called from inside another layer hundreds of thousands of
times a pass (``evaluate`` from every atom) are timed but not kept as spans:
their time is added to their parent span's leaf time and to their own busy
total, which keeps a traced oracle pass at tens of megabytes.
"""

from __future__ import annotations

import collections
import threading
import time

# (layer, span name, [(module, attribute) the function is bound to])
TRACED = [
    ("cli", "cli.main", [("cli", "main")]),
    ("operator_lab", "operator_lab.build_catalog", [("operator_lab", "build_catalog")]),
    ("operator_lab", "operator_lab.resolvent",
     [("operator_lab", "resolvent"), ("algorithms", "resolvent")]),
    ("operator_lab", "operator_lab.yosida", [("operator_lab", "yosida"), ("algorithms", "yosida")]),
    ("operator_lab", "operator_lab.check.class", [("operator_lab", "check_operator_class")]),
    ("operator_lab", "operator_lab.check.resolvent",
     [("operator_lab", "check_resolvent_properties")]),
    ("operator_lab", "operator_lab.check.min_selection",
     [("operator_lab", "check_minimal_norm_selection")]),
    ("operator_lab", "operator_lab.check.closedness", [("operator_lab", "graph_closedness_check")]),
    ("majorization", "majorization.bobs_uniform_majorant",
     [("majorization", "bobs_uniform_majorant")]),
    ("algorithms", "algorithms.proximal_point", [("algorithms", "proximal_point")]),
    ("algorithms", "algorithms.moudafi_iteration", [("algorithms", "moudafi_iteration")]),
    ("algorithms", "algorithms.serialize.to_json", [("algorithms.IterationTrace", "to_json")]),
    ("algorithms", "algorithms.serialize.to_csv", [("algorithms.IterationTrace", "to_csv")]),
    ("term_calculus", "term_calculus.reduce_term", [("term_calculus", "reduce_term")]),
    ("term_calculus", "term_calculus.typecheck", [("term_calculus", "typecheck")]),
    ("term_calculus", "term_calculus.evaluate",
     [("term_calculus", "evaluate"), ("formula_engine", "evaluate")]),
    ("term_calculus", "term_calculus.enumerate_values",
     [("term_calculus", "enumerate_values"), ("formula_engine", "enumerate_values")]),
    ("formula_engine", "formula_engine.check_interpretation_soundness",
     [("formula_engine", "check_interpretation_soundness")]),
    ("formula_engine", "formula_engine.eval_dialectica", [("formula_engine", "eval_dialectica")]),
    ("formula_engine", "formula_engine.eval_formula", [("formula_engine", "eval_formula")]),
    ("formula_engine", "formula_engine.translate.negative_translation",
     [("formula_engine", "negative_translation")]),
    ("formula_engine", "formula_engine.translate.dialectica", [("formula_engine", "dialectica")]),
    ("formula_engine", "formula_engine.parse_formula", [("formula_engine", "parse_formula")]),
    ("formula_engine", "formula_engine.delta_recognize", [("formula_engine", "delta_recognize")]),
    ("real_codes", "real_codes.canonical_rep", [("real_codes", "canonical_rep")]),
    ("real_codes", "real_codes.rat_value", [("real_codes", "rat_value")]),
    ("real_codes", "real_codes.pair_j", [("real_codes", "pair_j")]),
    ("real_codes", "real_codes.unpair_j", [("real_codes", "unpair_j")]),
    ("real_codes", "real_codes.compare_at", [("real_codes", "compare_at")]),
    ("real_codes", "real_codes.real_arith", [("real_codes", "real_arith")]),
    ("finite_types", "finite_types.parse_type", [("cli", "parse_type")]),
    ("finite_types", "finite_types.classify", [("cli", "classify")]),
]

LAYER_OF = {name: layer for layer, name, _ in TRACED}
LEAVES = {"term_calculus.evaluate", "term_calculus.enumerate_values", "real_codes.pair_j",
          "real_codes.unpair_j", "real_codes.rat_value", "formula_engine.eval_formula"}


class Tracer:
    """Records spans and call counts while installed.

    ``oplab verify --jobs 2`` runs check suites on a worker thread, so the
    open-span stack, the nesting depth and the call counts are per thread.
    A worker's first span hangs under the main thread's outermost span.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.op = -1
        self.root = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[collections.Counter] = []
        self._saved: list[tuple] = []
        self.leaf_busy: collections.Counter = collections.Counter()
        self.leaf_layer_busy: collections.Counter = collections.Counter()
        self.leaf_child: collections.Counter = collections.Counter()  # parent index -> s

    @property
    def calls(self) -> collections.Counter:
        total: collections.Counter = collections.Counter()
        for c in self._counters:
            total.update(c)
        return total

    def _state(self):
        local = self._local
        if not hasattr(local, "open"):
            local.open, local.names, local.leaves = [], [], []
            local.depth = collections.Counter()
            local.calls = collections.Counter()
            self._counters.append(local.calls)
        return local

    def _target(self, path: str):
        head, _, attr = path.partition(".")
        obj = self.modules[head]
        return getattr(obj, attr) if attr else obj

    def install(self) -> None:
        for _, name, bindings in TRACED:
            for path, attr in bindings:
                owner = self._target(path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                wrap = self._wrap_leaf if name in LEAVES else self._wrap
                setattr(owner, attr, wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, state, clock, lock = self.spans, self._state, time.perf_counter, self._lock
        main = threading.main_thread()

        def traced(*args, **kwargs):
            local = state()
            local.calls[name] += 1
            if local.depth[name]:
                return fn(*args, **kwargs)
            local.depth[name] += 1
            if local.open:
                parent = local.open[-1]
            else:
                parent = -1 if threading.current_thread() is main else self.root
            with lock:
                index = len(spans)
                spans.append(None)
            local.open.append(index)
            local.names.append(name)
            if parent == -1:
                self.root = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                local.open.pop()
                local.names.pop()
                local.depth[name] -= 1
                spans[index] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, name: str, fn):
        state, clock, layer = self._state, time.perf_counter, LAYER_OF[name]
        busy, layer_busy, child = self.leaf_busy, self.leaf_layer_busy, self.leaf_child

        def traced(*args, **kwargs):
            local = state()
            local.calls[name] += 1
            if local.depth[name]:
                return fn(*args, **kwargs)
            local.depth[name] += 1
            outer = local.leaves[-1] if local.leaves else (local.names[-1] if local.names else None)
            local.leaves.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                local.depth[name] -= 1
                local.leaves.pop()
                busy[name] += dur
                if local.open and not local.leaves:  # time inside an outer leaf is its own
                    child[local.open[-1]] += dur
                if outer is None or LAYER_OF[outer] != layer:
                    layer_busy[layer] += dur

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        self.spans.clear()
        for c in (*self._counters, self.leaf_busy, self.leaf_layer_busy, self.leaf_child):
            c.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans: list[tuple], leaves: dict) -> dict:
    """Per span name: outermost busy seconds and self seconds (duration
    minus the part of it its direct child spans and leaf calls cover)."""
    children: dict[int, list] = collections.defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    busy: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    layer_busy: collections.Counter = collections.Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        busy[name] += dur
        self_s[name] += dur - _covered(children.get(i, [])) - leaves["child"].get(i, 0.0)
        # a layer is busy once per span not already inside the same layer
        if parent < 0 or LAYER_OF[spans[parent][0]] != LAYER_OF[name]:
            layer_busy[LAYER_OF[name]] += dur
    busy.update(leaves["busy"])
    layer_busy.update(leaves["layer_busy"])
    return {"busy": busy, "self": self_s, "layer_busy": layer_busy}


def write_spans(path, spans: list[tuple]) -> None:
    """One span a line: name, start, end, parent index, op index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
