"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (the
functions and methods named in :data:`LAYERS`) for the length of one
traced pass, then puts the originals back. Nothing inside ``src/``
changes. Each wrapped call is a span; a layer's *self time* is the
span's duration minus the time covered by the spans it contains, so
the self times of nested layers add up without double counting.
Spans are kept in memory and written out by :meth:`LayerTracer.dump`
at the end of the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _count_lowered(counts, args, result, token):
    counts["il.instructions"] += result.total_code_size()


def _size_before(args):
    return args[0].total_code_size()


def _count_optimized(counts, args, result, token):
    counts["opt.calls"] += 1
    counts["opt.il_removed"] += token - args[0].total_code_size()


def _count_profiled(counts, args, result, token):
    counts["profiler.runs"] += len(args[1])


def _count_executed(counts, args, result, token):
    counts["vm.executions"] += 1
    counts["vm.il"] += result.counters.il


def _count_inlined(counts, args, result, token):
    counts["inliner.arcs"] += len(result.decisions)
    counts["inliner.expansions"] += len(result.records)


def _count_compiled(counts, args, result, token):
    counts["frontend.calls"] += 1


def _is_callgraph_phase(args):
    return args[0].name == "callgraph"


#: (layer, module, attribute, hooks). ``attribute`` is ``name`` for a
#: module-level function (re-bound in every ``repro`` module that
#: imported it) or ``Class.method``. Hooks: ``count`` adds to the
#: layer counts after a call, ``before`` takes a token it receives,
#: and ``when`` limits the span to matching calls.
LAYERS = (
    ("frontend.preprocess", "repro.compiler", "compile_to_analysis",
     {"count": _count_compiled}),
    ("frontend.preprocess", "repro.frontend.preprocessor",
     "Preprocessor.process", {}),
    ("frontend.parse", "repro.frontend.parser", "parse_translation_unit", {}),
    ("frontend.analyze", "repro.frontend.sema", "analyze", {}),
    ("il.lower", "repro.il.lowering", "lower_unit", {"count": _count_lowered}),
    ("il.verify", "repro.il.verifier", "verify_module", {}),
    ("opt", "repro.opt.pipeline", "optimize_module",
     {"before": _size_before, "count": _count_optimized}),
    ("profiler", "repro.profiler.profile", "profile_module",
     {"count": _count_profiled}),
    ("vm.link", "repro.vm.machine", "Machine.__init__", {}),
    ("vm.execute", "repro.vm.machine", "Machine.run",
     {"count": _count_executed}),
    ("callgraph", "repro.callgraph.build", "build_call_graph", {}),
    # The inliner's call-graph phase holds its own reference to
    # build_call_graph, so it is timed at the pass boundary instead.
    ("callgraph", "repro.pipeline.passes", "ModulePass.run",
     {"when": _is_callgraph_phase}),
    ("inliner", "repro.inliner.manager", "InlineExpander.run",
     {"count": _count_inlined}),
    ("inliner", "repro.inliner.classify", "classify_sites", {}),
    ("check", "repro.experiments.pipeline", "compare_outputs", {}),
)

#: Layer names in report order; ``driver`` is the per-item pipeline
#: driver the workload wraps itself (``run_benchmark`` for the suite).
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS)) + ("driver",)


class LayerTracer:
    """Collects spans, layer self times and layer counts for one pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: (layer, function, start, duration, parent span index or -1)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._origin = perf_counter()

    def wrap(self, layer: str, fn, count=None, before=None, when=None):
        """Return ``fn`` wrapped in a span of ``layer``."""
        label = getattr(fn, "__qualname__", layer)
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self_s[layer] += duration - frame[1]
                spans[index] = (layer, label, start - self._origin, duration, parent)
            if count is not None:
                count(counts, args, result, token)
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        for layer, module_name, attribute, hooks in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._set(owner, name, self.wrap(layer, original, **hooks), original)
                continue
            original = getattr(module, name)
            wrapped = self.wrap(layer, original, **hooks)
            for other in list(sys.modules.values()):
                if (
                    getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, name, None) is original
                ):
                    self._set(other, name, wrapped, original)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name, wrapped, original) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name, start, duration, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "layer": layer,
                    "fn": name, "start_s": start, "dur_s": duration,
                }) + "\n")
