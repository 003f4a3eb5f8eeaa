"""Per-layer timing by wrapping the program's public functions.

``Tracer.install`` replaces every public function of the given modules, and
``Graph.from_edges`` and ``Graph.degrees``, with a wrapper that records a
span: name, start, end and the span that caused it.  Calls made through
module attributes, including calls inside one module such as
``central_point_dominance`` -> ``betweenness`` and ``generate`` ->
``Graph.from_edges``, go through the wrappers, so nested work is attributed
to the innermost layer.

Busy seconds ``<module>.<function>.s`` are self time: the span's duration
minus the part covered by its child spans.  The self times of all spans add
up to the duration of the outermost spans, so the per-layer figures account
for a pass's wall time without counting anything twice.  ``cli.self.s`` is
the self time of all ``cli`` spans together.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

COUNTS = (
    "netgen.stubs",
    "netgen.edges",
    "netgen.dropped_stubs",
    "metrics.components.count",
    "metrics.vertex_pairs",
)


class Tracer:
    def __init__(self):
        self.names = set()
        self._stack = []
        self._restore = []
        self.reset()

    def reset(self):
        """Forget everything recorded; called before each traced pass."""
        self.busy = {}
        self.calls = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []
        self._origin = time.perf_counter()

    def _count(self, name, value):
        self.counts[name] += int(value)

    def install(self, modules, graph_cls):
        after = {
            "metrics.components": lambda out, g: self._count(
                "metrics.components.count", len(out)
            ),
            "metrics.global_efficiency": lambda out, g, *a, **k: self._count(
                "metrics.vertex_pairs", g.n * (g.n - 1)
            ),
        }
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "netgen.generate":
                    wrapper = self._wrap_generate(fn, module.Model)
                else:
                    wrapper = self._wrap(name, fn, after.get(name))
                self._patch(module, attr, wrapper)
        from_edges = inspect.getattr_static(graph_cls, "from_edges").__func__
        self._patch(
            graph_cls, "from_edges",
            staticmethod(self._wrap("netgen.Graph.from_edges", from_edges)),
        )
        self._patch(
            graph_cls, "degrees", self._wrap("netgen.Graph.degrees", graph_cls.degrees)
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, after=None):
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._timed(name, fn, args, kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _wrap_generate(self, fn, model_enum):
        """``netgen.generate`` is timed per model and counts stubs and edges."""
        for model in model_enum:
            self.names.add(f"netgen.generate.{model.value}")

        @functools.wraps(fn)
        def generate(seq, model, *args, **kwargs):
            name = f"netgen.generate.{model_enum(model).value}"
            g = self._timed(name, fn, (seq, model) + args, kwargs)
            stubs = int(np.asarray(seq, dtype=np.int64).sum())
            self._count("netgen.stubs", stubs)
            self._count("netgen.edges", len(g.edges))
            self._count("netgen.dropped_stubs", stubs - 2 * len(g.edges))
            return g

        return generate

    def _timed(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans), 0.0]  # span index, time covered by children
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.busy[name] = self.busy.get(name, 0.0) + duration - frame[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent is not None:
                parent[1] += duration
            self.spans[frame[0]] = {
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent[0] if parent is not None else None,
            }

    def metrics(self):
        """Per-layer figures of everything recorded since the last reset.

        Every wrapped function appears, with zero busy time and zero calls
        when the workload never reached it.
        """
        out = {}
        for name in sorted(self.names):
            out[f"{name}.s"] = self.busy.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out["cli.self.s"] = sum(
            busy for name, busy in self.busy.items() if name.startswith("cli.")
        )
        out.update(self.counts)
        out["trace.layers_s"] = sum(self.busy.values())
        return out
