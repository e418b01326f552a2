"""Benchmark-side tracing: layer spans around library calls, and a counting observer.

``SpanTracer.installed()`` wraps the public functions and methods of each
library module while the traced replay runs, and restores them afterwards;
nothing in the library changes.  A layer is a module of the package.

* A call to a public module-level function becomes a span record:
  ``(span_id, name, layer, start_ns, end_ns, parent_id, op_id)``, where the
  parent is the innermost enclosing recorded span.  Records stay in a
  list in memory and are written out when the run ends.
* Calls to public methods (``Vector.get``, ``TraceRecorder.element_read``,
  ``VectorInterval`` validation and the like) run millions of times, so they
  are timed and charged to their layer like any span but leave no record.

Self time of a call is its duration minus the durations of the wrapped calls
made inside it, and is summed per layer as the calls end.
"""

from __future__ import annotations

import contextlib
import inspect
import time

LAYERS = ("intervals", "vectors", "algorithms", "trace", "cli", "selftest")


class SpanTracer:
    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list[tuple] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.op_id = None
        self._stack: list[list] = []  # [span id, child ns, recorded?] per open call
        self._next_id = 0

    def _wrap(self, fn, name: str, layer: str, record: bool):
        stack, self_ns, calls, spans = self._stack, self.self_ns, self.calls, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0, record]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_ns[layer] += took - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += took
                if record:
                    parent = next((f[0] for f in reversed(stack) if f[2]), None)
                    spans.append((span_id, name, layer, start, end, parent, self.op_id))

        return traced

    def _targets(self):
        """Yield ``(owner, attribute, function, name, layer, record)`` for each public callable."""
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}", layer, True
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or meth == "__post_init__"
                        ):
                            yield obj, meth, fn, f"{layer}.{attr}.{meth}", layer, False

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public callable, including the copies other modules imported."""
        replaced = {}
        restore = []
        for owner, attr, fn, name, layer, record in list(self._targets()):
            replaced[fn] = self._wrap(fn, name, layer, record)
            restore.append((owner, attr, fn))
            setattr(owner, attr, replaced[fn])
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, type) and callable(obj) and obj in replaced:
                    restore.append((module, attr, obj))
                    setattr(module, attr, replaced[obj])
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)


class CountingObserver:
    """Implements the library's observer protocol and only counts.

    Attach it as a ``Vector``'s ``observer`` (or pass it to ``fold_rl`` /
    ``fold_lr``): every checked read, write and swap, every fold visit and
    every out-of-bounds attempt is counted; the walk itself is unchanged.
    """

    FIELDS = ("checked_reads", "checked_writes", "checked_swaps", "fold_visits", "oob_attempts")

    def __init__(self):
        self.checked_reads = self.checked_writes = self.checked_swaps = 0
        self.fold_visits = self.oob_attempts = 0

    def counts(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def interval_visit(self, index, before, direction):
        self.fold_visits += 1

    def element_visit(self, vec, index, elem, before, direction):
        self.fold_visits += 1

    def interval_stop(self, interval, direction):
        pass

    def element_read(self, vec, index, value, in_bounds):
        if in_bounds:
            self.checked_reads += 1
        else:
            self.oob_attempts += 1

    def element_written(self, vec, index, value, in_bounds):
        if in_bounds:
            self.checked_writes += 1
        else:
            self.oob_attempts += 1

    def elements_swapped(self, vec, i, j, in_bounds):
        if in_bounds:
            self.checked_swaps += 1
        else:
            self.oob_attempts += 1
