"""Per-layer microbenchmarks: one timed call pattern per public entry point.

Each case times a loop over one layer's public functions on seeded inputs
and, where the layer adds safety to a plain-list operation, the same loop
over a plain list, giving a ``*_tax_x`` ratio.  Cases also check their
results; a wrong result is reported as a problem, never timed silently.
``LayerBench.run`` repeats all cases until its time budget is spent and
reports the median of each metric.

The end-to-end metric each group should move, and on which workload:

* ``vectors`` get/set/swap: ops_per_s, latencies and safety_tax_x on
  ``sort`` (on ``linear`` through merge and dot); ``vinterval_new_ns``:
  ops_per_s on ``sort`` once insertion windows are validated per step.
* ``vectors.vfold_*``, ``intervals.*`` and ``algorithms`` merge/dot/avg:
  ops_per_s and safety_tax_x on ``linear``; ``algorithms.insort_*``:
  latency_tail_ms and safety_tax_x on ``sort``.
* ``trace.*``: ops_per_s and peak_rss_mb on ``cli``; ``cli.*``: ops_per_s,
  latencies and setup_s on ``cli``; ``selftest.run_ms``: latency_tail_ms on
  ``cli``.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
import tracemalloc

import twins
from workloads import add, literal, weighted

from vecintervals import algorithms, cli, intervals, selftest, trace, vectors

clock = time.perf_counter_ns
MIN_REPS = 3


def _timed(fn, *args):
    start = clock()
    result = fn(*args)
    return clock() - start, result


class LayerBench:
    """Seeded fixtures for every case, and the problems the cases found."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n = 2_000
        self.access = [rng.uniform(-1, 1) for _ in range(n)]
        self.index = [rng.randrange(n) for _ in range(20_000)]
        self.pairs = [(i, rng.randrange(n)) for i in self.index]
        self.windows = []
        for _ in range(10_000):
            low = rng.randrange(n + 1)
            self.windows.append((low, rng.randrange(low - 1, n), n))
        self.long = [rng.uniform(-1, 1) for _ in range(100_000)]
        self.unsorted = [rng.uniform(-1e3, 1e3) for _ in range(300)]
        self.sorted_a = sorted(rng.uniform(-1, 1) for _ in range(20_000))
        self.sorted_b = sorted(rng.uniform(-1, 1) for _ in range(20_000))
        self.dot_a = [rng.uniform(-1, 1) for _ in range(50_000)]
        self.dot_b = [rng.uniform(-1, 1) for _ in range(50_000)]
        self.traced = [rng.randrange(1000) for _ in range(60)]
        self.tokens = literal(rng.uniform(-1e3, 1e3) for _ in range(10_000))
        self.problems: list[str] = []

    def _expect(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    # -- cases: each returns {metric: value} for one repetition ----------------

    def vectors_access(self) -> dict:
        v, lst = vectors.Vector(self.access), list(self.access)
        get, vset, swap = v.get, v.set, v.swap
        index, pairs = self.index, self.pairs

        def checked_gets():
            for i in index:
                get(i)

        def list_reads():
            for i in index:
                lst[i]

        def checked_sets():
            for i in index:
                vset(i, 0.5)

        def checked_swaps():
            for i, j in pairs:
                swap(i, j)

        def list_swaps():
            for i, j in pairs:
                lst[i], lst[j] = lst[j], lst[i]

        t_get, _ = _timed(checked_gets)
        t_read, _ = _timed(list_reads)
        t_swap, _ = _timed(checked_swaps)
        t_lswap, _ = _timed(list_swaps)
        self._expect(v.to_list() == lst, "vectors: checked swaps diverged from list swaps")
        t_set, _ = _timed(checked_sets)
        count = len(index)
        return {
            "vectors.get_ns": t_get / count,
            "vectors.set_ns": t_set / count,
            "vectors.swap_ns": t_swap / count,
            "vectors.get_tax_x": t_get / t_read,
            "vectors.swap_tax_x": t_swap / t_lswap,
        }

    def vector_intervals(self) -> dict:
        make, windows = vectors.VectorInterval, self.windows

        def validate():
            for low, high, n in windows:
                make(low, high, n)

        took, _ = _timed(validate)
        return {"vectors.vinterval_new_ns": took / len(windows)}

    def folds(self) -> dict:
        xs, n = self.long, len(self.long)
        v = vectors.Vector(xs)
        t_vfold, got = _timed(vectors.vfold_lr, v, v.full_interval(), 0.0, weighted)
        self._expect(got == twins.vfold_lr(xs, 0, n - 1, weighted, 0.0), "vectors: vfold_lr")
        t_fold, got = _timed(intervals.fold_rl, intervals.Interval(0, n - 1), 0, add)

        def plain_fold():
            acc = 0
            for i in range(n):
                acc = add(i, acc)
            return acc

        t_plain, want = _timed(plain_fold)
        self._expect(got == want, "intervals: fold_rl")
        return {
            "vectors.vfold_ns_per_elem": t_vfold / n,
            "intervals.fold_ns_per_index": t_fold / n,
            "intervals.fold_tax_x": t_fold / t_plain,
        }

    def algorithm_calls(self) -> dict:
        out = {}
        v = vectors.Vector(self.unsorted)
        took, _ = _timed(algorithms.insertion_sort_in_place, v)
        twin_took, want = _timed(twins.insort, list(self.unsorted))
        self._expect(v.to_list() == want, "algorithms: insertion_sort_in_place")
        out["algorithms.insort_ms"] = took / 1e6
        out["algorithms.insort_tax_x"] = took / twin_took
        a, b = self.sorted_a, self.sorted_b
        cases = (
            ("merge", algorithms.merge_sorted, twins.merge, (a, b), len(a) + len(b)),
            ("dot", algorithms.dot_product, twins.dot, (self.dot_a, self.dot_b), len(self.dot_a)),
            ("avg", algorithms.avg_vector, twins.avg, (self.long,), len(self.long)),
        )
        for name, fn, twin, args, elems in cases:
            took, got = _timed(fn, *(vectors.Vector(x) for x in args))
            twin_took, want = _timed(twin, *args)
            got = got.to_list() if isinstance(got, vectors.Vector) else got
            self._expect(got == want, f"algorithms: {name} differs from its twin")
            out[f"algorithms.{name}_ns_per_elem"] = took / elems
            out[f"algorithms.{name}_tax_x"] = took / twin_took
        return out

    def tracing(self) -> dict:
        xs = self.traced
        untraced, _ = _timed(algorithms.insertion_sort_in_place, vectors.Vector(xs))
        took, run = _timed(trace.traced_run, "insort", (vectors.Vector(xs),))
        self._expect(run.ok and run.result.to_list() == sorted(xs), "trace: traced_run insort")
        events = len(run.events)
        t_chain, chain = _timed(trace.trace_interval, 0, 1_999)
        self._expect(len(chain) == 2_001, "trace: trace_interval chain length")
        buf = io.StringIO()
        argv = ["trace", "insort", "--a=" + literal(xs), "--machine"]
        with contextlib.redirect_stdout(buf):
            t_main, code = _timed(cli.main, argv)
        self._expect(code == 0 and buf.getvalue().count("\n") == events + 1,
                     "cli: trace insort --machine")
        t_parse, parsed = _timed(cli.parse_vector_literal, self.tokens)
        self._expect(len(parsed) == 10_000, "cli: parse_vector_literal")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t_small, code = _timed(cli.main, ["sum-interval", "--low=1", "--high=0", "--machine"])
        self._expect(code == 0 and buf.getvalue() == '{"kind": "result", "value": 0}\n',
                     "cli: sum-interval on an empty interval")
        return {
            "trace.event_us": (took - untraced) / events / 1e3,
            "trace.traced_over_untraced_x": took / untraced,
            "trace.interval_step_us": t_chain / len(chain) / 1e3,
            "cli.emit_us_per_event": (t_main - took) / events / 1e3,
            "cli.parse_ns_per_token": t_parse / 10_000,
            "cli.main_overhead_us": t_small / 1e3,
        }

    def selftest_suite(self) -> dict:
        took, results = _timed(selftest.run_reference_cases)
        self._expect(bool(results) and all(r.passed for r in results), "selftest: a case failed")
        return {"selftest.run_ms": took / 1e6}

    def bytes_per_event(self) -> float:
        """Peak traced-run allocation per event, measured once under tracemalloc."""
        tracemalloc.start()
        try:
            run = trace.traced_run("insort", (vectors.Vector(self.traced),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / len(run.events)

    def run(self, seconds: float) -> dict:
        """Median of each metric over repetitions of every case, for ``seconds``."""
        cases = (self.vectors_access, self.vector_intervals, self.folds,
                 self.algorithm_calls, self.tracing, self.selftest_suite)
        samples: dict[str, list[float]] = {}
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < MIN_REPS or time.perf_counter() < deadline:
            for case in cases:
                for name, value in case().items():
                    samples.setdefault(name, []).append(value)
            reps += 1
        out = {name: statistics.median(values) for name, values in samples.items()}
        out["trace.bytes_per_event"] = self.bytes_per_event()
        return out
