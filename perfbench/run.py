"""vecintervals benchmark: one seeded workload, timed, checked and reported.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sort,linear,cli} --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2.  One caller runs the workload's operations
in a closed loop, in rounds: each round runs every operation once through
the library and, next to it, once through its plain-list twin (alternating
which goes first), and checks every output.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced replay plus the layer microbenchmarks.  The lines before it are a
readable report, and the run record (seed, Python, CPU count, commit, the
tail percentile and sample count, failing operations, per-op counts, spans)
is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
SETUP_REPS = 9
RSS_PROBES = 3
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
CHILD_TIMEOUT_S = 120

clock = time.perf_counter_ns


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sort", "linear", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-probe", action="store_true",
                   help="internal: run the workload once and print peak RSS")
    return p.parse_args(argv)


def import_seconds(root: Path, module: str) -> float:
    """Cumulative ``-X importtime`` of ``module`` (and its package) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
        if m and m.group(2).split(".")[0] == "vecintervals":
            total_us += int(m.group(1))  # top-level entries only: no leading spaces
    if total_us == 0:
        raise RuntimeError(f"no import time reported for {module}")
    return total_us / 1e6


def read_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One workload's operations, inputs and outcome tally."""

    def __init__(self, wl, work_dir: Path):
        # Imported here: both need the checkout's src/ on sys.path, which main sets.
        import workloads
        from vecintervals import cli

        self.w = workloads
        self.cli = cli
        self.wl = wl
        self.ops = wl.ops
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list] = {}  # op name -> [count, first problem]
        self.bench_problems: list[str] = []
        self.inputs: list[tuple] = []
        self.argvs: list[list[str] | None] = []
        self.lib_ref: dict[int, object] = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Build the input Vectors and write the @files; return the seconds it took."""
        start = time.perf_counter()
        self.inputs = [self.w.build_inputs(op) for op in self.ops]
        if self.wl.files:
            self.work_dir.mkdir(parents=True, exist_ok=True)
            for name, text in self.wl.files.items():
                (self.work_dir / name).write_text(text, encoding="utf-8")
        rel = os.path.relpath(self.work_dir)
        self.argvs = [None if op.argv is None else [a.replace("{dir}", rel) for a in op.argv]
                      for op in self.ops]
        return time.perf_counter() - start

    # -- outcomes -----------------------------------------------------------

    def tally(self, op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            entry = self.failures.setdefault(op.name, [0, problem])
            entry[0] += 1

    # -- one call of each kind ----------------------------------------------

    def fresh_inputs(self, i: int) -> tuple:
        op = self.ops[i]
        return self.w.build_inputs(op) if op.kind in self.w.MUTATES else self.inputs[i]

    def run_op(self, i: int, inputs: tuple):
        """Time one library (or CLI) call; return (ns, raw result, exception or None)."""
        op = self.ops[i]
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    code = self.cli.main(self.argvs[i])
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
                except Exception as exc:  # an escaped error is a failure, not an abort
                    return clock() - start, None, exc
                took = clock() - start
            return took, (code, out.getvalue(), err.getvalue()), None
        start = clock()
        try:
            result = self.w.call(op, inputs)
        except Exception as exc:  # checked against the expected failure below
            return clock() - start, None, exc
        return clock() - start, result, None

    def check(self, i: int, result, exc) -> str | None:
        op = self.ops[i]
        if op.argv is not None:
            if exc is not None:
                return f"cli.main raised {type(exc).__name__}: {exc}"
            return checker.check_cli(op.cli, *result)
        return checker.check_library(self.w.plain(result), exc, op.want)

    def timed_op(self, i: int) -> int:
        """Run operation ``i`` through the library once, check it, return its ns."""
        took, result, exc = self.run_op(i, self.fresh_inputs(i))
        self.tally(self.ops[i], self.check(i, result, exc))
        return took

    def library_pass(self) -> list[int]:
        """Every operation once through the library, checked; per-op ns."""
        return [self.timed_op(i) for i in range(len(self.ops))]

    def run_twin(self, i: int) -> int | None:
        """Time the plain-list twin of operation ``i``; None if it has none.

        Only operations whose library result ``warm_up`` recorded have a twin,
        and the twin's output must equal that result exactly.
        """
        if i not in self.lib_ref:
            return None
        op = self.ops[i]
        args = op.args
        if op.kind in self.w.MUTATES:
            args = tuple(list(a) if isinstance(a, list) else a for a in args)
        start = clock()
        got = self.w.TWINS[op.kind](*args)
        took = clock() - start
        problem = checker.check_twin(self.lib_ref[i], got)
        if problem:
            problem = f"{op.name}: twin rejected: {problem}"
            if problem not in self.bench_problems:
                self.bench_problems.append(problem)
        return took

    def paired_pass(self, twin_first: bool) -> tuple[list[int], int, int]:
        """Every operation through the library, each next to its twin.

        Returns the per-op library ns, the library ns of the operations that
        have a twin, and the twins' ns.
        """
        times, lib_ns, twin_ns = [], 0, 0
        for i in range(len(self.ops)):
            twin = self.run_twin(i) if twin_first else None
            took = self.timed_op(i)
            if not twin_first:
                twin = self.run_twin(i)
            times.append(took)
            if twin is not None:
                lib_ns += took
                twin_ns += twin
        return times, lib_ns, twin_ns

    def warm_up(self) -> None:
        """Record each twin's library reference result, then one checked paired pass."""
        for i, op in enumerate(self.ops):
            if not op.has_twin:
                continue
            try:
                result = self.w.plain(self.w.call(op, self.w.build_inputs(op)))
            except Exception as exc:  # recorded as a failure of that operation
                self.tally(op, f"library call raised {type(exc).__name__}: {exc}")
                continue
            self.tally(op, checker.check_library(result, None, op.want))
            self.lib_ref[i] = result
        self.paired_pass(twin_first=False)

    def report_failures(self, out) -> None:
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"failed_frac {frac:.6g} ratio ({self.failed} of {self.attempted} attempted)",
              file=out)
        for name, (count, problem) in sorted(self.failures.items()):
            print(f"  FAILED {name} x{count}: {problem}", file=out)
        for problem in self.bench_problems:
            print(f"  BENCHMARK PROBLEM {problem}", file=out)


def timed_rounds(bench: Bench, seconds: float) -> dict:
    """Closed loop until ``seconds`` pass, in rounds of one paired pass each.

    Each library call sits next to its twin, and the twin goes first in
    every other round, so both see the same machine state; the safety tax
    is the library time of the twinned operations over all rounds divided
    by the twins' time.
    """
    latencies: list[int] = []
    ops_per_s = []
    lib_total = twin_total = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        times, lib_ns, twin_ns = bench.paired_pass(twin_first=rounds % 2 == 1)
        latencies.extend(times)
        ops_per_s.append(len(times) / (sum(times) / 1e9))
        lib_total += lib_ns
        twin_total += twin_ns
        rounds += 1
    latencies.sort()
    n = len(latencies)
    tail_rank = n - TAIL_BEYOND - 1
    return {
        "rounds": rounds,
        "samples": n,
        "ops_per_s": statistics.median(ops_per_s),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": latencies[tail_rank] / 1e6,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "safety_tax_x": lib_total / twin_total,
        "round_ops_per_s": ops_per_s,
    }


def peak_rss_mb(bench: Bench, root: Path, args) -> float:
    """Peak RSS of a fresh process that sets up and runs the workload's operations once.

    The median of a few such processes: the kernel occasionally backs a
    heap with huge pages, which lifts one process's peak by megabytes.
    """
    peaks = []
    for _ in range(RSS_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--rss-probe"],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        if probe["failed"]:
            bench.bench_problems.append(f"{probe['failed']} operation(s) failed in the RSS probe")
        peaks.append(probe["peak_rss_kb"] / 1024)
    return statistics.median(peaks)


def traced_replay(bench: Bench, package) -> dict:
    """Untraced and span-traced passes of the workload, and self time per layer."""
    from tracing import LAYERS, SpanTracer

    untraced = statistics.median(sum(bench.library_pass()) for _ in range(3))
    tracer = SpanTracer(package)
    times = []
    with tracer.installed():
        for i, op in enumerate(bench.ops):
            inputs = bench.fresh_inputs(i)
            tracer.op_id = i
            took, result, exc = bench.run_op(i, inputs)
            times.append((took, result, exc))
    for i, (took, result, exc) in enumerate(times):
        bench.tally(bench.ops[i], bench.check(i, result, exc))
    traced = sum(t for t, _, _ in times)
    total_self = sum(tracer.self_ns.values())
    return {
        "untraced_ns": untraced,
        "traced_ns": traced,
        "self_ms": {layer: tracer.self_ns[layer] / 1e6 for layer in LAYERS},
        "self_pct": {layer: 100.0 * tracer.self_ns[layer] / total_self for layer in LAYERS},
        "calls": dict(tracer.calls),
        "spans": tracer.spans,
    }


def counting_pass(bench: Bench, workload) -> list[dict]:
    """Replay every library operation with a counting observer on its inputs."""
    from tracing import CountingObserver

    per_op = []
    for i, op in enumerate(workload.ops):
        if op.kind is None:
            continue
        observer = CountingObserver()
        exc = result = None
        try:
            result = bench.w.plain(bench.w.counted_call(op, bench.w.build_inputs(op), observer))
        except Exception as caught:  # checked against the expected failure below
            exc = caught
        problem = checker.check_library(result, exc, op.want)
        if problem is None and i in bench.lib_ref and result != bench.lib_ref[i]:
            problem = "result changed with the counting observer attached"
        bench.tally(op, problem)
        per_op.append({"op": op.name, **observer.counts()})
    return per_op


def run_traced(bench: Bench, args, root: Path, package) -> tuple[dict, dict]:
    from layers import LayerBench
    from tracing import CountingObserver

    start = time.perf_counter()
    import_ms = 1e3 * statistics.median(
        import_seconds(root, "vecintervals.cli") for _ in range(SETUP_REPS))
    replay = traced_replay(bench, package)
    counts_a = counting_pass(bench, bench.wl)
    counts_b = counting_pass(bench, bench.w.WORKLOADS[args.workload](args.seed))
    if counts_a != counts_b:
        bench.bench_problems.append("counting observer totals differ between two replays")
    totals = {f: sum(c[f] for c in counts_a) for f in CountingObserver.FIELDS}
    layers = LayerBench(args.seed)
    micro = layers.run(max(0.0, args.seconds - (time.perf_counter() - start)))
    bench.bench_problems.extend(layers.problems)
    metrics = dict(micro)
    metrics["cli.import_ms"] = import_ms
    for name, value in totals.items():
        metrics[f"algorithms.{name}"] = value
    for layer, pct in replay["self_pct"].items():
        metrics[f"{layer}.self_pct"] = pct
    metrics["tracing.traced_pass_ms"] = replay["traced_ns"] / 1e6
    metrics["tracing.overhead_x"] = replay["traced_ns"] / replay["untraced_ns"]
    record = {"counts_per_op": counts_a, "self_ms": replay["self_ms"],
              "calls": replay["calls"], "untraced_pass_ms": replay["untraced_ns"] / 1e6,
              "spans": replay["spans"]}
    return metrics, record


def run_untraced(bench: Bench, args, root: Path) -> tuple[dict, dict]:
    module = "vecintervals.cli" if args.workload == "cli" else "vecintervals"
    import_seconds(root, module)  # compile bytecode once before timing
    setups = [import_seconds(root, module) + bench.setup() for _ in range(SETUP_REPS)]
    bench.warm_up()
    m = timed_rounds(bench, args.seconds)
    metrics = {
        "ops_per_s": m["ops_per_s"],
        "latency_p50_ms": m["latency_p50_ms"],
        "latency_tail_ms": m["latency_tail_ms"],
        "safety_tax_x": m["safety_tax_x"],
        "peak_rss_mb": peak_rss_mb(bench, root, args),
        "setup_s": statistics.median(setups),
    }
    record = {"rounds": m["rounds"], "latency_samples": m["samples"],
              "tail_percentile": m["tail_percentile"], "setup_s_all": setups,
              "round_ops_per_s": m["round_ops_per_s"]}
    return metrics, record


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "vecintervals" / "__init__.py").is_file():
        print("error: src/vecintervals not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import vecintervals

    if Path(vecintervals.__file__).resolve().parent != (src / "vecintervals").resolve():
        print(f"error: imported vecintervals from {vecintervals.__file__}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = HERE / "_work" / str(os.getpid())
    bench = Bench(wl, work_dir)
    try:
        if args.rss_probe:
            bench.setup()
            bench.library_pass()
            print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                              "failed": bench.failed}))
            return 0
        if args.trace:
            bench.setup()
            bench.warm_up()
            metrics, record = run_traced(bench, args, root, vecintervals)
        else:
            metrics, record = run_untraced(bench, args, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            work_dir.parent.rmdir()

    units = declared_metrics(root, args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    correct = bench.failed == 0 and not bench.bench_problems
    commit = read_commit(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  cpus {os.cpu_count()}  commit {commit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if "tail_percentile" in record:
        print(f"  latency_tail_ms is p{record['tail_percentile']:.2f} of "
              f"{record['latency_samples']} samples ({record['rounds']} rounds)")
    if "self_ms" in record:
        print("  self ms per layer: " + ", ".join(
            f"{k} {v:.1f}" for k, v in record["self_ms"].items()))
    bench.report_failures(sys.stdout)
    save_record(args, commit, correct, bench, metrics, record)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def save_record(args, commit: str, correct: bool, bench: Bench, metrics: dict,
                record: dict) -> None:
    """Write the run record, and the spans of a traced run, under ``perfbench/runs/``."""
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": commit, "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed, "failed_frac": bench.failed / bench.attempted,
        "failures": bench.failures, "bench_problems": bench.bench_problems,
        "metrics": metrics, **record,
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(run_record, indent=1) + "\n")
    if spans is None:
        return
    names = [op.name for op in bench.ops]
    with open(RUNS / f"{stem}-spans.jsonl", "w") as f:
        for span_id, name, layer, start, end, parent, op_id in spans:
            f.write(json.dumps({"id": span_id, "name": name, "layer": layer, "start_ns": start,
                                "end_ns": end, "parent": parent, "op": names[op_id]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
