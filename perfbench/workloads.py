"""The three seeded workloads, and how each operation reaches the library.

A workload is a fixed schedule of operations.  The schedule (which
operations, at which sizes, in what proportion) is the same for every seed,
so runs with different seeds measure the same mix; the seed draws the
element values, orderings and interval positions.  Every operation carries
its reference answer, computed here by plain Python when the inputs are
generated.

* ``sort``: ``insertion_sort_in_place`` on 200-400 elements in four
  orderings, plus one ``insertion_sort_buggy`` call in 21 (about 5%).  Checked
  ``get``/``swap`` from ``insert_step`` do almost all the work.
* ``linear``: averages, dot products, merges, interval sums and direct vector
  folds on 10**4-10**5 elements, plus an empty average and a length mismatch.
  The fold walks dominate and ``insert_step`` does nothing.
* ``cli``: ``cli.main`` in-process; mostly ``trace`` subcommands on 50-200
  elements in plain and ``--machine`` mode, the rest untraced subcommands on
  ``@file`` inputs of 10**3-10**4 tokens, ``selftest`` and error exits 2, 3
  and 4.  Event building and output encoding dominate.

Library functions are looked up on their modules at call time, so the span
wrappers of the traced run see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import twins
from checker import Approx, CliExpect, Failure

from vecintervals import algorithms, intervals, vectors


def weighted(e, i, acc):
    """Combine of the direct vector folds: sum of element times index."""
    return e * i + acc


def add(i, acc):
    """Combine of the interval sums, as ``sum_interval_rl``/``_lr`` use it."""
    return i + acc


@dataclass
class Op:
    """One operation of a workload.

    ``kind`` names the library operation (None for CLI calls that run no
    algorithm, such as ``selftest``); ``args`` are its generated inputs as
    plain lists and ints; ``want`` is the reference result or the expected
    ``Failure``.  CLI operations also carry ``argv`` (``{dir}`` stands for the
    directory of the ``@file`` inputs) and what the CLI must print.
    """

    name: str
    kind: str | None
    args: tuple
    want: object
    argv: list[str] | None = None
    cli: CliExpect | None = None

    @property
    def has_twin(self) -> bool:
        return self.kind in TWINS and not isinstance(self.want, Failure)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # @file name -> text


# -- library calls ------------------------------------------------------------


def _insort(v):
    algorithms.insertion_sort_in_place(v)
    return v


def _insort_buggy(v):
    algorithms.insertion_sort_buggy(v)
    return v


def _vfold_rl(v, low, high):
    return vectors.vfold_rl(v, vectors.VectorInterval(low, high, len(v)), 0.0, weighted)


def _vfold_lr(v, low, high):
    return vectors.vfold_lr(v, vectors.VectorInterval(low, high, len(v)), 0.0, weighted)


CALLS = {
    "insort": _insort,
    "insort_buggy": _insort_buggy,
    "avg": lambda v: algorithms.avg_vector(v),
    "dot": lambda a, b: algorithms.dot_product(a, b),
    "merge": lambda a, b: algorithms.merge_sorted(a, b),
    "sum_rl": lambda low, high: algorithms.sum_interval_rl(low, high),
    "sum_lr": lambda low, high: algorithms.sum_interval_lr(low, high),
    "vfold_rl": _vfold_rl,
    "vfold_lr": _vfold_lr,
}

TWINS = {
    "insort": twins.insort,
    "avg": twins.avg,
    "dot": twins.dot,
    "merge": twins.merge,
    "sum_rl": twins.sum_rl,
    "sum_lr": twins.sum_lr,
    "vfold_rl": lambda xs, low, high: twins.vfold_rl(xs, low, high, weighted, 0.0),
    "vfold_lr": lambda xs, low, high: twins.vfold_lr(xs, low, high, weighted, 0.0),
}

MUTATES = {"insort", "insort_buggy"}


def build_inputs(op: Op) -> tuple:
    """The library inputs of ``op``: each list becomes a fresh ``Vector``."""
    return tuple(vectors.Vector(a) if isinstance(a, list) else a for a in op.args)


def call(op: Op, inputs: tuple):
    return CALLS[op.kind](*inputs)


def counted_call(op: Op, inputs: tuple, observer):
    """Run ``op`` with ``observer`` on its input vectors.

    The interval sums take no observer, so their walk is replayed as the
    ``fold_rl``/``fold_lr`` call they make, with the observer passed in.
    """
    if op.kind in ("sum_rl", "sum_lr"):
        fold = intervals.fold_rl if op.kind == "sum_rl" else intervals.fold_lr
        return fold(intervals.Interval(*inputs), 0, add, observer=observer)
    for v in inputs:
        if isinstance(v, vectors.Vector):
            v.observer = observer
    try:
        return call(op, inputs)
    finally:
        for v in inputs:
            if isinstance(v, vectors.Vector):
                v.observer = None


def plain(result):
    """A library result as plain data: vectors become lists."""
    return result.to_list() if isinstance(result, vectors.Vector) else result


# -- references ---------------------------------------------------------------


def _fsum_ref(terms: list) -> Approx:
    return Approx(math.fsum(terms), math.fsum(abs(t) for t in terms))


def ref_avg(xs: list) -> Approx:
    total = _fsum_ref(xs)
    return Approx(total.value / len(xs), total.scale / len(xs))


def ref_dot(a: list, b: list):
    if all(isinstance(x, int) for x in a + b):
        return sum(x * y for x, y in zip(a, b))
    return _fsum_ref([x * y for x, y in zip(a, b)])


def ref_sum(low: int, high: int) -> int:
    return (low + high) * (high - low + 1) // 2 if low <= high else 0


def ref_weighted(xs: list, low: int, high: int) -> Approx:
    return _fsum_ref([xs[i] * i for i in range(low, high + 1)])


def oob(n: int, op: str = "get") -> Failure:
    return Failure("OutOfBoundsError", 4, "out_of_bounds",
                   {"attempted_index": n, "vector_length": n, "operation_name": op})


EMPTY_AVG = Failure("EmptyVectorError", 3, "domain")
MISMATCH = Failure("LengthMismatchError", 3, "domain")
PARSE = Failure("VectorParseError", 2, "parse")


# -- generators -----------------------------------------------------------------


def _floats(rng: random.Random, n: int, scale: float = 1.0) -> list[float]:
    return [rng.uniform(-scale, scale) for _ in range(n)]


def _nearly_sorted(rng: random.Random, n: int) -> list[int]:
    xs = sorted(rng.randrange(10 * n) for _ in range(n))
    for _ in range(n // 20):
        i = rng.randrange(n - 5)
        j = i + rng.randint(1, 5)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def sort_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n in (200, 250, 300, 350, 400):
        orderings = {
            "reverse": sorted(_floats(rng, n, 1e3), reverse=True),
            "random": _floats(rng, n, 1e3),
            "nearly": _nearly_sorted(rng, n),
            "dups": [rng.randrange(8) for _ in range(n)],
        }
        for order, xs in orderings.items():
            ops.append(Op(f"insort/{order}/{n}", "insort", (xs,), sorted(xs)))
    n = 300
    ops.append(Op(f"insort_buggy/{n}", "insort_buggy",
                  ([rng.randrange(1000) for _ in range(n)],), oob(n)))
    return Workload("sort", ops)


def linear_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n in (20_000, 50_000, 100_000):
        xs = _floats(rng, n)
        ops.append(Op(f"avg/{n}", "avg", (xs,), ref_avg(xs)))
    a, b = _floats(rng, 10_000), _floats(rng, 10_000)
    ops.append(Op("dot/float/10000", "dot", (a, b), ref_dot(a, b)))
    a = [rng.randint(-1000, 1000) for _ in range(30_000)]
    b = [rng.randint(-1000, 1000) for _ in range(30_000)]
    ops.append(Op("dot/int/30000", "dot", (a, b), ref_dot(a, b)))
    for n1, n2 in ((10_000, 10_000), (20_000, 10_000)):
        a, b = sorted(_floats(rng, n1)), sorted(_floats(rng, n2))
        ops.append(Op(f"merge/{n1}+{n2}", "merge", (a, b), sorted(a + b)))
    for n in (30_000, 100_000):
        for kind in ("sum_rl", "sum_lr"):
            low = rng.randint(-10**6, 10**6)
            high = low + n - 1
            ops.append(Op(f"{kind}/{n}", kind, (low, high), ref_sum(low, high)))
    xs = _floats(rng, 100_000)
    for n in (30_000, 100_000):
        for kind in ("vfold_rl", "vfold_lr"):
            low = rng.randrange(len(xs) - n + 1)
            high = low + n - 1
            ops.append(Op(f"{kind}/{n}", kind, (xs, low, high), ref_weighted(xs, low, high)))
    ops.append(Op("avg/empty", "avg", ([],), EMPTY_AVG))
    a, b = _floats(rng, 10_000), _floats(rng, 10_001)
    ops.append(Op("dot/mismatch", "dot", (a, b), MISMATCH))
    return Workload("linear", ops)


def literal(xs) -> str:
    """A vector literal for the command line, every number written with ``repr``."""
    return ",".join(repr(x) for x in xs)


def cli_workload(seed: int) -> Workload:
    """CLI calls; ``{dir}`` in an argv is the directory the @files are written to.

    Vector flags are passed as ``--a=VEC``: a literal may start with a minus
    sign, and argparse reads a separate ``-1.5,2`` token as an unknown option.
    """
    rng = random.Random(seed)
    ops = []
    for machine in (False, True):
        flag = ["--machine"] if machine else []
        mode = "machine" if machine else "plain"

        def trace(label, target, kind, args, want, extra, **expect):
            ops.append(Op(f"trace/{label}/{mode}", kind, args, want,
                          ["trace", target, *extra, *flag],
                          CliExpect(machine, want, events=True, **expect)))

        xs = list(range(50, 0, -1))
        trace("insort/reverse50", "insort", "insort", (xs,), sorted(xs), ["--a=" + literal(xs)])
        xs = [rng.randrange(1000) for _ in range(100)]
        trace("insort/random100", "insort", "insort", (xs,), sorted(xs), ["--a=" + literal(xs)])
        xs = [rng.randrange(1000) for _ in range(50)]
        trace("insort-buggy/50", "insort-buggy", "insort_buggy", (xs,), oob(50),
              ["--a=" + literal(xs)], last_event=("access", 50))
        a, b = sorted(_floats(rng, 100, 1e3)), sorted(_floats(rng, 100, 1e3))
        trace("merge/100+100", "merge", "merge", (a, b), sorted(a + b),
              ["--a=" + literal(a), "--b=" + literal(b)])
        a, b = _floats(rng, 200, 1e3), _floats(rng, 200, 1e3)
        trace("dot/200", "dot", "dot", (a, b), ref_dot(a, b),
              ["--a=" + literal(a), "--b=" + literal(b)])
        xs = _floats(rng, 200, 1e3)
        trace("avg/200", "avg", "avg", (xs,), ref_avg(xs), ["--a=" + literal(xs)])
        for direction in ("rl", "lr"):
            low = rng.randint(-100, 100)
            high = low + 199
            trace(f"sum/{direction}/200", "sum", f"sum_{direction}", (low, high),
                  ref_sum(low, high),
                  [f"--low={low}", f"--high={high}", f"--direction={direction}"])
        low = rng.randint(-100, 100)
        ops.append(Op(f"trace/interval/200/{mode}", None, (), None,
                      ["trace", "interval", f"--low={low}", f"--high={low + 199}", *flag],
                      CliExpect(machine, events=True, event_count=201,
                                last_event=("stop", None))))

    files = {}

    def untraced(label, kind, args, want, argv, machine):
        ops.append(Op(f"{label}/{'machine' if machine else 'plain'}", kind, args, want,
                      argv + (["--machine"] if machine else []), CliExpect(machine, want)))

    xs = _floats(rng, 10_000, 1e3)
    files["avg.txt"] = literal(xs) + "\n"
    untraced("avg/@10000", "avg", (xs,), ref_avg(xs), ["avg", "--a=@{dir}/avg.txt"], False)
    a, b = _floats(rng, 5_000, 1e3), _floats(rng, 5_000, 1e3)
    files["dot.txt"] = f"{literal(a)}\n{literal(b)}\n"
    untraced("dot/@5000", "dot", (a, b), ref_dot(a, b),
             ["dot", "--a=@{dir}/dot.txt:1", "--b=@{dir}/dot.txt:2"], True)
    a, b = sorted(_floats(rng, 2_000, 1e3)), sorted(_floats(rng, 2_000, 1e3))
    files["merge.txt"] = f"{literal(a)}\n\n{literal(b)}\n"
    untraced("merge/@2000+2000", "merge", (a, b), sorted(a + b),
             ["merge", "--a=@{dir}/merge.txt:1", "--b=@{dir}/merge.txt:2"], False)
    xs = _nearly_sorted(rng, 1_000)
    files["insort.txt"] = f"[{literal(xs)}]\n"
    untraced("insort/@1000", "insort", (xs,), sorted(xs), ["insort", "--a=@{dir}/insort.txt"],
             True)
    low = rng.randint(-10**6, 10**6)
    high = low + 9_999
    untraced("sum-interval/10000", "sum_lr", (low, high), ref_sum(low, high),
             ["sum-interval", f"--low={low}", f"--high={high}", "--direction=lr"], True)
    for machine in (False, True):
        ops.append(Op(f"selftest/{'machine' if machine else 'plain'}", None, (), None,
                      ["selftest"] + (["--machine"] if machine else []),
                      CliExpect(machine, selftest=True)))
    untraced("parse-error", None, (), PARSE, ["avg", "--a=1,2,x3"], True)
    untraced("empty-avg", "avg", ([],), EMPTY_AVG, ["avg", "--a=[]"], True)
    a, b = _floats(rng, 1_000, 1e3), _floats(rng, 1_001, 1e3)
    files["mismatch.txt"] = f"{literal(a)}\n{literal(b)}\n"
    untraced("dot-mismatch/@1000", "dot", (a, b), MISMATCH,
             ["dot", "--a=@{dir}/mismatch.txt:1", "--b=@{dir}/mismatch.txt:2"], False)
    xs = [rng.randrange(1000) for _ in range(1_000)]
    files["buggy.txt"] = literal(xs) + "\n"
    untraced("insort-buggy/@1000", "insort_buggy", (xs,), oob(1_000),
             ["insort-buggy", "--a=@{dir}/buggy.txt"], True)
    return Workload("cli", ops, files)


WORKLOADS = {"sort": sort_workload, "linear": linear_workload, "cli": cli_workload}
