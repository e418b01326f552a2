"""Alternating parent/head pairs of the benchmark, summarised in one JSON file.

Runs ``perfbench/run.py --trace 0`` in two checkouts, a parent and a head,
once per workload and pair, alternating which side runs first, and then one
``--trace 1`` run per side and workload.  The output holds every run's
values, each side's median and quartiles per metric and workload, the
number of pairs each side won (ties count for neither), whether the head's
median stays within the metric's regression bound, and the traced metrics of
both sides.

    python3 tools/bench_pairs.py --parent ../parent --head . --pairs 10 \\
        --seed 1000 --out BENCH_6.json

Both checkouts need ``perfbench/`` and ``src/``; the workloads, the run
length and the metric names, their better direction and their bounds come
from the head's ``BENCHMARK.json``.  A metric whose parent spread (IQR over
median) is wider than its bound is reported ``unresolved`` unless every head
run beats every parent run; its ``within_bound`` is then ``null``, since the
runs cannot tell a regression of that size from noise.
Pair ``i`` uses seed ``seed + i`` on both sides.  The file is rewritten
after every pair, so an interrupted run keeps the pairs it finished.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "head")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--head", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its closing JSON line, with the metric values unwrapped."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], head: list[float], better: str, bound: float) -> dict:
    """Pair wins and medians of one metric on one workload."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - p) > 0 for p, h in zip(parent, head))
    losses = sum(sign * (h - p) < 0 for p, h in zip(parent, head))
    ps, hs = spread(parent), spread(head)
    gain = sign * (hs["median"] - ps["median"])
    worse_frac = -gain / ps["median"] if ps["median"] else 0.0
    noisy = ps["median"] != 0 and ps["iqr"] / abs(ps["median"]) > bound
    separated = all(sign * (h - p) > 0 for p in parent for h in head)
    unresolved = noisy and not separated
    return {
        "parent": ps, "head": hs,
        "head_wins": wins, "parent_wins": losses, "ties": len(parent) - wins - losses,
        "head_over_parent": hs["median"] / ps["median"] if ps["median"] else None,
        "gain_shown": wins >= 0.9 * len(parent) and gain > ps["iqr"],
        "unresolved": unresolved,
        "within_bound": None if unresolved else worse_frac <= bound,
    }


def summarise(runs: list[dict], workloads: list[str], declared: list[dict]) -> dict:
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        values = {side: [r[side]["metrics"] for r in mine] for side in SIDES}
        summary[workload] = {
            m["name"]: compare([v[m["name"]] for v in values["parent"]],
                               [v[m["name"]] for v in values["head"]], m["better"], m["bound"])
            for m in declared
        }
        summary[workload]["failed"] = {side: sum(r[side]["failed"] for r in mine)
                                       for side in SIDES}
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    declared, seconds = bench["end_to_end"], bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "head": args.head.resolve()}
    out = {
        "python": platform.python_version(), "seconds": seconds, "pairs": [],
        "metrics": declared, "summary": {}, "traced": {},
    }
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            run = {"pair": i, "seed": seed, "workload": workload, "first": order[0]}
            for side in order:
                run[side] = run_bench(checkouts[side], workload, seed, seconds, 0)
                print(f"pair {i} {workload} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run[side]["metrics"].items()),
                      file=sys.stderr, flush=True)
            out["pairs"].append(run)
        if i >= 1:  # quartiles need two values
            out["summary"] = summarise(out["pairs"], workloads, declared)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload in workloads:
        out["traced"][workload] = {side: run_bench(checkouts[side], workload, args.seed,
                                                   seconds, 1)
                                   for side in SIDES}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
