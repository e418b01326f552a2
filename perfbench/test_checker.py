"""Tests of the benchmark's own checking: wrong results, wrong twins, non-strict JSON.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checker import Approx, CliExpect  # noqa: E402
from vecintervals import algorithms, vectors  # noqa: E402


def test_wrong_values_are_caught():
    assert checker.check_value([1, 2, 3], [1, 2, 3]) is None
    assert checker.check_value([1, 3, 2], [1, 2, 3]) is not None
    assert checker.check_value([1, 2], [1, 2, 3]) is not None
    assert checker.check_value(7, 7) is None
    assert checker.check_value(8, 7) is not None
    assert checker.check_value(True, 1) is not None
    want = Approx(1.0, 10.0)
    assert checker.check_value(1.0 + 1e-9, want) is None
    assert checker.check_value(1.0 + 1e-6, want) is not None
    assert checker.check_value(float("nan"), want) is not None


def test_wrong_error_fields_are_caught():
    want = workloads.oob(5)
    exc = vectors.OutOfBoundsError(5, 5, "get")
    assert checker.check_library(None, exc, want) is None
    assert checker.check_library(None, vectors.OutOfBoundsError(4, 5, "get"), want) is not None
    assert checker.check_library(None, vectors.OutOfBoundsError(5, 5, "swap"), want) is not None
    assert checker.check_library(None, ValueError("x"), want) is not None
    assert checker.check_library([1], None, want) is not None


def test_cli_exit_code_and_diagnostic_are_checked():
    want = workloads.oob(5)
    line = "error: get: index 5 is out of bounds for a vector of length 5\n"
    assert checker.check_cli(CliExpect(False, want), 4, "", line) is None
    assert checker.check_cli(CliExpect(False, want), 3, "", line) is not None
    wrong = line.replace("index 5", "index 4")
    assert checker.check_cli(CliExpect(False, want), 4, "", wrong) is not None
    record = ('{"kind": "error", "error": "out_of_bounds", "message": "m", '
              '"attempted_index": 5, "vector_length": 5, "operation_name": "swap"}\n')
    assert checker.check_cli(CliExpect(True, want), 4, "", record) is not None


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_strict_json_is_caught(constant):
    expect = CliExpect(True, Approx(1.0, 1.0))
    good = '{"kind": "result", "value": 1.0}\n'
    assert checker.check_cli(expect, 0, good, "") is None
    bad = good.replace("1.0", constant)
    problem = checker.check_cli(expect, 0, bad, "")
    assert problem is not None and "strict JSON" in problem


def test_machine_lines_must_be_objects():
    expect = CliExpect(True, 3)
    assert checker.check_cli(expect, 0, '{"kind": "result", "value": 3}\n', "") is None
    assert checker.check_cli(expect, 0, "3\n", "") is not None


def test_wrong_twin_is_caught():
    assert checker.check_twin([1, 2], [1, 2]) is None
    assert checker.check_twin(14, 14.0) is not None
    assert checker.check_twin(0.30000000000000004, 0.3) is not None


def _bench(name, seed=3, tmp=None):
    return run.Bench(workloads.WORKLOADS[name](seed), tmp)


def test_twins_match_the_library(tmp_path):
    for name in ("sort", "linear"):
        bench = _bench(name, tmp=tmp_path)
        bench.setup()
        bench.warm_up()
        assert bench.failed == 0 and bench.bench_problems == []


def test_a_broken_twin_voids_the_ratio(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.TWINS, "insort", lambda xs: sorted(xs, reverse=True))
    bench = _bench("sort", tmp=tmp_path)
    bench.setup()
    bench.warm_up()
    assert any("twin rejected" in p for p in bench.bench_problems)


def test_a_library_defect_counts_as_failed(tmp_path, monkeypatch):
    def lossy_sort(vec):
        algorithms.insertion_sort_in_place(vec)
        vec.set(0, vec.get(0) - 1)
        return vec

    monkeypatch.setitem(workloads.CALLS, "insort", lossy_sort)
    bench = _bench("sort", tmp=tmp_path)
    bench.setup()
    bench.library_pass()
    assert bench.failed == 20 and bench.attempted == 21
