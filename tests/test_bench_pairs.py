"""``tools/bench_pairs.py``: new files and ``--extend``, with the benchmark runs faked."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A parent and a head with a two-workload BENCHMARK.json; runs are recorded, not made."""
    bench = {"workloads": [{"name": "w1"}, {"name": "w2"}], "run_seconds": 30,
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]}
    for side in ("parent", "head"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed, trace))
        value = seed + (0.5 if checkout.name == "head" else 0.0)
        return {"correct": 1, "attempted": 1, "failed": 0, "metrics": {"ops_per_s": value}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    return tmp_path, calls


def run(root, *extra):
    return bench_pairs.main(["--parent", str(root / "parent"), "--head", str(root / "head"),
                             "--out", str(root / "out.json"), *extra])


def test_extend_continues_at_the_next_pair_and_seed(checkouts):
    root, calls = checkouts
    assert run(root, "--pairs", "2", "--seed", "100") == 0
    first = json.loads((root / "out.json").read_text())
    assert first["checkouts"] == {"parent": "parent", "head": "head"}
    assert (first["seconds"], first["seed"]) == (30, 100)
    assert sorted(first["traced"]) == ["w1", "w2"]
    del first["traced"]["w2"]  # as if the run had stopped before tracing w2
    (root / "out.json").write_text(json.dumps(first))
    calls.clear()

    assert run(root, "--pairs", "2", "--seed", "999", "--extend") == 0
    out = json.loads((root / "out.json").read_text())
    assert [(r["pair"], r["seed"], r["workload"]) for r in out["pairs"]] == [
        (i, 100 + i, w) for i in range(4) for w in ("w1", "w2")]
    assert [r["first"] for r in out["pairs"][4:]] == ["parent", "parent", "head", "head"]
    # the summary covers all four pairs, and only w2 is traced again, from the first seed
    assert out["summary"]["w1"]["ops_per_s"]["head_wins"] == 4
    assert [c[:3] for c in calls if c[3] == 1] == [
        ("parent", "w2", 100), ("head", "w2", 100), ("head", "w2", 101),
        ("parent", "w2", 101), ("parent", "w2", 102), ("head", "w2", 102)]
    assert out["traced"]["w1"] == first["traced"]["w1"]


@pytest.mark.parametrize("field, value", [("seconds", 15),
                                          ("checkouts", {"parent": "/a", "head": "/b"}),
                                          ("checkouts", None)])
def test_extend_refuses_another_run_length_or_other_checkouts(checkouts, field, value):
    root, calls = checkouts
    run(root, "--pairs", "1")
    out = json.loads((root / "out.json").read_text())
    out[field] = value
    (root / "out.json").write_text(json.dumps(out))
    calls.clear()
    with pytest.raises(SystemExit, match="was run on"):
        run(root, "--pairs", "1", "--extend")
    assert calls == []
    assert json.loads((root / "out.json").read_text()) == out
