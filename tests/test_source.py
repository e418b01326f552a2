"""Guards on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import vecintervals

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vecintervals"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may depend on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert found == []


def test_cli_encodes_json_strictly_in_one_place():
    # allow_nan=False makes the encoder raise instead of writing NaN or Infinity, which
    # are not JSON; one encoder and one call site mean every machine record gets that check.
    # The trace's machine lines write their int fields and fixed names by template and
    # pass their one free-text field, detail, through that encoder's helper
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = [getattr(node.func, "attr", getattr(node.func, "id", None)) for node in calls]
    encoders = [node for node, name in zip(calls, names) if name in ("dumps", "JSONEncoder")]
    assert len(encoders) == 1
    strict = [kw for kw in encoders[0].keywords
              if kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)]
    assert [kw.value.value for kw in strict] == [False]
    assert names.count("dumps") + names.count("encode") == 1

    def helper_args(nodes):
        return [[getattr(arg, "id", None) for arg in node.args]
                for stmt in nodes for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_json"]

    writer, sink = (next(node for node in tree.body
                         if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
                    for name in ("_TraceWriter", "_line_sink"))
    # the sink, and every writer method that writes a line itself, picks the mode once:
    # its machine branch encodes detail and nothing else, its plain branch encodes nothing
    writing = [method for method in writer.body if isinstance(method, ast.FunctionDef)
               and any(getattr(node, "attr", None) == "_write" and isinstance(node.ctx, ast.Load)
                       for node in ast.walk(method))]
    assert len(writing) >= 2
    for scope in [*writing, sink]:
        [mode] = [node for node in ast.walk(scope) if isinstance(node, ast.If) and getattr(
            node.test, "attr", getattr(node.test, "id", None)) in ("_machine", "machine")]
        assert helper_args(mode.body) == [["detail"]], scope.name
        assert helper_args(mode.orelse) == [], scope.name
    assert len(helper_args([writer, sink])) == len(writing) + 1


def test_each_checked_access_reports_to_its_observer_once():
    # one report per call, made with the in-bounds flag before the access acts or
    # raises, so no branch can skip the tracer
    tree = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8"))
    vector = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Vector")
    methods = {node.name: node for node in vector.body if isinstance(node, ast.FunctionDef)}
    hooks = {"get": "element_read", "set": "element_written", "swap": "elements_swapped"}
    for method, hook in hooks.items():
        calls = [node for node in ast.walk(methods[method])
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == hook]
        assert len(calls) == 1, method


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_pathlib():
    # dataclasses brings inspect, ast and dis with it, about a third of the CLI's start;
    # annotations are strings under `from __future__ import annotations`, so they need no
    # typing at run time, and typing and pathlib bring about a dozen modules with them.
    # -S keeps a host's .pth files from importing them before the package does
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import vecintervals.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_public_names_are_pinned():
    # __all__ is the public contract: a name may not appear, vanish or stop resolving
    # without this list changing with it
    assert vecintervals.__all__ == [
        "EmptyVectorError",
        "Interval",
        "IntervalConstraintError",
        "LEFT_TO_RIGHT",
        "LengthMismatchError",
        "OutOfBoundsError",
        "RIGHT_TO_LEFT",
        "Step",
        "TraceEvent",
        "TraceRecorder",
        "TracedRun",
        "Vector",
        "VectorInterval",
        "VectorMismatchError",
        "avg_vector",
        "dot_product",
        "fold_lr",
        "fold_rl",
        "insert_step",
        "insertion_sort_in_place",
        "merge_sorted",
        "sum_interval_lr",
        "sum_interval_rl",
        "trace_interval",
        "traced_run",
        "vfold_lr",
        "vfold_rl",
    ]
    for name in vecintervals.__all__:
        assert getattr(vecintervals, name) is not None, name
