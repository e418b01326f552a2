"""Guards on the package source itself."""

import ast
from pathlib import Path

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
    # are not JSON; one encoder and one call site mean every machine record gets that check
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = [getattr(node.func, "attr", getattr(node.func, "id", None)) for node in calls]
    encoders = [node for node, name in zip(calls, names) if name in ("dumps", "JSONEncoder")]
    assert len(encoders) == 1
    strict = [kw for kw in encoders[0].keywords
              if kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)]
    assert [kw.value.value for kw in strict] == [False]
    assert names.count("dumps") + names.count("encode") == 1
