"""Golden CLI transcripts: stdout, stderr and exit code of every subcommand, byte for byte.

The cases, and ``record``, which renders one, live in ``golden_cases.py``.
Every byte, argparse's usage and help text included, is the same on every
supported version (3.10 to 3.13).  ``tools/replay.py`` replays the cases on
any interpreter.

After a deliberate change of CLI output, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, command_line, load_golden, record, write_vector_files


def render_all(tmp: str) -> str:
    return "".join(f"=== {command_line(argv)}\n{record(argv, tmp)}" for argv in CASES)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return load_golden()


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("golden")
    write_vector_files(directory)
    return str(directory)


def test_golden_file_covers_exactly_the_cases(golden):
    assert list(golden) == [command_line(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=command_line)
def test_transcript_is_unchanged(argv, golden, vector_dir):
    assert record(argv, vector_dir) == golden[command_line(argv)]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [argv for argv in CASES if "--machine" in argv],
                         ids=command_line)
def test_machine_transcript_is_strict_json(argv, golden):
    out, err = re.split(r"^--- stdout\n|^--- stderr\n", golden[command_line(argv)],
                        flags=re.M)[1:]
    for line in (out + err).splitlines():
        json.loads(line, parse_constant=_reject_constant)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp_dir:
        write_vector_files(Path(tmp_dir))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render_all(tmp_dir), encoding="utf-8")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}", file=sys.stderr)
