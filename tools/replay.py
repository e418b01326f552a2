"""Replay the golden transcripts, selftest and parse gate on the interpreter running this.

    python3.13 tools/replay.py

Records every case of ``tests/golden_cases.py`` and compares it with
``tests/golden/cli_transcripts.txt``, byte for byte, as ``tests/test_golden.py``
does.  Prints ``identical/total``, then the command line of each case that
differs, then the selftest's summary, then the parse gate's
(``tests/parse_gate.py``): the texts checked, the number on which
``parse_vector_literal`` and the per-token loop differ, and the first few of
those.  The JSON scanner that parser tries first, and ``int()``'s digit limit,
vary by interpreter version.  Next, it imports ``vecintervals.cli`` in a
``python -S`` interpreter, so that no ``.pth`` file loads anything first, and
prints the number of modules loaded and which of ``typing``, ``pathlib``,
``dataclasses`` and ``inspect`` are among them.  Then it runs
``test_public_names_are_pinned`` from ``tests/test_source.py`` and prints
``public names: ok`` or the assertion that failed.  Then it sorts each
input of ``tests/sort_allocation.py`` unobserved under ``tracemalloc`` and
prints each peak in bytes.  Exits 0 when every transcript is identical,
every selftest case passes, the gate finds no difference, none of those
four modules is loaded, the public names match and every sort peaks below
the probe's 1024-byte bound, else 1.  The transcripts are the same on
every supported version, 3.10 to 3.13, so it gates each of them; the
README runs it on all four in one loop.  Standard library only, so it runs on interpreters that have
no pytest; run it without ``-O``, which strips the public-name test's
asserts.
"""

from __future__ import annotations

import reprlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_cases import CASES, command_line, load_golden, record, write_vector_files  # noqa: E402
from parse_gate import differences  # noqa: E402
from sort_allocation import BOUND, INPUTS, sort_peak  # noqa: E402
from test_source import test_public_names_are_pinned  # noqa: E402
from vecintervals.cli import parse_vector_literal  # noqa: E402
from vecintervals.selftest import run_reference_cases  # noqa: E402


# modules the CLI's start must not pay for; tests/test_source.py checks the same
UNWANTED = ("typing", "pathlib", "dataclasses", "inspect")


def cli_imports() -> tuple[int, list[str]]:
    """How many modules ``python -S`` holds after importing the CLI, and which are unwanted."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import vecintervals.cli; "
            "print(len(sys.modules), *[m for m in sys.argv[2:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *UNWANTED],
                          capture_output=True, text=True, check=True)
    count, *loaded = proc.stdout.split()
    return int(count), loaded


def public_names() -> str:
    """``ok`` when the package exports exactly its pinned names, else the assertion's repr."""
    try:
        test_public_names_are_pinned()
    except AssertionError as exc:
        return repr(exc)
    return "ok"


def main() -> int:
    golden = load_golden()
    with tempfile.TemporaryDirectory() as tmp_dir:
        write_vector_files(Path(tmp_dir))
        differ = [command_line(argv) for argv in CASES
                  if record(argv, tmp_dir) != golden.get(command_line(argv))]
    print(f"{len(CASES) - len(differ)}/{len(CASES)}")
    for line in differ:
        print(line)
    results = run_reference_cases()
    failed = sum(1 for r in results if not r.passed)
    print(f"selftest: {len(results) - failed} passed, {failed} failed")
    checked, gate_differ = differences(parse_vector_literal)
    print(f"parse gate: {checked} texts, {len(gate_differ)} differ")
    for text in gate_differ[:10]:
        print(reprlib.repr(text))
    modules, loaded = cli_imports()
    print(f"import vecintervals.cli under -S: {modules} modules, "
          f"{', '.join(loaded) or 'none'} of {', '.join(UNWANTED)}")
    names = public_names()
    print(f"public names: {names}")
    peaks = {name: sort_peak(items)[1] for name, items in INPUTS.items()}
    print(f"unobserved sort peak (bound {BOUND} B): "
          + ", ".join(f"{name} {peak} B" for name, peak in peaks.items()))
    return 0 if (not differ and not failed and not gate_differ and not loaded
                 and names == "ok" and max(peaks.values()) < BOUND) else 1


if __name__ == "__main__":
    sys.exit(main())
