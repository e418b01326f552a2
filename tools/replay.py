"""Replay the golden CLI transcripts and the selftest on the interpreter that runs this.

    python3.13 tools/replay.py

Records every case of ``tests/golden_cases.py`` and compares it with
``tests/golden/cli_transcripts.txt``, byte for byte, as ``tests/test_golden.py``
does.  Prints ``identical/total``, then the command line of each case that
differs, then the selftest's summary.  Exits 0 when every transcript is
identical and every selftest case passes, else 1.  Standard library only, so
it runs on interpreters that have no pytest.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_cases import CASES, command_line, load_golden, record, write_vector_files  # noqa: E402
from vecintervals.selftest import run_reference_cases  # noqa: E402


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
    return 0 if not differ and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
