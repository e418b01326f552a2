"""The parse gate: ``parse_vector_literal`` agrees with the per-token loop on every small text.

``parse_vector_literal`` first hands the whole line to the JSON scanner and
falls back to the per-token loop on anything the scanner does not turn into
finite ints and floats.  ``tests/parse_gate.py`` holds that loop, verbatim,
as the oracle, and builds every text of one to three edge tokens, bare, in
brackets and padded; each must give the same values with the same types, or
the same ``VectorParseError`` message.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import parse_gate
from vecintervals.cli import parse_vector_literal

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("form", parse_gate.FORMS, ids=["bare", "bracketed", "padded"])
def test_parser_agrees_with_the_loop_on_every_small_text(form):
    checked, differ = parse_gate.differences(parse_vector_literal, forms=(form,))
    n = len(parse_gate.TOKENS)
    assert checked == n + n**2 + n**3
    assert differ == []


@pytest.mark.parametrize("limit", ["4300", "0"])
def test_digit_runs_agree_under_either_int_digit_limit(limit):
    # the scanner and the loop both build ints with int(), so both follow the
    # interpreter's limit; 0 lifts it and every digit run becomes an int.  Bare texts
    # only: the forms are the other test's business, and each long int costs ~0.1 ms
    code = ("import parse_gate, vecintervals.cli as c; "
            "n, d = parse_gate.differences(c.parse_vector_literal, parse_gate.DIGIT_TOKENS, "
            "parse_gate.FORMS[:1]); print(n, len(d))")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
               PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    n = len(parse_gate.DIGIT_TOKENS)
    assert proc.stdout.split() == [str(n + n**2 + n**3), "0"]
