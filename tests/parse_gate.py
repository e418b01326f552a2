"""Exhaustive differential gate for ``cli.parse_vector_literal``.

``loop_parse_vector_literal`` is the parser's per-token loop as it stood
before the JSON scanner was put in front of it, kept verbatim as the
oracle.  ``differences`` builds every text of one to three tokens from an
edge-token list, bare, in brackets and padded with blanks, parses each with
the parser under test and with the oracle, and returns the texts whose
outcomes differ: both must give the same values with the same types,
``-0.0`` and ``0.0`` told apart, or raise ``VectorParseError`` with the
same message.  Any other exception escapes.

Standard library only, so ``tests/test_parse_gate.py`` and
``tools/replay.py`` both run it, the latter on interpreters without pytest.
"""

from __future__ import annotations

import math
from itertools import product

from vecintervals.cli import VectorParseError

_BLANKS = " \t\r\n"

# one to three of these per text, joined by commas
TOKENS = [
    "0", "7", "-0", "+1", "01", "1.", ".5", "-0.0", "1e5", "-1E-3", "+2e+2", "1.5e308",
    "1e400", "-1e400", "1e-400", "NaN", "Infinity", "-Infinity", "nan", "inf", "1_0",
    "١", "1 ", "\t2\r", "", "[1]", "[[", '"1"', "true", "false", "null", "{}",
    "0x10", "1e", "--1", "1 2", "9" * 5000, "+" + "9" * 5000, "-" + "9" * 5000,
]
# digit runs at and past CPython's default int digit limit (4300), for a run with
# another limit, or none (PYTHONINTMAXSTRDIGITS=0)
DIGIT_TOKENS = [sign + "9" * n for n in (4300, 4301, 5000) for sign in ("", "+", "-")]
# bare, in brackets, and padded with blanks outside and inside the brackets
FORMS = ("{}", "[{}]", " \t[\r{}\n] \n")


def loop_parse_vector_literal(text: str) -> list[float]:
    """Parse ``1,4,6`` or ``[1,4,6]`` (or an empty string) into numbers."""
    body = text.strip(_BLANKS)
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip(_BLANKS)
    if not body:
        return []
    values: list[float] = []
    for pos, token in enumerate(body.split(","), start=1):
        tok = token.strip(_BLANKS)
        # int() and float() also accept digit-group underscores (1_000), any Unicode
        # decimal digits (fullwidth １) and surrounding whitespace such as \x1c or \v;
        # vector literals do not
        if "_" in tok or not tok.isascii() or not tok.isprintable():
            raise VectorParseError(f"bad number {tok!r} at token {pos}")
        # only an optionally signed run of digits can be an int, so no other token pays
        # for a failed int(); a digit run int() rejects (past its digit limit) goes on
        if (tok[1:] if tok[:1] in "+-" else tok).isdigit():
            try:
                values.append(int(tok))
                continue
            except ValueError:
                pass
        try:
            value = float(tok)
        except ValueError:
            raise VectorParseError(f"bad number {tok!r} at token {pos}") from None
        # ints are always finite; float() also saturates int tokens past the digit limit
        if not math.isfinite(value):
            raise VectorParseError(f"non-finite number {tok!r} at token {pos}")
        values.append(value)
    return values


def texts(tokens=TOKENS, forms=FORMS):
    """Every text of one to three ``tokens`` in each of ``forms``."""
    for n in (1, 2, 3):
        for combo in product(tokens, repeat=n):
            body = ",".join(combo)
            for form in forms:
                yield form.format(body)


def outcome(parse, text: str) -> tuple:
    """``("ok", [(type, value)...])`` or ``("error", the VectorParseError message)``.

    A float is kept as its ``repr``, which tells ``0.0`` from ``-0.0``; an int as
    itself, since writing out a long one takes time quadratic in its digits.
    """
    try:
        values = parse(text)
    except VectorParseError as exc:
        return "error", str(exc)
    return "ok", [(type(v), v if type(v) is int else repr(v)) for v in values]


def differences(parse, tokens=TOKENS, forms=FORMS) -> tuple[int, list[str]]:
    """The number of texts checked and the texts on which ``parse`` and the oracle differ."""
    checked, differ = 0, []
    for text in texts(tokens, forms):
        checked += 1
        if outcome(parse, text) != outcome(loop_parse_vector_literal, text):
            differ.append(text)
    return checked, differ
