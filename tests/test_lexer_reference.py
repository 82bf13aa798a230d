"""The one-regex lexer against the per-character reference scanner.

Tokens (kind, text, line, value and the value's type), pragmas and
``LexError`` messages must be identical on every workload source and on
random strings over the language's alphabet.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import LexError, tokenize
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

from reference import reference_tokenize


def _outcome(lex, source):
    try:
        tokens, pragmas = lex(source)
    except LexError as error:
        return "LexError", str(error)
    return (
        [(t.kind, t.text, t.line, t.value, type(t.value)) for t in tokens],
        pragmas,
    )


def _assert_same(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_generated_suite_matches_reference(seed):
    for program in generate_suite(seed, 288):
        _assert_same(program.source)


def test_paper_programs_match_reference():
    sources = [kernel.source for kernel in LIVERMORE_KERNELS.values()]
    sources += [program.source for program in USER_PROGRAMS.values()]
    for source in sources:
        _assert_same(source)


#: The W2 alphabet: every character (and two-character symbol) the
#: language uses, plus the characters that make numbers, comments and
#: directives ambiguous.
_ALPHABET = [
    "{", "}", "$", ".", "e", "E", "+", "-", ":=", "<=", "<>", ":", "<", ">",
    "=", "\n", " ", "\t", ",", ";", "(", ")", "[", "]", "*", "/", "_", "?",
    "0", "1", "5", "9", "a", "b", "x", "Z",
    "for", "DownTo", "Begin", "end", "div",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
def test_random_strings_match_reference(source):
    _assert_same(source)


@pytest.mark.parametrize("source", [
    "", "   ", "\n\n", "a\r\nb", "x y", "café := 1",
    "FOR_x forx for1 ıf elſe", "1.e5 1e+ .5.5 12.34.5 1.5e",
    "{$independent a,b}\n{ two\nlines } c", "{$ }", "{ open", "½",
    "٣ + 1.٥",
])
def test_edge_cases_match_reference(source):
    _assert_same(source)


def test_non_decimal_digit_is_a_lex_error():
    # The reference scanner took "²" for a digit and crashed in ``int``;
    # the lexer reports it like any other stray character.
    with pytest.raises(LexError, match=r"line 2: unexpected character '²'"):
        tokenize("a\n²")
