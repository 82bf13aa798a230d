"""Tokenizer for the W2-like language."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

KEYWORDS = frozenset(
    {
        "program", "var", "begin", "end", "for", "to", "downto", "do",
        "if", "then", "else", "array", "of", "int", "float", "and", "or",
        "not", "mod", "div", "by",
    }
)

SYMBOLS = (
    ":=", "<=", ">=", "<>", "+", "-", "*", "/", "(", ")", "[", "]",
    ";", ":", ",", "<", ">", "=", ".",
)


class LexError(Exception):
    pass


# Plain and slotted, not frozen: one per token, and none outlives the parse,
# and a frozen record costs several times as much to build.
@dataclass(slots=True)
class Token:
    kind: str  # "ident" | "keyword" | "int" | "float" | "symbol" | "eof"
    text: str
    line: int
    value: Optional[Union[int, float]] = None

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


@dataclass(frozen=True)
class Pragma:
    name: str
    args: tuple[str, ...]
    line: int


#: One token (or newline, or comment) per match, after any other
#: whitespace.  The alternatives are tried in the order a per-character
#: scanner decides: keywords are ASCII letters in any case (no other
#: character lowers to one) and must not run on into an identifier, so
#: their order does not matter; identifiers start with a letter or ``_``;
#: a number starts with a digit, or with ``.`` and a digit; a symbol is
#: the first of ``SYMBOLS`` the text starts with.  ``\s``, ``\w`` and
#: ``\d`` are ``str.isspace``, ``isalnum`` or ``_``, and ``isdecimal``.
#: Only whitespace at the very end of the source matches nothing, so the
#: matches cover all the rest.
_TOKEN = re.compile(
    r"[^\S\n]*(?:"
    r"(?P<newline>\n)"
    r"|(?P<keyword>(?ai:"
    + "|".join(sorted(KEYWORDS))
    + r")(?!\w))"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<float>(?:\d+\.\d+|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + r")"
    r"|(?P<comment>\{[^}]*\})"
    r"|(?P<unterminated>\{)"
    r"|(?P<other>\S)"
    r")"
)


def tokenize(source: str) -> tuple[list[Token], list[Pragma]]:
    """Split source into tokens; ``{...}`` comments are skipped, except
    ``{$name args}`` compiler directives, which are collected."""
    tokens: list[Token] = []
    pragmas: list[Pragma] = []
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        if kind == "ident":
            # ``\w`` less the digits still holds the non-letter numerics.
            if text[0] >= "\x80" and not text[0].isalpha():
                raise LexError(f"line {line}: unexpected character {text[0]!r}")
            tokens.append(Token(kind, text, line))
        elif kind == "symbol":
            tokens.append(Token(kind, text, line))
        elif kind == "newline":
            line += 1
        elif kind == "keyword":
            tokens.append(
                Token(kind, text if text in KEYWORDS else text.lower(), line)
            )
        elif kind == "int":
            tokens.append(Token(kind, text, line, int(text)))
        elif kind == "float":
            tokens.append(Token(kind, text, line, float(text)))
        elif kind == "comment":
            if text.startswith("{$"):
                parts = text[2:-1].replace(",", " ").split()
                if not parts:
                    raise LexError(f"line {line}: empty compiler directive")
                pragmas.append(Pragma(parts[0], tuple(parts[1:]), line))
            line += text.count("\n")
        elif kind == "unterminated":
            raise LexError(f"line {line}: unterminated comment")
        else:
            raise LexError(f"line {line}: unexpected character {text!r}")
    tokens.append(Token("eof", "", line))
    return tokens, pragmas
