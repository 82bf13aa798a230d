"""A W2-like source language.

W2 (Gross & Lam 1986) used Pascal-like control constructs to program the
Warp cells.  This front end accepts the same shape of language::

    program conv;
    {$independent b}
    var
      a: array[512] of float;
      b: array[512] of float;
      s: float;
    begin
      s := 0.0;
      for i := 0 to 511 do begin
        b[i] := a[i] * 2.0 + 1.0;
        if a[i] > 0.0 then s := s + a[i];
      end;
    end.

``{$independent x, y}`` is the paper's array-disambiguation directive
(Table 4-2, footnote *): it asserts the named arrays carry no loop-borne
dependences.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    For,
    If,
    Num,
    Pragmas,
    SourceProgram,
    UnOp,
    Var,
)
from repro.frontend.lexer import LexError, Token, tokenize
from repro.frontend.parser import ParseError, parse
from repro.frontend.lower import LowerError, lower
from repro.ir.stmts import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compile import CompilerPolicy


def parse_program(source: str) -> tuple[Program, Pragmas]:
    """Parse and lower W2-like source to IR."""
    ast = parse(source)
    return lower(ast), ast.pragmas


def parse_with_policy(
    source: str, policy: CompilerPolicy
) -> tuple[Program, CompilerPolicy]:
    """Parse and lower ``source``; return its IR and ``policy`` widened by
    the source's ``{$independent ...}`` pragmas."""
    program, pragmas = parse_program(source)
    if pragmas.independent_arrays:
        policy = replace(
            policy,
            independent_arrays=policy.independent_arrays
            | pragmas.independent_arrays,
        )
    return program, policy


__all__ = [
    "parse_program",
    "parse_with_policy",
    "parse",
    "lower",
    "tokenize",
    "Token",
    "LexError",
    "ParseError",
    "LowerError",
    "SourceProgram",
    "Pragmas",
    "Assign",
    "For",
    "If",
    "BinOp",
    "UnOp",
    "Num",
    "Var",
    "ArrayRef",
    "Call",
]
