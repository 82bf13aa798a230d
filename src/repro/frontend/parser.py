"""Recursive-descent parser for the W2-like language.

Grammar (Pascal-flavoured, like W2)::

    program   := "program" IDENT ";" [vars] block ["."]
    vars      := "var" { IDENT ":" type ";" }
    type      := "int" | "float" | "array" "[" INT "]" "of" ("int"|"float")
    block     := "begin" stmts "end"
    stmts     := { stmt ";" }
    stmt      := assign | for | if | block
    assign    := lvalue ":=" expr
    for       := "for" IDENT ":=" expr ("to"|"downto") expr ["by" INT] "do" stmt
    if        := "if" expr "then" stmt ["else" stmt]
    expr      := rel { ("and"|"or") rel }
    rel       := sum [ ("<"|"<="|">"|">="|"="|"<>") sum ]
    sum       := term { ("+"|"-") term }
    term      := factor { ("*"|"/"|"div"|"mod") factor }
    factor    := NUM | lvalue | call | "(" expr ")" | ("-"|"not") factor
    call      := IDENT "(" expr {"," expr} ")"
"""

from __future__ import annotations

from typing import Optional

from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Expr,
    For,
    If,
    Num,
    Pragmas,
    SourceProgram,
    Stmt,
    UnOp,
    Var,
    VarDecl,
)
from repro.frontend.lexer import Token, tokenize

INTRINSICS = frozenset({"abs", "max", "min", "int", "float", "inverse", "sqrt"})


class ParseError(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        # The token at ``pos``, kept in step by ``_advance``: a plain
        # attribute, since the grammar reads it several times per token.
        self.current = tokens[0]

    # -- token plumbing -------------------------------------------------------

    # Nothing consumes the final eof token (``parse_program`` checks for it
    # in place), so stepping never runs past the end of ``tokens``.

    def _advance(self) -> Token:
        token = self.current
        self.pos += 1
        self.current = self.tokens[self.pos]
        return token

    def _error(self, message: str) -> ParseError:
        return ParseError(f"line {self.current.line}: {message},"
                          f" found {self.current.text!r}")

    # ``_accept`` and ``_expect`` step inline rather than through
    # ``_advance``: between them they consume most tokens of a program.

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.pos += 1
            self.current = self.tokens[self.pos]
            return token
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.pos += 1
            self.current = self.tokens[self.pos]
            return token
        raise self._error(f"expected {text or kind}")

    # -- grammar ---------------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        self._expect("keyword", "program")
        name = self._expect("ident").text
        self._expect("symbol", ";")
        decls = self._parse_vars() if self.current.text == "var" else []
        body = self._parse_block()
        self._accept("symbol", ".")
        if self.current.kind != "eof":
            raise self._error("expected eof")
        return SourceProgram(name, decls, body)

    def _parse_vars(self) -> list[VarDecl]:
        self._expect("keyword", "var")
        decls: list[VarDecl] = []
        while self.current.kind == "ident":
            names = [self._advance().text]
            while self._accept("symbol", ","):
                names.append(self._expect("ident").text)
            line = self.current.line
            self._expect("symbol", ":")
            size: Optional[int] = None
            if self._accept("keyword", "array"):
                self._expect("symbol", "[")
                size = int(self._expect("int").value)
                self._expect("symbol", "]")
                self._expect("keyword", "of")
            if self._accept("keyword", "float"):
                kind = "float"
            elif self._accept("keyword", "int"):
                kind = "int"
            else:
                raise self._error("expected element type 'int' or 'float'")
            self._expect("symbol", ";")
            decls.extend(VarDecl(n, kind, size, line) for n in names)
        return decls

    def _parse_block(self) -> list[Stmt]:
        self._expect("keyword", "begin")
        stmts: list[Stmt] = []
        while not self._accept("keyword", "end"):
            stmts.append(self._parse_stmt())
            # Semicolons are separators; a trailing one before "end" is fine.
            while self._accept("symbol", ";"):
                pass
        return stmts

    def _parse_stmt(self) -> Stmt:
        token = self.current
        if token.kind == "keyword" and token.text == "begin":
            # An inline block is only useful as a loop/branch body; at
            # statement position we simply splice it (single-stmt wrapper).
            body = self._parse_block()
            if len(body) == 1:
                return body[0]
            raise ParseError(
                f"line {token.line}: bare begin/end block with"
                " multiple statements is not a single statement"
            )
        if token.kind == "keyword" and token.text == "for":
            return self._parse_for()
        if token.kind == "keyword" and token.text == "if":
            return self._parse_if()
        if token.kind == "ident":
            return self._parse_assign()
        raise self._error("expected a statement")

    def _parse_body(self) -> list[Stmt]:
        if self.current.kind == "keyword" and self.current.text == "begin":
            return self._parse_block()
        return [self._parse_stmt()]

    def _parse_for(self) -> For:
        line = self.current.line
        self._expect("keyword", "for")
        var = self._expect("ident").text
        self._expect("symbol", ":=")
        start = self._parse_expr()
        if self._accept("keyword", "to"):
            step = 1
        elif self._accept("keyword", "downto"):
            step = -1
        else:
            raise self._error("expected 'to' or 'downto'")
        stop = self._parse_expr()
        if self._accept("keyword", "by"):
            sign = -1 if self._accept("symbol", "-") else 1
            step *= sign * int(self._expect("int").value)
        self._expect("keyword", "do")
        body = self._parse_body()
        return For(var, start, stop, body, step, line)

    def _parse_if(self) -> If:
        line = self.current.line
        self._expect("keyword", "if")
        cond = self._parse_expr()
        self._expect("keyword", "then")
        then_body = self._parse_body()
        else_body: list[Stmt] = []
        if self._accept("keyword", "else"):
            else_body = self._parse_body()
        return If(cond, then_body, else_body, line)

    def _parse_assign(self) -> Assign:
        line = self.current.line
        name = self._expect("ident").text
        target: object
        if self._accept("symbol", "["):
            index = self._parse_expr()
            self._expect("symbol", "]")
            target = ArrayRef(name, index, line)
        else:
            target = Var(name, line)
        self._expect("symbol", ":=")
        value = self._parse_expr()
        return Assign(target, value, line)

    # -- expressions -------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        left = self._parse_rel()
        while self.current.kind == "keyword" and self.current.text in ("and", "or"):
            op = self._advance().text
            right = self._parse_rel()
            left = BinOp(op, left, right)
        return left

    def _parse_rel(self) -> Expr:
        left = self._parse_sum()
        if self.current.kind == "symbol" and self.current.text in (
            "<", "<=", ">", ">=", "=", "<>"
        ):
            op = self._advance().text
            right = self._parse_sum()
            return BinOp(op, left, right)
        return left

    def _parse_sum(self) -> Expr:
        left = self._parse_term()
        while self.current.kind == "symbol" and self.current.text in ("+", "-"):
            op = self._advance().text
            right = self._parse_term()
            left = BinOp(op, left, right)
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while (
            (self.current.kind == "symbol" and self.current.text in ("*", "/"))
            or (self.current.kind == "keyword"
                and self.current.text in ("div", "mod"))
        ):
            op = self._advance().text
            right = self._parse_factor()
            left = BinOp(op, left, right)
        return left

    def _parse_factor(self) -> Expr:
        token = self.current
        if token.kind in ("int", "float"):
            self._advance()
            return Num(token.value, token.line)
        if token.kind == "keyword" and token.text in ("int", "float"):
            # Conversion intrinsics share their names with type keywords.
            self._advance()
            self._expect("symbol", "(")
            arg = self._parse_expr()
            self._expect("symbol", ")")
            return Call(token.text, (arg,), token.line)
        if token.kind == "symbol" and token.text == "-":
            self._advance()
            return UnOp("-", self._parse_factor(), token.line)
        if token.kind == "keyword" and token.text == "not":
            self._advance()
            return UnOp("not", self._parse_factor(), token.line)
        if token.kind == "symbol" and token.text == "(":
            self._advance()
            expr = self._parse_expr()
            self._expect("symbol", ")")
            return expr
        if token.kind == "ident":
            name = self._advance().text
            follow = self.current
            if follow.kind == "symbol" and follow.text == "(":
                self._advance()
                if name.lower() not in INTRINSICS:
                    raise ParseError(
                        f"line {token.line}: unknown intrinsic {name!r}"
                        f" (available: {', '.join(sorted(INTRINSICS))})"
                    )
                args = [self._parse_expr()]
                while self._accept("symbol", ","):
                    args.append(self._parse_expr())
                self._expect("symbol", ")")
                return Call(name.lower(), tuple(args), token.line)
            if follow.kind == "symbol" and follow.text == "[":
                self._advance()
                index = self._parse_expr()
                self._expect("symbol", "]")
                return ArrayRef(name, index, token.line)
            return Var(name, token.line)
        raise self._error("expected an expression")


def parse(source: str) -> SourceProgram:
    tokens, raw_pragmas = tokenize(source)
    program = _Parser(tokens).parse_program()
    independent: set[str] = set()
    for pragma in raw_pragmas:
        if pragma.name == "independent":
            independent.update(pragma.args)
        else:
            raise ParseError(
                f"line {pragma.line}: unknown directive {{{'$' + pragma.name}}}"
            )
    program.pragmas = Pragmas(frozenset(independent))
    return program
