"""A small expression language over the relation operators.

Literals use brace/paren syntax: sets as {a, b}, pairs as (a, b), numbers
as 12 or 3/4, symbols as "quoted".  The operators are available both as
infix tokens (`outside`, `+*`, `+<`, `,,`, `,,,`, `O`, `--`) and as prefix
calls (`paste(P, Q)`, `eval(R, x)`, `quotient(R, P, Q)`, ...), all at one
precedence level, left-associative.  Type ascriptions of the form `::name`
are skipped, so examples written for typed systems evaluate unchanged:

    {(0::nat,10),(1,11),(1,12::nat)} ,, 0
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .values import Value, fset, num, pair, sym
from .relations import (
    compose,
    converse,
    eval_rel,
    eval_rel_union,
    image,
    outside,
    paste,
    single_outside,
    single_paste,
)
from .quotients import kernel, projector, quotient


def _infix_single_paste(left: Value, right: Value) -> Value:
    if not right.is_pair:
        raise ValueError(f"right operand of +< must be a pair, got {right!r}")
    return single_paste(left, right.first, right.second)


INFIX = {
    "outside": outside,
    "+*": paste,
    "+<": _infix_single_paste,
    "--": single_outside,
    ",,": eval_rel,
    ",,,": eval_rel_union,
    "O": compose,
}

FUNCTIONS = {
    "outside": (2, outside),
    "paste": (2, paste),
    "single_paste": (3, single_paste),
    "eval": (2, eval_rel),
    "eval2": (2, eval_rel_union),
    "image": (2, image),
    "converse": (1, converse),
    "compose": (2, compose),
    "projector": (1, projector),
    "quotient": (3, quotient),
    "kernel": (1, kernel),
}

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ascription>::[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\\\x00-\x1f]*")
  | (?P<rat>-?[0-9]+/[0-9]+)
  | (?P<int>-?[0-9]+)
  | (?P<op>,,,|,,|\+\*|\+<|--)
  | (?P<punct>[(){},])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = m.lastgroup
        if kind not in ("ws", "ascription"):
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input at position {len(self.text)}")
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.take()
        if tok[1] != text:
            raise ParseError(f"expected {text!r} at position {tok[2]}, got {tok[1]!r}")
        return tok

    def parse(self) -> Value:
        value = self.expression()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input at position {tok[2]}: {tok[1]!r}")
        return value

    def expression(self) -> Value:
        left = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in INFIX:
                return left
            _, text, at = self.take()
            right = self.atom()
            try:
                left = INFIX[text](left, right)
            except (TypeError, ValueError) as e:
                raise ParseError(f"operator {text!r} at position {at}: {e}") from None

    def atom(self) -> Value:
        kind, text, at = self.take()
        if kind == "int":
            return num(int(text))
        if kind == "rat":
            numerator, denominator = text.split("/")
            if int(denominator) == 0:
                raise ParseError(f"zero denominator at position {at}")
            return num(Fraction(int(numerator), int(denominator)))
        if kind == "string":
            try:
                return sym(text[1:-1])
            except (TypeError, ValueError) as e:
                raise ParseError(f"bad symbol at position {at}: {e}") from None
        if text == "{":
            return self.set_literal()
        if text == "(":
            return self.paren()
        if kind == "ident" and text in FUNCTIONS:
            return self.call(text, at)
        raise ParseError(f"unexpected {text!r} at position {at}")

    def set_literal(self) -> Value:
        elems = []
        if self.peek() and self.peek()[1] == "}":
            self.take()
            return fset(elems)
        elems.append(self.expression())
        while True:
            tok = self.take()
            if tok[1] == "}":
                return fset(elems)
            if tok[1] != ",":
                raise ParseError(f"expected ',' or '}}' at position {tok[2]}, got {tok[1]!r}")
            elems.append(self.expression())

    def paren(self) -> Value:
        first = self.expression()
        tok = self.take()
        if tok[1] == ")":
            return first
        if tok[1] == ",":
            second = self.expression()
            self.expect(")")
            return pair(first, second)
        raise ParseError(f"expected ')' or ',' at position {tok[2]}, got {tok[1]!r}")

    def call(self, name: str, at: int) -> Value:
        arity, fn = FUNCTIONS[name]
        self.expect("(")
        args = [self.expression()]
        while self.peek() and self.peek()[1] == ",":
            self.take()
            args.append(self.expression())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), got {len(args)} at position {at}"
            )
        try:
            return fn(*args)
        except (TypeError, ValueError) as e:
            raise ParseError(f"{name} at position {at}: {e}") from None


def evaluate_expression(text: str) -> Value:
    """Parse and evaluate one expression, returning its canonical value."""
    return _Parser(text).parse()
