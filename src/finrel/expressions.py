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

from .encoding import _read_int
from .errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
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


# one row per operator: (prefix name, infix token, arity, function)
OPERATORS = (
    ("outside", "outside", 2, outside),
    ("paste", "+*", 2, paste),
    ("single_paste", None, 3, single_paste),
    (None, "+<", 2, _infix_single_paste),
    (None, "--", 2, single_outside),
    ("eval", ",,", 2, eval_rel),
    ("eval2", ",,,", 2, eval_rel_union),
    ("image", None, 2, image),
    ("converse", None, 1, converse),
    ("compose", "O", 2, compose),
    ("projector", None, 1, projector),
    ("quotient", None, 3, quotient),
    ("kernel", None, 1, kernel),
)
_PREFIX = {name: (arity, fn) for name, _, arity, fn in OPERATORS if name}
_INFIX = {token: fn for _, token, _, fn in OPERATORS if token}

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
        self.depth = 0

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
        # depth counts the brackets and calls around this expression
        if self.depth > CAP_DEPTH:
            raise CapExceeded(f"expression nested deeper than {CAP_DEPTH} levels")
        self.depth += 1
        left = self.atom()
        while (tok := self.peek()) is not None and tok[1] in _INFIX:
            _, text, at = self.take()
            left = _apply(text, _INFIX[text], (left, self.atom()), at)
        self.depth -= 1
        return left

    def atom(self) -> Value:
        kind, text, at = self.take()
        if kind == "int":
            return num(_read_int(text))
        if kind == "rat":
            numerator, denominator = (_read_int(part) for part in text.split("/"))
            if denominator == 0:
                raise ParseError(f"zero denominator at position {at}")
            return num(Fraction(numerator, denominator))
        if kind == "string":
            try:
                return sym(text[1:-1])
            except (TypeError, ValueError) as e:
                raise ParseError(f"bad symbol at position {at}: {e}") from None
        if text == "{":
            return self.set_literal()
        if text == "(":
            return self.paren()
        if kind == "ident" and text in _PREFIX:
            return self.call(text, at)
        raise ParseError(f"unexpected {text!r} at position {at}")

    def items(self, close: str) -> list[Value]:
        """Comma-separated expressions, then the closing token."""
        items = [self.expression()]
        while (tok := self.take())[1] == ",":
            items.append(self.expression())
        if tok[1] != close:
            raise ParseError(f"expected ',' or {close!r} at position {tok[2]}, got {tok[1]!r}")
        return items

    def set_literal(self) -> Value:
        if self.peek() and self.peek()[1] == "}":
            self.take()
            return fset()
        return fset(self.items("}"))

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
        arity, fn = _PREFIX[name]
        self.expect("(")
        args = self.items(")")
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), got {len(args)} at position {at}"
            )
        return _apply(name, fn, args, at)


def _apply(name: str, fn, args, at: int) -> Value:
    """Run one operator: the text parsed, so arguments it rejects are invalid input."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"operator {name!r} at position {at}: {e}") from None


def evaluate_expression(text: str) -> Value:
    """Parse and evaluate one expression, returning its canonical value."""
    return _Parser(text).parse()
