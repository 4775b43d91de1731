"""A small expression language over the relation operators.

Literals use brace/paren syntax: sets as {a, b}, pairs as (a, b), numbers
as 12 or 3/4 (values.NUMBER_TEXT), symbols as "quoted", where sym decides
what text a symbol may hold.  The operators are available both as infix
tokens (`outside`, `+*`, `+<`, `,,`, `,,,`, `O`, `--`) and as prefix calls
(`paste(P, Q)`, `eval(R, x)`, `quotient(R, P, Q)`, ...), all at one
precedence level, left-associative.  Type ascriptions of the form `::name`
are skipped, so examples written for typed systems evaluate unchanged:

    {(0::nat,10),(1,11),(1,12::nat)} ,, 0
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable, NamedTuple

from .encoding import _read_number
from .errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from .values import NUMBER_TEXT, Value, fset, pair, sym
from .relations import (
    _by_first,
    compose,
    converse,
    eval_rel,
    eval_rel_union,
    image,
    is_relation,
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


# Steps of work one operator may take in `eval`, counted from its operands
# before it builds anything: the same cap as `enumerate`'s lines.
CAP_EVAL_WORK = 150_000


def _compose_work(R: Value, S: Value) -> int:
    """Images compose(R, S) reads: |S(y)| summed over the y's of each x in
    R's point index, which compose reads next, so the pairs (x, y) of R."""
    s_images = _by_first(S)
    return sum([len(s_images.get(y, ())) for ys in _by_first(R).values() for y in ys])


def _kernel_work(f: Value) -> int:
    """Pairs kernel(f) builds: each point with every point of its class, so
    the sum of the squared sizes of f's classes."""
    return sum([n * n for n in Counter([p.payload[1] for p in f.payload]).values()])


def _quotient_work(R: Value, P: Value, Q: Value) -> int:
    """Class pairs quotient(R, P, Q) tests: P-classes times Q-classes."""
    return len(set(_by_first(P).values())) * len(set(_by_first(Q).values()))


class Operator(NamedTuple):
    name: str | None  # as a prefix call
    token: str | None  # as an infix token
    arity: int
    fn: Callable
    # the operator's super-linear work on relation operands, checked
    # against CAP_EVAL_WORK before it runs; None when it is linear
    work: Callable | None = None


OPERATORS = (
    Operator("outside", "outside", 2, outside),
    Operator("paste", "+*", 2, paste),
    Operator("single_paste", None, 3, single_paste),
    Operator(None, "+<", 2, _infix_single_paste),
    Operator(None, "--", 2, single_outside),
    Operator("eval", ",,", 2, eval_rel),
    Operator("eval2", ",,,", 2, eval_rel_union),
    Operator("image", None, 2, image),
    Operator("converse", None, 1, converse),
    Operator("compose", "O", 2, compose, _compose_work),
    Operator("projector", None, 1, projector),
    Operator("quotient", None, 3, quotient, _quotient_work),
    Operator("kernel", None, 1, kernel, _kernel_work),
)
_PREFIX = {op.name: op for op in OPERATORS if op.name}
_INFIX = {op.token: op for op in OPERATORS if op.token}

_TOKEN = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<ascription>::[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"]*")
  | (?P<number>{NUMBER_TEXT})
  | (?P<op>,,,|,,|\+\*|\+<|--)
  | (?P<punct>[(){{}},])
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
        if kind == "number":
            try:
                return _read_number(text)
            except ValueError:
                raise ParseError(f"zero denominator at position {at}") from None
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
        op = _PREFIX[name]
        self.expect("(")
        args = self.items(")")
        if len(args) != op.arity:
            raise ParseError(
                f"{name} takes {op.arity} argument(s), got {len(args)} at position {at}"
            )
        return _apply(name, op, args, at)


def _apply(name: str, op: Operator, args, at: int) -> Value:
    """Run one operator: the text parsed, so arguments it rejects are invalid
    input.  Operands that are not all relations go to the operator as they
    are, which rejects them with its own message."""
    if op.work is not None and all(map(is_relation, args)):
        work = op.work(*args)
        if work > CAP_EVAL_WORK:
            raise CapExceeded(
                f"operator {name!r} at position {at} would take {work} steps, "
                f"more than {CAP_EVAL_WORK}"
            )
    try:
        return op.fn(*args)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"operator {name!r} at position {at}: {e}") from None


def evaluate_expression(text: str) -> Value:
    """Parse and evaluate one expression, returning its canonical value."""
    return _Parser(text).parse()
