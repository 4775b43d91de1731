"""Text encoding of values, bijective on canonical forms.

The wire format is JSON: integers as numbers, rationals as "n/d" strings,
symbols as other strings, pairs as ["pair", a, b], sets as ["set", ...].
Sets may arrive in any order; output is always canonical order, compact,
UTF-8, newline-free.  Strings that look like numbers are rejected as
symbols so that parsing stays unambiguous.

_read is the one reader from decoded JSON to Values.  Its depth cap
applies to every value read, counted from the document root by the room
each caller gives; what is never read is bounded by the JSON decoder.

serialize_value writes that text directly, node by node;
auctions.serialize_outcome joins its text for the outcome fields.  The
writer's one other entry is its set branch, serialize_elements: the text
of the set of some listed elements, with no set built, for a caller that
guarantees them canonical Values, distinct and in canonical order.
`finrel enumerate` writes each partition so, from the block list that
all_partitions_list gives for elements in canonical order.

Shared text: the writer keeps a table from each part of a value (an
element of a set, a component of a pair, and so on down) to the text
already written for it.  Equal values have equal canonical text, so a
part met again is joined in from the table instead of written again.
serialize_value(v) starts a fresh table; a caller that prints many values
built from common parts, as `finrel enumerate` prints partitions sharing
their blocks and injections sharing their pairs and `finrel run-single`
its alloc and price sharing their bid vectors, passes one table to every
call.  The table never holds a printed value itself, only its
parts, so it grows with the distinct parts, not with the values printed.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from .errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from .values import NUM, PAIR, SYM, Value, fset, num, pair, sym

_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+\Z")
_INTEGER = re.compile(r"-?[0-9]+\Z")


def _read_int(digits: str) -> int:
    """int of text a number pattern has matched, so its one possible
    failure is Python's int-conversion digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise CapExceeded(
            f"number longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _read(obj, room: int, what: str, memo: dict | None = None) -> Value:
    """obj read with room array levels left; an array with none left
    refuses the input, named what, as nested too deep.  With a memo, one
    per document, each str or int atom and each array of such atoms is
    built once; the exact type test keeps true and 1.0 apart from 1.  The
    room is checked first, so a memoized array is refused where it is
    too deep."""
    kind = type(obj)
    if kind is list and room == 0:
        raise CapExceeded(f"{what} nested deeper than {CAP_DEPTH} levels")
    if memo is None:
        return _build(obj, room, what, None)
    if kind is str or kind is int:
        key = obj
    elif kind is list and all(type(x) is str or type(x) is int for x in obj):
        key = tuple(obj)
    else:
        return _build(obj, room, what, memo)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _build(obj, room, what, memo)
    return v


def _build(obj, room: int, what: str, memo: dict | None) -> Value:
    """The Value obj stands for, its components read one level down."""
    if isinstance(obj, bool):
        raise ValidationError("booleans are not values")
    if isinstance(obj, int):
        return num(obj)
    if isinstance(obj, float):
        raise ValidationError(f"non-integer number {obj!r}; write rationals as \"n/d\"")
    if isinstance(obj, str):
        if _RATIONAL.match(obj):
            numerator, denominator = (_read_int(part) for part in obj.split("/"))
            if denominator == 0:
                raise ValidationError(f"zero denominator in {obj!r}")
            return num(Fraction(numerator, denominator))
        if _INTEGER.match(obj):
            raise ValidationError(f"integer {obj!r} must be a JSON number, not a string")
        try:
            return sym(obj)
        except (TypeError, ValueError) as e:
            raise ValidationError(str(e)) from None
    if not isinstance(obj, list):
        raise ValidationError(f"cannot read {obj!r} as a value")
    if not obj:
        raise ValidationError('untagged array; expected ["set", ...] or ["pair", a, b]')
    tag, rest = obj[0], obj[1:]
    room -= 1
    if tag == "pair":
        if len(rest) != 2:
            raise ValidationError(f"pair needs exactly 2 components, got {len(rest)}")
        return pair(_read(rest[0], room, what, memo), _read(rest[1], room, what, memo))
    if tag == "set":
        return fset(_read(e, room, what, memo) for e in rest)
    raise ValidationError(f"unknown tag {tag!r}; expected \"set\" or \"pair\"")


def _load_json(text: str, what: str):
    """Decoded JSON text.  Bad syntax is a ParseError; nesting deeper than
    the decoder can recurse and integers past Python's digit limit are
    CapExceeded.  _read caps the depth of what it reads."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad {what} at position {e.pos}: {e.msg}") from None
    except RecursionError:
        raise CapExceeded(f"{what} nested deeper than {CAP_DEPTH} levels") from None
    except ValueError:  # the other error json.loads raises: the digit limit
        raise CapExceeded(
            f"{what} has a number longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_value(text: str) -> Value:
    return _read(_load_json(text, "value text"), CAP_DEPTH, "value text")


def serialize_value(v: Value, table: dict | None = None) -> str:
    """Canonical text of v.  The text of v's parts is read from table and
    added to it; without a table, a fresh one serves this call alone."""
    if not isinstance(v, Value):
        raise TypeError(f"not a value: {v!r}")
    return _write(v, {} if table is None else table)


def serialize_elements(elems, table: dict) -> str:
    """Canonical text of the set of elems, without building the set: the
    caller guarantees that elems are canonical Values, distinct and in
    canonical order.  Each element's text is read from table and added
    to it, as serialize_value does with the parts of a value."""
    if not elems:
        return '["set"]'
    return '["set",' + ",".join(_texts(elems, table)) + "]"


def _write(v: Value, table: dict) -> str:
    """Compact JSON text of paper.value_to_obj(v), built without the object.
    Each part of v is written once per table (see the module docstring);
    v itself is not stored.  Strings go through the json module's own
    encoder, as json.dumps with ensure_ascii=False escapes them; an
    integer past the digit limit raises the same ValueError as there,
    and leaves in the table only the parts written in full."""
    key = v._key
    kind = key[0]
    if kind == NUM:
        n = key[1]
        if type(n) is int:  # integers are keyed by the int itself
            return str(n)
        return f'"{n.numerator}/{n.denominator}"'
    if kind == SYM:
        return encode_basestring(key[1])
    if kind == PAIR:
        first, second = _texts(v.payload, table)
        return '["pair",' + first + "," + second + "]"
    return serialize_elements(v.payload, table)


def _texts(parts, table: dict) -> list:
    """The text of each part, from table or written into it."""
    texts = []
    for part in parts:
        text = table.get(part)
        if text is None:
            text = table[part] = _write(part, table)
        texts.append(text)
    return texts
