"""Text encoding of values, bijective on canonical forms.

The wire format is JSON: integers as numbers, rationals as "n/d" strings,
symbols as other strings, pairs as ["pair", a, b], sets as ["set", ...].
Sets may arrive in any order; output is always canonical order, compact,
UTF-8, newline-free.  Strings that look like numbers are rejected as
symbols so that parsing stays unambiguous.

A document nested deeper than CAP_DEPTH levels, counting arrays and
objects outside strings, is refused on its text before it is decoded
(_load_json); _read, the one reader of decoded JSON, counts no depth.

serialize_value writes that text directly, node by node;
auctions.serialize_outcome joins its text for the outcome fields.  The
writer's one other entry is its set branch, serialize_elements: the text
of the set of some listed elements, with no set built, for a caller that
guarantees them canonical Values, distinct and in canonical order.
`finrel enumerate` writes each partition and each injection so, from the
block list that all_partitions_list or the pair list that injections_alg
gives for elements in canonical order.

Kept text: each part of a value (an element of a set, a component of a
pair, and so on down) keeps its canonical text in its _text slot once it
has been written, and the same part met again is joined in from there
instead of written again; an equal part built apart is written once
itself, to equal text.  So the lines of `finrel enumerate`, which share
their blocks or pairs, write each block or pair once, and `finrel
run-single` writes the bid vectors its alloc and price share once.  A printed value
keeps no text itself, only its parts do; a write that raises at the
digit limit keeps none for the failing part or any part holding it.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring

from .errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from .values import _NUMBER_LOOKALIKE, NUM, PAIR, SYM, Value, fset, num, pair, rat, sym


def _read_number(text: str) -> Value:
    """The number of text that values.NUMBER_TEXT matches, in both formats:
    an int, or n/d by rat, whose ValueError at a zero denominator each
    reader words itself.  A part past the digit limit is CapExceeded first."""
    try:
        parts = [int(part) for part in text.split("/")]
    except ValueError:
        raise CapExceeded(f"number longer than {sys.get_int_max_str_digits()} digits") from None
    return num(parts[0]) if len(parts) == 1 else rat(*parts)


def _read(obj, memo: dict) -> Value:
    """The Value obj stands for; memo, one per document, keeps each str or
    int atom and array of such atoms built, typed exactly: true is not 1."""
    kind = type(obj)
    if kind is str or kind is int:
        key = obj
    elif kind is list and all(type(x) is str or type(x) is int for x in obj):
        key = tuple(obj)
    else:
        return _build(obj, memo)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _build(obj, memo)
    return v


def _json(obj) -> str:
    """Decoded JSON as an error message quotes it: as JSON text."""
    return json.dumps(obj, ensure_ascii=False)


def _build(obj, memo: dict) -> Value:
    """The Value obj stands for, its components read by _read."""
    if isinstance(obj, bool):
        raise ValidationError("booleans are not values")
    if isinstance(obj, int):
        return num(obj)
    if isinstance(obj, float):
        raise ValidationError(f"non-integer number {obj!r}; write rationals as \"n/d\"")
    if isinstance(obj, str):
        if _NUMBER_LOOKALIKE.match(obj):
            if "/" not in obj:
                raise ValidationError(f"integer {_json(obj)} must be a JSON number, not a string")
            try:
                return _read_number(obj)
            except ValueError:
                raise ValidationError(f"zero denominator in {_json(obj)}") from None
        try:
            return sym(obj)
        except (TypeError, ValueError) as e:
            raise ValidationError(str(e)) from None
    if not isinstance(obj, list):
        raise ValidationError(f"cannot read {_json(obj)} as a value")
    if not obj:
        raise ValidationError('untagged array; expected ["set", ...] or ["pair", a, b]')
    tag, rest = obj[0], obj[1:]
    if tag == "pair":
        if len(rest) != 2:
            raise ValidationError(f"pair needs exactly 2 components, got {len(rest)}")
        return pair(_read(rest[0], memo), _read(rest[1], memo))
    if tag == "set":
        return fset(_read(e, memo) for e in rest)
    raise ValidationError(f"unknown tag {_json(tag)}; expected \"set\" or \"pair\"")


# brackets as ( and ), quotes kept, every other byte dropped
_BRACKETS, _OTHER_BYTES = bytes.maketrans(b"[{]}", b"(())"), bytes(set(range(256)) - set(b'[]{}"'))


def _json_depth(text: str) -> int:
    """Levels of arrays and objects that JSON text nests outside strings, up
    to CAP_DEPTH + 1, by bytes methods: escapes, other bytes and quoted runs
    go, each pass peels the innermost () pairs, and unclosed openers add on,
    so on other text it is at least any depth the decoder reaches in it."""
    data = text.encode("utf-8", "surrogatepass").replace(b"\\\\", b"").replace(b'\\"', b"")
    data = b"".join(data.translate(_BRACKETS, _OTHER_BYTES).replace(b'""', b"").split(b'"')[::2])
    height = 0
    while b"()" in data and height < CAP_DEPTH:
        data, height = data.replace(b"()", b""), height + 1
    return min(height + data.count(b"("), CAP_DEPTH + 1)


def _load_json(text: str, what: str):
    """Decoded JSON text.  Nesting deeper than CAP_DEPTH is CapExceeded,
    decided on the text first; then bad syntax is a ParseError, and an
    integer past Python's digit limit CapExceeded."""
    # no more openers than the cap, in strings or not, cannot nest past it
    if text.count("[") + text.count("{") > CAP_DEPTH and _json_depth(text) > CAP_DEPTH:
        raise CapExceeded(f"{what} nested deeper than {CAP_DEPTH} levels")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad {what} at position {e.pos}: {e.msg}") from None
    except ValueError:  # the other error json.loads raises: the digit limit
        digits = sys.get_int_max_str_digits()
        raise CapExceeded(f"{what} has a number longer than {digits} digits") from None


def parse_value(text: str) -> Value:
    return _read(_load_json(text, "value text"), {})


def serialize_value(v: Value) -> str:
    """Canonical text of v, its parts' texts read from or kept on them."""
    if not isinstance(v, Value):
        raise TypeError(f"not a value: {v!r}")
    return _write(v)


def serialize_elements(elems) -> str:
    """Canonical text of the set of elems, without building the set: the
    caller guarantees that elems are canonical Values, distinct and in
    canonical order.  Each element's text is read from or kept on it, as
    serialize_value does with the parts of a value."""
    if not elems:
        return '["set"]'
    return '["set",' + ",".join(_texts(elems)) + "]"


def _write(v: Value) -> str:
    """Compact JSON text of paper.value_to_obj(v), built without the object.
    Each part of v is written once (see the module docstring); v itself
    keeps no text.  Strings go through the json module's own encoder, as
    json.dumps with ensure_ascii=False escapes them; an integer past the
    digit limit raises the same ValueError as there, and only the parts
    written in full keep their text."""
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
        first, second = _texts(v.payload)
        return '["pair",' + first + "," + second + "]"
    return serialize_elements(v.payload)


def _texts(parts) -> list:
    """The text of each part, kept on it or written and kept."""
    texts = []
    for part in parts:
        text = part._text
        if text is None:
            text = part._text = _write(part)
        texts.append(text)
    return texts
