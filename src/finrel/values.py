"""Hereditarily finite values: exact numbers, symbols, pairs, canonical sets.

Everything this library manipulates is a Value: an exact rational number,
a symbol, an ordered pair of Values, or a finite set of Values.  Values
are immutable, hashable, and totally ordered; a set keeps its elements
sorted and duplicate-free, so structural equality coincides with
canonical-form equality.  Because sets may contain pairs and other sets,
relations can themselves be elements of sets and keys of other relations,
which the auction machinery relies on.

Numbers are a single kind: an integer is a rational with denominator one.
All arithmetic is exact, so prices and valuations never touch floating
point.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

NUM, SYM, PAIR, SET = 0, 1, 2, 3

# number text, an integer or n/d, in both text formats; sym refuses it as a symbol
NUMBER_TEXT = r"-?[0-9]+(?:/[0-9]+)?"
_NUMBER_LOOKALIKE = re.compile(NUMBER_TEXT + r"\Z")


class Value:
    """A canonical, immutable node of the value universe.

    The total order puts numbers before symbols before pairs before sets;
    numbers compare by magnitude, symbols lexicographically, pairs and
    sets lexicographically by component.  The order is stable across runs
    and is what every deterministic output in the package is sorted by.
    """

    # The kind is the first component of the key, so it needs no slot of
    # its own.  _index holds a relation's views record (relations._Views:
    # its by-first index, projector, class tuple and converse), made once
    # the set has passed the relation check.  Each view is built on first
    # use from the immutable payload and never changed, so sharing a Value
    # between threads stays safe.  _text holds the canonical text
    # (encoding's wire format) once the Value has been written as a part
    # of another; a thread racing to write it stores an equal string.
    __slots__ = ("payload", "_key", "_hash", "_index", "_text")

    def __init__(self, payload, key, h: int):
        self.payload = payload
        self._key = key
        # hashes are combined structurally from cached child hashes so
        # deep values never re-hash their numeric leaves
        self._hash = h
        self._index = None
        # set here rather than left unset: catching AttributeError on a
        # first read made writing mostly fresh values slower
        self._text = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Value)
            and self._hash == other._hash
            and self._key == other._key
        )

    # a > b and a >= b are b < a and b <= a: Python reflects them here
    def __lt__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return self._key < other._key

    def __le__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return self._key <= other._key

    def __hash__(self):
        return self._hash

    @property
    def is_num(self) -> bool:
        return self._key[0] == NUM

    @property
    def is_sym(self) -> bool:
        return self._key[0] == SYM

    @property
    def is_pair(self) -> bool:
        return self._key[0] == PAIR

    @property
    def is_set(self) -> bool:
        return self._key[0] == SET

    @property
    def first(self) -> "Value":
        if self._key[0] != PAIR:
            raise TypeError(f"not a pair: {self!r}")
        return self.payload[0]

    @property
    def second(self) -> "Value":
        if self._key[0] != PAIR:
            raise TypeError(f"not a pair: {self!r}")
        return self.payload[1]

    @property
    def elements(self) -> tuple:
        """Elements of a set, in canonical (strictly increasing) order."""
        if self._key[0] != SET:
            raise TypeError(f"not a set: {self!r}")
        return self.payload

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        if self._key[0] != SET:
            raise TypeError(f"not a set: {self!r}")
        return len(self.payload)

    def __repr__(self):
        return _shown(self)


def _shown(v: Value) -> str:
    kind = v._key[0]
    if kind == NUM:
        f = v.payload
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if kind == SYM:
        return f'"{v.payload}"'
    if kind == PAIR:
        return f"({_shown(v.payload[0])}, {_shown(v.payload[1])})"
    return "{" + ", ".join(_shown(e) for e in v.payload) + "}"


_INT_CACHE: dict = {}


def num(x) -> Value:
    """Numeric atom from an int or Fraction; always stored reduced.

    The payload is always a Fraction.  An integer is keyed by the int
    itself, which equals that Fraction and hashes like it, so integers
    and rationals still compare in numeric order while integer keys
    compare without leaving C.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not values")
    if isinstance(x, int):
        cached = _INT_CACHE.get(x)
        if cached is not None:
            return cached
        v = Value(Fraction(x), (NUM, x), hash((NUM, x)))
        if -64 <= x <= 1024:
            _INT_CACHE[x] = v
        return v
    if not isinstance(x, Fraction):
        raise TypeError(f"not a number: {x!r}")
    if x.denominator == 1:
        return num(x.numerator)
    return Value(x, (NUM, x), hash((NUM, x)))


def rat(numerator: int, denominator: int) -> Value:
    """Exact rational; rejects a zero denominator."""
    if denominator == 0:
        raise ValueError("rational with zero denominator")
    return num(Fraction(numerator, denominator))


def sym(name: str) -> Value:
    if not isinstance(name, str) or not name:
        raise TypeError("symbol name must be a nonempty string")
    if _NUMBER_LOOKALIKE.match(name):
        raise ValueError(f"symbol {name!r} would be read back as a number")
    if '"' in name or any(ord(c) < 32 for c in name):
        raise ValueError(f"symbol {name!r} contains quote or control characters")
    if "\\" in name:
        raise ValueError(f"symbol {name!r} contains a backslash")
    # a lone surrogate (from a JSON escape or an undecodable argument) has
    # no UTF-8 encoding, so the symbol could never be written out
    if not name.isascii() and any("\ud800" <= c <= "\udfff" for c in name):
        raise ValueError(f"symbol {name!r} contains a lone surrogate")
    return Value(name, (SYM, name), hash((SYM, name)))


def pair(a, b) -> Value:
    if type(a) is not Value:
        a = canonicalize(a)
    if type(b) is not Value:
        b = canonicalize(b)
    return Value((a, b), (PAIR, a._key, b._key), hash((PAIR, a._hash, b._hash)))


_sort_key = attrgetter("_key")


def fset(items: Iterable = ()) -> Value:
    """Finite set: deduplicates and sorts its elements."""
    distinct = dict.fromkeys(
        [item if type(item) is Value else canonicalize(item) for item in items]
    )
    return _set_of_sorted(tuple(sorted(distinct, key=_sort_key)))


def _set_of_sorted(elems: tuple) -> Value:
    """Set Value from elements that are already canonical, distinct and in
    canonical order; the caller guarantees all three."""
    return Value(
        elems,
        (SET, tuple([e._key for e in elems])),
        hash((SET, tuple([e._hash for e in elems]))),
    )


def _set_plus(s: Value, x: Value) -> Value:
    """s + {x} for a set s and a canonical x: x goes in at its bisect
    position in the sorted payload, so nothing is sorted again.  s itself
    when x is already a member."""
    keys = s._key[1]
    i = bisect_left(keys, x._key)
    if i < len(keys) and keys[i] == x._key:
        return s
    elems = s.payload
    return _set_of_sorted(elems[:i] + (x,) + elems[i:])


def canonicalize(obj) -> Value:
    """Canonical Value from a raw tree.

    Accepts Values (returned unchanged, so the function is idempotent),
    ints and Fractions, strings (symbols), 2-tuples (pairs), and
    lists/sets/frozensets (finite sets).
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        raise TypeError("booleans are not values")
    if isinstance(obj, (int, Fraction)):
        return num(obj)
    if isinstance(obj, str):
        return sym(obj)
    if isinstance(obj, tuple):
        if len(obj) != 2:
            raise TypeError(f"tuples denote pairs and must have length 2: {obj!r}")
        return pair(obj[0], obj[1])
    if isinstance(obj, (list, set, frozenset)):
        return fset(obj)
    raise TypeError(f"cannot interpret {obj!r} as a value")


V = canonicalize

EMPTY = fset()

# reserved marker returned by partial lookups; see the_elem
UNDEFINED = sym("⊥")


def _require_set(v, what: str = "argument") -> Value:
    if not isinstance(v, Value) or v._key[0] != SET:
        raise TypeError(f"{what} must be a finite set, got {v!r}")
    return v


def size(s: Value) -> int:
    return len(_require_set(s).elements)


def member(x, s: Value) -> bool:
    _require_set(s)
    return canonicalize(x) in s.payload


def is_subset(a: Value, b: Value) -> bool:
    _require_set(a, "left argument")
    _require_set(b, "right argument")
    members = frozenset(b.payload)
    return all(e in members for e in a.payload)


def union(a: Value, b: Value) -> Value:
    _require_set(a, "left argument")
    _require_set(b, "right argument")
    return fset(a.payload + b.payload)


def intersection(a: Value, b: Value) -> Value:
    _require_set(a, "left argument")
    _require_set(b, "right argument")
    members = frozenset(b.payload)
    return _set_of_sorted(tuple([e for e in a.payload if e in members]))


def difference(a: Value, b: Value) -> Value:
    _require_set(a, "left argument")
    _require_set(b, "right argument")
    members = frozenset(b.payload)
    return _set_of_sorted(tuple([e for e in a.payload if e not in members]))


def cartesian_product(a: Value, b: Value) -> Value:
    _require_set(a, "left argument")
    _require_set(b, "right argument")
    return fset(pair(x, y) for x in a.payload for y in b.payload)


def big_union(s: Value) -> Value:
    """Union of a set of sets."""
    _require_set(s)
    out = []
    for block in s.payload:
        _require_set(block, "member of the union")
        out.extend(block.payload)
    return fset(out)


def _sole(items: tuple) -> Value:
    """The one item of a tuple; UNDEFINED for none or several."""
    return items[0] if len(items) == 1 else UNDEFINED


def the_elem(s: Value) -> Value:
    """The sole element of a singleton; UNDEFINED for any other set."""
    return _sole(_require_set(s).payload)


def as_fraction(v: Value) -> Fraction:
    if not isinstance(v, Value) or v._key[0] != NUM:
        raise TypeError(f"not a numeric atom: {v!r}")
    return v.payload


def _require_numeric(s: Value, op: str) -> Value:
    _require_set(s)
    if not s.payload:
        raise ValueError(f"{op} of an empty set")
    for e in s.payload:
        if e._key[0] != NUM:
            raise ValueError(f"{op} over a non-numeric element: {e!r}")
    return s


def min_of(s: Value) -> Value:
    # canonical order on numeric atoms is numeric order, so the first
    # element of the sorted payload is the minimum
    return _require_numeric(s, "minimum").payload[0]


def max_of(s: Value) -> Value:
    return _require_numeric(s, "maximum").payload[-1]
