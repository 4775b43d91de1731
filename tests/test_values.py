import json
from fractions import Fraction
from itertools import product

import pytest

from finrel.encoding import parse_value, serialize_value
from finrel.errors import ParseError, ValidationError
from finrel.expressions import evaluate_expression
from finrel.values import (
    _NUMBER_LOOKALIKE,
    EMPTY,
    UNDEFINED,
    V,
    Value,
    as_fraction,
    canonicalize,
    cartesian_product,
    difference,
    fset,
    intersection,
    is_subset,
    max_of,
    member,
    min_of,
    num,
    pair,
    rat,
    size,
    sym,
    the_elem,
    union,
)


def test_canonical_set_dedupes_and_sorts():
    assert V([2, 1, 1]) == V([1, 2])
    assert repr(V([2, 1, 1])) == "{1, 2}"


def test_canonical_pair_passthrough():
    p = pair(1, fset())
    assert canonicalize(p) == p
    assert p.first == num(1) and p.second == EMPTY


def test_rational_lowest_terms():
    assert rat(2, 4) == rat(1, 2)
    assert rat(4, 2) == num(2)
    assert rat(-2, -4) == rat(1, 2)
    assert repr(rat(1, 2)) == "1/2"


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        rat(1, 0)


def test_canonicalize_idempotent():
    trees = [V([2, 1, (1, [3, 3])]), rat(6, 4), pair("a", [1]), V("sym")]
    for v in trees:
        assert canonicalize(v) == v
        assert canonicalize(canonicalize(v)) == canonicalize(v)


def test_union_intersection_difference_product():
    a, b = V([1, 2]), V([2, 3])
    assert union(a, b) == V([1, 2, 3])
    assert intersection(a, b) == V([2])
    assert difference(EMPTY, V([1])) == EMPTY
    assert cartesian_product(V([1]), V([2, 3])) == V([(1, 2), (1, 3)])


def test_set_ops_reject_non_sets():
    with pytest.raises(TypeError):
        union(num(1), V([1]))
    with pytest.raises(TypeError):
        cartesian_product(V([1]), pair(1, 2))


def test_the_elem_totalized():
    assert the_elem(V([7])) == num(7)
    assert the_elem(EMPTY) == UNDEFINED
    assert the_elem(V([1, 2])) == UNDEFINED


def test_min_max():
    assert min_of(V([3, 1, 2])) == num(1)
    assert max_of(fset([rat(1, 2), rat(2, 3)])) == rat(2, 3)
    assert min_of(V([5])) == num(5)
    with pytest.raises(ValueError):
        min_of(EMPTY)
    with pytest.raises(ValueError):
        max_of(V([1, "a"]))


def test_order_kinds_and_nesting():
    assert num(1) < sym("a") < pair(0, 0) < EMPTY
    assert rat(1, 2) < num(1)
    assert V([1]) < V([1, 2]) < V([2])
    assert pair(1, 1) < pair(1, 2) < pair(2, 0)


def test_greater_than_reflects_onto_less_than():
    assert V([2]) > V([1, 2]) > V([1]) > pair(9, 9) > sym("a") > num(1) > rat(1, 2)
    assert V([1]) >= V([1]) >= num(7) and num(1) >= rat(2, 2)
    assert not num(1) > num(1) and not num(1) >= num(2)
    assert max([pair(1, 2), V([]), num(3)]) == V([])


def test_values_do_not_order_against_other_objects():
    for compare in (lambda: V(1) < 2, lambda: V(1) <= 2, lambda: 2 > V(1), lambda: V(1) >= 2):
        with pytest.raises(TypeError, match="not supported between instances"):
            compare()
    with pytest.raises(TypeError, match="not supported between instances"):
        sorted([V(1), 2])
    assert V(1) != 1


def test_integers_and_unit_rationals_coincide():
    assert num(2) == canonicalize(Fraction(4, 2))
    assert V([num(2), rat(2, 1)]) == V([2])


def test_membership_and_subset():
    s = V([1, [2], (3, 4)])
    assert member(V([2]), s) and member((3, 4), s)
    assert not member(2, s)
    assert is_subset(V([1]), s) and not is_subset(V([5]), s)
    assert size(s) == 3


def test_symbols_validated():
    with pytest.raises(ValueError):
        sym("12")
    with pytest.raises(ValueError):
        sym("3/4")
    with pytest.raises(ValueError):
        sym('quo"te')
    with pytest.raises(TypeError):
        sym("")


# every text of 1-4 characters over digits, sign, slash, a letter, a
# non-ASCII letter, and the space, backslash, newline and colon that a
# symbol or a reader may trip on
AGREEMENT_TEXTS = ["".join(t) for n in range(1, 5) for t in product("01-/aé \\\n:", repeat=n)]


def _read_or_none(read, text: str, error: type):
    try:
        return read(text)
    except error:
        return None


def test_sym_decides_symbols_and_numbers_for_both_readers():
    assert len(AGREEMENT_TEXTS) == 11_110
    for text in AGREEMENT_TEXTS:
        symbol = _read_or_none(sym, text, ValueError)
        from_json = _read_or_none(parse_value, json.dumps(text), ValidationError)
        # a JSON string is that symbol exactly when sym takes it, else a
        # number in the number pattern or refused
        if symbol is None and from_json is not None:
            assert from_json.is_num and _NUMBER_LOOKALIKE.match(text), text
        else:
            assert from_json == symbol, text
        assert _read_or_none(evaluate_expression, f'"{text}"', ParseError) == symbol, text
        if _NUMBER_LOOKALIKE.match(text):
            assert symbol is None, text
            bare = _read_or_none(evaluate_expression, text, ParseError)
            assert bare is None or bare.is_num, text


# each TypeError of a Value of the wrong kind, and of a Python object
# that is no value: (id, call, message)
WRONG_KINDS = [
    ("first-of-a-number", lambda: num(1).first, "not a pair: 1"),
    ("second-of-a-set", lambda: EMPTY.second, "not a pair: {}"),
    ("elements-of-a-pair", lambda: pair(1, 2).elements, r"not a set: \(1, 2\)"),
    ("len-of-a-symbol", lambda: len(sym("a")), 'not a set: "a"'),
    ("num-of-a-bool", lambda: num(True), "booleans are not values"),
    ("num-of-a-float", lambda: num(1.5), "not a number: 1.5"),
    ("canonicalize-a-3-tuple", lambda: canonicalize((1, 2, 3)), "must have length 2"),
]


@pytest.mark.parametrize(
    "call, message", [w[1:] for w in WRONG_KINDS], ids=[w[0] for w in WRONG_KINDS]
)
def test_each_wrong_kind_raises_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_nested_sets_allowed():
    x = V(1)
    s = fset([x, fset([x])])
    assert size(s) == 2 and member(x, s) and member(fset([x]), s)


def test_booleans_rejected():
    with pytest.raises(TypeError):
        canonicalize(True)


MIXED = [num(-1), rat(-1, 2), num(0), rat(1, 2), num(1), rat(3, 2), num(2000)]


def test_mixed_integer_and_rational_keys_order_numerically():
    assert fset(reversed(MIXED)).elements == tuple(MIXED)
    assert fset(MIXED[1::2] + MIXED[::2]).elements == tuple(MIXED)
    assert sorted(reversed(MIXED)) == MIXED
    # the order reaches into pairs and nested sets
    pairs = [pair(x, rat(7, 3)) for x in MIXED]
    assert fset(reversed(pairs)).elements == tuple(pairs)
    assert fset([V([num(1)]), V([rat(1, 2)])]).elements == (V([rat(1, 2)]), V([num(1)]))


def test_integer_keys_equal_their_fractions():
    assert num(Fraction(4, 2)) == num(2)
    assert hash(num(Fraction(4, 2))) == hash(num(2))
    # outside the small-integer cache the two are distinct objects
    big, big_again = num(Fraction(4000, 2)), num(2000)
    assert big is not big_again
    assert big == big_again and hash(big) == hash(big_again)
    assert len(fset([num(1), rat(2, 2)])) == 1
    assert len(fset([big, big_again, rat(2000, 1)])) == 1
    assert as_fraction(num(7)) == Fraction(7) and type(as_fraction(num(7))) is Fraction


def test_mixed_sets_round_trip_through_the_encoding():
    mixed = fset(MIXED)
    nested = fset([pair(num(1), rat(1, 2)), pair(rat(1, 2), num(1)), fset(MIXED[:3])])
    for v in (mixed, nested):
        text = serialize_value(v)
        assert parse_value(text) == v
        assert serialize_value(parse_value(text)) == text
    assert serialize_value(mixed) == '["set",-1,"-1/2",0,"1/2",1,"3/2",2000]'


def test_value_keeps_five_slots():
    # one slot more costs every Value in memory: the fifth, _text (the
    # canonical text a written part keeps), took a Value from 64 to 72
    # bytes (sys.getsizeof, CPython 3.11.7, 64-bit).  The benchmark's
    # peak_rss_mb medians moved by 0.00-0.05 MB on laws-full,
    # vickrey-clear and single-grid and by 0.17 MB (+0.6 %, 5 of 12
    # pairs better) on enumerate-stream, inside its 10 % bound
    assert Value.__slots__ == ("payload", "_key", "_hash", "_index", "_text")
    # set in __init__, not left unset until the first write
    assert pair(rat(5, 7), "x")._text is None
