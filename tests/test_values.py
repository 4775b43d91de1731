import pytest
from fractions import Fraction

from finrel.encoding import parse_value, serialize_value
from finrel.values import (
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


def test_value_keeps_four_slots():
    # one slot more costs every Value in memory
    assert len(Value.__slots__) == 4
