import pytest

from finrel.errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from finrel.values import EMPTY, UNDEFINED, V, fset, num, pair, rat, sym
from finrel.encoding import _read, parse_value, serialize_value


def test_parse_canonicalizes_sets():
    v = parse_value('["set",["pair",1,10],["pair",0,5]]')
    assert v == fset([pair(0, 5), pair(1, 10)])
    assert serialize_value(v) == '["set",["pair",0,5],["pair",1,10]]'


def test_parse_rational_reduces():
    assert parse_value('"2/4"') == rat(1, 2)
    assert parse_value('"-2/4"') == rat(-1, 2)
    assert serialize_value(rat(-1, 2)) == '"-1/2"'
    assert parse_value('"4/2"') == num(2)
    assert serialize_value(num(2)) == "2"


def test_parse_dedupes():
    assert parse_value('["set",1,1]') == V([1])


def test_symbols_and_undefined():
    assert parse_value('"abc"') == sym("abc")
    assert serialize_value(UNDEFINED) == '"⊥"'
    assert parse_value(serialize_value(UNDEFINED)) == UNDEFINED


def test_roundtrip_on_nested_values():
    samples = [
        EMPTY,
        num(-3),
        rat(22, 7),
        sym("g1"),
        pair(pair(1, 2), fset([sym("a"), rat(1, 3)])),
        fset([fset([num(1)]), fset([fset([num(1)])])]),
    ]
    for v in samples:
        assert parse_value(serialize_value(v)) == v


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse_value("[1, 2")
    assert "position" in str(err.value)


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_value('"1/0"')
    with pytest.raises(ValidationError):
        parse_value("1.5")
    with pytest.raises(ValidationError):
        parse_value('"12"')  # integers are numbers, not strings
    with pytest.raises(ValidationError):
        parse_value("[1, 2]")  # untagged array
    with pytest.raises(ValidationError):
        parse_value('["pair", 1]')
    with pytest.raises(ValidationError):
        parse_value('["tuple", 1, 2]')
    with pytest.raises(ValidationError):
        parse_value("true")
    with pytest.raises(ValidationError):
        parse_value("null")


def test_read_caps_its_own_depth():
    # a decoded tree that never went through the JSON text reader
    obj, want = ["set"], EMPTY
    for _ in range(CAP_DEPTH - 1):
        obj, want = ["set", obj], fset([want])
    assert _read(obj, CAP_DEPTH, "value") == want
    with pytest.raises(CapExceeded, match=f"deeper than {CAP_DEPTH} levels"):
        _read(["set", obj], CAP_DEPTH, "value")


def test_serialization_is_compact_and_ordered():
    v = V([3, 1, 2])
    assert serialize_value(v) == '["set",1,2,3]'


def test_serializing_a_number_past_the_digit_limit_raises_value_error():
    too_long = 10**4300  # 4,301 digits, one past Python's default limit
    for v in (num(too_long), rat(-too_long, 3), fset([pair("a", num(too_long))])):
        with pytest.raises(ValueError, match="integer string conversion"):
            serialize_value(v)


def test_a_shared_table_holds_the_parts_of_what_was_written_only():
    table = {}
    first = fset([pair("a", 1), fset([2])])
    assert serialize_value(first, table) == '["set",["pair","a",1],["set",2]]'
    assert set(table) == {pair("a", 1), sym("a"), num(1), fset([2]), num(2)}
    # an equal part built afresh is joined in from the table
    table[pair("a", 1)] = "PAIR"
    assert serialize_value(fset([pair("a", 1)]), table) == '["set",PAIR]'
    assert serialize_value(fset([pair("a", 1)])) == '["set",["pair","a",1]]'
    assert first not in table
