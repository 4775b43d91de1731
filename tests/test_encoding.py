import sys
import threading

import pytest

from finrel import paper
from finrel.auctions import parse_instance
from finrel.enumeration import all_partitions_list
from finrel.errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from finrel.values import EMPTY, UNDEFINED, V, fset, num, pair, rat, sym
from finrel.encoding import parse_value, serialize_elements, serialize_value


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


# an error message quotes the input as the JSON it was written in
@pytest.mark.parametrize("text,message", [
    ("null", "cannot read null as a value"),
    ('{"a": 1}', 'cannot read {"a": 1} as a value'),
    ('["set", {"é": [true]}]', 'cannot read {"é": [true]} as a value'),
    ('["x", 1]', 'unknown tag "x"; expected "set" or "pair"'),
    ('[null]', 'unknown tag null; expected "set" or "pair"'),
    ('"12"', 'integer "12" must be a JSON number, not a string'),
    ('"1/0"', 'zero denominator in "1/0"'),
], ids=["null", "object", "nested-object", "unknown-tag", "null-tag", "integer-string",
        "zero-denominator"])
def test_validation_errors_quote_the_input_as_json(text, message):
    with pytest.raises(ValidationError) as err:
        parse_value(text)
    assert str(err.value) == message


def test_a_bad_valuation_row_is_quoted_as_json():
    text = '{"goods": ["set", "g"], "bidders": ["set", 1], "valuations": [[1, true]]}'
    with pytest.raises(ValidationError) as err:
        parse_instance(text)
    assert str(err.value) == "bad valuation row: [1, true]"


# the writer and its oracle, each given what is not a Value
@pytest.mark.parametrize("write", [serialize_value, paper.value_to_obj],
                         ids=["serialize_value", "value_to_obj"])
@pytest.mark.parametrize("obj", [1, "a", (1, 2), None], ids=["int", "str", "tuple", "None"])
def test_each_writer_refuses_what_is_not_a_value(write, obj):
    with pytest.raises(TypeError, match="not a value"):
        write(obj)


def test_depth_is_refused_before_a_syntax_error():
    # the cap is decided on the text before it is decoded: past it, a text
    # is refused as too deep though its syntax fails after its last bracket
    deep = '["set",' * CAP_DEPTH + "1" + "]" * CAP_DEPTH
    with pytest.raises(ParseError, match=f"position {len(deep)}"):
        parse_value(deep + ",")
    with pytest.raises(CapExceeded, match=f"value text nested deeper than {CAP_DEPTH} levels"):
        parse_value('["set",' + deep + "],")


def test_serialization_is_compact_and_ordered():
    v = V([3, 1, 2])
    assert serialize_value(v) == '["set",1,2,3]'


def _parts(v):
    """Every part of v (an element of a set, a component of a pair, and so
    on down), v itself left out."""
    for part in v.payload if v.is_pair or v.is_set else ():
        yield part
        yield from _parts(part)


def _holds(v, x) -> bool:
    return v == x or any(part == x for part in _parts(v))


def test_serializing_a_number_past_the_digit_limit_raises_value_error():
    too_long = num(10**4300)  # 4,301 digits, one past Python's default limit
    for v in (too_long, rat(-(10**4300), 3), fset([pair("a", too_long)])):
        for _ in range(2):  # nothing kept by the first raise makes a second pass
            with pytest.raises(ValueError, match="integer string conversion"):
                serialize_value(v)
        # neither the failing part nor any part holding it keeps a text;
        # a part written in full before the raise keeps its own
        for part in _parts(v):
            if _holds(part, too_long):
                assert part._text is None
            else:
                assert part._text == serialize_value(part)


def test_each_part_keeps_its_text_and_the_written_value_keeps_none():
    # rationals and symbols are built afresh, so no other test has
    # written them
    v = fset([pair("a", rat(1, 3)), fset([rat(2, 3)]), pair(pair("b", rat(1, 3)), "c")])
    assert v._text is None and all(part._text is None for part in _parts(v))
    text = serialize_value(v)
    assert text == ('["set",["pair","a","1/3"],["pair",["pair","b","1/3"],"c"],'
                    '["set","2/3"]]')
    assert v._text is None
    for part in _parts(v):
        assert part._text == serialize_value(part)
    # the written value is a part of the next one, so it keeps its text there
    assert serialize_value(pair(v, 0)) == '["pair",' + text + ",0]"
    assert v._text == text


def test_an_equal_part_built_afresh_is_written_to_equal_text():
    kept = pair("a", fset([rat(1, 3)]))
    assert serialize_value(fset([kept])) == '["set",["pair","a",["set","1/3"]]]'
    fresh = pair("a", fset([rat(1, 3)]))
    assert fresh == kept and fresh is not kept and fresh._text is None
    assert serialize_value(fset([fresh, "b"])) == '["set","b",["pair","a",["set","1/3"]]]'
    assert fresh._text == kept._text == '["pair","a",["set","1/3"]]'


def _fresh_partition_lines():
    """The block lists of the partitions of six values, every value and
    block built afresh; the lists share their blocks, as the lines of
    `finrel enumerate` do."""
    elements = [sym("é"), num(10**6), pair("a", rat(1, 2)), fset([rat(7, 3)]), sym("a"),
                rat(-1, 2)]
    return all_partitions_list(list(fset(elements).payload))


def test_threads_racing_to_write_shared_parts_get_the_single_threaded_bytes():
    want = "\n".join(map(serialize_elements, _fresh_partition_lines())).encode()
    # eight passes over fresh parts, so that both threads write most parts
    # at the same time in nearly every run
    passes = [_fresh_partition_lines() for _ in range(8)]
    barrier = threading.Barrier(2, timeout=10)
    written = ([], [])

    def write(mine):
        for lines in passes:
            barrier.wait()  # both threads start on the same fresh parts
            mine.append("\n".join(map(serialize_elements, lines)).encode())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave the writes
    try:
        threads = [threading.Thread(target=write, args=(mine,)) for mine in written]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert written == ([want] * len(passes), [want] * len(passes))
