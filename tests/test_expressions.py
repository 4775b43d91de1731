import pytest

from finrel import expressions, relations
from finrel.errors import CapExceeded, ParseError, ValidationError
from finrel.values import EMPTY, UNDEFINED, V, num, pair, rat, sym
from finrel.relations import converse, range_of, relation
from finrel.quotients import all_equivalences, projector
from finrel.expressions import evaluate_expression as E

import oracles


def test_evaluation_examples():
    assert E("{(0,10),(1,11),(1,12)} ,, 0") == num(10)
    assert E("({(0,10),(1,11),(1,12)} +< (1,13)) ,, 1") == num(13)
    assert E("{} outside {1}") == EMPTY


def test_type_ascriptions_are_ignored():
    assert E("{(0::nat,10),(1,11),(1,12::nat)} ,, 0") == num(10)
    assert E("{(0::nat, 10)} ,, 0") == num(10)


def test_infix_operators():
    assert E("{(1,10),(2,20)} -- 1") == relation([(2, 20)])
    assert E("{(1,10),(2,20)} +* {(2,21)}") == relation([(1, 10), (2, 21)])
    assert E("{(1,2)} O {(2,3)}") == relation([(1, 3)])
    assert E("{(1,{7}),(1,{8})} ,,, 1") == V([7, 8])
    assert E("{(0,10),(1,11),(1,12)} ,, 1") == UNDEFINED


def test_left_associativity_and_parens():
    assert E("{(1,1)} +* {(1,2)} +* {(1,3)}") == relation([(1, 3)])
    assert E("{(1,1)} +* ({(1,2)} +* {(1,3)})") == relation([(1, 3)])


def test_prefix_calls():
    assert E("eval({(0,10)}, 0)") == num(10)
    assert E("eval2({(1,{7})}, 2)") == EMPTY
    assert E("image({(0,10),(1,11),(1,12)}, {1})") == V([11, 12])
    assert E("converse({(0,10)})") == relation([(10, 0)])
    assert E("compose({(1,2)},{(2,3)})") == relation([(1, 3)])
    assert E("projector({(1,1),(1,2),(2,2)})") == relation(
        [(V(1), V([1, 2])), (V(2), V([2]))]
    )
    assert E("kernel({(1,10),(2,10)})") == relation([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert E("quotient({(1,1)}, {(1,1)}, {(1,1)})") == relation([(V([1]), V([1]))])
    assert E("single_paste({(0,10)}, 0, 11)") == relation([(0, 11)])
    assert E("paste({(1,10)}, {(1,11)})") == relation([(1, 11)])
    assert E("outside({(1,10),(2,20)}, {1})") == relation([(2, 20)])


def test_each_work_bound_counts_the_steps_of_its_operator():
    # compose reads one image per (x, y, z) with (x, y) in R and (y, z) in S
    for R in oracles.RELATIONS_3X2:
        for S in oracles.CONVERSES_3X2[::7]:
            steps = sum(p.second == q.first for p in R.payload for q in S.payload)
            assert expressions._compose_work(R, S) == steps
    for f in oracles.FUNCTIONS_3X2:
        assert expressions._kernel_work(f) == expressions._compose_work(f, converse(f))
    equivalences = all_equivalences(V([1, 2, 3]))
    for P in equivalences:
        for Q in equivalences:
            classes = [len(range_of(projector(eq)).payload) for eq in (P, Q)]
            assert expressions._quotient_work(P, P, Q) == classes[0] * classes[1]


def test_the_compose_bound_reads_the_point_index_compose_reads():
    # summed over R's point index, the bound counts what the walk over R's
    # pairs counted, on every pair of relations of the compose sweep
    cases = [(R, S) for cases in oracles.ROW["compose"].sweep().values() for R, S in cases
             if relations.is_relation(R) and relations.is_relation(S)]
    for R, S in cases:
        s_images = relations._by_first(S)
        steps = sum(len(s_images.get(p.payload[1], ())) for p in R.payload)
        assert expressions._compose_work(R, S) == steps
    assert len(cases) == oracles.ROW["compose"].count


def test_eval_refuses_work_past_the_cap_before_it_starts(monkeypatch):
    text = "kernel({(1,0),(2,0),(3,0)})"  # 9 image reads
    monkeypatch.setattr(expressions, "CAP_EVAL_WORK", 9)
    assert len(E(text).payload) == 9
    monkeypatch.setattr(expressions, "CAP_EVAL_WORK", 8)
    with pytest.raises(CapExceeded, match="'kernel' at position 0 would take 9 steps"):
        E(text)


def test_literals():
    assert E("3/4") == rat(3, 4)
    assert E("-2") == num(-2)
    assert E('"bidder"') == sym("bidder")
    assert E("(1, 2)") == pair(1, 2)
    assert E("{1, 1, 2}") == V([1, 2])
    assert E("{}") == EMPTY


def test_parse_errors_have_positions():
    for bad in ["{(1,2)} ,,", "converse(1,2)", "x", "{1,", "((1,2)", "1 ++ 2"]:
        with pytest.raises(ParseError) as err:
            E(bad)
        assert "position" in str(err.value)


def test_operator_type_errors_are_validation_errors():
    with pytest.raises(ValidationError):
        E("1 +* 2")  # paste needs relations
    with pytest.raises(ValidationError):
        E("{(1,2)} +< 3")  # update needs a pair


# each literal error and the start of its message; a quoted literal is
# any text between quotes, and sym refuses the bad ones: (id, text, message)
LITERAL_ERRORS = [
    ("set-without-comma", "{1 2}", "expected ',' or '}' at position 3, got '2'"),
    ("paren-without-comma", "(1 2)", "expected ')' or ',' at position 3, got '2'"),
    ("backslash-in-symbol", '{"a\\b"}', "bad symbol at position 1: "),
    ("backslash-named", '"a\\b"', "bad symbol at position 0: symbol 'a\\\\b' contains a backslash"),
    ("newline-in-symbol", '"a\nb"', "bad symbol at position 0: "),
    ("number-as-symbol", '"1/2"', "bad symbol at position 0: "),
    ("unclosed-quote", '"a', "unexpected character '\"' at position 0"),
    ("zero-denominator", "(1, 3/0)", "zero denominator at position 4"),
]


@pytest.mark.parametrize(
    "text, message", [e[1:] for e in LITERAL_ERRORS], ids=[e[0] for e in LITERAL_ERRORS]
)
def test_each_literal_error_names_its_position(text, message):
    with pytest.raises(ParseError) as err:
        E(text)
    assert str(err.value).startswith(message)


def test_zero_denominator_literal():
    with pytest.raises(ParseError):
        E("1/0")
