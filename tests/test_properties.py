"""Generated inputs: every fast path agrees with its oracle, values
round-trip, and every input ends in a documented outcome.

Every example is derived from a fixed seed and sizes are bounded, so the
module is deterministic and runs in a few seconds.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from finrel import paper
from finrel.cli import main
from finrel.encoding import parse_value, serialize_value
from finrel.errors import CapExceeded, ParseError, ValidationError
from finrel.expressions import OPERATORS, evaluate_expression
from finrel.values import fset, num, pair, sym

import oracles

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)
STRATEGIES = {row.name: row.strategy(st) for row in oracles.ROWS}


@pytest.mark.parametrize("row", oracles.ROWS, ids=lambda row: row.name)
@PROPERTY
@given(data=st.data())
def test_fast_path_matches_its_oracle(row, data):
    case = data.draw(STRATEGIES[row.name])
    assert row.agrees(case)


# a few plain characters plus every kind a symbol or JSON text may trip on:
# digits, sign and slash, quote, backslash, control, non-ASCII, surrogate
texts = st.text(alphabet='ab1-/"\\\x00 é⊥\ud800', max_size=4)
symbols = texts.filter(lambda t: t and oracles.is_symbol(t)).map(sym)
numbers = oracles.numbers(st)
values = st.recursive(
    numbers | symbols,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: pair(*ab)),
        st.lists(inner, max_size=4).map(fset),
    ),
    max_leaves=12,
)


@PROPERTY
@given(values)
def test_encoding_round_trips(v):
    assert parse_value(serialize_value(v)) == v


writer_values = oracles.writer_values(st)
deep_values = oracles.deep_values(st)


@PROPERTY
@given(writer_values)
def test_eval_reads_back_repr(v):
    # so a check-laws counterexample pastes into `finrel eval` as itself
    assert evaluate_expression(repr(v)) == v


def _rebuilt(v):
    """A value equal to v built afresh, so it shares no node with v
    except cached small integers."""
    if v.is_pair:
        return pair(_rebuilt(v.first), _rebuilt(v.second))
    if v.is_set:
        return fset([_rebuilt(e) for e in v.elements])
    return num(v.payload) if v.is_num else sym(v.payload)


PAST_DIGIT_LIMIT = num(10**4300)  # 4,301 digits


@st.composite
def lines_with_shared_parts(draw):
    """Values built from a few common parts, each part used as itself or
    as an equal rebuilt copy, plus a value holding a number past the
    digit limit next to common parts, at two places in the list."""
    parts = draw(st.lists(writer_values | deep_values, min_size=1, max_size=4))
    index = st.integers(0, len(parts) - 1)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        a, b = parts[draw(index)], _rebuilt(parts[draw(index)])
        shape = draw(st.integers(0, 4))
        lines.append([a, b, pair(a, b), fset([a, b]), fset([pair(b, a), a])][shape])
    a, b = parts[draw(index)], _rebuilt(parts[draw(index)])
    too_long = fset([a, pair(b, PAST_DIGIT_LIMIT), b])
    for _ in range(2):
        lines.insert(draw(st.integers(0, len(lines))), too_long)
    return lines


@PROPERTY
@given(lines_with_shared_parts())
def test_lines_sharing_parts_are_each_written_as_a_fresh_copy_would_be(lines):
    # written in order, each line's parts keep their texts for the lines
    # after it; paper.value_to_obj reads each line afresh into an object
    # tree, which no kept text reaches.  The line past the digit limit
    # raises wherever it comes.
    for v in lines:
        try:
            want = oracles._dumped(paper.value_to_obj(v))
        except ValueError:
            with pytest.raises(ValueError, match="integer string conversion"):
                serialize_value(v)
        else:
            assert serialize_value(v) == want


# ---------------------------------------------------------------------------
# expressions: token soup and well-formed calls over small relations

_PREFIX_NAMES = sorted(op.name for op in OPERATORS if op.name)
_INFIX_TOKENS = sorted(op.token for op in OPERATORS if op.token)
_LITERALS = ["1", "-2", "3/4", "1/0", '"a"', '"12"', "{}", "{1, 2}", "{(1,2),(2,3)}",
             "(1, {3})", "{(1,1),(1,2),(2,2)}", "{(1,{7}),(2,{8})}", "x", "::nat", "@"]
_TOKENS = _LITERALS + _PREFIX_NAMES + _INFIX_TOKENS + ["{", "}", "(", ")", ","]

expressions = st.recursive(
    st.sampled_from(_LITERALS[:-3]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}"),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]}, {ab[1]})"),
        st.tuples(inner, st.sampled_from(_INFIX_TOKENS), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
        st.tuples(st.sampled_from(_PREFIX_NAMES), st.lists(inner, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
    ),
    max_leaves=8,
)


def _evaluates_or_rejects(text: str):
    try:
        evaluate_expression(text)
    except (ParseError, ValidationError, CapExceeded):
        pass


@PROPERTY
@given(st.lists(st.sampled_from(_TOKENS), max_size=25))
def test_token_soup_raises_only_documented_errors(tokens):
    _evaluates_or_rejects(" ".join(tokens))


@PROPERTY
@given(expressions)
def test_operator_calls_raise_only_documented_errors(text):
    _evaluates_or_rejects(text)


# ---------------------------------------------------------------------------
# the command line on arbitrary JSON arguments

raw_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=10,
)
small_sets = st.lists(numbers | symbols, max_size=4).map(fset)
arguments = st.one_of(
    raw_json.map(json.dumps),
    values.map(serialize_value),
    small_sets.map(serialize_value),
    texts,
)


def _exit_code(argv) -> int:
    """What main returns, or the status argparse exits with on a usage
    error (an argument that starts with "-" reads as an option)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


@PROPERTY
@given(st.sampled_from(["partitions", "injections"]), arguments, arguments)
def test_enumerate_exits_with_a_documented_code(kind, x, y):
    argv = ["enumerate", kind, x] + ([y] if kind == "injections" else [])
    assert _exit_code(argv) in (0, 1, 2, 3)


@PROPERTY
@given(arguments, arguments, arguments, st.sampled_from(["second-price", "first-price"]))
def test_run_single_exits_with_a_documented_code(bidders, grid, bidder, rule):
    argv = ["run-single", "--bidders", bidders, "--grid", grid, "--bidder", bidder, "--rule", rule]
    assert _exit_code(argv) in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("instances") / "instance.json"


value_objs = values.map(lambda v: json.loads(serialize_value(v)))
set_objs = small_sets.map(lambda s: json.loads(serialize_value(s)))
fields = set_objs | value_objs | raw_json
instance_docs = st.one_of(
    st.fixed_dictionaries(
        {
            "goods": fields,
            "bidders": fields,
            "valuations": st.lists(st.tuples(fields, fields, value_objs).map(list), max_size=4)
            | raw_json,
        }
    ),
    raw_json,
)


@PROPERTY
@given(instance_docs)
def test_run_combinatorial_exits_with_a_documented_code(instance_path, doc):
    instance_path.write_text(json.dumps(doc), encoding="utf-8")
    assert _exit_code(["run-combinatorial", str(instance_path)]) in (0, 1, 2, 3)
