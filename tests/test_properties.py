"""Generated inputs end in a documented outcome and values round-trip.

Every example is derived from a fixed seed and sizes are bounded, so the
module is deterministic and runs in a few seconds.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from finrel.auctions import clear_vickrey, make_instance, won_value
from finrel.cli import main
from finrel.encoding import parse_value, serialize_value, value_to_obj
from finrel.errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from finrel.expressions import OPERATORS, evaluate_expression
from finrel.laws import _oracle_best_value
from finrel.values import EMPTY, as_fraction, fset, num, pair, rat, sym
from test_auctions import _reference_clear

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def _is_symbol(text: str) -> bool:
    try:
        sym(text)
    except ValueError:
        return False
    return True


# a few plain characters plus every kind a symbol or JSON text may trip on:
# digits, sign and slash, quote, backslash, control, non-ASCII, surrogate
texts = st.text(alphabet='ab1-/"\\\x00 é⊥\ud800', max_size=4)
symbols = texts.filter(lambda t: t and _is_symbol(t)).map(sym)
numbers = st.one_of(
    st.integers(-10**30, 10**30).map(num),
    st.fractions(max_denominator=10**12).map(num),
)
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


# symbols with the characters whose escaping differs between JSON encoders:
# DEL, the line and paragraph separators, non-ASCII letters
writer_symbols = st.text(alphabet="ab-/ é⊥\x7f\u2028\u2029", min_size=1, max_size=4).filter(
    _is_symbol
).map(sym)
negative_rationals = st.tuples(st.integers(1, 10**20), st.integers(2, 10**6)).map(
    lambda t: rat(-t[0], t[1])
)
writer_values = st.recursive(
    numbers | negative_rationals | writer_symbols | st.just(EMPTY),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: pair(*ab)),
        st.lists(inner, max_size=4).map(fset),
    ),
    max_leaves=12,
)


def _nest(v, wraps):
    for in_pair in wraps:
        v = pair(v, EMPTY) if in_pair else fset([v])
    return v


deep_values = st.builds(
    _nest, writer_values, st.lists(st.booleans(), min_size=CAP_DEPTH - 4, max_size=CAP_DEPTH - 1)
)


@PROPERTY
@given(writer_values | deep_values)
def test_writer_matches_json_dumps_of_the_object_form(v):
    want = json.dumps(value_to_obj(v), separators=(",", ":"), ensure_ascii=False)
    assert serialize_value(v) == want


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
def test_one_shared_table_writes_each_line_as_it_is_written_alone(lines):
    table = {}
    for v in lines:
        try:
            alone = serialize_value(v)
        except ValueError:
            with pytest.raises(ValueError, match="integer string conversion"):
                serialize_value(v, table)
        else:
            assert serialize_value(v, table) == alone


# ---------------------------------------------------------------------------
# expressions: token soup and well-formed calls over small relations

_PREFIX_NAMES = sorted(name for name, _, _, _ in OPERATORS if name)
_INFIX_TOKENS = sorted(token for _, token, _, _ in OPERATORS if token)
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


# ---------------------------------------------------------------------------
# clearing: the subset recursion against both enumeration oracles


@st.composite
def small_instances(draw):
    """At most 3 goods x 3 bidders, every nonempty bundle worth 0..5 to
    every bidder, with no free disposal, so a bundle may be worth less
    than its parts."""
    n_goods = draw(st.integers(1, 3))
    n_bidders = draw(st.integers(1, 3))
    goods = [sym(f"g{k}") for k in range(1, n_goods + 1)]
    bundles = [fset(g for k, g in enumerate(goods) if mask >> k & 1) for mask in range(1, 1 << n_goods)]
    triples = [
        (num(n), bundle, num(draw(st.integers(0, 5))))
        for n in range(1, n_bidders + 1)
        for bundle in bundles
    ]
    return make_instance(fset(goods), fset(num(n) for n in range(1, n_bidders + 1)), triples)


@PROPERTY
@given(small_instances())
def test_clearing_agrees_with_both_enumeration_oracles(inst):
    out = clear_vickrey(inst)
    assert out == _reference_clear(inst)
    everyone = list(inst.bidders.payload)
    assert out.welfare == _oracle_best_value(inst, everyone)
    for entry in out.payments.payload:
        n = entry.first
        others = out.welfare - won_value(inst, out.allocation, n)
        rest = [m for m in everyone if m != n]
        assert as_fraction(entry.second) == _oracle_best_value(inst, rest) - others
