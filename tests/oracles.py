"""One row per fast path: the production function, the definition it must
agree with, an exhaustive sweep over small universes and a Hypothesis
strategy for the same arguments.

A sweep maps the name of each universe it covers to the argument tuples
drawn from it, and the row pins their total.  A strategy is a function of
the `hypothesis.strategies` module, so importing this module does not
import Hypothesis and the sweeps run without the test extra.
"""

from __future__ import annotations

import functools
import json
import operator
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, NamedTuple

from finrel import auctions, encoding, enumeration, laws, paper, quotients, relations, values
from finrel.auctions import CombinatorialInstance, Outcome, make_instance
from finrel.enumeration import all_partitions_list, all_subsets
from finrel.errors import CAP_DEPTH, CapExceeded, ParseError, ValidationError
from finrel.paper import is_partition_of, won_value
from finrel.quotients import all_equivalences, all_partial_equivalences
from finrel.relations import converse, image, paste, relation, right_unique
from finrel.values import (
    EMPTY, UNDEFINED, V, canonicalize, cartesian_product, fset, member, num, pair, rat, sym, union,
)

import work_counts


class _Raised(NamedTuple):
    type: type
    message: str


class Row(NamedTuple):
    name: str
    fast: Callable
    oracle: Callable  # takes the fast path's arguments
    sweep: Callable[[], dict]  # universe name -> list of argument tuples
    count: int  # argument tuples in the whole sweep
    strategy: Callable  # hypothesis.strategies -> strategy of argument tuples
    same: Callable = operator.eq  # (fast result, oracle result) -> agree
    # input errors that count as a result: raised, they compare as their
    # type and message, not by `same`
    errors: tuple = ()

    def agrees(self, case: tuple) -> bool:
        got, want = (_result(f, case, self.errors) for f in (self.fast, self.oracle))
        if isinstance(got, _Raised) or isinstance(want, _Raised):
            return got == want
        return self.same(got, want)


def _result(f: Callable, case: tuple, errors: tuple):
    try:
        return f(*case)
    except errors as e:
        return _Raised(type(e), str(e))


# ---------------------------------------------------------------------------
# universes of the sweeps

A3, B2 = V([1, 2, 3]), V([10, 11])
RELATIONS_3X2 = all_subsets(cartesian_product(A3, B2)).payload
CONVERSES_3X2 = tuple(converse(R) for R in RELATIONS_3X2)
FUNCTIONS_3X2 = [f for f in RELATIONS_3X2 if right_unique(f)]
# the domain, the target, raw ints and non-numbers off the domain
POINTS = [V(1), 2, 3, 4, 10, V(11), "a", V([1])]
# one element of every kind, in an order that is not the canonical one
MIXED = [sym("é"), V(0), pair("a", 1), rat(-1, 2), EMPTY, sym("a"), V([1]), V(7)]
SUBSETS_OF_5 = all_subsets(fset(MIXED[:5])).payload
# points on and off the 3x2 domain, with every kind of key a pointwise
# update compares: raw ints, a rational, a symbol, a nested set, a pair
EDGE_POINTS = [V(1), 2, 3, 0, 4, rat(1, 2), "a", V([1]), pair(1, 10)]
# relations with first components of mixed kinds, 1/2 with two images
MIXED_RELATIONS = all_subsets(fset([
    pair(rat(1, 2), 10), pair(rat(1, 2), "b"), pair("a", 10), pair(V([1]), 11),
    pair(pair(1, 10), EMPTY)])).payload
# a set with a non-pair member, a pair, a number, an int and last a
# relation, so that each meets the other argument's error; then arguments
# that are not values
NOT_RELATIONS = [V([1, pair(1, 10)]), pair(1, 10), num(1), 5, relation([(1, 10)])]
UNREADABLE = [1.5, "1", True]
# every atom the text encoding treats apart, with the symbols whose
# escaping differs between JSON encoders
WRITER_ATOMS = [num(0), num(-7), num(10**20), rat(-1, 2), rat(22, 7),
                sym("a"), sym("é"), sym("\x7f"), sym("\u2028"), EMPTY]


# valuation rows of a file with goods g1, g2 and bidders 1, 2: bundles
# written twice, in another order or with a good repeated, 1/2 as "2/4",
# 1 beside "1", true and 1.0, and one row for each way a row is refused
INSTANCE_ROWS = [
    [1, ["set", "g1", "g2"], 10],
    [2, ["set", "g2", "g1"], "1/2"],
    [2, ["set", "g1", "g2"], "2/4"],
    [1, ["set", "g1", "g1"], 3],
    [1, ["set", "g1"], "2/4"],
    [2, ["set"], 0],
    [True, ["set", "g1"], 1],
    [1.0, ["set", "g2"], 1],
    ["1", ["set", "g2"], 1],
    [3, ["set", "g1"], 1],
    [["pair", 1, 2], ["set", "g1"], 1],
    [1, ["set", "g3"], 1],
    [1, ["set", ["set", "g1"]], 1],
    [1, ["set", "g1", True], 1],
    [2, ["set", 1], 1],
    [2, ["set", "1"], 1],
    [2, "g1", 1],
    [2, ["set"], 1],
    [1, ["set", "g2"], -1],
    [2, ["set", "g2"], "a"],
    [2, ["set", "g2"], 1.5],
    [2, ["set", "g2"], "1/0"],
    [2, ["set", "g1"], "1" * 4301 + "/7"],
    ["bad"],
]
_G1, _G2, _G12 = ["set", "g1"], ["set", "g2"], ["set", "g1", "g2"]
# files of two to four rows in which a bundle or an amount comes back: a
# bundle for both bidders and then again as a duplicate, written in the
# other order or with a good repeated; 1/2 as "2/4"; a bad bundle or a bad
# amount first met after valid rows of its bidder; a pair bundle and a
# nested bundle, each written twice
SHARED_PART_ROWS = [
    [[1, _G12, 1], [2, _G12, 2]],
    [[1, _G12, 1], [2, _G12, 2], [1, _G12, 3]],
    [[1, ["set", "g2", "g1"], 1], [2, _G12, 2]],
    [[1, ["set", "g2", "g1"], 1], [2, _G12, 2], [2, ["set", "g2", "g1"], 3]],
    [[1, _G1, 1], [2, ["set", "g1", "g1"], 2]],
    [[1, ["set", "g1", "g1"], 1], [2, _G1, 2], [1, _G1, 2]],
    [[1, _G1, "1/2"], [2, _G1, "2/4"], [1, _G2, "1/2"]],
    [[1, _G1, "1/2"], [2, _G1, "2/4"], [2, ["set"], "2/4"]],
    [[1, ["set"], 0], [2, ["set"], 0], [1, _G1, 0]],
    [[1, _G1, 1], [1, _G2, 2], [1, ["set", "g3"], 1]],
    [[1, _G1, 1], [1, _G12, 2], [1, ["set", _G1], 2]],
    [[2, _G1, 1], [2, _G2, "1/2"], [2, _G12, "-1/2"]],
    [[1, _G1, 1], [1, _G2, 1], [2, _G1, 1], [1, _G12, -1]],
    [[2, _G1, 1], [2, _G2, 1], [2, _G12, "a"]],
    [[1, ["pair", "g1", "g2"], 1], [2, ["pair", "g1", "g2"], 1]],
    [[1, _G1, 1], [2, ["pair", "g1", "g2"], 1], [1, ["pair", "g1", "g2"], 1]],
    [[1, ["set", _G1], 1], [2, ["set", _G1], 1]],
]


def _instance_text(rows, goods=("g1", "g2"), bidders=(1, 2)) -> str:
    return json.dumps(
        {"goods": ["set", *goods], "bidders": ["set", *bidders], "valuations": rows}
    )


def _nested(depth: int):
    """The set of the set ... of "g1", depth arrays deep."""
    node = "g1"
    for _ in range(depth):
        node = ["set", node]
    return node


def _product(name: str, *axes) -> Callable[[], dict]:
    return lambda: {name: list(product(*axes))}


# ---------------------------------------------------------------------------
# oracles: each definition read literally

def _field(R):
    return fset(x for p in R.payload for x in p.payload)


def _literal_converse(R):
    field = _field(R).payload
    return fset(pair(y, x) for x in field for y in field if member(pair(x, y), R))


def _literal_compose(R, S):
    return fset(
        pair(p.first, q.second) for p in R.payload for q in S.payload if p.second == q.first
    )


def _literal_paste(P, Q):
    """(P - Domain Q x Range P) + Q."""
    return union(
        values.difference(P, cartesian_product(relations.domain_of(Q), relations.range_of(P))), Q
    )


def _literal_single_outside(R, x):
    """The pairs of R not from x; x is read before R is checked."""
    x = canonicalize(x)
    return fset(p for p in relations._require_relation(R).payload if p.first != x)


@functools.cache
def _classes(E):
    """The classes of E, the images of its points: Range (projector E)."""
    return {image(E, fset([p.first])) for p in E.payload}


def _literal_quotient(R, P, Q):
    return fset(
        pair(a, b) for a in _classes(P) for b in _classes(Q)
        if any(member(p, R) for p in cartesian_product(a, b).payload)
    )


def _agrees_with_each(got, want):
    """The oracle gives a list of definitions, and got equals each one."""
    return all(got == w for w in want)


def _literal_compatible(R, P, Q):
    # off the field of P the left side is the image of the empty set
    return all(
        values.is_subset(image(R, image(P, fset([x]))), image(Q, image(R, fset([x]))))
        for x in _field(P).payload
    )


@functools.cache
def _equivalences(carrier):
    return frozenset(all_equivalences(carrier))


def _union_with(s, x):
    """s + {x} by union, next to s: the fast path returns s itself exactly
    when the union leaves it unchanged."""
    return s, union(s, fset([x]))


def _same_set_plus(got, want):
    s, joined = want
    return got == joined and (got is s) == (joined == s)


def _paste_injections(xs: list, Y) -> list:
    xs = [canonicalize(x) for x in xs]
    if not xs:
        return [fset()]
    head, rest = xs[0], xs[1:]
    out = []
    for R in _paste_injections(rest, Y):
        used = {p.second for p in R.payload}
        for y in Y.payload:
            if y not in used:
                out.append(paste(R, relation([(head, y)])))
    return out


def _pasted_in_order(xs: list, Y) -> tuple:
    """The injections by pasting, and whether xs is listed in canonical
    order, as `finrel enumerate` lists the elements of its source."""
    return _paste_injections(xs, Y), list(map(canonicalize, xs)) == list(fset(xs).payload)


def _same_injections(got: list, want) -> bool:
    """The pair lists' sets are the pasted injections, in their order; for
    a source in canonical order, each list is strictly increasing and its
    text is its set's."""
    pasted, in_order = want
    return [fset(pairs) for pairs in got] == pasted and (not in_order or all(
        all(p < q for p, q in zip(pairs, pairs[1:]))
        and encoding.serialize_elements(pairs) == _dumped(paper.value_to_obj(fset(pairs)))
        for pairs in got))


def _coarser_by_insertion(new_el, blocks: list) -> list:
    """{new_el} as a fresh block, then new_el inserted into each block."""
    return [[fset([new_el])] + blocks] + [
        paper.insert_into_member_list(new_el, blocks, b) for b in blocks]


def _blocks_without(x, blocks: list) -> list:
    """The distinct blocks left when x is taken out of each."""
    return list(dict.fromkeys(fset(y for y in b if y != x) for b in blocks))


def _lists_each_partition_once(got: list, want):
    listed = [fset(blocks) for blocks in got]
    return len(listed) == len(want.payload) and fset(listed) == want


def _canonical_partitions(xs: list) -> list:
    """all_partitions_list of xs listed in canonical order, as `finrel
    enumerate` lists the elements of its set."""
    return all_partitions_list(list(fset(xs).payload))


def _partition_line_sweep():
    # the partitions share their blocks and every case shares MIXED, so
    # most parts are joined in from the texts they kept when an earlier
    # case wrote them, as the command's later lines are
    return {"partitions of up to 6 mixed values in canonical order": [
        (blocks,) for n in range(7) for blocks in _canonical_partitions(MIXED[:n])]}


def _counted_partition_of(P, A):
    blocks = P.payload
    return (
        all(sum(x in b.payload for b in blocks) == 1 for x in A.payload)
        and all(b.payload for b in blocks)
        and all(x in A.payload for b in blocks for x in b.payload)
    )


def _pasted_bid_vectors(bidders, grid):
    """The bid vectors built one bidder at a time by pasting, as the paper
    extends a partial function."""
    out = [fset()]
    for b in bidders.payload:
        out = [paste(vec, relation([(b, g)])) for vec in out for g in grid.payload]
    return out


def _paper_single_good(price_rule):
    """The grid mechanism of the paper, read on sets: the bid vectors built
    by pasting, the winner the canonically least maximizer of the bid
    vector, price_rule(b, i) the winner's payment."""

    def build(bidders, grid, i):
        bidders, grid, i = canonicalize(bidders), canonicalize(grid), canonicalize(i)
        auctions._check_single_good_args(bidders, grid, i)
        alloc, price = [], []
        for b in _pasted_bid_vectors(bidders, grid):
            wins = relations.arg_max_set(b, bidders).payload[0] == i
            alloc.append(pair(b, num(1 if wins else 0)))
            price.append(pair(b, price_rule(b, i) if wins else num(0)))
        return auctions.SingleGoodMechanism(bidders, grid, i, fset(alloc), fset(price))

    return build


def _utility_at(v, alloc, price, b):
    return values.as_fraction(v) * values.as_fraction(relations.eval_rel(alloc, b)) - (
        values.as_fraction(relations.eval_rel(price, b)))


def _deviation_walk(i, alloc, price):
    """The dominance check as a walk over (bid vector, deviation): each
    deviation pasted in for i, kept when the pasted vector is in the common
    domain, and both vectors read from alloc and price again."""
    common = values.intersection(relations.domain_of(alloc), relations.domain_of(price))
    bids_of_i = [b for b in common.payload if member(i, relations.domain_of(b))]
    deviations = fset(relations.eval_rel(b, i) for b in bids_of_i)
    for b in bids_of_i:
        for v in deviations.payload:
            truthful = relations.single_paste(b, i, v)
            if member(truthful, common) and (
                    _utility_at(v, alloc, price, b) > _utility_at(v, alloc, price, truthful)):
                return b, v
    return None


def _literal_reduced_bid_map(i, alloc):
    i = canonicalize(i)
    if not right_unique(alloc):
        raise ValueError("allocation relation must be right-unique")
    out = []
    for b in relations.domain_of(alloc).payload:
        if not relations.is_relation(b):
            raise ValueError(f"domain member is not a bid vector: {b!r}")
        triple = pair(relations.domain_of(b),
                      pair(relations.single_outside(b, i), relations.eval_rel(alloc, b)))
        out.append(pair(b, triple))
    return fset(out)


def _reference_clear(inst):
    """Clearing read off the paper's enumeration: the canonical least of
    the welfare-optimal allocations in `possible_allocations`, and each
    bidder's excluded optimum taken from the allocations that leave them
    out (0 when none does).  With no allocation at all it refuses the
    instance as clearing does."""
    scored = [
        (sum((inst.value(p.second, p.first) for p in a.payload), Fraction(0)), a)
        for a in paper.possible_allocations(inst.goods, inst.bidders)
    ]
    if not scored:
        raise ValueError("no bidders to allocate the goods to")
    best = max(w for w, _ in scored)
    chosen = min(a for w, a in scored if w == best)
    served = [(w, {p.second for p in a.payload}) for w, a in scored]
    payments = []
    for n in inst.bidders.payload:
        excluded = max((w for w, used in served if n not in used), default=Fraction(0))
        payments.append(pair(n, num(excluded - (best - won_value(inst, chosen, n)))))
    return Outcome(chosen, fset(payments), best)


def _clears_as_both(inst):
    return _reference_clear(inst), inst, paper._oracle_optima(inst)


def _same_clearing(out, want):
    """out is the reference outcome, and each payment is the excluded
    optimum less what the others get under out's allocation."""
    reference, inst, (welfare, excluded) = want
    paid = {e.first: values.as_fraction(e.second) for e in out.payments.payload}
    return out == reference and out.welfare == welfare and paid == {
        n: x - (welfare - won_value(inst, out.allocation, n)) for n, x in excluded.items()
    }


def _solved(inst):
    """auctions._solve's record, and the calls it made to each function
    that work_counts counts."""
    with work_counts.counting() as counts:
        solved = auctions._solve(inst)
    return solved, counts


def _same_record(got, want):
    """The record's optimum and exclusions over its scale are the oracle's,
    its own[k] is what bidder k wins under the outcome's allocation, and
    it was computed with no Value built."""
    (solved, counts), (inst, (welfare, excluded)) = got, want
    allocation = auctions.clear_vickrey(inst).allocation
    bidders = inst.bidders.payload

    def unscaled(amounts):
        return [Fraction(x, solved.scale) for x in amounts]

    return (
        not any(counts.values())
        and Fraction(solved.optimum, solved.scale) == welfare
        and unscaled(solved.excluded) == [excluded[n] for n in bidders]
        and unscaled(solved.own) == [won_value(inst, allocation, n) for n in bidders]
    )


def _walked_depth(text: str) -> int:
    """Levels of arrays and objects open at the deepest point of text, read
    character by character: a string runs from a quote to the next quote
    that no backslash escapes, and a backslash escapes the next character."""
    depth = deepest = 0
    in_string = escaped = False
    for c in text:
        if escaped:
            escaped = False
        elif in_string:
            escaped, in_string = c == "\\", c != '"'
        elif c == '"':
            in_string = True
        elif c in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif c in "]}":
            depth -= 1
    return deepest


def _walked_json_depth(text: str):
    """(depth, JSON or not): of JSON text, its walked depth; of other text,
    the walked depth of what the decoder reads before it stops.  Each is
    counted up to CAP_DEPTH + 1, as encoding._json_depth counts."""
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return min(_walked_depth(text[:e.pos]), CAP_DEPTH + 1), False
    return min(_walked_depth(text), CAP_DEPTH + 1), True


def _scan_is_safe(got: int, want) -> bool:
    """The scan gives JSON text its walked depth; other text it passes only
    where the decoder nests within the cap before it stops."""
    depth, is_json = want
    return got == depth if is_json else got > CAP_DEPTH or depth <= CAP_DEPTH


# strings with brackets, quotes, runs of 1-3 backslashes, non-ASCII
# characters and a lone surrogate
SCAN_STRINGS = ["", "[", "]}", '"', "\\", "\\\\", "\\\\\\", '\\"[', "é{", "\ud800]", '[{"\\']


def _nested_json(depth: int, kinds: int, strings, ascii: bool) -> str:
    """JSON text of depth arrays and objects: level k is an object where bit
    k of kinds is set, else an array, and holds the k-th string of strings,
    cycled, beside the level below it (as that level's key in an object)."""
    node = None
    for k in reversed(range(depth)):
        s = strings[k % len(strings)]
        below = s if node is None else node
        node = {s: below} if kinds >> k & 1 else [s, below]
    return json.dumps(node, ensure_ascii=ascii)


def _altered(text: str, pos: int, insert: str, cut: bool) -> str:
    """text with insert put in at pos, and the rest cut off after it if cut."""
    pos %= len(text) + 1
    return text[:pos] + insert + ("" if cut else text[pos:])


def _json_depth_sweep():
    # all arrays, all objects, and every other level an object
    texts = [(depth, kinds, ascii) for depth in (CAP_DEPTH - 1, CAP_DEPTH, CAP_DEPTH + 1)
             for kinds in (0, (1 << 101) - 1, int("01" * 51, 2)) for ascii in (True, False)]
    full = [_nested_json(depth, kinds, SCAN_STRINGS, ascii) for depth, kinds, ascii in texts]
    return {
        "arrays and objects 99-101 deep, each level holding one string or all": [
            (_nested_json(depth, kinds, strings, ascii),) for depth, kinds, ascii in texts
            for strings in [SCAN_STRINGS] + [[s] for s in SCAN_STRINGS]],
        # the decoder stops at a syntax error: after the last bracket, at a
        # cut, or at a stray bracket first or quote, backslash or bracket halfway
        "the same, all strings, cut or with a character put in": [
            (_altered(text, pos, insert, cut),) for text in full for pos, insert, cut in (
                (len(text), "x", False), (len(text) - 1, "", True), (0, "]", False),
                *((len(text) // 2, c, False) for c in '"\\]'))],
    }


def json_texts(st):
    """JSON texts 95-107 levels deep, their strings drawn from brackets,
    quotes, backslashes, a non-ASCII character and a lone surrogate, and
    such texts cut or with a character put in."""
    strings = st.lists(st.sampled_from('[]{}"\\é\ud800a'), max_size=4).map("".join)
    texts = st.builds(_nested_json, st.integers(CAP_DEPTH - 5, CAP_DEPTH + 7),
                      st.integers(0, (1 << 107) - 1), st.lists(strings, min_size=1, max_size=4),
                      st.booleans())
    return texts | st.builds(_altered, texts, st.integers(0, 1 << 20),
                             st.sampled_from(["x", '"', "\\", "]", "[", "{", ""]), st.booleans())


def _read_row_by_row(text):
    """parse_instance with no memo: the document's depth walked character
    by character, then a missing key reported, then each part read on its
    own from its own JSON text, then each row checked as make_instance
    reads, with member."""
    if _walked_depth(text) > CAP_DEPTH:
        raise CapExceeded(f"instance file nested deeper than {CAP_DEPTH} levels")
    obj = json.loads(text)
    missing = {"goods", "bidders", "valuations"} - set(obj)
    if missing:
        raise ValidationError(f"instance file is missing {sorted(missing)}")
    goods, bidders = (encoding.parse_value(json.dumps(obj[key])) for key in ("goods", "bidders"))
    auctions._check_caps(auctions._input_set(goods, "goods"), auctions._input_set(bidders, "bidders"))
    rows = []
    for row in obj["valuations"]:
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"bad valuation row: {json.dumps(row, ensure_ascii=False)}")
        rows.append([encoding.parse_value(json.dumps(e)) for e in row])
    if not goods.payload:
        raise ValidationError("no goods")
    if not bidders.payload:
        raise ValidationError("no bidders")
    for what, atoms in (("good", goods), ("bidder", bidders)):
        for x in atoms.payload:
            if not (x.is_num or x.is_sym):
                raise ValidationError(f"{what} must be an atom: {x!r}")
    table = {}
    for bidder, bundle, value in rows:
        if not member(bidder, bidders):
            raise ValidationError(f"unknown bidder {bidder!r}")
        auctions._input_set(bundle, "bundle")
        if not all(member(g, goods) for g in bundle.payload):
            raise ValidationError(f"bundle {bundle!r} is not within the goods")
        if not value.is_num:
            raise ValidationError(f"valuation must be numeric: {value!r}")
        if value.payload < 0:
            raise ValidationError(f"negative valuation {value!r}")
        if not bundle.payload and value.payload != 0:
            raise ValidationError("the empty bundle must be worth 0")
        if (bidder, bundle) in table:
            raise ValidationError(f"duplicate valuation for {bidder!r}, {bundle!r}")
        table[(bidder, bundle)] = value.payload
    return CombinatorialInstance(goods, bidders, table)


def _dumped(obj):
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _payment_form_verdict(m, fee):
    try:
        return auctions.vickrey_payment_form_check(
            m.bidder, m.alloc, m.price, auctions.max_rival_bid, fee, num(0)
        )
    except ValueError:
        return "undefined fee"


def _fee_closure_verdict(m):
    return _payment_form_verdict(m, auctions.reduced_fee_table(m.price, m.bidder, m.alloc))


def _definition_fee(m):
    """The fee read off its definition: at a reduced bid, the one payment
    over the vectors b that bid for the bidder, reduce to it, and get the
    lowest allocation; UNDEFINED unless there is exactly one."""
    lowest = values.min_of(relations.range_of(m.alloc))

    def fee(reduced):
        paid = {p.second for p in m.price.payload
                if member(m.bidder, relations.domain_of(p.first))
                and relations.single_outside(p.first, m.bidder) == reduced
                and relations.eval_rel(m.alloc, p.first) == lowest}
        return paid.pop() if len(paid) == 1 else UNDEFINED

    return fee


def _fee_definition_verdict(m):
    """The verdict with the fee read off its definition."""
    return _payment_form_verdict(m, _definition_fee(m))


def _payment_form_walk(i, alloc, price, weight, fee, base_alloc):
    """The payment-form check as a walk over the common domain: each
    vector's reduced bid cut out with single_outside, and both tables
    looked up at it, weight first, at every vector."""
    i = canonicalize(i)
    base = values.as_fraction(canonicalize(base_alloc))

    def looked_up(table, reduced):
        y = canonicalize(table(reduced))
        if not y.is_num:
            raise ValueError(f"table has no numeric value at {reduced!r} (got {y!r})")
        return y.payload

    for b in values.intersection(relations.domain_of(alloc), relations.domain_of(price)).payload:
        reduced = relations.single_outside(b, i)
        w, t = looked_up(weight, reduced), looked_up(fee, reduced)
        paid = values.as_fraction(relations.eval_rel(price, b))
        won = values.as_fraction(relations.eval_rel(alloc, b))
        if paid != (won - base) * w + t:
            return False
    return True


def _spoiled_at(table, at, spoiled):
    """table, but spoiled at the reduced bid at."""
    return lambda reduced: spoiled if reduced == at else table(reduced)


def _payment_form_arguments(m):
    """m's payment-form check with the fee closure, the fee read off its
    definition, the definition undefined at the reduced bid of m's middle
    vector, and the closure with a weight that is no number there."""
    vectors = relations.domain_of(m.alloc).payload
    middle = relations.single_outside(vectors[len(vectors) // 2], m.bidder)
    closure = auctions.reduced_fee_table(m.price, m.bidder, m.alloc)
    definition = _definition_fee(m)
    return [
        (m.bidder, m.alloc, m.price, weight, fee, num(0)) for weight, fee in (
            (auctions.max_rival_bid, closure),
            (auctions.max_rival_bid, definition),
            (auctions.max_rival_bid, _spoiled_at(definition, middle, UNDEFINED)),
            (_spoiled_at(auctions.max_rival_bid, middle, sym("w")), closure),
        )
    ]


def _quotient_reduced_price(price, i, alloc):
    """The paper's reduced price: the quotient of price by the kernel of the
    reduced-bid map rb, between the projector of converse(rb) and the
    converse projector of the identity on the prices."""
    rb = auctions.reduced_bid_map(i, alloc)
    ident = quotients.identity_on(relations.range_of(price))
    lifted = quotients.quotient(price, quotients.kernel(rb), ident)
    return relations.compose(
        relations.compose(quotients.projector(converse(rb)), lifted),
        converse(quotients.projector(ident)),
    )


def _price_arguments(m):
    """m's price, its allocation and the empty relation, each as the price."""
    return [(price, m.bidder, m.alloc) for price in (m.price, m.alloc, EMPTY)]


# ---------------------------------------------------------------------------
# sweeps with more than one universe or built from instances

def _quotient_sweep():
    A2 = V([1, 2])
    arbitrary = [
        all_subsets(cartesian_product(X, Y)).payload for X, Y in ((A2, B2), (A2, A2), (B2, B2))
    ]
    return {
        "3x2 partial equivalences": list(
            product(RELATIONS_3X2, all_partial_equivalences(A3), all_partial_equivalences(B2))
        ),
        "arbitrary P and Q on 2x2": list(product(*arbitrary)),
    }


def _shaped_instance(n_goods, n_bidders, shape, rng=None, denominators=(1, 2, 3)):
    """Valuations "monotone" (over the denominators), "sparse", or one
    number for every bundle."""
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(k) for k in range(1, n_bidders + 1))
    bundles = [b for b in all_subsets(goods).payload if b.payload]
    triples = []
    for n in bidders.payload:
        if shape == "monotone":
            raw = {b: Fraction(rng.randint(0, 12), rng.choice(denominators)) for b in bundles}
            for b in bundles:
                inner = [raw[s] for s in bundles if set(s.payload) <= set(b.payload)]
                triples.append((n, b, num(max(inner))))
        elif shape == "sparse":
            for b in rng.sample(bundles, min(2, len(bundles))):
                triples.append((n, b, num(rng.randint(1, 9))))
        else:
            triples.extend((n, b, num(shape)) for b in bundles)
    return make_instance(goods, bidders, triples)


def _clearing_sweep():
    # the tie-heavy shapes pin the canonical tie-break, the single-bidder
    # sizes pin the excluded optimum of a lone bidder
    parts = {}
    valuation = {"monotone": "monotone", "zero": 0, "equal": 3, "sparse": "sparse"}
    for shape in ("monotone", "zero", "equal", "sparse"):
        rng = random.Random(f"dp:{shape}")
        parts[shape] = [
            (_shaped_instance(g, b, valuation[shape], rng),)
            for g in range(1, 5)
            for b in range(1, 5)
        ]
    for shape in ("monotone", "equal", "sparse"):
        rng = random.Random(f"dp5:{shape}")
        parts[f"5x5 {shape}"] = [(_shaped_instance(5, 5, valuation[shape], rng),)]
    # the edges of the allocation space, which make_instance refuses: no
    # goods has the one empty allocation, goods and no bidders have none
    parts["0x2, 0x0 and 1x0"] = [
        (CombinatorialInstance(fset(goods), fset(bidders), {}),)
        for goods, bidders in (((), (1, 2)), ((), ()), (("g1",), ()))]
    parts["no free disposal"] = [
        (make_instance(V(["g1", "g2"]), V([1, 2]), [(1, V(["g1"]), 10), (2, V(["g2"]), 10)]),)
    ]
    # every nonempty bundle worth the same to everyone: nearly every allocation ties
    for value in (0, 5):
        for g, b in ((3, 4), (2, 5), (4, 2)):
            parts[f"{g}x{b} worth {value}"] = [(_shaped_instance(g, b, value),)]
    # 1,000-digit denominators: one shared keeps clearing on integers, 21
    # distinct ones put the common denominator past auctions.MAX_SCALE_BITS
    rng = random.Random("dp:digits")
    for label, count in (("one shared 1,000-digit denominator", 1),
                         ("21 distinct 1,000-digit denominators", 21)):
        denominators = [rng.randrange(10**999, 10**1000) for _ in range(count)]
        parts[f"3x3 monotone over {label}"] = [
            (_shaped_instance(3, 3, "monotone", rng, denominators),)]
    return parts


def _instance_file_sweep():
    # a benchmark-like file: every bundle once per bidder, over three
    # denominators, the goods of each bundle in a seeded order
    rng = random.Random("instance files")
    bundles = [s for n in range(1, 5) for s in combinations(("g1", "g2", "g3", "g4"), n)]
    dense = [[b, ["set", *rng.sample(s, len(s))], f"{rng.randint(0, 48)}/{rng.choice((2, 3, 4))}"]
             for b in (1, 2, 3) for s in bundles]
    return {
        "0-2 rows of the row pool": [
            (_instance_text(list(rows)),)
            for n in range(3) for rows in product(INSTANCE_ROWS, repeat=n)],
        "4 goods x 3 bidders, every bundle": [
            (_instance_text(dense, ("g1", "g2", "g3", "g4"), (1, 2, 3)),)],
        "goods or bidders refused": [
            (_instance_text([], goods, bidders),) for goods, bidders in (
                ((), (1,)), (("g1",), ()), ((["pair", 1, 2],), (1,)), (("g1",), (["set"],)),
                (("g1",), tuple(range(7))))],
        # each bundle and amount is checked once per file: the same one
        # written again, or written another way, meets the first one's check
        "rows that share a bundle or an amount": [
            (_instance_text(rows),) for rows in SHARED_PART_ROWS],
        # the object is one level, the goods or bidders set a second and a
        # row element's array the fourth: each read part at the depth cap
        # (refused as no atom or not within the goods) and one past it, and
        # a row element whose innermost array an earlier row names
        "read parts at and past the depth cap": [
            (text,) for depth in (CAP_DEPTH, CAP_DEPTH + 1) for text in (
                _instance_text([], (_nested(depth - 2),)),
                _instance_text([], ("g1",), (_nested(depth - 2),)),
                _instance_text([[1, _nested(depth - 3), 1]]),
                _instance_text([[1, _nested(1), 1], [2, _nested(depth - 3), 1]]))],
        # the depth is decided on the whole text before a missing key is
        # reported: at the cap the key is reported, past it the depth
        "a key missing, the goods or bidders at and past the depth cap": [
            (json.dumps(obj),) for depth in (CAP_DEPTH, CAP_DEPTH + 1) for obj in (
                {"goods": ["set", _nested(depth - 2)]},
                {"goods": ["set", "g1"], "bidders": ["set", _nested(depth - 2)]},
                {"bidders": ["set", _nested(depth - 2)], "valuations": []})] + [
            (json.dumps({"goods": ["set", "g1"], "valuations": []}),)],
        # a part never read, or met after a bad row, is refused past the cap
        "unread parts at and past the depth cap": [
            (text,) for depth in (CAP_DEPTH, CAP_DEPTH + 1) for text in (
                json.dumps({"goods": ["set", "g1"], "bidders": ["set", 1], "valuations": [],
                            "note": _nested(depth - 1)}),
                _instance_text([["bad"], [1, _nested(depth - 3), 1]]))],
    }


def _outcome_sweep():
    non_ascii = make_instance(
        V(["gü", "g1"]), V([1, 2]), [(1, V(["gü"]), rat(7, 2)), (2, V(["gü", "g1"]), 5)]
    )
    seeded = [laws.random_instance(random.Random(f"outcome:{seed}")) for seed in range(12)]
    return {
        "random instances": [(auctions.clear_vickrey(inst),) for inst in seeded],
        "non-ASCII good": [(auctions.clear_vickrey(non_ascii),)],
    }


def _mechanism_sweep():
    builds = (auctions.second_price_single_good, auctions.first_price_single_good)
    grids = (
        (V([1, 2]), V([0, 1, 2])), (V([1, 2]), V([0, 1])), (V([1, 2, 3]), V([0, rat(1, 2), 2]))
    )
    return {"2-3 bidders on 2-3 point grids": [
        (build(bidders, grid, i),) for build in builds for bidders, grid in grids
        for i in bidders.payload
    ]}


# every nonempty grid of five rationals, a grid with a symbol and one past
# the grid cap
SINGLE_GOOD_GRIDS = [g for g in all_subsets(V([-1, rat(-1, 2), 0, rat(1, 2), 3])).payload if g] + [
    V([0, "a"]), V(list(range(6)))]


def _single_good_sweep():
    return {f"{n} bidders, each of them and one outside": [
        (V(list(range(1, n + 1))), grid, num(i)) for grid in SINGLE_GOOD_GRIDS
        for i in range(1, n + 2)] for n in range(1, 5)}


# grid values over 3^1900, 5^1300, 7^1100, 11^900 and 13^800: the common
# denominator of all five has about 15,190 bits, past
# auctions.MAX_SCALE_BITS, and of the first four about 12,230, below it
HUGE_DENOMINATOR_GRID = [rat(k, p**e) for k, (p, e) in enumerate(
    ((3, 1900), (5, 1300), (7, 1100), (11, 900), (13, 800)), start=1)]


def _huge_denominator_mechanisms():
    """Second-price mechanisms for bidder 2 of two on the huge-denominator
    grid, past the scale bound, and on its first four values, below it."""
    return [auctions.second_price_single_good(V([1, 2]), fset(grid), 2)
            for grid in (HUGE_DENOMINATOR_GRID, HUGE_DENOMINATOR_GRID[:-1])]


def _grid_dominance_sweep():
    builds = (auctions.second_price_single_good, auctions.first_price_single_good)
    grids = [g for g in SINGLE_GOOD_GRIDS
             if len(g.payload) <= auctions.CAP_GRID and all(x.is_num for x in g.payload)]
    return {
        "both rules, 2-3 bidders, each of them, every numeric grid within the cap": [
            (build(V(list(range(1, n + 1))), grid, num(i)),)
            for build in builds for n in (2, 3) for grid in grids for i in range(1, n + 1)],
        "grid denominators past the scale bound and below it": [
            (m,) for m in _huge_denominator_mechanisms()],
    }


def _dominance_sweep():
    [mechanisms] = _mechanism_sweep().values()
    m = mechanisms[0][0]
    one = relation([(1, 1), (2, 1)])
    lone, twice = relation([(2, 1)]), relation([(1, 0), (1, 2), (2, 0)])
    *paid, last = m.price.payload
    *won, last_won = m.alloc.payload
    first = auctions.first_price_single_good(V([1, 2]), V([0, 1, 2]), 1)
    last_bidder = mechanisms[1][0]
    twice_last = relation([(1, 0), (2, 0), (2, 2)])
    huge = _huge_denominator_mechanisms()
    return {
        "the grid mechanisms of the mechanism sweep": [
            (x.bidder, x.alloc, x.price) for (x,) in mechanisms],
        "a one-vector domain, domains that differ, a vector without the bidder, "
        "a vector with two bids for it, a price that is no number, a domain "
        "member that is no vector": [
            (V(1), relation([(one, 1)]), relation([(one, 1)])),
            (m.bidder, m.alloc, fset(m.price.payload[::2])),
            (m.bidder, union(m.alloc, relation([(lone, 0)])), union(m.price, relation([(lone, 5)]))),
            (m.bidder, union(m.alloc, relation([(twice, 1)])), union(m.price, relation([(twice, 0)]))),
            (m.bidder, m.alloc, fset(paid + [pair(last.first, "x")])),
            (V(1), relation([(5, 0)]), relation([(5, 0)])),
        ],
        "grid denominators past the scale bound and below it": [
            (x.bidder, x.alloc, x.price) for x in huge],
        "the bidder as a raw int": [(1, first.alloc, first.price)],
        # bidder 2 bids 0 and 2: the vector sorts after the one where 2
        # bids 0 alone, but it is never the pasted vector of a bid of 0
        "a vector with two bids for the last bidder and a worse outcome": [
            (last_bidder.bidder, union(last_bidder.alloc, relation([(twice_last, 0)])),
             union(last_bidder.price, relation([(twice_last, 5)])))],
        # the last vector's outcome is met after numeric comparisons; its
        # allocation comes before its price
        "an allocation and a price that are no numbers at the last vector": [
            (m.bidder, fset(won + [pair(last_won.first, "x")]),
             fset(paid + [pair(last.first, "y")]))],
    }


def _reduced_bid_sweep():
    [cases] = _reduced_price_sweep().values()
    b = relation([(1, 0), (2, 1)])
    # domains {1, 2}, {1, 3}, {2} and {}, and {1, 2} again from a vector
    # with two bids for 1
    vectors = [b, relation([(1, 0), (3, 1)]), relation([(2, 1)]), fset(),
               relation([(1, 0), (1, 2), (2, 0)])]
    return {
        "each relation of the reduced-price sweep as the allocation": list(dict.fromkeys(
            (i, R) for price, i, alloc in cases for R in (price, alloc))),
        "an allocation that is not right-unique or not over bid vectors": [
            (V(1), relation([(b, 0), (b, 1)])), (V(1), relation([(5, 0)]))],
        "vectors over different domains": [
            (V(1), relation([(x, k % 2) for k, x in enumerate(vectors)]))],
    }


def _compose_sweep():
    # the fan sends 0 to every atom and "a" to 0; on the right every atom
    # has images of several kinds, so a run of a subset of the fan reaches
    # several image tuples whose keys are of every kind
    fan = fset([pair(ATOMS[0], y) for y in ATOMS] + [pair(ATOMS[2], ATOMS[0])])
    atoms = fset(ATOMS)
    shift = fset(pair(a, ATOMS[(k + d) % 5]) for k, a in enumerate(ATOMS) for d in (1, 2))
    to_zero = fset(pair(a, ATOMS[0]) for a in ATOMS)
    return {"3x2 then 2x3": list(product(RELATIONS_3X2, CONVERSES_3X2)),
            "2x3 then 3x2": list(product(CONVERSES_3X2, RELATIONS_3X2)),
            "subsets of a fan over the atoms, then images of mixed kinds": list(product(
                all_subsets(fan).payload, (cartesian_product(atoms, atoms), shift, to_zero, fan)))}


def _paste_sweep():
    return {
        "3x2 relations": list(product(RELATIONS_3X2, RELATIONS_3X2)),
        "relations on mixed points": list(product(MIXED_RELATIONS, MIXED_RELATIONS)),
        "not relations": list(product(NOT_RELATIONS, NOT_RELATIONS)),
    }


def _single_paste_sweep():
    return {
        "3x2 relations, points on and off them": list(
            product(RELATIONS_3X2, EDGE_POINTS, [11, rat(1, 2), "b"])),
        "relations on mixed points, points on and off them": list(
            product(MIXED_RELATIONS, EDGE_POINTS, [11])),
        "not relations or not values": list(
            product(NOT_RELATIONS, UNREADABLE + [V(1)], [11, 1.5])),
    }


def _single_outside_sweep():
    return {
        "3x2 and mixed relations, points on and off them": list(
            product(RELATIONS_3X2 + MIXED_RELATIONS, EDGE_POINTS)),
        "not relations or not values": list(
            product(NOT_RELATIONS, UNREADABLE + [V(1)])),
    }


def _price_kernel_identity(m):
    """m's price, the kernel of its reduced-bid map and the identity on the
    price's range: compatible for second price, and for first price only
    where the law first_price_not_dominant looks for no deviation."""
    kernel = quotients.kernel(auctions.reduced_bid_map(m.bidder, m.alloc))
    return m.price, kernel, quotients.identity_on(relations.range_of(m.price))


def _compatible_sweep():
    [mechanisms] = _mechanism_sweep().values()
    return {
        "3x2 functions, partial equivalences on source and target": list(product(
            FUNCTIONS_3X2, all_partial_equivalences(A3), all_partial_equivalences(B2))),
        "the grid mechanisms' prices, reduced-bid kernels and price identities": [
            _price_kernel_identity(m) for (m,) in mechanisms],
    }


def _kernel_sweep():
    [mechanisms] = _mechanism_sweep().values()
    return {
        "3x2 functions": [(f,) for f in FUNCTIONS_3X2],
        "the grid mechanisms' reduced-bid maps and prices": [
            (f,) for (m,) in mechanisms
            for f in (auctions.reduced_bid_map(m.bidder, m.alloc), m.price)],
    }


def _payment_form_sweep():
    [mechanisms] = _mechanism_sweep().values()
    return {"each mechanism with two fees, one undefined at a reduced bid, and a weight "
            "that is no number there": [
                case for (m,) in mechanisms for case in _payment_form_arguments(m)]}


def _reduced_price_sweep():
    [mechanisms] = _mechanism_sweep().values()
    return {"each mechanism, with its price, its allocation or nothing as the price": [
        case for (m,) in mechanisms for case in _price_arguments(m)]}


# ---------------------------------------------------------------------------
# strategies: each is a function of hypothesis.strategies

# a few values of different kinds for generated relations and sets
ATOMS = (num(0), rat(1, 2), sym("a"), EMPTY, pair(1, "b"))
PAIRS = tuple(pair(a, b) for a in ATOMS for b in ATOMS)


def _subsets(st, pool=ATOMS):
    """Subsets of pool, one drawn integer each: few draws keep an example
    cheap."""
    return st.integers(0, (1 << len(pool)) - 1).map(
        lambda mask: fset(x for k, x in enumerate(pool) if mask >> k & 1)
    )


def _arrangements(st, pool, most: int, repeat=False):
    """Lists of at most `most` values of pool, distinct unless repeat: one
    draw each."""
    lists = product(pool, repeat=most) if repeat else permutations(pool, most)
    shortest_first = sorted({xs[:k] for xs in lists for k in range(most + 1)}, key=len)
    return st.sampled_from(shortest_first).map(list)


def _equivalence_or_reflexive(carrier, i: int, R):
    """The i-th equivalence on carrier, or past them R with the identity
    on carrier added, so that only symmetry or transitivity can fail."""
    equivalences = all_equivalences(carrier)
    if i < len(equivalences):
        return equivalences[i]
    return fset(R.payload + tuple(pair(x, x) for x in carrier.payload))


def _one(strategy):
    return strategy.map(lambda x: (x,))


def _digits(st, base: int):
    """Base-base digits, one for each of the ATOMS, from one drawn integer."""
    return st.integers(0, base ** len(ATOMS) - 1).map(
        lambda m: [m // base**k % base for k in range(len(ATOMS))]
    )


def _block_lists(st, pool):
    """Up to 3 distinct blocks of pool, not necessarily disjoint, from one
    drawn integer: its two low bits count the blocks, each next byte is
    the mask of one."""

    def blocks(m):
        masks = [m >> 2 + 8 * k & 255 for k in range(m & 3)]
        subsets = (fset(x for i, x in enumerate(pool) if mask >> i & 1) for mask in masks)
        return list(dict.fromkeys(subsets))

    return st.integers(0, (1 << 26) - 1).map(blocks)


def _small_instance(n_goods, n_bidders, digits):
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(n) for n in range(1, n_bidders + 1))
    bundles = [b for b in all_subsets(goods).payload if b.payload]
    cells = [(n, b) for n in bidders.payload for b in bundles]
    triples = [cell + (num(digits // 6**k % 6),) for k, cell in enumerate(cells)]
    return make_instance(goods, bidders, triples)


def small_instances(st):
    """At most 3 goods x 3 bidders, every nonempty bundle worth 0..5 to
    every bidder (the base-6 digits of one drawn integer), with no free
    disposal, so a bundle may be worth less than its parts."""
    sizes = st.integers(1, 3)
    return st.builds(_small_instance, sizes, sizes, st.integers(0, 6**21 - 1))


def _single_good_cases(st):
    """Up to 3 bidders, a grid that may hold a symbol, a bidder among them
    or not."""
    return st.tuples(_subsets(st, (num(1), num(2), sym("a"))),
                     _subsets(st, (num(-1), rat(1, 2), num(0), num(3), sym("b"))),
                     st.sampled_from((num(1), num(2), sym("a"), num(7))))


def _mechanism_cases(st):
    builds = st.sampled_from([auctions.second_price_single_good, auctions.first_price_single_good])
    grids = _subsets(st, (num(0), rat(1, 2), num(1), num(2))).filter(lambda g: 0 < len(g) < 4)
    return st.tuples(builds, grids, st.sampled_from([V(1), V(2)])).map(
        lambda t: (t[0](V([1, 2]), t[1], t[2]),)
    )


def numbers(st):
    return st.integers(-10**30, 10**30).map(num) | st.fractions(max_denominator=10**12).map(num)


def is_symbol(text: str) -> bool:
    try:
        sym(text)
    except ValueError:
        return False
    return True


def writer_values(st):
    """Values with the symbols whose escaping differs between JSON
    encoders: DEL, the line and paragraph separators, non-ASCII letters."""
    symbols = st.text(alphabet="ab-/ é⊥\x7f\u2028\u2029", min_size=1, max_size=4)
    negative_rationals = st.tuples(st.integers(1, 10**20), st.integers(2, 10**6)).map(
        lambda t: rat(-t[0], t[1])
    )
    return st.recursive(
        numbers(st) | negative_rationals | symbols.filter(is_symbol).map(sym) | st.just(EMPTY),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: pair(*ab)),
            st.lists(inner, max_size=4).map(fset),
        ),
        max_leaves=12,
    )


def _nest(v, depth: int, wraps: int):
    """v wrapped depth times: in a pair where bit k of wraps is set, in a
    singleton set where it is clear."""
    for k in range(depth):
        v = pair(v, EMPTY) if wraps >> k & 1 else fset([v])
    return v


def deep_values(st):
    """Writer values nested just under the depth cap."""
    depths = st.integers(CAP_DEPTH - 4, CAP_DEPTH - 1)
    return st.builds(_nest, writer_values(st), depths, st.integers(0, (1 << CAP_DEPTH) - 1))


# ---------------------------------------------------------------------------
# the table

ROWS = (
    Row("intersection", values.intersection,
        lambda a, b: fset(e for e in a.payload if member(e, b)),
        _product("subsets of 5 mixed values", SUBSETS_OF_5, SUBSETS_OF_5), 1024,
        lambda st: st.tuples(_subsets(st, MIXED), _subsets(st, MIXED))),
    Row("difference", values.difference,
        lambda a, b: fset(e for e in a.payload if not member(e, b)),
        _product("subsets of 5 mixed values", SUBSETS_OF_5, SUBSETS_OF_5), 1024,
        lambda st: st.tuples(_subsets(st, MIXED), _subsets(st, MIXED))),
    Row("_set_plus", values._set_plus, _union_with,
        _product("subsets of the mixed values", all_subsets(fset(MIXED)).payload, MIXED), 2048,
        lambda st: st.tuples(_subsets(st, MIXED), st.sampled_from(MIXED)), _same_set_plus),
    Row("domain_of", relations.domain_of, lambda R: fset(p.first for p in R.payload),
        _product("3x2 relations", RELATIONS_3X2), 64, lambda st: _one(_subsets(st, PAIRS))),
    Row("outside", relations.outside,
        lambda R, X: fset(p for p in R.payload if not member(p.first, X)),
        _product("3x2 relations, sets of sources", RELATIONS_3X2, all_subsets(A3).payload), 512,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st))),
    Row("converse", converse, _literal_converse,
        _product("3x2 relations and their converses", RELATIONS_3X2 + CONVERSES_3X2), 128,
        lambda st: _one(_subsets(st, PAIRS))),
    Row("compose", relations.compose, _literal_compose, _compose_sweep, 8448,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS))),
    Row("paste", relations.paste, _literal_paste, _paste_sweep, 5145,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS)),
        errors=(TypeError, ValueError)),
    Row("single_paste", relations.single_paste,
        lambda F, x, y: _literal_paste(F, fset([(x, y)])), _single_paste_sweep, 2056,
        lambda st: st.tuples(_subsets(st, PAIRS), st.sampled_from(ATOMS + (num(7),)),
                             st.sampled_from(ATOMS)),
        errors=(TypeError, ValueError)),
    Row("single_outside", relations.single_outside, _literal_single_outside,
        _single_outside_sweep, 884,
        lambda st: st.tuples(_subsets(st, PAIRS), st.sampled_from(ATOMS + (num(7),))),
        errors=(TypeError, ValueError)),
    Row("eval_rel", relations.eval_rel, lambda R, x: values.the_elem(image(R, fset([x]))),
        _product("3x2 relations, points on and off them", RELATIONS_3X2, POINTS), 512,
        lambda st: st.tuples(_subsets(st, PAIRS), st.sampled_from(ATOMS + (num(7),)))),
    Row("trivial", relations.trivial, lambda s: values.is_subset(s, fset([values.the_elem(s)])),
        _product("sets of mixed values and the undefined marker",
                 all_subsets(fset(MIXED + [UNDEFINED])).payload), 512,
        lambda st: _one(_subsets(st, MIXED + [UNDEFINED]))),
    Row("right_unique", right_unique,
        lambda R: [ru(R) for ru in paper.RIGHT_UNIQUE_CHARACTERIZATIONS.values()],
        _product("3x2 relations", RELATIONS_3X2), 64,
        lambda st: _one(_subsets(st, PAIRS)), _agrees_with_each),
    Row("arg_max_list", relations.arg_max_list,
        lambda f, xs: [
            canonicalize(x) for x in xs if member(x, relations.arg_max_set(f, fset(xs)))],
        _product("scores of 3 points, lists of distinct points",
                 [relation(zip(A3.payload, map(num, ys))) for ys in product(range(3), repeat=3)],
                 [list(xs) for k in (1, 2, 3) for xs in permutations(A3.payload, k)]), 405,
        lambda st: st.tuples(
            _digits(st, 4).map(lambda ys: relation(zip(ATOMS, map(num, ys)))),
            _arrangements(st, ATOMS, 4, repeat=True).filter(bool))),
    Row("projector", quotients.projector,
        lambda R: fset(pair(x, image(R, fset([x]))) for x in {p.first for p in R.payload}),
        _product("3x2 relations and their converses", RELATIONS_3X2 + CONVERSES_3X2), 128,
        lambda st: _one(_subsets(st, PAIRS))),
    Row("quotient", quotients.quotient, _literal_quotient, _quotient_sweep, 8896,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS), _subsets(st, PAIRS))),
    Row("compatible", quotients.compatible,
        lambda R, P, Q: [_literal_compatible(R, P, Q), paper.compatible_by_composition(R, P, Q)],
        _compatible_sweep, 2039,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS), _subsets(st, PAIRS)),
        _agrees_with_each),
    Row("is_equivalence", paper.is_equivalence, lambda E, c: E in _equivalences(c),
        _product("relations on 3 points, carriers within them",
                 all_subsets(cartesian_product(A3, A3)).payload, all_subsets(A3).payload), 4096,
        lambda st: st.tuples(_subsets(st, ATOMS[:3]), st.integers(0, 9), _subsets(st, PAIRS))
        .map(lambda t: (_equivalence_or_reflexive(*t), t[0]))),
    # the points with equal f-values, pair by pair, and f ; f^-1
    Row("kernel", quotients.kernel,
        lambda f: [fset(pair(p.first, q.first) for p in f.payload for q in f.payload
                        if p.second == q.second), paper.kernel_by_composition(f)],
        _kernel_sweep, 55,
        lambda st: _one(_digits(st, len(ATOMS) + 1).map(lambda ys: relation(
            (x, ATOMS[y - 1]) for x, y in zip(ATOMS, ys) if y))),
        _agrees_with_each),
    # each injection as its pair list: listed from a source in canonical
    # order, the list is in its set's order and writes as its set
    Row("injections_alg", enumeration.injections_alg, _pasted_in_order,
        lambda: {
            "0-3 mixed sources into 0-4 mixed targets": [
                (MIXED[:n], fset(MIXED[3 : 3 + m])) for n in range(4) for m in range(5)],
            "0-4 mixed sources in canonical order into 0-5 mixed targets": [
                (list(fset(MIXED[:n]).payload), fset(MIXED[3 : 3 + m]))
                for n in range(5) for m in range(6)],
            # a used-target mask past one 30-bit digit of an int
            "0-2 mixed sources, in either order, into 31-33 values": [
                (xs, fset([*MIXED, *range(100, 100 + m - len(MIXED))]))
                for xs in ([], MIXED[:1], MIXED[:2], MIXED[1::-1]) for m in range(31, 34)],
            "5-8 mixed sources into 0-4 mixed targets": [
                (MIXED[:n], fset(MIXED[3 : 3 + m])) for n in range(5, 9) for m in range(5)],
        }, 82,
        lambda st: st.tuples(_arrangements(st, MIXED, 3),
                             _subsets(st, MIXED[2:])),
        _same_injections),
    # one table of enlarged blocks for all the partitions of a family; one
    # partition goes in as the family [blocks]
    Row("all_coarser_partitions_with_list", enumeration.all_coarser_partitions_with_list,
        lambda new_el, partitions: [
            q for blocks in partitions for q in _coarser_by_insertion(new_el, blocks)],
        lambda: {
            "partition families of up to 5 mixed values, extended by the next": [
                (MIXED[n], all_partitions_list(MIXED[:n])) for n in range(6)],
            "partitions of up to 6 mixed values, each its own family, extended by the next": [
                (MIXED[n], [blocks])
                for n in range(7) for blocks in all_partitions_list(MIXED[:n])],
        }, 285,
        lambda st: st.tuples(st.sampled_from(MIXED), st.lists(_block_lists(st, MIXED), max_size=4))
        .map(lambda t: (t[0], [_blocks_without(t[0], blocks) for blocks in t[1]]))),
    Row("all_partitions_list", all_partitions_list,
        lambda xs: paper.all_partitions_oracle(fset(xs)),
        _product("up to 4 symbols", [[sym(s) for s in "abcd"[:n]] for n in range(5)]), 5,
        lambda st: _one(_arrangements(st, MIXED, 4)),
        _lists_each_partition_once),
    Row("all_partitions_oracle", paper.all_partitions_oracle,
        lambda A: fset(P for P in all_subsets(all_subsets(A)).payload if is_partition_of(P, A)),
        _product("up to 3 symbols", [fset(sym(s) for s in "abc"[:n]) for n in range(4)]), 4,
        lambda st: _one(_arrangements(st, MIXED, 2).map(fset))),
    Row("is_partition_of", is_partition_of, _counted_partition_of,
        _product("families of subsets of 3 symbols, carriers within them",
                 all_subsets(all_subsets(V(["a", "b", "c"]))).payload,
                 all_subsets(V(["a", "b", "c"])).payload), 2048,
        lambda st: st.tuples(_subsets(st, all_subsets(fset(MIXED[:4])).payload),
                             _subsets(st, MIXED[:4]))),
    Row("second_price_single_good", auctions.second_price_single_good,
        _paper_single_good(lambda b, i: auctions.max_rival_bid(relations.single_outside(b, i))),
        _single_good_sweep, 462, _single_good_cases, errors=(ValidationError, CapExceeded)),
    Row("first_price_single_good", auctions.first_price_single_good,
        _paper_single_good(relations.eval_rel),
        _single_good_sweep, 462, _single_good_cases, errors=(ValidationError, CapExceeded)),
    Row("dominant_strategy_counterexample", auctions.dominant_strategy_counterexample,
        _deviation_walk, _dominance_sweep, 25,
        lambda st: _mechanism_cases(st).map(lambda t: (t[0].bidder, t[0].alloc, t[0].price)),
        errors=(TypeError, ValueError)),
    # run-single decides on the positions the builder kept; the walk over
    # the mechanism's tables is the definition
    Row("_grid_counterexample", auctions._grid_counterexample,
        lambda m: auctions.dominant_strategy_counterexample(m.bidder, m.alloc, m.price),
        _grid_dominance_sweep, 312, _mechanism_cases),
    Row("reduced_bid_map", auctions.reduced_bid_map, _literal_reduced_bid_map,
        _reduced_bid_sweep, 26, lambda st: st.tuples(_mechanism_cases(st), st.booleans()).map(
            lambda t: (t[0][0].bidder, t[0][0].price if t[1] else t[0][0].alloc)),
        errors=(ValueError,)),
    Row("clear_vickrey", auctions.clear_vickrey, _clears_as_both, _clearing_sweep, 79,
        lambda st: _one(small_instances(st)), _same_clearing, errors=(ValueError,)),
    # clearing's solve step builds no Value, and its integers over one
    # scale are the oracle's optima and the outcome's own values
    Row("_solve", _solved, lambda inst: (inst, paper._oracle_optima(inst)), _clearing_sweep, 79,
        lambda st: _one(small_instances(st)), _same_record, errors=(ValueError,)),
    Row("parse_instance", auctions.parse_instance, _read_row_by_row, _instance_file_sweep, 643,
        lambda st: st.lists(st.sampled_from(INSTANCE_ROWS), max_size=4).map(
            lambda rows: (_instance_text(rows),)),
        errors=(ParseError, ValidationError, CapExceeded)),
    # the depth of JSON text on its bytes, against a walk character by
    # character; where the decoder stops at a syntax error, only the cap
    Row("_json_depth", encoding._json_depth, _walked_json_depth, _json_depth_sweep, 324,
        lambda st: _one(json_texts(st)), _scan_is_safe),
    Row("reduced_price_map", auctions.reduced_price_map, _quotient_reduced_price,
        _reduced_price_sweep, 42, lambda st: st.tuples(_mechanism_cases(st), st.integers(0, 2))
        .map(lambda t: _price_arguments(*t[0])[t[1]])),
    # each distinct reduced bid is looked up once, the walk looks it up at
    # every vector: the verdicts, and the first error, are the same
    Row("vickrey_payment_form_check", auctions.vickrey_payment_form_check, _payment_form_walk,
        _payment_form_sweep, 56, lambda st: st.tuples(_mechanism_cases(st), st.integers(0, 3))
        .map(lambda t: _payment_form_arguments(*t[0])[t[1]]), errors=(TypeError, ValueError)),
    Row("reduced_fee_table", _fee_closure_verdict, _fee_definition_verdict, _mechanism_sweep, 14,
        _mechanism_cases),
    Row("serialize_value", encoding.serialize_value, lambda v: _dumped(paper.value_to_obj(v)),
        lambda: {"writer atoms, their pairs and their sets": [(v,) for v in (
            WRITER_ATOMS + [pair(a, b) for a in WRITER_ATOMS for b in WRITER_ATOMS]
            + list(all_subsets(fset(WRITER_ATOMS)).payload))]}, 1134,
        lambda st: _one(writer_values(st) | deep_values(st))),
    # the text of a partition's set of blocks from its block list: a block
    # list out of canonical order gives other text than its set
    Row("serialize_elements", encoding.serialize_elements,
        lambda blocks: _dumped(paper.value_to_obj(fset(blocks))), _partition_line_sweep, 279,
        lambda st: st.tuples(_arrangements(st, MIXED, 6).map(_canonical_partitions),
                             st.integers(0, 202)).map(lambda t: (t[0][t[1] % len(t[0])],))),
    Row("serialize_outcome", auctions.serialize_outcome,
        lambda out: _dumped({"allocation": paper.value_to_obj(out.allocation),
                             "payments": paper.value_to_obj(out.payments),
                             "welfare": paper.value_to_obj(num(out.welfare))}),
        _outcome_sweep, 13, lambda st: _one(small_instances(st).map(auctions.clear_vickrey))),
)
ROW = {row.name: row for row in ROWS}


def check(name: str) -> None:
    """Fail at the first argument tuple of a row's sweep on which the fast
    path and its oracle disagree."""
    row = ROW[name]
    for label, cases in row.sweep().items():
        for case in cases:
            if not row.agrees(case):
                raise AssertionError(f"{name} disagrees with its oracle on {label}: {case!r}")


def checker(name: str) -> Callable[[], None]:
    """check(name) as a test function, for a test module to name."""
    return lambda: check(name)
