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
from itertools import permutations, product
from typing import Callable, NamedTuple

from finrel import auctions, encoding, enumeration, laws, quotients, relations, values
from finrel.auctions import Outcome, make_instance, won_value
from finrel.enumeration import all_partitions_list, all_subsets, is_partition_of
from finrel.errors import CAP_DEPTH
from finrel.quotients import all_equivalences, all_partial_equivalences
from finrel.relations import converse, image, paste, relation, right_unique
from finrel.values import (
    EMPTY, UNDEFINED, V, canonicalize, cartesian_product, fset, member, num, pair, rat, sym, union,
)


class Row(NamedTuple):
    name: str
    fast: Callable
    oracle: Callable  # takes the fast path's arguments
    sweep: Callable[[], dict]  # universe name -> list of argument tuples
    count: int  # argument tuples in the whole sweep
    strategy: Callable  # hypothesis.strategies -> strategy of argument tuples
    same: Callable = operator.eq  # (fast result, oracle result) -> agree


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
# every atom the text encoding treats apart, with the symbols whose
# escaping differs between JSON encoders
WRITER_ATOMS = [num(0), num(-7), num(10**20), rat(-1, 2), rat(22, 7),
                sym("a"), sym("é"), sym("\x7f"), sym("\u2028"), EMPTY]


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


@functools.cache
def _classes(E):
    """The classes of E, the images of its points: Range (projector E)."""
    return {image(E, fset([p.first])) for p in E.payload}


def _literal_quotient(R, P, Q):
    return fset(
        pair(a, b) for a in _classes(P) for b in _classes(Q)
        if any(member(p, R) for p in cartesian_product(a, b).payload)
    )


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


def _union_insert(new_el, blocks: list, target) -> list:
    new_el = canonicalize(new_el)
    target = canonicalize(target)
    for idx, b in enumerate(blocks):
        if b == target:
            return [union(target, fset([new_el]))] + blocks[:idx] + blocks[idx + 1 :]
    raise ValueError(f"target block not present: {target!r}")


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


def _lists_each_partition_once(got: list, want):
    listed = [fset(blocks) for blocks in got]
    return len(listed) == len(want.payload) and fset(listed) == want


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


def _reference_clear(inst):
    """Clearing read off the paper's enumeration: the canonical least of
    the welfare-optimal allocations in `possible_allocations`, and each
    bidder's excluded optimum taken from the allocations that leave them
    out (0 when none does)."""
    scored = [
        (sum((inst.value(p.second, p.first) for p in a.payload), Fraction(0)), a)
        for a in auctions.possible_allocations(inst.goods, inst.bidders)
    ]
    best = max(w for w, _ in scored)
    chosen = min(a for w, a in scored if w == best)
    served = [(w, {p.second for p in a.payload}) for w, a in scored]
    payments = []
    for n in inst.bidders.payload:
        excluded = max((w for w, used in served if n not in used), default=Fraction(0))
        payments.append(pair(n, num(excluded - (best - won_value(inst, chosen, n)))))
    return Outcome(chosen, fset(payments), best)


def _clears_as_both(inst):
    return _reference_clear(inst), inst, laws._oracle_optima(inst)


def _same_clearing(out, want):
    """out is the reference outcome, and each payment is the excluded
    optimum less what the others get under out's allocation."""
    reference, inst, (welfare, excluded) = want
    paid = {e.first: values.as_fraction(e.second) for e in out.payments.payload}
    return out == reference and out.welfare == welfare and paid == {
        n: x - (welfare - won_value(inst, out.allocation, n)) for n, x in excluded.items()
    }


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


def _fee_relation_verdict(m):
    """The verdict with the fee closure's graph over the reduced bids, read
    back through to_function."""
    fee = auctions.reduced_fee_table(m.price, m.bidder, m.alloc)
    reduced = fset(relations.single_outside(p.first, m.bidder) for p in m.alloc.payload)
    return _payment_form_verdict(m, relations.to_function(relations.graph(reduced, fee)))


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


def _shaped_instance(n_goods, n_bidders, shape, rng=None):
    """Valuations "monotone", "sparse", or one number for every bundle."""
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(k) for k in range(1, n_bidders + 1))
    bundles = [b for b in all_subsets(goods).payload if b.payload]
    triples = []
    for n in bidders.payload:
        if shape == "monotone":
            raw = {b: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for b in bundles}
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
    parts["no free disposal"] = [
        (make_instance(V(["g1", "g2"]), V([1, 2]), [(1, V(["g1"]), 10), (2, V(["g2"]), 10)]),)
    ]
    # every nonempty bundle worth the same to everyone: nearly every allocation ties
    for value in (0, 5):
        for g, b in ((3, 4), (2, 5), (4, 2)):
            parts[f"{g}x{b} worth {value}"] = [(_shaped_instance(g, b, value),)]
    return parts


def _outcome_sweep():
    non_ascii = make_instance(
        V(["gü", "g1"]), V([1, 2]), [(1, V(["gü"]), rat(7, 2)), (2, V(["gü", "g1"]), 5)]
    )
    seeded = [auctions.random_instance(random.Random(f"outcome:{seed}")) for seed in range(12)]
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
    Row("compose", relations.compose, _literal_compose,
        lambda: {"3x2 then 2x3": list(product(RELATIONS_3X2, CONVERSES_3X2)),
                 "2x3 then 3x2": list(product(CONVERSES_3X2, RELATIONS_3X2))}, 8192,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS))),
    Row("eval_rel", relations.eval_rel, lambda R, x: values.the_elem(image(R, fset([x]))),
        _product("3x2 relations, points on and off them", RELATIONS_3X2, POINTS), 512,
        lambda st: st.tuples(_subsets(st, PAIRS), st.sampled_from(ATOMS + (num(7),)))),
    Row("trivial", relations.trivial, lambda s: values.is_subset(s, fset([values.the_elem(s)])),
        _product("sets of mixed values and the undefined marker",
                 all_subsets(fset(MIXED + [UNDEFINED])).payload), 512,
        lambda st: _one(_subsets(st, MIXED + [UNDEFINED]))),
    Row("right_unique", right_unique,
        lambda R: [ru(R) for ru in relations.RIGHT_UNIQUE_CHARACTERIZATIONS.values()],
        _product("3x2 relations", RELATIONS_3X2), 64,
        lambda st: _one(_subsets(st, PAIRS)), lambda got, want: set(want) == {got}),
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
    Row("compatible", quotients.compatible, _literal_compatible,
        _product("3x2 functions, partial equivalences on source and target",
                 FUNCTIONS_3X2, all_partial_equivalences(A3), all_partial_equivalences(B2)), 2025,
        lambda st: st.tuples(_subsets(st, PAIRS), _subsets(st, PAIRS), _subsets(st, PAIRS))),
    Row("is_equivalence", quotients.is_equivalence, lambda E, c: E in _equivalences(c),
        _product("relations on 3 points, carriers within them",
                 all_subsets(cartesian_product(A3, A3)).payload, all_subsets(A3).payload), 4096,
        lambda st: st.tuples(_subsets(st, ATOMS[:3]), st.integers(0, 9), _subsets(st, PAIRS))
        .map(lambda t: (_equivalence_or_reflexive(*t), t[0]))),
    # the points with equal f-values, pair by pair
    Row("kernel", quotients.kernel,
        lambda f: fset(pair(p.first, q.first) for p in f.payload for q in f.payload
                       if p.second == q.second),
        _product("3x2 functions", FUNCTIONS_3X2), 27,
        lambda st: _one(_digits(st, len(ATOMS) + 1).map(lambda ys: relation(
            (x, ATOMS[y - 1]) for x, y in zip(ATOMS, ys) if y)))),
    Row("injections_alg", enumeration.injections_alg, _paste_injections,
        lambda: {"0-3 mixed sources into 0-4 mixed targets": [
            (MIXED[:n], fset(MIXED[3 : 3 + m])) for n in range(4) for m in range(5)]}, 20,
        lambda st: st.tuples(_arrangements(st, MIXED, 3),
                             _subsets(st, MIXED[2:]))),
    Row("insert_into_member_list", enumeration.insert_into_member_list, _union_insert,
        lambda: {"partitions of 4 mixed values, each block, each value": [
            (new_el, blocks, target) for blocks in all_partitions_list(MIXED[:4])
            for target in blocks for new_el in MIXED]}, 296,
        lambda st: st.tuples(st.sampled_from(MIXED), _block_lists(st, MIXED).filter(bool),
                             st.integers(0, 3)).map(lambda t: t[:2] + (t[1][t[2] % len(t[1])],))),
    Row("coarser_partitions_with_list", enumeration.coarser_partitions_with_list,
        lambda new_el, blocks: [[fset([new_el])] + blocks] + [
            enumeration.insert_into_member_list(new_el, blocks, b) for b in blocks],
        lambda: {"partitions of up to 6 mixed values, extended by the next": [
            (MIXED[n], blocks) for n in range(7) for blocks in all_partitions_list(MIXED[:n])]},
        279, lambda st: st.tuples(st.sampled_from(MIXED), _block_lists(st, MIXED)).map(
            lambda t: (t[0], list(dict.fromkeys(fset(y for y in b if y != t[0]) for b in t[1]))))),
    Row("all_partitions_list", all_partitions_list,
        lambda xs: enumeration.all_partitions_oracle(fset(xs)),
        _product("up to 4 symbols", [[sym(s) for s in "abcd"[:n]] for n in range(5)]), 5,
        lambda st: _one(_arrangements(st, MIXED, 4)),
        _lists_each_partition_once),
    Row("all_partitions_oracle", enumeration.all_partitions_oracle,
        lambda A: fset(P for P in all_subsets(all_subsets(A)).payload if is_partition_of(P, A)),
        _product("up to 3 symbols", [fset(sym(s) for s in "abc"[:n]) for n in range(4)]), 4,
        lambda st: _one(_arrangements(st, MIXED, 2).map(fset))),
    Row("is_partition_of", is_partition_of, _counted_partition_of,
        _product("families of subsets of 3 symbols, carriers within them",
                 all_subsets(all_subsets(V(["a", "b", "c"]))).payload,
                 all_subsets(V(["a", "b", "c"])).payload), 2048,
        lambda st: st.tuples(_subsets(st, all_subsets(fset(MIXED[:4])).payload),
                             _subsets(st, MIXED[:4]))),
    Row("bid_vectors", auctions.bid_vectors, _pasted_bid_vectors,
        _product("0-3 bidders, nonempty grids of 5 rationals",
                 [V(list(range(1, n + 1))) for n in range(4)],
                 [g for g in all_subsets(V([-1, rat(-1, 2), 0, rat(1, 2), 3])).payload if g]), 124,
        lambda st: st.tuples(_subsets(st, (num(1), num(2), sym("a"))),
                             _subsets(st, (num(-1), rat(1, 2), num(0), num(3))).filter(bool))),
    Row("clear_vickrey", auctions.clear_vickrey, _clears_as_both, _clearing_sweep, 74,
        lambda st: _one(small_instances(st)), _same_clearing),
    Row("reduced_price_map", auctions.reduced_price_map, _quotient_reduced_price,
        _reduced_price_sweep, 42, lambda st: st.tuples(_mechanism_cases(st), st.integers(0, 2))
        .map(lambda t: _price_arguments(*t[0])[t[1]])),
    Row("reduced_fee_table", _fee_closure_verdict, _fee_relation_verdict, _mechanism_sweep, 14,
        _mechanism_cases),
    Row("serialize_value", encoding.serialize_value, lambda v: _dumped(encoding.value_to_obj(v)),
        lambda: {"writer atoms, their pairs and their sets": [(v,) for v in (
            WRITER_ATOMS + [pair(a, b) for a in WRITER_ATOMS for b in WRITER_ATOMS]
            + list(all_subsets(fset(WRITER_ATOMS)).payload))]}, 1134,
        lambda st: _one(writer_values(st) | deep_values(st))),
    Row("serialize_outcome", auctions.serialize_outcome,
        lambda out: _dumped({"allocation": encoding.value_to_obj(out.allocation),
                             "payments": encoding.value_to_obj(out.payments),
                             "welfare": encoding.value_to_obj(num(out.welfare))}),
        _outcome_sweep, 13, lambda st: _one(small_instances(st).map(auctions.clear_vickrey))),
)
ROW = {row.name: row for row in ROWS}


@functools.cache
def _first_disagreements(name: str) -> dict:
    row = ROW[name]
    return {
        part: next(
            (case for case in cases if not row.same(row.fast(*case), row.oracle(*case))), None
        )
        for part, cases in row.sweep().items()
    }


def check(name: str, part: str | None = None) -> None:
    """Fail at the first argument tuple of a row's sweep, or of one part of
    it, on which the fast path and its oracle disagree.  Each sweep runs
    once per process, however many tests check it."""
    verdicts = _first_disagreements(name)
    for label in verdicts if part is None else [part]:
        case = verdicts[label]
        if case is not None:
            raise AssertionError(f"{name} disagrees with its oracle on {label}: {case!r}")


def checker(name: str, part: str | None = None) -> Callable[[], None]:
    """check(name, part) as a test function, for a test module to name."""
    return lambda: check(name, part)
