import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from finrel.errors import CapExceeded, ParseError, ValidationError
from finrel.values import EMPTY, UNDEFINED, V, as_fraction, fset, num, pair, rat, sym
from finrel.enumeration import all_subsets
from finrel.relations import domain_of, eval_rel, relation, right_unique, single_outside
from finrel.quotients import kernel
from finrel.auctions import (
    CombinatorialInstance,
    _common_scale,
    clear_vickrey,
    dominant_strategy_counterexample,
    first_price_single_good,
    make_instance,
    max_rival_bid,
    parse_instance,
    reduced_bid_map,
    reduced_fee_table,
    reduced_price_map,
    second_price_single_good,
    serialize_outcome,
    vickrey_payment_form_check,
)
from finrel.laws import random_instance
from finrel.paper import is_partition_of, possible_allocations, won_value

import oracles

B12 = V([1, 2])
GRID = V([0, 1, 2])


def test_second_price_rule():
    m = second_price_single_good(B12, GRID, V(1))
    b = relation([(1, 2), (2, 1)])
    assert eval_rel(m.alloc, b) == num(1)
    assert eval_rel(m.price, b) == num(1)
    b = relation([(1, 0), (2, 2)])
    assert eval_rel(m.alloc, b) == num(0)
    assert eval_rel(m.price, b) == num(0)


def test_second_price_tie_breaks_to_lower_bidder():
    m = second_price_single_good(B12, GRID, V(1))
    tie = relation([(1, 2), (2, 2)])
    assert eval_rel(m.alloc, tie) == num(1)
    m2 = second_price_single_good(B12, GRID, V(2))
    assert eval_rel(m2.alloc, tie) == num(0)


def test_mechanism_domains_cover_grid():
    m = second_price_single_good(B12, GRID, V(1))
    assert len(domain_of(m.alloc).elements) == 9
    assert domain_of(m.alloc) == domain_of(m.price)
    assert right_unique(m.alloc) and right_unique(m.price)


def test_mechanism_argument_checks():
    with pytest.raises(ValueError):
        second_price_single_good(V([1]), GRID, V(1))
    with pytest.raises(ValueError):
        second_price_single_good(B12, EMPTY, V(1))
    with pytest.raises(ValueError):
        second_price_single_good(B12, GRID, V(3))
    with pytest.raises(CapExceeded):
        second_price_single_good(V([1, 2, 3, 4]), GRID, V(1))
    with pytest.raises(CapExceeded):
        second_price_single_good(B12, V([0, 1, 2, 3, 4, 5]), V(1))


_B = relation([(1, 0), (2, 1)])
_TWO_VALUES_AT_B = relation([(_B, 0), (_B, 1)])

# each input guard with a call that trips it: (id, call, error type, message)
GUARDS = [
    ("non-numeric-grid-value", lambda: second_price_single_good(B12, V([0, "a"]), V(1)),
     ValidationError, "non-numeric grid value"),
    ("allocation-not-right-unique", lambda: reduced_bid_map(V(1), _TWO_VALUES_AT_B),
     ValueError, "allocation relation must be right-unique"),
    ("domain-member-not-a-bid-vector", lambda: reduced_bid_map(V(1), relation([(5, 0)])),
     ValueError, "domain member is not a bid vector"),
    ("price-not-right-unique",
     lambda: reduced_price_map(_TWO_VALUES_AT_B, V(1), relation([(_B, 0)])),
     ValueError, "price relation must be right-unique"),
    ("good-not-an-atom", lambda: make_instance(V([V(["g1"])]), B12, []),
     ValidationError, "good must be an atom"),
    ("bidder-not-an-atom", lambda: make_instance(V(["g1"]), V([pair(1, 2)]), []),
     ValidationError, "bidder must be an atom"),
    ("valuation-not-numeric", lambda: make_instance(V(["g1"]), B12, [(V(1), V(["g1"]), sym("x"))]),
     ValidationError, "valuation must be numeric"),
    ("no-bidders-for-the-goods",
     lambda: clear_vickrey(CombinatorialInstance(V(["g1"]), EMPTY, {})),
     ValueError, "no bidders to allocate the goods to"),
]


@pytest.mark.parametrize(
    "call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_each_input_guard_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_first_price_not_dominant_with_replay():
    m = first_price_single_good(B12, GRID, V(1))
    cx = dominant_strategy_counterexample(m.bidder, m.alloc, m.price)
    assert cx is not None
    b, v = cx
    vf = v.payload
    truthful = relation([(p.first, v if p.first == m.bidder else p.second) for p in b.elements])
    u_now = vf * eval_rel(m.alloc, b).payload - eval_rel(m.price, b).payload
    u_truth = vf * eval_rel(m.alloc, truthful).payload - eval_rel(m.price, truthful).payload
    assert u_now > u_truth


def test_dominance_vacuous_on_single_point_domain():
    b = relation([(1, 1), (2, 1)])
    alloc = relation([(b, 1)])
    price = relation([(b, 1)])
    assert dominant_strategy_counterexample(V(1), alloc, price) is None


def test_payment_form_with_constant_fee():
    m = second_price_single_good(B12, GRID, V(2))
    assert vickrey_payment_form_check(
        m.bidder, m.alloc, m.price, max_rival_bid, lambda x: num(0), num(0)
    )
    assert not vickrey_payment_form_check(
        m.bidder, m.alloc, m.price, max_rival_bid, lambda x: num(1), num(0)
    )


def test_payment_form_vacuous_on_empty_domain():
    assert vickrey_payment_form_check(
        V(1), relation(), relation(), max_rival_bid, lambda x: num(0), num(0)
    )


def test_payment_form_rejects_undefined_fee():
    m = second_price_single_good(B12, GRID, V(2))
    with pytest.raises(ValueError):
        vickrey_payment_form_check(
            m.bidder, m.alloc, m.price, max_rival_bid, lambda x: UNDEFINED, num(0)
        )


def test_reduced_bid_triple_shape():
    b = relation([(1, 5), (2, 7)])
    alloc = relation([(b, 0)])
    rb = reduced_bid_map(V(1), alloc)
    expected = relation([(b, pair(V([1, 2]), pair(relation([(2, 7)]), num(0))))])
    assert rb == expected
    assert right_unique(rb)
    assert reduced_bid_map(V(1), relation()) == relation()


def test_reduced_bid_kernel_identifies_own_bid_changes():
    # bids differing only at the distinguished bidder, with equal
    # allocation, map to the same triple
    m = second_price_single_good(B12, GRID, V(2))
    rb = reduced_bid_map(m.bidder, m.alloc)
    b_lo = relation([(1, 2), (2, 0)])
    b_hi = relation([(1, 2), (2, 1)])
    assert eval_rel(m.alloc, b_lo) == eval_rel(m.alloc, b_hi) == num(0)
    assert eval_rel(rb, b_lo) == eval_rel(rb, b_hi)
    k = kernel(rb)
    assert pair(b_lo, b_hi) in k.elements


def test_reduced_price_of_empty_price_relation():
    m = second_price_single_good(B12, V([0, 1]), V(2))
    assert reduced_price_map(relation(), m.bidder, m.alloc) == relation()


def test_extracted_fee_undefined_for_tie_favored_bidder():
    # the least bidder wins every tie, so when all rivals sit at the grid
    # minimum there is no losing bid for it: the fee extraction has no
    # class to read the losing payment from
    m = second_price_single_good(B12, V([0, 1]), V(1))
    fee = reduced_fee_table(m.price, m.bidder, m.alloc)
    assert fee(relation([(2, 0)])) == UNDEFINED
    assert fee(relation([(2, 1)])) == num(0)
    with pytest.raises(ValueError):
        vickrey_payment_form_check(
            m.bidder, m.alloc, m.price, max_rival_bid, fee, num(0)
        )


B123, GRID5 = V([1, 2, 3]), V([-1, rat(-1, 2), 0, rat(1, 2), 3])


def test_the_vectors_of_a_mechanism_share_its_bid_pairs():
    m = second_price_single_good(B123, GRID5, V(3))
    vectors = domain_of(m.alloc).elements
    assert len(vectors) == 125
    assert len({id(p) for b in vectors for p in b.elements}) == 15
    # a loser's (b, 0) is one object in both tables
    lost = [p for p in m.alloc.elements if p.second == num(0)]
    assert lost and all(any(q is p for q in m.price.elements) for p in lost)
    assert m == oracles.ROW["second_price_single_good"].oracle(B123, GRID5, V(3))


def test_reduced_bid_map_shares_one_triple_per_rival_pairs_and_flag():
    m = second_price_single_good(B123, GRID5, V(2))
    rb = reduced_bid_map(m.bidder, m.alloc)
    triples = {}
    for p in rb.elements:
        b, triple = p.first, p.second
        key = (single_outside(b, m.bidder), eval_rel(m.alloc, b))
        assert triples.setdefault(key, triple) is triple
    assert len(triples) == len({id(t) for t in triples.values()}) < 125
    assert rb == oracles._literal_reduced_bid_map(m.bidder, m.alloc)


def test_payment_form_looks_up_each_reduced_bid_once_in_first_met_order():
    m = second_price_single_good(B123, GRID5, V(3))
    fee = reduced_fee_table(m.price, m.bidder, m.alloc)
    asked = {"weight": [], "fee": []}

    def counted(name, table):
        def lookup(reduced):
            asked[name].append(reduced)
            return table(reduced)
        return lookup

    assert vickrey_payment_form_check(m.bidder, m.alloc, m.price, counted("weight", max_rival_bid),
                                      counted("fee", fee), num(0))
    first_met = list(dict.fromkeys(single_outside(b, m.bidder) for b in domain_of(m.alloc)))
    assert len(first_met) == 25
    assert asked["weight"] == asked["fee"] == first_met


def test_possible_allocation_counts():
    assert len(possible_allocations(V(["g1", "g2"]), B12)) == 4
    assert len(possible_allocations(V(["g1"]), V([1, 2, 3]))) == 3
    assert len(possible_allocations(V(["g1", "g2"]), V([1]))) == 1


def test_possible_allocations_at_the_edges():
    # the empty set has one partition and one injection of it: no goods
    # have the empty allocation, and goods without bidders have none
    assert possible_allocations(EMPTY, B12) == [EMPTY]
    assert possible_allocations(EMPTY, EMPTY) == [EMPTY]
    assert possible_allocations(V(["g1"]), EMPTY) == []


def test_possible_allocations_are_valid():
    from finrel.relations import converse

    goods = V(["g1", "g2", "g3"])
    seen = set()
    for alloc in possible_allocations(goods, B12):
        assert right_unique(alloc) and right_unique(converse(alloc))
        assert is_partition_of(domain_of(alloc), goods)
        assert alloc not in seen
        seen.add(alloc)


WORKED = [
    (1, ["g1", "g2"], 10),
    (1, ["g1"], 6),
    (1, ["g2"], 6),
    (2, ["g1", "g2"], 7),
    (2, ["g1"], 5),
    (2, ["g2"], 5),
]


def worked_instance():
    return make_instance(
        V(["g1", "g2"]), B12, [(V(b), V(s), V(x)) for b, s, x in WORKED]
    )


def test_clear_vickrey_worked_example():
    inst = worked_instance()
    out = clear_vickrey(inst)
    assert out.welfare == Fraction(11)
    assert out.payments == relation([(1, 2), (2, 4)])
    # canonical tie-break between the two welfare-11 splits
    assert out.allocation == relation([(V(["g1"]), 1), (V(["g2"]), 2)])
    assert won_value(inst, out.allocation, V(1)) == Fraction(6)
    assert won_value(inst, out.allocation, V(2)) == Fraction(5)


def test_clear_vickrey_single_bidder_pays_zero():
    inst = make_instance(V(["g1", "g2"]), V([1]), [(V(1), V(["g1", "g2"]), V(9))])
    out = clear_vickrey(inst)
    assert out.welfare == Fraction(9)
    assert out.payments == relation([(1, 0)])
    assert out.allocation == relation([(V(["g1", "g2"]), 1)])


def test_clear_vickrey_all_zero_valuations():
    inst = make_instance(V(["g1"]), B12, [])
    out = clear_vickrey(inst)
    assert out.welfare == Fraction(0)
    assert out.payments == relation([(1, 0), (2, 0)])


def test_clear_vickrey_losers_pay_zero():
    inst = make_instance(
        V(["g1"]), V([1, 2, 3]), [(V(n), V(["g1"]), V(x)) for n, x in ((1, 9), (2, 4), (3, 1))]
    )
    out = clear_vickrey(inst)
    assert out.allocation == relation([(V(["g1"]), 1)])
    assert out.payments == relation([(1, 4), (2, 0), (3, 0)])


def test_clearing_ignores_valuations_outside_the_instance():
    # a table built directly may hold keys inst.value is never asked for:
    # another bidder, a bundle with another good, a bundle that is no set
    inst = make_instance(V(["g1", "g2"]), B12, [(1, V(["g1"]), 4), (2, V(["g1", "g2"]), 5)])
    table = dict(inst.valuations)
    for key in ((V(3), V(["g1"])), (V(1), V(["g1", "g3"])), (V(2), V(["g3"])), (V(1), V(5))):
        table[key] = Fraction(9)
    assert clear_vickrey(CombinatorialInstance(inst.goods, inst.bidders, table)) == clear_vickrey(inst)


def test_exclusion_formula_can_go_negative_without_free_disposal():
    # non-monotone valuations break non-negativity under this allocation
    # space: each bidder wants one good and values the whole lot at zero,
    # so excluding a winner strands the other's good.  This is why the
    # random generator closes valuations upward.
    inst = make_instance(
        V(["g1", "g2"]),
        B12,
        [(V(1), V(["g1"]), V(10)), (V(2), V(["g2"]), V(10))],
    )
    out = clear_vickrey(inst)
    assert out.welfare == Fraction(20)
    assert out.payments == relation([(1, -10), (2, -10)])


def test_clearing_sweep_has_a_case_on_each_side_of_the_scale_bound():
    parts = oracles._clearing_sweep()
    [(shared,)] = parts["3x3 monotone over one shared 1,000-digit denominator"]
    [(distinct,)] = parts["3x3 monotone over 21 distinct 1,000-digit denominators"]
    assert _common_scale(shared.valuations.values())[0] > 1
    assert _common_scale(distinct.valuations.values())[0] == 1


def test_dominance_sweep_has_a_case_on_each_side_of_the_scale_bound():
    # a grid mechanism's wins are 0 and 1 and its payments are grid values
    # or 0, so the grid sets the common denominator of the comparison
    grid = [as_fraction(x) for x in oracles.HUGE_DENOMINATOR_GRID]
    assert _common_scale(grid)[0] == 1
    assert _common_scale(grid[:-1])[0] > 1


@pytest.mark.parametrize("n_goods, n_bidders, cases", [(2, 2, 39_366), (1, 3, 243)])
def test_truthful_reporting_is_a_dominant_strategy(n_goods, n_bidders, cases):
    # every profile of nonempty-bundle values in {0, 1, 2}, and for each
    # bidder every misreport from that family: the bidder's true value for
    # what it wins, less its payment, is never higher under the misreport
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = [num(n) for n in range(1, n_bidders + 1)]
    bundles = [b for b in all_subsets(goods).payload if b.payload]
    reports = list(itertools.product(range(3), repeat=len(bundles)))

    @functools.cache
    def clear(profile):
        triples = [(n, b, num(x)) for n, row in zip(bidders, profile) for b, x in zip(bundles, row)]
        out = clear_vickrey(make_instance(goods, fset(bidders), triples))
        won = {p.second: bundles.index(p.first) for p in out.allocation.payload}
        return won, {p.first: as_fraction(p.second) for p in out.payments.payload}

    def utility(truth, n, profile):
        won, paid = clear(profile)
        return (truth[won[n]] if n in won else 0) - paid[n]

    tried = 0
    for profile in itertools.product(reports, repeat=n_bidders):
        for k, n in enumerate(bidders):
            truthful = utility(profile[k], n, profile)
            for lie in reports:
                tried += 1
                lied = profile[:k] + (lie,) + profile[k + 1:]
                assert utility(profile[k], n, lied) <= truthful, (
                    f"bidder {n!r} gains by reporting {lie} in profile {profile}"
                    f" (values of {bundles} per bidder)")
    assert tried == cases


def test_random_instances_deterministic_and_monotone():
    a = random_instance(random.Random("seed:x"))
    b = random_instance(random.Random("seed:x"))
    assert a.goods == b.goods and a.bidders == b.bidders and a.valuations == b.valuations
    from finrel.values import is_subset

    inst = random_instance(random.Random(7))
    bundles = sorted({k[1] for k in inst.valuations})
    for n in inst.bidders.elements:
        for s in bundles:
            for t in bundles:
                if is_subset(s, t):
                    assert inst.value(n, s) <= inst.value(n, t)


def test_make_instance_validation():
    goods, bidders = V(["g1"]), B12
    with pytest.raises(ValidationError):
        make_instance(goods, bidders, [(V(1), V(["g1"]), V(-1))])
    with pytest.raises(ValidationError):
        make_instance(goods, bidders, [(V(3), V(["g1"]), V(1))])
    with pytest.raises(ValidationError):
        make_instance(goods, bidders, [(V(1), V(["gX"]), V(1))])
    with pytest.raises(ValidationError):
        make_instance(goods, bidders, [(V(1), EMPTY, V(1))])
    with pytest.raises(ValidationError):
        make_instance(
            goods, bidders, [(V(1), V(["g1"]), V(1)), (V(1), V(["g1"]), V(2))]
        )
    with pytest.raises(ValidationError):
        make_instance(EMPTY, bidders, [])
    # a generator of fresh Values, each freed once read: the last row's
    # amount is no number, though its bidder and bundle are valid
    three = V(["g1", "g2", "g3"])
    bundles = [s for s in all_subsets(three).payload if s.payload]
    rows = (
        (V(n), b, sym("x") if (n, k) == (2, 6) else num(Fraction(2 * k + 1, 3)))
        for n in (1, 2)
        for k, b in enumerate(bundles)
    )
    with pytest.raises(ValidationError, match="valuation must be numeric"):
        make_instance(three, bidders, rows)


def test_caps_enforced():
    goods = fset(sym(f"g{k}") for k in range(7))
    inst = make_instance(goods, B12, [])
    with pytest.raises(CapExceeded):
        clear_vickrey(inst)


def test_instance_file_roundtrip():
    text = """
    {"goods": ["set", "g1", "g2"], "bidders": ["set", 1, 2],
     "valuations": [[1, ["set", "g1", "g2"], 10], [1, ["set", "g1"], 6],
                    [1, ["set", "g2"], 6], [2, ["set", "g1", "g2"], 7],
                    [2, ["set", "g1"], 5], [2, ["set", "g2"], 5]]}
    """
    inst = parse_instance(text)
    assert inst.goods == V(["g1", "g2"])
    assert inst.value(V(1), V(["g1"])) == Fraction(6)
    out = clear_vickrey(inst)
    assert serialize_outcome(out) == (
        '{"allocation":["set",["pair",["set","g1"],1],["pair",["set","g2"],2]],'
        '"payments":["set",["pair",1,2],["pair",2,4]],"welfare":11}'
    )


def test_outcome_writer_writes_non_ascii_goods_unescaped():
    # the serialize_outcome row compares the writer with json.dumps; here a
    # non-ASCII good is written as itself, not as an escape
    [(out,)] = oracles.ROW["serialize_outcome"].sweep()["non-ASCII good"]
    assert '"gü"' in serialize_outcome(out)


def test_instance_file_errors():
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ValidationError):
        parse_instance('{"goods": ["set", "g1"]}')
    with pytest.raises(ValidationError):
        parse_instance('{"goods": ["set","g1"], "bidders": ["set",1,2], "valuations": 3}')


def test_fee_sweep_reaches_every_payment_form_verdict():
    # the reduced_fee_table row compares the fee closure with the fee read
    # off its definition; here its sweep reaches every verdict
    row = oracles.ROW["reduced_fee_table"]
    [cases] = row.sweep().values()
    assert {row.fast(*case) for case in cases} == {True, False, "undefined fee"}
