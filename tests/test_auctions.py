import json
import random
from fractions import Fraction

import pytest

from finrel.errors import CapExceeded, ParseError, ValidationError
from finrel.values import EMPTY, UNDEFINED, V, fset, num, pair, sym
from finrel.relations import (
    domain_of,
    eval_rel,
    graph,
    paste,
    range_of,
    relation,
    right_unique,
    single_outside,
    to_function,
)
from finrel.quotients import compatible, identity_on, kernel
from finrel.auctions import (
    Outcome,
    bid_vectors,
    clear_vickrey,
    dominant_strategy_check,
    dominant_strategy_counterexample,
    first_price_single_good,
    functional_family,
    make_instance,
    max_rival_bid,
    parse_instance,
    possible_allocations,
    random_instance,
    reduced_bid_map,
    reduced_fee_table,
    reduced_price_map,
    second_price_single_good,
    serialize_outcome,
    vickrey_payment_form_check,
    won_value,
)
from finrel.encoding import value_to_obj
from finrel.enumeration import all_subsets
from finrel.laws import _oracle_best_value

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


def test_second_price_dominant():
    for i in (1, 2):
        m = second_price_single_good(B12, GRID, V(i))
        assert dominant_strategy_check(m.bidder, m.alloc, m.price)


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
    assert dominant_strategy_check(V(1), alloc, price)


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


def test_reduced_price_is_right_unique():
    m = second_price_single_good(B12, V([0, 1]), V(2))
    rp = reduced_price_map(m.price, m.bidder, m.alloc)
    assert right_unique(rp)


def test_reduced_price_of_empty_price_relation():
    m = second_price_single_good(B12, V([0, 1]), V(2))
    assert reduced_price_map(relation(), m.bidder, m.alloc) == relation()


def test_compatibility_chain_hypotheses():
    m = second_price_single_good(B12, GRID, V(1))
    assert functional_family(domain_of(m.alloc))
    assert right_unique(m.price)
    assert dominant_strategy_check(m.bidder, m.alloc, m.price)
    k = kernel(reduced_bid_map(m.bidder, m.alloc))
    assert compatible(m.price, k, identity_on(range_of(m.price)))


def test_extracted_fee_satisfies_payment_form():
    m = second_price_single_good(B12, GRID, V(2))
    fee = reduced_fee_table(m.price, m.bidder, m.alloc)
    assert vickrey_payment_form_check(
        m.bidder, m.alloc, m.price, max_rival_bid, fee, num(0)
    )


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


def test_possible_allocation_counts():
    assert len(possible_allocations(V(["g1", "g2"]), B12)) == 4
    assert len(possible_allocations(V(["g1"]), V([1, 2, 3]))) == 3
    assert len(possible_allocations(V(["g1", "g2"]), V([1]))) == 1


def test_possible_allocations_are_valid():
    from finrel.enumeration import is_partition_of
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


@pytest.mark.parametrize("n_goods, n_bidders", [(3, 4), (2, 5), (4, 2)])
@pytest.mark.parametrize("value", [0, 5])
def test_tie_heavy_clearing_matches_oracle(n_goods, n_bidders, value):
    # every nonempty bundle is worth the same to everyone, so nearly every
    # allocation ties; the exclusion optimum must still be the oracle's
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(k) for k in range(1, n_bidders + 1))
    bundles = [b for b in all_subsets(goods).payload if b.payload]
    triples = [(n, b, num(value)) for n in bidders.payload for b in bundles]
    inst = make_instance(goods, bidders, triples)
    out = clear_vickrey(inst)
    everyone = list(bidders.payload)
    assert out.welfare == _oracle_best_value(inst, everyone)
    for entry in out.payments.payload:
        n = entry.first
        own = sum(
            (inst.value(n, p.first) for p in out.allocation.payload if p.second == n),
            Fraction(0),
        )
        excluded = _oracle_best_value(inst, [m for m in everyone if m != n])
        assert entry.second == num(excluded - (out.welfare - own))
    assert domain_of(out.payments) == bidders


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


def _reference_clear(inst):
    """Clearing read off the paper's enumeration: the canonical least of
    the welfare-optimal allocations in `possible_allocations`, and each
    bidder's excluded optimum taken from the allocations that leave them
    out (0 when none does)."""
    scored = [
        (sum((inst.value(p.second, p.first) for p in a.payload), Fraction(0)), a)
        for a in possible_allocations(inst.goods, inst.bidders)
    ]
    best = max(w for w, _ in scored)
    chosen = min(a for w, a in scored if w == best)
    payments = []
    for n in inst.bidders.payload:
        excluded = max(
            (w for w, a in scored if all(p.second != n for p in a.payload)),
            default=Fraction(0),
        )
        payments.append(pair(n, num(excluded - (best - won_value(inst, chosen, n)))))
    return Outcome(chosen, fset(payments), best)


def _shaped_instance(n_goods, n_bidders, shape, rng):
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
            value = {"zero": 0, "equal": 3}[shape]
            triples.extend((n, b, num(value)) for b in bundles)
    return make_instance(goods, bidders, triples)


def _assert_matches_reference(inst):
    out, ref = clear_vickrey(inst), _reference_clear(inst)
    assert out.welfare == ref.welfare
    assert out.allocation == ref.allocation
    assert out.payments == ref.payments


@pytest.mark.parametrize("shape", ["monotone", "zero", "equal", "sparse"])
def test_subset_recursion_equals_enumeration_on_every_small_size(shape):
    # the tie-heavy shapes pin the canonical tie-break, the single-bidder
    # sizes pin the excluded optimum of a lone bidder
    rng = random.Random(f"dp:{shape}")
    for n_goods in range(1, 5):
        for n_bidders in range(1, 5):
            _assert_matches_reference(_shaped_instance(n_goods, n_bidders, shape, rng))


@pytest.mark.parametrize("shape", ["monotone", "equal", "sparse"])
def test_subset_recursion_equals_enumeration_at_five_by_five(shape):
    _assert_matches_reference(_shaped_instance(5, 5, shape, random.Random(f"dp5:{shape}")))


def test_subset_recursion_equals_enumeration_without_free_disposal():
    inst = make_instance(
        V(["g1", "g2"]), B12, [(V(1), V(["g1"]), V(10)), (V(2), V(["g2"]), V(10))]
    )
    _assert_matches_reference(inst)


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


def test_outcome_writer_matches_json_dumps_of_the_object_form():
    def reference(out):
        obj = {
            "allocation": value_to_obj(out.allocation),
            "payments": value_to_obj(out.payments),
            "welfare": value_to_obj(num(out.welfare)),
        }
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)

    instances = [random_instance(random.Random(f"outcome:{seed}")) for seed in range(12)]
    non_ascii = make_instance(
        V(["gü", "g1"]),
        B12,
        [(V(1), V(["gü"]), num(Fraction(7, 2))), (V(2), V(["gü", "g1"]), V(5))],
    )
    for inst in instances + [non_ascii]:
        out = clear_vickrey(inst)
        assert serialize_outcome(out) == reference(out)
    assert '"gü"' in serialize_outcome(clear_vickrey(non_ascii))


def test_instance_file_errors():
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ValidationError):
        parse_instance('{"goods": ["set", "g1"]}')
    with pytest.raises(ValidationError):
        parse_instance('{"goods": ["set","g1"], "bidders": ["set",1,2], "valuations": 3}')


def _pasted_bid_vectors(bidders, grid):
    """The bid vectors built one bidder at a time by pasting, as the paper
    extends a partial function: the independent reference for the product."""
    out = [fset()]
    for b in bidders.payload:
        out = [paste(vec, relation([(b, g)])) for vec in out for g in grid.payload]
    return out


def test_bid_vectors_equal_the_pasted_construction():
    pool = V([-1, Fraction(-1, 2), 0, Fraction(1, 2), 3])
    grids = [g for g in all_subsets(pool).payload if g.payload]
    assert len(grids) == 31
    for n in range(4):
        bidders = V(list(range(1, n + 1)))
        for grid in grids:
            assert bid_vectors(bidders, grid) == _pasted_bid_vectors(bidders, grid), (n, grid)


def _payment_form_verdict(m, fee):
    try:
        return vickrey_payment_form_check(m.bidder, m.alloc, m.price, max_rival_bid, fee, num(0))
    except ValueError:
        return "undefined fee"


def test_fee_relation_through_to_function_matches_fee_closure():
    # the fee closure against its own graph over the reduced bids, read back
    # through to_function: the two table forms must give one verdict
    verdicts = set()
    for build in (second_price_single_good, first_price_single_good):
        for bidders, grid in ((B12, GRID), (B12, V([0, 1])), (V([1, 2, 3]), V([0, Fraction(1, 2), 2]))):
            for i in bidders.payload:
                m = build(bidders, grid, i)
                fee = reduced_fee_table(m.price, m.bidder, m.alloc)
                reduced = fset(single_outside(b, i) for b in domain_of(m.alloc).payload)
                table = to_function(graph(reduced, fee))
                verdict = _payment_form_verdict(m, fee)
                assert _payment_form_verdict(m, table) == verdict, (build, bidders, grid, i)
                verdicts.add(verdict)
    assert verdicts == {True, False, "undefined fee"}
