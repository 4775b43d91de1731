"""Auction clearing on top of the relation toolkit.

Two models live here.  The single-good second-price mechanism is built as
a pair of relations over an explicit finite grid of bids, together with
the dominant-strategy check, the generalized payment-form check, and the
reduced price (converse(rb) ; price for the reduced-bid map rb) that
extracts the fee table.  The combinatorial model clears Vickrey auctions
over allocations that pair a partition of the goods with an injection
into the bidders, with payments by the standard exclusion formula.

All amounts are exact rationals; ties are always broken by the canonical
value order (lowest wins).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .encoding import _load_json, serialize_value, value_from_obj
from .errors import CapExceeded, ValidationError
from .values import (
    Value,
    as_fraction,
    canonicalize,
    fset,
    intersection,
    member,
    min_of,
    max_of,
    num,
    pair,
    sym,
    union,
    _require_set,
    _set_of_sorted,
)
from .relations import (
    arg_max_set,
    compose,
    converse,
    domain_of,
    eval_rel,
    is_relation,
    range_of,
    relation,
    right_unique,
    single_outside,
    single_paste,
)
from .enumeration import all_partitions_list, all_subsets, injections_alg

CAP_GOODS = 6
CAP_BIDDERS = 6
CAP_GRID = 5
CAP_SINGLE_BIDDERS = 3


@dataclass(frozen=True)
class SingleGoodMechanism:
    """A single-good auction over a finite bid grid.

    alloc maps every bid vector to 1 when the distinguished bidder wins
    the good and 0 otherwise; price maps every bid vector to what that
    bidder pays.  Both are right-unique relations over the full grid of
    bid vectors.
    """

    bidders: Value
    grid: Value
    bidder: Value
    alloc: Value
    price: Value


def _input_set(v: Value, what: str) -> Value:
    """v itself; a non-set from outside the program is invalid input."""
    if not v.is_set:
        raise ValidationError(f"{what} must be a finite set, got {v!r}")
    return v


def _check_single_good_args(bidders: Value, grid: Value, i: Value):
    _input_set(bidders, "bidders")
    _input_set(grid, "grid")
    if len(bidders.payload) < 2:
        raise ValidationError("need at least two bidders")
    if len(bidders.payload) > CAP_SINGLE_BIDDERS:
        raise CapExceeded(f"more than {CAP_SINGLE_BIDDERS} bidders in a grid mechanism")
    if not grid.payload:
        raise ValidationError("empty bid grid")
    if len(grid.payload) > CAP_GRID:
        raise CapExceeded(f"grid larger than {CAP_GRID}")
    for g in grid.payload:
        if not g.is_num:
            raise ValidationError(f"non-numeric grid value: {g!r}")
    if not member(i, bidders):
        raise ValidationError(f"bidder {i!r} not among {bidders!r}")


def bid_vectors(bidders: Value, grid: Value) -> list[Value]:
    """Every function from the bidders into the grid, canonically ordered
    coordinate-wise."""
    bs = bidders.payload
    return [relation(zip(bs, gs)) for gs in itertools.product(grid.payload, repeat=len(bs))]


def _single_good(bidders, grid, i, price_rule) -> SingleGoodMechanism:
    bidders = canonicalize(bidders)
    grid = canonicalize(grid)
    i = canonicalize(i)
    _check_single_good_args(bidders, grid, i)
    alloc_pairs = []
    price_pairs = []
    for b in bid_vectors(bidders, grid):
        wins = arg_max_set(b, bidders).payload[0] == i  # canonical tie-break
        alloc_pairs.append(pair(b, num(1 if wins else 0)))
        price_pairs.append(pair(b, price_rule(b) if wins else num(0)))
    return SingleGoodMechanism(bidders, grid, i, fset(alloc_pairs), fset(price_pairs))


def second_price_single_good(bidders, grid, i) -> SingleGoodMechanism:
    """Winner pays the highest rival bid."""
    return _single_good(bidders, grid, i, lambda b: max_rival_bid(single_outside(b, i)))


def first_price_single_good(bidders, grid, i) -> SingleGoodMechanism:
    """Winner pays their own bid; the classic non-truthful mutant."""
    return _single_good(bidders, grid, i, lambda b: eval_rel(b, i))


def _utility(valuation: Fraction, alloc: Value, price: Value, b: Value) -> Fraction:
    return valuation * as_fraction(eval_rel(alloc, b)) - as_fraction(eval_rel(price, b))


def dominant_strategy_counterexample(
    i: Value, alloc: Value, price: Value
) -> tuple[Value, Value] | None:
    """First (bid vector, valuation) where switching to the true valuation
    would hurt bidder i; None when bidding truthfully always weakly wins.

    The candidate valuations are every bid value of i that occurs in the
    common domain, which covers all deviations that stay inside it.
    """
    common = intersection(domain_of(alloc), domain_of(price))
    cmembers = frozenset(common.payload)
    bids_of_i = [b for b in common.payload if member(i, domain_of(b))]
    deviations = fset(eval_rel(b, i) for b in bids_of_i)
    for b in bids_of_i:
        for v in deviations.payload:
            truthful = single_paste(b, i, v)
            if truthful not in cmembers:
                continue
            vf = as_fraction(v)
            if _utility(vf, alloc, price, b) > _utility(vf, alloc, price, truthful):
                return b, v
    return None


def dominant_strategy_check(i: Value, alloc: Value, price: Value) -> bool:
    """True iff bidding one's true valuation is weakly dominant for i."""
    return dominant_strategy_counterexample(i, alloc, price) is None


def _table_lookup(table: Callable[[Value], Value], x: Value) -> Fraction:
    y = canonicalize(table(x))
    if not y.is_num:
        raise ValueError(f"table has no numeric value at {x!r} (got {y!r})")
    return as_fraction(y)


def vickrey_payment_form_check(i, alloc, price, weight, fee, base_alloc) -> bool:
    """Check that every payment splits as (alloc - base) * weight + fee.

    weight and fee are tables over reduced bids (the vector with bidder
    i's component removed), given as callables from a reduced bid to a
    number; a table held as a relation goes in through to_function.  Both
    must give a number on every reduced bid the common domain reaches,
    otherwise a ValueError is raised.
    """
    i = canonicalize(i)
    base = as_fraction(canonicalize(base_alloc))
    for b in intersection(domain_of(alloc), domain_of(price)).payload:
        reduced = single_outside(b, i)
        w = _table_lookup(weight, reduced)
        t = _table_lookup(fee, reduced)
        lhs = as_fraction(eval_rel(price, b))
        rhs = (as_fraction(eval_rel(alloc, b)) - base) * w + t
        if lhs != rhs:
            return False
    return True


def max_rival_bid(reduced: Value) -> Value:
    """Weight table of the second-price rule: highest bid in a reduced
    bid vector."""
    return max_of(range_of(reduced))


def functional_family(X: Value) -> bool:
    """True iff every member of X is a right-unique relation."""
    _require_set(X)
    return all(is_relation(b) and right_unique(b) for b in X.payload)


def reduced_bid_map(i, alloc: Value) -> Value:
    """Send each bid vector b to (domain of b, (b without i, winner flag)).

    Two bid vectors differing only in bidder i's component with the same
    allocation land on the same triple; the kernel of this map is exactly
    that equivalence.
    """
    i = canonicalize(i)
    if not right_unique(alloc):
        raise ValueError("allocation relation must be right-unique")
    out = []
    for b in domain_of(alloc).payload:
        if not is_relation(b):
            raise ValueError(f"domain member is not a bid vector: {b!r}")
        triple = pair(domain_of(b), pair(single_outside(b, i), eval_rel(alloc, b)))
        out.append(pair(b, triple))
    return fset(out)


def reduced_price_map(price: Value, i, alloc: Value) -> Value:
    """Price as a function of the reduced-bid triple: converse(rb) ; price for
    the reduced-bid map rb, which is the paper's quotient of price by the
    kernel of rb framed by two projectors (checked in tests/oracles.py)."""
    if not right_unique(price):
        raise ValueError("price relation must be right-unique")
    return compose(converse(reduced_bid_map(i, alloc)), price)


def reduced_fee_table(price: Value, i, alloc: Value) -> Callable[[Value], Value]:
    """Fee table extracted from the reduced price: the payment at the
    lowest allocation value, as a function of the reduced bid.

    Returns UNDEFINED on reduced bids whose class never reaches the
    lowest allocation (the payment-form check reports those as errors).
    """
    i = canonicalize(i)
    rp = reduced_price_map(price, i, alloc)
    lowest = min_of(range_of(alloc))

    def fee(reduced: Value) -> Value:
        key = pair(union(fset([i]), domain_of(reduced)), pair(reduced, lowest))
        return eval_rel(rp, key)

    return fee


# ---------------------------------------------------------------------------
# combinatorial Vickrey auctions


@dataclass(frozen=True)
class CombinatorialInstance:
    """Goods, bidders, and an exact-rational valuation per (bidder, bundle).

    Unlisted bundles are worth 0; the empty bundle is always worth 0.
    """

    goods: Value
    bidders: Value
    valuations: dict

    def value(self, bidder: Value, bundle: Value) -> Fraction:
        return self.valuations.get((bidder, bundle), Fraction(0))


@dataclass(frozen=True)
class Outcome:
    allocation: Value
    payments: Value
    welfare: Fraction


def make_instance(goods, bidders, triples: Iterable) -> CombinatorialInstance:
    """Validated instance from (bidder, bundle, value) triples."""
    goods = _input_set(canonicalize(goods), "goods")
    bidders = _input_set(canonicalize(bidders), "bidders")
    if not goods.payload:
        raise ValidationError("no goods")
    if not bidders.payload:
        raise ValidationError("no bidders")
    for g in goods.payload:
        if not (g.is_num or g.is_sym):
            raise ValidationError(f"good must be an atom: {g!r}")
    for n in bidders.payload:
        if not (n.is_num or n.is_sym):
            raise ValidationError(f"bidder must be an atom: {n!r}")
    table: dict = {}
    for bidder, bundle, value in triples:
        bidder = canonicalize(bidder)
        bundle = canonicalize(bundle)
        value = canonicalize(value)
        if not member(bidder, bidders):
            raise ValidationError(f"unknown bidder {bidder!r}")
        _input_set(bundle, "bundle")
        if not all(member(g, goods) for g in bundle.payload):
            raise ValidationError(f"bundle {bundle!r} is not within the goods")
        if not value.is_num:
            raise ValidationError(f"valuation must be numeric: {value!r}")
        f = as_fraction(value)
        if f < 0:
            raise ValidationError(f"negative valuation {value!r}")
        if not bundle.payload and f != 0:
            raise ValidationError("the empty bundle must be worth 0")
        if (bidder, bundle) in table:
            raise ValidationError(f"duplicate valuation for {bidder!r}, {bundle!r}")
        table[(bidder, bundle)] = f
    return CombinatorialInstance(goods, bidders, table)


def _check_caps(goods: Value, bidders: Value):
    if len(goods.payload) > CAP_GOODS:
        raise CapExceeded(f"more than {CAP_GOODS} goods")
    if len(bidders.payload) > CAP_BIDDERS:
        raise CapExceeded(f"more than {CAP_BIDDERS} bidders")


def possible_allocations(goods: Value, bidders: Value) -> list[Value]:
    """Every allocation: an injection from the blocks of some partition of
    the goods into the bidders.  Deterministic order, no duplicates.

    This is the paper's set-theoretic construction of the allocation
    space.  Clearing does not walk it (`clear_vickrey` computes over the
    same space by subset recursion); it stays as the oracle the clearing
    is tested against."""
    _require_set(goods, "goods")
    _require_set(bidders, "bidders")
    if not goods.payload:
        raise ValueError("no goods to allocate")
    _check_caps(goods, bidders)
    out = []
    for blocks in all_partitions_list(list(goods.payload)):
        out.extend(injections_alg(blocks, bidders))
    return out


def won_value(inst: CombinatorialInstance, alloc: Value, bidder: Value) -> Fraction:
    """The bidder's reported value for the bundles the allocation gives them."""
    return sum(
        (inst.value(bidder, p.first) for p in alloc.payload if p.second == bidder),
        Fraction(0),
    )


def clear_vickrey(inst: CombinatorialInstance) -> Outcome:
    """Welfare-maximizing allocation plus exclusion-formula payments.

    The allocation space is the one `possible_allocations` lists: every
    good is assigned, in nonempty blocks, to distinct bidders.  The
    chosen allocation maximizes total reported value, ties broken by
    canonical order.  Bidder n pays the best total the others could reach
    without n, minus what the others actually get under the chosen
    allocation; bidders assigned nothing pay by the same formula (which
    works out to zero).  "Without n" is the best welfare over the
    allocations into the other bidders, or 0 when there are none.

    Nothing is enumerated: goods and bidders are bit positions in
    canonical order, and `best(S, avail)` is the best welfare that gives
    all of the goods in S to distinct bidders in avail (None if none
    can).  The first bidder in avail takes some nonempty T within S or
    nothing, and the rest recurses (the winner-determination recurrence
    of Rothkopf, Pekec and Harstad, 1998).  One memo serves the optimum
    and every excluded optimum.
    """
    _check_caps(inst.goods, inst.bidders)
    goods, bidders = inst.goods.payload, inst.bidders.payload
    all_goods = (1 << len(goods)) - 1
    everyone = (1 << len(bidders)) - 1
    # bit k of a mask is goods[k], and the goods are in canonical order, so
    # each bundle's elements come out already sorted
    bundles = [
        _set_of_sorted(tuple([g for k, g in enumerate(goods) if mask >> k & 1]))
        for mask in range(all_goods + 1)
    ]
    val = [[inst.value(n, bundle) for bundle in bundles] for n in bidders]
    memo: dict = {}

    def best(S: int, avail: int):
        if not S:
            return Fraction(0)
        if not avail:
            return None
        key = (S, avail)
        if key in memo:
            return memo[key]
        first = avail & -avail
        rest = avail ^ first
        row = val[first.bit_length() - 1]
        top = best(S, rest)
        T = S
        while T:
            after = best(S ^ T, rest)
            if after is not None and (top is None or row[T] + after > top):
                top = row[T] + after
            T = (T - 1) & S
        memo[key] = top
        return top

    by_key = sorted(range(1, all_goods + 1), key=lambda mask: bundles[mask]._key)

    def first_optimal_block(left: int, free: int, target: Fraction):
        # the blocks of an allocation sort by their lowest good, and a pair
        # by its bundle before its bidder, so the canonically least optimal
        # allocation starts with the least (block, bidder) that still
        # reaches the optimum
        lowest = left & -left
        for T in by_key:
            if T & lowest and not T & ~left:
                for k in range(len(bidders)):
                    if free >> k & 1:
                        after = best(left ^ T, free ^ (1 << k))
                        if after is not None and val[k][T] + after == target:
                            return T, k, after
        raise AssertionError("no block reaches the optimum")

    welfare = best(all_goods, everyone)
    chosen = []
    left, free, target = all_goods, everyone, welfare
    while left:
        T, k, target = first_optimal_block(left, free, target)
        chosen.append(pair(bundles[T], bidders[k]))
        left, free = left ^ T, free ^ (1 << k)
    allocation = _set_of_sorted(tuple(chosen))
    payments = []
    for k, n in enumerate(bidders):
        excluded = best(all_goods, everyone ^ (1 << k))
        if excluded is None:  # n is the only bidder
            excluded = Fraction(0)
        others = welfare - won_value(inst, allocation, n)
        payments.append(pair(n, num(excluded - others)))
    return Outcome(allocation, _set_of_sorted(tuple(payments)), welfare)


def random_instance(rng) -> CombinatorialInstance:
    """Seeded random instance of 1-4 goods and 1-3 bidders with
    free-disposal valuations.

    Raw bundle values are drawn independently, then closed upward so a
    larger bundle is never worth less; that monotonicity is what makes
    exclusion payments provably non-negative under this allocation space.
    """
    n_goods = rng.randint(1, 4)
    n_bidders = rng.randint(1, 3)
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(k) for k in range(1, n_bidders + 1))
    bundles = [s for s in all_subsets(goods).payload if s.payload]
    triples = []
    for bidder in bidders.payload:
        raw = {}
        for bundle in bundles:
            raw[bundle] = Fraction(rng.randint(0, 24), rng.choice((1, 1, 2, 4)))
        for bundle in bundles:
            keys = frozenset(bundle.payload)
            closed = max(
                raw[b] for b in bundles if frozenset(b.payload) <= keys
            )
            triples.append((bidder, bundle, num(closed)))
    return make_instance(goods, bidders, triples)


# ---------------------------------------------------------------------------
# instance and outcome files

def instance_from_obj(obj) -> CombinatorialInstance:
    if not isinstance(obj, dict):
        raise ValidationError("instance file must be a JSON object")
    missing = {"goods", "bidders", "valuations"} - set(obj)
    if missing:
        raise ValidationError(f"instance file is missing {sorted(missing)}")
    goods = value_from_obj(obj["goods"])
    bidders = value_from_obj(obj["bidders"])
    _check_caps(_input_set(goods, "goods"), _input_set(bidders, "bidders"))
    raw = obj["valuations"]
    if not isinstance(raw, list):
        raise ValidationError("valuations must be an array of [bidder, bundle, value]")
    triples = []
    for row in raw:
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"bad valuation row: {row!r}")
        triples.append(tuple(value_from_obj(e) for e in row))
    return make_instance(goods, bidders, triples)


def parse_instance(text: str) -> CombinatorialInstance:
    return instance_from_obj(_load_json(text, "instance file"))


def serialize_outcome(outcome: Outcome) -> str:
    try:
        return (
            '{"allocation":' + serialize_value(outcome.allocation)
            + ',"payments":' + serialize_value(outcome.payments)
            + ',"welfare":' + serialize_value(num(outcome.welfare)) + "}"
        )
    except ValueError:
        # exact sums of the inputs can outgrow the digit limit each input met
        raise CapExceeded(
            f"outcome has a number longer than {sys.get_int_max_str_digits()} digits"
        ) from None
