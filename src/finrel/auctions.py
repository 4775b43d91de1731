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
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .encoding import _json, _load_json, _read, serialize_value
from .errors import CapExceeded, ValidationError
from .values import (
    Value,
    as_fraction,
    canonicalize,
    fset,
    member,
    min_of,
    max_of,
    num,
    pair,
    union,
    _product_sets,
    _set_of_sorted,
    _sole,
    _sort_key,
)
from .relations import (
    domain_of,
    eval_rel,
    is_relation,
    range_of,
    right_unique,
    _by_first,
    _require_relation,
    _run_of,
)

CAP_GOODS = 6
CAP_BIDDERS = 6
CAP_GRID = 5
CAP_SINGLE_BIDDERS = 3
# _common_scale, which only clearing (_solve) calls, scales amounts to
# integers over their common denominator up to this many bits (about the
# 4,300-digit integer limit) and leaves them rationals beyond; the bound
# limits the integers' size, and past it either path can be the faster
# one (README, "Combinatorial instances")
MAX_SCALE_BITS = 14_300


@dataclass(frozen=True)
class SingleGoodMechanism:
    """A single-good auction over a finite bid grid.

    alloc maps every bid vector to 1 when the distinguished bidder wins
    the good and 0 otherwise; price maps every bid vector to what that
    bidder pays.  Both are right-unique relations over the full grid of
    bid vectors.

    The builders also keep _paid, the same outcome on grid positions: for
    each bid vector, in canonical order, the position in the grid of what
    the bidder pays, or None where they lose.  It is what `run-single`
    decides dominance on (`_grid_counterexample`); a mechanism made from
    its tables alone has none, and _paid is neither compared nor shown.
    """

    bidders: Value
    grid: Value
    bidder: Value
    alloc: Value
    price: Value
    _paid: tuple | None = field(default=None, compare=False, repr=False)


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


def _single_good(bidders, grid, i, price_rule) -> SingleGoodMechanism:
    """The grid mechanism whose winner pays the grid value at position
    price_rule(ps, k), for ps the bid tuple's grid positions and k the
    winner's index among the bidders."""
    bidders = canonicalize(bidders)
    grid = canonicalize(grid)
    i = canonicalize(i)
    _check_single_good_args(bidders, grid, i)
    bs = bidders.payload
    k = bs.index(i)
    zero, one = num(0), num(1)
    alloc_pairs = []
    price_pairs = []
    paid_at = []  # i's price position where i wins, None where i loses
    # each (bidder, bid) pair is built once, and every vector is put
    # together from them, one set per tuple of the rows' product; the bid
    # tuples, and so their vectors, come in canonical order.  Each vector
    # goes with its tuple of grid positions; the grid's numbers are in
    # numeric order, so bids compare as their positions, ints, and no
    # Value is compared.  max keeps the first highest bid, the least
    # bidder's: the canonical tie-break
    rows = [[pair(n, g) for g in grid.payload] for n in bs]
    positions = itertools.product(range(len(grid.payload)), repeat=len(bs))
    for b, ps in zip(_product_sets(rows), positions):
        wins = ps.index(max(ps)) == k
        won = one if wins else zero
        at = price_rule(ps, k) if wins else None
        paid_at.append(at)
        paid = zero if at is None else grid.payload[at]
        # a loser's (b, 0) is one pair of both tables
        at_won = pair(b, won)
        alloc_pairs.append(at_won)
        price_pairs.append(at_won if paid is won else pair(b, paid))
    alloc, price = (_set_of_sorted(tuple(pairs)) for pairs in (alloc_pairs, price_pairs))
    return SingleGoodMechanism(bidders, grid, i, alloc, price, tuple(paid_at))


def second_price_single_good(bidders, grid, i) -> SingleGoodMechanism:
    """Winner pays the highest rival bid."""
    return _single_good(bidders, grid, i, lambda ps, k: max(ps[:k] + ps[k + 1:]))


def first_price_single_good(bidders, grid, i) -> SingleGoodMechanism:
    """Winner pays their own bid; the classic non-truthful mutant."""
    return _single_good(bidders, grid, i, lambda ps, k: ps[k])


def _utility(valuation: Value, won: Value, paid: Value) -> int | Fraction:
    """valuation * won - paid, each checked as a number in that order.  It
    is computed on the numbers' keys, and an integer is keyed by the int
    itself, so integer utilities are computed and compared as ints."""
    as_fraction(valuation), as_fraction(won), as_fraction(paid)
    return valuation._key[1] * won._key[1] - paid._key[1]


def _rival_split(i) -> Callable[[Value], tuple]:
    """A function from a bid vector b to (b's domain, as the keys of its
    first components; b's pairs outside i's run; i's run): b without i,
    and i's bids in b, each a slice of b's sorted payload.

    Where i's run lies in b depends only on b's domain, so it is found
    once per distinct domain and kept in the function: the vectors of a
    grid mechanism share one.  i is made canonical when the first run is
    found.  The slices hold b's own pair objects, so the rival pairs of
    vectors built from shared pairs are equal tuples of the same objects,
    cheap to hash and compare."""
    runs: dict = {}  # keys of a domain -> i's run in its vectors

    def split(b: Value) -> tuple:
        firsts = tuple([key[1] for key in b._key[1]])
        run = runs.get(firsts)
        if run is None:
            run = runs[firsts] = _run_of(b, canonicalize(i))
        lo, hi = run
        return firsts, b.payload[:lo] + b.payload[hi:], b.payload[lo:hi]

    return split


def _bid_vectors(i, alloc: Value, price: Value):
    """(b, its rival pairs, i's run in it, alloc at b, price at b), for each
    b of the common domain of alloc and price in order, walking alloc's
    point index against price's; the pairs are cut by _rival_split.  alloc
    is checked before price, and b before i is read, so each input error
    is the one the test i in domain(b) raises."""
    won_at, paid_at = _by_first(alloc), _by_first(price)
    split = _rival_split(i)
    for b, wons in won_at.items():
        if b in paid_at:
            _require_relation(b)
            _, rivals, own = split(b)
            yield b, rivals, own, _sole(wons), _sole(paid_at[b])


def dominant_strategy_counterexample(
    i: Value, alloc: Value, price: Value
) -> tuple[Value, Value] | None:
    """First (bid vector, valuation) where switching to the true valuation
    would hurt bidder i; None when bidding truthfully always weakly wins.

    This is the paper's definition: for each vector b of the common
    domain of alloc and price that bids for i, and each valuation v, paste
    (i, v) into b; when the pasted vector is in the common domain too,
    compare i's utility v * won - paid at b with that at the pasted
    vector.  The valuations are i's bids in the common domain (i's image
    under a vector, UNDEFINED when i has several), so every deviation
    that stays inside the domain is tried.  The pairs (b, v) come in
    canonical order, b first.

    Nothing is pasted.  The pasted vector is b's rival pairs plus the one
    pair (i, v), so each vector with exactly one bid for i is filed under
    its rival pairs themselves (a tuple of Values, whose hashes are kept)
    and that bid, and a pasted vector is a dict lookup; alloc and price
    are read once per vector, off their point indexes.  Each pair is
    compared once, through `_utility`, which raises the first TypeError in
    the paper's order: v, won and paid at b, then at the pasted vector.
    """
    vectors = []
    by_rivals: dict = {}  # rival pairs -> {one bid v for i: (won, paid) there}
    for b, rivals, own, won, paid in _bid_vectors(i, alloc, price):
        if own:
            # each vector keeps its rivals' dict, so it is looked up once
            deviations = by_rivals.setdefault(rivals, {})
            vectors.append((b, deviations, won, paid))
            if len(own) == 1:
                deviations[own[0].payload[1]] = (won, paid)
    # vectors that differ only in i's bid sort by that bid, so each dict
    # of by_rivals holds its bids in canonical order
    for b, deviations, won, paid in vectors:
        for v, (t_won, t_paid) in deviations.items():
            if _utility(v, won, paid) > _utility(v, t_won, t_paid):
                return b, v
    return None


def _grid_counterexample(m: SingleGoodMechanism) -> tuple[Value, Value] | None:
    """dominant_strategy_counterexample(m.bidder, m.alloc, m.price) for a
    mechanism that kept its _paid record, decided on grid positions.

    Vector idx of the product order holds i's bid at position
    idx // stride % g, for g grid values and stride g ** (n - 1 - k) with k
    i's index among the n bidders, so bidding q instead is vector
    idx + (q - own) * stride.  i's utility at valuation q is
    grid[q] - grid[x], for x the position i pays, or q itself where i
    loses; the grid is in numeric order, so bidding q hurts exactly where
    i pays a higher position there than here, and no number is read.
    Vectors and valuations come in the walk's order, so the first
    counterexample is the walk's, and only it is turned into Values.
    """
    grid, paid_at = m.grid.payload, m._paid
    g = len(grid)
    stride = g ** (len(m.bidders.payload) - 1 - m.bidders.payload.index(m.bidder))
    for idx, paid in enumerate(paid_at):
        base = idx - idx // stride % g * stride
        for q in range(g):
            there = paid_at[base + q * stride]
            if (q if there is None else there) > (q if paid is None else paid):
                return m.alloc.payload[idx].payload[0], grid[q]
    return None


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

    Each table is called once per distinct reduced bid, weight before
    fee, in the order the vectors first reach it, and the form's payment
    is computed once per (reduced bid, win flag), so the first error is
    the one a walk that looks both up and computes the form at every
    vector raises.  Vectors with equal rival pairs share one reduced bid.
    """
    i = canonicalize(i)
    base = as_fraction(canonicalize(base_alloc))
    looked_up: dict = {}  # rival pairs -> (weight, fee) at their reduced bid
    formed: dict = {}  # (rival pairs, win flag) -> the payment the form gives
    for _, rivals, _, won, paid in _bid_vectors(i, alloc, price):
        expected = formed.get((rivals, won))
        if expected is None:
            tables = looked_up.get(rivals)
            if tables is None:
                reduced = _set_of_sorted(rivals)
                tables = looked_up[rivals] = (
                    _table_lookup(weight, reduced), _table_lookup(fee, reduced))
            w, t = tables
            if as_fraction(paid) != (as_fraction(won) - base) * w + t:
                return False
            # the number Value paid here is the class's payment: the other
            # vectors of the class compare with it as Values
            formed[rivals, won] = paid
        elif paid != expected:
            as_fraction(paid)  # a payment that is no number raises here
            return False
    return True


def max_rival_bid(reduced: Value) -> Value:
    """Weight table of the second-price rule: highest bid in a reduced
    bid vector."""
    return max_of(range_of(reduced))


def _reduced_bids(i, alloc: Value):
    """(b, rb at b) for each vector b of alloc's domain, in order, for the
    reduced-bid map rb: the walk reduced_bid_map and reduced_price_map
    share.  It checks i, then alloc, then each b as it reaches it.

    Within one walk each distinct domain, reduced vector and triple is
    built once, so vectors with equal rival pairs, flag and domain share
    one triple object.  A domain is keyed by the keys of its vectors'
    first components, as _rival_split keys i's run in it."""
    i = canonicalize(i)
    if not right_unique(alloc):
        raise ValueError("allocation relation must be right-unique")
    split = _rival_split(i)
    domains: dict = {}  # keys of a domain -> the domain
    reduced_of: dict = {}  # rival pairs -> b without i
    triples: dict = {}  # (rival pairs, won, domain) -> its triple
    # alloc's point index, built by the check, gives each b once, in order
    for b, (won,) in _by_first(alloc).items():
        if not is_relation(b):
            raise ValueError(f"domain member is not a bid vector: {b!r}")
        firsts, rivals, _ = split(b)
        domain = domains.get(firsts)
        if domain is None:
            domain = domains[firsts] = domain_of(b)
        key = (rivals, won, domain)
        triple = triples.get(key)
        if triple is None:
            reduced = reduced_of.get(rivals)
            if reduced is None:
                reduced = reduced_of[rivals] = _set_of_sorted(rivals)
            triple = triples[key] = pair(domain, pair(reduced, won))
        yield b, triple


def reduced_bid_map(i, alloc: Value) -> Value:
    """Send each bid vector b to (domain of b, (b without i, winner flag)).

    Two bid vectors differing only in bidder i's component with the same
    allocation land on the same triple; the kernel of this map is exactly
    that equivalence.
    """
    return _set_of_sorted(tuple([pair(b, triple) for b, triple in _reduced_bids(i, alloc)]))


def reduced_price_map(price: Value, i, alloc: Value) -> Value:
    """Price as a function of the reduced-bid triple: converse(rb) ; price for
    the reduced-bid map rb, which is the paper's quotient of price by the
    kernel of rb framed by two projectors (checked in tests/oracles.py).

    Nothing is composed: each triple's prices are grouped during the walk
    of rb, and the triples and each one's distinct prices are put in
    canonical order."""
    if not right_unique(price):
        raise ValueError("price relation must be right-unique")
    paid_at = _by_first(price)
    prices: dict = {}  # triple -> its class's prices, as keys in first-seen order
    for b, triple in _reduced_bids(i, alloc):
        paid = paid_at.get(b)
        if paid is not None:
            prices.setdefault(triple, {})[paid[0]] = None
    return _set_of_sorted(tuple([
        pair(triple, y) for triple in sorted(prices, key=_sort_key)
        for y in sorted(prices[triple], key=_sort_key)]))


def reduced_fee_table(price: Value, i, alloc: Value) -> Callable[[Value], Value]:
    """Fee table extracted from the reduced price: the payment at the
    lowest allocation value, as a function of the reduced bid.

    Returns UNDEFINED on reduced bids whose class never reaches the
    lowest allocation (the payment-form check reports those as errors).
    """
    i = canonicalize(i)
    return _fee_table(reduced_price_map(price, i, alloc), i, alloc)


def _fee_table(rp: Value, i: Value, alloc: Value) -> Callable[[Value], Value]:
    """reduced_fee_table over a reduced price rp built already, for a
    canonical bidder i."""
    lowest = min_of(range_of(alloc))
    own = fset([i])

    def fee(reduced: Value) -> Value:
        key = pair(union(own, domain_of(reduced)), pair(reduced, lowest))
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
    known_bidders, known_goods = frozenset(bidders.payload), frozenset(goods.payload)
    # each bundle is checked the first time a row names it: a file names
    # the same few many times.  The set holds the Values, not their ids,
    # so a Value freed by the caller cannot pass for a new one.
    good_bundles: set = set()
    table: dict = {}
    for rows, (bidder, bundle, value) in enumerate(triples, 1):
        bidder = canonicalize(bidder)
        bundle = canonicalize(bundle)
        value = canonicalize(value)
        if bidder not in known_bidders:
            raise ValidationError(f"unknown bidder {bidder!r}")
        if bundle not in good_bundles:
            _input_set(bundle, "bundle")
            if not known_goods.issuperset(bundle.payload):
                raise ValidationError(f"bundle {bundle!r} is not within the goods")
            good_bundles.add(bundle)
        if not value.is_num:
            raise ValidationError(f"valuation must be numeric: {value!r}")
        f = value.payload
        if f.numerator < 0:
            raise ValidationError(f"negative valuation {value!r}")
        if not bundle.payload and f != 0:
            raise ValidationError("the empty bundle must be worth 0")
        # stored first: a duplicate row leaves the table as long as before
        table[(bidder, bundle)] = f
        if len(table) != rows:
            raise ValidationError(f"duplicate valuation for {bidder!r}, {bundle!r}")
    return CombinatorialInstance(goods, bidders, table)


def _check_caps(goods: Value, bidders: Value):
    if len(goods.payload) > CAP_GOODS:
        raise CapExceeded(f"more than {CAP_GOODS} goods")
    if len(bidders.payload) > CAP_BIDDERS:
        raise CapExceeded(f"more than {CAP_BIDDERS} bidders")


def _common_scale(amounts: Iterable[Fraction]) -> tuple[int, Callable]:
    """(scale, up): the least common denominator of the amounts, and up(f)
    = f * scale as an integer for each amount f.  Once the denominator has
    more than MAX_SCALE_BITS bits it is (1, identity), so the same code runs
    on the rationals themselves."""
    scale = 1
    for x in amounts:
        scale = math.lcm(scale, x.denominator)
        if scale.bit_length() > MAX_SCALE_BITS:
            return 1, lambda f: f
    return scale, lambda f: f.numerator * (scale // f.denominator)


@dataclass(frozen=True)
class _Solution:
    """Clearing's numbers, each a valuation sum times `scale` (the rationals
    themselves when scale is 1): the optimum, the chosen (bundle mask,
    bidder index) blocks in canonical order, bit g of a mask standing for
    goods[g], and for each bidder k own[k], its value for its block (0
    without one), and excluded[k], the best welfare without k (0 when k is
    the only bidder)."""

    scale: int
    optimum: int | Fraction
    blocks: tuple
    own: tuple
    excluded: tuple


def _solve(inst: CombinatorialInstance) -> _Solution:
    """The solve step of clear_vickrey: its numbers, with no Value built.

    Nothing is enumerated: goods and bidders are bit positions in
    canonical order, and `best(S, avail)` is the best welfare that gives
    all of the goods in S to distinct bidders in avail (None if none
    can).  The first bidder in avail takes some nonempty T within S or
    nothing, and the rest recurses (the winner-determination recurrence
    of Rothkopf, Pekec and Harstad, 1998).  One memo serves the optimum
    and every excluded optimum.  An allocation's pairs sort by their
    lowest goods, so the canonically least optimal one is rebuilt pair by
    pair: the least (bundle, bidder) that holds the lowest good left and
    whose remainder still reaches the optimum.
    """
    _check_caps(inst.goods, inst.bidders)
    goods, bidders = inst.goods.payload, inst.bidders.payload
    all_goods = (1 << len(goods)) - 1
    everyone = (1 << len(bidders)) - 1
    scale, up = _common_scale(inst.valuations.values())
    # one pass over the rows: a key with a bidder or a good outside the
    # instance is never asked for, and every other bundle is worth 0
    row_of = {n: k for k, n in enumerate(bidders)}
    bit = {g: 1 << k for k, g in enumerate(goods)}
    val = [[0] * (all_goods + 1) for _ in bidders]
    unknown = object()
    mask_of: dict = {}  # bundle -> its mask, or None when never asked for
    for (n, bundle), x in inst.valuations.items():
        k = row_of.get(n)
        if k is None:
            continue
        mask = mask_of.get(bundle, unknown)
        if mask is unknown:
            inside = bundle.is_set and all(g in bit for g in bundle.payload)
            mask = mask_of[bundle] = sum(bit[g] for g in bundle.payload) if inside else None
        if mask is not None:
            val[k][mask] = up(x)
    width = everyone + 1
    memo = [unknown] * ((all_goods + 1) * width)  # memo[S * width + avail]

    def best(S: int, avail: int):
        if not S:
            return 0
        if not avail:
            return None
        top = memo[S * width + avail]
        if top is not unknown:
            return top
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
        memo[S * width + avail] = top
        return top

    optimum = best(all_goods, everyone)
    if optimum is None:
        raise ValueError("no bidders to allocate the goods to")
    # the bundle masks in canonical order, filed under their lowest good;
    # bit g is goods[g], so masks sort by the positions of their bits
    by_lowest = {1 << g: [] for g in range(len(goods))}
    for T in sorted(range(1, all_goods + 1),
                    key=lambda T: [g for g in range(len(goods)) if T >> g & 1]):
        by_lowest[T & -T].append(T)
    blocks = []
    own = [0] * len(bidders)
    left, free, target = all_goods, everyone, optimum
    while left:
        for T, k in itertools.product(by_lowest[left & -left], range(len(bidders))):
            if not T & ~left and free >> k & 1:
                after = best(left ^ T, free ^ (1 << k))
                if after is not None and val[k][T] + after == target:
                    break
        else:
            raise AssertionError("no block reaches the optimum")
        blocks.append((T, k))
        own[k] = val[k][T]
        left, free, target = left ^ T, free ^ (1 << k), after
    excluded = [best(all_goods, everyone ^ (1 << k)) for k in range(len(bidders))]
    return _Solution(scale, optimum, tuple(blocks), tuple(own),
                     tuple(0 if x is None else x for x in excluded))


def clear_vickrey(inst: CombinatorialInstance) -> Outcome:
    """Welfare-maximizing allocation plus exclusion-formula payments.

    The allocation space is the one `paper.possible_allocations` lists: every
    good is assigned, in nonempty blocks, to distinct bidders.  The
    chosen allocation maximizes total reported value, ties broken by
    canonical order.  Bidder n pays the best total the others could reach
    without n, minus what the others actually get under the chosen
    allocation; bidders assigned nothing pay by the same formula (which
    works out to zero).  "Without n" is the best welfare over the
    allocations into the other bidders, or 0 when there are none.

    Clearing runs in two steps.  The solve step, `_solve`, builds no
    Value: it computes on every valuation times their common denominator
    (`_common_scale`), which keeps sums, comparisons and ties exact, or
    past MAX_SCALE_BITS on the rationals themselves (scale 1).  This
    outcome step turns each chosen bundle mask into its set of goods and
    gives bidder k the payment excluded[k] - (optimum - own[k]) over that
    scale; it does no other arithmetic.
    """
    solved, goods, bidders = _solve(inst), inst.goods.payload, inst.bidders.payload
    optimum, scale = solved.optimum, solved.scale
    chosen = [pair(_set_of_sorted(tuple([x for g, x in enumerate(goods) if T >> g & 1])),
                   bidders[k]) for T, k in solved.blocks]
    payments = [pair(n, num(Fraction(excluded - (optimum - own), scale)))
                for n, excluded, own in zip(bidders, solved.excluded, solved.own)]
    return Outcome(
        _set_of_sorted(tuple(chosen)), _set_of_sorted(tuple(payments)), Fraction(optimum, scale)
    )


# ---------------------------------------------------------------------------
# instance and outcome files

def parse_instance(text: str) -> CombinatorialInstance:
    """The instance in an instance file: a JSON object of goods, bidders
    and [bidder, bundle, value] valuation rows, checked as make_instance
    checks them.  Bad JSON is a ParseError, a bad shape or value a
    ValidationError, and input past a cap CapExceeded."""
    obj = _load_json(text, "instance file")
    if not isinstance(obj, dict):
        raise ValidationError("instance file must be a JSON object")
    missing = {"goods", "bidders", "valuations"} - set(obj)
    if missing:
        raise ValidationError(f"instance file is missing {sorted(missing)}")
    # one memo for the file: an atom or an array of atoms is read once, since
    # each bidder and bundle repeats in many rows, and the goods of every
    # bundle are the instance's goods themselves
    memo = {}
    goods, bidders = _read(obj["goods"], memo), _read(obj["bidders"], memo)
    _check_caps(_input_set(goods, "goods"), _input_set(bidders, "bidders"))
    raw = obj["valuations"]
    if not isinstance(raw, list):
        raise ValidationError("valuations must be an array of [bidder, bundle, value]")
    triples = []
    for row in raw:
        if not isinstance(row, list) or len(row) != 3:
            raise ValidationError(f"bad valuation row: {_json(row)}")
        bidder, bundle, value = row
        triples.append((_read(bidder, memo), _read(bundle, memo), _read(value, memo)))
    return make_instance(goods, bidders, triples)


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
