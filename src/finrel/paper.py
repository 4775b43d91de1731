"""The paper's set-theoretic formulations: the oracles of the fast paths.

Each function states a concept as the paper defines it, by a predicate
over sets or by walking the whole candidate space, and names the fast
path the law suite and the tests check against it.  Only finrel.laws and
the tests use it: check-laws runs the oracles its laws name, and no other
command runs any of it.  value_to_obj,
the text encoding as a JSON object tree, is the writer's oracle.  Two
oracles stay in their modules because perfbench/ reads them by that
path: enumeration.injections_oracle and laws._oracle_best_value, over
_oracle_optima below.  It also calls auctions.max_rival_bid by path, the
weight table it gives vickrey_payment_form_check: a fast path, whose
oracle is _payment_form_walk in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import CapExceeded
from .values import (
    Value, big_union, canonicalize, fset, intersection, is_subset, the_elem, union, _require_set,
)
from .relations import (
    compose, converse, domain_of, eval_rel, image, is_relation, range_of, right_unique, trivial,
)
from .quotients import identity_on
from .enumeration import all_partitions_list, all_subsets, injections_alg
from .auctions import CombinatorialInstance, _check_caps


# Seven formulations of right-uniqueness, proven equivalent by the law suite.
# None calls relations.right_unique; five read only R's pairs, while
# eval_bounds and eval_exact_on_domain read its by-first index via eval_rel.

def _ru_image_of_points_trivial(R: Value) -> bool:
    """The image of each domain point is trivial.  Fast path: relations.right_unique."""
    return all(trivial(image(R, fset([x]))) for x in domain_of(R).payload)


def _ru_pairwise(R: Value) -> bool:
    """Equal firsts give equal seconds.  Fast path: relations.right_unique."""
    return all(p.second == q.second for p in R.payload for q in R.payload if p.first == q.first)


def _ru_eval_bounds(R: Value) -> bool:
    """Each point's image is within {eval_rel(R, x)}.  Fast path: relations.right_unique."""
    return all(
        is_subset(image(R, fset([x])), fset([eval_rel(R, x)]))
        for x in domain_of(R).payload
    )


def _ru_eval_exact_on_domain(R: Value) -> bool:
    """Each point's image is {eval_rel(R, x)}.  Fast path: relations.right_unique."""
    return all(
        image(R, fset([x])) == fset([eval_rel(R, x)])
        for x in domain_of(R).payload
    )


def _ru_unique_witness(R: Value) -> bool:
    """Each first component occurs in one pair.  Fast path: relations.right_unique."""
    counts: dict = {}
    for p in R.payload:
        counts[p.first] = counts.get(p.first, 0) + 1
    return all(c == 1 for c in counts.values())


def _ru_canonical_witness(R: Value) -> bool:
    """Each second is the element of its first's image.  Fast path: relations.right_unique."""
    return all(p.second == the_elem(image(R, fset([p.first]))) for p in R.payload)


def _ru_first_injective(R: Value) -> bool:
    """Taking the first component is injective on R.  Fast path: relations.right_unique."""
    return len({p.first for p in R.payload}) == len(R.payload)


RIGHT_UNIQUE_CHARACTERIZATIONS = {
    "image_of_points_trivial": _ru_image_of_points_trivial,
    "pairwise": _ru_pairwise,
    "eval_bounds": _ru_eval_bounds,
    "eval_exact_on_domain": _ru_eval_exact_on_domain,
    "unique_witness": _ru_unique_witness,
    "canonical_witness": _ru_canonical_witness,
    "first_injective": _ru_first_injective,
}


def is_equivalence(E: Value, carrier: Value) -> bool:
    """True iff E is contained in carrier x carrier (its field is within
    carrier), reflexive on carrier, symmetric and transitive.  Fast path:
    quotients.kernel, and quotients.all_equivalences, which lists them."""
    return (
        is_subset(union(domain_of(E), range_of(E)), _require_set(carrier, "carrier"))
        and is_subset(identity_on(carrier), E)
        and converse(E) == E
        and is_subset(compose(E, E), E)
    )


def kernel_by_composition(f: Value) -> Value:
    """The kernel of f as the paper composes it: f ; f^-1.  Fast path:
    quotients.kernel, which groups f's domain points by image."""
    return compose(f, converse(f))


def compatible_by_composition(R: Value, P: Value, Q: Value) -> bool:
    """Compatibility as the paper's inclusion: P ; R within R ; Q.  Fast
    path: quotients.compatible, which walks the three by-first indexes."""
    return is_subset(compose(P, R), compose(R, Q))


PARTITION_ORACLE_CAP = 6


def insert_into_member_list(new_el, blocks: list, target: Value) -> list:
    """Enlarge one block: target + {new_el} prepended, first occurrence of
    target removed from the rest.  Fast path:
    enumeration.all_coarser_partitions_with_list(new_el, [blocks])."""
    new_el = canonicalize(new_el)
    target = canonicalize(target)
    for idx, b in enumerate(blocks):
        if b == target:
            enlarged = union(_require_set(target, "target block"), fset([new_el]))
            return [enlarged] + blocks[:idx] + blocks[idx + 1 :]
    raise ValueError(f"target block not present: {target!r}")


def is_partition(P: Value) -> bool:
    """True iff the blocks pairwise satisfy: they meet exactly when equal.

    An empty block fails against itself, so partitions contain no empty
    blocks.  Fast path: enumeration.all_partitions_list."""
    _require_set(P)
    blocks = P.payload
    for X in blocks:
        for Y in blocks:
            meets = len(intersection(X, Y).payload) > 0
            if meets != (X == Y):
                return False
    return True


def is_partition_of(P: Value, A: Value) -> bool:
    """True iff P is a partition whose blocks union to exactly A.  Fast
    path: enumeration.all_partitions_list."""
    _require_set(A)
    return big_union(P) == A and is_partition(P)


def all_partitions_oracle(A: Value) -> Value:
    """All partitions of A, by filtering families of nonempty subsets.

    Mathematically this filters the powerset of the powerset of A with
    is_partition_of.  Families containing an empty block or two
    overlapping blocks can never pass the filter, so the enumeration
    prunes those branches instead of materializing the double powerset;
    each emitted family still goes through the literal predicate.
    Fast path: enumeration.all_partitions_list.
    """
    _require_set(A)
    n = len(A.payload)
    if n > PARTITION_ORACLE_CAP:
        raise CapExceeded(f"partition oracle over {n} elements (cap {PARTITION_ORACLE_CAP})")
    subsets = [s for s in all_subsets(A).payload if s.payload]
    keysets = [frozenset(s.payload) for s in subsets]
    all_keys = frozenset(A.payload)
    found = []

    def walk(i: int, used: frozenset, blocks: list):
        if i == len(subsets):
            if used == all_keys:
                family = fset(blocks)
                if is_partition_of(family, A):
                    found.append(family)
            return
        walk(i + 1, used, blocks)
        if not (keysets[i] & used):
            blocks.append(subsets[i])
            walk(i + 1, used | keysets[i], blocks)
            blocks.pop()

    walk(0, frozenset(), [])
    return fset(found)


def functional_family(X: Value) -> bool:
    """True iff every member of X is a right-unique relation.  Fast path:
    the bid tuples of auctions.second_price_single_good."""
    _require_set(X)
    return all(is_relation(b) and right_unique(b) for b in X.payload)


def possible_allocations(goods: Value, bidders: Value) -> list[Value]:
    """Every allocation: an injection from the blocks of some partition of
    the goods into the bidders.  Deterministic order, no duplicates.

    This is the paper's set-theoretic construction of the allocation
    space.  Fast path: auctions.clear_vickrey, which computes over the
    same space by subset recursion instead of walking it."""
    _require_set(goods, "goods")
    _require_set(bidders, "bidders")
    _check_caps(goods, bidders)
    out = []
    for blocks in all_partitions_list(list(goods.payload)):
        out.extend(fset(pairs) for pairs in injections_alg(blocks, bidders))
    return out


def value_to_obj(v: Value):
    """The text encoding of v as a JSON object tree: integers as numbers,
    rationals as "n/d" strings, symbols as strings, pairs as ["pair", a,
    b] and sets as ["set", ...].  Fast path: encoding.serialize_value, the
    text json.dumps gives of this tree."""
    if not isinstance(v, Value):
        raise TypeError(f"not a value: {v!r}")
    if v.is_num:
        f = v.payload
        return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if v.is_sym:
        return v.payload
    if v.is_pair:
        return ["pair", value_to_obj(v.first), value_to_obj(v.second)]
    return ["set"] + [value_to_obj(e) for e in v.payload]


def won_value(inst: CombinatorialInstance, alloc: Value, bidder: Value) -> Fraction:
    """The bidder's reported value for the bundles the allocation gives
    them.  Fast path: own[k] of the record auctions._solve returns."""
    return sum(
        (inst.value(bidder, p.first) for p in alloc.payload if p.second == bidder),
        Fraction(0),
    )


def _oracle_optima(inst: CombinatorialInstance, bidders=None) -> tuple[Fraction, dict]:
    """Brute-force welfare maximum by assigning each good to a bidder, and
    each bidder's excluded optimum: the maximum over the assignments that
    give them nothing (0 when none does).  `bidders` defaults to all of
    the instance's; with none of them, as for a lone bidder's excluded
    optimum, the maximum is 0.  An instance with goods and no bidders has
    no assignment: ValueError, as in clearing.

    Independent of the partitions, the injections and clear_vickrey: one
    walk over the assignment functions scores their preimages, each bundle
    set built once.  Fast path: auctions.clear_vickrey.
    """
    goods = inst.goods.payload
    if goods and not inst.bidders.payload:
        raise ValueError("no bidders to allocate the goods to")
    bidders = tuple(inst.bidders.payload if bidders is None else bidders)
    bundle = functools.cache(fset)
    best = Fraction(0)
    excluded = dict.fromkeys(bidders, Fraction(0))
    for owners in itertools.product(bidders, repeat=len(goods)):
        holdings: dict = {}
        for g, n in zip(goods, owners):
            holdings.setdefault(n, []).append(g)
        total = sum(
            (inst.value(n, bundle(tuple(gs))) for n, gs in holdings.items()), Fraction(0)
        )
        best = max(best, total)
        for n in bidders:
            if n not in holdings and total > excluded[n]:
                excluded[n] = total
    return best, excluded
