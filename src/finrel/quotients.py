"""Quotients of relations by equivalence relations, purely set-theoretically.

projector sends each domain point to its image class; quotient relates
classes whose product meets the original relation; compatible is the
well-definedness condition under which the quotient of a right-unique
relation stays right-unique.  kernel builds the equivalence identifying
points with equal images; only it requires a function.  The others take
any relations; the hypotheses only matter for the laws.
"""

from __future__ import annotations

from .values import (
    Value,
    cartesian_product,
    fset,
    is_subset,
    pair,
    _require_set,
    _set_of_sorted,
    _sort_key,
)
from .relations import (
    _by_first,
    _views,
    compose,
    converse,
    relation,
    right_unique,
)
from .enumeration import all_partitions_list, all_subsets


def projector(R: Value) -> Value:
    """The relation { (x, image of x through R) | x in Domain R }, built
    once and kept in R's views: each image tuple of the index wrapped as
    its set."""
    views = _views(R)
    projected = views.projector
    if projected is None:
        # the index is in domain order, so the pairs are too
        projected = views.projector = _set_of_sorted(
            tuple([pair(x, _set_of_sorted(ys)) for x, ys in _by_first(R).items()])
        )
    return projected


def _classes(E: Value) -> tuple:
    """The distinct image sets of E, Range (projector E), in canonical
    order: built once and kept in E's views."""
    views = _views(E)
    classes = views.classes
    if classes is None:
        classes = views.classes = tuple(
            sorted(dict.fromkeys([p.payload[1] for p in projector(E).payload]), key=_sort_key)
        )
    return classes


def quotient(R: Value, P: Value, Q: Value) -> Value:
    """Relation between P-classes and Q-classes whose product meets R.

    Both class tuples are sorted, so the pairs come out in canonical order.
    """
    r_images = _by_first(R)
    pclasses = _classes(P)
    qclasses = _classes(Q)
    out = []
    for pc in pclasses:
        touching = frozenset([y for x in pc.payload for y in r_images.get(x, ())])
        if not touching:
            continue
        for qc in qclasses:
            if not touching.isdisjoint(qc.payload):
                out.append(pair(pc, qc))
    return _set_of_sorted(tuple(out))


def compatible(R: Value, P: Value, Q: Value) -> bool:
    """True iff R maps P-related points into Q-related images: P ; R within
    R ; Q, that is image(R, image(P, {x})) within image(Q, image(R, {x}))
    for every x."""
    return is_subset(compose(P, R), compose(R, Q))


def kernel(f: Value) -> Value:
    """Equivalence on Domain f identifying points with equal f-values:
    f ; f^-1."""
    if not right_unique(f):
        raise ValueError("kernel requires a right-unique relation")
    return compose(f, converse(f))


def identity_on(X: Value) -> Value:
    """The identity relation on an explicit finite carrier."""
    _require_set(X)
    return relation((x, x) for x in X.payload)


def all_equivalences(carrier: Value) -> list[Value]:
    """Every equivalence relation on the carrier, in a deterministic order.

    Generated from the partitions of the carrier: each block contributes
    its full square.
    """
    _require_set(carrier)
    return [
        fset(p for block in blocks for p in cartesian_product(block, block).payload)
        for blocks in all_partitions_list(list(carrier.payload))
    ]


def all_partial_equivalences(universe: Value) -> list[Value]:
    """Every relation that is an equivalence on some subset of universe.

    These are exactly the symmetric transitive relations over the
    universe (reflexivity on their own domain is implied).
    """
    out = []
    for carrier in all_subsets(universe).payload:
        out.extend(all_equivalences(carrier))
    return out
