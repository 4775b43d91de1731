"""Quotients of relations by equivalence relations, purely set-theoretically.

projector sends each domain point to its image class; quotient relates
classes whose product meets the original relation; compatible is the
well-definedness condition under which the quotient of a right-unique
relation stays right-unique.  kernel builds the equivalence identifying
points with equal images; only it requires a function.  The others take
any relations; the hypotheses only matter for the laws.

kernel and compatible are answered from the function view, the by-first
index of relations: kernel groups f's domain points by image and fills
the new relation's by-first view as it builds it, and compatible walks
the indexes of its three operands, building no relation.  The paper's
composed forms, f ; f^-1 and P ; R within R ; Q, are their oracles in
finrel.paper.
"""

from __future__ import annotations

from .values import (
    Value,
    cartesian_product,
    fset,
    pair,
    _require_set,
    _set_of_sorted,
    _sort_key,
)
from .relations import (
    _by_first,
    _indexed_relation,
    _require_relation,
    relation,
    right_unique,
)
from .enumeration import all_partitions_list, all_subsets


def projector(R: Value) -> Value:
    """The relation { (x, image of x through R) | x in Domain R }, built
    once and kept in R's views: each image tuple of the index wrapped as
    its set."""
    views = _require_relation(R)._index
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
    views = _require_relation(E)._index
    classes = views.classes
    if classes is None:
        classes = views.classes = tuple(
            sorted(dict.fromkeys([p.payload[1] for p in projector(E).payload]), key=_sort_key)
        )
    return classes


def _touching(R: Value, P: Value) -> tuple:
    """The half of quotient that depends on R and P only: each P-class
    whose points R relates to something, in canonical order, with the
    frozenset of their R-images."""
    r_images = _by_first(R)
    out = []
    for pc in _classes(P):
        touching = frozenset([y for x in pc.payload for y in r_images.get(x, ())])
        if touching:
            out.append((pc, touching))
    return tuple(out)


def _quotient_of(touching: tuple, Q: Value) -> Value:
    """The quotient from _touching(R, P): each of those P-classes related
    to each Q-class its images meet.

    Both class tuples are sorted, so the pairs come out in canonical order.
    """
    qclasses = _classes(Q)
    return _set_of_sorted(tuple([
        pair(pc, qc) for pc, images in touching for qc in qclasses
        if not images.isdisjoint(qc.payload)
    ]))


def quotient(R: Value, P: Value, Q: Value) -> Value:
    """Relation between P-classes and Q-classes whose product meets R."""
    return _quotient_of(_touching(R, P), Q)


def compatible(R: Value, P: Value, Q: Value) -> bool:
    """True iff R maps P-related points into Q-related images: P ; R within
    R ; Q, that is image(R, image(P, {x})) within image(Q, image(R, {x}))
    for every x.

    Decided on the three by-first indexes, building no relation: for each
    x of P's domain, each y in P(x) and each w in R(y), w must be in
    Q(R(x)), a set built once per x and only when some w needs it.
    """
    # P, then R, then Q: a non-relation raises as P ; R and R ; Q would
    p_images, r_images, q_images = _by_first(P), _by_first(R), _by_first(Q)
    for x, ys in p_images.items():
        allowed = None
        for y in ys:
            for w in r_images.get(y, ()):
                if allowed is None:
                    allowed = frozenset([
                        z for v in r_images.get(x, ()) for z in q_images.get(v, ())
                    ])
                if w not in allowed:
                    return False
    return True


def kernel(f: Value) -> Value:
    """Equivalence on Domain f identifying points with equal f-values:
    f ; f^-1.

    f's domain points are grouped by image, and each x is paired with the
    points of its class.  f is sorted and right-unique, so each class, and
    the pairs, come out in canonical order.  The new relation's by-first
    view is each x's class, filled before it is returned.
    """
    if not right_unique(f):
        raise ValueError("kernel requires a right-unique relation")
    images = _by_first(f)
    grouped: dict = {}
    for x, (y,) in images.items():
        grouped.setdefault(y, []).append(x)
    classes = {y: tuple(xs) for y, xs in grouped.items()}
    by_first = {x: classes[y] for x, (y,) in images.items()}
    return _indexed_relation(
        tuple([pair(x, z) for x, zs in by_first.items() for z in zs]), by_first
    )


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
