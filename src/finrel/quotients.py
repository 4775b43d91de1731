"""Quotients of relations by equivalence relations, purely set-theoretically.

projector sends each domain point to its image class; quotient relates
classes whose product meets the original relation; compatible is the
well-definedness condition under which the quotient of a right-unique
relation stays right-unique.  kernel builds the equivalence identifying
points with equal images.  None of these require their arguments to be
equivalences or functions; the hypotheses only matter for the laws.
"""

from __future__ import annotations

from .values import EMPTY, Value, cartesian_product, fset, pair, _require_set, _set_of_sorted
from .relations import (
    _by_first,
    _require_relation,
    relation,
    right_unique,
)


def projector(R: Value) -> Value:
    """The relation { (x, image of x through R) | x in Domain R }."""
    # the index is in domain order, so the pairs are too
    return _set_of_sorted(tuple([pair(x, ys) for x, ys in _by_first(R).items()]))


def quotient(R: Value, P: Value, Q: Value) -> Value:
    """Relation between P-classes and Q-classes whose product meets R."""
    r_images = _by_first(R)
    # the classes are the distinct image sets, i.e. Range (projector P)
    pclasses = dict.fromkeys(_by_first(P).values())
    qclasses = dict.fromkeys(_by_first(Q).values())
    out = []
    for pc in pclasses:
        touching = frozenset(
            [y for x in pc.payload for y in r_images.get(x, EMPTY).payload]
        )
        if not touching:
            continue
        for qc in qclasses:
            if not touching.isdisjoint(qc.payload):
                out.append(pair(pc, qc))
    return fset(out)


def compatible(R: Value, P: Value, Q: Value) -> bool:
    """True iff R maps P-related points into Q-related images.

    The defining inclusion is image(R, image(P, {x})) within
    image(Q, image(R, {x})) for every x; quantifying over Domain P
    suffices, since elsewhere the left side is empty.
    """
    r_images = _by_first(R)
    p_images = _by_first(P)
    q_images = _by_first(Q)
    for x, mids in p_images.items():
        lhs = {y for mid in mids.payload for y in r_images.get(mid, EMPTY).payload}
        rhs = {
            y
            for mid in r_images.get(x, EMPTY).payload
            for y in q_images.get(mid, EMPTY).payload
        }
        if not lhs <= rhs:
            return False
    return True


def kernel(f: Value) -> Value:
    """Equivalence on Domain f identifying points with equal f-values."""
    _require_relation(f)
    if not right_unique(f):
        raise ValueError("kernel requires a right-unique relation")
    by_value: dict = {}
    for p in f.payload:
        by_value.setdefault(p.second, []).append(p.first)
    out = []
    for xs in by_value.values():
        for a in xs:
            for b in xs:
                out.append(pair(a, b))
    return fset(out)


def is_equivalence(E: Value, carrier: Value) -> bool:
    """True iff E is reflexive on carrier, symmetric, transitive, and
    contained in carrier x carrier."""
    images = _by_first(E)
    _require_set(carrier)
    ckeys = frozenset(carrier.payload)
    pairs = {(p.first, p.second) for p in E.payload}
    if not all(a in ckeys and b in ckeys for a, b in pairs):
        return False
    if not all((k, k) in pairs for k in ckeys):
        return False
    if not all((b, a) in pairs for a, b in pairs):
        return False
    return all((a, c) in pairs for a, b in pairs for c in images.get(b, ()))


def identity_on(X: Value) -> Value:
    """The identity relation on an explicit finite carrier."""
    _require_set(X)
    return relation((x, x) for x in X.payload)


def all_equivalences(carrier: Value) -> list[Value]:
    """Every equivalence relation on the carrier, in a deterministic order.

    Generated from the partitions of the carrier: each block contributes
    its full square.
    """
    from .enumeration import all_partitions_list

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
    from .enumeration import all_subsets

    out = []
    for carrier in all_subsets(universe).payload:
        out.extend(all_equivalences(carrier))
    return out
