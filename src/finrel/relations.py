"""Binary relations as finite sets of ordered pairs.

A relation is any set Value whose members are all pairs; there is no
wrapper class, so relations nest freely inside other values.  Evaluation
is totalized: looking up a point with no unique image yields the reserved
UNDEFINED marker instead of raising.  Callers that need definedness
(the auction engine) check right-uniqueness and domain membership first.

The library computes with a relation through its point index (_by_first);
only image, domain_of and range_of read the pairs, since they state the
definitions that the laws and tests/oracles.py check the index against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable

from .values import (
    PAIR,
    SET,
    Value,
    as_fraction,
    canonicalize,
    fset,
    pair,
    _require_set,
    _set_of_sorted,
    _sole,
    _sort_key,
)


def relation(pairs: Iterable = ()) -> Value:
    """Build a relation from pair Values or plain 2-tuples."""
    return _require_relation(fset(pairs))


def is_relation(v) -> bool:
    """The relation check as a bool; a set of pairs keeps its record."""
    try:
        _require_relation(v)
    except TypeError:
        return False
    return True


def _require_relation(v) -> Value:
    """v, once it is known to be a set of pairs; TypeError otherwise.

    The check is kept like a view: a set that passes gets an empty views
    record, so each set of pairs is scanned once.  A set that fails keeps
    nothing and raises on every call."""
    if not isinstance(v, Value) or v._key[0] != SET:
        raise TypeError(f"relation must be a set of pairs, got {v!r}")
    if v._index is None:
        for e in v.payload:
            if e._key[0] != PAIR:
                raise TypeError(f"relation contains a non-pair member: {e!r}")
        v._index = _Views()
    return v


class _Views:
    """What a relation derives from its own pairs, each None until built:
    the by-first index of image tuples, the projector, the tuple of its
    image classes and the converse.

    A set gets one when it passes the relation check, or when
    _indexed_relation builds it from pairs, so having one is the check's
    result.  The views are pure functions of the immutable
    pairs: each is built on first use, never changed, and freed with the
    relation.  A thread that races to build one writes an equal one.
    """

    __slots__ = ("by_first", "projector", "classes", "converse")

    def __init__(self):
        self.by_first = self.projector = self.classes = self.converse = None


def _by_first(R: Value) -> dict:
    """Map each domain point of R to the tuple of its images, in canonical
    order: the payload of its image set.

    The function view of R, kept in R's views record: built on the first
    call and returned as is after.  Callers only read it.
    """
    views = _require_relation(R)._index
    index = views.by_first
    if index is None:
        runs: dict = {}
        for p in R.payload:
            x, y = p.payload
            runs.setdefault(x, []).append(y)
        # R is sorted by (first, second), so each run of images is
        # already distinct and in order
        index = views.by_first = {x: tuple(ys) for x, ys in runs.items()}
    return index


def _indexed_relation(pairs: tuple, by_first: dict) -> Value:
    """The relation of pairs, with its by-first index filled before it is
    returned: the caller guarantees that the pairs are distinct and in
    canonical order and that by_first is the index _by_first would build.
    The relation is fresh, so no other thread can see it half built."""
    R = _set_of_sorted(pairs)
    views = R._index = _Views()
    views.by_first = by_first
    return R


def _run_of(R: Value, x: Value) -> tuple[int, int]:
    """The slice of R's sorted payload holding the pairs whose first
    component is x; empty, at x's place, when x is off the domain."""
    keys = R._key[1]
    lo = hi = bisect_left(keys, (PAIR, x._key))
    while hi < len(keys) and keys[hi][1] == x._key:
        hi += 1
    return lo, hi


def domain_of(R: Value) -> Value:
    _require_relation(R)
    # the first components of R's payload are already in order
    return _set_of_sorted(tuple(dict.fromkeys([p.payload[0] for p in R.payload])))


def range_of(R: Value) -> Value:
    _require_relation(R)
    return fset(p.second for p in R.payload)


def image(R: Value, X: Value) -> Value:
    """Image of the set X through R: { y | exists x in X with (x, y) in R }."""
    _require_relation(R)
    _require_set(X)
    members = frozenset(X.payload)
    return fset(p.second for p in R.payload if p.first in members)


def converse(R: Value) -> Value:
    """{ (y, x) | (x, y) in R }, built once and kept in R's views.

    R's pairs are grouped by second component and only the distinct
    seconds are sorted: R is sorted by (first, second), so each group's
    firsts are already distinct and in order.
    """
    views = _require_relation(R)._index
    flipped = views.converse
    if flipped is None:
        groups: dict = {}
        for p in R.payload:
            x, y = p.payload
            groups.setdefault(y, []).append(x)
        flipped = views.converse = _set_of_sorted(tuple([
            pair(y, x) for y in sorted(groups, key=_sort_key) for x in groups[y]
        ]))
    return flipped


def compose(R: Value, S: Value) -> Value:
    """Left-to-right composition: { (x, z) | (x, y) in R and (y, z) in S }.

    Both operands are read through their point indexes, R's first: its
    x's come in order, each with its y's.  Each image tuple of S is
    sorted, so an x whose y's reach one of them emits it as it is; only an
    x that reaches several merges their z's.
    """
    r_images, s_images = _by_first(R), _by_first(S)
    out = []
    for x, ys in r_images.items():
        images = [zs for y in ys if (zs := s_images.get(y)) is not None]
        if len(images) > 1:
            images = [sorted(dict.fromkeys([z for zs in images for z in zs]), key=_sort_key)]
        out.extend([pair(x, z) for zs in images for z in zs])
    return _set_of_sorted(tuple(out))


def outside(R: Value, X: Value) -> Value:
    """R with the points of X removed from its domain.

    Equals R - (X x Range R): a pair is removed exactly when its first
    component lies in X, since its second component is always in Range R.
    """
    _require_relation(R)
    _require_set(X)
    members = frozenset(X.payload)
    return _set_of_sorted(tuple([p for p in R.payload if p.payload[0] not in members]))


def single_outside(R: Value, x) -> Value:
    """R with x removed from its domain: its run of pairs cut out."""
    x = canonicalize(x)
    _require_relation(R)
    lo, hi = _run_of(R, x)
    return _set_of_sorted(R.payload[:lo] + R.payload[hi:])


def paste(P: Value, Q: Value) -> Value:
    """Overriding union: Q's values win on Q's domain, P elsewhere.

    May return one of its operands: P itself when Q is empty, Q itself
    when Q's domain covers all of P's.  Otherwise the pairs of P kept and
    the pairs of Q are two sorted runs with no pair in common, so one
    sort merges them.
    """
    _require_relation(Q)
    _require_relation(P)
    if not Q.payload:
        return P
    q_domain = frozenset([p.payload[0] for p in Q.payload])
    kept = [p for p in P.payload if p.payload[0] not in q_domain]
    if not kept:
        return Q
    return _set_of_sorted(tuple(sorted(kept + list(Q.payload), key=_sort_key)))


def single_paste(F: Value, x, y) -> Value:
    """Pointwise update: F with x now mapped to y, in place of x's run."""
    xy = pair(canonicalize(x), canonicalize(y))
    _require_relation(F)
    lo, hi = _run_of(F, xy.payload[0])
    return _set_of_sorted(F.payload[:lo] + (xy,) + F.payload[hi:])


def trivial(s: Value) -> bool:
    """True iff the set has at most one element."""
    _require_set(s)
    return len(s.payload) <= 1


def right_unique(R: Value) -> bool:
    """True iff no domain point has two images."""
    return all(len(ys) == 1 for ys in _by_first(R).values())


def eval_rel(R: Value, x) -> Value:
    """Unique image of x through R: _sole of x's image tuple in R's point
    index, so UNDEFINED when there is none or many."""
    x = canonicalize(x)
    return _sole(_by_first(R).get(x, ()))


def eval_rel_union(R: Value, x) -> Value:
    """Union of the image of x through R; {} off-domain.

    Defined only for set-valued relations; agrees with eval_rel on the
    domain of right-unique ones.
    """
    img = image(R, fset([x]))
    out = []
    for e in img.payload:
        if not e.is_set:
            raise ValueError(f"union evaluation over a non-set image member: {e!r}")
        out.extend(e.payload)
    return fset(out)


def graph(X: Value, f) -> Value:
    """The relation {(x, f(x)) | x in X} for a callable f; a KeyError from
    f means the table is undefined at x."""
    _require_set(X)
    out = []
    for x in X.payload:
        try:
            y = f(x)
        except KeyError:
            raise ValueError(f"table undefined at {x!r}") from None
        out.append(pair(x, canonicalize(y)))
    return fset(out)


def to_function(R: Value) -> Callable[[Value], Value]:
    """Evaluation closure over R: the callable x -> eval_rel(R, x)."""
    _require_relation(R)
    return lambda x: eval_rel(R, x)


def arg_max_set(f: Value, A: Value) -> Value:
    """All maximizers of f over A: { x in A | f(x) = max f(A) }."""
    _require_relation(f)
    _require_set(A)
    if not A.payload:
        raise ValueError("arg_max over an empty set")
    scored = []
    for x in A.payload:
        y = eval_rel(f, x)
        if not y.is_num:
            raise ValueError(f"no numeric value at {x!r}")
        scored.append((y.payload, x))
    top = max(s for s, _ in scored)
    return fset(x for s, x in scored if s == top)


def arg_max_list(f: Value, xs: list) -> list:
    """Maximizers of f over a list, by recursion on its elements.

    Returns the maximizers in the order they appear in xs; as a set this
    agrees with arg_max_set, which the law suite checks.
    """
    if not xs:
        raise ValueError("arg_max over an empty list")
    head = canonicalize(xs[0])
    if len(xs) == 1:
        return [head]
    best = arg_max_list(f, xs[1:])
    hv = as_fraction(eval_rel(f, head))
    bv = as_fraction(eval_rel(f, best[0]))
    if hv > bv:
        return [head]
    if hv == bv:
        return [head] + best
    return best
