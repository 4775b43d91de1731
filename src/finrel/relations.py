"""Binary relations as finite sets of ordered pairs.

A relation is any set Value whose members are all pairs; there is no
wrapper class, so relations nest freely inside other values.  Evaluation
is totalized: looking up a point with no unique image yields the reserved
UNDEFINED marker instead of raising.  Callers that need definedness
(the auction engine) check right-uniqueness and domain membership first.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from typing import Callable, Iterable

from .values import (
    PAIR,
    SET,
    UNDEFINED,
    Value,
    as_fraction,
    canonicalize,
    fset,
    pair,
    _require_set,
    _set_of_sorted,
    _sort_key,
)


def relation(pairs: Iterable = ()) -> Value:
    """Build a relation from pair Values or plain 2-tuples."""
    return _require_relation(fset(pairs))


def is_relation(v) -> bool:
    return (
        isinstance(v, Value)
        and v._key[0] == SET
        and all(e._key[0] == PAIR for e in v.payload)
    )


def _require_relation(v) -> Value:
    if not isinstance(v, Value) or v._key[0] != SET:
        raise TypeError(f"relation must be a set of pairs, got {v!r}")
    if v._index is None:  # a set with views has passed this check
        for e in v.payload:
            if e._key[0] != PAIR:
                raise TypeError(f"relation contains a non-pair member: {e!r}")
    return v


class _Views:
    """What a relation derives from its own pairs, each None until built:
    the by-first index of image tuples, the projector, the tuple of its
    image classes and the converse.

    Only a set that has passed the relation check gets one, so having it
    is the check's result.  The views are pure functions of the immutable
    pairs: each is built on first use, never changed, and freed with the
    relation.  A thread that races to build one writes an equal one.
    """

    __slots__ = ("by_first", "projector", "classes", "converse")

    def __init__(self):
        self.by_first = self.projector = self.classes = self.converse = None


def _views(R: Value) -> _Views:
    """The views record kept on R, made on the first call after checking
    that R is a relation.  A set that is not a relation gets none, so it
    raises on every call."""
    views = R._index if isinstance(R, Value) else None
    if views is None:
        _require_relation(R)
        views = R._index = _Views()
    return views


def _by_first(R: Value) -> dict:
    """Map each domain point of R to the tuple of its images, in canonical
    order: the payload of its image set.

    The function view of R, kept in R's views record: built on the first
    call and returned as is after.  Callers only read it.
    """
    views = _views(R)
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


def _first(p: Value) -> Value:
    return p.payload[0]


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
    """{ (y, x) | (x, y) in R }, built once and kept in R's views."""
    views = _views(R)
    flipped = views.converse
    if flipped is None:
        flipped = views.converse = fset(pair(p.second, p.first) for p in R.payload)
    return flipped


def compose(R: Value, S: Value) -> Value:
    """Left-to-right composition: { (x, z) | (x, y) in R and (y, z) in S }.

    R is sorted, so the pairs of each x are one run of its payload, and the
    x's come in order.  Each image tuple of S is sorted, so a run that
    reaches one of them emits it as it is; only a run that reaches several
    merges their z's.
    """
    _require_relation(R)
    s_images = _by_first(S)
    out = []
    for x, run in groupby(R.payload, _first):
        images = [zs for p in run if (zs := s_images.get(p.payload[1])) is not None]
        if not images:
            continue
        zs = images[0] if len(images) == 1 else sorted(
            dict.fromkeys([z for image in images for z in image]), key=_sort_key
        )
        out.extend([pair(x, z) for z in zs])
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

    The pairs of P kept and the pairs of Q are two sorted runs with no
    pair in common, so one sort merges them.
    """
    _require_relation(Q)
    _require_relation(P)
    q_domain = frozenset([p.payload[0] for p in Q.payload])
    kept = [p for p in P.payload if p.payload[0] not in q_domain]
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
    """Unique image of x through R; UNDEFINED when there is none or many."""
    x = canonicalize(x)
    ys = _by_first(R).get(x)
    if ys is None or len(ys) != 1:
        return UNDEFINED
    return ys[0]


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
