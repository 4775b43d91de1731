"""Binary relations as finite sets of ordered pairs.

A relation is any set Value whose members are all pairs; there is no
wrapper class, so relations nest freely inside other values.  Evaluation
is totalized: looking up a point with no unique image yields the reserved
UNDEFINED marker instead of raising.  Callers that need definedness
(the auction engine) check right-uniqueness and domain membership first.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .values import (
    PAIR,
    SET,
    UNDEFINED,
    Value,
    as_fraction,
    canonicalize,
    fset,
    is_subset,
    pair,
    the_elem,
    _require_set,
    _set_of_sorted,
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


def _require_relation(v, what: str = "relation") -> Value:
    if not isinstance(v, Value) or v._key[0] != SET:
        raise TypeError(f"{what} must be a set of pairs, got {v!r}")
    for e in v.payload:
        if e._key[0] != PAIR:
            raise TypeError(f"{what} contains a non-pair member: {e!r}")
    return v


def _by_first(R: Value) -> dict:
    """Map each domain point of R to its image set, in canonical order.

    The function view of R: built and validated on the first call, then
    kept on R and returned as is.  Callers only read it.  A set that is
    not a relation gets no index, so it raises on every call.
    """
    index = R._index if isinstance(R, Value) else None
    if index is None:
        _require_relation(R)
        runs: dict = {}
        for p in R.payload:
            x, y = p.payload
            runs.setdefault(x, []).append(y)
        # R is sorted by (first, second), so each run of images is
        # already distinct and in order
        index = {x: _set_of_sorted(tuple(ys)) for x, ys in runs.items()}
        R._index = index
    return index


def domain_of(R: Value) -> Value:
    _require_relation(R)
    # the first components of R's payload are already in order
    return _set_of_sorted(tuple(dict.fromkeys([p.payload[0] for p in R.payload])))


def range_of(R: Value) -> Value:
    _require_relation(R)
    return fset(p.second for p in R.payload)


def endpoints(R: Value) -> tuple[Value, Value]:
    return domain_of(R), range_of(R)


def image(R: Value, X: Value) -> Value:
    """Image of the set X through R: { y | exists x in X with (x, y) in R }."""
    _require_relation(R)
    _require_set(X)
    members = frozenset(X.payload)
    return fset(p.second for p in R.payload if p.first in members)


def converse(R: Value) -> Value:
    _require_relation(R)
    return fset(pair(p.second, p.first) for p in R.payload)


def compose(R: Value, S: Value) -> Value:
    """Left-to-right composition: { (x, z) | (x, y) in R and (y, z) in S }."""
    _require_relation(R)
    s_images = _by_first(S)
    out = []
    for p in R.payload:
        x, y = p.payload
        zs = s_images.get(y)
        if zs is not None:
            out.extend([pair(x, z) for z in zs.payload])
    return fset(out)


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
    return outside(R, fset([x]))


def paste(P: Value, Q: Value) -> Value:
    """Overriding union: Q's values win on Q's domain, P elsewhere."""
    _require_relation(Q)
    return fset(outside(P, domain_of(Q)).payload + Q.payload)


def single_paste(F: Value, x, y) -> Value:
    """Pointwise update: F with x now mapped to y."""
    return paste(F, relation([(canonicalize(x), canonicalize(y))]))


def trivial(s: Value) -> bool:
    """True iff the set has at most one element."""
    _require_set(s)
    return len(s.payload) <= 1


def right_unique(R: Value) -> bool:
    """True iff no domain point has two images."""
    _require_relation(R)
    seen: dict = {}
    for p in R.payload:
        k = p.first
        if k in seen and seen[k] != p.second:
            return False
        seen[k] = p.second
    return True


# Alternative formulations of right-uniqueness.  All are proven equivalent
# on finite relations by the law suite; right_unique above is the pairwise
# scan, which is the only directly executable one.

def _ru_image_of_points_trivial(R: Value) -> bool:
    return all(trivial(image(R, fset([x]))) for x in domain_of(R).payload)


def _ru_pairwise(R: Value) -> bool:
    return right_unique(R)


def _ru_eval_bounds(R: Value) -> bool:
    return all(
        is_subset(image(R, fset([x])), fset([eval_rel(R, x)]))
        for x in domain_of(R).payload
    )


def _ru_eval_exact_on_domain(R: Value) -> bool:
    return all(
        image(R, fset([x])) == fset([eval_rel(R, x)])
        for x in domain_of(R).payload
    )


def _ru_unique_witness(R: Value) -> bool:
    counts: dict = {}
    for p in R.payload:
        counts[p.first] = counts.get(p.first, 0) + 1
    return all(c == 1 for c in counts.values())


def _ru_canonical_witness(R: Value) -> bool:
    return all(p.second == the_elem(image(R, fset([p.first]))) for p in R.payload)


def _ru_first_injective(R: Value) -> bool:
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


def eval_rel(R: Value, x) -> Value:
    """Unique image of x through R; UNDEFINED when there is none or many."""
    x = canonicalize(x)
    ys = _by_first(R).get(x)
    if ys is None or len(ys.payload) != 1:
        return UNDEFINED
    return ys.payload[0]


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
