"""Enumeration of injections and set partitions, each built two ways.

The *_alg functions are the computable route: plain structural recursion
producing a deterministic list.  The *_oracle functions realize the
defining predicates directly by filtering candidate families, and exist
to cross-check the recursions; they are exponential and capped.

The partition recursion works by induction on the elements: a partition
of X + {x} is obtained from a partition P of X either by adding {x} as a
fresh block or by inserting x into exactly one existing block of P.
Partitions are handled as lists of blocks while being built (iteration is
simpler over lists); converting a finished list to its set of blocks is
the lossless direction.
"""

from __future__ import annotations

from itertools import count

from .errors import CapExceeded
from .values import (
    Value,
    big_union,
    canonicalize,
    fset,
    intersection,
    pair,
    _require_set,
    _set_of_sorted,
    _set_plus,
)
from .relations import relation

PARTITION_ORACLE_CAP = 6
INJECTION_ORACLE_CAP = 16  # size of the candidate pair pool
# `finrel enumerate` lists at most this many partitions or injections:
# partitions of 10 elements (115,975) pass, partitions of 11 (678,570) and
# injections of 6 into 10 (151,200) do not
CAP_ENUMERATE_LINES = 150_000


def all_subsets(X: Value) -> Value:
    """The full powerset of X."""
    _require_set(X)
    elems = X.payload
    out = []
    for mask in range(1 << len(elems)):
        out.append(fset(e for i, e in enumerate(elems) if mask >> i & 1))
    return fset(out)


def _bell(n: int) -> int:
    """Bell(n), the number of partitions of an n-element set, read off
    the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# the largest n with Bell(n) <= CAP_ENUMERATE_LINES
MAX_PARTITION_ELEMENTS = next(n for n in count() if _bell(n + 1) > CAP_ENUMERATE_LINES)


def _perm_exceeds(m: int, n: int, cap: int) -> bool:
    """True iff m!/(m-n)!, the number of injections of n elements into m,
    is more than cap.  The falling factorial is multiplied out only until
    it passes cap, so its numbers stay small whatever m and n are; it is
    0 when n > m."""
    if n > m:
        return False
    product = 1
    for k in range(m, m - n, -1):
        product *= k
        if product > cap:
            return True
    return product > cap


def _distinct(xs: list) -> list:
    vs = [canonicalize(x) for x in xs]
    if len(set(vs)) != len(vs):
        raise ValueError(f"elements must be distinct: {xs!r}")
    return vs


def injections_alg(xs: list, Y: Value) -> list[Value]:
    """All injections from the listed elements into Y, constructively.

    Recursion on the list: every partial injection of the tail is
    extended with each still-unused element of Y, taken in canonical
    order.  The output order is deterministic and duplicate-free.
    """
    xs = _distinct(xs)
    _require_set(Y)
    if len(xs) > len(Y.payload):  # no injection exists; do not recurse
        return []
    if not xs:
        return [fset()]
    head, rest = xs[0], xs[1:]
    # payload is already the sorted element list; head is in no tail
    # injection's domain, so adding (head, y) never overrides a pair
    steps = [(y, pair(head, y)) for y in Y.payload]
    out = []
    for R in injections_alg(rest, Y):
        used = {p.payload[1] for p in R.payload}
        for y, step in steps:
            if y not in used:
                out.append(_set_plus(R, step))
    return out


def injections_oracle(X: Value, Y: Value) -> Value:
    """All injections from X into Y, by filtering the powerset of X x Y.

    A candidate survives when its domain is exactly X, its range is
    within Y, and both it and its converse are right-unique.
    """
    _require_set(X)
    _require_set(Y)
    pool = [(x, y) for x in X.payload for y in Y.payload]
    if len(pool) > INJECTION_ORACLE_CAP:
        raise CapExceeded(
            f"injection oracle over {len(pool)} candidate pairs (cap {INJECTION_ORACLE_CAP})"
        )
    xset = frozenset(X.payload)
    yset = frozenset(Y.payload)
    survivors = []
    for mask in range(1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        dom = {x for x, _ in chosen}
        rng = {y for _, y in chosen}
        if dom != xset:
            continue
        if not rng <= yset:
            continue
        if len(dom) != len(chosen):  # right-unique
            continue
        if len(rng) != len(chosen):  # converse right-unique
            continue
        survivors.append(relation(chosen))
    return fset(survivors)


def insert_into_member_list(new_el, blocks: list, target: Value) -> list:
    """Enlarge one block: target + {new_el} prepended, first occurrence of
    target removed from the rest."""
    new_el = canonicalize(new_el)
    target = canonicalize(target)
    for idx, b in enumerate(blocks):
        if b == target:
            enlarged = _set_plus(_require_set(target, "target block"), new_el)
            return [enlarged] + blocks[:idx] + blocks[idx + 1 :]
    raise ValueError(f"target block not present: {target!r}")


def coarser_partitions_with_list(new_el, blocks: list) -> list[list]:
    """All ways to extend a partition with a fresh element: one new
    singleton block, then one insertion per existing block.

    Block i is enlarged by its position, which is what
    insert_into_member_list(new_el, blocks, blocks[i]) gives for the
    distinct blocks of a partition without searching for the block."""
    new_el = canonicalize(new_el)
    blocks = list(blocks)
    out = [[_set_of_sorted((new_el,))] + blocks]
    for i, b in enumerate(blocks):
        enlarged = _set_plus(_require_set(b, "block"), new_el)
        if enlarged is b:  # _set_plus returns b itself when new_el is in it
            raise ValueError(f"element already present: {new_el!r}")
        out.append([enlarged] + blocks[:i] + blocks[i + 1 :])
    return out


def all_coarser_partitions_with_list(new_el, partitions: list[list]) -> list[list]:
    out = []
    for p in partitions:
        out.extend(coarser_partitions_with_list(new_el, p))
    return out


def all_partitions_list(xs: list) -> list[list]:
    """Every partition of the listed elements, once each, as block lists."""
    xs = _distinct(xs)
    if not xs:
        return [[]]
    return all_coarser_partitions_with_list(xs[0], all_partitions_list(xs[1:]))


def partition_as_set(blocks: list) -> Value:
    """Forget the block order: the partition as a set of blocks."""
    return fset(blocks)


def is_partition(P: Value) -> bool:
    """True iff the blocks pairwise satisfy: they meet exactly when equal.

    An empty block fails against itself, so partitions contain no empty
    blocks.
    """
    _require_set(P)
    blocks = P.payload
    for X in blocks:
        for Y in blocks:
            meets = len(intersection(X, Y).payload) > 0
            if meets != (X == Y):
                return False
    return True


def is_partition_of(P: Value, A: Value) -> bool:
    """True iff P is a partition whose blocks union to exactly A."""
    _require_set(A)
    return big_union(P) == A and is_partition(P)


def all_partitions_oracle(A: Value) -> Value:
    """All partitions of A, by filtering families of nonempty subsets.

    Mathematically this filters the powerset of the powerset of A with
    is_partition_of.  Families containing an empty block or two
    overlapping blocks can never pass the filter, so the enumeration
    prunes those branches instead of materializing the double powerset;
    each emitted family still goes through the literal predicate.
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
