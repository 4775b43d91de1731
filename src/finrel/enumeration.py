"""Enumeration of injections and set partitions.

injections_alg and all_partitions_list are the computable route: plain
structural recursion producing a deterministic list, of pair lists for
injections and of block lists for partitions.  The oracles that
realize the defining predicates by filtering candidate families live in
finrel.paper, except injections_oracle: the benchmark in perfbench/
traces it by its path in this module (its survivor ratio), so it stays
here until that benchmark is re-keyed.  It is exponential and capped.

The partition recursion works by induction on the elements: a partition
of X + {x} is obtained from a partition P of X either by adding {x} as a
fresh block or by inserting x into exactly one existing block of P.
Each level builds each distinct block once: one table per call maps a
block to that block + {x}, so equal blocks in the output are one object
and the next level finds them by identity.  The table is local to the
call, so concurrent calls share nothing; one partition goes in as [blocks].
Partitions are handled as lists of blocks while being built (iteration is
simpler over lists), and injections as lists of pairs; fset(blocks) or
fset(pairs), a finished list's set, is the lossless direction.  `finrel
enumerate` prints that set without building it: for elements listed in
canonical order, every block list and every pair list comes in canonical
order, so encoding.serialize_elements writes the set's text from the
list.

Per output both recursions do only int and list work.  Each validates its
listed elements once per call (_distinct) and then runs from the last
element to the first.  The injection levels below the outermost carry,
next to each pair list, an int whose bit j is set when Y.payload[j] is
taken, so a target is tested free with one `&` and no set is built.  Every
list they return is sized exactly, [step] + R or one copy of the blocks
changed in place, since a list display with * over-allocates, and the
lists are most of the memory a large enumeration holds.
"""

from __future__ import annotations

from itertools import count

from .errors import CapExceeded
from .values import (
    EMPTY,
    Value,
    canonicalize,
    fset,
    pair,
    _require_set,
    _set_of_sorted,
    _set_plus,
)
from .relations import relation

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


def injections_alg(xs: list, Y: Value) -> list[list]:
    """All injections from the listed elements into Y, constructively, each
    as its list of pairs; fset(pairs) is the injection as a set.

    Induction on the list, from its last element to its first: every
    partial injection of the tail is extended with each still-unused
    element of Y, taken in canonical order.  The output order is
    deterministic and duplicate-free.

    When xs is in canonical order, each list is in canonical order too,
    the order of its set of pairs: xs[0] is less than every element of
    the tail, and pairs with distinct first components compare by those,
    so the pair of xs[0], put first, is less than every other pair.  For
    xs in another order this does not hold."""
    xs = _distinct(xs)
    _require_set(Y)
    if len(xs) > len(Y.payload):  # no injection exists; build no level
        return []
    # payload is already the sorted element list, and bit j of a mask is
    # set when Y.payload[j] is taken; xs[k] is in no tail injection's
    # domain, so [step] + R is again an injection, and each pair of xs[k]
    # is built once and shared by every list that holds it
    lists, masks = [[]], [0]
    for k in reversed(range(len(xs))):
        steps = [(1 << j, pair(xs[k], y)) for j, y in enumerate(Y.payload)]
        lists = [[step] + R
                 for R, used in zip(lists, masks) for bit, step in steps if not used & bit]
        if k:  # the outermost level keeps no masks
            masks = [used | bit for used in masks for bit, _ in steps if not used & bit]
    return lists


def injections_oracle(X: Value, Y: Value) -> Value:
    """All injections from X into Y, by filtering the powerset of X x Y.

    Pool index k*|Y| + j is the pair (x_k, y_j), so row k of a mask is the
    |Y| bits of x_k's pairs.  A candidate survives when every row has one
    pair (its domain is X and it is right-unique) and no column is hit
    twice (its converse is right-unique).
    """
    _require_set(X)
    _require_set(Y)
    pool = [(x, y) for x in X.payload for y in Y.payload]
    if len(pool) > INJECTION_ORACLE_CAP:
        raise CapExceeded(
            f"injection oracle over {len(pool)} candidate pairs (cap {INJECTION_ORACLE_CAP})"
        )
    width = len(Y.payload)
    full = (1 << width) - 1
    shifts = [k * width for k in range(len(X.payload))]
    survivors = []
    for mask in range(1 << len(pool)):
        hit = 0
        for shift in shifts:
            row = mask >> shift & full
            if not row or row & row - 1 or row & hit:
                break
            hit |= row
        else:
            survivors.append(relation([pool[i] for i in range(len(pool)) if mask >> i & 1]))
    return fset(survivors)


def all_coarser_partitions_with_list(new_el, partitions: list[list]) -> list[list]:
    """Each partition extended with a fresh element, concatenated: one new
    singleton block, then block i enlarged, by position, for each i.  One
    partition goes in as [blocks]; fset gives each result's set of blocks.

    Equal blocks of the input give one enlarged block, built once, and
    every output partition shares the one singleton {new_el}: the table
    plus maps each block met to that block + {new_el}, starting with the
    empty set, whose entry is the singleton.  new_el is read at the first
    partition, so no partitions give [] whatever it is."""
    out = []
    plus = None
    for blocks in partitions:
        if plus is None:
            new_el = canonicalize(new_el)
            plus = {EMPTY: _set_of_sorted((new_el,))}
        blocks = list(blocks)
        out.append([plus[EMPTY]] + blocks)
        for i, b in enumerate(blocks):
            # a raw block may be unhashable, and only sets are keys: a block
            # that is not a set misses and is refused below
            enlarged = plus.get(b) if type(b) is Value else None
            if enlarged is None:
                enlarged = _set_plus(_require_set(b, "block"), new_el)
                if enlarged is b:  # _set_plus returns b itself when new_el is in it
                    raise ValueError(f"element already present: {new_el!r}")
                plus[b] = enlarged
            # one exact copy, so no list is over-allocated; the first block
            # is replaced in place, since deleting a list's only item frees
            # its room and the insert after it would over-allocate
            moved = blocks.copy()
            if i:
                del moved[i]
                moved.insert(0, enlarged)
            else:
                moved[0] = enlarged
            out.append(moved)
    return out


def all_partitions_list(xs: list) -> list[list]:
    """Every partition of the listed elements, once each, as block lists.

    When xs is in canonical order, each list is in canonical order too,
    the order of its set of blocks: by induction, xs[0] is less than every
    element of the tail, so the block that holds it, put first, is less
    than every other block.  For xs in another order this does not hold."""
    partitions = [[]]
    for x in reversed(_distinct(xs)):
        partitions = all_coarser_partitions_with_list(x, partitions)
    return partitions
