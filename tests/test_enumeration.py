import math
import sys

import pytest

from finrel.errors import CapExceeded
from finrel.values import EMPTY, V, fset, num, pair, sym
from finrel.relations import relation
from finrel.enumeration import (
    CAP_ENUMERATE_LINES,
    MAX_PARTITION_ELEMENTS,
    _bell,
    _perm_exceeds,
    all_coarser_partitions_with_list,
    all_partitions_list,
    all_subsets,
    injections_alg,
    injections_oracle,
)
from finrel.paper import (
    all_partitions_oracle,
    insert_into_member_list,
    is_partition,
    is_partition_of,
)

A, B, C = sym("a"), sym("b"), sym("c")


def test_all_subsets():
    assert all_subsets(EMPTY) == fset([EMPTY])
    assert all_subsets(V([1])) == fset([EMPTY, V([1])])
    assert len(all_subsets(V([1, 2, 3])).elements) == 8


def test_injections_oracle_examples():
    assert injections_oracle(EMPTY, V([1, 2])) == fset([relation()])
    assert len(injections_oracle(fset([A, B]), V([1, 2, 3])).elements) == 6
    assert injections_oracle(fset([A, B]), V([1])) == EMPTY  # pigeonhole


def _literal_injections_oracle(X, Y):
    """The defining filter over every subset of X x Y, on sets of the
    chosen pairs' components."""
    pool = [(x, y) for x in X.payload for y in Y.payload]
    xset = frozenset(X.payload)
    yset = frozenset(Y.payload)
    survivors = []
    for mask in range(1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        dom = {x for x, _ in chosen}
        rng = {y for _, y in chosen}
        if dom == xset and rng <= yset and len(dom) == len(rng) == len(chosen):
            survivors.append(relation(chosen))
    return fset(survivors)


def test_injections_oracle_is_its_literal_filter():
    xs, ys = [A, B, C], [num(1), sym("a"), num(0), V([1])]
    for m in range(4):
        for n in range(5):
            X, Y = fset(xs[:m]), fset(ys[:n])
            assert injections_oracle(X, Y) == _literal_injections_oracle(X, Y), (m, n)
            assert len(injections_oracle(X, Y).elements) == math.perm(n, m)


def test_injections_alg_examples():
    assert injections_alg([], V([1, 2])) == [[]]
    assert injections_alg([A], V([1])) == [[pair(A, 1)]]
    got = [fset(pairs) for pairs in injections_alg([A, B], V([1, 2, 3]))]
    assert fset(got) == injections_oracle(fset([A, B]), V([1, 2, 3]))
    assert len(got) == len(set(got))


def test_injections_alg_requires_distinct():
    with pytest.raises(ValueError):
        injections_alg([A, A], V([1, 2]))


def test_injections_empty_target():
    # beyond the stated hypothesis (nonempty target), both routes also
    # agree at the empty target in this implementation
    assert injections_alg([A], EMPTY) == []
    assert injections_oracle(fset([A]), EMPTY) == EMPTY
    assert injections_alg([], EMPTY) == [[]]
    assert injections_oracle(EMPTY, EMPTY) == fset([relation()])


def test_insert_into_member_list():
    assert insert_into_member_list(V(3), [V([1]), V([2])], V([2])) == [V([2, 3]), V([1])]
    assert insert_into_member_list(V(3), [V([1])], V([1])) == [V([1, 3])]
    assert insert_into_member_list(V(9), [V([1]), V([2])], V([1])) == [V([1, 9]), V([2])]
    with pytest.raises(ValueError):
        insert_into_member_list(V(3), [V([1])], V([2]))


def test_coarser_partitions():
    # one partition goes in as the family [blocks]
    assert all_coarser_partitions_with_list(V(3), [[V([1]), V([2])]]) == [
        [V([3]), V([1]), V([2])],
        [V([1, 3]), V([2])],
        [V([2, 3]), V([1])],
    ]
    assert all_coarser_partitions_with_list(V(1), [[]]) == [[V([1])]]
    assert all_coarser_partitions_with_list(V(2), [[V([1])]]) == [
        [V([2]), V([1])], [V([1, 2])]
    ]
    with pytest.raises(ValueError):
        all_coarser_partitions_with_list(V(1), [[V([1])]])
    with pytest.raises(TypeError):
        all_coarser_partitions_with_list(V(2), [[V([1]), pair(1, 3)]])


def test_all_coarser_partitions_concats():
    ps = [[V([1])], [V([2])]]
    out = all_coarser_partitions_with_list(V(3), ps)
    assert out == [q for blocks in ps for q in all_coarser_partitions_with_list(V(3), [blocks])]
    assert all_coarser_partitions_with_list("not read", []) == []


# each bad block comes after a valid block that is already in the table of
# enlarged blocks: the partition before it, or the same partition, has it
@pytest.mark.parametrize(
    "bad", [[1, 3], 3, (1, 3), pair(1, 3)], ids=["list", "int", "tuple", "pair"]
)
def test_a_block_that_is_not_a_set_is_refused_as_before(bad):
    message = f"block must be a finite set, got {bad!r}"
    with pytest.raises(TypeError) as raised:
        all_coarser_partitions_with_list(V(2), [[V([1]), bad]])
    assert str(raised.value) == message
    with pytest.raises(TypeError) as raised:
        all_coarser_partitions_with_list(V(2), [[V([1])], [V([1]), bad]])
    assert str(raised.value) == message


def test_a_block_that_holds_the_new_element_is_refused_as_before():
    message = "element already present: 2"
    for blocks in ([V([1]), V([2, 3])], [EMPTY, V([1]), V([2])]):
        with pytest.raises(ValueError, match=message):
            all_coarser_partitions_with_list(V(2), [blocks])
        with pytest.raises(ValueError, match=message):
            all_coarser_partitions_with_list(V(2), [[V([1])], blocks])


@pytest.mark.parametrize("n, distinct", [(6, 63), (9, 511)])
def test_each_distinct_block_is_built_once(n, distinct):
    # equal blocks are one object, however the hash seed orders the table
    blocks = [b for p in all_partitions_list(list(range(n))) for b in p]
    assert len(set(blocks)) == len({id(b) for b in blocks}) == distinct


def test_each_injection_pair_is_built_once():
    # equal pairs are one object, so the writer writes each pair's text once
    ps = [p for pairs in injections_alg([A, B, C], V([1, 2, 3, 4, 5])) for p in pairs]
    assert len(set(ps)) == len({id(p) for p in ps}) == 15


def test_each_listed_partition_and_injection_is_sized_exactly():
    # a list display with * over-allocates, and the lists are most of the
    # memory a large `finrel enumerate` holds
    partitions = all_partitions_list(list(range(7)))
    family = all_partitions_list(list(range(6)))
    for lists in (partitions, all_coarser_partitions_with_list(6, family),
                  injections_alg([A, B, C, sym("d")], V([1, 2, 3, 4, 5, 6]))):
        assert all(sys.getsizeof(lst) == sys.getsizeof([None] * len(lst)) for lst in lists)
    assert len(partitions) == 877


def test_all_partitions_list_examples():
    assert all_partitions_list([]) == [[]]
    assert all_partitions_list([A]) == [[fset([A])]]
    with pytest.raises(ValueError):
        all_partitions_list([A, A])


def test_bell_counts_constructive():
    pool = [sym(s) for s in "abcdefg"]
    counts = [len(all_partitions_list(pool[:n])) for n in range(8)]
    assert counts == [1, 1, 2, 5, 15, 52, 203, 877]
    assert [_bell(n) for n in range(8)] == counts
    assert (_bell(10), _bell(11)) == (115_975, 678_570)


def test_is_partition():
    assert is_partition(V([[1], [2, 3]]))
    assert not is_partition(V([[], [1]]))  # empty block
    assert not is_partition(V([[1, 2], [2, 3]]))  # overlap
    assert is_partition(EMPTY)


def test_is_partition_of():
    assert is_partition_of(V([[1], [2]]), V([1, 2]))
    assert not is_partition_of(V([[1]]), V([1, 2]))
    assert is_partition_of(EMPTY, EMPTY)


def test_oracle_cap():
    with pytest.raises(CapExceeded):
        all_partitions_oracle(fset(range(7)))
    with pytest.raises(CapExceeded):
        injections_oracle(fset(range(5)), fset(range(10, 15)))


def test_partition_element_cap_is_derived_from_bell():
    assert _bell(MAX_PARTITION_ELEMENTS) <= CAP_ENUMERATE_LINES < _bell(MAX_PARTITION_ELEMENTS + 1)


def test_perm_exceeds_equals_the_full_count():
    for m in range(13):
        for n in range(13):
            for cap in (0, 1, 5, 720, 150_000):
                assert _perm_exceeds(m, n, cap) == (math.perm(m, n) > cap), (m, n, cap)
    assert _perm_exceeds(6000, 3000, CAP_ENUMERATE_LINES)
    assert not _perm_exceeds(2, 1100, CAP_ENUMERATE_LINES)


def test_injections_into_a_smaller_target_are_none_without_recursing():
    assert injections_alg(list(range(2000)), V([1, 2])) == []
