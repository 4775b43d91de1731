import math
from itertools import combinations

import pytest

from finrel.errors import CapExceeded
from finrel.values import EMPTY, V, _set_plus, canonicalize, fset, pair, rat, sym, union
from finrel.relations import converse, paste, relation, right_unique
from finrel.enumeration import (
    CAP_ENUMERATE_LINES,
    MAX_PARTITION_ELEMENTS,
    _bell,
    _perm_exceeds,
    all_coarser_partitions_with_list,
    all_partitions_list,
    all_partitions_oracle,
    all_subsets,
    coarser_partitions_with_list,
    injections_alg,
    injections_oracle,
    insert_into_member_list,
    is_partition,
    is_partition_of,
    partition_as_set,
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


def test_injections_alg_examples():
    assert injections_alg([], V([1, 2])) == [relation()]
    assert injections_alg([A], V([1])) == [relation([(A, 1)])]
    got = injections_alg([A, B], V([1, 2, 3]))
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
    assert injections_alg([], EMPTY) == [relation()]
    assert injections_oracle(EMPTY, EMPTY) == fset([relation()])


def test_injection_members_are_injective():
    for R in injections_oracle(fset([A, B]), V([1, 2, 3])).elements:
        assert right_unique(R) and right_unique(converse(R))


def test_insert_into_member_list():
    assert insert_into_member_list(V(3), [V([1]), V([2])], V([2])) == [V([2, 3]), V([1])]
    assert insert_into_member_list(V(3), [V([1])], V([1])) == [V([1, 3])]
    assert insert_into_member_list(V(9), [V([1]), V([2])], V([1])) == [V([1, 9]), V([2])]
    with pytest.raises(ValueError):
        insert_into_member_list(V(3), [V([1])], V([2]))


def test_coarser_partitions():
    assert coarser_partitions_with_list(V(3), [V([1]), V([2])]) == [
        [V([3]), V([1]), V([2])],
        [V([1, 3]), V([2])],
        [V([2, 3]), V([1])],
    ]
    assert coarser_partitions_with_list(V(1), []) == [[V([1])]]
    assert coarser_partitions_with_list(V(2), [V([1])]) == [[V([2]), V([1])], [V([1, 2])]]
    with pytest.raises(ValueError):
        coarser_partitions_with_list(V(1), [V([1])])


def test_all_coarser_partitions_concats():
    ps = [[V([1])], [V([2])]]
    out = all_coarser_partitions_with_list(V(3), ps)
    assert out == coarser_partitions_with_list(V(3), ps[0]) + coarser_partitions_with_list(
        V(3), ps[1]
    )


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


def test_oracle_matches_literal_double_powerset():
    # the pruned oracle equals the literal filter of the double powerset
    for n in range(4):
        ground = fset([sym(s) for s in "abc"][:n])
        literal = fset(
            fam
            for fam in all_subsets(all_subsets(ground)).elements
            if is_partition_of(fam, ground)
        )
        assert all_partitions_oracle(ground) == literal


def test_oracle_matches_constructive():
    pool = [sym(s) for s in "abcd"]
    for n in range(5):
        ground = fset(pool[:n])
        listed = [partition_as_set(p) for p in all_partitions_list(pool[:n])]
        assert fset(listed) == all_partitions_oracle(ground)
        assert len(listed) == len(set(listed))


def test_oracle_cap():
    with pytest.raises(CapExceeded):
        all_partitions_oracle(fset(range(7)))
    with pytest.raises(CapExceeded):
        injections_oracle(fset(range(5)), fset(range(10, 15)))


def test_is_partition_of_equals_brute_force_count():
    # every family of subsets of 3 atoms against every carrier within them
    atoms = V(["a", "b", "c"])
    families = all_subsets(all_subsets(atoms)).payload
    carriers = all_subsets(atoms).payload
    assert (len(families), len(carriers)) == (256, 8)
    for A in carriers:
        for P in families:
            blocks = P.payload
            brute = (
                all(sum(x in b.payload for b in blocks) == 1 for x in A.payload)
                and all(b.payload for b in blocks)
                and all(x in A.payload for b in blocks for x in b.payload)
            )
            assert is_partition_of(P, A) == brute, (P, A)


# ---------------------------------------------------------------------------
# in-order insertion against the union- and paste-based constructions it
# replaced; the copies below are those constructions, kept as oracles

# one element of every kind, in an order that is not the canonical one
MIXED = [sym("é"), V(0), pair("a", 1), rat(-1, 2), EMPTY, sym("a"), V([1]), V(7)]


def _union_insert(new_el, blocks: list, target) -> list:
    new_el = canonicalize(new_el)
    target = canonicalize(target)
    for idx, b in enumerate(blocks):
        if b == target:
            return [union(target, fset([new_el]))] + blocks[:idx] + blocks[idx + 1 :]
    raise ValueError(f"target block not present: {target!r}")


def _paste_injections(xs: list, Y) -> list:
    xs = [canonicalize(x) for x in xs]
    if not xs:
        return [fset()]
    head, rest = xs[0], xs[1:]
    out = []
    for R in _paste_injections(rest, Y):
        used = {p.second for p in R.payload}
        for y in Y.payload:
            if y not in used:
                out.append(paste(R, relation([(head, y)])))
    return out


def _subsets(pool: list):
    for k in range(len(pool) + 1):
        yield from combinations(pool, k)


def test_set_plus_equals_union_with_a_singleton():
    for members in _subsets(MIXED):
        s = fset(members)
        for x in MIXED:
            got = _set_plus(s, x)
            assert got == union(s, fset([x])), (s, x)
            assert got.payload == union(s, fset([x])).payload
            if x in members:
                assert got is s


def test_insert_into_member_list_equals_union_original():
    for blocks in all_partitions_list(MIXED[:4]):
        for target in blocks:
            for new_el in MIXED:  # the first four are already in some block
                got = insert_into_member_list(new_el, blocks, target)
                want = _union_insert(new_el, blocks, target)
                assert [b.payload for b in got] == [b.payload for b in want]


def test_injections_alg_equals_paste_original():
    for n_sources in range(4):
        for n_targets in range(5):
            xs, Y = MIXED[:n_sources], fset(MIXED[3 : 3 + n_targets])
            got = injections_alg(xs, Y)
            want = _paste_injections(xs, Y)
            assert [R.payload for R in got] == [R.payload for R in want], (xs, Y)


def test_blocks_enlarged_by_position_equal_the_member_list_insertion():
    # every partition of up to 6 mixed elements, extended by the next one
    for n in range(7):
        new_el = MIXED[n]
        for blocks in all_partitions_list(MIXED[:n]):
            got = coarser_partitions_with_list(new_el, blocks)
            want = [[fset([new_el])] + blocks] + [
                insert_into_member_list(new_el, blocks, b) for b in blocks
            ]
            assert [[b.payload for b in p] for p in got] == [[b.payload for b in p] for p in want]


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
