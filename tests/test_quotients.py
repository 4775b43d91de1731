import sys
import threading

import pytest

from finrel.values import V, fset, num, pair
from finrel.relations import (
    _by_first,
    compose,
    converse,
    domain_of,
    range_of,
    relation,
    right_unique,
)
from finrel.quotients import (
    _classes,
    all_equivalences,
    all_partial_equivalences,
    compatible,
    identity_on,
    kernel,
    projector,
    quotient,
)

from finrel.paper import is_equivalence, is_partition_of

import oracles


def total_equivalence(carrier):
    return relation((a, b) for a in carrier.elements for b in carrier.elements)


def test_projector_examples():
    assert projector(relation([(1, 1), (1, 2), (2, 2)])) == relation(
        [(V(1), V([1, 2])), (V(2), V([2]))]
    )
    assert projector(relation()) == relation()
    assert projector(identity_on(V([1, 2]))) == relation([(V(1), V([1])), (V(2), V([2]))])


def test_quotient_identity_case():
    ident = identity_on(V([1]))
    assert quotient(ident, ident, ident) == relation([(V([1]), V([1]))])


def test_quotient_empty_relation():
    P = total_equivalence(V([1, 2]))
    Q = identity_on(V([10]))
    assert quotient(relation(), P, Q) == relation()


def test_quotient_collapses_classes():
    # brute force of the defining comprehension: the unique surviving
    # class pair is ({1,2}, {10})
    R = relation([(1, 10), (2, 10)])
    P = total_equivalence(V([1, 2]))
    Q = identity_on(V([10]))
    assert quotient(R, P, Q) == relation([(V([1, 2]), V([10]))])


def test_compatible_examples():
    R = relation([(1, 10), (2, 20)])
    assert compatible(R, identity_on(domain_of(R)), identity_on(range_of(R)))
    # coarse domain classes but fine range classes: inclusion fails at x=1
    assert not compatible(R, total_equivalence(V([1, 2])), identity_on(V([10, 20])))
    assert compatible(relation(), total_equivalence(V([1])), identity_on(V([1])))


test_compatible_is_its_defining_inclusion = oracles.checker("compatible")
test_is_equivalence_exactly_the_enumerated_equivalences = oracles.checker("is_equivalence")


def test_kernel_examples():
    assert kernel(relation([(1, 10), (2, 10)])) == total_equivalence(V([1, 2]))
    assert kernel(relation([(1, 10), (2, 20)])) == identity_on(V([1, 2]))
    assert kernel(relation()) == relation()
    with pytest.raises(ValueError):
        kernel(relation([(1, 10), (1, 11)]))


def test_is_equivalence():
    assert is_equivalence(identity_on(V([1, 2])), V([1, 2]))
    assert not is_equivalence(relation([(1, 2)]), V([1, 2]))
    assert not is_equivalence(identity_on(V([1])), V([1, 2]))  # not reflexive at 2


def test_kernel_is_equivalence_on_domain():
    for f in [relation([(1, 5), (2, 5), (3, 6)]), relation([(1, 5)]), relation()]:
        assert is_equivalence(kernel(f), domain_of(f))


def test_quotient_well_definedness_instance():
    # constant function is compatible with the total equivalence
    f = relation([(1, 10), (2, 10)])
    P = total_equivalence(V([1, 2]))
    Q = identity_on(V([10]))
    assert compatible(f, P, Q)
    assert right_unique(quotient(f, P, Q))


def test_incompatible_quotient_can_lose_right_uniqueness():
    f = relation([(1, 10), (2, 20)])
    P = total_equivalence(V([1, 2]))
    Q = identity_on(V([10, 20]))
    assert not compatible(f, P, Q)
    q = quotient(f, P, Q)
    assert q == relation([(V([1, 2]), V([10])), (V([1, 2]), V([20]))])
    assert not right_unique(q)


def test_quotient_factorization_instance():
    r = relation([(1, 10), (2, 10), (3, 11)])
    p = total_equivalence(V([1, 2]))
    q = identity_on(V([10, 11]))
    composed = compose(compose(converse(projector(p)), r), projector(q))
    assert quotient(r, p, q) == composed


def test_equivalence_enumeration_counts():
    # Bell numbers: equivalences on an n-set, partial ones on subsets
    assert len(all_equivalences(V([1, 2, 3]))) == 5
    assert len(all_partial_equivalences(V([1, 2, 3]))) == 15
    for E in all_partial_equivalences(V([1, 2])):
        assert is_equivalence(E, domain_of(E))


def test_projector_classes_partition_carrier():

    for E in all_equivalences(V([1, 2, 3])):
        classes = range_of(projector(E))
        assert is_partition_of(classes, V([1, 2, 3]))


test_projector_is_its_comprehension = oracles.checker("projector")


def test_repeated_and_equal_relations_project_alike():
    R = relation([(1, 1), (1, 2), (2, 2), (3, 1)])
    twin = relation([(3, 1), (2, 2), (1, 2), (1, 1)])
    assert twin == R and twin is not R
    first = projector(R)
    assert projector(R) == first
    assert projector(twin) == first
    P = total_equivalence(V([1, 2]))
    Q = identity_on(V([1, 2]))
    assert quotient(R, P, Q) == quotient(twin, P, Q) == quotient(R, P, Q)
    assert compatible(R, P, Q) == compatible(twin, P, Q)


def _fresh_sweep(name):
    """Each relation of a row's sweep, with an equal copy that has no views
    built yet."""
    for cases in oracles.ROW[name].sweep().values():
        for (R,) in cases:
            yield R, fset(R.payload)


# each view, and what it must equal; the class tuple is the sorted
# classes of the quotient oracle
VIEWS = {
    "projector": (projector, oracles.ROW["projector"].oracle),
    "converse": (converse, oracles.ROW["converse"].oracle),
    "classes": (_classes, lambda R: tuple(sorted(oracles._classes(R)))),
}


@pytest.mark.parametrize("name", VIEWS)
def test_views_are_built_once_and_agree_with_the_oracle(name):
    fast, oracle = VIEWS[name]
    for R, fresh in _fresh_sweep("projector"):
        first = fast(fresh)
        assert fast(fresh) is first
        assert first == oracle(R)


def test_a_projector_does_not_depend_on_the_index_being_built_first():
    for R, fresh in _fresh_sweep("projector"):
        indexed = fset(R.payload)
        _by_first(indexed)
        assert projector(fresh) == projector(indexed) == oracles.ROW["projector"].oracle(R)


def test_threads_racing_to_build_views_get_equal_ones():
    # eight passes, so that a view published before it is complete shows in
    # nearly every run
    shared = [case for _ in range(8) for case in _fresh_sweep("projector")]
    barrier = threading.Barrier(2, timeout=10)
    built = ([], [])

    def build(mine):
        for _, fresh in shared:
            barrier.wait()  # both threads start on the same fresh relation
            # the quotient builds the index, the projector and the classes
            mine.append((quotient(fresh, fresh, fresh), projector(fresh), converse(fresh)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave the builds
    try:
        threads = [threading.Thread(target=build, args=(mine,)) for mine in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for mine in built:
        assert len(mine) == len(shared)
        for (R, _), (quotiented, projected, flipped) in zip(shared, mine):
            assert quotiented == oracles._literal_quotient(R, R, R)
            assert projected == oracles.ROW["projector"].oracle(R)
            assert flipped == oracles.ROW["converse"].oracle(R)


def test_non_relations_raise_on_every_call():
    bad = fset([num(1), pair(1, 1)])
    ident = identity_on(V([1]))
    for _ in range(3):
        with pytest.raises(TypeError):
            projector(bad)
        with pytest.raises(TypeError):
            quotient(ident, bad, ident)
        with pytest.raises(TypeError):
            compatible(ident, ident, bad)
        with pytest.raises(TypeError):
            is_equivalence(bad, V([1]))



test_kernel_equals_its_relational_and_pointwise_definitions = oracles.checker("kernel")
