import pytest

from finrel.values import V, cartesian_product, fset, is_subset, num, pair
from finrel.enumeration import all_subsets
from finrel.relations import (
    compose,
    converse,
    domain_of,
    image,
    range_of,
    relation,
    right_unique,
)
from finrel.quotients import (
    all_equivalences,
    all_partial_equivalences,
    compatible,
    identity_on,
    is_equivalence,
    kernel,
    projector,
    quotient,
)


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


def test_compatible_is_its_defining_inclusion():
    # every right-unique f over a 3x2 universe, every partial equivalence
    # P on its source and Q on its target: 27 * 15 * 5 triples
    A, B = V([1, 2, 3]), V([10, 11])
    functions = [f for f in all_subsets(cartesian_product(A, B)).payload if right_unique(f)]
    ps, qs = all_partial_equivalences(A), all_partial_equivalences(B)
    assert len(functions) * len(ps) * len(qs) == 2025
    for f in functions:
        for P in ps:
            for Q in qs:
                literal = all(
                    is_subset(image(f, image(P, fset([x]))), image(Q, image(f, fset([x]))))
                    for x in A.payload
                )
                assert compatible(f, P, Q) == literal, (f, P, Q)


def test_is_equivalence_exactly_the_enumerated_equivalences():
    A = V([1, 2, 3])
    relations = all_subsets(cartesian_product(A, A)).payload
    assert len(relations) == 512
    for carrier in all_subsets(A).payload:
        equivalences = set(all_equivalences(carrier))
        for E in relations:
            assert is_equivalence(E, carrier) == (E in equivalences), (E, carrier)


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
    from finrel.enumeration import is_partition_of

    for E in all_equivalences(V([1, 2, 3])):
        classes = range_of(projector(E))
        assert is_partition_of(classes, V([1, 2, 3]))


def test_projector_is_its_comprehension():
    universe = all_subsets(cartesian_product(V([1, 2, 3]), V([10, 11]))).payload
    assert len(universe) == 64
    for R in universe:
        for rel in (R, converse(R)):
            literal = fset(
                pair(x, image(rel, fset([x]))) for x in {p.first for p in rel.payload}
            )
            assert projector(rel) == literal, rel


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


def test_kernel_equals_its_relational_and_pointwise_definitions():
    # every right-unique relation over the 3x2 universe: the kernel is
    # f ; f^-1, and it relates exactly the points with equal f-values
    A, B = V([1, 2, 3]), V([10, 11])
    functions = [f for f in all_subsets(cartesian_product(A, B)).payload if right_unique(f)]
    assert len(functions) == 27
    for f in functions:
        k = kernel(f)
        assert k == compose(f, converse(f)), f
        pointwise = fset(
            pair(p.first, q.first) for p in f.payload for q in f.payload if p.second == q.second
        )
        assert k == pointwise, f
