import pytest

from finrel.values import EMPTY, UNDEFINED, V, fset, num, pair
from finrel.relations import (
    RIGHT_UNIQUE_CHARACTERIZATIONS,
    arg_max_list,
    arg_max_set,
    compose,
    converse,
    domain_of,
    endpoints,
    eval_rel,
    eval_rel_union,
    graph,
    image,
    outside,
    paste,
    range_of,
    relation,
    right_unique,
    single_outside,
    single_paste,
    to_function,
    trivial,
)

import oracles

R_EXAMPLE = relation([(0, 10), (1, 11), (1, 12)])


def test_endpoints():
    assert endpoints(relation([(0, 10), (1, 11)])) == (V([0, 1]), V([10, 11]))
    assert endpoints(relation()) == (EMPTY, EMPTY)
    assert endpoints(relation([(1, 1), (1, 2)])) == (V([1]), V([1, 2]))


def test_image():
    assert image(R_EXAMPLE, V([1])) == V([11, 12])
    assert image(R_EXAMPLE, EMPTY) == EMPTY
    assert image(relation([(0, 10)]), V([5])) == EMPTY


def test_converse_involution():
    assert converse(relation([(0, 10)])) == relation([(10, 0)])
    assert converse(relation()) == relation()
    assert converse(converse(R_EXAMPLE)) == R_EXAMPLE


def test_compose_left_to_right():
    assert compose(relation([(1, 2)]), relation([(2, 3)])) == relation([(1, 3)])
    assert compose(R_EXAMPLE, relation()) == relation()
    assert compose(relation([(1, 2), (1, 3)]), relation([(3, 9)])) == relation([(1, 9)])


def test_outside():
    assert outside(relation([(1, 10), (2, 20)]), V([1])) == relation([(2, 20)])
    assert outside(R_EXAMPLE, EMPTY) == R_EXAMPLE
    assert outside(relation([(1, 10), (2, 10)]), V([1, 2])) == relation()
    assert single_outside(relation([(1, 10), (2, 20)]), V(1)) == relation([(2, 20)])


def test_paste():
    assert paste(relation([(1, 10), (2, 20)]), relation([(2, 21), (3, 30)])) == relation(
        [(1, 10), (2, 21), (3, 30)]
    )
    assert paste(R_EXAMPLE, relation()) == R_EXAMPLE


def test_documented_evaluation_examples():
    # pointwise evaluation before and after a pointwise update
    assert eval_rel(R_EXAMPLE, V(0)) == num(10)
    assert eval_rel(single_paste(R_EXAMPLE, 1, 13), V(1)) == num(13)


def test_eval_rel_totalized():
    assert eval_rel(R_EXAMPLE, V(1)) == UNDEFINED
    assert eval_rel(relation(), V(0)) == UNDEFINED


def test_trivial():
    assert trivial(EMPTY)
    assert trivial(V([5]))
    assert not trivial(V([1, 2]))


test_trivial_matches_subset_of_the_elem_form = oracles.checker("trivial")


def test_right_unique():
    assert right_unique(relation([(0, 10), (1, 11)]))
    assert not right_unique(R_EXAMPLE)  # duplicate key 1
    assert right_unique(relation())


def test_characterizations_present_and_agree_on_samples():
    assert len(RIGHT_UNIQUE_CHARACTERIZATIONS) == 7
    oracles.check("right_unique")


def test_eval_rel_union():
    assert eval_rel_union(relation([(1, V([7, 8]))]), V(1)) == V([7, 8])
    assert eval_rel_union(relation([(1, V([7]))]), V(2)) == EMPTY
    assert eval_rel_union(relation([(1, V([7])), (1, V([8]))]), V(1)) == V([7, 8])
    with pytest.raises(ValueError):
        eval_rel_union(relation([(1, 7)]), V(1))


def test_graph():
    g = graph(V([0, 1, 2]), lambda x: num(10))
    assert eval_rel(g, V(1)) == num(10)
    assert graph(EMPTY, lambda x: x) == relation()
    assert graph(V([1, 2]), lambda x: x) == relation([(1, 1), (2, 2)])
    assert right_unique(g)


def test_graph_of_a_partial_callable():
    table = {num(1): num(5)}.__getitem__
    assert graph(V([1]), table) == relation([(1, 5)])
    with pytest.raises(ValueError):
        graph(V([1, 2]), table)


def test_to_function_roundtrip():
    f = to_function(R_EXAMPLE)
    assert f(V(0)) == num(10)
    assert f(V(1)) == UNDEFINED


def test_arg_max():
    f = relation([(1, 5), (2, 9), (3, 9)])
    assert arg_max_set(f, V([1, 2, 3])) == V([2, 3])
    const = relation([(1, 4), (2, 4)])
    assert arg_max_set(const, V([1, 2])) == V([1, 2])
    assert arg_max_set(f, V([1])) == V([1])
    with pytest.raises(ValueError):
        arg_max_set(f, EMPTY)
    with pytest.raises(ValueError):
        arg_max_set(f, V([1, 9]))  # outside the domain


def test_arg_max_list_matches_set():
    f = relation([(1, 5), (2, 9), (3, 9)])
    assert arg_max_list(f, [V(1), V(2), V(3)]) == [V(2), V(3)]  # input order preserved
    with pytest.raises(ValueError):
        arg_max_list(f, [])
    oracles.check("arg_max_list")


def test_relation_rejects_non_pairs():
    with pytest.raises(TypeError):
        relation([num(1)])
    with pytest.raises(TypeError):
        domain_of(V([1, 2]))


def test_domain_range_family():
    P = relation([(1, 10)])
    Q = relation([(1, 11), (2, 12)])
    assert domain_of(paste(P, Q)) == V([1, 2])
    assert range_of(paste(P, Q)) == V([11, 12])


test_eval_rel_is_the_elem_of_the_point_image = oracles.checker("eval_rel")
test_domain_of_is_the_set_of_first_components = oracles.checker("domain_of")
test_compose_is_its_comprehension = oracles.checker("compose")


def test_repeated_and_equal_relations_evaluate_alike():
    R = relation([(1, 10), (2, 20), (2, 21), (3, 30)])
    twin = relation([(3, 30), (2, 21), (2, 20), (1, 10)])
    assert twin == R and twin is not R
    S = relation([(10, "a"), (20, "b"), (21, "c")])
    for x in [1, 2, 3, 4]:
        first = eval_rel(R, x)
        assert eval_rel(R, x) == first
        assert eval_rel(twin, x) == first
    assert compose(R, S) == compose(R, S) == compose(twin, S) == relation(
        [(1, "a"), (2, "b"), (2, "c")]
    )
    assert compose(S, converse(R)) == compose(S, converse(twin))


def test_non_relation_raises_on_every_call():
    bad = fset([num(1), pair(1, 10)])
    for _ in range(3):
        with pytest.raises(TypeError):
            eval_rel(bad, 1)
        with pytest.raises(TypeError):
            compose(relation([(0, 1)]), bad)
        with pytest.raises(TypeError):
            domain_of(bad)
