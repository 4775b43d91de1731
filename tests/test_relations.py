import pytest

from finrel.values import EMPTY, UNDEFINED, V, fset, num, pair
from finrel.relations import (
    arg_max_list,
    arg_max_set,
    compose,
    converse,
    domain_of,
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
from finrel.quotients import compatible, kernel, projector, quotient
from finrel.paper import RIGHT_UNIQUE_CHARACTERIZATIONS, is_equivalence

R_EXAMPLE = relation([(0, 10), (1, 11), (1, 12)])


def test_domain_and_range():
    for R, domain, rng in [
        (relation([(0, 10), (1, 11)]), V([0, 1]), V([10, 11])),
        (relation(), EMPTY, EMPTY),
        (relation([(1, 1), (1, 2)]), V([1]), V([1, 2])),
    ]:
        assert (domain_of(R), range_of(R)) == (domain, rng)


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


def test_right_unique():
    assert right_unique(relation([(0, 10), (1, 11)]))
    assert not right_unique(R_EXAMPLE)  # duplicate key 1
    assert right_unique(relation())


def test_all_seven_characterizations_are_registered():
    assert len(RIGHT_UNIQUE_CHARACTERIZATIONS) == 7


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


def test_arg_max_list_keeps_input_order_and_rejects_empty():
    f = relation([(1, 5), (2, 9), (3, 9)])
    assert arg_max_list(f, [V(1), V(2), V(3)]) == [V(2), V(3)]  # input order preserved
    with pytest.raises(ValueError):
        arg_max_list(f, [])


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


def test_every_operator_raises_on_a_non_relation_on_every_call():
    # a views record made before the relation check would let the next call
    # through, so each operator meets the same non-relation three times
    bad = fset([num(1), pair(1, 10)])
    ok = relation([(1, 10)])
    calls = {
        "domain_of": lambda: domain_of(bad),
        "range_of": lambda: range_of(bad),
        "image": lambda: image(bad, V([1])),
        "converse": lambda: converse(bad),
        "compose left": lambda: compose(bad, ok),
        "compose right": lambda: compose(ok, bad),
        "outside": lambda: outside(bad, V([1])),
        "single_outside": lambda: single_outside(bad, 1),
        "paste left": lambda: paste(bad, ok),
        "paste right": lambda: paste(ok, bad),
        "single_paste": lambda: single_paste(bad, 1, 11),
        "right_unique": lambda: right_unique(bad),
        "eval_rel": lambda: eval_rel(bad, 1),
        "eval_rel_union": lambda: eval_rel_union(bad, 1),
        "to_function": lambda: to_function(bad),
        "arg_max_set": lambda: arg_max_set(bad, V([1])),
        "projector": lambda: projector(bad),
        "quotient R": lambda: quotient(bad, ok, ok),
        "quotient P": lambda: quotient(ok, bad, ok),
        "quotient Q": lambda: quotient(ok, ok, bad),
        "compatible R": lambda: compatible(bad, ok, ok),
        "compatible P": lambda: compatible(ok, bad, ok),
        "compatible Q": lambda: compatible(ok, ok, bad),
        "kernel": lambda: kernel(bad),
        "is_equivalence": lambda: is_equivalence(bad, V([1])),
    }
    passed = []
    for attempt in range(3):
        for name, call in calls.items():
            try:
                call()
            except TypeError as e:
                assert "non-pair member" in str(e), name
            else:
                passed.append((attempt, name))
    assert passed == []
