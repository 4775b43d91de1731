"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything asserts exact equality (all arithmetic is
exact rationals); each criterion also enforces its time budget.
"""

import time
from fractions import Fraction

from finrel.values import V, fset, num
from finrel.relations import eval_rel, relation, single_paste
from finrel.enumeration import injections_alg, injections_oracle
from finrel.auctions import (
    clear_vickrey,
    dominant_strategy_counterexample,
    first_price_single_good,
    make_instance,
)
from finrel.laws import LawConfig, _oracle_best_value, run_law
from finrel.paper import all_partitions_oracle, won_value

FULL = LawConfig("full", 0)


def _finish(number: int, name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {number:2d} ({name}): PASS in {elapsed:.3f}s (budget {budget:g}s)")


def test_criterion_01_evaluation_examples():
    R = relation([(0, 10), (1, 11), (1, 12)])
    eval_rel(R, V(0))  # warm the path before timing
    started = time.perf_counter()
    assert eval_rel(R, V(0)) == num(10)
    assert eval_rel(single_paste(R, 1, 13), V(1)) == num(13)
    _finish(1, "evaluation examples", started, 0.001)


def test_criterion_02_right_uniqueness_suite():
    started = time.perf_counter()
    chars = run_law("right_unique_characterizations", FULL)
    assert chars.passed and chars.cases == 64
    card = run_law("right_unique_cardinality", FULL)
    assert card.passed and card.cases == 64
    _finish(2, "right-uniqueness formulations", started, 1.0)


def test_criterion_03_paste_associativity():
    started = time.perf_counter()
    report = run_law("paste_associative", FULL)
    assert report.passed
    assert report.cases == 16**3 + 10000  # exhaustive 2x2 plus seeded 4x4
    _finish(3, "paste associativity", started, 10.0)


def test_criterion_04_injection_equivalence():
    started = time.perf_counter()
    report = run_law("injections_match_oracle", FULL)
    assert report.passed
    # spot counts: falling factorials, including the pigeonhole zero
    a, b = "a", "b"
    assert len(injections_oracle(V([a, b]), V([1, 2, 3])).elements) == 6
    assert len(injections_alg([V(a), V(b)], V([1, 2, 3]))) == 6
    assert injections_oracle(V([a, b]), V([1])).elements == ()
    assert len(injections_oracle(V([a]), V([1, 2, 3, 4])).elements) == 4
    _finish(4, "injection enumeration equivalence", started, 30.0)


def test_criterion_05_partition_equivalence():
    started = time.perf_counter()
    report = run_law("partitions_match_oracle", FULL)
    assert report.passed and report.cases == 6  # sizes 0 through 5
    pool = [V(s) for s in ("a", "b", "c", "d", "e")]
    oracle_counts = [
        len(all_partitions_oracle(fset(pool[:n])).elements) for n in range(6)
    ]
    assert oracle_counts == [1, 1, 2, 5, 15, 52]
    _finish(5, "partition enumeration equivalence", started, 60.0)


def test_criterion_06_quotient_well_definedness():
    started = time.perf_counter()
    preserved = run_law("quotient_preserves_right_unique", FULL)
    assert preserved.passed
    assert preserved.cases == 27 * 15 * 5  # right-unique maps x partial equivalences
    necessity = run_law("compatibility_necessity", FULL)
    assert necessity.passed and necessity.counterexample is not None
    _finish(6, "quotient well-definedness", started, 60.0)


def test_criterion_07_quotient_factorization():
    started = time.perf_counter()
    report = run_law("quotient_factorization", FULL)
    assert report.passed
    assert report.cases == 512 * 15 * 15  # all relations x partial equivalences
    _finish(7, "quotient factorization", started, 60.0)


def test_criterion_08_second_price_dominance():
    started = time.perf_counter()
    dominant = run_law("second_price_dominant", FULL)
    assert dominant.passed and dominant.cases == 75  # 15 grids x (2+3) bidders
    mutant = run_law("first_price_not_dominant", FULL)
    assert mutant.passed
    m = first_price_single_good(V([1, 2]), V([0, 1, 2]), V(1))
    cx = dominant_strategy_counterexample(m.bidder, m.alloc, m.price)
    assert cx is not None
    _finish(8, "second-price dominance", started, 60.0)


def test_criterion_09_reduced_price_pipeline():
    started = time.perf_counter()
    compat = run_law("reduced_bid_kernel_compatible", FULL)
    assert compat.passed and compat.cases == 75
    decomposition = run_law("vickrey_payment_decomposition", FULL)
    assert decomposition.passed and decomposition.cases == 30
    _finish(9, "reduced price pipeline", started, 60.0)


def test_criterion_10_combinatorial_clearing():
    started = time.perf_counter()
    bounds = run_law("vcg_payment_bounds", FULL)
    assert bounds.passed and bounds.cases == 200
    oracle = run_law("vcg_matches_oracle", FULL)
    assert oracle.passed and oracle.cases == 200

    inst = make_instance(
        V(["g1", "g2"]),
        V([1, 2]),
        [
            (V(1), V(["g1", "g2"]), V(10)),
            (V(1), V(["g1"]), V(6)),
            (V(1), V(["g2"]), V(6)),
            (V(2), V(["g1", "g2"]), V(7)),
            (V(2), V(["g1"]), V(5)),
            (V(2), V(["g2"]), V(5)),
        ],
    )
    out = clear_vickrey(inst)
    assert out.welfare == Fraction(11)
    # recompute both payments from the independent assignment oracle
    for bidder, expected in ((V(1), Fraction(2)), (V(2), Fraction(4))):
        others = out.welfare - won_value(inst, out.allocation, bidder)
        rest = [n for n in inst.bidders.elements if n != bidder]
        recomputed = _oracle_best_value(inst, rest) - others
        assert recomputed == expected
        assert eval_rel(out.payments, bidder) == num(expected)
    assert _oracle_best_value(inst, list(inst.bidders.elements)) == Fraction(11)
    _finish(10, "combinatorial clearing", started, 60.0)


def test_criterion_11_evaluation_agreement():
    started = time.perf_counter()
    report = run_law("eval_union_agreement", FULL)
    assert report.passed and report.cases == 125
    _finish(11, "set-valued evaluation agreement", started, 10.0)
