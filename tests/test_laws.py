import inspect
import itertools
import sys
import threading

import pytest

import work_counts
from finrel.encoding import parse_value, serialize_value
from finrel.errors import ValidationError
from finrel.quotients import _touching, projector
from finrel.relations import compose, converse
from finrel.values import V, Value, fset
from finrel.laws import (
    LAWS,
    PROFILES,
    LawConfig,
    _atoms,
    _masked,
    _pair_pool,
    run_all,
    run_law,
    serialize_report,
)

QUICK = LawConfig("quick", 0)


def test_registry_contents():
    expected = {
        "boolean_algebra",
        "order_totality",
        "paste_associative",
        "paste_outside_domains",
        "right_unique_characterizations",
        "right_unique_cardinality",
        "eval_union_agreement",
        "graph_eval_roundtrip",
        "argmax_recursive_agreement",
        "projector_kernel_properties",
        "quotient_preserves_right_unique",
        "compatibility_necessity",
        "quotient_factorization",
        "injections_match_oracle",
        "partitions_match_oracle",
        "second_price_dominant",
        "first_price_not_dominant",
        "reduced_bid_kernel_compatible",
        "vickrey_payment_decomposition",
        "vcg_payment_bounds",
        "vcg_matches_oracle",
    }
    assert set(LAWS) == expected
    for law in LAWS.values():
        assert law.kind in ("forall", "exists")
        assert law.statement


def test_unknown_law_and_profile():
    with pytest.raises(ValidationError):
        run_law("no_such_law", QUICK)
    with pytest.raises(ValidationError):
        LawConfig("fast", 0)


def test_quick_profile_all_pass():
    reports = run_all(QUICK)
    assert all(r.passed for r in reports)
    assert [r.law_id for r in reports] == list(LAWS)


def test_reports_are_byte_deterministic():
    config = LawConfig("quick", 42)
    a = [serialize_report(r) for r in run_all(config)]
    b = [serialize_report(r) for r in run_all(config)]
    assert a == b


def test_exhaustive_case_counts():
    # 16 relations over a 2x2 universe, cubed
    assert run_law("paste_associative", QUICK).cases == 4096
    # 2^6 relations over a 3x2 universe
    assert run_law("right_unique_characterizations", QUICK).cases == 64
    assert run_law("eval_union_agreement", QUICK).cases == 125


def test_necessity_witness_is_replayable():
    report = run_law("compatibility_necessity", QUICK)
    assert report.passed
    assert report.counterexample is not None
    # the witness satisfies the search predicate when replayed
    assert LAWS["compatibility_necessity"].check(*report.counterexample)
    from finrel.quotients import compatible, quotient
    from finrel.relations import right_unique

    f, P, Q = report.counterexample
    assert not compatible(f, P, Q)
    assert not right_unique(quotient(f, P, Q))


def test_counterexamples_replay_as_failures():
    # run the dominance checker against the first-price mutant through the
    # law machinery: a failing forall-law must report a case its own
    # checker rejects
    from finrel.laws import Law
    from finrel.auctions import (
        dominant_strategy_counterexample,
        first_price_single_good,
    )
    import finrel.laws as laws_mod

    def cases(config):
        yield (V([0, 1, 2]), V([1, 2]), V(1))

    def check(grid, bidders, i):
        m = first_price_single_good(bidders, grid, i)
        return dominant_strategy_counterexample(m.bidder, m.alloc, m.price) is None

    laws_mod.LAWS["_mutant_probe"] = Law("_mutant_probe", "probe", "forall", cases, check)
    try:
        report = run_law("_mutant_probe", QUICK)
        assert not report.passed
        assert report.counterexample is not None
        assert not check(*report.counterexample)
        line = serialize_report(report)
        assert "result=fail" in line
        assert line.endswith(" counterexample=({0, 1, 2}, ({1, 2}, 1))")
    finally:
        del laws_mod.LAWS["_mutant_probe"]


def test_cases_are_tuples_of_values():
    for profile in PROFILES:
        config = LawConfig(profile, 0)
        for law_id, law in LAWS.items():
            case = next(iter(law.cases(config)))
            assert isinstance(case, tuple) and case, (law_id, profile)
            assert all(isinstance(v, Value) for v in case), (law_id, profile)


def test_seeded_sampling_depends_on_seed():
    cases = LAWS["vcg_matches_oracle"].cases
    one, again, two = (list(cases(LawConfig("quick", seed))) for seed in (1, 1, 2))
    assert one == again != two
    a = run_law("vcg_matches_oracle", LawConfig("quick", 1))
    b = run_law("vcg_matches_oracle", LawConfig("quick", 2))
    assert a.passed and b.passed
    assert a.cases == b.cases == len(one)


def test_serialized_reports_are_single_lines():
    for law_id in ("right_unique_cardinality", "compatibility_necessity", "partitions_match_oracle"):
        line = serialize_report(run_law(law_id, QUICK))
        assert "\n" not in line
        assert line.startswith(f"law={law_id} profile=quick seed=0 cases=")


def _assert_canonical(R):
    """R is built as fset builds the same pairs: same key, same payload."""
    built = fset(R.payload)
    assert R._key == built._key and R.payload == built.payload, R


def test_masked_pool_subsets_are_the_sets_fset_builds():
    for A, B in ((_atoms(2), _atoms(2, 10)), (_atoms(3), _atoms(3)), (_atoms(3), _atoms(3, 10))):
        pool = _pair_pool(A, B)
        for mask in range(1 << len(pool)):
            _assert_canonical(_masked(pool, mask))


@pytest.mark.parametrize("law_id", ["paste_associative", "paste_outside_domains"])
def test_random_law_cases_are_the_sets_fset_builds(law_id):
    cases = LAWS[law_id].cases
    exhaustive = sum(1 for _ in cases(QUICK))
    full = LawConfig("full", 0)
    for case in itertools.islice(cases(full), exhaustive, exhaustive + 500):
        for R in case:
            _assert_canonical(R)


def _reparsed(v):
    """A Value equal to v that is a distinct object."""
    copy = parse_value(serialize_value(v))
    assert copy == v and copy is not v
    return copy


def test_factorization_checker_agrees_with_check_in_generator_order():
    law = LAWS["quotient_factorization"]
    check = law.checker()
    cases = list(law.cases(QUICK))
    assert [check(*case) for case in cases] == [law.check(*case) for case in cases]


def test_factorization_checker_never_reuses_a_stale_lift():
    law = LAWS["quotient_factorization"]
    cases = list(law.cases(QUICK))
    position = {q: k for k, q in enumerate(dict.fromkeys(q for _, _, q in cases))}
    # q outer: (r, p) changes on every case
    reordered = sorted(cases, key=lambda case: position[case[2]])

    def interleaved():
        for r, p, q in reordered:
            yield r, p, q
            # an equal r that is a distinct object, between two cases of
            # the same p; each copy is freed after its case, so a later
            # copy of another relation may get its id
            yield _reparsed(r), p, q

    check = law.checker()
    with work_counts.counting() as counts:
        verdicts = [(check(*case), law.check(*case)) for case in interleaved()]
    assert len(verdicts) == 2 * len(cases)
    assert all(mine == stateless for mine, stateless in verdicts)
    # the stateless check makes a fresh checker, a lift and a right side,
    # on each of the 800 cases: 1,600.  (r, p) is new by identity on every
    # case, so the checker lifts again on each: 800.  Its right sides: one
    # per q for each of the 19 distinct (touching, lift) of a whole run
    # (see below), 19 * 5 = 95, whatever the order; a copy has the same
    # (touching, lift) as its original and reuses its verdict
    assert counts["relations.compose"] == 2 * len(verdicts) + len(verdicts) + 95 == 2_495


def test_factorization_checker_holds_its_entry_until_the_next_lift():
    # the entry keeps r alive, so no later relation can take its id while
    # the lift is kept; the next lift lets it go
    cases = list(LAWS["quotient_factorization"].cases(QUICK))
    (r, p, q), other = cases[100], cases[200][0]
    assert r != other
    r = _reparsed(r)
    check = LAWS["quotient_factorization"].checker()
    before = sys.getrefcount(r)
    assert check(r, p, q)
    assert sys.getrefcount(r) == before + 1
    assert check(other, p, q)
    assert sys.getrefcount(r) == before


def test_factorization_lifts_each_relation_and_p_once_per_run():
    with work_counts.counting() as counts:
        report = run_law("quotient_factorization", QUICK)
    assert report.passed and report.cases == 400
    # 80 lifts, one per (r, p) of 16 relations and 5 partial equivalences,
    # and one right side per q for each distinct (touching, lift).  Both
    # are the classes of p that r relates to something, each with its
    # r-images, and a class is the same set whichever p holds it.  So the
    # distinct keys are: the empty one, for the empty p and for each r
    # that relates no point of p (1); 3 for {(0,0)}, one per nonempty
    # image of 0, and 3 for {(1,1)}; 9 more for the identity, whose images
    # of 0 and 1 are both nonempty; 3 for the full square, one per
    # nonempty image of {0, 1}.  That is 19 keys of 5 q's: 95 right sides.
    # One compose per case would be 400, and two per case without any
    # reuse 800
    assert counts["relations.compose"] == 80 + 95


def test_factorization_checker_keeps_one_bool_per_distinct_touching_lift_and_q():
    # the memo keeps verdicts only: a memo of right sides over the whole
    # run would hold one relation per key and q
    law = LAWS["quotient_factorization"]
    cases = list(law.cases(QUICK))
    check = law.checker()
    assert all(check(*case) for case in cases)
    state = inspect.getclosurevars(check).nonlocals
    assert set(state) == {"last", "memo"}
    keys = {(_touching(r, p), compose(converse(projector(p)), r)) for r, p, _ in cases}
    memo = state["memo"]
    assert len(keys) == 19 and set(memo) == keys
    qs = {q for _, _, q in cases}
    for verdicts in memo.values():
        assert set(verdicts) == qs
        assert all(type(v) is bool for v in verdicts.values())
    # the last (r, p) holds its own r, its key and that key's verdicts
    r, p, key, verdicts = state["last"]
    assert (r, p) == cases[-1][:2] and verdicts is memo[key]


def test_factorization_runs_in_two_threads_at_once():
    barrier = threading.Barrier(2, timeout=10)
    reports = [None, None]

    def run(k):
        barrier.wait()
        reports[k] = run_law("quotient_factorization", QUICK)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave the runs
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert [(r.passed, r.cases) for r in reports] == [(True, 400), (True, 400)]


def _assert_the_run_fails_where_the_stateless_check_first_does():
    law = LAWS["quotient_factorization"]
    first_failing = next(case for case in law.cases(QUICK) if not law.check(*case))
    report = run_law("quotient_factorization", QUICK)
    assert not report.passed and report.error is None
    assert report.counterexample == first_failing
    assert law.check(*report.counterexample) is False
    return first_failing


def test_factorization_reuse_still_catches_a_wrong_quotient(monkeypatch):
    import finrel.laws as laws_mod
    import finrel.quotients as quotients_mod
    from finrel.quotients import _quotient_of, _touching

    def dropping_last(touching, q):
        out = _quotient_of(touching, q)
        return fset(out.payload[:-1]) if out.payload else out

    # quotient and the checker both take their q half from _quotient_of
    for module in (quotients_mod, laws_mod):
        monkeypatch.setattr(module, "_quotient_of", dropping_last)
    r, p, q = _assert_the_run_fails_where_the_stateless_check_first_does()
    assert quotients_mod.quotient(r, p, q) != _quotient_of(_touching(r, p), q)


def test_factorization_checker_keeps_no_verdict_for_a_case_that_raises(monkeypatch):
    import finrel.laws as laws_mod

    law = LAWS["quotient_factorization"]
    r, p, q = next(iter(law.cases(QUICK)))
    check = law.checker()

    def raising(touching, q):
        raise RuntimeError("q half failed")

    monkeypatch.setattr(laws_mod, "_quotient_of", raising)
    with pytest.raises(RuntimeError):
        check(r, p, q)
    monkeypatch.undo()
    *_, verdicts = inspect.getclosurevars(check).nonlocals["last"]
    assert verdicts == {}
    with work_counts.counting() as counts:
        assert check(r, p, q) is True
    # the same (r, p): no lift again, only the right side
    assert counts["relations.compose"] == 1 and verdicts == {q: True}


def test_factorization_memo_still_catches_a_wrong_touching(monkeypatch):
    import finrel.laws as laws_mod

    def dropping_last(r, p):
        # a function of the values of r and p only, wrong only where r has
        # three pairs or more: the first such relation lifts, for the first
        # p it gets wrong, as an earlier relation did, so a memo keyed by
        # the lift alone would keep that relation's verdicts
        out = _touching(r, p)
        return out[:-1] if len(r.payload) >= 3 else out

    monkeypatch.setattr(laws_mod, "_touching", dropping_last)
    r, p, _ = _assert_the_run_fails_where_the_stateless_check_first_does()
    cases = LAWS["quotient_factorization"].cases(QUICK)
    earlier = itertools.takewhile(lambda case: case[0] != r, cases)
    lifts = {compose(converse(projector(p)), r0) for r0, p0, _ in earlier if p0 == p}
    assert compose(converse(projector(p)), r) in lifts


def test_factorization_reuse_still_catches_a_wrong_compose(monkeypatch):
    import finrel.laws as laws_mod
    from finrel.relations import compose

    def dropping_last(r, s):
        # a function of the values of r and s only, so that right sides
        # kept for an equal lift stay right for it
        out = compose(r, s)
        return fset(out.payload[:-1]) if out.payload else out

    monkeypatch.setattr(laws_mod, "compose", dropping_last)
    _assert_the_run_fails_where_the_stateless_check_first_does()
