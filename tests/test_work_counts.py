"""Every row of work_counts.ROWS makes exactly its pinned calls, the
law suite scans no set for pairs twice, and a dominance check reads its
tables through their point indexes."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

import finrel.cli
from finrel import auctions, relations
from finrel.values import V, Value

import work_counts


@pytest.mark.parametrize("row", work_counts.ROWS, ids=lambda row: row.name)
def test_each_command_makes_its_pinned_calls(row, tmp_path):
    assert work_counts.measure(row, tmp_path) == row.pins


def test_check_laws_scans_each_set_for_pairs_once():
    # a set that reaches the relation check with no views record is
    # scanned; each is kept, so no later set can reuse its id
    check = relations._require_relation
    scanned = []

    def recording(v):
        if isinstance(v, Value) and v._index is None:
            scanned.append(v)
        return check(v)

    with work_counts.patched({"relations._require_relation": recording}), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert finrel.cli.main(["check-laws", "--profile", "quick"]) == 0
    assert relations._require_relation is check
    repeats = len(scanned) - len({id(v) for v in scanned})
    assert scanned and repeats == 0, f"{repeats:,} repeated scans of {len(scanned):,}"


def test_a_dominance_check_at_3_bidders_by_grid_5_makes_no_counted_call():
    # alloc and price are read through their point indexes: no domain set,
    # no intersection and no eval_rel call, so no set Value is built
    m = auctions.second_price_single_good(V([1, 2, 3]), V([0, 1, 2, 3, 4]), V(1))
    # taken before the counters go in: the walk itself is counted
    check = auctions.dominant_strategy_counterexample
    with work_counts.counting() as counts:
        assert check(m.bidder, m.alloc, m.price) is None
    assert not any(counts.values()), {name: n for name, n in counts.items() if n}
