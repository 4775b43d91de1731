"""Tests of the benchmark itself: tiny runs of every workload, the
self-time arithmetic of the tracer, and checks that catch wrong output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads

import finrel.cli
from finrel.auctions import Outcome
from finrel.values import num

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def test_declared_workloads_exist():
    assert NAMES == list(workloads.WORKLOADS)


def test_tail_is_the_eleventh_largest():
    samples = [float(k) for k in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_nested_and_recursive_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1)

    def walk(n):
        clock.advance(2)
        if n:
            walk(n - 1)
        leaf()
        clock.advance(4)

    leaf = t.wrap("leaf", leaf, hot=True)
    walk = t.wrap("walk", walk)
    walk(2)

    assert t.stats["walk"] == [3, 18.0]  # three levels, each 2 + 4 of its own
    assert t.stats["leaf"] == [3, 3.0]
    spans = list(t.spans())  # the hot leaf is aggregated, not recorded
    assert [(s[1], s[2], s[3], s[4]) for s in spans] == [
        ("walk", 0.0, 21.0, -1),
        ("walk", 2.0, 16.0, 0),
        ("walk", 4.0, 11.0, 1),
    ]
    # self times add up to the outermost span: nothing counted twice
    assert t.stats["walk"][1] + t.stats["leaf"][1] == spans[0][3] - spans[0][2]


def test_span_cap_keeps_aggregating():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock, max_spans=2)
    step = t.wrap("step", lambda: clock.advance(1))
    for _ in range(5):
        step()
    assert len(list(t.spans())) == 2
    assert t.spans_dropped == 3
    assert t.stats["step"] == [5, 5.0]


def test_scaled_time_removes_samples_and_machine_speed():
    sampler = speed.SpeedSampler()
    # the machine ran at half the reference speed around the interval
    sampler.at = [0.0, 1.0, 2.0]
    sampler.cost = [2 * speed.REFERENCE_S] * 3
    net = 1.0 - 2 * speed.REFERENCE_S  # the sample at 1.0 was inside it
    assert sampler.scaled(0.5, 1.5) == pytest.approx(net / 2)
    # no sample near the interval: the nearest one sets the speed
    assert sampler.scaled(10.0, 11.0) == pytest.approx(0.5)


def test_install_patches_and_restores_every_namespace():
    original = finrel.cli.serialize_value
    t = tracer.Tracer()
    t.install(op_id=7)
    try:
        assert finrel.cli.serialize_value is not original
        assert finrel.cli.serialize_value.__wrapped__ is original
        assert finrel.encoding.serialize_value is finrel.cli.serialize_value
        finrel.cli.serialize_value(num(3))
    finally:
        t.uninstall()
    assert finrel.cli.serialize_value is original
    assert finrel.encoding.serialize_value is original
    assert t.calls("encoding.serialize_value") == 1
    assert t.counters["encoding.serialize_value.bytes"] == 1


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct_and_reports_every_metric(name, tmp_path, monkeypatch):
    records, metrics, _ = run.run_untraced(name, 5, 0.05, tmp_path, tiny=True, probes=1)
    assert records and all(r.ok for r in records)
    assert _units(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())

    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")
    records, metrics, _ = run.run_traced(name, 5, 0.05, tmp_path, tiny=True)
    assert records and all(r.ok for r in records)
    assert _units(metrics) == _declared("per_layer")
    assert metrics["trace.overhead_ratio"][0] > 0
    assert metrics["cli.main.self_s"][0] > 0


def _bump_first_payment(clear):
    def wrong(inst):
        out = clear(inst)
        first, *rest = out.payments.elements
        bumped = finrel.values.pair(first.first, num(first.second.payload + 1))
        return Outcome(out.allocation, finrel.values.fset([bumped, *rest]), out.welfare)

    return wrong


def _miscount_first_law(run_all):
    def wrong(config):
        reports = run_all(config)
        reports[0].cases += 1
        return reports

    return wrong


def _run_law_miscounted(run_law):
    def wrong(law_id, config):
        report = run_law(law_id, config)
        report.cases += 1
        return report

    return wrong


def _drop_last(enumerate_all):
    return lambda *args: enumerate_all(*args)[:-1]


# one deliberately wrong program per workload, patched where the CLI
# looks it up
WRONG = {
    "laws-full": [("run_law", _run_law_miscounted), ("run_all", _miscount_first_law)],
    "vickrey-clear": [("clear_vickrey", _bump_first_payment)],
    "single-grid": [("second_price_single_good", lambda _: finrel.cli.first_price_single_good)],
    "enumerate-stream": [("all_partitions_list", _drop_last), ("injections_alg", _drop_last)],
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_output_is_counted_as_failed(name, tmp_path, monkeypatch):
    workload, first, _, _ = run.setup(name, 5, tmp_path, tiny=True)
    for attr, make_wrong in WRONG[name]:
        monkeypatch.setattr(finrel.cli, attr, make_wrong(getattr(finrel.cli, attr)))
    records = run.measure(workload, first, 1)
    assert any(r.ok is False for r in records)
    assert json.loads(run.result_line(records, {}))["correct"] is False


def test_single_grid_counterexample_must_replay():
    case = workloads.GridCase([Fraction(0), Fraction(1)], [1, 2], 1, True, False)
    alloc = {(Fraction(a), Fraction(b)): Fraction(int(a >= b)) for a in (0, 1) for b in (0, 1)}
    price = {b: b[0] * alloc[b] for b in alloc}
    # shading a bid of 1 down to 0 still wins the tie and pays nothing
    good = 'counterexample bid=["set",["pair",1,0],["pair",2,0]] valuation=1'
    assert workloads._replays(good, (alloc, price), case)
    bad = 'counterexample bid=["set",["pair",1,1],["pair",2,0]] valuation=0'
    assert not workloads._replays(bad, (alloc, price), case)
