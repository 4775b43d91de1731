"""Per-layer tracing of finrel, applied from outside the program.

The tracer wraps the public functions of the traced finrel modules and
patches the wrapper into every ``finrel.*`` namespace that holds the
original, so calls between modules and inside one module both pass
through it.  ``uninstall`` puts the originals back.

Every wrapped call opens a frame on one stack.  When it returns, its
duration is added to its parent frame's child time, and its self time
(duration minus the time covered by its children) is added to the
function's total.  Because the arithmetic runs per frame, a function
that calls itself (``all_partitions_list``, ``injections_alg``) has every
level's time counted once.

Calls to the hot leaves are only aggregated.  Every other call is also
recorded as a span (name, start, end, parent span, op id) in columnar
arrays, up to ``max_spans``; later spans are still aggregated but not
recorded, so memory stays bounded when a workload makes millions of
calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

TRACED_MODULES = (
    "values",
    "relations",
    "quotients",
    "enumeration",
    "auctions",
    "encoding",
    "laws",
    "cli",
)

# Constant-time value constructors and accessors, and the encoder's
# per-node recursion.  Wrapping them would cost more than they do, so
# their time counts toward their caller (serialize_value, parse_value).
UNWRAPPED = frozenset(
    {
        "encoding.value_to_obj",
        "encoding.value_from_obj",
        "values.canonicalize",
        "values.num",
        "values.rat",
        "values.sym",
        "values.as_fraction",
        "values.is_undefined",
        "values.size",
        "values.the_elem",
        "values.min_of",
        "values.max_of",
    }
)

SETOPS = frozenset(
    {
        "values.union",
        "values.intersection",
        "values.difference",
        "values.is_subset",
        "values.member",
        "values.cartesian_product",
        "values.big_union",
    }
)

# Called hundreds of thousands of times or more per run: aggregated,
# never recorded as spans.
HOT = SETOPS | {
    "relations.relation",
    "enumeration.insert_into_member_list",
    "enumeration.partition_as_set",
    "values.fset",
    "values.pair",
    "relations.eval_rel",
    "relations.image",
    "relations.domain_of",
    "relations.range_of",
    "relations.outside",
    "relations.is_relation",
    "relations.right_unique",
    "relations.trivial",
}

MAX_SPANS = 100_000


def _count_pairs_scanned(counters, args, result):
    counters["relations.eval_rel.pairs_scanned"] += len(args[0].payload)


def _count_items(name):
    def count(counters, args, result):
        if hasattr(result, "__len__"):  # a generator is counted by no one
            counters[name] += len(result)

    return count


def _count_oracle(counters, args, result):
    X, Y = args[0], args[1]
    counters["enumeration.injections_oracle.candidates"] += 1 << (len(X.payload) * len(Y.payload))
    counters["enumeration.injections_oracle.survivors"] += len(result.payload)


def _count_bytes(counters, args, result):
    counters["encoding.serialize_value.bytes"] += len(result.encode("utf-8"))


def _count_law(counters, args, report):
    counters[f"laws.{report.law_id}.elapsed_s"] += report.elapsed
    counters[f"laws.{report.law_id}.cases"] += report.cases


# Counters taken from a call's arguments and result, after its clock stops.
COUNTERS = {
    "relations.eval_rel": _count_pairs_scanned,
    "enumeration.all_partitions_list": _count_items("enumeration.all_partitions_list.items"),
    "enumeration.injections_alg": _count_items("enumeration.injections_alg.items"),
    "enumeration.injections_oracle": _count_oracle,
    "auctions.possible_allocations": _count_items("auctions.allocations_scored"),
    "encoding.serialize_value": _count_bytes,
    "laws.run_law": _count_law,
}


class Tracer:
    """Aggregated call counts, self times and counters, plus span records."""

    def __init__(self, clock=time.perf_counter, max_spans: int = MAX_SPANS):
        self.clock = clock
        self.max_spans = max_spans
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = defaultdict(float)
        self.op_id = -1
        self.spans_dropped = 0
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._wrappers: dict | None = None
        self._patched: list = []

    def wrap(self, name: str, fn, hot: bool = False, count=None):
        """Return fn wrapped so that its calls are timed under name."""
        stat = self.stats.setdefault(name, [0, 0.0])
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = self.clock
        counters = self.counters
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent, span_op = self.span_end, self.span_parent, self.span_op

        def traced(*args, **kwargs):
            enclosing = stack[-1][1] if stack else -1
            span = enclosing
            if not hot:
                if len(span_start) < self.max_spans:
                    span = len(span_start)
                    span_name.append(name_id)
                    span_start.append(0.0)
                    span_end.append(0.0)
                    span_parent.append(enclosing)
                    span_op.append(self.op_id)
                else:
                    self.spans_dropped += 1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span != enclosing:
                    span_start[span] = start
                    span_end[span] = end
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"finrel.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or obj in wrappers:
                    continue
                name = f"{short}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                wrappers[obj] = self.wrap(name, obj, name in HOT, COUNTERS.get(name))
        return wrappers

    def install(self, op_id: int):
        """Patch the wrappers into every loaded finrel namespace."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        self.op_id = op_id
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "finrel" and not mod_name.startswith("finrel."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def spans(self):
        """Recorded spans as (span id, name, start, end, parent id, op id)."""
        for k in range(len(self.span_start)):
            yield (
                k,
                self.names[self.span_name[k]],
                self.span_start[k],
                self.span_end[k],
                self.span_parent[k],
                self.span_op[k],
            )

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for span in self.spans():
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def layer_metrics(tracer: Tracer, law_ids) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the benchmark, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")

    calls_and_self("values.fset")
    calls_and_self("values.pair")
    out["values.setops.self_s"] = (sum(tracer.self_s(n) for n in SETOPS), "s")
    calls_and_self("relations.eval_rel")
    out["relations.eval_rel.pairs_scanned"] = (
        tracer.counters["relations.eval_rel.pairs_scanned"],
        "count",
    )
    for fn in ("paste", "outside", "domain_of", "compose", "image"):
        calls_and_self(f"relations.{fn}")
    for fn in ("projector", "quotient", "compatible", "kernel"):
        calls_and_self(f"quotients.{fn}")
    for fn in ("all_partitions_list", "injections_alg"):
        name = f"enumeration.{fn}"
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
        out[f"{name}.items"] = (tracer.counters[f"{name}.items"], "count")
    candidates = tracer.counters["enumeration.injections_oracle.candidates"]
    survivors = tracer.counters["enumeration.injections_oracle.survivors"]
    out["enumeration.injections_oracle.survivor_ratio"] = (
        survivors / candidates if candidates else 0.0,
        "ratio",
    )
    for fn in (
        "clear_vickrey",
        "possible_allocations",
        "dominant_strategy_counterexample",
        "reduced_price_map",
        "vickrey_payment_form_check",
    ):
        out[f"auctions.{fn}.self_s"] = (tracer.self_s(f"auctions.{fn}"), "s")
    out["auctions.allocations_scored"] = (tracer.counters["auctions.allocations_scored"], "count")
    calls_and_self("encoding.serialize_value")
    out["encoding.serialize_value.bytes"] = (
        tracer.counters["encoding.serialize_value.bytes"],
        "bytes",
    )
    out["encoding.parse_value.self_s"] = (tracer.self_s("encoding.parse_value"), "s")
    for law_id in law_ids:
        out[f"laws.{law_id}.elapsed_s"] = (tracer.counters[f"laws.{law_id}.elapsed_s"], "s")
        out[f"laws.{law_id}.cases"] = (tracer.counters[f"laws.{law_id}.cases"], "count")
    out["cli.main.self_s"] = (tracer.self_s("cli.main"), "s")
    return out
