"""One row per CLI command on a small fixed input: the arguments, the file
it reads, and the calls the whole run makes to each counted function.

These pins are the work a command does, as `tests/oracles.py` pins what
its fast paths return.  A counted function missing from a row's pins must
make no call.  The counts are exact: they do not depend on the hash seed,
on the Python version, or on what ran earlier in the same process.

The rule: a change that does less work lowers a pin, and the diff shows
by how much.  A change that does more work fails `tests/test_work_counts.py`
until it raises the pin, and its CHANGES.md line says why.

`measure` needs no pytest, so a script can run a row under any Python.
Run as a script, this module measures the named rows, or every row, and
prints each counted function's calls next to its pin, marking the ones
that differ, so a change that moves the work reads its new pins off it:

    PYTHONPATH=src python3 tests/work_counts.py [ROW ...]
"""

from __future__ import annotations

import inspect
import io
import itertools
import json
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import finrel.cli
from finrel import expressions

COUNTED = (
    "values.fset",
    "values._set_of_sorted",
    "values._product_sets",  # the bid vectors of a grid mechanism: one per build
    "values.pair",
    "relations.eval_rel",
    "relations.compose",
    "relations.domain_of",
    "relations.single_paste",
    "enumeration._distinct",  # validation of a listed source: one per call
    "encoding._build",  # the reader's builds: with a memo, its misses
    "encoding.serialize_value",
    "auctions._input_set",
    # the dominance walk: the laws' definition, which run-single never calls
    "auctions.dominant_strategy_counterexample",
)

FILE = "<file>"  # stands in the arguments for the path of the row's file


class Row(NamedTuple):
    name: str
    argv: tuple
    file: str | None  # the contents of FILE
    pins: dict  # counted function -> calls, for each one called


def _counter(fn, name: str, counts: dict):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _function(name: str):
    """The `finrel` function named "module.attr"."""
    module, attr = name.split(".")
    return getattr(sys.modules[f"finrel.{module}"], attr)


@contextmanager
def patched(replacements: dict):
    """Swap each named `finrel` function ("module.attr") for its
    replacement while the block runs.

    The swap is made in every loaded `finrel` namespace that holds the
    function, so calls between modules and calls inside one module both
    reach the replacement, and in the expression operator tables, which
    hold the operators themselves, taken at import."""
    new_of = {_function(name): new for name, new in replacements.items()}
    swaps = [
        (vars(module), attr, new_of[obj])
        for mod_name, module in list(sys.modules.items())
        if mod_name == "finrel" or mod_name.startswith("finrel.")
        for attr, obj in list(vars(module).items())
        if inspect.isfunction(obj) and obj in new_of
    ] + [
        (table, key, op._replace(fn=new_of[op.fn]))
        for table in (expressions._PREFIX, expressions._INFIX)
        for key, op in table.items()
        if op.fn in new_of
    ]
    saved = [(space, key, space[key]) for space, key, _ in swaps]
    try:
        for space, key, new in swaps:
            space[key] = new
        yield
    finally:
        for space, key, old in saved:
            space[key] = old


@contextmanager
def counting():
    """Count the calls to each COUNTED function while the block runs,
    through a counting wrapper patched in for each one."""
    counts = dict.fromkeys(COUNTED, 0)
    with patched({name: _counter(_function(name), name, counts) for name in COUNTED}):
        yield counts


def measure(row: Row, directory) -> dict:
    """Run the row's command once, in-process, and return the calls each
    counted function made, leaving out those that made none."""
    path = Path(directory) / "input"
    if row.file is not None:
        path.write_text(row.file, encoding="utf-8")
    argv = [str(path) if arg == FILE else arg for arg in row.argv]
    with counting() as counts, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = finrel.cli.main(argv)
    if code != 0:
        raise AssertionError(f"{row.name}: exit {code}")
    return {name: n for name, n in counts.items() if n}


# ---------------------------------------------------------------------------
# inputs

# the full relation on six points: each of its 36 pairs is reached
# through all 6 middle points when it is composed with itself
SQUARE = "{" + ", ".join(f"({x},{y})" for x in range(6) for y in range(6)) + "}"
# two points per value, so every kernel class has two points
PAIRED = "{(0,0),(1,0),(2,1),(3,1),(4,2),(5,2)}"


def _dense_instance() -> str:
    """Every bidder values every bundle of 6 goods: 378 rows that name
    6 bidders, 63 bundles and amounts from 0 to 24."""
    goods = [f"g{k}" for k in range(1, 7)]
    bundles = [["set", *s] for n in range(1, 7) for s in itertools.combinations(goods, n)]
    rng = random.Random("6x6 dense")
    rows = [[b, s, rng.randint(0, 24)] for b in range(1, 7) for s in bundles]
    return json.dumps(
        {"goods": ["set", *goods], "bidders": ["set", *range(1, 7)], "valuations": rows}
    )


def _single(rule: str) -> tuple:
    return ("run-single", "--bidders", '["set",1,2,3]', "--grid", '["set",0,1,2,3,4]',
            "--bidder", "1", "--rule", rule)


ROWS = (
    Row("eval-compose", ("eval", FILE), f"compose({SQUARE}, {SQUARE})", {
        "values.fset": 2,
        "values._set_of_sorted": 3,
        "values.pair": 108,
        "relations.compose": 1,
        "encoding.serialize_value": 1}),
    Row("eval-single-paste", ("eval", FILE), f"{SQUARE} +< (2, 9)", {
        "values.fset": 1,
        "values._set_of_sorted": 2,
        "values.pair": 38,
        "relations.single_paste": 1,
        "encoding.serialize_value": 1}),
    Row("eval-kernel-and-quotient", ("eval", FILE),
        f"quotient(kernel({PAIRED}) O kernel({PAIRED}), kernel({PAIRED}), kernel({PAIRED}))", {
        "values.fset": 4,
        "values._set_of_sorted": 24,
        "values.pair": 99,
        "relations.compose": 1,
        "encoding.serialize_value": 1}),
    Row("enumerate-partitions", ("enumerate", "partitions", '["set",1,2,3,4,5]'), None, {
        "values.fset": 1,
        "values._set_of_sorted": 32,
        "enumeration._distinct": 1,
        "encoding._build": 6,
        "auctions._input_set": 1}),
    Row("enumerate-injections",
        ("enumerate", "injections", '["set",1,2,3]', '["set","a","b","c","d"]'), None, {
        "values.fset": 2,
        "values._set_of_sorted": 2,
        "values.pair": 12,
        "enumeration._distinct": 1,
        "encoding._build": 9,
        "auctions._input_set": 2}),
    Row("run-single-second-price", _single("second-price"), None, {
        "values.fset": 2,
        "values._set_of_sorted": 4,
        "values._product_sets": 1,
        "values.pair": 183,
        "encoding._build": 11,
        "encoding.serialize_value": 5,
        "auctions._input_set": 2}),
    Row("run-single-first-price", _single("first-price"), None, {
        "values.fset": 2,
        "values._set_of_sorted": 4,
        "values._product_sets": 1,
        "values.pair": 191,
        "encoding._build": 11,
        "encoding.serialize_value": 7,
        "auctions._input_set": 2}),
    Row("run-combinatorial-6x6-dense", ("run-combinatorial", FILE), _dense_instance(), {
        "values.fset": 64,
        "values._set_of_sorted": 72,
        "values.pair": 12,
        "encoding._build": 95,
        "encoding.serialize_value": 3,
        "auctions._input_set": 67}),
    Row("check-laws-quick", ("check-laws", "--profile", "quick"), None, {
        "values.fset": 16_142,
        "values._set_of_sorted": 41_341,
        "values._product_sets": 97,
        "values.pair": 8_880,
        "relations.eval_rel": 1_807,
        "relations.compose": 202,
        "relations.domain_of": 5_915,
        "relations.single_paste": 13,
        "enumeration._distinct": 76,
        "auctions._input_set": 658,
        "auctions.dominant_strategy_counterexample": 48}),
)


def main(names) -> int:
    """Print measured calls against pins for the named rows (all when
    none are named); exit 1 when any differs, 2 on an unknown row."""
    by_name = {row.name: row for row in ROWS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown row: {', '.join(unknown)}; rows: {', '.join(by_name)}", file=sys.stderr)
        return 2
    differs = False
    width = max(map(len, COUNTED))
    for name in names or by_name:
        row = by_name[name]
        with tempfile.TemporaryDirectory() as directory:
            measured = measure(row, directory)
        print(row.name)
        for fn in COUNTED:
            calls, pin = measured.get(fn, 0), row.pins.get(fn, 0)
            if calls or pin:
                mark = "" if calls == pin else f"  differs by {calls - pin:+,}"
                differs = differs or bool(mark)
                print(f"  {fn:{width}} {calls:>10,} pin {pin:>10,}{mark}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
