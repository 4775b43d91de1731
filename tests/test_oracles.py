"""Every fast path of the library has a row in oracles.ROWS, and every
row's sweep agrees with the row's oracle on as many cases as it pins."""

import inspect
import types

import pytest

from finrel import auctions, encoding, enumeration, quotients, relations, values

import oracles

# A fast path is a public function that names one of these shortcuts past
# canonical construction, in its own body or a nested function: _views
# returns a view kept from an earlier call.  fset is the definition of a
# canonical set; the three named paths reach the shortcuts only through
# other functions.
SHORTCUTS = {"_by_first", "_views", "_set_of_sorted", "_set_plus", "_write"}
NAMED = {quotients.kernel, auctions.bid_vectors, enumeration.all_partitions_list}


def _names(code):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def fast_paths() -> list:
    found = []
    for module in (values, relations, quotients, enumeration, auctions, encoding):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__ or fn is values.fset:
                continue
            if fn in NAMED or SHORTCUTS & set(_names(fn.__code__)):
                found.append(fn)
    return found


@pytest.mark.parametrize("row", oracles.ROWS, ids=lambda row: row.name)
def test_sweep_agrees_with_the_oracle(row):
    oracles.check(row.name)


def test_every_fast_path_has_a_row_with_its_pinned_sweep():
    covered = {row.fast for row in oracles.ROWS}
    missing = [f"{fn.__module__}.{fn.__name__}" for fn in fast_paths() if fn not in covered]
    assert not missing, f"fast paths without a row in tests/oracles.py: {missing}"
    counts = {row.name: sum(map(len, row.sweep().values())) for row in oracles.ROWS}
    assert counts == {row.name: row.count for row in oracles.ROWS}
    assert all(counts.values())
