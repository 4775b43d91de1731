"""Every fast path of the library has a row in oracles.ROWS, and every
row's sweep agrees with the row's oracle on as many cases as it pins.
Every public function outside finrel.paper is used in src/ or exported."""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import finrel
from finrel import auctions, encoding, enumeration, paper, quotients, relations, values

import oracles

# A fast path is a public function that names one of these shortcuts past
# canonical construction, in its own body or a nested function, or names a
# private function of its own module that does (one level down).  fset is
# the definition of a canonical set; all_partitions_list reaches the
# shortcuts only through other functions, and parse_instance reads each
# distinct row element of a file once.
SHORTCUTS = {"_by_first", "_set_of_sorted", "_set_plus", "_write"}
NAMED = {enumeration.all_partitions_list, auctions.parse_instance}


def _names(code):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def _shortcut_in(fn) -> bool:
    return bool(SHORTCUTS & set(_names(fn.__code__)))


def fast_paths(modules=(values, relations, quotients, enumeration, auctions, encoding)) -> list:
    found = []
    for module in modules:
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__ or fn is values.fset:
                continue
            helpers = [
                h for h in map(vars(module).get, _names(fn.__code__))
                if inspect.isfunction(h) and h.__name__.startswith("_")
                and h.__module__ == module.__name__
            ]
            if fn in NAMED or _shortcut_in(fn) or any(map(_shortcut_in, helpers)):
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


def test_the_paper_module_holds_no_fast_path():
    assert fast_paths([paper]) == []


def test_the_set_readers_read_pairs_not_the_point_index():
    # image, domain_of and range_of are the literal sides of the laws and
    # the oracles (eval_rel's oracle is the_elem(image(R, {x}))), so they
    # read R's pairs: through the point index, a fault in it would pass
    # for the definition it is checked against
    for fn in (relations.image, relations.domain_of, relations.range_of):
        assert not {"_by_first", "_index"} & set(_names(fn.__code__)), fn.__name__


def _imported(path: Path):
    """The modules a source file imports, each with its names appended."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_the_law_suite_and_the_package_import_the_paper_module():
    importers = [
        path.name for path in sorted(Path(finrel.__file__).parent.glob("*.py"))
        if {"paper", "finrel.paper"} & set(_imported(path))
    ]
    assert importers == ["__init__.py", "laws.py"]


# finrel's modules bottom-up, as the package docstring and README's
# "Library layout" list them, then the entry point that runs the CLI
LAYERS = ("errors", "values", "encoding", "relations", "enumeration", "quotients", "auctions",
          "paper", "laws", "expressions", "cli", "__main__")


def test_each_module_imports_only_earlier_layers():
    root = Path(finrel.__file__).parent
    modules = sorted(path.stem for path in root.glob("*.py") if path.stem != "__init__")
    assert modules == sorted(LAYERS)
    for module in LAYERS:
        for node in ast.walk(ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # `from . import __version__` reads the package itself
                imported = [node.module] if node.module else [
                    alias.name for alias in node.names if alias.name != "__version__"]
                for name in imported:
                    assert LAYERS.index(name) < LAYERS.index(module), f"{module} imports {name}"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^- (\w+):", finrel.__doc__, re.M) == list(LAYERS[:-1])
    assert re.findall(r"^\| `finrel\.(\w+)`", readme, re.M) == list(LAYERS[:-1])


def test_each_module_reads_every_name_it_imports():
    """A name a module imports and never reads is a leftover; the package's
    __init__ imports to export and is not read here."""
    root = Path(finrel.__file__).parent
    for module in LAYERS:
        tree = ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, f"{module} never reads {sorted(imported - read)}"


def test_the_paste_sweep_reaches_each_operand_that_paste_returns():
    row = oracles.ROW["paste"]
    returned = {"P, Q empty": 0, "Q, every pair of P overridden": 0}
    for P, Q in (case for cases in row.sweep().values() for case in cases):
        if not (relations.is_relation(P) and relations.is_relation(Q)):
            continue
        got = relations.paste(P, Q)
        if not Q.payload:
            assert got is P and got == oracles._literal_paste(P, Q)
            returned["P, Q empty"] += 1
        elif P.payload and {p.first for p in P.payload} <= {q.first for q in Q.payload}:
            assert got is Q and got == oracles._literal_paste(P, Q)
            returned["Q, every pair of P overridden"] += 1
    assert all(returned.values()), returned


# Every public function of these modules is called from src/ or exported by
# the package, so a second name for one thing cannot sit unused.  paper is
# the oracle home: its constructions are read by the tests and the laws.
GUARDED = ("values", "relations", "quotients", "enumeration", "auctions", "encoding",
           "expressions", "laws", "cli")
# perfbench/workloads.py calls it by its path until the benchmark is
# re-keyed (ROADMAP item 1)
UNUSED_BY_DESIGN = {"auctions.reduced_fee_table"}


def _loads(node: ast.AST) -> set:
    """Names node loads or reads as attributes."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    }


def _uses(tree: ast.Module) -> set:
    """Names a module loads or reads as attributes, each top-level function
    apart from its own name: a function that only calls itself is unused."""
    return set().union(*(
        _loads(node) - {node.name} if isinstance(node, ast.FunctionDef) else _loads(node)
        for node in tree.body
    ))


def test_every_public_function_is_used_or_exported():
    root = Path(finrel.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("*.py")) if path.name != "__init__.py"
    }
    exported = {
        alias.name for node in ast.parse((root / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    reached = exported.union(*map(_uses, trees.values()))
    dead = [
        f"{module}.{node.name}" for module in GUARDED for node in trees[module].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in reached
    ]
    assert set(dead) == UNUSED_BY_DESIGN
