"""The benchmark's workloads: seeded inputs, the timed op, and its check.

A workload hands out rounds of ops.  A round has the same sizes and
shapes for every seed; the seed picks only the values inside them, so a
metric differs between seeds by noise, not by a different mix of sizes.
Every op goes through the public entry points (``finrel.cli.main`` and
library calls looked up on their modules at call time, so a tracer that
patches the modules sees them).  Each check recomputes the expected
output without the code under test where it can, and runs outside the
timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from finrel import auctions, cli, encoding, laws, quotients, relations, values


@dataclass
class Op:
    argv: list  # the CLI invocation (the first one, for single-grid)
    cap: bool  # at the workload's largest size
    spec: object = None  # whatever the check needs to know about the inputs


def _num_text(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _read_num(obj) -> Fraction:
    return Fraction(obj) if isinstance(obj, int) else Fraction(str(obj))


def _tagged(obj, tag: str) -> list:
    if not isinstance(obj, list) or not obj or obj[0] != tag:
        raise ValueError(f"expected a {tag}: {obj!r}")
    return obj[1:]


class Workload:
    name = ""
    # seconds one round of ops takes at reference speed at the commit
    # that defined the benchmark; --seconds is turned into a number of
    # rounds with it, so both sides of a comparison run the same ops
    round_s = 1.0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{tag}")

    def warmup(self) -> Op:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        """The timed op; stdout is captured by the caller."""
        return cli.main(op.argv)

    def check(self, op: Op, text: str, result) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# laws-full: one full-profile verdict of the law suite


# The law registry as of this benchmark; a law added later is run and
# must pass, but has no per-layer metric until the benchmark declares one.
LAW_IDS = (
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
)

# Case counts the acceptance suite pins for the full profile.
ACCEPTANCE_CASES = {
    "right_unique_characterizations": 64,
    "right_unique_cardinality": 64,
    "paste_associative": 16**3 + 10000,
    "partitions_match_oracle": 6,
    "quotient_preserves_right_unique": 27 * 15 * 5,
    "quotient_factorization": 512 * 15 * 15,
    "second_price_dominant": 75,
    "reduced_bid_kernel_compatible": 75,
    "vickrey_payment_decomposition": 30,
    "vcg_payment_bounds": 200,
    "vcg_matches_oracle": 200,
    "eval_union_agreement": 125,
}

_REPORT = re.compile(
    r"law=(\S+) profile=(\S+) seed=(-?\d+) cases=(\d+) result=(pass|fail)( witness=.*)?\Z"
)

# cheap laws standing in for the suite at tiny size
TINY_LAWS = ("boolean_algebra", "right_unique_characterizations", "partitions_match_oracle")


class LawsFull(Workload):
    name = "laws-full"
    round_s = 25.0

    def _op(self, law=None) -> Op:
        argv = ["check-laws", "--profile", "full", "--seed", str(self.seed)]
        if law is not None:
            argv += ["--law", law]
        return Op(argv, cap=True, spec=law)

    def warmup(self) -> Op:
        return self._op("boolean_algebra")

    def round(self, r: int) -> list[Op]:
        if self.tiny:
            return [self._op(law) for law in TINY_LAWS]
        return [self._op()]

    def check(self, op: Op, text: str, result) -> bool:
        if result != 0:
            return False
        seen = {}
        for line in text.splitlines():
            m = _REPORT.match(line)
            if not m or m[2] != "full" or int(m[3]) != self.seed or m[5] != "pass":
                return False
            if m[1] in seen:
                return False
            seen[m[1]] = (int(m[4]), m[6])
        if op.spec is not None and set(seen) != {op.spec}:
            return False
        if op.spec is None and not set(LAW_IDS) <= set(seen):
            return False
        if "compatibility_necessity" in seen and not seen["compatibility_necessity"][1]:
            return False
        return all(seen[k][0] == n for k, n in ACCEPTANCE_CASES.items() if k in seen)


# ---------------------------------------------------------------------------
# vickrey-clear: one run-combinatorial on a seeded instance file

SHAPES = ("dense", "sparse", "ties", "fractional")


def _bundles(goods: list) -> list[frozenset]:
    return [
        frozenset(c)
        for k in range(1, len(goods) + 1)
        for c in itertools.combinations(goods, k)
    ]


def _valuations(shape: str, goods: list, bidders: list, rng: random.Random) -> dict:
    """(bidder, bundle) -> value; unlisted bundles are worth 0."""
    bundles = _bundles(goods)
    table = {}
    if shape == "ties":
        c = Fraction(rng.randint(1, 24))
        return {(b, s): c for b in bidders for s in bundles}
    for b in bidders:
        if shape == "sparse":
            for s in rng.sample(bundles, min(len(bundles), rng.randint(1, 3))):
                table[(b, s)] = Fraction(rng.randint(1, 24))
            continue
        if shape == "dense":
            raw = {s: Fraction(rng.randint(0, 24)) for s in bundles}
        else:
            raw = {s: Fraction(rng.randint(0, 48), rng.choice((2, 3, 4, 6))) for s in bundles}
        for s in bundles:  # close upward: a larger bundle is never worth less
            table[(b, s)] = max(raw[t] for t in bundles if t <= s)
    return table


def instance(goods: list, bidders: list, table: dict) -> auctions.CombinatorialInstance:
    """The instance the benchmark generated, as finrel values."""
    return auctions.CombinatorialInstance(
        values.fset(values.sym(g) for g in goods),
        values.fset(values.num(b) for b in bidders),
        {(values.num(b), values.fset(values.sym(g) for g in s)): v for (b, s), v in table.items()},
    )


class VickreyClear(Workload):
    name = "vickrey-clear"
    round_s = 16.5

    def sizes(self):
        """(goods, bidders, shapes) per size.

        6x6 comes once, dense; 6x5 and 5x6 are left out, so that the run
        stays short.  The other 17 sizes have four instances each, which
        puts the median op in the middle of the 3x5 instances and the
        11th largest in the middle of the 4x6 ones, not between two
        sizes."""
        if self.tiny:
            return [(2, 2, SHAPES), (3, 2, SHAPES[:2]), (3, 3, ("dense",))]
        return [
            (m, n, ("dense",) if (m, n) == (6, 6) else SHAPES)
            for m in range(3, 7)
            for n in range(2, 7)
            if (m, n) not in ((6, 5), (5, 6))
        ]

    def _write(self, tag: str, m: int, n: int, shape: str, rng) -> Op:
        goods = [f"g{k}" for k in range(1, m + 1)]
        bidders = list(range(1, n + 1))
        table = _valuations(shape, goods, bidders, rng)
        doc = {
            "goods": ["set", *goods],
            "bidders": ["set", *bidders],
            "valuations": [
                [b, ["set", *sorted(s)], _num_text(v)] for (b, s), v in table.items()
            ],
        }
        path = self.workdir / f"{self.name}-{tag}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cap = (m, n) == max((s[0], s[1]) for s in self.sizes())
        return Op(["run-combinatorial", str(path)], cap, (goods, bidders, table))

    def warmup(self) -> Op:
        return self._write("warmup", 2, 2, "dense", self.rng("warmup"))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        return [
            self._write(f"r{r}-{m}x{n}-{shape}", m, n, shape, rng)
            for m, n, shapes in self.sizes()
            for shape in shapes
        ]

    def check(self, op: Op, text: str, result) -> bool:
        if result != 0:
            return False
        goods, bidders, table = op.spec
        out = json.loads(text)
        holdings = {}
        covered = []
        for entry in _tagged(out["allocation"], "set"):
            bundle, bidder = _tagged(entry, "pair")
            bundle = _tagged(bundle, "set")
            if not bundle or bidder not in bidders or bidder in holdings:
                return False
            holdings[bidder] = frozenset(bundle)
            covered += bundle
        if sorted(covered) != sorted(goods):  # every good exactly once
            return False
        own = {b: table.get((b, holdings.get(b)), Fraction(0)) for b in bidders}
        welfare = _read_num(out["welfare"])
        inst = instance(goods, bidders, table)
        everyone = [values.num(b) for b in bidders]
        if welfare != sum(own.values()) or welfare != laws._oracle_best_value(inst, everyone):
            return False
        payments = {}
        for entry in _tagged(out["payments"], "set"):
            bidder, amount = _tagged(entry, "pair")
            payments[bidder] = _read_num(amount)
        if sorted(payments) != bidders:
            return False
        for b in bidders:
            rest = [n for n in everyone if n != values.num(b)]
            if payments[b] != laws._oracle_best_value(inst, rest) - (welfare - own[b]):
                return False
        return True


# ---------------------------------------------------------------------------
# single-grid: one single-good mechanism verified

# A pool takes one value of each class but the last, which gives two, so
# every seed's grids hold as many negatives and halves: the cost of the
# arithmetic on them does not vary with the seed.
POOL_CLASSES = (
    [Fraction(k) for k in range(-4, 0)],
    [Fraction(k, 2) for k in range(-7, 0, 2)],
    [Fraction(k, 2) for k in range(1, 12, 2)],
    [Fraction(k) for k in range(0, 7)],
)


@dataclass
class GridCase:
    grid: list  # sorted Fractions
    bidders: list  # ints
    bidder: int
    first_price: bool  # the first-price mutant must have a counterexample
    greatest: bool  # the payment form is checked for this bidder


# Pools per round.  Each pool gives three ops at the cap (3 bidders, 5
# values), the greatest bidder's heavier than the others'; with six
# pools the 11th largest op falls in the middle of the other twelve.
POOLS = 6


class SingleGrid(Workload):
    name = "single-grid"
    round_s = 23.5

    def _op(self, grid, bidders, i, cap=False) -> Op:
        case = GridCase(
            list(grid),
            list(bidders),
            i,
            # the law suite's condition: a tie-favored bidder, or three levels
            first_price=len(grid) >= 3 or (len(grid) >= 2 and i == bidders[0]),
            greatest=i == bidders[-1],
        )
        argv = [
            "run-single",
            "--bidders", json.dumps(["set", *bidders]),
            "--grid", json.dumps(["set", *map(_num_text, grid)]),
            "--bidder", str(i),
        ]
        return Op(argv, cap, case)

    def warmup(self) -> Op:
        return self._op([Fraction(0)], [1, 2], 2)

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        pools = [
            sorted(v for cls, n in zip(POOL_CLASSES, (1, 1, 1, 2)) for v in rng.sample(cls, n))
            for _ in range(POOLS)
        ]
        bidder_sets = ([1, 2], [1, 2, 3])
        if self.tiny:
            pools, bidder_sets = [pools[0][:2]], ([1, 2],)
        return [
            self._op(grid, bidders, i, cap=len(grid) == len(pool) and bidders == bidder_sets[-1])
            for pool in pools
            for size in range(1, len(pool) + 1)
            for grid in itertools.combinations(pool, size)
            for bidders in bidder_sets
            for i in bidders
        ]

    def execute(self, op: Op):
        case = op.spec
        code = cli.main(op.argv)
        grid = values.fset(values.num(g) for g in case.grid)
        bidders = values.fset(values.num(b) for b in case.bidders)
        m = auctions.second_price_single_good(bidders, grid, values.num(case.bidder))
        kernel = quotients.kernel(auctions.reduced_bid_map(m.bidder, m.alloc))
        identity = quotients.identity_on(relations.range_of(m.price))
        compat = quotients.compatible(m.price, kernel, identity)
        form = None
        if case.greatest:
            reduced = auctions.reduced_price_map(m.price, m.bidder, m.alloc)
            fee = auctions.reduced_fee_table(m.price, m.bidder, m.alloc)
            form = relations.right_unique(reduced) and auctions.vickrey_payment_form_check(
                m.bidder, m.alloc, m.price, auctions.max_rival_bid, fee, values.num(0)
            )
        first_code = None
        if case.first_price:
            first_code = cli.main(op.argv + ["--rule", "first-price"])
        return code, compat, form, first_code

    def check(self, op: Op, text: str, result) -> bool:
        case = op.spec
        code, compat, form, first_code = result
        if code != 0 or compat is not True or form is not (True if case.greatest else None):
            return False
        lines = text.splitlines()
        second = _read_mechanism(lines[:7], "second-price", case)
        if second is None or lines[6] != "dominant true":
            return False
        if not case.first_price:
            return len(lines) == 7
        if first_code != 0 or len(lines) != 15 or lines[13] != "dominant false":
            return False
        first = _read_mechanism(lines[7:15], "first-price", case)
        return first is not None and _replays(lines[14], first, case)


def _bid_vector(obj) -> tuple:
    bids = dict(_tagged(pair, "pair") for pair in _tagged(obj, "set"))
    return tuple(_read_num(bids[b]) for b in sorted(bids))


def _read_mechanism(lines: list, rule: str, case: GridCase):
    """alloc and price tables from one run-single output, or None when
    the echo or either table disagrees with the rule recomputed here."""
    grid_text = json.dumps(["set", *map(_num_text, case.grid)], separators=(",", ":"))
    head = [
        f"rule {rule}",
        f"bidders {json.dumps(['set', *case.bidders], separators=(',', ':'))}",
        f"grid {grid_text}",
        f"bidder {case.bidder}",
    ]
    if lines[:4] != head or not lines[4].startswith("alloc ") or not lines[5].startswith("price "):
        return None
    tables = []
    for line in lines[4:6]:
        pairs = (_tagged(p, "pair") for p in _tagged(json.loads(line.split(" ", 1)[1]), "set"))
        tables.append({_bid_vector(k): _read_num(v) for k, v in pairs})
    alloc, price = tables
    k = case.bidders.index(case.bidder)
    expected_alloc, expected_price = {}, {}
    for b in itertools.product(case.grid, repeat=len(case.bidders)):
        top = max(b)
        wins = b.index(top) == k  # ties go to the least bidder
        rivals = b[:k] + b[k + 1 :]
        paid = (max(rivals) if rule == "second-price" else b[k]) if wins else Fraction(0)
        expected_alloc[b] = Fraction(int(wins))
        expected_price[b] = paid
    if alloc != expected_alloc or price != expected_price:
        return None
    return alloc, price


def _replays(line: str, tables, case: GridCase) -> bool:
    """The reported (bid, valuation) must make truthful bidding worse."""
    m = re.fullmatch(r"counterexample bid=(.*) valuation=(.*)", line)
    if not m:
        return False
    alloc, price = tables
    b = _bid_vector(json.loads(m[1]))
    v = _read_num(json.loads(m[2]))
    k = case.bidders.index(case.bidder)
    truthful = b[:k] + (v,) + b[k + 1 :]
    if b not in alloc or truthful not in alloc:
        return False
    return v * alloc[b] - price[b] > v * alloc[truthful] - price[truthful]


# ---------------------------------------------------------------------------
# enumerate-stream: one enumerate partitions or enumerate injections

# (kind, source size, element shape); injections go into 7 targets.
# Four ops of each group (partitions of 9, of 8, injections of 5, of 6
# nested, of 6 numbers), so that the median op and the 11th largest fall
# inside a group of like ops.  Partitions of 10 are left out: their 115,975 lines
# take 9 s to check, which would leave time for few other ops.
ENUMERATIONS = (
    *[("partitions", 9, "number"), ("partitions", 9, "symbol")] * 2,
    *[("partitions", 8, "nested")] * 4,
    *[("injections", 5, "symbol")] * 4,
    *[("injections", 6, "nested"), ("injections", 6, "number")] * 4,
)
TINY_ENUMERATIONS = (
    ("partitions", 4, "symbol"),
    ("partitions", 3, "nested"),
    ("injections", 2, "number"),
    ("injections", 2, "nested"),
)
TARGETS = 7


def _elements(shape: str, n: int, rng: random.Random) -> list:
    keys = rng.sample(range(1000), n)  # distinct, so the elements are too
    if shape == "number":
        return keys
    if shape == "symbol":
        return [f"{rng.choice('abcdefgh')}{k}" for k in keys]
    out = []
    for k in keys:
        lo = rng.randint(-50, 50)
        out.append(["pair", f"p{k}", ["set", lo, lo + rng.randint(1, 9)]])
    return out


class EnumerateStream(Workload):
    name = "enumerate-stream"
    round_s = 9.0

    def _op(self, kind: str, n: int, shape: str, rng, cap: bool = False) -> Op:
        source = _elements(shape, n, rng)
        argv = ["enumerate", kind, json.dumps(["set", *source])]
        target = None
        if kind == "injections":
            target = _elements("symbol", TARGETS if not self.tiny else 3, rng)
            argv.append(json.dumps(["set", *target]))
        return Op(argv, cap, (kind, source, target))

    def warmup(self) -> Op:
        return self._op("partitions", 4, "symbol", self.rng("warmup"))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        table = TINY_ENUMERATIONS if self.tiny else ENUMERATIONS
        largest = max(n for kind, n, _ in table if kind == "partitions")
        return [
            self._op(kind, n, shape, rng, cap=kind == "partitions" and n == largest)
            for kind, n, shape in table
        ]

    def check(self, op: Op, text: str, result) -> bool:
        if result != 0:
            return False
        kind, source, target = op.spec
        lines = text.split("\n")
        if lines.pop() != "":
            return False
        n = len(source)
        if kind == "partitions":
            expected = _bell(n)
        else:
            expected = math.perm(len(target), n)
        if len(lines) != expected or len(set(lines)) != expected:
            return False
        xs = {encoding.parse_value(json.dumps(e)) for e in source}
        ys = {encoding.parse_value(json.dumps(e)) for e in target or ()}
        for line in lines:
            v = encoding.parse_value(line)
            if encoding.serialize_value(v) != line:
                return False
            if kind == "partitions":
                blocks = v.elements
                members = [e for block in blocks for e in block.elements]
                if not all(block.elements for block in blocks):
                    return False
                if len(members) != n or set(members) != xs:
                    return False
            else:
                firsts = [p.first for p in v.elements]
                seconds = [p.second for p in v.elements]
                if len(firsts) != n or set(firsts) != xs:
                    return False
                if len(set(seconds)) != n or not set(seconds) <= ys:
                    return False
        return True


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


WORKLOADS = {w.name: w for w in (LawsFull, VickreyClear, SingleGrid, EnumerateStream)}
