"""Registry of executable laws over generated finite universes.

Every algebraic fact the library relies on is registered here as a law:
a deterministic case generator plus a checker over the values of a case.
Most laws are universally quantified ("forall"): they pass when every
generated case checks out, and the first failing case is reported as a
counterexample.  A few are searches ("exists"): they pass when a witness
is found, and the witness is reported in the counterexample slot (it is
a counterexample to the unguarded claim whose necessity the law
establishes).

A case is a plain tuple of Values and the checker takes them as its
arguments, so a reported counterexample replays as
``LAWS[law_id].check(*report.counterexample)``.  Only the report packs a
case into one Value (right-nested pairs) to print it.  A law may also
name a factory that makes a checker for one run, so that the run reuses
work shared by its cases; the checker lives only as long as its
run, gives every case the verdict ``check`` gives it, and a counterexample
still replays through the stateless ``check``.  Reports are
byte-deterministic for a fixed (law, profile, seed); elapsed time is kept
on the report object but excluded from its canonical serialization.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ValidationError
from .values import (
    EMPTY,
    Value,
    as_fraction,
    cartesian_product,
    difference,
    fset,
    intersection,
    is_subset,
    member,
    num,
    pair,
    rat,
    sym,
    union,
    _set_of_sorted,
)
from .relations import (
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
    single_paste,
    to_function,
)
from .quotients import (
    all_partial_equivalences,
    compatible,
    identity_on,
    kernel,
    projector,
    quotient,
    _quotient_of,
    _touching,
)
from .enumeration import (
    _bell,
    all_partitions_list,
    all_subsets,
    injections_alg,
    injections_oracle,
)
from .auctions import (
    CombinatorialInstance,
    _fee_table,
    _grid_counterexample,
    _utility,
    clear_vickrey,
    dominant_strategy_counterexample,
    first_price_single_good,
    make_instance,
    max_rival_bid,
    reduced_bid_map,
    reduced_price_map,
    second_price_single_good,
    vickrey_payment_form_check,
)
from .paper import (
    RIGHT_UNIQUE_CHARACTERIZATIONS,
    _oracle_optima,
    all_partitions_oracle,
    functional_family,
    is_equivalence,
    is_partition_of,
    won_value,
)

PROFILES = ("quick", "full")


@dataclass(frozen=True)
class LawConfig:
    profile: str = "quick"
    seed: int = 0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile!r}; use quick or full")

    @property
    def full(self) -> bool:
        return self.profile == "full"

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")


@dataclass(frozen=True)
class Law:
    law_id: str
    statement: str
    kind: str  # "forall" or "exists"
    cases: Callable[[LawConfig], Iterable[tuple[Value, ...]]]
    check: Callable[..., bool]  # takes the Values of one case
    # makes the checker for one run, which agrees with check on every case
    # and may reuse work between the run's cases; None: the run uses check
    checker: Callable[[], Callable[..., bool]] | None = None


@dataclass
class LawReport:
    law_id: str
    profile: str
    seed: int
    cases: int
    passed: bool
    counterexample: tuple[Value, ...] | None
    elapsed: float
    error: str | None = None  # what the checker raised on the counterexample


LAWS: dict[str, Law] = {}


def _register(law_id, statement, cases, check, kind="forall", checker=None):
    LAWS[law_id] = Law(law_id, statement, kind, cases, check, checker)


def run_law(law_id: str, config: LawConfig = LawConfig()) -> LawReport:
    if law_id not in LAWS:
        raise ValidationError(f"unknown law {law_id!r}")
    law = LAWS[law_id]
    start = time.perf_counter()
    check = law.check if law.checker is None else law.checker()
    count = 0
    found: tuple[Value, ...] | None = None
    error = None
    for case in law.cases(config):
        count += 1
        try:
            ok = check(*case)
        except Exception as exc:  # a checker that raises fails its law on that case
            found, error = case, f"{type(exc).__name__}: {exc}"
            break
        if law.kind == "forall" and not ok:
            found = case
            break
        if law.kind == "exists" and ok:
            found = case
            break
    elapsed = time.perf_counter() - start
    passed = error is None and (found is None) == (law.kind == "forall")
    return LawReport(law_id, config.profile, config.seed, count, passed, found, elapsed, error)


def run_all(config: LawConfig = LawConfig()) -> list[LawReport]:
    return [run_law(law_id, config) for law_id in LAWS]


def serialize_report(report: LawReport) -> str:
    """Canonical one-line record; deterministic for fixed (law, config).

    The elapsed time is intentionally left out so identical runs produce
    identical bytes.
    """
    line = (
        f"law={report.law_id} profile={report.profile} seed={report.seed}"
        f" cases={report.cases} result={'pass' if report.passed else 'fail'}"
    )
    if report.counterexample is not None:
        field = "witness" if report.passed else "counterexample"
        line += f" {field}={_pack(*report.counterexample)!r}"
    return line


def _pack(*vs: Value) -> Value:
    """A case as the one Value a report prints: right-nested pairs."""
    out = vs[-1]
    for v in reversed(vs[:-1]):
        out = pair(v, out)
    return out


# ---------------------------------------------------------------------------
# shared generators

def _atoms(n: int, start: int = 0) -> list[Value]:
    return [num(k) for k in range(start, start + n)]


def _all_relations(A: list[Value], B: list[Value]) -> Iterable[Value]:
    pool = _pair_pool(A, B)
    return (_masked(pool, mask) for mask in range(1 << len(pool)))


def _right_unique_relations(A: list[Value], B: list[Value]) -> Iterable[Value]:
    choices = [None] + list(B)
    for combo in itertools.product(choices, repeat=len(A)):
        yield fset(pair(a, b) for a, b in zip(A, combo) if b is not None)


def _pair_pool(A: list[Value], B: list[Value]) -> list[Value]:
    """Every pair of A x B.  A and B come ascending (every caller passes
    _atoms), so the pool is in canonical order and so is each subset that
    _masked takes of it."""
    return [pair(a, b) for a in A for b in B]


def _masked(pool: list[Value], mask: int) -> Value:
    return _set_of_sorted(tuple([pool[i] for i in range(len(pool)) if mask >> i & 1]))


def _random_relation(rng: random.Random, pool: list[Value]) -> Value:
    """A uniformly random subset of the pair pool, one rng draw."""
    return _masked(pool, rng.getrandbits(len(pool)))


# ---------------------------------------------------------------------------
# value-core laws

def _boolean_cases(config):
    yield from itertools.product(all_subsets(fset(_atoms(3))).payload, repeat=3)


def _boolean_check(a, b, c):
    return (
        union(a, b) == union(b, a)
        and intersection(a, b) == intersection(b, a)
        and union(union(a, b), c) == union(a, union(b, c))
        and intersection(intersection(a, b), c) == intersection(a, intersection(b, c))
        and union(a, intersection(a, b)) == a
        and intersection(a, union(a, b)) == a
        and intersection(a, union(b, c)) == union(intersection(a, b), intersection(a, c))
        and union(a, intersection(b, c)) == intersection(union(a, b), union(a, c))
    )


_register(
    "boolean_algebra",
    "set union/intersection satisfy commutativity, associativity, absorption "
    "and distributivity on all subset triples of a 3-atom universe",
    _boolean_cases,
    _boolean_check,
)


def _order_family(extended: bool) -> list[Value]:
    atoms = [num(0), rat(1, 2), sym("a")]
    fam = list(atoms)
    fam += [pair(x, y) for x in atoms for y in atoms]
    fam += list(all_subsets(fset(atoms)).payload)
    if extended:
        base = fam[:8]
        fam += [pair(x, y) for x in base for y in base]
        fam += [fset([x, y]) for x in base for y in base]
    return fam


def _order_cases(config):
    yield from itertools.product(_order_family(extended=False), repeat=3)
    if config.full:
        rng = config.rng("order")
        fam = _order_family(extended=True)
        for _ in range(20000):
            yield (rng.choice(fam), rng.choice(fam), rng.choice(fam))


def _order_check(v, w, u):
    trichotomy = (v < w) + (v == w) + (w < v) == 1
    transitive = (not (v < w and w < u)) or v < u
    antisym = (not (v <= w and w <= v)) or v == w
    return trichotomy and transitive and antisym


_register(
    "order_totality",
    "the value order is total, antisymmetric and transitive over a mixed "
    "family of atoms, pairs and sets",
    _order_cases,
    _order_check,
)


# ---------------------------------------------------------------------------
# relation-algebra laws

def _paste_assoc_cases(config):
    yield from itertools.product(_all_relations(_atoms(2), _atoms(2, 10)), repeat=3)
    if config.full:
        rng = config.rng("paste")
        pool = _pair_pool(_atoms(4), _atoms(4, 10))
        for _ in range(10000):
            yield (
                _random_relation(rng, pool),
                _random_relation(rng, pool),
                _random_relation(rng, pool),
            )


def _paste_assoc_check(p, q, r):
    return paste(paste(p, q), r) == paste(p, paste(q, r))


_register(
    "paste_associative",
    "pasting relations is associative, with no hypotheses",
    _paste_assoc_cases,
    _paste_assoc_check,
)


def _paste_outside_cases(config):
    A, B = _atoms(2), _atoms(2, 10)
    rels = list(_all_relations(A, B))
    yield from itertools.product(rels, rels, all_subsets(fset(A)).payload)
    if config.full:
        rng = config.rng("paste_outside")
        A3 = _atoms(3)
        pool = _pair_pool(A3, _atoms(3, 10))
        xsets3 = list(all_subsets(fset(A3)).payload)
        for _ in range(2000):
            yield (
                _random_relation(rng, pool),
                _random_relation(rng, pool),
                rng.choice(xsets3),
            )


def _paste_outside_check(p, q, x):
    pq = paste(p, q)
    dom_q = domain_of(q)
    restricted = fset(e for e in pq.payload if member(e.first, dom_q))
    return (
        domain_of(pq) == union(domain_of(p), dom_q)
        and restricted == q
        and outside(p, x) == difference(p, cartesian_product(x, range_of(p)))
        and domain_of(outside(p, x)) == difference(domain_of(p), x)
        and outside(p, EMPTY) == p
        and paste(p, EMPTY) == p
    )


_register(
    "paste_outside_domains",
    "pasting unions domains and agrees with its override on the overridden "
    "domain; outside literally removes a cartesian slab",
    _paste_outside_cases,
    _paste_outside_check,
)


def _relations_3x2(config):
    for r in _all_relations(_atoms(3), _atoms(2, 10)):
        yield (r,)


def _right_unique_char_check(R):
    verdicts = {name: f(R) for name, f in RIGHT_UNIQUE_CHARACTERIZATIONS.items()}
    return len(set(verdicts.values())) == 1


_register(
    "right_unique_characterizations",
    "all seven right-uniqueness formulations agree on every relation over "
    "a 3x2 universe",
    _relations_3x2,
    _right_unique_char_check,
)


def _right_unique_card_check(R):
    if not right_unique(R):
        return True
    return len(domain_of(R).payload) == len(R.payload)


_register(
    "right_unique_cardinality",
    "a right-unique relation has exactly as many pairs as domain points",
    _relations_3x2,
    _right_unique_card_check,
)


def _eval_union_cases(config):
    A = _atoms(3)
    setvals = list(all_subsets(fset(_atoms(2, 10))).payload)
    for R in _right_unique_relations(A, setvals):
        yield (R,)


def _eval_union_check(f):
    return all(
        eval_rel(f, x) == eval_rel_union(f, x) for x in domain_of(f).payload
    )


_register(
    "eval_union_agreement",
    "singleton evaluation and union evaluation agree on the domain of "
    "every right-unique set-valued relation",
    _eval_union_cases,
    _eval_union_check,
)


def _graph_roundtrip_cases(config):
    A = _atoms(3)
    vals = [num(5), num(7), fset([num(5)])]
    for T in _right_unique_relations(A, vals):
        yield (T,)


def _graph_roundtrip_check(T):
    X = domain_of(T)
    f = to_function(T)
    g = graph(X, f)
    return g == T and all(eval_rel(g, x) == f(x) for x in X.payload)


_register(
    "graph_eval_roundtrip",
    "building the graph of a finite table and evaluating it reproduces "
    "the table exactly",
    _graph_roundtrip_cases,
    _graph_roundtrip_check,
)


def _argmax_cases(config):
    if config.full:
        A, vals = _atoms(5), [num(1), num(2)]
    else:
        A, vals = _atoms(3), [num(1), num(2), num(3)]
    for f in _right_unique_relations(A, vals):
        dom = domain_of(f)
        for sub in all_subsets(dom).payload:
            if sub.payload:
                yield (f, sub)


def _argmax_check(f, A):
    classical = arg_max_set(f, A)
    recursive = arg_max_list(f, list(A.payload))
    return fset(recursive) == classical and len(recursive) == len(set(recursive))


_register(
    "argmax_recursive_agreement",
    "the recursive maximizer search returns exactly the classical set of "
    "maximizers",
    _argmax_cases,
    _argmax_check,
)


# ---------------------------------------------------------------------------
# quotient laws

_TAG_PROJECTOR = sym("projector")
_TAG_CLASSES = sym("classes")
_TAG_KERNEL = sym("kernel")


def _projector_kernel_cases(config):
    A, B = _atoms(3), _atoms(2, 10)
    for R in _all_relations(A, B):
        yield (_TAG_PROJECTOR, R)
    for E in all_partial_equivalences(fset(A)):
        yield (_TAG_CLASSES, E)
    for f in _right_unique_relations(A, B):
        yield (_TAG_KERNEL, f)


def _projector_kernel_check(tag, R):
    if tag == _TAG_PROJECTOR:
        literal = fset(
            pair(x, image(R, fset([x]))) for x in domain_of(R).payload
        )
        return projector(R) == literal and right_unique(projector(R))
    if tag == _TAG_CLASSES:
        classes = range_of(projector(R))
        dom = domain_of(R)
        return (not dom.payload) or is_partition_of(classes, dom)
    k = kernel(R)
    return is_equivalence(k, domain_of(R))


_register(
    "projector_kernel_properties",
    "projector matches its defining comprehension and is right-unique; "
    "equivalence classes partition the carrier; kernels are equivalences",
    _projector_kernel_cases,
    _projector_kernel_check,
)


def _quotient_triples(config):
    """f, then P, then Q; the relations f come one at a time, so the witness
    search builds none past its witness."""
    A, B = _atoms(3), _atoms(2, 10)
    ps = all_partial_equivalences(fset(A))
    qs = all_partial_equivalences(fset(B))
    for f in _right_unique_relations(A, B):
        yield from itertools.product([f], ps, qs)


def _quotient_right_unique_check(f, P, Q):
    if not compatible(f, P, Q):
        return True
    return right_unique(quotient(f, P, Q))


_register(
    "quotient_preserves_right_unique",
    "the quotient of a compatible right-unique relation by a symmetric "
    "transitive relation and an equivalence is right-unique",
    _quotient_triples,
    _quotient_right_unique_check,
)


def _incompatible_not_right_unique(f, P, Q):
    return (not compatible(f, P, Q)) and (not right_unique(quotient(f, P, Q)))


_register(
    "compatibility_necessity",
    "without compatibility the quotient of a right-unique relation can "
    "fail to be right-unique (witness search)",
    _quotient_triples,
    _incompatible_not_right_unique,
    kind="exists",
)


def _factorization_cases(config):
    """r, then p, then q, the order _factorization_checker relies on; the
    relations r come one at a time, 512 of them on the full profile."""
    A = _atoms(3) if config.full else _atoms(2)
    eqs = all_partial_equivalences(fset(A))
    for r in _all_relations(A, A):
        yield from itertools.product([r], eqs, eqs)


def _factorization_checker():
    """A checker for one run.  The cases come r-outer, then p, then q.

    A case's verdict depends on two values only: the (r, p) half of the
    quotient, _touching(r, p), and the lift compose(converse(projector(p)),
    r), the one input of the right side.  So for each new (r, p), matched
    by identity, it computes both once and looks up the verdicts kept for
    that (touching, lift), compared by value; only a q not yet checked for
    it computes _quotient_of(touching, q) == compose(lift, projector(q)).
    The memo keeps booleans, no quotient and no right side, one entry per
    distinct (touching, lift) of the run.  A computation that raises
    stores nothing, so every case gets the verdict, or the exception, that
    check gives it.  The last (r, p) holds r so that its id cannot be
    reused while the entry lives."""
    last = (None, None, None, None)  # r, p, (touching, lift), memo[(touching, lift)]
    memo = {}  # (touching, lift) -> {q: verdict}

    def check(r, p, q):
        nonlocal last
        last_r, last_p, key, verdicts = last
        if r is not last_r or p is not last_p:
            lifted = compose(converse(projector(p)), r)
            key = (_touching(r, p), lifted)
            verdicts = memo.get(key)
            if verdicts is None:
                verdicts = memo[key] = {}
            last = (r, p, key, verdicts)
        verdict = verdicts.get(q)
        if verdict is None:
            touching, lifted = key
            verdict = verdicts[q] = _quotient_of(touching, q) == compose(lifted, projector(q))
        return verdict

    return check


def _factorization_check(r, p, q):
    return _factorization_checker()(r, p, q)


_register(
    "quotient_factorization",
    "the quotient comprehension equals converse-projector, relation, "
    "projector composed, for relations over a square universe",
    _factorization_cases,
    _factorization_check,
    checker=_factorization_checker,
)


# ---------------------------------------------------------------------------
# enumeration laws

def _injection_cases(config):
    if config.full:
        pool = [sym(s) for s in ("a", "b", "c")]
        ys = [s for s in all_subsets(fset(_atoms(4, 1))).payload if s.payload]
        max_len = 3
    else:
        pool = [sym(s) for s in ("a", "b")]
        ys = [s for s in all_subsets(fset(_atoms(3, 1))).payload if s.payload]
        max_len = 2
    listings = [relation(enumerate(xs))
                for k in range(max_len + 1) for xs in itertools.permutations(pool, k)]
    yield from itertools.product(listings, ys)
    if config.full:
        # size-4 witnesses for the falling-factorial counts
        listing4 = relation(enumerate(sym(s) for s in ("a", "b", "c", "d")))
        for k in range(1, 5):
            yield (listing4, fset(_atoms(k, 1)))


def _injection_check(listing, Y):
    xs = [p.second for p in listing.payload]  # indexed pairs keep the order
    constructed = [fset(pairs) for pairs in injections_alg(xs, Y)]
    oracle = injections_oracle(fset(xs), Y)
    if fset(constructed) != oracle:
        return False
    if len(constructed) != len(set(constructed)):
        return False
    if len(oracle.payload) != math.perm(len(Y.payload), len(xs)):
        return False
    return all(
        right_unique(R) and right_unique(converse(R)) for R in oracle.payload
    )


_register(
    "injections_match_oracle",
    "the recursive injection enumeration equals the predicate-filtered "
    "oracle, without duplicates, and counts match falling factorials",
    _injection_cases,
    _injection_check,
)


def _partition_cases(config):
    top = 5 if config.full else 4
    pool = [sym(s) for s in ("a", "b", "c", "d", "e")]
    for n in range(top + 1):
        yield (relation(enumerate(pool[:n])),)


def _partition_check(listing):
    xs = [p.second for p in listing.payload]  # indexed pairs keep the order
    constructed = all_partitions_list(xs)
    as_sets = [fset(p) for p in constructed]
    oracle = all_partitions_oracle(fset(xs))
    return (
        fset(as_sets) == oracle
        and len(as_sets) == len(set(as_sets))
        and len(constructed) == len(oracle.payload) == _bell(len(xs))
    )


_register(
    "partitions_match_oracle",
    "the recursive partition enumeration equals the predicate-filtered "
    "oracle, producing each partition exactly once, Bell(n) of them",
    _partition_cases,
    _partition_check,
)


# ---------------------------------------------------------------------------
# auction laws

def _grid_family(config) -> list[Value]:
    pool = _atoms(4) if config.full else _atoms(3)
    return [s for s in all_subsets(fset(pool)).payload if s.payload]


def _bidder_family() -> list[Value]:
    return [fset(_atoms(2, 1)), fset(_atoms(3, 1))]


def _mechanism_cases(config):
    for grid, bidders in itertools.product(_grid_family(config), _bidder_family()):
        for i in bidders.payload:
            yield (grid, bidders, i)


def _second_price_dominant_check(grid, bidders, i):
    # run-single decides on grid positions: it must answer as the definition
    m = second_price_single_good(bidders, grid, i)
    cx = dominant_strategy_counterexample(m.bidder, m.alloc, m.price)
    return cx is None and _grid_counterexample(m) is None


_register(
    "second_price_dominant",
    "truthful bidding is weakly dominant in the second-price mechanism "
    "for every grid, bidder set and bidder of interest",
    _mechanism_cases,
    _second_price_dominant_check,
)


def _first_price_cases(config):
    for grid, bidders in itertools.product(_grid_family(config), _bidder_family()):
        if len(grid.payload) >= 2:
            yield (grid, bidders, bidders.payload[0])
        if len(grid.payload) >= 3:
            for i in bidders.payload:
                yield (grid, bidders, i)


def _first_price_violation_check(grid, bidders, i):
    m = first_price_single_good(bidders, grid, i)
    cx = dominant_strategy_counterexample(m.bidder, m.alloc, m.price)
    if cx is None or _grid_counterexample(m) != cx:
        return False
    b, v = cx
    # replay: the reported pair must itself violate the inequality
    truthful = single_paste(b, i, v)
    return _utility(v, eval_rel(m.alloc, b), eval_rel(m.price, b)) > _utility(
        v, eval_rel(m.alloc, truthful), eval_rel(m.price, truthful)
    )


_register(
    "first_price_not_dominant",
    "the first-price mutant admits a replayable profitable deviation on "
    "every grid with a tie-favored bidder or at least three bid levels",
    _first_price_cases,
    _first_price_violation_check,
)


def _reduced_bid_compat_check(grid, bidders, i):
    m = second_price_single_good(bidders, grid, i)
    hypotheses = (
        functional_family(domain_of(m.alloc))
        and is_subset(domain_of(m.alloc), domain_of(m.price))
        and right_unique(m.price)
    )
    if not hypotheses:
        return False
    k = kernel(reduced_bid_map(m.bidder, m.alloc))
    return compatible(m.price, k, identity_on(range_of(m.price)))


_register(
    "reduced_bid_kernel_compatible",
    "the second-price price relation is compatible with the kernel of the "
    "reduced-bid map and the identity on its own range",
    _mechanism_cases,
    _reduced_bid_compat_check,
)


def _vickrey_form_cases(config):
    # the fee extraction needs a bidder who can lose against every rival
    # profile; the canonical tie-break favors the least bidder, so take
    # the greatest
    for grid, bidders in itertools.product(_grid_family(config), _bidder_family()):
        yield (grid, bidders, bidders.payload[-1])


def _vickrey_form_check(grid, bidders, i):
    m = second_price_single_good(bidders, grid, i)
    rp = reduced_price_map(m.price, m.bidder, m.alloc)
    if not right_unique(rp):
        return False
    fee = _fee_table(rp, m.bidder, m.alloc)
    return vickrey_payment_form_check(
        m.bidder, m.alloc, m.price, max_rival_bid, fee, num(0)
    )


_register(
    "vickrey_payment_decomposition",
    "the reduced price map is right-unique and its extracted fee table "
    "decomposes every second-price payment as alloc * rival-max + fee",
    _vickrey_form_cases,
    _vickrey_form_check,
)


def random_instance(rng) -> CombinatorialInstance:
    """Seeded random instance of 1-4 goods and 1-3 bidders with
    free-disposal valuations.

    Raw bundle values are drawn independently, then closed upward so a
    larger bundle is never worth less; that monotonicity is what makes
    exclusion payments provably non-negative under clear_vickrey's
    allocation space.
    """
    n_goods = rng.randint(1, 4)
    n_bidders = rng.randint(1, 3)
    goods = fset(sym(f"g{k}") for k in range(1, n_goods + 1))
    bidders = fset(num(k) for k in range(1, n_bidders + 1))
    bundles = [s for s in all_subsets(goods).payload if s.payload]
    # each bundle's goods as a frozenset, built once per instance
    members = [frozenset(bundle.payload) for bundle in bundles]
    triples = []
    for bidder in bidders.payload:
        raw = [Fraction(rng.randint(0, 24), rng.choice((1, 1, 2, 4))) for _ in bundles]
        for bundle, keys in zip(bundles, members):
            closed = max(x for x, inside in zip(raw, members) if inside <= keys)
            triples.append((bidder, bundle, num(closed)))
    return make_instance(goods, bidders, triples)


def _instance(goods: Value, bidders: Value, table: Value) -> CombinatorialInstance:
    valuations = {
        (p.first.first, p.first.second): as_fraction(p.second) for p in table.payload
    }
    return CombinatorialInstance(goods, bidders, valuations)


def _instance_cases(config):
    # the valuations stay one Value, a table of ((bidder, bundle), value),
    # so a counterexample is printed as a Value like every other case
    rng = config.rng("vcg")
    count = 200 if config.full else 30
    for _ in range(count):
        inst = random_instance(rng)
        table = fset(
            pair(pair(bidder, bundle), num(v))
            for (bidder, bundle), v in inst.valuations.items()
        )
        yield (inst.goods, inst.bidders, table)


def _payment_bounds_check(goods, bidders, table):
    inst = _instance(goods, bidders, table)
    out = clear_vickrey(inst)
    recomputed = sum(
        (inst.value(p.second, p.first) for p in out.allocation.payload), Fraction(0)
    )
    if recomputed != out.welfare:
        return False
    for entry in out.payments.payload:
        n, paid = entry.first, as_fraction(entry.second)
        if paid < 0 or paid > won_value(inst, out.allocation, n):
            return False
    return True


_register(
    "vcg_payment_bounds",
    "every cleared payment is non-negative and never exceeds the bidder's "
    "reported value for what they won",
    _instance_cases,
    _payment_bounds_check,
)


def _oracle_best_value(inst: CombinatorialInstance, bidders: list[Value]) -> Fraction:
    """Brute-force welfare maximum when only `bidders` take part (paper._oracle_optima)."""
    return _oracle_optima(inst, bidders)[0]


def _oracle_match_check(goods, bidders, table):
    inst = _instance(goods, bidders, table)
    out = clear_vickrey(inst)
    welfare, excluded = _oracle_optima(inst)
    if welfare != out.welfare:
        return False
    for entry in out.payments.payload:
        n, paid = entry.first, as_fraction(entry.second)
        others = out.welfare - won_value(inst, out.allocation, n)
        if paid != excluded[n] - others:
            return False
    return True


_register(
    "vcg_matches_oracle",
    "cleared welfare and payments agree with an independent recursive "
    "assignment oracle",
    _instance_cases,
    _oracle_match_check,
)
