"""Finite relation algebra with exhaustively checked laws and auction clearing.

The package is organized bottom-up, each module importing only earlier ones:

- errors: the three input error types and the nesting-depth cap.
- values: the hereditarily finite value universe (numbers, symbols,
  pairs, canonical sets) with its total order and set operations.
- encoding: the JSON text format, which auctions and expressions read.
- relations: the operator suite over relations-as-pair-sets (outside,
  paste, evaluation, right-uniqueness, graphs, maximizer sets).
- enumeration: injections and partitions by constructive recursion.
- quotients: projector, quotient, compatibility, kernel.
- auctions: single-good second-price mechanisms with the dominance and
  payment-form checks, and combinatorial Vickrey clearing.
- paper: the paper's set-theoretic formulations (seven of right-uniqueness,
  the composed kernel and compatibility, the partition predicates and
  oracle, the allocation space, brute-force welfare), the oracles of the
  fast paths above; only laws imports it.
- laws: executable laws checked over small finite universes.
- expressions: the operator expression language that `eval` reads.
- cli: the command line.
"""

__version__ = "0.1.0"

from .values import (
    EMPTY,
    UNDEFINED,
    V,
    Value,
    as_fraction,
    big_union,
    canonicalize,
    cartesian_product,
    difference,
    fset,
    intersection,
    is_subset,
    max_of,
    member,
    min_of,
    num,
    pair,
    rat,
    size,
    sym,
    the_elem,
    union,
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
    is_relation,
    outside,
    paste,
    range_of,
    relation,
    right_unique,
    single_outside,
    single_paste,
    to_function,
    trivial,
)
from .quotients import (
    compatible,
    identity_on,
    kernel,
    projector,
    quotient,
)
from .enumeration import (
    all_partitions_list,
    all_subsets,
    injections_alg,
    injections_oracle,
)
from .auctions import (
    CombinatorialInstance,
    Outcome,
    SingleGoodMechanism,
    clear_vickrey,
    dominant_strategy_counterexample,
    first_price_single_good,
    make_instance,
    second_price_single_good,
    vickrey_payment_form_check,
)
from .encoding import parse_value, serialize_value
from .expressions import evaluate_expression
from .laws import LAWS, LawConfig, LawReport, run_all, run_law
from .paper import (
    all_partitions_oracle, is_equivalence, is_partition, is_partition_of, possible_allocations,
)
from .errors import CapExceeded, ParseError, ValidationError
