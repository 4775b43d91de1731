"""Command-line interface.

Exit codes: 0 ok, 1 parse error, 2 validation error (including a failing
law) or i/o error, 3 cap exceeded; main catches nothing else, so any other
exception is a bug and shows as one.  Standard output is UTF-8 whatever the
locale, canonical, and byte-deterministic for identical invocations;
check-laws prints per-law timings to standard error.  Every command writes
its standard output through one writer, in blocks of WRITE_BLOCK_LINES
lines after a first line written at once.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from contextlib import nullcontext

from . import __version__
from .errors import CapExceeded, ParseError, ValidationError
from .encoding import parse_value, serialize_elements, serialize_value
from .expressions import evaluate_expression
from .enumeration import (
    CAP_ENUMERATE_LINES,
    MAX_PARTITION_ELEMENTS,
    _perm_exceeds,
    all_partitions_list,
    injections_alg,
)
from .auctions import (
    _grid_counterexample,
    _input_set,
    clear_vickrey,
    first_price_single_good,
    parse_instance,
    second_price_single_good,
    serialize_outcome,
)
from .laws import LAWS, PROFILES, LawConfig, run_all, run_law, serialize_report

# lines per write after the first: one write per line is a Python-level
# call on the stream each, which costs more than building the line
WRITE_BLOCK_LINES = 1024


def _write_lines(lines) -> None:
    """Write each of lines, and a newline after it, to standard output:
    the first line in a write of its own, before any later line is read,
    and the rest joined in blocks of WRITE_BLOCK_LINES lines, one write
    each.  lines may be any iterable; it is read as the blocks are written."""
    write, rest = sys.stdout.write, iter(lines)
    for first in rest:
        write(first + "\n")
        break
    while block := list(itertools.islice(rest, WRITE_BLOCK_LINES)):
        block.append("")
        write("\n".join(block))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _cmd_eval(args) -> int:
    _write_lines([serialize_value(evaluate_expression(_read_text(args.path)))])
    return 0


def _cmd_enumerate(args) -> int:
    # the output is sized against the cap before anything is enumerated,
    # without counting it in full
    if args.kind == "partitions":
        xs = list(_input_set(parse_value(args.elements), "elements").elements)
        over = len(xs) > MAX_PARTITION_ELEMENTS
    else:
        xs = list(_input_set(parse_value(args.source), "source").elements)
        Y = _input_set(parse_value(args.target), "target")
        over = _perm_exceeds(len(Y.elements), len(xs), CAP_ENUMERATE_LINES)
    if over:
        raise CapExceeded(f"more than {CAP_ENUMERATE_LINES} {args.kind} to list")
    # xs is in canonical order, so each block or pair list is too: a line
    # is the text of the partition's set of blocks or of the injection's
    # set of pairs, with no set built
    listed = all_partitions_list(xs) if args.kind == "partitions" else injections_alg(xs, Y)
    _write_lines(serialize_elements(e) for e in listed)
    return 0


def _cmd_run_single(args) -> int:
    bidders = parse_value(args.bidders)
    grid = parse_value(args.grid)
    i = parse_value(args.bidder)
    build = second_price_single_good if args.rule == "second-price" else first_price_single_good
    _write_lines(_mechanism_lines(args.rule, build(bidders, grid, i)))
    return 0


def _mechanism_lines(rule: str, m):
    """The lines run-single writes for mechanism m, made as they are read,
    so that the first is written before the dominance check runs.  The
    check reads the grid positions the builder kept, and only a
    counterexample is turned back into Values."""
    yield f"rule {rule}"
    yield f"bidders {serialize_value(m.bidders)}"
    yield f"grid {serialize_value(m.grid)}"
    yield f"bidder {serialize_value(m.bidder)}"
    yield f"alloc {serialize_value(m.alloc)}"
    yield f"price {serialize_value(m.price)}"
    cx = _grid_counterexample(m)
    if cx is None:
        yield "dominant true"
    else:
        b, v = cx
        yield "dominant false"
        yield f"counterexample bid={serialize_value(b)} valuation={serialize_value(v)}"


def _cmd_run_combinatorial(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    outcome = clear_vickrey(inst)
    text = serialize_outcome(outcome)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        _write_lines([text])
    return 0


def _cmd_check_laws(args) -> int:
    config = LawConfig(args.profile, args.seed)
    # opened before any law runs, so a path that cannot be written fails at once
    with open(args.report, "w", encoding="utf-8") if args.report else nullcontext() as fh:
        if args.law:
            reports = [run_law(args.law, config)]
        else:
            reports = run_all(config)
        lines = [serialize_report(r) for r in reports]
        for report, line in zip(reports, lines):
            _write_lines([line])
            print(f"{report.law_id}: {report.elapsed * 1000:.1f} ms", file=sys.stderr)
            if report.error:
                print(f"{report.law_id}: the checker raised {report.error}", file=sys.stderr)
        if fh is not None:
            fh.write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in reports) else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    far more than a parse, and parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="finrel",
        description="Finite relation algebra, enumeration laws, and Vickrey auction clearing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an operator expression from a file")
    p_eval.add_argument("path")
    p_eval.set_defaults(fn=_cmd_eval)

    p_enum = sub.add_parser("enumerate", help="list partitions or injections")
    enum_sub = p_enum.add_subparsers(dest="kind", required=True)
    p_parts = enum_sub.add_parser("partitions", help="all partitions of a set")
    p_parts.add_argument("elements", help='value text of the set, e.g. \'["set",1,2,3]\'')
    p_parts.set_defaults(fn=_cmd_enumerate)
    p_injs = enum_sub.add_parser("injections", help="all injections between two sets")
    p_injs.add_argument("source")
    p_injs.add_argument("target")
    p_injs.set_defaults(fn=_cmd_enumerate)

    p_single = sub.add_parser("run-single", help="build a single-good grid mechanism")
    p_single.add_argument("--bidders", required=True)
    p_single.add_argument("--grid", required=True)
    p_single.add_argument("--bidder", required=True, help="the bidder whose incentives are checked")
    p_single.add_argument(
        "--rule", choices=("second-price", "first-price"), default="second-price"
    )
    p_single.set_defaults(fn=_cmd_run_single)

    p_comb = sub.add_parser("run-combinatorial", help="clear a combinatorial Vickrey auction")
    p_comb.add_argument("instance")
    p_comb.add_argument("-o", "--output")
    p_comb.set_defaults(fn=_cmd_run_combinatorial)

    p_laws = sub.add_parser("check-laws", help="run the registered law suite")
    p_laws.add_argument("--law", choices=sorted(LAWS), metavar="ID")
    p_laws.add_argument("--profile", choices=PROFILES, default="quick")
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--report", metavar="PATH")
    p_laws.set_defaults(fn=_cmd_check_laws)

    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # a console or file, not an in-memory text sink
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
