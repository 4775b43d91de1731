"""Seeded fuzzing of the command line: every generated input ends in one of
the documented exit codes, with no exception out of `main`, and a failure
writes one line to stderr and nothing to stdout.

Only the standard library is used, so this runs in tier-1 without the
test extra.  The cases are drawn once from a fixed seed and their number
is pinned.  A random draw reaches no cap, so the inputs aimed at the caps
are written out, and each of them must exit 3.

Covered: `run-single`, `enumerate`, `run-combinatorial`, `eval` and
`check-laws`.  The `check-laws` slice has its own assertion, because that
command fails in other ways: it reads no value and has no cap, so it never
exits 1 or 3; its arguments are checked by argparse, whose exit 2 comes
through `SystemExit` with its usage on stderr; and every run that checks
a law prints that law's timing to stderr.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from finrel.cli import main
from finrel.expressions import OPERATORS
from finrel.laws import LAWS
from test_cli import _COMPOSED_KERNELS_60, _KERNEL_400, _QUOTIENT_400

# value texts of every kind: numbers written several ways, the same number
# twice (1/2 and 2/4), symbols, a pair, sets empty and nested
ATOMS = ["0", "1", "2", "3", "-1", '"1/2"', '"2/4"', '"-3/4"', '"a"', '"é"',
         '["pair",1,2]', '["set"]', '["set",1]', '["set",["set",1]]']
# texts that are no value, or a value of the wrong shape for an argument
BROKEN = ["", "[", '["set",1', "true", "null", "1.5", '"1/0"', '["bag",1]', '["pair",1]',
          "{}", '"1"', "[]", '"⊥"']
# mostly valid elements, so that a fair share of the draws builds a mechanism
BIDDER_POOL = ["1", "2", "3"] * 3 + ['"a"', '"1/2"', '["set",1]', '["pair",1,2]']
GRID_POOL = ["0", "1", "2", "3", '"1/2"', '"2/4"', "-1", '"-3/4"'] * 2 + ['"a"', '["set"]']

_DIGITS = "1" * 4301
_DEEP = '["set",' * 101 + "1" + "]" * 101
_VALID = {"bidders": '["set",1,2,3]', "grid": '["set",0,1,2]', "bidder": "1"}
# each input aimed at a cap, the other arguments valid
RUN_SINGLE_CAPS = [
    {"bidders": '["set",1,2,3,4]'},
    {"grid": '["set",0,1,2,3,4,5]'},
    {"grid": f'["set",0,{_DIGITS}]'},
    {"grid": f'["set",0,"1/{_DIGITS}"]'},
    {"bidder": _DIGITS},
    {"bidders": _DEEP},
    {"grid": _DEEP},
    {"bidder": _DEEP},
]
RANDOM_CASES = 300


def _set_of(elements) -> str:
    return "[" + ",".join(['"set"', *map(str, elements)]) + "]"


# each input aimed at a cap: the line count (partitions of 11, injections
# of 6 into 10), then the depth and digit caps of each argument
ENUMERATE_CAPS = [
    ["partitions", _set_of(range(11))],
    ["injections", _set_of(range(6)), _set_of(range(10))],
    ["partitions", _DEEP],
    ["partitions", f'["set",0,{_DIGITS}]'],
    ["injections", _DEEP, '["set",1]'],
    ["injections", '["set",1]', f'["set","1/{_DIGITS}"]'],
]
ENUMERATE_RANDOM_CASES = 200

# goods and bidders: atoms mostly, now and then a value that is no atom
GOOD_POOL = ['"g1"', '"g2"', '"g3"', '"g4"', "1", '"1/2"', '"é"'] * 8 + ['["pair",1,2]', '["set"]']
COMBINATORIAL_BIDDER_POOL = (["1", "2", "3"] * 4 + ['"a"', '"-1/2"']) * 3 + ['["set",1]']
# amounts: the same rationals written several ways, and zeros
AMOUNTS = ["0", "1", "3", "12", '"1/2"', '"2/4"', '"4/2"', '"7/3"', '"14/6"', '"0/3"', '"-0/1"']
# texts that are no amount, or a negative one
BAD_AMOUNTS = ["-1", '"-3/4"', '"a"', '["set"]', "1.5", "true"]
# rows and documents of the wrong shape
BROKEN_ROWS = ["[]", "[1]", '[1,["set"]]', '[1,["set"],1,2]', "{}", '"row"', "null"]
BROKEN_DOCUMENTS = BROKEN + [
    "[]", '{"goods":["set","g1"]}', '{"goods":1,"bidders":1,"valuations":[]}']


def _document(fields: dict) -> str:
    """The instance document of the texts of its fields."""
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields.items()) + "}"


_TWO_BY_TWO = {"goods": '["set","g1","g2"]', "bidders": '["set",1,2]', "valuations": "[]"}
# each input aimed at a cap, the rest of the document valid; the last one's
# outcome outgrows the digit limit its inputs meet: 1/(10^4000 + 1) +
# 1/(10^4000 + 3) has a denominator of 8,001 digits
RUN_COMBINATORIAL_CAPS = [_document({**_TWO_BY_TWO, **cap}) for cap in (
    {"goods": _set_of(f'"g{k}"' for k in range(1, 8))},
    {"bidders": _set_of(range(1, 8))},
    {"valuations": f"[[1,{_DEEP},1]]"},
    {"valuations": f'[[1,["set","g1"],{_DIGITS}]]'},
    {"valuations": f'[[1,["set","g1"],"1/{10**4000 + 1}"],[2,["set","g2"],"1/{10**4000 + 3}"]]'},
)]
RUN_COMBINATORIAL_RANDOM_CASES = 250


def _set_text(rng: random.Random, pool: list, most: int) -> tuple[str, list]:
    """A set text of up to `most` elements drawn with repeats, and its
    element texts; now and then a text that is no set."""
    if rng.random() < 0.1:
        return rng.choice(BROKEN + ATOMS), []
    elements = [rng.choice(pool) for _ in range(rng.randint(0, most))]
    return "[" + ",".join(['"set"'] + elements) + "]", elements


def _run_single_argv(fields: dict, rule: str) -> list:
    # --name=text, so that a text starting with "-" is not read as an option
    return ["run-single"] + [f"--{name}={text}" for name, text in fields.items()] + [f"--rule={rule}"]


def run_single_cases() -> list:
    """(argv, must exit 3) for every case: the random ones, then the caps."""
    rng = random.Random("fuzz: run-single")
    cases = []
    for _ in range(RANDOM_CASES):
        bidders, named = _set_text(rng, BIDDER_POOL, 4)
        grid, _ = _set_text(rng, GRID_POOL, 6)
        bidder = rng.choice(named) if named and rng.random() < 0.7 else rng.choice(ATOMS + BROKEN)
        fields = {"bidders": bidders, "grid": grid, "bidder": bidder}
        cases.append((_run_single_argv(fields, rng.choice(["second-price", "first-price"])), False))
    for cap in RUN_SINGLE_CAPS:
        cases.append((_run_single_argv({**_VALID, **cap}, "second-price"), True))
    return cases


def enumerate_cases() -> list:
    """(argv, must exit 3) for every case: the random ones, then the caps.
    Sets stay small enough to list: partitions of up to 5 elements and
    injections of up to 3 into up to 5."""
    rng = random.Random("fuzz: enumerate")
    cases = []
    for _ in range(ENUMERATE_RANDOM_CASES):
        if rng.random() < 0.5:
            args = ["partitions", _set_text(rng, ATOMS, 5)[0]]
        else:
            args = ["injections", _set_text(rng, ATOMS, 3)[0], _set_text(rng, ATOMS, 5)[0]]
        if rng.random() < 0.1:  # an argument that is no value text
            args[rng.randrange(1, len(args))] = rng.choice(BROKEN)
        cases.append((["enumerate", *args], False))
    for cap in ENUMERATE_CAPS:
        cases.append((["enumerate", *cap], True))
    return cases


def _size(rng: random.Random, most: int) -> int:
    """1 to most, now and then 0."""
    return rng.randint(0 if rng.random() < 0.05 or not most else 1, most)


def _random_document(rng: random.Random) -> str:
    """An instance document: sets of up to 4 goods and 3 bidders and up to 6
    rows whose bidders and bundles mostly come from them; now and then a
    broken row, a key left out, or a text that is no instance at all."""
    if rng.random() < 0.05:
        return rng.choice(BROKEN_DOCUMENTS)
    good_texts = [rng.choice(GOOD_POOL) for _ in range(_size(rng, 4))]
    bidder_texts = [rng.choice(COMBINATORIAL_BIDDER_POOL) for _ in range(_size(rng, 3))]
    goods, bidders = _set_of(good_texts), _set_of(bidder_texts)
    rows = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.02:
            rows.append(rng.choice(BROKEN_ROWS))
            continue
        in_bidders = bidder_texts and rng.random() < 0.97
        bidder = rng.choice(bidder_texts if in_bidders else ATOMS)
        # a repeated good is read as one; the empty bundle is worth 0 or refused
        bundle = rng.sample(good_texts, _size(rng, len(good_texts)))
        if rng.random() < 0.02:  # a good outside the goods, or no good at all
            bundle.append(rng.choice(GOOD_POOL + ATOMS))
        amount = rng.choice(BAD_AMOUNTS if rng.random() < 0.03 else AMOUNTS)
        rows.append(f"[{bidder},{_set_of(bundle)},{amount}]")
    fields = {"goods": goods, "bidders": bidders, "valuations": "[" + ",".join(rows) + "]"}
    if rng.random() < 0.03:
        del fields[rng.choice(sorted(fields))]
    elif rng.random() < 0.03:
        fields[rng.choice(sorted(fields))] = rng.choice(BROKEN + ATOMS)
    return _document(fields)


def _file_cases(directory, command: str, texts: list, caps: list) -> list:
    """(argv, must exit 3) for every case of a command that reads a file,
    each text written to a file in directory: the random ones, then the
    caps."""
    cases = []
    for k, text in enumerate(texts + caps):
        path = directory / f"{command}-{k}"
        path.write_text(text, encoding="utf-8")
        cases.append(([command, str(path)], k >= len(texts)))
    return cases


def run_combinatorial_cases(directory) -> list:
    rng = random.Random("fuzz: run-combinatorial")
    documents = [_random_document(rng) for _ in range(RUN_COMBINATORIAL_RANDOM_CASES)]
    return _file_cases(directory, "run-combinatorial", documents, RUN_COMBINATORIAL_CAPS)


# operands of every kind: relations (empty, a function, a point with two
# images, the identity, pairs over a set and a pair), a set with a member
# that is no pair, numbers, a symbol, a pair, and a call as an operand
OPERANDS = ["{}", "{(1,2),(2,3)}", "{(1,2),(1,3),(2,2)}", "{(1,1),(2,2),(3,3)}",
            '{("a",{1}),((1,2),3)}', "{1,2}", "{(1,2),3}", "0", "-1", "3/4", '"a"', "(1,2)",
            "converse({(1,2)})", "{(1,2)}::rel"]
# texts that are no expression
BROKEN_EXPRESSIONS = ["", "{", "(1,2", "1/0", "@", '"a', "{1,}", "foo(1)", "kernel", ",,", '"1"']
# each input aimed at a cap: eval's work cap on kernel, compose and
# quotient, then an expression 101 calls deep
EVAL_CAPS = [_KERNEL_400, _COMPOSED_KERNELS_60, _QUOTIENT_400,
             "converse(" * 101 + "{}" + ")" * 101]
EVAL_RANDOM_CASES = 200


def _random_expression(rng: random.Random) -> str:
    """One operator of `expressions.OPERATORS` called on operands of any
    kind, mostly with its own arity, now and then one fewer or one more;
    prefix or infix where it has both; now and then no expression at all."""
    if rng.random() < 0.05:
        return rng.choice(BROKEN_EXPRESSIONS)
    op = rng.choice(OPERATORS)
    arity = rng.choice([op.arity] * 4 + [op.arity - 1, op.arity + 1])
    args = [rng.choice(OPERANDS) for _ in range(arity)]
    if op.name and (op.token is None or rng.random() < 0.5):
        return f"{op.name}({', '.join(args)})"
    if len(args) == 1:  # the infix token with one operand missing
        return f"{args[0]} {op.token}" if rng.random() < 0.5 else f"{op.token} {args[0]}"
    return f" {op.token} ".join(args)


def eval_cases(directory) -> list:
    rng = random.Random("fuzz: eval")
    texts = [_random_expression(rng) for _ in range(EVAL_RANDOM_CASES)]
    return _file_cases(directory, "eval", texts, EVAL_CAPS)


# the arguments of check-laws: seeds int() reads, -1 and a 23-digit one
# among them, and texts it does not; laws and profiles that do not exist
SEEDS = ["0", "1", "-1", "42", "12345678901234567890123", "1_000", "+7", " 5"]
BAD_SEEDS = ["x", "1.5", "", "0x10", "1e3", _DIGITS]
BAD_LAWS = ["no_such_law", "", "BOOLEAN_ALGEBRA", "boolean_algebra "]
BAD_PROFILES = ["slow", "Quick", ""]
# the two laws that take most of a full run, about 0.3 s each of 1.4 s on
# a 2-core machine; the benchmark runs them, so the slice does not
SLOW_IN_FULL = {"quotient_factorization", "paste_associative"}
CHECK_LAWS_RANDOM_CASES = 60


def check_laws_cases(directory) -> list:
    """(argv, outcome) for every case: "ok" when every argument is valid,
    "usage" when argparse refuses one, "io" when only the report path
    cannot be opened.  The whole suite runs only under the quick profile,
    and a full run never checks SLOW_IN_FULL."""
    rng = random.Random("fuzz: check-laws")
    cases = []
    for k in range(CHECK_LAWS_RANDOM_CASES):
        fields, outcome = {}, "ok"
        profile = rng.choice(["quick", "quick", "full", None])  # None: left out
        if profile is not None:
            fields["profile"] = profile
        if profile == "full" or rng.random() < 0.85:
            fields["law"] = rng.choice(
                sorted(set(LAWS) - SLOW_IN_FULL) if profile == "full" else sorted(LAWS))
        if rng.random() < 0.8:
            fields["seed"] = rng.choice(SEEDS)
        draw = rng.random()
        if draw < 0.3:
            fields["report"] = str(directory / f"report-{k}")
        elif draw < 0.45:  # a directory that is not there, or a directory
            fields["report"] = str(rng.choice([directory / "missing" / "report", directory]))
            outcome = "io"
        if rng.random() < 0.25:
            name = rng.choice(["law", "profile", "seed"])
            fields[name] = rng.choice(
                {"law": BAD_LAWS, "profile": BAD_PROFILES, "seed": BAD_SEEDS}[name])
            outcome = "usage"
        argv = ["check-laws"] + [f"--{name}={text}" for name, text in fields.items()]
        cases.append((argv, outcome))
    return cases


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse exits on a bad argument; only check-laws expects it
            code = ("SystemExit", e.code)
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _assert_exit_codes(cases: list):
    bad, codes = [], set()
    for argv, at_cap in cases:
        code, out, err = _run(argv)
        codes.add(code)
        if code not in (0, 1, 2, 3):
            bad.append((argv, "escaped main", code))
        elif at_cap and code != 3:
            bad.append((argv, "cap input exited", code))
        elif code and (err.count("\n") != 1 or not err.endswith("\n") or out):
            bad.append((argv, "failure output", err, out))
    assert not bad, bad[:3]
    assert codes == {0, 1, 2, 3}


def _check_laws_failure(argv: list, outcome: str, code, out: str, err: str) -> str | None:
    """What is wrong with a check-laws run, or None."""
    if outcome == "usage":
        lines = err.splitlines()
        if code != ("SystemExit", 2) or out or not (
                lines and lines[0].startswith("usage: finrel check-laws")
                and lines[-1].startswith("finrel check-laws: error: ")):
            return "argparse refusal"
        return None
    if outcome == "io":
        if code != 2 or out or not (err.startswith("i/o error: ") and err.count("\n") == 1):
            return "report path refusal"
        return None
    fields = dict(arg[2:].split("=", 1) for arg in argv[1:])
    laws = [fields["law"]] if "law" in fields else list(LAWS)
    # the first five fields of a verdict line; a witness may follow
    want = [f"profile={fields.get('profile', 'quick')}", f"seed={int(fields.get('seed', '0'))}"]
    heads, timings = [line.split()[:5] for line in out.splitlines()], err.splitlines()
    if code != 0 or [head[0] for head in heads] != [f"law={law}" for law in laws]:
        return "verdict lines"
    if any(head[1:3] != want or head[4] != "result=pass" for head in heads):
        return "verdict"
    if [line.split(":")[0] for line in timings] != laws or not all(
            line.endswith(" ms") for line in timings):
        return "timing lines"
    if "report" in fields and Path(fields["report"]).read_text(encoding="utf-8") != out:
        return "report file"
    return None


def test_run_single_inputs_end_in_an_exit_code():
    cases = run_single_cases()
    assert len(cases) == 308
    _assert_exit_codes(cases)


def test_enumerate_inputs_end_in_an_exit_code():
    cases = enumerate_cases()
    assert len(cases) == 206
    _assert_exit_codes(cases)


def test_run_combinatorial_inputs_end_in_an_exit_code(tmp_path):
    cases = run_combinatorial_cases(tmp_path)
    assert len(cases) == 255
    _assert_exit_codes(cases)


def test_eval_inputs_end_in_an_exit_code(tmp_path):
    cases = eval_cases(tmp_path)
    assert len(cases) == 204
    _assert_exit_codes(cases)


def test_check_laws_inputs_end_in_their_outcome(tmp_path):
    cases = check_laws_cases(tmp_path)
    assert len(cases) == 60
    bad, outcomes = [], set()
    for argv, outcome in cases:
        outcomes.add(outcome)
        failure = _check_laws_failure(argv, outcome, *_run(argv))
        if failure:
            bad.append((argv, failure))
    assert not bad, bad[:3]
    assert outcomes == {"ok", "usage", "io"}
