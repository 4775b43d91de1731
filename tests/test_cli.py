import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finrel
from finrel.cli import main
from finrel.enumeration import CAP_ENUMERATE_LINES, _bell
from finrel.errors import CAP_DEPTH
from finrel.laws import LAWS

WORKED_INSTANCE = {
    "goods": ["set", "g1", "g2"],
    "bidders": ["set", 1, 2],
    "valuations": [
        [1, ["set", "g1", "g2"], 10],
        [1, ["set", "g1"], 6],
        [1, ["set", "g2"], 6],
        [2, ["set", "g1", "g2"], 7],
        [2, ["set", "g1"], 5],
        [2, ["set", "g2"], 5],
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("{(0,10),(1,11),(1,12)} ,, 0\n")
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out == "10\n"


def test_eval_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("{(1,2)} ,,")
    code, out, err = run_cli(capsys, "eval", str(path))
    assert code == 1
    assert "parse error" in err


def test_eval_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("eval({1}, 0)")  # not a relation
    code, _, err = run_cli(capsys, "eval", str(path))
    assert code == 2
    assert "invalid input" in err


def test_enumerate_partitions(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "partitions", '["set",1,2,3]')
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == '["set",["set",1],["set",2],["set",3]]'
    assert lines[-1] == '["set",["set",1,2,3]]'
    # the empty set has one partition, with no block
    assert run_cli(capsys, "enumerate", "partitions", '["set"]')[1] == '["set"]\n'


def test_enumerate_injections(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "injections", '["set","a","b"]', '["set",1,2,3]')
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert len(set(lines)) == 6


def test_enumerate_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "partitions", '["set",1,2,3,4]')
    _, second, _ = run_cli(capsys, "enumerate", "partitions", '["set",1,2,3,4]')
    assert first == second


def test_run_single_second_price(capsys):
    code, out, _ = run_cli(
        capsys,
        "run-single",
        "--bidders", '["set",1,2]',
        "--grid", '["set",0,1,2]',
        "--bidder", "1",
    )
    assert code == 0
    assert "rule second-price" in out
    assert "dominant true" in out


def test_run_single_first_price_reports_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "run-single",
        "--bidders", '["set",1,2]',
        "--grid", '["set",0,1,2]',
        "--bidder", "1",
        "--rule", "first-price",
    )
    assert code == 0
    assert "dominant false" in out
    assert "counterexample bid=" in out


def test_run_single_caps(capsys):
    code, _, err = run_cli(
        capsys,
        "run-single",
        "--bidders", '["set",1,2,3,4]',
        "--grid", '["set",0]',
        "--bidder", "1",
    )
    assert code == 3
    assert "cap exceeded" in err


def test_run_combinatorial_stdout(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(WORKED_INSTANCE))
    code, out, _ = run_cli(capsys, "run-combinatorial", str(inst))
    assert code == 0
    decoded = json.loads(out)
    assert decoded["welfare"] == 11
    assert decoded["payments"] == ["set", ["pair", 1, 2], ["pair", 2, 4]]


def test_run_combinatorial_output_file(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(WORKED_INSTANCE))
    outfile = tmp_path / "outcome.json"
    code, out, _ = run_cli(capsys, "run-combinatorial", str(inst), "-o", str(outfile))
    assert code == 0
    assert out == ""
    assert json.loads(outfile.read_text())["welfare"] == 11


def test_run_combinatorial_validation_exit(tmp_path, capsys):
    inst = tmp_path / "bad.json"
    bad = dict(WORKED_INSTANCE, valuations=[[1, ["set", "g1"], -1]])
    inst.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "run-combinatorial", str(inst))
    assert code == 2
    assert "invalid input" in err


def test_run_combinatorial_cap_exit(tmp_path, capsys):
    inst = tmp_path / "big.json"
    big = {
        "goods": ["set"] + [f"g{k}" for k in range(1, 8)],
        "bidders": ["set", 1],
        "valuations": [],
    }
    inst.write_text(json.dumps(big))
    code, _, err = run_cli(capsys, "run-combinatorial", str(inst))
    assert code == 3


def test_one_bundle_written_in_two_orders_is_a_duplicate(tmp_path, capsys):
    inst = tmp_path / "twice.json"
    inst.write_text(_rows([1, ["set", "g2", "g1"], 1], [1, ["set", "g1", "g2"], 2]))
    code, _, err = run_cli(capsys, "run-combinatorial", str(inst))
    assert code == 2
    assert "duplicate valuation" in err


def test_run_combinatorial_parse_exit(tmp_path, capsys):
    inst = tmp_path / "broken.json"
    inst.write_text("{]")
    code, _, err = run_cli(capsys, "run-combinatorial", str(inst))
    assert code == 1


FILE = object()  # stands for a file holding the case's contents


def _nested_set(depth: int, inner: str = "1") -> str:
    return '["set",' * depth + inner + "]" * depth


def _nested(depth: int):
    return json.loads(_nested_set(depth, '"g1"'))


# the object around the goods is one level, so the document is 101 deep
_DEEP_DOC = dict(WORKED_INSTANCE, goods=_nested(100))
# a document as deep as the cap, and one level deeper, through each read
# part: the goods or bidders set is the second level, below the object,
# and a row element the fourth, below the valuations and the row.  At the
# cap the part is only no atom, or a bundle not within the goods.
_DEEP_PARTS = {
    f"{part}-{where}-cap": (dict(WORKED_INSTANCE, **{field: make(depth)}), code)
    for where, depth, code in (("at", CAP_DEPTH, 2), ("past", CAP_DEPTH + 1, 3))
    for part, field, make in (
        ("goods", "goods", lambda depth: _nested(depth - 1)),
        ("bidders", "bidders", lambda depth: _nested(depth - 1)),
        ("row-element", "valuations", lambda depth: [[1, _nested(depth - 3), 1]]),
    )
    if (part, where) != ("goods", "past")  # instance-past-cap
}
_NUMBER_GOODS = json.dumps({**WORKED_INSTANCE, "goods": -1})
_SEVEN_BIDDERS = json.dumps({**WORKED_INSTANCE, "bidders": ["set", *range(1, 8)]})
# the malformed second row is never read: the goods cap is checked first
_SEVEN_GOODS_BAD_ROW = json.dumps({
    "goods": ["set"] + [f"g{k}" for k in range(1, 8)],
    "bidders": ["set", 1, 2],
    "valuations": [[1, ["set", "g1"], 1], ["bad"]],
})
_LONG = "1" * 5000
_BIG = 10**4000  # 1/(_BIG + 1) + 1/(_BIG + 3) has a denominator of 8,001 digits
_HUGE_SUM = dict(
    WORKED_INSTANCE,
    valuations=[[1, ["set", "g1"], f"1/{_BIG + 1}"], [2, ["set", "g2"], f"1/{_BIG + 3}"]],
)


def _rows(*rows) -> str:
    return json.dumps(dict(WORKED_INSTANCE, valuations=list(rows)))


# an element read once per file must still be refused wherever it is written
_TRUE_AFTER_ONE = _rows([1, ["set", "g1"], 1], [True, ["set", "g2"], 1])
_FLOAT_AFTER_ONE = _rows([1, ["set", "g1"], 1], [1.0, ["set", "g2"], 1])
# every row is read before any is checked: the amount's cap wins
_UNKNOWN_THEN_LONG = _rows(
    [3, ["set", "g1"], 1], *([1, ["set", "g1"], 1],) * 3, [2, ["set", "g2"], "1" * 4301 + "/7"]
)


def _relation(pairs) -> str:
    return "{" + ",".join(f"({x},{y})" for x, y in pairs) + "}"


# eval's super-linear operators, refused before they build anything: the
# kernel of a constant function reads 400 x 400 images; composing two such
# kernels on 60 points reads 216,000 images for a 3,600-pair result; the
# quotient by the identity tests 400 x 400 class pairs
_KERNEL_400 = f"kernel({_relation((x, 0) for x in range(400))})"
_KERNEL_60 = f"kernel({_relation((x, 0) for x in range(60))})"
_COMPOSED_KERNELS_60 = f"compose({_KERNEL_60}, {_KERNEL_60})"
_IDENTITY_400 = _relation((x, x) for x in range(400))
_QUOTIENT_400 = f"quotient({_IDENTITY_400}, {_IDENTITY_400}, {_IDENTITY_400})"

EXIT_CASES = [
    # (case, command, contents of FILE or None for no file, exit code)
    ("operator-rejects-argument", ["eval", FILE], "eval({1}, 0)", 2),
    ("infix-rejects-argument", ["eval", FILE], "{1} +* 2", 2),
    ("syntax-error", ["eval", FILE], "{(1,2)} ,,", 1),
    ("partitions-of-a-number", ["enumerate", "partitions", "5"], None, 2),
    ("injections-into-a-number", ["enumerate", "injections", '["set",1]', "5"], None, 2),
    (
        "bidders-not-a-set",
        ["run-single", "--bidders", "5", "--grid", '["set",0,1]', "--bidder", "1"],
        None,
        2,
    ),
    ("goods-not-a-set", ["run-combinatorial", FILE], _NUMBER_GOODS, 2),
    ("bidders-over-cap", ["run-combinatorial", FILE], _SEVEN_BIDDERS, 3),
    ("goods-over-cap-before-a-bad-row", ["run-combinatorial", FILE], _SEVEN_GOODS_BAD_ROW, 3),
    ("deep-json-argument", ["enumerate", "partitions", _nested_set(3000)], None, 3),
    ("json-argument-past-cap", ["enumerate", "partitions", _nested_set(101)], None, 3),
    ("json-argument-at-cap", ["enumerate", "partitions", _nested_set(100)], None, 0),
    ("deep-instance-file", ["run-combinatorial", FILE], '{"goods":' + _nested_set(3000) + "}", 3),
    ("instance-past-cap", ["run-combinatorial", FILE], json.dumps(_DEEP_DOC), 3),
    *(
        (case, ["run-combinatorial", FILE], json.dumps(doc), code)
        for case, (doc, code) in _DEEP_PARTS.items()
    ),
    # the cap is counted on what is read, in the order it is read: a part
    # that is never read is bounded only by the JSON decoder
    ("bad-row-before-a-deep-element", ["run-combinatorial", FILE],
     _rows(["bad"], [1, _nested(120), 1]), 2),
    ("unread-key-120-deep", ["run-combinatorial", FILE],
     json.dumps(dict(WORKED_INSTANCE, note=_nested(120))), 0),
    ("instance-file-an-array-120-deep", ["run-combinatorial", FILE], _nested_set(120), 2),
    ("object-120-deep-in-a-set-argument",
     ["enumerate", "partitions", '["set",' + '{"a":' * 120 + "1" + "}" * 120 + "]"], None, 2),
    ("deep-expression", ["eval", FILE], "{" * 3000, 3),
    ("expression-past-cap", ["eval", FILE], "{" * 101 + "1" + "}" * 101, 3),
    ("expression-at-cap", ["eval", FILE], "{" * 100 + "1" + "}" * 100, 0),
    ("long-literal", ["eval", FILE], _LONG, 3),
    ("long-rational-literal", ["eval", FILE], f"1/{_LONG}", 3),
    ("long-json-number", ["enumerate", "partitions", f'["set",{_LONG}]'], None, 3),
    ("long-json-rational", ["enumerate", "partitions", f'["set","1/{_LONG}"]'], None, 3),
    ("outcome-past-digit-limit", ["run-combinatorial", FILE], json.dumps(_HUGE_SUM), 3),
    ("true-bidder-after-1", ["run-combinatorial", FILE], _TRUE_AFTER_ONE, 2),
    ("float-bidder-after-1", ["run-combinatorial", FILE], _FLOAT_AFTER_ONE, 2),
    ("unknown-bidder-then-long-amount", ["run-combinatorial", FILE], _UNKNOWN_THEN_LONG, 3),
    ("lone-surrogate-symbol", ["enumerate", "partitions", '["set","\\ud800"]'], None, 2),
    ("non-utf8-expression", ["eval", FILE], b"{1} \xff", 1),
    ("non-utf8-instance", ["run-combinatorial", FILE], b'{"goods": "\xff"}', 1),
    ("missing-file", ["eval", FILE], None, 2),
    ("kernel-of-a-constant-on-400", ["eval", FILE], _KERNEL_400, 3),
    ("compose-of-kernels-on-60", ["eval", FILE], _COMPOSED_KERNELS_60, 3),
    ("quotient-by-identity-on-400", ["eval", FILE], _QUOTIENT_400, 3),
    # refused before any work: the count is not built in full
    ("partitions-of-3000", ["enumerate", "partitions", json.dumps(["set", *range(3000)])], None, 3),
    (
        "injections-of-3000-into-6000",
        ["enumerate", "injections", json.dumps(["set", *range(3000)]), json.dumps(["set", *range(6000)])],
        None,
        3,
    ),
    # no injection exists, so nothing is printed and nothing recurses
    (
        "injections-of-1100-into-2",
        ["enumerate", "injections", json.dumps(["set", *range(1100)]), '["set","a","b"]'],
        None,
        0,
    ),
]


@pytest.mark.parametrize(
    "argv, contents, expected",
    [case[1:] for case in EXIT_CASES],
    ids=[case[0] for case in EXIT_CASES],
)
def test_each_input_error_has_its_exit_code(tmp_path, capsys, argv, contents, expected):
    path = tmp_path / "input"
    if contents is not None:
        path.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *[str(path) if arg is FILE else arg for arg in argv])
    assert time.perf_counter() - start < 1.0
    assert code == expected
    assert "Traceback" not in err
    if expected:
        assert err
        assert out == ""


def test_check_laws_single(capsys):
    code, out, err = run_cli(capsys, "check-laws", "--law", "right_unique_cardinality")
    assert code == 0
    assert out == "law=right_unique_cardinality profile=quick seed=0 cases=64 result=pass\n"
    assert "ms" in err


def test_check_laws_report_file_deterministic(tmp_path, capsys):
    report_a = tmp_path / "a.txt"
    report_b = tmp_path / "b.txt"
    run_cli(capsys, "check-laws", "--law", "compatibility_necessity", "--report", str(report_a))
    run_cli(capsys, "check-laws", "--law", "compatibility_necessity", "--report", str(report_b))
    assert report_a.read_bytes() == report_b.read_bytes()
    assert b"witness=" in report_a.read_bytes()


def test_check_laws_report_path_fails_before_any_law_runs(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "check-laws", "--report", str(tmp_path / "missing" / "r.txt"))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("i/o error: ")


def test_check_laws_unknown_id(capsys):
    with pytest.raises(SystemExit):
        main(["check-laws", "--law", "nonsense"])


def test_a_checker_that_raises_fails_its_law_and_the_other_laws_still_run(capsys, monkeypatch):
    def raising(*case):
        raise ValueError("checker broke")

    for law_id in ("right_unique_cardinality", "compatibility_necessity"):  # forall, exists
        monkeypatch.setitem(LAWS, law_id, dataclasses.replace(LAWS[law_id], check=raising))
    code, out, err = run_cli(capsys, "check-laws")
    assert code == 2
    assert len(out.splitlines()) == 21
    failed = [line for line in out.splitlines() if "result=fail" in line]
    assert [line.split()[0] for line in failed] == [
        "law=right_unique_cardinality", "law=compatibility_necessity"]
    assert all(" cases=1 result=fail counterexample=" in line for line in failed)
    assert err.count("raised ValueError: checker broke") == 2
    assert "Traceback" not in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "finrel" in capsys.readouterr().out


def test_main_calls_in_a_row_share_no_state(capsys):
    # the parser is built once per process, so every option left out of a
    # call must take its default again, whatever the call before it set
    code, out, _ = run_cli(capsys, "check-laws", "--law", "boolean_algebra")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["law=boolean_algebra"]
    code, out, _ = run_cli(capsys, "check-laws")
    assert code == 0
    assert len(out.splitlines()) == 21
    single = ["run-single", "--bidders", '["set",1,2]', "--grid", '["set",0,1]', "--bidder", "1"]
    code, out, _ = run_cli(capsys, *single, "--rule", "first-price")
    assert code == 0
    assert out.splitlines()[0] == "rule first-price"
    with pytest.raises(SystemExit) as exc:
        main(["run-single", "--bidders", '["set",1,2]'])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *single)
    assert code == 0
    assert out.splitlines()[0] == "rule second-price"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"finrel {finrel.__version__}\n"
    code, out, _ = run_cli(capsys, "check-laws", "--law", "boolean_algebra")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_stdout_is_utf8_whatever_the_locale():
    env = dict(os.environ, PYTHONIOENCODING="ascii", LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(finrel.__file__).parent.parent), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-m", "finrel.cli", "enumerate", "partitions", '["set","é"]'],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == '["set",["set","é"]]\n'.encode("utf-8")
    assert b"Traceback" not in done.stderr


def test_enumerate_injections_into_a_smaller_target_print_nothing(capsys):
    for n in (3, 900, 1100):
        code, out, err = run_cli(
            capsys, "enumerate", "injections", json.dumps(["set", *range(n)]), '["set","a","b"]'
        )
        assert (code, out, err) == (0, "", "")


def test_enumerate_cap_admits_partitions_of_ten_only():
    assert _bell(10) <= CAP_ENUMERATE_LINES < _bell(11)
    assert math.perm(10, 6) > CAP_ENUMERATE_LINES


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", json.dumps(["set", *range(11)])],
        ["injections", json.dumps(["set", *range(9)]), json.dumps(["set", *range(10, 19)])],
        ["injections", json.dumps(["set", *range(6)]), json.dumps(["set", *range(10, 20)])],
    ],
    ids=["partitions of 11", "injections of 9 into 9", "injections of 6 into 10"],
)
def test_enumerate_over_the_cap_exits_3_before_printing(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap exceeded" in err
