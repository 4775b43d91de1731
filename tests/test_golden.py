"""Golden stdout digests: a fixed set of CLI commands, run in-process, must
print exactly the bytes recorded for them.

Each entry is (name, argv, sha256 of stdout, line count).  Refactors that
keep the output byte-identical leave every digest unchanged; a digest that
moves means stdout moved, and the change has to say why.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from finrel.cli import main
from finrel.encoding import serialize_value
from finrel.laws import LAWS, PROFILES, LawConfig, _pack
from finrel.values import Value

README_INSTANCE = {
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


def _dense_instance(n_goods: int, n_bidders: int) -> dict:
    """Every bidder values every nonempty bundle; a fixed formula, no rng."""
    goods = [f"g{k}" for k in range(1, n_goods + 1)]
    rows = []
    for b in range(1, n_bidders + 1):
        for mask in range(1, 1 << n_goods):
            bundle = [g for k, g in enumerate(goods) if mask >> k & 1]
            v = Fraction((b * 13 + mask * 7) % 17 + len(bundle), 1 + mask % 2)
            rows.append([b, ["set", *bundle], v.numerator if v.denominator == 1 else str(v)])
    return {"goods": ["set", *goods], "bidders": ["set", *range(1, n_bidders + 1)], "valuations": rows}


def _flat_instance(n_goods: int, n_bidders: int, value: int) -> dict:
    """Every bidder values every nonempty bundle at the same amount, so
    nearly every allocation ties and only the canonical tie-break decides."""
    goods = [f"g{k}" for k in range(1, n_goods + 1)]
    rows = [
        [b, ["set", *[g for k, g in enumerate(goods) if mask >> k & 1]], value]
        for b in range(1, n_bidders + 1)
        for mask in range(1, 1 << n_goods)
    ]
    return {"goods": ["set", *goods], "bidders": ["set", *range(1, n_bidders + 1)], "valuations": rows}


def _huge_denominator_instance(denominators: list) -> dict:
    """3 goods x 3 bidders, every nonempty bundle valued by a fixed formula
    over the denominators in turn, one per row."""
    goods = ["g1", "g2", "g3"]
    rows = []
    for b in (1, 2, 3):
        for mask in range(1, 8):
            bundle = [g for k, g in enumerate(goods) if mask >> k & 1]
            denominator = denominators[len(rows) % len(denominators)]
            v = Fraction((b * 13 + mask * 7) % 17 + len(bundle), denominator)
            rows.append([b, ["set", *bundle], str(v)])
    return {"goods": ["set", *goods], "bidders": ["set", 1, 2, 3], "valuations": rows}


def _bracket_symbol_instance() -> dict:
    """4 goods x 3 bidders named by symbols that hold brackets and
    non-ASCII characters, every nonempty bundle valued additively, and an
    unread key whose string holds quotes, backslashes and brackets 150
    deep: the depth cap counts brackets outside strings only.  A symbol
    itself may hold no quote or backslash."""
    goods, bidders = ["[g1]", "{g2}", "é[", "]ü"], ["b{", "ü]", "[[["]
    rows = [
        [b, ["set", *[g for j, g in enumerate(goods) if mask >> j & 1]],
         sum((k * 5 + j * 3) % 7 + 1 for j in range(len(goods)) if mask >> j & 1)]
        for k, b in enumerate(bidders)
        for mask in range(1, 1 << len(goods))
    ]
    return {"goods": ["set", *goods], "bidders": ["set", *bidders], "valuations": rows,
            "note": '\\"' + "[" * 150 + "\\\\" + "{" * 150 + '"\\'}


GRID = '["set",-1,"-1/2",0,"1/2",3]'
BIDDERS = '["set",1,2,3]'

COMMANDS = [
    ("check-laws quick 3", ["check-laws", "--profile", "quick", "--seed", "3"]),
    *[
        (
            f"run-single {rule} bidder {i}",
            ["run-single", "--bidders", BIDDERS, "--grid", GRID, "--bidder", str(i), "--rule", rule],
        )
        for rule in ("second-price", "first-price")
        for i in (1, 2, 3)
    ],
    ("run-combinatorial readme", ["run-combinatorial", "{readme}"]),
    ("run-combinatorial dense 4x4", ["run-combinatorial", "{dense}"]),
    ("run-combinatorial dense 6x6", ["run-combinatorial", "{dense6}"]),
    ("run-combinatorial all-equal 6x6", ["run-combinatorial", "{equal6}"]),
    ("run-combinatorial all-zero 5x3", ["run-combinatorial", "{zero53}"]),
    # one shared denominator clears on integers; 21 distinct ones put the
    # common denominator past auctions.MAX_SCALE_BITS, onto the rationals
    ("run-combinatorial 3x3 shared 1,000-digit", ["run-combinatorial", "{shared1000}"]),
    ("run-combinatorial 3x3 distinct 500-digit", ["run-combinatorial", "{distinct500}"]),
    ("run-combinatorial bracket symbols 4x3", ["run-combinatorial", "{brackets}"]),
    ("check-laws full 0", ["check-laws", "--profile", "full", "--seed", "0"]),
    (
        "enumerate partitions mixed 6",
        ["enumerate", "partitions", '["set",1,"-1/2","a",["pair",1,2],["set"],["set",3]]'],
    ),
    (
        "enumerate injections 3 into 5",
        ["enumerate", "injections", '["set","x","y","z"]', '["set",0,"1/3","b",["pair","a",1],["set",1]]'],
    ),
    ("eval readme", ["eval", "{expr}"]),
    (
        "enumerate partitions nested 8",
        [
            "enumerate",
            "partitions",
            '["set",["pair","a",["set",1,2]],["pair","a",["set"]],["pair","b",["set",["pair",1,"c"]]],'
            '"-5/7","7/2","d",0,["set","a"]]',
        ],
    ),
    (
        "enumerate injections 4 into 6",
        [
            "enumerate",
            "injections",
            '["set",-1,"x",["pair","x",2],["set"]]',
            '["set","-1/3",5,"é",["pair",1,["set",2]],["set",0],"z"]',
        ],
    ),
    ("eval non-ascii", ["eval", "{expr_non_ascii}"]),
    # the benchmark's sizes: partitions of 9, injections of 6 nested into 7
    (
        "enumerate partitions numbers 9",
        ["enumerate", "partitions", '["set",503,-7,12,0,88,"-5/3",41,256,1000000000000000000000]'],
    ),
    (
        "enumerate injections nested 6 into 7",
        [
            "enumerate",
            "injections",
            '["set",["pair","p12",["set",-3,4]],["pair","p7",["set",0,9]],["pair","p401",["set",-50,-41]],'
            '["pair","p88",["set",5,6]],["pair","p3",["set",-3,4]],["pair","p999",["set",17,"1/2"]]]',
            '["set","a1","b2","c3","d4","e5","f6","é7"]',
        ],
    ),
    # outputs of many stdout blocks
    ("enumerate partitions numbers 8", ["enumerate", "partitions", '["set",3,-1,"7/2",10,42,0,99,-8]']),
    (
        "enumerate injections symbols 5 into 7",
        ["enumerate", "injections", '["set","a","b","c","d","e"]', '["set","p","q","r","s","t","u","v"]'],
    ),
]

# recorded before the bid-vector, table and partition-cover rewrites
GOLDEN = {
    'check-laws quick 3': ('e15004067dd9bfc219a17af43890ec6a19743d86f951a65ddb7f2f10fe5a1c73', 21),
    'run-single second-price bidder 1': ('94dc5afe275b96705edc8baf8e77a2da3bd99f96f4f86d2932641813d36aa0ce', 7),
    'run-single second-price bidder 2': ('9fd8c642fd37ee95f286199e81e6b70baffa4222159eb84224439d9e85a82440', 7),
    'run-single second-price bidder 3': ('b55d22b9c0160d52e1d659c369163f122d21f26a1cf777409dfe548699352080', 7),
    'run-single first-price bidder 1': ('1b06b6e4e3c42ace26f80bb6b00c67213685adee281437204866e70542e5319a', 8),
    'run-single first-price bidder 2': ('2b62aaa4317705da524b4a067a163da1df9a9065eb75ad012ae90ef3915c240c', 8),
    'run-single first-price bidder 3': ('23107114811669c49102c1ecd7d41119bd2d0f88a6cda4ea38c01a78508480a6', 8),
    'run-combinatorial readme': ('355a10e802e4b969ad758c049c409d2d1a31b9d6eea5d50af00e0a727d9c982f', 1),
    'run-combinatorial dense 4x4': ('8a28e9ae28f6b1b697621b9efb44fb6205fcbe49cb44947040ad9d90619043ab', 1),
    # recorded before clearing moved from enumeration to the subset recursion
    'run-combinatorial dense 6x6': ('c0816875ba10a45d441bac781f1345cbaa10123da8a1f0e58071c7473a4321e1', 1),
    'run-combinatorial all-equal 6x6': ('a25763854b193d061798ff608e0a3ac96b688518b2c25a1319e76ef163e99f8f', 1),
    'run-combinatorial all-zero 5x3': ('3609c9b4e885d43ec2fa7e5fc2c28b45bc2cafbb45adf1e27b5b1b0cc273121c', 1),
    'enumerate partitions mixed 6': ('7f05e9fe915fbc44d9f2e003a44aee8bb290982c318910f31352bfbf13dd3ccd', 203),
    'enumerate injections 3 into 5': ('2d29d31b7dad74ea2c540e6fda0ec7b4d1085d93b849f111a1d8c189992f1add', 60),
    'eval readme': ('1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17', 1),
    # recorded before blocks and injections were grown by in-order insertion
    # and before serialize_value wrote its JSON text directly
    'enumerate partitions nested 8': ('fd98b02164adace464031e16a40a1c62197c50175b1aebab0a31b9d78f211f32', 4140),
    'enumerate injections 4 into 6': ('0ad447b115565ce645ca781b38fc8a4155a20b8a980a1254bad9c3804724e4a7', 360),
    'eval non-ascii': ('4d32462b28cd19e816ce7133272c7862e5e80b8e3ede56f5bd2b13ccde14fb6d', 1),
    # recorded before enumerate shared the text of its blocks and pairs
    # across lines
    'enumerate partitions numbers 9': ('5ad395ef7e2119919c0f3b254736eb870d59ff71d89ef6bcde0a0ac9da3839c9', 21147),
    'enumerate injections nested 6 into 7': ('4758ad8e3960b88399c0c904e386dfc10772cc1d09a2af62551a6cb7b9747534', 5040),
    # recorded before clearing read its payments off the integer memo
    'run-combinatorial 3x3 shared 1,000-digit': ('929dd0f7d5398ccf3b5c5eff7f67c3aa3dd2c64619f4088f6de7a2dc77b3a49e', 1),
    'run-combinatorial 3x3 distinct 500-digit': ('6b012c1c66a00a45aa46038411d7ca587f9a9175c3871a1eb42fdd1206785c8f', 1),
    # recorded before the depth cap was decided on the text
    'run-combinatorial bracket symbols 4x3': ('c1e60aea0767ad98c5cc18903d78e53d71f0e4d3a41cd0cb43be738424267e99', 1),
    'check-laws full 0': ('9a87faa9ab161b9705b4dcb06385e8499a4bcfd07bfa8301a7c258e6e29f6f5f', 21),
    # recorded before stdout was written in blocks of lines
    'enumerate partitions numbers 8': ('5e128116aba4bc6db500977ff8e325082c556f06f598374c7f4e2c14b04a95d6', 4140),
    'enumerate injections symbols 5 into 7': ('39ded191a828c814513832b4d5eaca0dc3e45d1ae720e779f3bc6e925db6fd65', 2520),
}


@pytest.fixture
def files(tmp_path):
    paths = {
        "readme": tmp_path / "readme.json",
        "dense": tmp_path / "dense.json",
        "dense6": tmp_path / "dense6.json",
        "equal6": tmp_path / "equal6.json",
        "zero53": tmp_path / "zero53.json",
        "shared1000": tmp_path / "shared1000.json",
        "distinct500": tmp_path / "distinct500.json",
        "brackets": tmp_path / "brackets.json",
        "expr": tmp_path / "expr.txt",
        "expr_non_ascii": tmp_path / "expr_non_ascii.txt",
    }
    paths["readme"].write_text(json.dumps(README_INSTANCE), encoding="utf-8")
    paths["dense"].write_text(json.dumps(_dense_instance(4, 4)), encoding="utf-8")
    paths["dense6"].write_text(json.dumps(_dense_instance(6, 6)), encoding="utf-8")
    paths["equal6"].write_text(json.dumps(_flat_instance(6, 6, 1)), encoding="utf-8")
    paths["zero53"].write_text(json.dumps(_flat_instance(5, 3, 0)), encoding="utf-8")
    paths["shared1000"].write_text(
        json.dumps(_huge_denominator_instance([10**999 + 7])), encoding="utf-8")
    paths["distinct500"].write_text(
        json.dumps(_huge_denominator_instance([10**499 + k for k in range(1, 42, 2)])),
        encoding="utf-8")
    paths["brackets"].write_text(
        json.dumps(_bracket_symbol_instance(), ensure_ascii=False), encoding="utf-8")
    paths["expr"].write_text("({(0::nat,10),(1,11),(1,12)} +< (1,13::nat)) ,, 1\n", encoding="utf-8")
    paths["expr_non_ascii"].write_text(
        '{(1,"é"),(-1/2,{-3/4,"ü⊥"})} +< (-7/3, {"ß", -2})\n', encoding="utf-8"
    )
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_stdout_matches_recorded_digest(name, argv, files, capsys):
    code = main([a.format(**files) for a in argv])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    digest = (hashlib.sha256(out).hexdigest(), out.count(b"\n"))
    assert digest == GOLDEN[name]


# The report text of each law's first case, seed 0, quick profile then
# full, in registry order: "<law> <profile> <case as the report prints it>"
# per line.  Recorded while cases were still packed into one Value, before
# they became tuples; it covers the listing and VCG cases, which no golden
# failure line prints.
FIRST_CASES = "d3d2007f490fd7dde71ee23e4d15a3e55d34f3dfcb6546be2290c13a79124ea2"


def test_first_case_of_every_law_matches_recorded_digest():
    lines = []
    for profile in PROFILES:
        config = LawConfig(profile, 0)
        for law_id, law in LAWS.items():
            case = next(iter(law.cases(config)))
            lines.append(f"{law_id} {profile} {_pack(*case)!r}")
    assert len(lines) == 42
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == FIRST_CASES


# Each law's whole case stream, seed 0: its case count and the sha256 of
# its cases, one serialize_value of the packed case per line.  Recorded
# before the case spaces were written as products of their universes; a
# stream reordered, shortened or with a case changed moves its digest.
CASE_STREAMS = {
    "quick": {
        "boolean_algebra": (512, "947a1f50bf057131411991af38077599ab6d7f782200de8e30fc26454f0b46f7"),
        "order_totality": (8_000, "9c90c5119d8595851f30a25340925cce2bb393625ddea7cd8042d27cfc86008e"),
        "paste_associative": (4_096, "94ff7d353ace7581b3fa4b3935bca7922370066e6fedda196da4eeffb38304f0"),
        "paste_outside_domains": (1_024, "d97cab79acad6e5fe2e965e1b196c80fb4f6cfc78c3cdd9fb0fd1bd4d15e0a51"),
        "right_unique_characterizations": (64, "86b4e53a06e14f3cac6ed7c461c2b080f7e879d8088e5812d5b70111468af3e3"),
        "right_unique_cardinality": (64, "86b4e53a06e14f3cac6ed7c461c2b080f7e879d8088e5812d5b70111468af3e3"),
        "eval_union_agreement": (125, "39c2d1fb91b3fb6115afd0123ce64619e79781595301ded72f6d9a244ef3cc5e"),
        "graph_eval_roundtrip": (64, "34131a6c3932566e2b58f3bb3e857d81ca2831ef19763cdd3ea6108e732ea7b5"),
        "argmax_recursive_agreement": (279, "d9083599794ea825299f344c8c02778d2963a5e71c0c594710fa1097761a7d6c"),
        "projector_kernel_properties": (106, "5068836630b55a1cf43b6c993f3ee55738e3049e8f54f6044026c9a000713874"),
        "quotient_preserves_right_unique": (2_025, "96c20efd4556cf57f6f31d088576593dab7046ffb693ea2ca3a4d92943a02d64"),
        "compatibility_necessity": (2_025, "96c20efd4556cf57f6f31d088576593dab7046ffb693ea2ca3a4d92943a02d64"),
        "quotient_factorization": (400, "a175160ac32fb2466912c80f6915248f18e2ed3cbf64023cdbf1fa4718c98664"),
        "injections_match_oracle": (35, "61e8762fc2a869c51c6e29de968a5f28370edf99d3716054d2be831de11a2fdc"),
        "partitions_match_oracle": (5, "16226a8141fcc5a94970cff1c0b3778eb9f392ae4e0dfacc5d12c706c6d64579"),
        "second_price_dominant": (35, "a7e892d73e496af3a5a9deba4919fb07f95a01392c62a3e9bf1b8dad86d9d2d5"),
        "first_price_not_dominant": (13, "4a3ddf00cb856f7e287adc179502bbea7fecbb6ab9c453e1eada9928cb81521e"),
        "reduced_bid_kernel_compatible": (35, "a7e892d73e496af3a5a9deba4919fb07f95a01392c62a3e9bf1b8dad86d9d2d5"),
        "vickrey_payment_decomposition": (14, "a87b2d4fbe0fda74bed2b50fcc8d2819410f3f5b832cb04e6524254d14117550"),
        "vcg_payment_bounds": (30, "52ede5ce7269f63123f6e98f18056ca755b9d65d324147ba6a2fafb8fa1ee6d1"),
        "vcg_matches_oracle": (30, "52ede5ce7269f63123f6e98f18056ca755b9d65d324147ba6a2fafb8fa1ee6d1"),
    },
    "full": {
        "boolean_algebra": (512, "947a1f50bf057131411991af38077599ab6d7f782200de8e30fc26454f0b46f7"),
        "order_totality": (28_000, "1e283afc1cb39d8547dc4340ea136f1abaf08bfcd99acade5711610e74bdf403"),
        "paste_associative": (14_096, "67e5e75896337eda52785aafcd094d29dda8030578255e27164b80d13553ef89"),
        "paste_outside_domains": (3_024, "34a45d264a109952f97ae58a6d11c3123e958c22c6ac46f90b9ab7ba5763df88"),
        "right_unique_characterizations": (64, "86b4e53a06e14f3cac6ed7c461c2b080f7e879d8088e5812d5b70111468af3e3"),
        "right_unique_cardinality": (64, "86b4e53a06e14f3cac6ed7c461c2b080f7e879d8088e5812d5b70111468af3e3"),
        "eval_union_agreement": (125, "39c2d1fb91b3fb6115afd0123ce64619e79781595301ded72f6d9a244ef3cc5e"),
        "graph_eval_roundtrip": (64, "34131a6c3932566e2b58f3bb3e857d81ca2831ef19763cdd3ea6108e732ea7b5"),
        "argmax_recursive_agreement": (2_882, "24078584268eb7ce4cdf9a80adb31273fcd0d91ed4f061fadb356bcb8fb9510c"),
        "projector_kernel_properties": (106, "5068836630b55a1cf43b6c993f3ee55738e3049e8f54f6044026c9a000713874"),
        "quotient_preserves_right_unique": (2_025, "96c20efd4556cf57f6f31d088576593dab7046ffb693ea2ca3a4d92943a02d64"),
        "compatibility_necessity": (2_025, "96c20efd4556cf57f6f31d088576593dab7046ffb693ea2ca3a4d92943a02d64"),
        "quotient_factorization": (115_200, "7effdedc74e8b2b3ec60b15b5f45a42c826c73bc4c3123b14c1eac915899a9cb"),
        "injections_match_oracle": (244, "d9e9e1d0a9f233fda7185fe8ee2a0f5fc38b6767bbcfc070299e85d03a1c6275"),
        "partitions_match_oracle": (6, "8d1067d08701b9ac4f2f6b435fbbf4cb2ccaf6f049043267062f4ed79b5222e5"),
        "second_price_dominant": (75, "b9de6975c2417d44ccae573ce94224893221375731eb38c8d6945553f1618ef5"),
        "first_price_not_dominant": (47, "3f13c99ebb2925af0536443a7feb240e31f674976a2721605a7b5ec799634627"),
        "reduced_bid_kernel_compatible": (75, "b9de6975c2417d44ccae573ce94224893221375731eb38c8d6945553f1618ef5"),
        "vickrey_payment_decomposition": (30, "db42fa1bbcf87061b900b3c463fc7adb2903aeb09c8e269d9eead5fd7b6c1625"),
        "vcg_payment_bounds": (200, "a247ef8a007bd67e9e0f6d7cb12336cb19e9ef97342572938a710f12e9b53ded"),
        "vcg_matches_oracle": (200, "a247ef8a007bd67e9e0f6d7cb12336cb19e9ef97342572938a710f12e9b53ded"),
    },
}


@pytest.mark.parametrize("profile", PROFILES)
def test_case_stream_of_every_law_matches_recorded_digest(profile):
    streams = {}
    for law_id, law in LAWS.items():
        digest, count = hashlib.sha256(), 0
        for case in law.cases(LawConfig(profile, 0)):
            # a case is a tuple of Values, so a counterexample replays as check(*case)
            assert type(case) is tuple and all(isinstance(v, Value) for v in case), (law_id, case)
            digest.update(serialize_value(_pack(*case)).encode("utf-8") + b"\n")
            count += 1
        streams[law_id] = (count, digest.hexdigest())
    assert streams == CASE_STREAMS[profile]
