import argparse
import contextlib
import functools
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natbdd.bdd import LEAVES, Bdd, Ite, Leaf, plain_bdd, reduced_bdd
from natbdd.bdd import reduce as reduce_bdd
from natbdd.cli import (
    BddTextError,
    build_parser,
    format_nat,
    parse_bdd,
    parse_json,
    parse_nat,
    parse_sexpr,
    render_json,
    render_sexpr,
    run,
)
from natbdd.ranking import bdd2nat, nat2bdd, nat2plain_bdd
from natbdd.truthtab import DEFAULT_MAX_VARS, MAX_VARS_CEILING, var_tt

REDUCED_42_TEXT = "(bdd 3 (ite 2 (c 0) (ite 1 (c 1) (ite 0 (c 1) (c 0)))))"
# a leaf bit of 5000 digits, past Python's 4300-digit int/str cap
LONG_NUMERAL_SEXPR = "(bdd 1 (c " + "1" * 5000 + "))"
LONG_NUMERAL_JSON = '{"vars":1,"root":{"leaf":' + "1" * 5000 + "}}"


# ---------------------------------------------------------------- formats

def test_parse_nat():
    assert parse_nat("42") == 42
    assert parse_nat("0x2a") == 42
    assert parse_nat("0X2A") == 42
    assert parse_nat(" 7\n") == 7


@pytest.mark.parametrize("text", ["", "  \n", ")", "bdd 1 (c 0))", "1 (bdd 1 (c 0))", "{}"])
def test_sexpr_text_must_start_with_a_parenthesis(text):
    with pytest.raises(BddTextError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == "BDD text must start with '('"


def test_max_vars_takes_the_ceiling_and_no_more(cli, capsys):
    assert cli(["tt2bdd", "--vars", "0", "--tt", "1", "--max-vars", str(MAX_VARS_CEILING)]) == (
        0, "(bdd 0 (c 1))\n", "")
    with pytest.raises(SystemExit) as exc:
        cli(["tt2bdd", "--vars", "0", "--tt", "1", "--max-vars", str(MAX_VARS_CEILING + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected a natural number up to {MAX_VARS_CEILING}, got '{MAX_VARS_CEILING + 1}'" in err


@pytest.mark.parametrize("bad", ["", "-1", "4.2", "0x", "forty", "1e3", "0b11"])
def test_parse_nat_rejects(bad):
    with pytest.raises(ValueError):
        parse_nat(bad)


def test_format_nat():
    assert format_nat(2008) == "2008"
    assert format_nat(2008, hexadecimal=True) == "0x7d8"
    assert parse_nat(format_nat(123456789, hexadecimal=True)) == 123456789


def test_decimal_roundtrip_at_2_pow_20_bits():
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    n = random.Random(20).getrandbits(1 << 20)
    assert parse_nat(format_nat(n)) == n
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap  # never changed


@contextlib.contextmanager
def uncapped_digits():
    """Lift the interpreter's int<->str digit cap (Python 3.11+) in this block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_decimal_pieces_match_builtin_conversion():
    rng = random.Random(18)
    values = [p + d for p in (10**4096, 10**8192) for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 1 << 18)) for _ in range(8)]
    values += [rng.getrandbits(1 << 18) | 1 << ((1 << 18) - 1), 0, 1, 10**4095]
    # binary halves of all zeros or all ones, and odd widths
    values += [1 << 20000, (1 << 20000) - 1, (1 << 40001) + 1, ((1 << 15001) - 1) << 15001]
    # piece at a time under the default cap, against the built-ins without it
    formatted = [format_nat(n) for n in values]
    padded = ["0" * zeros + text for zeros in (1, 4095, 4096, 9000) for text in ("0", "7", formatted[0])]
    parsed = [parse_nat(text) for text in formatted + padded]
    with uncapped_digits():
        assert formatted == [str(n) for n in values]
        assert parsed == [int(text) for text in formatted + padded]


def test_decimal_conversions_from_many_threads():
    # conversions leave the interpreter-wide digit cap alone, and each keeps
    # its own powers; every thread must still get exact results
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    wide = [random.Random(i).getrandbits(1 << 14) for i in range(4)]
    errors = []

    def convert(n):
        try:
            for _ in range(20):
                assert parse_nat(format_nat(n)) == n
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=convert, args=(n,)) for n in wide * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_a_decimal_parse_keeps_no_powers_of_ten():
    # in a fresh process: powers that an earlier test's parse left would hide these
    code = ("import tracemalloc; from natbdd.cli import format_nat, parse_nat; "
            "from natbdd.truthtab import var_tt; "
            "text = format_nat(var_tt(20, 13) | 1); tracemalloc.start(); "
            "before = tracemalloc.get_traced_memory()[0]; "
            "assert parse_nat(text) == var_tt(20, 13) | 1; "
            "print(tracemalloc.get_traced_memory()[0] - before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 64 << 10  # an nv=20 parse's powers of ten are 0.22 MiB


def test_parse_nat_rejects_decimals_past_the_bit_budget(cli):
    assert parse_nat("65535", max_vars=4) == 65535  # 2**4 bits hold 5 digits
    with pytest.raises(ValueError, match="budget"):
        parse_nat("123456", max_vars=4)
    # one digit more than 2**(2**20) - 1 has, refused before any conversion
    code, out, err = cli(["pair", "--scheme", "cantor", "9" * 315654, "1"])
    assert (code, out) == (1, "")
    assert err.startswith("natbdd: error:") and "budget" in err and err.count("\n") == 1


def test_render_sexpr_exact():
    assert render_sexpr(Bdd(0, Leaf(0))) == "(bdd 0 (c 0))"
    assert render_sexpr(Bdd(1, Ite(0, Leaf(1), Leaf(0)))) == "(bdd 1 (ite 0 (c 1) (c 0)))"


def test_sexpr_roundtrip_over_stream():
    for n in range(300):
        for b in (nat2bdd(n), nat2plain_bdd(n)):
            assert parse_sexpr(render_sexpr(b)) == b
            assert parse_bdd(render_sexpr(b)) == b


def test_sexpr_accepts_loose_whitespace():
    text = "( bdd 1\n  ( ite 0 ( c 1 )\t( c 0 ) ) )"
    assert parse_sexpr(text) == Bdd(1, Ite(0, Leaf(1), Leaf(0)))


def assert_holds_the_bottom_of(parsed, built):
    """``parsed`` equals ``built`` and holds the same objects wherever ``built``
    has a leaf or a node on variables below 3: the shared bottom."""
    assert parsed == built
    pairs = [(parsed.root, built.root)]
    while pairs:
        node, want = pairs.pop()
        if type(want) is Leaf or want.var < 3:
            assert node is want, want
        else:
            pairs += ((node.high, want.high), (node.low, want.low))


def test_parsed_trees_hold_the_bottom_objects_of_built_trees():
    rng = random.Random(26)
    trees = [tree(n) for n in range(300) for tree in (nat2bdd, nat2plain_bdd)]
    for nv in range(11):
        tt = rng.getrandbits(1 << nv)
        trees += (plain_bdd(nv, tt), reduced_bdd(nv, tt), reduce_bdd(plain_bdd(nv, tt)))
    for b in trees:
        text = render_sexpr(b)
        respaced = text.replace("(", "( ").replace(" ", "\n\t ")  # no subtree as render_sexpr writes it
        for parsed in (parse_sexpr(text), parse_sexpr(respaced), parse_json(render_json(b))):
            assert_holds_the_bottom_of(parsed, b)


@pytest.mark.parametrize("text,want", [
    # a text that is only a subtree, whole or holding a whole one
    ("(ite 0 (c 1) (c 0))", "expected (bdd NV ROOT) at the top"),
    (" (ite 0 (c 1) (c 0))", "expected (bdd NV ROOT) at the top"),
    ("(ite 1 (ite 0 (c 1) (c 0)) (c 0))", "expected (bdd NV ROOT) at the top"),
    ("(c 1)", "expected (bdd NV ROOT) at the top"),
    # a subtree after a complete tree
    ("(bdd 1 (c 0)) (ite 0 (c 1) (c 0))", "trailing content after BDD: '('"),
    ("(bdd 1 (c 0)) (c 1)", "trailing content after BDD: '('"),
    ("(bdd 1 (c 0)) junk", "trailing content after BDD: 'junk'"),
    # subtrees in canonical spacing that no tree holds
    ("(bdd 3 (ite 2 (ite 2 (c 1) (c 0)) (c 0)))",
     "variable 2 breaks the strictly decreasing order (must lie in [0, 2))"),
    ("(bdd 3 (ite 2 (ite 1 (ite 1 (c 1) (c 0)) (c 0)) (c 0)))",
     "variable 1 breaks the strictly decreasing order (must lie in [0, 1))"),
    ("(bdd 3 (ite 0 (ite 0 (c 1) (c 0)) (c 0)))",
     "variable 0 breaks the strictly decreasing order (must lie in [0, 0))"),
    # forms around a subtree
    ("(bdd 2 (ite 1 (ite 0 (c 1) (c 0)) (c 0)) (c 1))",
     "malformed (bdd ...) of 4 items: expected (c BIT), (ite VAR THEN ELSE) or (bdd NV ROOT)"),
    ("( (ite 0 (c 1) (c 0)))",
     "malformed (? ...) of 1 items: expected (c BIT), (ite VAR THEN ELSE) or (bdd NV ROOT)"),
    ("(bdd 1 (ite 0 (c 1) (c 0))", "unexpected end of BDD text"),
])
def test_subtree_tokens_keep_the_parsers_messages(text, want):
    with pytest.raises(ValueError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == want


@pytest.mark.parametrize("text,want", [
    ("(bdd 1 (ite 0 (c 0) (c 1) (c 1)))", "malformed (ite ...) of 5 items"),
    ("(bdd 1 (c 0 1))", "malformed (c ...) of 3 items"),
    ("(bdd 1 (ite 0 (c 0)))", "malformed (ite ...) of 3 items"),
])
def test_forms_with_a_member_too_many_or_too_few_are_malformed(text, want):
    with pytest.raises(ValueError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == f"{want}: expected (c BIT), (ite VAR THEN ELSE) or (bdd NV ROOT)"


def test_a_node_no_built_tree_holds_parses_as_written():
    for text, tree in [
        ("(bdd 3 (ite 2 (c 0) (c 0)))", Bdd(3, Ite(2, LEAVES[0], LEAVES[0]))),
        ("(bdd 4 (ite 3 (ite 2 (c 0) (c 0)) (ite 1 (ite 0 (c 1) (c 1)) (c 1))))",
         Bdd(4, Ite(3, Ite(2, LEAVES[0], LEAVES[0]), Ite(1, Ite(0, LEAVES[1], LEAVES[1]), LEAVES[1])))),
    ]:
        for parsed in (parse_sexpr(text), parse_json(render_json(tree))):
            assert parsed == tree
            assert render_sexpr(parsed) == text


@given(n=st.integers(0, 1 << 64), plain=st.booleans(), seed=st.integers(0, 1 << 32),
       kept=st.sampled_from([0.0, 0.5, 0.9, 0.98]))
def test_respaced_text_parses_as_the_canonical_text(n, plain, seed, kept):
    # each gap between tokens is kept as render_sexpr writes it with odds kept,
    # so that subtrees in canonical spacing sit among re-spaced ones
    b = (nat2plain_bdd if plain else nat2bdd)(n)
    token = r"[()]|[^\s()]+"
    canonical = render_sexpr(b)
    tokens, gaps = re.findall(token, canonical), re.split(token, canonical)[1:-1]
    rng = random.Random(seed)
    text = tokens[0]
    for before, gap, after in zip(tokens, gaps, tokens[1:]):
        if rng.random() >= kept:
            gap = rng.choice(["", " ", "  ", "\t", "\n", " \n\t "])
            if not gap and before not in ("(", ")") and after not in ("(", ")"):  # two words need a space
                gap = " "
        text += gap + after
    assert_holds_the_bottom_of(parse_sexpr(text), b)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(bdd 1)",
        "(bdd 1 (c 1)",
        "(bdd 1 (c 1)))",
        "(bdd 1 (c 1)) junk",
        "(bdd x (c 1))",
        "(bdd 1 (mux 0 (c 0) (c 1)))",
        "(bdd 1 (ite 0 (c 0)))",
        "(bdd 1 (c 3))",
        "(bdd 1 (ite 2 (c 0) (c 1)))",
        "(bdd 2 (ite 0 (ite 1 (c 0) (c 1)) (c 0)))",
        "()",
        "(c 0)",
        "(bdd 1 ())",
        "(bdd 1 (c 0) (c 1))",
        "(bdd 1 (bdd 1 (c 0)))",
        "(bdd 1 (ite (c 0) (c 0) (c 1)))",
        "(bdd \u0661 (ite \u0660 (c \u0661) (c \u0660)))",  # Arabic-Indic digits: ASCII only
        pytest.param(LONG_NUMERAL_SEXPR, id="5000-digit-bit"),
    ],
)
def test_sexpr_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_sexpr(bad)


def test_json_shape_exact():
    want = '{"vars": 1, "root": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}'
    assert render_json(Bdd(1, Ite(0, Leaf(1), Leaf(0)))) == want


def _reference_json_node(node):
    """A node as the nested dicts whose ``json.dumps`` text ``render_json`` writes."""
    if isinstance(node, Leaf):
        return {"leaf": node.bit}
    return {
        "var": node.var,
        "then": _reference_json_node(node.high),
        "else": _reference_json_node(node.low),
    }


def test_json_text_is_json_dumps_of_the_dict_tree():
    rng = random.Random(1990)
    tables = [(nv, rng.getrandbits(1 << nv)) for nv in range(11) for _ in range(6)]
    tables += [(nv, var_tt(nv, nv // 2)) for nv in range(1, 11)]
    tables.append((14, rng.getrandbits(1 << 14)))
    for nv, tt in tables:
        for built in (plain_bdd(nv, tt), reduced_bdd(nv, tt), reduce_bdd(plain_bdd(nv, tt))):
            for b in (built, parse_sexpr(render_sexpr(built))):
                want = json.dumps({"vars": b.nv, "root": _reference_json_node(b.root)})
                assert render_json(b) == want, (nv, tt)


def test_json_roundtrip():
    for n in (0, 5, 42, 255, 1000):
        for b in (nat2bdd(n), nat2plain_bdd(n)):
            assert parse_json(render_json(b)) == b
            assert parse_bdd(render_json(b)) == b


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        "[]",
        '{"vars": 1}',
        '{"vars": 1, "root": {"leaf": 0}, "extra": 1}',
        '{"vars": true, "root": {"leaf": 0}}',
        '{"vars": 1, "root": {"leaf": 0, "var": 0}}',
        '{"vars": 1, "root": {"var": 0, "then": {"leaf": 1}}}',
        '{"vars": 1, "root": 3}',
        '{"leaf": 0}',
        '{"vars": 1, "root": {"leaf": true}}',
        '{"vars": 1, "root": {"var": false, "then": {"leaf": 1}, "else": {"leaf": 0}}}',
        '{"vars": 1, "root": {"vars": 1, "root": {"leaf": 0}}}',
        '{"vars": 1, "root": [{"leaf": 0}]}',
        pytest.param(LONG_NUMERAL_JSON, id="5000-digit-bit"),
    ],
)
def test_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_json(bad)


@pytest.mark.parametrize("text", [LONG_NUMERAL_SEXPR, LONG_NUMERAL_JSON], ids=["sexpr", "json"])
def test_long_numerals_in_bdd_text_exit_1(cli, text):
    code, out, err = cli(["bdd2tt"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "natbdd: error: numeral of 5000 digits in BDD text: too long for a variable or a bit\n"


LONG_VAR = "9" * 4000  # a 13288-bit numeral, under the 4096-digit cap of BDD text
LONG_ORDER_ERROR = "variable a 13288-bit number breaks the strictly decreasing order (must lie in [0, 3))"
LONG_BIT_ERROR = "leaf bit must be 0 or 1, got a 13288-bit number"


@pytest.mark.parametrize("text,want", [
    (f"(bdd 3 (ite {LONG_VAR} (c 0) (c 1)))", LONG_ORDER_ERROR),
    (f'{{"vars": 3, "root": {{"var": {LONG_VAR}, "then": {{"leaf": 0}}, "else": {{"leaf": 1}}}}}}',
     LONG_ORDER_ERROR),
    (f"(bdd 3 (ite 2 (c {LONG_VAR}) (c 1)))", LONG_BIT_ERROR),
    (f'{{"vars": 3, "root": {{"leaf": {LONG_VAR}}}}}', LONG_BIT_ERROR),
    ('{"vars": 1, "root": {"var": -1, "then": {"leaf": 0}, "else": {"leaf": 1}}}',
     "variable -1 breaks the strictly decreasing order (must lie in [0, 1))"),
    ('{"vars": 1, "root": {"leaf": -1}}', "leaf bit must be 0 or 1, got -1"),
    ('{"vars": -1, "root": {"leaf": 0}}', "variable count must be >= 0, got -1"),
], ids=["sexpr-var", "json-var", "sexpr-bit", "json-bit", "json-negative-var", "json-negative-bit",
        "json-negative-vars"])
def test_tree_errors_name_long_numerals_by_bit_length(cli, text, want):
    assert cli(["bdd2tt"], stdin_text=text) == (1, "", f"natbdd: error: {want}\n")


def test_bdd_text_header_is_guarded():
    for text in ("(bdd 3 (c 0))", '{"vars": 3, "root": {"leaf": 0}}'):
        assert parse_bdd(text, max_vars=3) == Bdd(3, Leaf(0))
        with pytest.raises(ValueError, match="exceeds the guard of 2"):
            parse_bdd(text, max_vars=2)
    with pytest.raises(ValueError, match="exceeds the guard of 20"):
        parse_sexpr("(bdd 21 (c 0))")
    with pytest.raises(ValueError, match="exceeds the guard of 20"):
        parse_json('{"vars": 21, "root": {"leaf": 0}}')
    # the header is one more form: its root's order is checked before the guard
    order_30 = r"variable 30 breaks the strictly decreasing order \(must lie in \[0, 30\)\)"
    with pytest.raises(ValueError, match=order_30):
        parse_sexpr("(bdd 30 (ite 30 (c 0) (c 1)))")
    with pytest.raises(ValueError, match=order_30):
        parse_json('{"vars": 30, "root": {"var": 30, "then": {"leaf": 0}, "else": {"leaf": 1}}}')


DEEP_SEXPR = "(bdd 1 " + "(ite 0 " * 100000 + "(c 0)" + " (c 1))" * 100000 + ")"
DEEP_JSON = ('{"vars": 1, "root": ' + '{"var": 0, "then": ' * 3000 + '{"leaf": 0}'
             + ', "else": {"leaf": 1}}' * 3000 + "}")
# a valid tree, one node per variable
CHAIN_2000 = "(bdd 2000 " + "".join(f"(ite {v} (c 0) " for v in range(1999, -1, -1)) + "(c 1)" + ")" * 2001


@pytest.mark.parametrize("argv", [["bdd2tt"], ["reduce"], ["rank", "--plain"]], ids=" ".join)
@pytest.mark.parametrize(
    "text",
    [DEEP_SEXPR, DEEP_JSON, CHAIN_2000, "(bdd 100 (c 0))"],
    ids=["deep-sexpr", "deep-json", "chain-2000", "nv-100"],
)
def test_hostile_bdd_text_exits_1(cli, argv, text):
    code, out, err = cli(argv, stdin_text=text)
    assert (code, out) == (1, "")
    assert err.startswith("natbdd: error:") and err.count("\n") == 1


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="() bdcite0123456789x"),
        st.text(alphabet='{}[]:," leafvarthenlsoot01-.'),
    )
)
def test_bdd2tt_on_arbitrary_text_exits_0_or_1(text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(["bdd2tt"], stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
    assert code in (0, 1)
    assert (stdout.getvalue() == "") == (code == 1)


def test_parse_bdd_needs_a_known_format():
    with pytest.raises(BddTextError):
        parse_bdd("bdd 1 c 0")


@given(n=st.integers(0, 10**9))
def test_text_roundtrip_random(n):
    for b in (nat2bdd(n), nat2plain_bdd(n)):
        assert parse_sexpr(render_sexpr(b)) == b
        assert parse_json(render_json(b)) == b


# --------------------------------------------------------------- commands

def test_pair_command(cli):
    assert cli(["pair", "--scheme", "bitmerge", "60", "26"]) == (0, "2008\n", "")
    assert cli(["pair", "--scheme", "pepis", "1", "10"]) == (0, "41\n", "")
    assert cli(["pair", "--scheme", "cantor", "1", "2"]) == (0, "8\n", "")


def test_unpair_command(cli):
    assert cli(["unpair", "--scheme", "bitmerge", "2008"]) == (0, "60 26\n", "")
    assert cli(["unpair", "--scheme", "pepis", "41"]) == (0, "1 10\n", "")
    assert cli(["unpair", "--scheme", "cantor", "8"]) == (0, "1 2\n", "")


def test_tt2bdd_command(cli):
    assert cli(["tt2bdd", "--vars", "0", "--tt", "0", "--plain"]) == (0, "(bdd 0 (c 0))\n", "")
    code, out, err = cli(["tt2bdd", "--vars", "3", "--tt", "42"])
    assert (code, out, err) == (0, REDUCED_42_TEXT + "\n", "")


def test_tt2bdd_json(cli):
    code, out, _ = cli(["tt2bdd", "--vars", "1", "--tt", "1", "--format", "json"])
    assert code == 0
    assert out == '{"vars": 1, "root": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}\n'


def test_pipe_tt2bdd_to_bdd2tt(cli):
    # a 4932-digit nv=14 table passes Python's default 4300-digit int/str cap
    rng = random.Random(14)
    wide = "1" + "".join(rng.choice("0123456789") for _ in range(4931))
    for nv, tt in ((4, "31337"), (14, wide)):
        for variant in ("--plain", "--reduced"):
            _, text, _ = cli(["tt2bdd", "--vars", str(nv), "--tt", tt, variant])
            assert cli(["bdd2tt"], stdin_text=text) == (0, tt + "\n", "")


def test_pipe_tt2bdd_to_bdd2tt_in_decimal_at_20_vars(cli):
    # 315634 digits, past the OS limit on one argv string: run in process
    column = var_tt(20, 13)
    text = format_nat(column)
    assert parse_nat(text) == column and text[0] != "0"  # exactly str(column)
    code, tree, err = cli(["tt2bdd", "--vars", "20", "--tt", text])
    assert (code, tree, err) == (0, "(bdd 20 (ite 13 (c 1) (c 0)))\n", "")
    assert cli(["bdd2tt"], stdin_text=tree) == (0, text + "\n", "")


def test_pipe_unrank_to_rank(cli):
    _, text, _ = cli(["unrank", "42"])
    assert cli(["rank"], stdin_text=text) == (0, "42\n", "")
    _, text, _ = cli(["unrank", "42", "--plain"])
    assert cli(["rank", "--plain"], stdin_text=text) == (0, "42\n", "")
    _, text, _ = cli(["unrank", "42", "--format", "json"])
    assert cli(["rank"], stdin_text=text) == (0, "42\n", "")


def test_rank_refuses_a_plain_tree_that_reduces(cli):
    # (bdd 2 (ite 1 (ite 0 (c 1) (c 0)) (ite 0 (c 1) (c 0)))): rank 5 is its reduced tree's
    _, text, _ = cli(["unrank", "5", "--plain"])
    assert cli(["rank"], stdin_text=text) == (
        1, "", "natbdd: error: not a reduced tree: a node's two branches denote the same function\n")
    assert cli(["rank", "--plain"], stdin_text=text) == (0, "5\n", "")


@pytest.mark.parametrize("text", [
    REDUCED_42_TEXT,
    "(bdd 3 (ite 1 (ite 0 (c 1) (c 0)) (ite 0 (c 0) (c 1))))",  # root below variable 2
    "(bdd 2 (ite 1 (ite 0 (c 1) (c 0)) (c 1)))",  # a leaf below variable 1
    "(bdd 3 (ite 2 (ite 0 (c 1) (c 0)) (ite 1 (ite 0 (c 0) (c 1)) (ite 0 (c 1) (c 1)))))",  # skips 1
    "(bdd 2 (c 0))",
])
def test_rank_plain_refuses_trees_that_are_not_complete(cli, text):
    code, out, err = cli(["rank", "--plain"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err.startswith("natbdd: error: not a complete tree") and err.count("\n") == 1


def test_reduce_command(cli):
    _, plain_text, _ = cli(["tt2bdd", "--vars", "3", "--tt", "42", "--plain"])
    assert cli(["reduce"], stdin_text=plain_text) == (0, REDUCED_42_TEXT + "\n", "")


def test_enum_command(cli):
    code, out, _ = cli(["enum", "--count", "3"])
    assert code == 0
    assert out == "(bdd 1 (c 0))\n(bdd 1 (ite 0 (c 1) (c 0)))\n(bdd 2 (c 0))\n"
    _, single, _ = cli(["enum", "--from", "42", "--count", "1", "--plain"])
    _, unranked, _ = cli(["unrank", "42", "--plain"])
    assert single == unranked


def test_shannon_commands(cli):
    assert cli(["shannon", "split", "--vars", "3", "42"]) == (0, "2 10\n", "")
    assert cli(["shannon", "fuse", "--vars", "3", "2", "10"]) == (0, "42\n", "")
    assert cli(["shannon", "split", "--vars", "2", "7"]) == (0, "1 3\n", "")


def test_varbits_command(cli):
    assert cli(["varbits", "--vars", "2", "--index", "0"]) == (0, "3\n", "")
    assert cli(["varbits", "--vars", "2", "--index", "1"]) == (0, "5\n", "")


@pytest.mark.parametrize("argv", [
    ["tt2bdd", "--tt", "1"],
    ["varbits", "--index", "0", "--hex"],
    ["shannon", "split", "1", "--hex"],
    ["shannon", "fuse", "1", "1", "--hex"],  # its result has 2**N bits: N itself is guarded
], ids=["tt2bdd", "varbits", "shannon-split", "shannon-fuse"])
@pytest.mark.parametrize("guard", [5, DEFAULT_MAX_VARS, MAX_VARS_CEILING])
def test_every_vars_count_is_held_to_the_guard(cli, argv, guard):
    argv = argv if guard == DEFAULT_MAX_VARS else [*argv, "--max-vars", str(guard)]
    code, out, err = cli([*argv, "--vars", str(guard)])
    assert (code, err) == (0, "") and out.count("\n") == 1
    code, out, err = cli([*argv, "--vars", str(guard + 1)])
    assert (code, out) == (1, "")
    assert err.startswith(f"natbdd: error: variable count exceeds the guard of {guard} ")
    assert err.count("\n") == 1


def test_hex_io(cli):
    assert cli(["pair", "--scheme", "bitmerge", "--hex", "0x3c", "26"]) == (0, "0x7d8\n", "")
    assert cli(["unpair", "--scheme", "bitmerge", "--hex", "0x7d8"]) == (0, "0x3c 0x1a\n", "")
    assert cli(["bdd2tt", "--hex"], stdin_text=REDUCED_42_TEXT) == (0, "0x2a\n", "")
    assert cli(["rank", "--hex"], stdin_text=cli(["unrank", "200"])[1]) == (0, "0xc8\n", "")
    assert cli(["varbits", "--vars", "3", "--index", "0", "--hex"]) == (0, "0xf\n", "")


# a command path, its arguments, its stdin and its stdout byte for byte, each
# path in an output form that no other test pins
PRINTED = {
    "pair-cantor-hex": (["pair", "--scheme", "cantor", "--hex", "1", "2"], "", "0x8\n"),
    "pair-pepis-hex": (["pair", "--scheme", "pepis", "--hex", "1", "10"], "", "0x29\n"),
    "unpair-cantor-hex": (["unpair", "--scheme", "cantor", "--hex", "8"], "", "0x1 0x2\n"),
    "unpair-pepis-hex": (["unpair", "--scheme", "pepis", "--hex", "0x29"], "", "0x1 0xa\n"),
    "tt2bdd-plain-json": (["tt2bdd", "--vars", "2", "--tt", "6", "--plain", "--format", "json"], "",
                          '{"vars": 2, "root": {"var": 1, "then": {"var": 0, "then": {"leaf": 0}, "else": {"leaf": 1}}, '
                          '"else": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}}\n'),
    "bdd2tt-hex-zero": (["bdd2tt", "--hex"], '{"vars": 2, "root": {"leaf": 0}}', "0x0\n"),
    "reduce-json": (["reduce", "--format", "json"], REDUCED_42_TEXT,
                    '{"vars": 3, "root": {"var": 2, "then": {"leaf": 0}, "else": {"var": 1, "then": {"leaf": 1}, '
                    '"else": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}}}\n'),
    "rank-plain-hex": (["rank", "--plain", "--hex"], "(bdd 1 (ite 0 (c 1) (c 0)))", "0x1\n"),
    "unrank-plain-json": (["unrank", "5", "--plain", "--format", "json"], "",
                          '{"vars": 2, "root": {"var": 1, "then": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}, '
                          '"else": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}}\n'),
    "enum-plain-json": (["enum", "--count", "3", "--plain", "--format", "json"], "",
                        '{"vars": 1, "root": {"var": 0, "then": {"leaf": 0}, "else": {"leaf": 0}}}\n'
                        '{"vars": 1, "root": {"var": 0, "then": {"leaf": 1}, "else": {"leaf": 0}}}\n'
                        '{"vars": 2, "root": {"var": 1, "then": {"var": 0, "then": {"leaf": 0}, "else": {"leaf": 0}}, '
                        '"else": {"var": 0, "then": {"leaf": 0}, "else": {"leaf": 0}}}}\n'),
    "shannon-split-hex": (["shannon", "split", "--vars", "3", "--hex", "42"], "", "0x2 0xa\n"),
    "shannon-fuse-hex": (["shannon", "fuse", "--vars", "3", "--hex", "2", "10"], "", "0x2a\n"),
    "varbits-hex": (["varbits", "--vars", "3", "--index", "2", "--hex"], "", "0x55\n"),
}


@pytest.mark.parametrize("argv,stdin_text,want", PRINTED.values(), ids=PRINTED)
def test_each_command_path_prints_its_results_byte_for_byte(cli, argv, stdin_text, want):
    assert cli(argv, stdin_text=stdin_text) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ["tt2bdd", "--vars", "2", "--tt", "3"],
    ["reduce"],
    ["unrank", "42"],
    ["enum", "--count", "2"],
], ids=["tt2bdd", "reduce", "unrank", "enum"])
def test_tree_printers_refuse_hex(cli, argv, capsys):
    assert cli(argv, stdin_text=REDUCED_42_TEXT)[0] == 0
    with pytest.raises(SystemExit) as excinfo:
        cli([*argv, "--hex"], stdin_text=REDUCED_42_TEXT)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --hex" in err
    # the subcommand's own parser refuses it, with its own usage line
    assert err.startswith(f"usage: natbdd {argv[0]} [-h]")
    assert err.endswith(f"\nnatbdd {argv[0]}: error: unrecognized arguments: --hex\n")


def test_unknown_argument_names_the_nested_subcommand(cli, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli(["shannon", "split", "--vars", "2", "3", "--bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: natbdd shannon split [-h]")
    assert err.endswith("\nnatbdd shannon split: error: unrecognized arguments: --bogus\n")


# each option as (option strings, dest, default, choices, required)
HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False)
SHARED = (HELP, (("--max-vars",), "max_vars", DEFAULT_MAX_VARS, None, False), (("--out",), "out", None, None, False))
HEX = (("--hex",), "hex", False, None, False)
FORMAT = (("--format",), "format", "sexpr", ("sexpr", "json"), False)
IN = (("--in",), "infile", None, None, False)
VARIANT = ((("--plain",), "reduced", True, None, False), (("--reduced",), "reduced", True, None, False))
SCHEME = (("--scheme",), "scheme", None, ("bitmerge", "cantor", "pepis"), True)


def required(flag):
    return ((flag,), flag[2:], None, None, True)


# each command path: the names of its positional arguments, then its options in order
COMMAND_PATHS = {
    "": (["command"], [HELP]),
    "pair": (["x", "y"], [*SHARED, HEX, SCHEME]),
    "unpair": (["z"], [*SHARED, HEX, SCHEME]),
    "tt2bdd": ([], [*SHARED, FORMAT, *VARIANT, required("--vars"), required("--tt")]),
    "bdd2tt": ([], [*SHARED, HEX, IN]),
    "reduce": ([], [*SHARED, FORMAT, IN]),
    "rank": ([], [*SHARED, HEX, IN, *VARIANT]),
    "unrank": (["n"], [*SHARED, FORMAT, *VARIANT]),
    "enum": ([], [*SHARED, FORMAT, *VARIANT, (("--from",), "start", "0", None, False), required("--count")]),
    "shannon": (["mode"], [HELP]),
    "shannon split": (["x"], [*SHARED, HEX, required("--vars")]),
    "shannon fuse": (["hi", "lo"], [*SHARED, HEX, required("--vars")]),
    "varbits": ([], [*SHARED, HEX, required("--vars"), required("--index")]),
}


def command_paths(parser, path=()):
    """Each command path's parser, the root's first, through the subcommand actions."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from command_paths(child, (*path, name))


def test_each_command_path_keeps_its_options_and_positionals(cli, capsys):
    found = {}
    for path, parser in command_paths(build_parser()):
        positionals = [action.dest for action in parser._actions if not action.option_strings]
        options = [(tuple(action.option_strings), action.dest, action.default,
                    None if action.choices is None else tuple(action.choices), action.required)
                   for action in parser._actions if action.option_strings]
        found[path] = (positionals, options)
    assert found == COMMAND_PATHS
    # `shannon --help` shows its modes as the one `mode` positional, with no row per mode
    with pytest.raises(SystemExit) as excinfo:
        cli(["shannon", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: natbdd shannon [-h] mode ...\n")
    assert not re.search(r"^\s+(split|fuse)\b", out, re.MULTILINE)


def test_out_file(cli, tmp_path):
    target = tmp_path / "result.txt"
    assert cli(["pair", "--scheme", "cantor", "1", "2", "--out", str(target)]) == (0, "", "")
    assert target.read_text() == "8\n"


def test_in_file(cli, tmp_path):
    source = tmp_path / "bdd.txt"
    source.write_text(REDUCED_42_TEXT + "\n")
    assert cli(["bdd2tt", "--in", str(source)]) == (0, "42\n", "")


def test_reduce_writes_over_its_own_input(cli, tmp_path):
    # the input is read whole before --out truncates it; a streaming reader must keep that so
    plain = cli(["tt2bdd", "--vars", "6", "--tt", "0x0123456789abcdef", "--plain"])[1]
    reduced = cli(["reduce"], plain)[1]
    tree = tmp_path / "tree.txt"
    tree.write_text(plain)
    assert cli(["reduce", "--in", str(tree), "--out", str(tree)]) == (0, "", "")
    assert tree.read_text() == reduced != plain


def test_max_vars_override(cli):
    code, _, err = cli(["shannon", "split", "--vars", "21", "0"])
    assert code == 1 and "exceeds the guard" in err
    assert cli(["shannon", "split", "--vars", "21", "0", "--max-vars", "21"]) == (0, "0 0\n", "")
    ceiling = str(MAX_VARS_CEILING)
    assert cli(["tt2bdd", "--vars", ceiling, "--tt", "0", "--max-vars", ceiling]) == (
        0, f"(bdd {ceiling} (c 0))\n", "")


HUGE_HEX = "0x" + "f" * 4000  # 16000 bits: past 4300 digits Python will not print it in decimal
# domain errors about values too long to print whole, which name their bit length
SIZE_NAMED_ERRORS = {
    (("tt2bdd", "--vars", "2", "--tt", HUGE_HEX), ""):
        "truth table out of range for 2 variables (4 bits), got a 16000-bit number",
    (("shannon", "split", "--vars", "2", HUGE_HEX), ""):
        "table out of range for 2 variables (4 bits), got a 16000-bit number",
    (("rank", "--max-vars", "15"), "(bdd 15 (c 1))"):
        "not in the enumeration: the block for 15 variables holds the tables below 2**16384, "
        "got a 32768-bit number",
}


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["tt2bdd", "--vars", "2", "--tt", "16"], ""),
        (["tt2bdd", "--vars", "25", "--tt", "0"], ""),
        (["pair", "--scheme", "pepis", "x", "0"], ""),
        (["unrank", "9.5"], ""),
        (["bdd2tt"], "garbage"),
        (["bdd2tt"], "(bdd 1 (c 2))"),
        (["rank"], "(bdd 1 (c 1))"),
        (["varbits", "--vars", "2", "--index", "2"], ""),
        (["shannon", "split", "--vars", "0", "1"], ""),
        (["bdd2tt", "--in", "no-such-dir/bdd.txt"], ""),
        (["pair", "--scheme", "cantor", "1", "2", "--out", "no-such-dir/out.txt"], ""),
        (["pair", "--scheme", "pepis", "--hex", str(2**20 + 1), "0"], ""),
        (["enum", "--from", "5", "--count", "2", "--max-vars", "2"], ""),
        *SIZE_NAMED_ERRORS,
        (["bdd2tt"], "(bdd \u0661 (ite \u0660 (c \u0661) (c \u0660)))"),  # Arabic-Indic digits
    ],
)
def test_domain_errors_exit_1(cli, argv, stdin_text):
    code, out, err = cli(list(argv), stdin_text=stdin_text)
    assert code == 1
    assert out == ""
    assert "natbdd: error:" in err
    want = SIZE_NAMED_ERRORS.get((tuple(argv), stdin_text))
    if want is not None:
        assert err == f"natbdd: error: {want}\n"


@pytest.mark.parametrize("argv,stdin_text,want", [
    (["shannon", "split", "--vars", "0", "2"], "", "table out of range for 0 variables (1 bit), got 2"),
    (["shannon", "fuse", "--vars", "2", "4", "0"], "", "hi half out of range for 1 variable (2 bits), got 4"),
    (["rank"], "(bdd 1 (c 1))",
     "not in the enumeration: the block for 1 variable holds the tables below 2**1, got 3"),
], ids=["0-variables", "1-variable", "rank-1-variable"])
def test_range_messages_count_in_the_singular_or_plural(cli, argv, stdin_text, want):
    assert cli(argv, stdin_text=stdin_text) == (1, "", f"natbdd: error: {want}\n")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["pair", "60", "26"],           # --scheme is required
        ["pair", "--scheme", "nope", "1", "2"],
        ["tt2bdd", "--vars", "1", "--tt", "0", "--plain", "--reduced"],
        ["enum"],                        # --count is required
        ["pair", "--scheme", "cantor", "1", "2", "--max-vars", "-5"],
        # past the ceiling; with 5000, the valid 2000-deep CHAIN_2000 would
        # pass the header guard and overflow the recursion limit in the
        # walks of ev, reduce and rendering
        ["reduce", "--max-vars", "5000"],
        ["reduce", "--max-vars", str(MAX_VARS_CEILING + 1)],
        ["reduce", "--max-vars", "\u0662\u0660"],  # Arabic-Indic 20: ASCII digits only
        # shannon's options go after its mode, never between the two
        ["shannon", "--max-vars", "2", "split", "--vars", "3", "42"],
        ["shannon", "--hex", "split", "--vars", "3", "42"],
        ["shannon", "--out", "no-such-dir/out.txt", "split", "--vars", "3", "42"],
    ],
)
def test_usage_errors_exit_2(cli, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()  # swallow argparse usage noise


# naturals for fuzzed argv: small ones, and huge ones past the 4300-digit
# decimal cap in hex and in decimal; none in between, as a table or plain tree
# on 13 to MAX_VARS_CEILING variables is a legitimate but slow request
FUZZ_NATS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(1 << 14300, 1 << 16000).map(hex),
    st.text("0123456789", min_size=4301, max_size=4400),
)


@st.composite
def fuzzed_argv(draw):
    nat = functools.partial(draw, FUZZ_NATS)
    scheme = functools.partial(draw, st.sampled_from(["bitmerge", "cantor", "pepis"]))
    commands = {  # each command with its positional and required arguments
        "pair": lambda: ["--scheme", scheme(), nat(), nat()],
        "unpair": lambda: ["--scheme", scheme(), nat()],
        "tt2bdd": lambda: ["--vars", nat(), "--tt", nat()],
        "bdd2tt": lambda: [],
        "reduce": lambda: [],
        "rank": lambda: [],
        "unrank": lambda: [nat()],
        # a huge count streams for as long as it is asked to
        "enum": lambda: ["--from", nat(), "--count", str(draw(st.integers(0, 3)))],
        "shannon split": lambda: ["--vars", nat(), nat()],
        "shannon fuse": lambda: ["--vars", nat(), nat(), nat()],
        "varbits": lambda: ["--vars", nat(), "--index", nat()],
    }
    cmd = draw(st.sampled_from(sorted(commands)))
    argv = cmd.split() + commands[cmd]()
    argv += draw(st.lists(st.sampled_from(["--hex", "--plain", "--reduced", "--format=json"]),
                          max_size=2, unique=True))
    if draw(st.booleans()):
        argv += ["--max-vars", str(draw(st.integers(0, MAX_VARS_CEILING)))]
    return argv


@given(argv=fuzzed_argv(),
       stdin_text=st.sampled_from(["", REDUCED_42_TEXT, "(bdd 15 (c 1))", "(bdd 25 (c 0))", CHAIN_2000]))
def test_fuzzed_argv_exits_0_1_or_2(argv, stdin_text):
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        code = run(argv, stdin=io.StringIO(stdin_text), stdout=stdout, stderr=stderr)
    except SystemExit as exc:  # a usage error, reported by argparse
        assert exc.code == 2
        return
    if code == 1:
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("natbdd: error:") and stderr.getvalue().count("\n") == 1
    else:
        assert (code, stderr.getvalue()) == (0, "")


def test_pepis_pairing_has_a_bit_budget(cli):
    code, out, err = cli(["pair", "--scheme", "pepis", "--hex", str(2**20 + 1), "0"])
    assert (code, out) == (1, "") and "budget" in err
    code, out, _ = cli(["pair", "--scheme", "pepis", "--hex", str(2**20), "0"])
    assert (code, out) == (0, hex((1 << 2**20) - 1) + "\n")
    code, _, err = cli(["pair", "--scheme", "pepis", "100000000000", "1"])
    assert code == 1 and "budget" in err


def test_deterministic_output(cli):
    for argv in (["unrank", "123"], ["enum", "--count", "5", "--format", "json"]):
        assert cli(argv) == cli(argv)


# ------------------------------------------------------------ subprocess

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "natbdd", "pair", "--scheme", "bitmerge", "60", "26"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2008\n"


def test_short_decimals_leave_the_decimal_module_unimported():
    code = ("import io, sys; from natbdd.cli import run; "
            "run(['tt2bdd', '--vars', '14', '--tt', str(10**4000)], stdout=io.StringIO()); "
            "print('decimal' in sys.modules, end=' '); "
            "run(['pair', '--scheme', 'pepis', '20000', '0'], stdout=io.StringIO()); "
            "print('decimal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True\n", "")


def test_real_shell_pipe():
    me = sys.executable
    cmd = f"{me} -m natbdd tt2bdd --vars 3 --tt 42 | {me} -m natbdd bdd2tt"
    proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "42\n"
    cmd = f"{me} -m natbdd unrank 4242 | {me} -m natbdd rank"
    proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "4242\n"


def test_real_pipe_rank_plain_refuses_a_reduced_tree():
    me = sys.executable
    cmd = f"{me} -m natbdd unrank 5 | {me} -m natbdd rank --plain"
    proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("natbdd: error: ") and proc.stderr.count("\n") == 1
    cmd = f"{me} -m natbdd unrank 5 --plain | {me} -m natbdd rank --plain"
    proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5\n", "")


def test_enum_streams_and_stops_quietly_on_a_closed_pipe():
    cmd = f"{sys.executable} -m natbdd enum --count 100000000 | head -1"
    proc = subprocess.Popen(["sh", "-c", cmd], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert out == "(bdd 1 (c 0))\n"
    assert "Traceback" not in err and "Exception ignored" not in err


def _interruptible(argv, **kwargs):
    """A real ``natbdd`` process that SIGINT reaches (the parent may ignore it)
    with a buffered stdout, so that lines written before the signal sit in
    the buffer; its pipes are unbuffered here, so that a line read from one
    leaves the rest to ``communicate``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "natbdd", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0, env=env,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL), **kwargs)


def test_ctrl_c_ends_enum_by_sigint_with_its_lines_written_and_no_traceback():
    with _interruptible(["enum", "--count", "100000000"]) as proc:
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    assert (proc.returncode, err) == (-signal.SIGINT, b"")
    lines = (first + out).decode().splitlines(keepends=True)
    assert lines[-1].endswith("\n")
    assert [bdd2nat(parse_bdd(line)) for line in lines] == list(range(len(lines)))


@pytest.mark.skipif(not os.path.exists("/proc/self/wchan"), reason="needs /proc/PID/wchan")
def test_ctrl_c_ends_rank_blocked_on_stdin_by_sigint_with_no_traceback():
    with _interruptible(["rank"], stdin=subprocess.PIPE) as proc:
        deadline = time.monotonic() + 10
        while not Path(f"/proc/{proc.pid}/wchan").read_text().endswith("pipe_read"):
            assert time.monotonic() < deadline, "rank never blocked reading stdin"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        assert proc.communicate(timeout=10) == (b"", b"")
    assert proc.returncode == -signal.SIGINT
