"""Command-line front end with bit-exact text formats.

Every library operation is exposed as a subcommand.  BDDs travel as
single-line s-expressions, ``(bdd NV NODE)`` with ``(c BIT)`` leaves and
``(ite VAR THEN ELSE)`` nodes, or as JSON via ``--format json``; input
format is auto-detected from the first character.  Numbers are decimal,
with ``0x`` accepted on input and ``--hex`` switching output.

Exit status: 0 on success, 1 on domain errors (out-of-range values,
unparseable input), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import threading
from typing import IO, Iterator

from .bdd import Bdd, Ite, Leaf, Node, ev, plain_bdd, reduced_bdd, validate
from .bdd import reduce as reduce_bdd
from .pairing import SCHEMES
from .ranking import bdd2nat, enumerate_bdds, nat2bdd, nat2plain_bdd, plain_bdd2nat
from .truthtab import DEFAULT_MAX_VARS, shannon_fuse, shannon_split, var_tt


class BddTextError(ValueError):
    """Malformed BDD text."""


# ---------------------------------------------------------------- numbers

_NAT_RE = re.compile(r"(?:0[xX][0-9a-fA-F]+|[0-9]+)\Z")


_LOG10_2 = math.log10(2)
# the digit cap is interpreter-wide: without the lock, one thread could put
# it back while another thread's conversion still needs it lifted
_DIGIT_CAP_LOCK = threading.Lock()


@contextlib.contextmanager
def _uncapped_decimal() -> Iterator[None]:
    """Lift Python's int<->str digit cap (3.11+) for one conversion.

    Decimal tables of 14 or more variables pass its default of 4300 digits;
    the interpreter-wide cap is restored afterwards.  Python 3.10 has none.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _DIGIT_CAP_LOCK:
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)


def parse_nat(text: str, max_vars: int = DEFAULT_MAX_VARS) -> int:
    """Parse a decimal or ``0x`` hexadecimal natural.

    Decimal conversion can take time quadratic in the length, so a decimal
    longer than a 2**max_vars-bit number is rejected before it runs.
    """
    s = text.strip()
    if not _NAT_RE.match(s):
        raise ValueError(f"not a natural number: {text!r}")
    if s[:2].lower() == "0x":
        return int(s, 16)
    # a d-digit decimal is at least 10**(d-1); past 2**64 bits no text fits
    if len(s) - 1 > math.ldexp(_LOG10_2, min(max_vars, 64)):
        raise ValueError(
            f"decimal of {len(s)} digits exceeds the 2**{max_vars}-bit budget of --max-vars {max_vars}"
        )
    with _uncapped_decimal():
        return int(s)


def format_nat(n: int, hexadecimal: bool = False) -> str:
    if hexadecimal:
        return hex(n)
    with _uncapped_decimal():
        return str(n)


# ------------------------------------------------------------- s-expressions

def render_sexpr(b: Bdd) -> str:
    return f"(bdd {b.nv} {_node_sexpr(b.root)})"


def _node_sexpr(node: Node) -> str:
    if isinstance(node, Leaf):
        return f"(c {node.bit})"
    return f"(ite {node.var} {_node_sexpr(node.high)} {_node_sexpr(node.low)})"


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def parse_sexpr(text: str) -> Bdd:
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise BddTextError("unexpected end of BDD text")
        pos += 1
        return tokens[pos - 1]

    def expect(tok: str) -> None:
        got = take()
        if got != tok:
            raise BddTextError(f"expected {tok!r}, got {got!r}")

    def nat() -> int:
        got = take()
        if not got.isdigit():
            raise BddTextError(f"expected a number, got {got!r}")
        return int(got)

    def node() -> Node:
        expect("(")
        head = take()
        if head == "c":
            bit = nat()
            expect(")")
            return Leaf(bit)
        if head == "ite":
            var = nat()
            high = node()
            low = node()
            expect(")")
            return Ite(var, high, low)
        raise BddTextError(f"expected 'c' or 'ite', got {head!r}")

    expect("(")
    expect("bdd")
    nv = nat()
    root = node()
    expect(")")
    if pos != len(tokens):
        raise BddTextError(f"trailing content after BDD: {tokens[pos]!r}")
    return validate(Bdd(nv, root))


# -------------------------------------------------------------------- JSON

def render_json(b: Bdd) -> str:
    return json.dumps({"vars": b.nv, "root": _node_json(b.root)})


def _node_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.bit}
    return {
        "var": node.var,
        "then": _node_json(node.high),
        "else": _node_json(node.low),
    }


def parse_json(text: str) -> Bdd:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BddTextError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"vars", "root"}:
        raise BddTextError('expected an object with keys "vars" and "root"')
    return validate(Bdd(_json_nat(obj["vars"]), _json_node(obj["root"])))


def _json_nat(value: object) -> int:
    if type(value) is not int or value < 0:
        raise BddTextError(f"expected a natural number, got {value!r}")
    return value


def _json_node(obj: object) -> Node:
    if not isinstance(obj, dict):
        raise BddTextError(f"expected a node object, got {obj!r}")
    if set(obj) == {"leaf"}:
        return Leaf(_json_nat(obj["leaf"]))
    if set(obj) == {"var", "then", "else"}:
        return Ite(_json_nat(obj["var"]), _json_node(obj["then"]), _json_node(obj["else"]))
    raise BddTextError(
        'node must have exactly the keys {"leaf"} or {"var", "then", "else"}'
    )


def render_bdd(b: Bdd, fmt: str = "sexpr") -> str:
    return render_json(b) if fmt == "json" else render_sexpr(b)


def parse_bdd(text: str) -> Bdd:
    """Parse either serialization; the first character picks the format."""
    s = text.lstrip()
    if s.startswith("{"):
        return parse_json(s)
    if s.startswith("("):
        return parse_sexpr(s)
    raise BddTextError("BDD text must start with '(' or '{'")


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natbdd",
        description="Treat naturals as truth tables: pair/unpair, build and "
        "evaluate BDDs, rank and unrank them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--hex", action="store_true", help="print numbers in hexadecimal"
    )
    common.add_argument(
        "--max-vars",
        type=int,
        default=DEFAULT_MAX_VARS,
        metavar="N",
        help=f"resource guard on variable counts (default {DEFAULT_MAX_VARS})",
    )
    common.add_argument(
        "--out", metavar="FILE", help="write output to FILE instead of stdout"
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("sexpr", "json"),
        default="sexpr",
        help="BDD output format (default sexpr)",
    )

    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument(
        "--in", dest="infile", metavar="FILE", help="read BDD text from FILE instead of stdin"
    )

    def variant(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--plain", dest="reduced", action="store_false", help="use plain (complete) trees"
        )
        group.add_argument(
            "--reduced", dest="reduced", action="store_true",
            help="use reduced trees (default)",
        )
        p.set_defaults(reduced=True)

    p = sub.add_parser("pair", parents=[common], help="combine two naturals into one")
    p.add_argument("--scheme", choices=sorted(SCHEMES), required=True)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("unpair", parents=[common], help="split a natural into two")
    p.add_argument("--scheme", choices=sorted(SCHEMES), required=True)
    p.add_argument("z")

    p = sub.add_parser("tt2bdd", parents=[common, fmt], help="build a BDD from a truth table")
    p.add_argument("--vars", required=True, metavar="N")
    p.add_argument("--tt", required=True, metavar="T")
    variant(p)

    p = sub.add_parser(
        "bdd2tt", parents=[common, infile], help="evaluate a BDD back to its truth table"
    )

    p = sub.add_parser("reduce", parents=[common, fmt, infile], help="reduce a BDD")

    p = sub.add_parser("rank", parents=[common, infile], help="rank a BDD onto the naturals")
    variant(p)

    p = sub.add_parser("unrank", parents=[common, fmt], help="unrank a natural to a BDD")
    p.add_argument("n")
    variant(p)

    p = sub.add_parser("enum", parents=[common, fmt], help="print a run of the BDD stream")
    p.add_argument("--from", dest="start", default="0", metavar="N")
    p.add_argument("--count", required=True, metavar="C")
    variant(p)

    p = sub.add_parser("shannon", parents=[common], help="split or fuse a table on its top variable")
    shannon_sub = p.add_subparsers(dest="mode", required=True, metavar="mode")
    p = shannon_sub.add_parser("split", parents=[common])
    p.add_argument("--vars", required=True, metavar="N")
    p.add_argument("x")
    p = shannon_sub.add_parser("fuse", parents=[common])
    p.add_argument("--vars", required=True, metavar="N")
    p.add_argument("hi")
    p.add_argument("lo")

    p = sub.add_parser("varbits", parents=[common], help="print a variable's truth-table column")
    p.add_argument("--vars", required=True, metavar="N")
    p.add_argument("--index", required=True, metavar="K")

    return parser


# ---------------------------------------------------------------- commands

def _read_input(args: argparse.Namespace, stdin: IO[str]) -> str:
    if args.infile is not None:
        with open(args.infile, encoding="utf-8") as handle:
            return handle.read()
    return stdin.read()


def _dispatch(args: argparse.Namespace, stdin: IO[str]) -> list[str]:
    cmd = args.command

    def nat(text: str) -> int:
        return parse_nat(text, args.max_vars)

    if cmd == "pair":
        pair_fn, _ = SCHEMES[args.scheme]
        z = pair_fn(nat(args.x), nat(args.y))
        return [format_nat(z, args.hex)]

    if cmd == "unpair":
        _, unpair_fn = SCHEMES[args.scheme]
        x, y = unpair_fn(nat(args.z))
        return [f"{format_nat(x, args.hex)} {format_nat(y, args.hex)}"]

    if cmd == "tt2bdd":
        build = reduced_bdd if args.reduced else plain_bdd
        b = build(nat(args.vars), nat(args.tt), args.max_vars)
        return [render_bdd(b, args.format)]

    if cmd == "bdd2tt":
        b = parse_bdd(_read_input(args, stdin))
        return [format_nat(ev(b, args.max_vars), args.hex)]

    if cmd == "reduce":
        b = parse_bdd(_read_input(args, stdin))
        return [render_bdd(reduce_bdd(b), args.format)]

    if cmd == "rank":
        b = parse_bdd(_read_input(args, stdin))
        n = bdd2nat(b, args.max_vars) if args.reduced else plain_bdd2nat(b)
        return [format_nat(n, args.hex)]

    if cmd == "unrank":
        unrank = nat2bdd if args.reduced else nat2plain_bdd
        return [render_bdd(unrank(nat(args.n), args.max_vars), args.format)]

    if cmd == "enum":
        kind = "reduced" if args.reduced else "plain"
        stream = enumerate_bdds(kind, nat(args.start), nat(args.count), args.max_vars)
        return [render_bdd(b, args.format) for b in stream]

    if cmd == "shannon":
        nv = nat(args.vars)
        if args.mode == "split":
            hi, lo = shannon_split(nv, nat(args.x), args.max_vars)
            return [f"{format_nat(hi, args.hex)} {format_nat(lo, args.hex)}"]
        fused = shannon_fuse(nv, nat(args.hi), nat(args.lo), args.max_vars)
        return [format_nat(fused, args.hex)]

    if cmd == "varbits":
        column = var_tt(nat(args.vars), nat(args.index), args.max_vars)
        return [format_nat(column, args.hex)]

    raise AssertionError(f"unhandled command {cmd!r}")


def run(
    argv: list[str] | None = None,
    *,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Run one command; returns the exit status without calling sys.exit.

    Usage errors are argparse's: it prints to sys.stderr and raises
    SystemExit(2).
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    args = build_parser().parse_args(argv)
    try:
        lines = _dispatch(args, stdin)
    except ValueError as exc:
        print(f"natbdd: error: {exc}", file=stderr)
        return 1
    text = "".join(line + "\n" for line in lines)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
