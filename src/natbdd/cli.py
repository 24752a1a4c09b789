"""Command-line front end with bit-exact text formats.

Every library operation is exposed as a subcommand, which prints one line
per result: a natural, two naturals separated by a space, or a tree.  BDDs
travel as single-line s-expressions, ``(bdd NV NODE)`` with ``(c BIT)``
leaves and ``(ite VAR THEN ELSE)`` nodes, or as JSON via ``--format json``;
input format is auto-detected from the first character.  Numbers are
decimal, with ``0x`` accepted on input; the commands that print numbers
take ``--hex``.

Exit status: 0 on success, 1 on domain errors (out-of-range values,
unparseable input), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from .bdd import (
    _BOTTOM_ITES, _BOTTOM_NV, LEAVES, Bdd, Ite, Leaf, Node, _leaf_error, _new_ite, _order_error, ev,
    plain_bdd, reduced_bdd,
)
from .bdd import reduce as reduce_bdd
from .pairing import SCHEMES
from .ranking import bdd2nat, enumerate_bdds, nat2bdd, nat2plain_bdd, plain_bdd2nat, to_bsum
from .truthtab import (
    DEFAULT_MAX_VARS, MAX_VARS_CEILING, check_var_count, shannon_fuse, shannon_split, var_tt,
)

if TYPE_CHECKING:
    from decimal import Decimal


class BddTextError(ValueError):
    """Malformed BDD text."""


# ---------------------------------------------------------------- numbers

_NAT_RE = re.compile(r"(?:0[xX][0-9a-fA-F]+|[0-9]+)\Z")

_LOG10_2 = math.log10(2)
# digits per built-in int()/str() call, under Python's 4300-digit cap (3.11+);
# longer decimals go a piece at a time and the interpreter's cap stays as is
_PIECE = 4096


def _int_pieces(s: str, powers: dict[int, int]) -> int:
    """``int(s)`` of a decimal of any length; recursion depth is log2 of it.
    A decimal of at most 2**(level+1) pieces, and more than 2**level, splits
    at 10 ** (_PIECE * 2**level), which ``powers`` holds once per level for
    one parse, so that no power outlives it."""
    if len(s) <= _PIECE:
        return int(s)
    level = ((len(s) - 1) // _PIECE).bit_length() - 1
    cut = len(s) - (_PIECE << level)
    power = powers.get(level) or powers.setdefault(level, 10 ** (_PIECE << level))
    return _int_pieces(s[:cut], powers) * power + _int_pieces(s[cut:], powers)


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
    return _int_pieces(s, {})


def format_nat(n: int, hexadecimal: bool = False) -> str:
    if hexadecimal:
        return hex(n)
    # n has at most this many digits, with one to spare against rounding
    if int(n.bit_length() * _LOG10_2) + 1 <= _PIECE:
        return str(n)
    return _decimal_text(n)


def _decimal_text(n: int) -> str:
    """``str(n)`` of a natural of any length, in subquadratic time.

    After CPython 3.12's ``_pylong.int_to_decimal_string``: the int is split
    in binary and recombined in the ``decimal`` module (libmpdec), whose
    multiplication is subquadratic; ``divmod`` by powers of ten is not.
    """
    import decimal  # here, so that only values past one piece pay its import

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # every step is exact, or raises
        return str(_to_decimal(n, n.bit_length(), {}, decimal.Decimal))


def _to_decimal(n: int, width: int, powers: dict[int, Decimal], dec: type[Decimal]) -> Decimal:
    """``dec(n)`` for ``n`` < 2**width: both binary halves converted, then
    joined by 2**half, which ``powers`` holds once per width."""
    if width <= 1024:  # a short int converts directly
        return dec(n)
    half = width >> 1
    hi = n >> half
    power = powers.get(half)
    if power is None:
        power = powers[half] = dec(2) ** half
    return _to_decimal(hi, width - half, powers, dec) * power + _to_decimal(n - (hi << half), half, powers, dec)


# ------------------------------------------------------------- BDD text

def _numeral(text: str) -> int:
    """An integer of BDD text.  Valid ones are small, as variable counts stop
    at MAX_VARS_CEILING; a long one is refused by its length, before
    Python's 4300-digit cap would stop ``int``."""
    if len(text) > _PIECE:  # with a JSON minus sign, if any
        raise BddTextError(
            f"numeral of {len(text.lstrip('-'))} digits in BDD text: too long for a variable or a bit")
    return int(text)


_NODE_TYPES = frozenset((Leaf, Ite))


@functools.cache
def _bottom_text(render) -> dict[int, str]:
    """The texts ``render`` writes for the nodes of :mod:`natbdd.bdd`'s bottom,
    by ``id(node)``, each from its children's, built on the renderer's first
    use.  The nodes live as long as that module, so ids name them."""
    text: dict[int, str] = {}
    for node in (*LEAVES, *_BOTTOM_ITES.values()):  # children first
        text[id(node)] = render(node, text)
    return text


@functools.cache
def _bottom_nodes() -> dict[str, Node]:
    """The bottom's nodes by s-expression text, for ``parse_sexpr``'s subtree tokens."""
    text = _bottom_text(_node_sexpr)
    return {text[id(node)]: node for node in (*LEAVES, *_BOTTOM_ITES.values())}


def _form(form: list) -> Node | Bdd:
    """Build ``(c BIT)``, ``(ite VAR THEN ELSE)`` or ``(bdd NV ROOT)`` from a
    parsed form ``[kind, *members]``, members already built; both text formats
    build here, and make ite nodes through :func:`natbdd.bdd._new_ite`, as the
    builders do, but for a node of the bottom, which is its object there, as in
    built trees.  Each form is checked as it is built, the header as one more:
    a leaf's bit is 0 or 1, an ite's children test natural variables below its
    own, and the root one below NV.  So every tree built is ordered, by
    transitivity, and at most NV deep; the parsers' last check is NV against
    the guard."""
    n = len(form)
    if n > 1 and type(form[1]) is int:
        kind, k = form[0], form[1]
        if n == 2 and kind == "c":
            if not 0 <= k <= 1:
                raise _leaf_error(k)
            return LEAVES[k]
        children = form[2:]  # an ite's two, or the root
        if ((n == 4 and kind == "ite" or n == 3 and kind == "bdd")
                and _NODE_TYPES.issuperset(map(type, children))):
            for child in children:
                if type(child) is Ite and not 0 <= child.var < k:
                    raise _order_error(child.var, k)
            if n == 3:
                return Bdd(k, form[2])
            return k < _BOTTOM_NV and _BOTTOM_ITES.get((k, id(form[2]), id(form[3]))) or _new_ite(form[1:])
    head = form[0] if n and type(form[0]) is str else "?"
    raise BddTextError(
        f"malformed ({head} ...) of {n} items: expected (c BIT), (ite VAR THEN ELSE) or (bdd NV ROOT)")


def render_sexpr(b: Bdd) -> str:
    return f"(bdd {b.nv} {_node_sexpr(b.root, _bottom_text(_node_sexpr))})"


def _node_sexpr(node: Node, bottom: dict[int, str]) -> str:
    if isinstance(node, Leaf):
        return f"(c {node.bit})"
    return bottom.get(id(node)) or f"(ite {node.var} {_node_sexpr(node.high, bottom)} {_node_sexpr(node.low, bottom)})"


_PLAIN_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
# the plain tokens, but a "(" after a space ending a member (so never first)
# takes the rest of a leaf or an ite on variables below 3, ites nested 3 deep,
# if written as render_sexpr does: any bottom subtree.  Compiled on first use.
_SUBTREE = r"(?:c [01]|ite [012] \(X\) \(X\))"
_TOKEN_PATTERN = (r"\((?:(?<=\S \()" + _SUBTREE.replace("X", _SUBTREE.replace("X", _SUBTREE.replace("X", "c [01]")))
                  + r"\))?|\)|[^\s()]+")


def parse_sexpr(text: str, max_vars: int = DEFAULT_MAX_VARS) -> Bdd:
    tokens = iter(re.findall(_TOKEN_PATTERN, text))
    if next(tokens, None) != "(":
        raise BddTextError("BDD text must start with '('")
    built = _sexpr_form(tokens, _bottom_nodes())
    extra = next(tokens, None)
    if extra is not None:
        raise BddTextError(f"trailing content after BDD: {_PLAIN_TOKEN_RE.match(extra)[0]!r}")
    if type(built) is not Bdd:
        raise BddTextError("expected (bdd NV ROOT) at the top")
    check_var_count(built.nv, max_vars)
    return built


def _sexpr_form(tokens: Iterator[str], bottom: dict[str, Node]) -> Node | Bdd:
    """The form whose ``(`` is the last token read; a subtree's token is its
    node in ``bottom``, or else is built from its plain tokens."""
    stack: list[list] = [[]]  # the forms still open, innermost last
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            built = _form(stack.pop())
            if not stack:
                return built
            stack[-1].append(built)
        elif tok.isascii() and tok.isdigit():
            stack[-1].append(_numeral(tok))
        elif tok[0] == "(":
            stack[-1].append(bottom.get(tok) or _sexpr_form(iter(_PLAIN_TOKEN_RE.findall(tok, 1)), bottom))
        else:
            stack[-1].append(tok)
    raise BddTextError("unexpected end of BDD text")


def render_json(b: Bdd) -> str:
    """The text ``json.dumps`` gives for the tree as nested dicts, written directly."""
    return f'{{"vars": {b.nv}, "root": {_node_json(b.root, _bottom_text(_node_json))}}}'


def _node_json(node: Node, bottom: dict[int, str]) -> str:
    if isinstance(node, Leaf):
        return f'{{"leaf": {node.bit}}}'
    return bottom.get(id(node)) or (
        f'{{"var": {node.var}, "then": {_node_json(node.high, bottom)}, "else": {_node_json(node.low, bottom)}}}')


# JSON key set -> the form it stands for: its kind, then the keys in member order
_JSON_FORMS = {
    frozenset(("leaf",)): ("c", "leaf"),
    frozenset(("var", "then", "else")): ("ite", "var", "then", "else"),
    frozenset(("vars", "root")): ("bdd", "vars", "root"),
}


def _json_object(obj: dict) -> Node | Bdd:
    keys = _JSON_FORMS.get(frozenset(obj))
    if keys is None:
        raise BddTextError(f"JSON object keys {sorted(obj)} match no BDD form")
    return _form([keys[0], *map(obj.__getitem__, keys[1:])])


def parse_json(text: str, max_vars: int = DEFAULT_MAX_VARS) -> Bdd:
    try:
        b = json.loads(text, object_hook=_json_object, parse_int=_numeral)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting: RecursionError
        raise BddTextError(f"invalid JSON: {exc}") from None
    if type(b) is not Bdd:
        raise BddTextError('expected an object with keys "vars" and "root"')
    check_var_count(b.nv, max_vars)
    return b


def render_bdd(b: Bdd, fmt: str = "sexpr") -> str:
    return render_json(b) if fmt == "json" else render_sexpr(b)


def parse_bdd(text: str, max_vars: int = DEFAULT_MAX_VARS) -> Bdd:
    """Parse either serialization; the first character picks the format."""
    s = text.lstrip()
    if s.startswith("{"):
        return parse_json(s, max_vars)
    if s.startswith("("):
        return parse_sexpr(s, max_vars)
    raise BddTextError("BDD text must start with '(' or '{'")


# ------------------------------------------------------------------ parser

def _max_vars(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) <= MAX_VARS_CEILING):
        raise argparse.ArgumentTypeError(
            f"expected a natural number up to {MAX_VARS_CEILING}, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Refuses its own leftover arguments.  ``add_subparsers`` makes every
    subcommand's parser of this class too, so an option a subcommand does not
    take is reported with that subcommand's usage line, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The root parser and one parser per command path, each runnable one
    declared by one call of a helper, ``command``.  Every subcommand takes
    ``--max-vars`` and ``--out``; the commands that print numbers (``pair``,
    ``unpair``, ``bdd2tt``, ``rank``, ``shannon split|fuse``, ``varbits``) take
    ``--hex``, the tree printers (``tt2bdd``, ``reduce``, ``unrank``, ``enum``)
    ``--format``, the tree readers (``bdd2tt``, ``reduce``, ``rank``) ``--in``,
    the commands that build or rank trees (``tt2bdd``, ``rank``, ``unrank``,
    ``enum``) ``--plain | --reduced``, ``pair`` and ``unpair`` a required
    ``--scheme``, and the commands on tables (``tt2bdd``, ``shannon
    split|fuse``, ``varbits``) a required ``--vars``.  The helper also declares
    each command's positionals; only ``--tt``, ``--from``, ``--count`` and
    ``--index`` are added command by command."""
    parser = _Parser(
        prog="natbdd",
        description="Treat naturals as truth tables: pair/unpair, build and "
        "evaluate BDDs, rank and unrank them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(subs, name: str, *names: str, **kwargs) -> argparse.ArgumentParser:
        """``name``'s parser under ``subs``: ``--max-vars`` and ``--out``, then the
        options it names out of ``--hex``, ``--format``, ``--in``, ``--plain`` (for
        ``--plain | --reduced``), ``--scheme`` and ``--vars``, always in that
        order, then each name not starting with ``-`` as a positional, in the
        order given."""
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--max-vars", type=_max_vars, default=DEFAULT_MAX_VARS, metavar="N",
                       help=f"resource guard on variable counts (default {DEFAULT_MAX_VARS}, "
                       f"at most {MAX_VARS_CEILING})")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        if "--hex" in names:
            p.add_argument("--hex", action="store_true", help="print numbers in hexadecimal")
        if "--format" in names:
            p.add_argument("--format", choices=("sexpr", "json"), default="sexpr",
                           help="BDD output format (default sexpr)")
        if "--in" in names:
            p.add_argument("--in", dest="infile", metavar="FILE", help="read BDD text from FILE instead of stdin")
        if "--plain" in names:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--plain", dest="reduced", action="store_false", help="use plain (complete) trees")
            group.add_argument("--reduced", dest="reduced", action="store_true", help="use reduced trees (default)")
            p.set_defaults(reduced=True)
        if "--scheme" in names:
            p.add_argument("--scheme", choices=sorted(SCHEMES), required=True)
        if "--vars" in names:
            p.add_argument("--vars", required=True, metavar="N")
        for positional in names:
            if not positional.startswith("-"):
                p.add_argument(positional)
        return p

    command(sub, "pair", "--hex", "--scheme", "x", "y", help="combine two naturals into one")
    command(sub, "unpair", "--hex", "--scheme", "z", help="split a natural into two")
    p = command(sub, "tt2bdd", "--format", "--plain", "--vars", help="build a BDD from a truth table")
    p.add_argument("--tt", required=True, metavar="T")
    command(sub, "bdd2tt", "--hex", "--in", help="evaluate a BDD back to its truth table")
    command(sub, "reduce", "--format", "--in", help="reduce a BDD")
    command(sub, "rank", "--hex", "--in", "--plain", help="rank a BDD onto the naturals")
    command(sub, "unrank", "--format", "--plain", "n", help="unrank a natural to a BDD")
    p = command(sub, "enum", "--format", "--plain", help="print a run of the BDD stream")
    p.add_argument("--from", dest="start", default="0", metavar="N")
    p.add_argument("--count", required=True, metavar="C")

    p = sub.add_parser("shannon", help="split or fuse a table on variable 0")
    shannon_sub = p.add_subparsers(dest="mode", required=True, metavar="mode")
    # no help= for the modes: the key alone would list them in `shannon --help`
    command(shannon_sub, "split", "--hex", "--vars", "x")
    command(shannon_sub, "fuse", "--hex", "--vars", "hi", "lo")

    p = command(sub, "varbits", "--hex", "--vars", help="print a variable's truth-table column")
    p.add_argument("--index", required=True, metavar="K")

    return parser


# ---------------------------------------------------------------- commands

def _dispatch(args: argparse.Namespace, stdin: IO[str]) -> Iterable[int | tuple[int, int] | Bdd]:
    """The results of one command, as the library returns them: naturals, pairs
    of naturals or trees; every check runs before the first."""
    cmd = args.command
    nat = functools.partial(parse_nat, max_vars=args.max_vars)

    if cmd == "pair":
        pair_fn, _ = SCHEMES[args.scheme]
        x, y = nat(args.x), nat(args.y)
        # min: the bound is never built wider than x, whatever --max-vars says
        if args.scheme == "pepis" and x > 1 << min(args.max_vars, x.bit_length()):
            raise ValueError(f"pepis pairing of an x above 2**{args.max_vars} exceeds "
                             f"the 2**{args.max_vars}-bit budget of --max-vars {args.max_vars}")
        return [pair_fn(x, y)]

    if cmd == "unpair":
        _, unpair_fn = SCHEMES[args.scheme]
        return [unpair_fn(nat(args.z))]

    if cmd == "tt2bdd":
        build = reduced_bdd if args.reduced else plain_bdd
        return [build(nat(args.vars), nat(args.tt), args.max_vars)]

    if cmd in ("bdd2tt", "reduce", "rank"):
        if args.infile is None:
            text = stdin.read()
        else:
            with open(args.infile, encoding="utf-8") as handle:
                text = handle.read()
        b = parse_bdd(text, args.max_vars)
        if cmd == "bdd2tt":
            return [ev(b, args.max_vars)]
        if cmd == "reduce":
            return [reduce_bdd(b)]
        rank = bdd2nat if args.reduced else plain_bdd2nat
        return [rank(b, args.max_vars)]

    if cmd == "unrank":
        unrank = nat2bdd if args.reduced else nat2plain_bdd
        return [unrank(nat(args.n), args.max_vars)]

    if cmd == "enum":
        kind = "reduced" if args.reduced else "plain"
        start, count = nat(args.start), nat(args.count)
        if count:  # the last tree has the most variables
            check_var_count(to_bsum(start + count - 1).k, args.max_vars)
        return enumerate_bdds(kind, start, count, args.max_vars)

    if cmd == "shannon":
        nv = nat(args.vars)
        if args.mode == "split":
            return [shannon_split(nv, nat(args.x), args.max_vars)]
        return [shannon_fuse(nv, nat(args.hi), nat(args.lo), args.max_vars)]

    if cmd == "varbits":
        return [var_tt(nat(args.vars), nat(args.index), args.max_vars)]

    raise AssertionError(f"unhandled command {cmd!r}")


def _line(result: int | tuple[int, int] | Bdd, args: argparse.Namespace) -> str:
    """One result's output line: a tree in ``--format``, and a natural, or each
    of a pair's two with a space between, in hexadecimal under ``--hex``."""
    if isinstance(result, Bdd):  # before the pair's check: a Bdd is a tuple too
        return render_bdd(result, args.format)
    if isinstance(result, tuple):
        return f"{format_nat(result[0], args.hex)} {format_nat(result[1], args.hex)}"
    return format_nat(result, args.hex)


def run(
    argv: list[str] | None = None,
    *,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Run one command; returns the exit status without calling sys.exit.

    Usage errors are argparse's: it prints to sys.stderr and raises
    SystemExit(2).  A closed stdout raises BrokenPipeError.  A
    ``ValueError`` or ``OSError``, or running out of memory, is one line on
    ``stderr`` and exit status 1.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    args = build_parser().parse_args(argv)
    try:
        # each line made as it is written, so enum streams
        lines = (_line(result, args) + "\n" for result in _dispatch(args, stdin))
        if args.out is None:
            stdout.writelines(lines)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        print(f"natbdd: error: {exc}", file=stderr)
        return 1
    except MemoryError:  # the last resort, for an input no guard bounds before it is read whole
        print("natbdd: error: out of memory", file=stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull, as Python's
        # SIGPIPE note advises, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
