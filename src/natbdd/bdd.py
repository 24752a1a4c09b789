"""Binary decision diagrams as ordered binary trees.

A ``Bdd`` is a variable count plus a tree of ``Ite`` nodes over ``Leaf(0)``
and ``Leaf(1)``.  Variable indices strictly decrease from root to leaf.
Reduction trims ite nodes whose branches are structurally equal.  Nodes are
immutable NamedTuples, equal to plain tuples of the same fields.  The two
leaves are shared constants, ``LEAVES``.  Trees from :func:`plain_bdd` and
:func:`reduced_bdd` also share subtrees, as an ROBDD's unique table does:
equal subtrees are one object.  Its bottom, every complete and reduced tree
on at most 3 variables, is built once at import and shared by every call.
Above it the builders keep the table in one layout, ``memo[v]`` mapping a
2**v-bit table to its node, in bit-reversed row order but for reduced tables
above 16 variables, in one ``defaultdict(dict)`` per run of consecutive
tables, :func:`_run`, which carries its table in that order from tree to
tree, or per :func:`reduced_bdd` call: level v exists once a node reads or
fills it.  A node looks up its children in ``memo[v - 1]`` and calls only
for a table that level lacks, as a run does for each root above 4 variables,
reduced up to 16; no run keeps a root.  Each block of
:func:`natbdd.ranking.enumerate_bdds` is a run, and so is :func:`plain_bdd`.
:func:`reduce` keeps the sharing of its input.  Trees parsed from text share
the bottom too: the text formats of :mod:`natbdd.cli` take each bottom node
from it, and read and write a bottom subtree's text whole.  Sharing never
shows in output or equality.  The text parsers check each node as they build
it; :func:`ev` and :func:`plain_inverse_bdd` check any tree alike, with the
parsers' messages: the variable count against the ``max_nv`` guard, and each
ite variable below its parent's, the root's below ``nv``.  The fold also
refuses any tree that is not complete, and any leaf bit but 0 and 1.

The encoding and its inverses:

* :func:`plain_bdd` unfolds a truth table into the complete tree that
  recursive unpairing with the bit-interleaving bijection gives, one node
  per distinct subtree;
* :func:`reduced_bdd` builds the reduced tree top-down, skipping levels
  whose halves are equal and stopping at constant tables: one node per
  distinct sub-table whose halves differ.  It first drops the low variables
  the table ignores, builds on the rest, and raises each node's variable by
  the number dropped.  Above 16 variables it splits by the same unpairing;
  at 16 or fewer it reverses a table's rows once and splits as
  :func:`plain_bdd` does, and a constant half ends the descent;
* :func:`plain_inverse_bdd` folds a complete tree back by recursive
  pairing, the paper's structural fold, and refuses any other tree.  It
  runs as ``ev`` does, in bit-reversed row order, where pairing the two
  folds under a node testing variable v is the concatenation
  ``X | Y << 2**v``, and one bit reversal of the rows at the root gives
  the fold.  It never pairs;
* :func:`ev` evaluates a tree as a boolean function: each node's table at
  its own width of 2**(var+1) bits, rows in bit-reversed order so that a
  node's table is its Shannon expansion as a concatenation,
  ``H | L << 2**var``, with one bit reversal of the rows at the root.  It
  handles O(nv * 2**nv) bits, whatever the tree's size, and never pairs.

:func:`reduce`, :func:`plain_inverse_bdd` and :func:`ev` each handle each
distinct node object once per call, :func:`reduce` and :func:`ev` a bottom
node's by lookup after its checks.  As a BDD package answers such a query
at the parent, from its unique table, a node on variable 4 computes in its
own frame each child on variable 3 whose two children are bottom nodes
that pass the child's own checks, except in :func:`ev` with ``reduced``,
and :func:`plain_bdd` builds its children on 3 there too.  Any other child
is walked by a call, so results, messages and walk order stay.
One table gives a bottom node's table t, the mask of the variables it tests
and its reduced node.  As reduced ordered BDDs are canonical, the node is
complete just when it is the complete bottom tree of t, and reduced just
when it is its reduced node, which is what :func:`reduce` makes of it.
Each walk takes a fresh memo per call, freed when it returns, so this
module keeps no memo across calls: what a walk computes depends only on
its tree; the one table it keeps across calls, the stream's row carries
``_FLIPS``, depends on its keys only.  A streamed tree is ranked with no
walk at all: it carries its own rank (:func:`natbdd.ranking.enumerate_bdds`).

For every plain tree the two inverses agree with the original table, and
``ev`` also recovers the table from the reduced tree.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import chain, product
from typing import Iterator, NamedTuple

from .pairing import bitmerge_unpair
from .truthtab import _CACHED_SWAP_NV, DEFAULT_MAX_VARS, check_table, check_var_count, reverse_rows, size_text


class Leaf(NamedTuple):
    bit: int


class Ite(NamedTuple):
    var: int
    high: "Node"  # taken when the variable is 1
    low: "Node"   # taken when the variable is 0


Node = Leaf | Ite
LEAVES = (Leaf(0), Leaf(1))  # the leaves of every tree the library returns


class Bdd(NamedTuple):
    nv: int
    root: Node


# Ite from a (var, high, low) tuple without NamedTuple's Python-level __new__
_new_ite = partial(tuple.__new__, Ite)

# The bottom (module docstring): _PLAIN_BOTTOM[v] and _REDUCED_BOTTOM[v] by
# bit-reversed 2**v-bit table, as _plain_node and _reduced_split split.  Its nodes
# live as long as the module, so their ids name them: _BOTTOM_ITES, the unique
# table every bottom ite is built through, maps (var, id(high), id(low)) to the
# ite, children first; _BOTTOM_TABLES maps each ite to its table t in ev's order,
# the mask of the variables it tests (bit k for variable k) and its reduced node,
# _REDUCED_BOTTOM[v + 1][t] for a node testing v, which is complete if it is
# _PLAIN_BOTTOM[v + 1][t].
_BOTTOM_NV = 3


def _build_bottom():
    plain, reduced = [LEAVES], [LEAVES]
    ites: dict[tuple[int, int, int], Ite] = {}

    def ite(var: int, high: Node, low: Node) -> Ite:
        return ites.setdefault((var, id(high), id(low)), _new_ite((var, high, low)))

    # tables: a node's table in ev's order, a mask of the variables it tests, its reduced node
    tables = {id(leaf): (leaf.bit, 0, leaf) for leaf in LEAVES}
    for v in range(1, _BOTTOM_NV + 1):
        # pair t of the product is table t = hi | lo << 2**(v-1), split as in _plain_node,
        # and reduced as in _reduce_node: a reduced node that is complete is found in ites
        ps = [ite(v - 1, high, low) for low, high in product(plain[-1], repeat=2)]
        rs = [high if high is low else ite(v - 1, high, low) for low, high in product(reduced[-1], repeat=2)]
        for t, node in chain(enumerate(ps), enumerate(rs)):
            if id(node) not in tables:  # each node once: a reduced node may be complete, or below v
                tables[id(node)] = (t, 1 << (v - 1) | tables[id(node.high)][1] | tables[id(node.low)][1], rs[t])
        plain.append(tuple(ps))
        reduced.append(tuple(rs))
    return tuple(plain), tuple(reduced), ites, {i: entry for i, entry in tables.items() if entry[1]}


_PLAIN_BOTTOM, _REDUCED_BOTTOM, _BOTTOM_ITES, _BOTTOM_TABLES = _build_bottom()
# _ONES[v]: the all-ones table on v variables, kept up to 16 as reverse_rows keeps masks (16 KiB)
_ONES = tuple((1 << (1 << v)) - 1 for v in range(_CACHED_SWAP_NV + 1))
# _FLIPS[k][m]: rows 0 .. m-1 of a k-variable table in bit-reversed row order, the stream's carries,
# kept by _run as reverse_rows keeps its masks
_FLIPS: tuple[dict[int, int], ...] = tuple({} for _ in range(_CACHED_SWAP_NV + 1))


def plain_bdd(nv: int, tt: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """Unfold truth table ``tt`` into the complete depth-``nv`` tree.

    The tree is the one recursive unpairing gives: the path to row p's leaf
    reads p's bits LSB first, 0 taking the high branch, and variable v reads
    bit nv-1-v.  It is built as :func:`ev` runs backwards: the rows are put
    in bit-reversed order once, and then a node testing variable v splits
    its 2**(v+1)-bit table into the halves of ``H | L << 2**v``.  A
    0-variable table is a bare leaf.  Equal subtrees are one object, as in a
    unique table: one node per distinct sub-table of each level.
    """
    check_table(nv, tt, max_nv, "truth table")
    return Bdd(nv, next(_run("plain", nv, tt, max_nv)))


# memo: the builders' layout (module docstring), tables in bit-reversed row order; each child is
# looked up in memo[v - 1], and built by a call and kept there only if missing
def _plain_node(v: int, t: int, memo: dict[int, dict[int, Node]]) -> Node:
    if v <= _BOTTOM_NV:
        return _PLAIN_BOTTOM[v][t]
    w = 1 << (v - 1)
    hi, lo = t & ((1 << w) - 1), t >> w
    if v > _BOTTOM_NV + 2:
        below = memo[v - 1]
        high = below.get(hi) or below.setdefault(hi, _plain_node(v - 1, hi, memo))
        low = below.get(lo) or below.setdefault(lo, _plain_node(v - 1, lo, memo))
    elif v == _BOTTOM_NV + 2:  # its children on variable 3 here, through memo[4], over 8-bit bottom tables
        below, bottom = memo[v - 1], _PLAIN_BOTTOM[v - 2]
        high = below.get(hi) or below.setdefault(hi, _new_ite((v - 2, bottom[hi & 255], bottom[hi >> 8])))
        low = below.get(lo) or below.setdefault(lo, _new_ite((v - 2, bottom[lo & 255], bottom[lo >> 8])))
    else:  # a root on 4 variables: its children are the bottom's
        high, low = _PLAIN_BOTTOM[v - 1][hi], _PLAIN_BOTTOM[v - 1][lo]
    return _new_ite((v - 1, high, low))


def reduce(b: Bdd) -> Bdd:
    """Trim, bottom-up, every ite node whose branches reduce to equal trees.

    Each distinct node object is reduced once, so a shared input gives a
    shared result: on a :func:`plain_bdd` tree, equal subtrees of the
    result are one object too.
    """
    return Bdd(b.nv, _reduce_node(b.root, {}))


# memo: id(node) -> its reduced tree, valid while the root keeps every node
# alive; a result depends only on the subtree, whatever its parents; a node on
# variable 4 reduces in its own frame, through the memo, each child on 3 whose
# children are bottom nodes, reading their reduced nodes from the bottom's table
def _reduce_node(node: Node, memo: dict[int, Node]) -> Node:
    if isinstance(node, Leaf):
        return node
    v, high, low = node
    i = id(node)
    if v < _BOTTOM_NV and (bottom := _BOTTOM_TABLES.get(i)):
        return bottom[2]
    done = memo.get(i)
    if done is None:
        if v != _BOTTOM_NV + 1:
            rh, rl = _reduce_node(high, memo), _reduce_node(low, memo)
        else:  # equal reduced bottom nodes are one object
            if (isinstance(high, Ite) and high.var == _BOTTOM_NV and (hh := _BOTTOM_TABLES.get(id(high.high)))
                    and (hl := _BOTTOM_TABLES.get(id(high.low)))):
                if (rh := memo.get(j := id(high))) is None:
                    rh = memo[j] = hh[2] if hh[2] is hl[2] else (
                        high if hh[2] is high.high and hl[2] is high.low else _new_ite((_BOTTOM_NV, hh[2], hl[2])))
            else:
                rh = _reduce_node(high, memo)
            if (isinstance(low, Ite) and low.var == _BOTTOM_NV and (lh := _BOTTOM_TABLES.get(id(low.high)))
                    and (ll := _BOTTOM_TABLES.get(id(low.low)))):
                if (rl := memo.get(j := id(low))) is None:
                    rl = memo[j] = lh[2] if lh[2] is ll[2] else (
                        low if lh[2] is low.high and ll[2] is low.low else _new_ite((_BOTTOM_NV, lh[2], ll[2])))
            else:
                rl = _reduce_node(low, memo)
        done = memo[i] = rh if rh == rl else node if rh is high and rl is low else _new_ite((v, rh, rl))
    return done


def reduced_bdd(nv: int, tt: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """The reduced tree of truth table ``tt`` on ``nv`` variables.

    Equal to ``reduce(plain_bdd(nv, tt, max_nv))`` but built top-down: a
    constant table is a leaf at once, a level whose two halves are equal
    tables adds no node, and a constant half ends the descent there.  One
    node, shared by all its parents, is made per distinct sub-table whose
    halves differ (a bead), not per tree position, and kept in ``memo[v]``
    by its 2**v-bit table, as :func:`plain_bdd` keeps its sub-tables.  A
    table that is not constant first drops the low variables 0..o-1 it
    ignores, each while its two contiguous halves are equal (a shift and a
    compare, no mask), and the tree of the rest is lifted by o, with each
    node that lands below variable 3 taken from the bottom.  Above 16
    variables a table is split by :func:`natbdd.pairing.bitmerge_unpair`,
    in natural row order, so no table or mask wider than it is built, and
    only one whose top row is 1 is popcounted.  At or below 16, where
    :func:`natbdd.truthtab.reverse_rows` keeps its masks and this module its
    all-ones tables, which mask the splits, a table is compared with those,
    and one that is not constant has its rows reversed once and is split
    into contiguous halves, as in :func:`plain_bdd`.
    """
    check_table(nv, tt, max_nv, "truth table")
    if not tt or (tt == _ONES[nv] if nv <= _CACHED_SWAP_NV
                  else tt.bit_length() == 1 << nv and tt.bit_count() == 1 << nv):
        return Bdd(nv, LEAVES[tt & 1])
    o = 0  # the table ignores variable o when its two contiguous halves are equal
    while (hi := tt >> (w := 1 << (nv - o - 1))) == tt ^ hi << w:
        tt, o = hi, o + 1
    return Bdd(nv, _lifted(_reduced_node(nv - o, tt, defaultdict(dict)), o, {}))


# node with each variable raised by o, memo as in _reduce_node; a node below 3 is the bottom's, as in cli._form
def _lifted(node: Node, o: int, memo: dict[int, Node]) -> Node:
    if not o or isinstance(node, Leaf):
        return node
    done = memo.get(i := id(node))
    if done is None:
        v, high, low = node
        high, low, v = _lifted(high, o, memo), _lifted(low, o, memo), v + o
        done = memo[i] = _BOTTOM_ITES[v, id(high), id(low)] if v < _BOTTOM_NV else _new_ite((v, high, low))
    return done


# memo: the builders' layout (module docstring), filled only at beads, so skipped
# levels are never hashed; equal halves, and only they, give equal reduced trees;
# tables in natural row order above _CACHED_SWAP_NV variables, popcounted if the top row is 1
def _reduced_node(v: int, t: int, memo: dict[int, dict[int, Node]]) -> Node:
    while v > _CACHED_SWAP_NV:
        if not t or t.bit_length() == 1 << v and t.bit_count() == 1 << v:
            return LEAVES[t & 1]
        hi, lo = bitmerge_unpair(t)
        if hi != lo:
            node = (level := memo[v]).get(t)
            if node is None:
                high, low = _reduced_node(v - 1, hi, memo), _reduced_node(v - 1, lo, memo)
                node = level[t] = _new_ite((v - 1, high, low))
            return node
        v, t = v - 1, hi
    if t and t != _ONES[v]:
        return _reduced_split(v, reverse_rows(t, v, range(v // 2)), memo)
    return LEAVES[t & 1]


# _reduced_node on a table in bit-reversed row order, split as in _plain_node; a bead looks up its children
# in memo[v - 1] and calls for the rest, which look themselves up
def _reduced_split(v: int, t: int, memo: dict[int, dict[int, Node]]) -> Node:
    while v > _BOTTOM_NV:
        hi, lo = t & _ONES[v - 1], t >> (1 << (v - 1))
        if hi != lo:
            node = (level := memo[v]).get(t)
            if node is None:
                if v == _BOTTOM_NV + 1:
                    high, low = _REDUCED_BOTTOM[v - 1][hi], _REDUCED_BOTTOM[v - 1][lo]
                else:
                    below = memo[v - 1]
                    high = below.get(hi) or _reduced_split(v - 1, hi, memo)
                    low = below.get(lo) or _reduced_split(v - 1, lo, memo)
                node = level[t] = _new_ite((v - 1, high, low))
            return node
        v, t = v - 1, hi
        if not t or t == _ONES[v]:  # a constant half ends the descent
            return LEAVES[t & 1]
    return _REDUCED_BOTTOM[v][t]


# the roots of the kind trees of tables r, r+1, ... on k variables, for the caller to bound: one memo, in the
# builders' layout, made once the guard passes; table r carried in bit-reversed row order, reversed once and
# then XORed from r - 1 to r with the reversal of the rows 0 .. m-1 the two differ in, a carry made on first
# use and kept for m up to 16, in _FLIPS[k] or above 16 variables by the run, and a root above 4 variables
# made here from memo[k - 1], never memo[k], but for reduced tables above 16 variables, kept in natural order;
# every fourth tree, a level over eight trees' worth of tables cleared, so that it never holds over twelve
def _run(kind: str, k: int, r: int, max_nv: int) -> Iterator[Node]:
    check_var_count(k, max_nv)
    memo: defaultdict[int, dict[int, Node]] = defaultdict(dict)
    build = _plain_node if kind == "plain" else _reduced_split if k <= _CACHED_SWAP_NV else _reduced_node
    t = r if build is _reduced_node else reverse_rows(r, k, range(k // 2))
    flips = _FLIPS[k] if k <= _CACHED_SWAP_NV else {}
    below = memo[k - 1] if k > _BOTTOM_NV + 1 and build is not _reduced_node else None
    ones = (1 << (w := 1 << k >> 1)) - 1 if below is not None else 0
    while True:
        if below is None:
            yield build(k, t, memo)
        elif kind == "plain":
            yield _new_ite((k - 1, below.get(hi := t & ones) or below.setdefault(hi, build(k - 1, hi, memo)),
                            below.get(lo := t >> w) or below.setdefault(lo, build(k - 1, lo, memo))))
        else:  # a reduced root: the tree of its high half, a leaf if constant, is the root if the halves are equal
            high = below.get(hi) or build(k - 1, hi, memo) if (hi := t & ones) and hi != ones else LEAVES[hi & 1]
            yield high if hi == (lo := t >> w) else _new_ite((k - 1, high, below.get(lo) or build(k - 1, lo, memo)))
        if not r & 3:
            for v, level in memo.items():
                if len(level) > 8 << (k - v):
                    level.clear()
        r += 1
        if build is _reduced_node:
            t = r
        else:  # r - 1 and r differ in rows 0 .. m-1
            m = (r & -r).bit_length()
            if (flip := flips.get(m)) is None:
                flip = reverse_rows((1 << m) - 1, k, range(k // 2))
                if m <= _CACHED_SWAP_NV:  # kept on first use
                    flips[m] = flip
            t ^= flip


def plain_inverse_bdd(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Fold a complete tree back into its table by recursive bit interleaving.

    Exact inverse of :func:`plain_bdd`: the paper's structural fold, which
    is defined on complete trees only, so any other tree is refused as the
    walk meets it.  Each distinct node object is folded once per call, in
    bit-reversed row order at its own width of 2**(var+1) bits, as the
    module docstring says.  What is checked, in this order: the variable
    count against the ``max_nv`` guard, with :func:`ev`'s message; then
    each node as the walk from the root meets it, under each of its
    parents, a node already folded too.  An ite's variable lies in [0,
    parent's), with :func:`ev`'s message, and is the one just below its
    parent's, the root's nv - 1; a leaf's bit is 0 or 1, with the parsers'
    message, and the leaf lies below variable 0.  So nothing wider than
    2**max_nv bits is built.
    """
    nv = check_var_count(b.nv, max_nv)
    return reverse_rows(_inverse_node(b.root, nv, {}), nv, range(nv // 2))


# memo as in _reduce_node: id(node) -> its fold in bit-reversed row order at
# 2**(var+1) bits; checked before the lookup, a node is checked under each parent;
# a node on variable 4 folds in its own frame each child on 3 whose two children
# are complete bottom nodes, t_high | t_low << 8, and calls for any other child
def _inverse_node(node: Node, bound: int, memo: dict[int, int]) -> int:
    if isinstance(node, Leaf):
        if not 0 <= node.bit <= 1:
            raise _leaf_error(node.bit)
        if bound:
            raise ValueError(_INCOMPLETE)
        return node.bit
    v, high, low = node
    if v != bound - 1:
        raise _order_error(v, bound) if not 0 <= v < bound else ValueError(_INCOMPLETE)
    done = memo.get(i := id(node))
    if done is None:  # in reversed order, pairing two folds of 2**v bits is concatenation
        if v != _BOTTOM_NV + 1:
            high, low = _inverse_node(high, v, memo), _inverse_node(low, v, memo)
        else:
            complete = _PLAIN_BOTTOM[_BOTTOM_NV]
            high = (hh[0] | hl[0] << 8 if isinstance(high, Ite) and high.var == _BOTTOM_NV
                    and (hh := _BOTTOM_TABLES.get(id(high.high))) and complete[hh[0]] is high.high
                    and (hl := _BOTTOM_TABLES.get(id(high.low))) and complete[hl[0]] is high.low
                    else _inverse_node(high, v, memo))
            low = (lh[0] | ll[0] << 8 if isinstance(low, Ite) and low.var == _BOTTOM_NV
                   and (lh := _BOTTOM_TABLES.get(id(low.high))) and complete[lh[0]] is low.high
                   and (ll := _BOTTOM_TABLES.get(id(low.low))) and complete[ll[0]] is low.low
                   else _inverse_node(low, v, memo))
        done = memo[i] = high | low << (1 << v)
    return done


def ev(b: Bdd, max_nv: int = DEFAULT_MAX_VARS, reduced: bool = False) -> int:
    """Boolean evaluation: the truth table a tree denotes.

    Each distinct node object is evaluated once per call, at its own
    width: a node testing variable v gets a table of 2**(v+1) bits whose
    row bit k means "variable k is 0".  In that bit-reversed order variable
    v is the top row bit, so the node's table is its Shannon expansion
    written as a concatenation, ``H | L << 2**v``.  A child testing a lower
    variable is widened by repeating its table; a leaf is all zeros or all
    ones.  One bit reversal of the root's 2**nv-bit table
    (:func:`natbdd.truthtab.reverse_rows`, leaving out the swaps of
    variable pairs the tree never tests, which the walk gathers as one int
    mask) gives this module's row order.

    At most 2**(nv-1-v) nodes test variable v, one per path from the root,
    so each level's tables hold at most 2**nv bits and an evaluation
    handles O(nv * 2**nv) bits, not a 2**nv-bit table per position.
    Recovers the original table from plain and reduced trees alike.
    Every ite variable must lie below its parent's, and the root's below
    ``nv``, or ``ValueError`` is raised with the message the text parsers
    give; leaf bits are not checked.  With ``reduced``, the reduced rank's
    check, it also refuses any leaf bit but 0 and 1, with the parsers'
    message, and any node whose two branches have equal tables: one
    comparison per distinct node, so only reduced trees pass.  Each node is
    then checked in its own call, none in its parent's frame.
    """
    nv = check_var_count(b.nv, max_nv)
    tested = [0]
    table = _ev_node(b.root, nv, {}, tested, reduced)
    m = tested[0]
    return reverse_rows(table, nv, [k for k in range(nv // 2) if (m >> k | m >> (nv - 1 - k)) & 1])


# memo: id(node) -> its table at its own width, as in _reduce_node, and tested[0]
# the mask of the variables tested; a module-level walk, as a recursive closure
# would leave a reference cycle, holding the memo, for the collector to free
# later; without reduced, a node on 4 evaluates in frame each child on 3 over two
# bottom nodes on 2, as the fold does; with reduced, each child is walked by a call
def _ev_node(node: Node, bound: int, memo: dict[int, int], tested: list[int], reduced: bool) -> int:
    """``node``'s table widened to 2**bound bits, in bit-reversed row order."""
    if isinstance(node, Leaf):
        if reduced and not 0 <= node.bit <= 1:
            raise _leaf_error(node.bit)
        return (1 << (1 << bound)) - 1 if node.bit else 0
    v, high, low = node
    if not 0 <= v < bound:
        raise _order_error(v, bound)
    i = id(node)
    if v < _BOTTOM_NV and (bottom := _BOTTOM_TABLES.get(i)):
        table, mask, reduction = bottom
        if reduced and reduction is not node:
            raise ValueError(_NOT_REDUCED)
        tested[0] |= mask
    elif (table := memo.get(i)) is None:
        if v != _BOTTOM_NV + 1 or reduced:
            high, low = _ev_node(high, v, memo, tested, reduced), _ev_node(low, v, memo, tested, reduced)
        else:  # a bottom node whose mask has bit 2 set is on variable 2
            if (isinstance(high, Ite) and high.var == _BOTTOM_NV and (hh := _BOTTOM_TABLES.get(id(high.high)))
                    and (hl := _BOTTOM_TABLES.get(id(high.low))) and hh[1] & hl[1] & 4):
                tested[0] |= hh[1] | hl[1] | 8
                high = hh[0] | hl[0] << 8
            else:
                high = _ev_node(high, v, memo, tested, reduced)
            if (isinstance(low, Ite) and low.var == _BOTTOM_NV and (lh := _BOTTOM_TABLES.get(id(low.high)))
                    and (ll := _BOTTOM_TABLES.get(id(low.low))) and lh[1] & ll[1] & 4):
                tested[0] |= lh[1] | ll[1] | 8
                low = lh[0] | ll[0] << 8
            else:
                low = _ev_node(low, v, memo, tested, reduced)
        if reduced and high == low:  # equal functions: the node is redundant
            raise ValueError(_NOT_REDUCED)
        table = memo[i] = high | low << (1 << v)
        tested[0] |= 1 << v
    v += 1
    while v < bound:  # repeat the table: it ignores the variables above its own
        table |= table << (1 << v)
        v += 1
    return table


def _order_error(var: int, bound: int) -> ValueError:
    return ValueError(f"variable {size_text(var)} breaks the strictly decreasing order "
                      f"(must lie in [0, {size_text(bound)}))")


def _leaf_error(bit: int) -> ValueError:
    return ValueError(f"leaf bit must be 0 or 1, got {size_text(bit)}")


_NOT_REDUCED = "not a reduced tree: a node's two branches denote the same function"
_INCOMPLETE = ("not a complete tree: every node must test the variable one below its parent's, "
               "with leaves below variable 0 only")
