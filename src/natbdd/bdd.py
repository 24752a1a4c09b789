"""Binary decision diagrams as ordered binary trees.

A ``Bdd`` is a variable count plus a tree of ``Ite`` nodes over ``Leaf(0)``
and ``Leaf(1)``.  Variable indices strictly decrease from root to leaf.
Reduction trims ite nodes whose branches are structurally equal.  Nodes are
immutable NamedTuples, equal to plain tuples of the same fields.  The two
leaves are shared constants, ``LEAVES``.  Trees from :func:`plain_bdd` and
:func:`reduced_bdd` also share subtrees, as an ROBDD's unique table does:
equal subtrees are one object.  Its bottom, every complete and reduced tree
on at most 3 variables, is built once at import and shared by every call;
above it both builders keep the table per call, or per block while
:func:`natbdd.ranking.enumerate_bdds` streams, in one layout, nv + 1 dicts
with ``memo[v]`` mapping a 2**v-bit table to its node, in bit-reversed row
order but for :func:`reduced_bdd`'s tables above 16 variables.  The stream
calls :func:`_plain_node` and :func:`_reduced_split` directly, on a table it
carries in that order from tree to tree.
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
  distinct sub-table whose halves differ.  Above 16 variables it splits by
  the same unpairing; at 16 or fewer it reverses a table's rows once and
  splits as :func:`plain_bdd` does;
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
distinct node object once per call, a bottom node's by lookup after its
checks.  One table gives a bottom node's table t.  As reduced ordered BDDs
are canonical, the node is complete just when it is the complete bottom
tree of t, and reduced just when it is the reduced one, which is what
:func:`reduce` makes of it.  Each walk takes a fresh memo per call, freed
when it returns, so this module keeps no memo across calls: what a walk
computes depends only on its tree.  A stream's trees are ranked from the
stream's own record instead (:func:`natbdd.ranking.enumerate_bdds`).

For every plain tree the two inverses agree with the original table, and
``ev`` also recovers the table from the reduced tree.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
from typing import NamedTuple

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
# ite, children first; _BOTTOM_TABLES maps each ite to its table t in ev's order
# and the variables it tests, and a node testing v is _PLAIN_BOTTOM[v + 1][t] if
# complete, _REDUCED_BOTTOM[v + 1][t] if reduced.
_BOTTOM_NV = 3


def _build_bottom():
    plain, reduced = [LEAVES], [LEAVES]
    ites: dict[tuple[int, int, int], Ite] = {}

    def ite(var: int, high: Node, low: Node) -> Ite:
        return ites.setdefault((var, id(high), id(low)), _new_ite((var, high, low)))

    # tables: a node's table in ev's order and a mask of the variables it tests
    tables = {id(leaf): (leaf.bit, 0) for leaf in LEAVES}
    for v in range(1, _BOTTOM_NV + 1):
        # pair t of the product is table t = hi | lo << 2**(v-1), split as in _plain_node,
        # and reduced as in _reduce_node: a reduced node that is complete is found in ites
        ps = [ite(v - 1, high, low) for low, high in product(plain[-1], repeat=2)]
        rs = [high if high is low else ite(v - 1, high, low) for low, high in product(reduced[-1], repeat=2)]
        for t, node in chain(enumerate(ps), enumerate(rs)):
            if id(node) not in tables:  # each node once: a reduced node may be complete, or below v
                tables[id(node)] = (t, 1 << (v - 1) | tables[id(node.high)][1] | tables[id(node.low)][1])
        plain.append(tuple(ps))
        reduced.append(tuple(rs))
    variables = [tuple(k for k in range(_BOTTOM_NV) if m >> k & 1) for m in range(1 << _BOTTOM_NV)]
    return tuple(plain), tuple(reduced), ites, {i: (t, variables[m]) for i, (t, m) in tables.items() if m}


_PLAIN_BOTTOM, _REDUCED_BOTTOM, _BOTTOM_ITES, _BOTTOM_TABLES = _build_bottom()


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
    memo: list[dict[int, Node]] = [{} for _ in range(nv + 1)]
    return Bdd(nv, _plain_node(nv, reverse_rows(tt, nv, range(nv // 2)), memo))


# memo: the builders' layout (module docstring), tables in bit-reversed row order
def _plain_node(v: int, t: int, memo: list[dict[int, Node]]) -> Node:
    if v <= _BOTTOM_NV:
        return _PLAIN_BOTTOM[v][t]
    node = memo[v].get(t)
    if node is None:
        w = 1 << (v - 1)
        high, low = _plain_node(v - 1, t & ((1 << w) - 1), memo), _plain_node(v - 1, t >> w, memo)
        node = memo[v][t] = _new_ite((v - 1, high, low))
    return node


def reduce(b: Bdd) -> Bdd:
    """Trim, bottom-up, every ite node whose branches reduce to equal trees.

    Each distinct node object is reduced once, so a shared input gives a
    shared result: on a :func:`plain_bdd` tree, equal subtrees of the
    result are one object too.
    """
    return Bdd(b.nv, _reduce_node(b.root, {}))


# memo: id(node) -> its reduced tree, valid while the root keeps every node
# alive; a result depends only on the subtree, whatever its parents
def _reduce_node(node: Node, memo: dict[int, Node]) -> Node:
    if isinstance(node, Leaf):
        return node
    if bottom := _BOTTOM_TABLES.get(id(node)):
        return _REDUCED_BOTTOM[node.var + 1][bottom[0]]
    done = memo.get(id(node))
    if done is None:
        high = _reduce_node(node.high, memo)
        low = _reduce_node(node.low, memo)
        if high == low:
            done = high
        elif high is node.high and low is node.low:
            done = node
        else:
            done = _new_ite((node.var, high, low))
        memo[id(node)] = done
    return done


def reduced_bdd(nv: int, tt: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """The reduced tree of truth table ``tt`` on ``nv`` variables.

    Equal to ``reduce(plain_bdd(nv, tt, max_nv))`` but built top-down: a
    constant table is a leaf at once, a level whose two halves are equal
    tables adds no node, and one node, shared by all its parents, is made per
    distinct sub-table whose halves differ (a bead), not per tree position.
    Beads are kept as :func:`plain_bdd` keeps its sub-tables: ``memo[v]``
    maps a 2**v-bit table to its node.  Above 16 variables a table is split
    by :func:`natbdd.pairing.bitmerge_unpair`, in natural row order, so no
    table or mask wider than it is built; at or below 16, where
    :func:`natbdd.truthtab.reverse_rows` keeps its masks, a table that is
    not constant has its rows reversed once and is split into contiguous
    halves, as in :func:`plain_bdd`.
    """
    check_table(nv, tt, max_nv, "truth table")
    return Bdd(nv, _reduced_node(nv, tt, [{} for _ in range(nv + 1)]))


# memo: the builders' layout (module docstring), filled only at beads, so skipped
# levels are never hashed; equal halves, and only they, give equal reduced trees;
# tables in natural row order above _CACHED_SWAP_NV variables (reduced_bdd)
def _reduced_node(v: int, t: int, memo: list[dict[int, Node]]) -> Node:
    while t and t.bit_count() != 1 << v:
        if v <= _CACHED_SWAP_NV:
            return _reduced_split(v, reverse_rows(t, v, range(v // 2)), memo)
        hi, lo = bitmerge_unpair(t)
        if hi != lo:
            node = memo[v].get(t)
            if node is None:
                high, low = _reduced_node(v - 1, hi, memo), _reduced_node(v - 1, lo, memo)
                node = memo[v][t] = _new_ite((v - 1, high, low))
            return node
        v, t = v - 1, hi
    return LEAVES[1 if t else 0]


# _reduced_node on a table in bit-reversed row order, split as in _plain_node
def _reduced_split(v: int, t: int, memo: list[dict[int, Node]]) -> Node:
    while v > _BOTTOM_NV:
        w = 1 << (v - 1)
        hi, lo = t & ((1 << w) - 1), t >> w
        if hi != lo:
            node = memo[v].get(t)
            if node is None:
                high, low = _reduced_split(v - 1, hi, memo), _reduced_split(v - 1, lo, memo)
                node = memo[v][t] = _new_ite((v - 1, high, low))
            return node
        v, t = v - 1, hi
    return _REDUCED_BOTTOM[v][t]


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
# 2**(var+1) bits; checked before the lookup, a node is checked under each parent
def _inverse_node(node: Node, bound: int, memo: dict[int, int]) -> int:
    if isinstance(node, Leaf):
        if not 0 <= node.bit <= 1:
            raise _leaf_error(node.bit)
        if bound:
            raise ValueError(_INCOMPLETE)
        return node.bit
    v = node.var
    if v != bound - 1:
        raise _order_error(v, bound) if not 0 <= v < bound else ValueError(_INCOMPLETE)
    if v < _BOTTOM_NV and (bottom := _BOTTOM_TABLES.get(id(node))) and _PLAIN_BOTTOM[v + 1][bottom[0]] is node:
        return bottom[0]
    done = memo.get(id(node))
    if done is None:  # in reversed order, pairing two folds of 2**v bits is concatenation
        done = _inverse_node(node.high, v, memo) | _inverse_node(node.low, v, memo) << (1 << v)
        memo[id(node)] = done
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
    variable pairs the tree never tests) gives this module's row order.

    At most 2**(nv-1-v) nodes test variable v, one per path from the root,
    so each level's tables hold at most 2**nv bits and an evaluation
    handles O(nv * 2**nv) bits, not a 2**nv-bit table per position.
    Recovers the original table from plain and reduced trees alike.
    Every ite variable must lie below its parent's, and the root's below
    ``nv``, or ``ValueError`` is raised with the message the text parsers
    give; leaf bits are not checked.  With ``reduced``, the reduced rank's
    check, it also refuses any leaf bit but 0 and 1, with the parsers'
    message, and any node whose two branches have equal tables: one
    comparison per distinct node, so only reduced trees pass.
    """
    nv = check_var_count(b.nv, max_nv)
    tested = [False] * nv
    table = _ev_node(b.root, nv, {}, tested, reduced)
    return reverse_rows(table, nv, [k for k in range(nv // 2) if tested[k] or tested[nv - 1 - k]])


# memo: id(node) -> its table at its own width, as in _reduce_node; a
# module-level walk, as a recursive closure would leave a reference cycle,
# holding the memo, for the collector to free during some later call
def _ev_node(node: Node, bound: int, memo: dict[int, int], tested: list[bool], reduced: bool) -> int:
    """``node``'s table widened to 2**bound bits, in bit-reversed row order."""
    if isinstance(node, Leaf):
        if reduced and not 0 <= node.bit <= 1:
            raise _leaf_error(node.bit)
        return (1 << (1 << bound)) - 1 if node.bit else 0
    v = node.var
    if not 0 <= v < bound:
        raise _order_error(v, bound)
    if v < _BOTTOM_NV and (bottom := _BOTTOM_TABLES.get(id(node))):
        table, variables = bottom
        if reduced and _REDUCED_BOTTOM[v + 1][table] is not node:
            raise ValueError(_NOT_REDUCED)
        for k in variables:
            tested[k] = True
    elif (table := memo.get(id(node))) is None:
        high, low = _ev_node(node.high, v, memo, tested, reduced), _ev_node(node.low, v, memo, tested, reduced)
        if reduced and high == low:  # equal functions: the node is redundant
            raise ValueError(_NOT_REDUCED)
        table = memo[id(node)] = high | low << (1 << v)
        tested[v] = True
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
