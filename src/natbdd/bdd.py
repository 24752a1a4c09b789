"""Binary decision diagrams as ordered binary trees.

A ``Bdd`` is a variable count plus a tree of ``Ite`` nodes over ``Leaf(0)``
and ``Leaf(1)``.  Variable indices strictly decrease from root to leaf.
Reduction trims ite nodes whose branches are structurally equal.  Nodes are
immutable NamedTuples, equal to plain tuples of the same fields.  The two
leaves are shared constants, ``LEAVES``.  Trees from :func:`plain_bdd`
also share subtrees, as an ROBDD's unique table does: equal subtrees are
one object.  :func:`reduce` keeps the sharing of its input, so equal
subtrees of ``reduce(plain_bdd(...))`` are one object too.  Trees from
:func:`reduced_bdd` and trees parsed from text share only the leaves.
Sharing never shows in output or equality.

The encoding and its inverses:

* :func:`plain_bdd` unfolds a truth table into the complete tree that
  recursive unpairing with the bit-interleaving bijection gives, built
  bottom-up one level at a time from the table's bits, one node per
  distinct subtree;
* :func:`reduced_bdd` builds the reduced tree top-down by the same
  unpairing, skipping levels whose halves are equal and stopping at
  constant tables, so its cost scales with the reduced tree, not 2**nv;
* :func:`plain_inverse_bdd` folds a tree back by recursive pairing, the
  paper's structural fold, independent of the level build; it and
  :func:`reduce` handle each distinct node object once;
* :func:`ev` evaluates a tree as a boolean function over the variable
  column encodings.

For every plain tree the two inverses agree with the original table, and
``ev`` also recovers the table from the reduced tree.
"""

from __future__ import annotations

from functools import partial
from itertools import count, repeat
from operator import add, mul
from typing import NamedTuple

from .pairing import bitmerge_pair, bitmerge_unpair
from .truthtab import DEFAULT_MAX_VARS, all_ones_mask, check_var_count, ite_tt, size_text, var_tt


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


_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
# Ite from a (var, high, low) tuple without NamedTuple's Python-level __new__
_new_ite = partial(tuple.__new__, Ite)


def plain_bdd(nv: int, tt: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """Unfold truth table ``tt`` into the complete depth-``nv`` tree.

    The tree is the one recursive unpairing gives.  There each level unpairs
    the table into (even-bits, odd-bits) halves and the even half becomes
    the high branch, so the path to row p's leaf reads p's bits LSB first,
    0 taking the high branch; variable v reads bit nv-1-v.  The tree is
    built bottom-up on that: first the leaves in row order, then, for
    v = 0 .. nv-1, nodes p and p + half of the level become
    ``Ite(v, node p, node p + half)``, as their indices differ only in the
    bit variable v reads.  A 0-variable table is a bare leaf.

    Equal subtrees are one object, as in a unique table: each position
    carries the code of its distinct subtree (a leaf's code is its bit), a
    level keys position p on its two children's codes, and one node is made
    per distinct key.  So the build makes one node per distinct strided
    sub-table, and a walk memoized on node identity visits each once.
    """
    _check_table(nv, tt, max_nv)
    codes = format(tt, "b")[::-1].ljust(1 << nv, "0").encode().translate(_BIT_OF_DIGIT)
    nodes = LEAVES
    for v in range(nv):
        n, half = len(nodes), len(codes) >> 1
        keys = list(map(add, map(mul, codes[:half], repeat(n)), codes[half:]))
        code_of = dict(zip(dict.fromkeys(keys), count()))  # distinct keys, first seen first
        nodes = [_new_ite((v, nodes[k // n], nodes[k % n])) for k in code_of]
        codes = list(map(code_of.__getitem__, keys))
    return Bdd(nv, nodes[codes[0]])


def _check_table(nv: int, tt: int, max_nv: int) -> None:
    check_var_count(nv, max_nv)
    if not 0 <= tt < (1 << (1 << nv)):
        raise ValueError(
            f"truth table out of range for {nv} variables ({1 << nv} bits), got {size_text(tt)}")


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
    constant table is a leaf at once, and a level whose two halves are equal
    tables adds no node, so the cost follows the reduced tree, not 2**nv.
    """
    _check_table(nv, tt, max_nv)
    return Bdd(nv, _reduced_node(nv, tt))


def _reduced_node(nv: int, tt: int) -> Node:
    # a reduced tree is unique to its table, so two halves reduce to equal
    # trees exactly when they are equal tables
    if tt == 0 or tt.bit_count() == 1 << nv:
        return LEAVES[1 if tt else 0]
    hi, lo = bitmerge_unpair(tt)
    if hi == lo:
        return _reduced_node(nv - 1, hi)
    return Ite(nv - 1, _reduced_node(nv - 1, hi), _reduced_node(nv - 1, lo))


def plain_inverse_bdd(b: Bdd) -> int:
    """Fold a tree back into a natural by recursive bit interleaving.

    Exact inverse of :func:`plain_bdd` on complete trees.  On reduced trees
    the result is some natural but not in general the original table; use
    :func:`ev` there.  Each distinct node object is paired once.
    """
    return _inverse_node(b.root, {})


# memo as in _reduce_node: id(node) -> its fold
def _inverse_node(node: Node, memo: dict[int, int]) -> int:
    if isinstance(node, Leaf):
        return node.bit
    z = memo.get(id(node))
    if z is None:
        z = bitmerge_pair(_inverse_node(node.high, memo), _inverse_node(node.low, memo))
        memo[id(node)] = z
    return z


def ev(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Boolean evaluation: the truth table a tree denotes.

    Leaves map to the constant tables, and each ite node applies the
    rowwise if-then-else with its variable's column as the condition.
    Recovers the original table from plain and reduced trees alike.
    """
    columns: list[int | None] = [None] * b.nv  # each built when a node first tests it
    return _ev_node(b.root, b.nv, all_ones_mask(b.nv, max_nv), columns, max_nv)


# a module-level walk: a recursive closure would leave a reference cycle,
# holding its columns, for the collector to free during some later call
def _ev_node(node: Node, nv: int, mask: int, columns: list[int | None], max_nv: int) -> int:
    if isinstance(node, Leaf):
        return mask if node.bit else 0
    column = columns[node.var]
    if column is None:
        column = columns[node.var] = var_tt(nv, node.var, max_nv)
    return ite_tt(column, _ev_node(node.high, nv, mask, columns, max_nv),
                  _ev_node(node.low, nv, mask, columns, max_nv))


def validate(b: Bdd) -> Bdd:
    """Check the structural invariants of ``b`` and return it.

    Leaf bits must be 0 or 1, every ite variable must be below the tree's
    variable count, and variable indices must strictly decrease along every
    root-to-leaf path.
    """
    if b.nv < 0:
        raise ValueError(f"variable count must be >= 0, got {b.nv}")
    _validate_node(b.root, b.nv)
    return b


def _validate_node(node: Node, bound: int) -> None:
    if isinstance(node, Leaf):
        if node.bit not in (0, 1):
            raise ValueError(f"leaf bit must be 0 or 1, got {node.bit!r}")
        return
    if not 0 <= node.var < bound:
        raise ValueError(
            f"variable {node.var} breaks the strictly decreasing order "
            f"(must lie in [0, {bound}))"
        )
    _validate_node(node.high, node.var)
    _validate_node(node.low, node.var)
