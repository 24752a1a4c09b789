"""Mutation check: the tests must catch each of a list of known faults.

    python tests/mutants.py

Each mutant is an exact edit of one file under ``src/``: its old text, the
new text it is replaced by, and the tests that must catch it.  For each
mutant ``src/`` is copied to a temporary directory, the edit is made there,
and the named tests are run against the copy with pytest; the run must
fail.  The same tests must first pass on an unmutated copy, all in one
pytest run.  An old text that is not in its file exactly once fails the
script, so a refactor of the code restates its mutants instead of losing
them.  Edits that change no output are listed apart, as equivalent, each
with the reason, and are not run.  Pytest does not collect this file (its name has no ``test_``
prefix).  Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/natbdd
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


def bdd_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_bdd.py::{name}" for name in names)


def ranking_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_ranking.py::{name}" for name in names)


def cli_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_cli.py::{name}" for name in names)


MUTANTS = [
    # reduced_bdd: natural-order unpairing above 16 variables, one reversal and
    # contiguous splits at or below, the reduced bottom by bit-reversed table
    Mutant("reduced_bdd reverses the table at every nv", "bdd.py",
           "        hi, lo = bitmerge_unpair(t)\n",
           "        r, w = reverse_rows(t, v, range(v // 2)), 1 << (v - 1)\n"
           "        hi, lo = (reverse_rows(h, v - 1, range((v - 1) // 2)) for h in (r & (1 << w) - 1, r >> w))\n",
           ("tests/test_truthtab.py::test_table_checks_build_no_mask",
            *bdd_tests("test_reduced_bdd_work_follows_the_reduced_tree"))),
    Mutant("reduced_bdd's reversal misses a swap", "bdd.py",
           "_reduced_split(v, reverse_rows(t, v, range(v // 2)), memo)",
           "_reduced_split(v, reverse_rows(t, v, range(1, v // 2)), memo)",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("no equal-halves skip below the cutoff", "bdd.py",
           "        hi, lo = t & _ONES[v - 1], t >> (1 << (v - 1))\n        if hi != lo:\n",
           "        hi, lo = t & _ONES[v - 1], t >> (1 << (v - 1))\n        if True:\n",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random",
                     "test_plain_and_reduced_trees_share_equal_subtrees")),
    # reduced_bdd strips the low variables a table ignores, after a constant
    # table's exit, and lifts the stripped table's tree onto the shared bottom
    Mutant("the strip running one level too far", "bdd.py",
           "    return Bdd(nv, _lifted(_reduced_node(nv - o,",
           "    tt, o = tt >> (1 << (nv - o - 1)), o + 1\n    return Bdd(nv, _lifted(_reduced_node(nv - o,",
           bdd_tests("test_reduced_bdd_strips_the_low_variables_a_table_ignores")),
    Mutant("the lift adding o - 1", "bdd.py",
           "_lifted(low, o, memo), v + o\n", "_lifted(low, o, memo), v + o - 1\n",
           bdd_tests("test_reduced_bdd_strips_the_low_variables_a_table_ignores")),
    Mutant("the lift making fresh nodes below variable 3", "bdd.py",
           "_BOTTOM_ITES[v, id(high), id(low)] if v < _BOTTOM_NV else _new_ite((v, high, low))",
           "_new_ite((v, high, low))",
           bdd_tests("test_reduced_bdd_strips_the_low_variables_a_table_ignores")),
    Mutant("no top-row guard before reduced_bdd's popcount", "bdd.py",
           "tt.bit_length() == 1 << nv and tt.bit_count() == 1 << nv):", "tt.bit_count() == 1 << nv):",
           bdd_tests("test_reduced_bdd_popcounts_only_tables_whose_top_row_is_1")),
    Mutant("no constant exit before the strip", "bdd.py",
           "        return Bdd(nv, LEAVES[tt & 1])\n    o = 0", "        pass\n    o = 0",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_where_halves_turn_constant",
                     "test_reduced_bdd_popcounts_only_tables_whose_top_row_is_1")),
    # a constant half ends the descent below the cutoff; above it only a table
    # whose top row is 1 is popcounted
    Mutant("the constant exit always returning the 0-leaf", "bdd.py",
           "            return LEAVES[t & 1]\n    return _REDUCED_BOTTOM[v][t]\n",
           "            return LEAVES[0]\n    return _REDUCED_BOTTOM[v][t]\n",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_where_halves_turn_constant")),
    Mutant("the constant exit comparing with the all-ones table one variable short", "bdd.py",
           "t == _ONES[v]:  # a constant half", "t == _ONES[v - 1]:  # a constant half",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_where_halves_turn_constant")),
    Mutant("no top-row guard before the popcount", "bdd.py",
           "t.bit_length() == 1 << v and t.bit_count() == 1 << v:", "t.bit_count() == 1 << v:",
           bdd_tests("test_reduced_bdd_popcounts_only_tables_whose_top_row_is_1")),
    Mutant("the reduced bottom indexed by natural-order table", "bdd.py",
           "    return tuple(plain), tuple(reduced), ites, {",
           "    for v, d, mask in ((2, 1, 0b10), (3, 3, 0b1010)):\n"
           "        swaps = [((n >> d) ^ n) & mask for n in range(len(reduced[v]))]\n"
           "        reduced[v] = [reduced[v][n ^ s ^ s << d] for n, s in enumerate(swaps)]\n"
           "    return tuple(plain), tuple(reduced), ites, {",
           bdd_tests("test_reduced_bdd_examples", "test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("_plain_node without the bottom", "bdd.py",
           "    if v <= _BOTTOM_NV:\n        return _PLAIN_BOTTOM[v][t]\n",
           "    if v == 0:\n        return LEAVES[t]\n",
           bdd_tests("test_memoized_walks_equal_unmemoized_references")),
    # the reduced rank: ev with reduced refuses trees that are not reduced
    Mutant("no reduced check above the bottom", "bdd.py",
           "        if reduced and high == low:", "        if False:",
           ("tests/test_ranking.py::test_reduced_rank_refuses_trees_that_are_not_reduced",
            "tests/test_cli.py::test_rank_refuses_a_plain_tree_that_reduces")),
    Mutant("no reduced check at the bottom", "bdd.py",
           "        if reduced and reduction is not node:", "        if False:",
           ("tests/test_ranking.py::test_reduced_rank_refuses_trees_that_are_not_reduced",)),
    Mutant("no leaf-bit check in the reduced rank", "bdd.py",
           "        if reduced and not 0 <= node.bit <= 1:", "        if False:",
           ("tests/test_ranking.py::test_reduced_rank_refuses_trees_that_are_not_reduced",)),
    # ev: checks before lookups, and the variables whose row pairs it swaps
    Mutant("ev's order check skipped for a memoized node", "bdd.py",
           "    if not 0 <= v < bound:\n        raise _order_error(v, bound)\n",
           "    if not 0 <= v < bound and id(node) not in memo:\n        raise _order_error(v, bound)\n",
           bdd_tests("test_ev_checks_every_parent_of_a_shared_node")),
    Mutant("ev's bottom lookup before its order check", "bdd.py",
           "    if not 0 <= v < bound:\n        raise _order_error(v, bound)\n",
           "    if not 0 <= v < bound and id(node) not in _BOTTOM_TABLES:\n        raise _order_error(v, bound)\n",
           bdd_tests("test_fold_refuses_what_ev_refuses_with_its_message",
                     "test_walks_on_trees_mixing_shared_bottom_nodes_and_hand_built_ones")),
    Mutant("ev marks nothing for a bottom node", "bdd.py",
           "        tested[0] |= mask\n", "        tested[0] |= 0\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    Mutant("ev marks all of variables 0-2 for a bottom node", "bdd.py",
           "        tested[0] |= mask\n", "        tested[0] |= (1 << _BOTTOM_NV) - 1\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    # the fold: complete trees only, checked before every lookup
    Mutant("no fold memo", "bdd.py",
           "    done = memo.get(i := id(node))\n    if done is None:  # in reversed order",
           "    done = {}.get(i := id(node))\n    if done is None:  # in reversed order",
           bdd_tests("test_memoized_walks_equal_unmemoized_references")),
    Mutant("the fold's memo lookup before its checks", "bdd.py",
           "    v, high, low = node\n    if v != bound - 1:\n",
           "    v, high, low = node\n    if id(node) in memo:\n        return memo[id(node)]\n    if v != bound - 1:\n",
           bdd_tests("test_fold_refuses_what_ev_refuses_with_its_message",
                     "test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("no leaf-place check in the fold", "bdd.py",
           "        if bound:\n            raise ValueError(_INCOMPLETE)\n",
           "        if False:\n            raise ValueError(_INCOMPLETE)\n",
           bdd_tests("test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("no leaf-bit check in the fold", "bdd.py",
           "        if not 0 <= node.bit <= 1:\n            raise _leaf_error(node.bit)\n",
           "        if False:\n            raise _leaf_error(node.bit)\n",
           bdd_tests("test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("no ite completeness check in the fold", "bdd.py",
           "    if v != bound - 1:\n        raise _order_error(v, bound) if not 0 <= v < bound else ValueError(_INCOMPLETE)\n",
           "    if not 0 <= v < bound:\n        raise _order_error(v, bound)\n",
           bdd_tests("test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("the fold's reversal misses a swap", "bdd.py",
           "_inverse_node(b.root, nv, {}), nv, range(nv // 2))",
           "_inverse_node(b.root, nv, {}), nv, range(1, nv // 2))",
           bdd_tests("test_fold_equals_recursive_pairing_on_random_plain_trees")),
    # reduce: a bottom node's reduced tree by lookup
    Mutant("reduce's bottom shortcut returns the node itself", "bdd.py",
           "        return bottom[2]\n", "        return node\n",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("the bottom's table giving each node as its own reduction", "bdd.py",
           "tables[id(node.low)][1], rs[t])", "tables[id(node.low)][1], node)",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    # a node on variable 4 takes each child on 3 over two bottom nodes in its own
    # frame, only where the child's own frame would pass every check, and in ev
    # only without reduced; _plain_node on 5 builds its children on 3 through memo[4]
    Mutant("_plain_node swapping a child's bottom nodes at v=5", "bdd.py",
           "bottom[hi & 255], bottom[hi >> 8]", "bottom[hi >> 8], bottom[hi & 255]",
           bdd_tests("test_plain_bdd_equals_recursive_unpairing")),
    # a node looks up each child in the level below and calls only for one it lacks
    Mutant("a held plain child still built by a call", "bdd.py",
           "        high = below.get(hi) or below.setdefault(hi, _plain_node(v - 1, hi, memo))\n",
           "        high = below.setdefault(hi, _plain_node(v - 1, hi, memo))\n",
           ranking_tests("test_a_builder_is_called_only_for_a_table_the_memo_lacks")),
    Mutant("a held reduced child still built by a call", "bdd.py",
           "                    low = below.get(lo) or _reduced_split(v - 1, lo, memo)\n",
           "                    low = _reduced_split(v - 1, lo, memo)\n",
           ranking_tests("test_a_builder_is_called_only_for_a_table_the_memo_lacks")),
    Mutant("_reduced_split taking complete nodes at v=4", "bdd.py",
           "_REDUCED_BOTTOM[v - 1][hi], _REDUCED_BOTTOM[v - 1][lo]", "_PLAIN_BOTTOM[v - 1][hi], _PLAIN_BOTTOM[v - 1][lo]",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("the fold accepting any bottom grandchild on variable 2", "bdd.py",
           "and complete[lh[0]] is low.high\n", "and low.high.var == _BOTTOM_NV - 1\n",
           bdd_tests("test_nodes_on_variable_3_walk_the_children_the_bottom_does_not_answer")),
    Mutant("the fold accepting grandchildren that are reduced, not complete", "bdd.py",
           "and complete[hh[0]] is high.high\n", "and hh[2] is high.high\n",
           bdd_tests("test_nodes_on_variable_3_walk_the_children_the_bottom_does_not_answer")),
    Mutant("the fold taking a child on a variable but 3", "bdd.py",
           "isinstance(low, Ite) and low.var == _BOTTOM_NV\n                   and (lh",
           "isinstance(low, Ite)\n                   and (lh",
           bdd_tests("test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("ev taking children in frame under reduced", "bdd.py",
           "        if v != _BOTTOM_NV + 1 or reduced:\n", "        if v != _BOTTOM_NV + 1:\n",
           bdd_tests("test_nodes_on_variable_3_walk_the_children_the_bottom_does_not_answer")),
    Mutant("ev taking grandchildren on lower variables", "bdd.py",
           " and hh[1] & hl[1] & 4):", "):",
           bdd_tests("test_nodes_on_variable_3_walk_the_children_the_bottom_does_not_answer")),
    Mutant("ev marking no tested variables for the high child", "bdd.py",
           "                tested[0] |= hh[1] | hl[1] | 8\n", "                tested[0] |= 8\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    Mutant("ev marking no tested variables for the low child", "bdd.py",
           "                tested[0] |= lh[1] | ll[1] | 8\n", "                tested[0] |= 8\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    Mutant("reduce mapping a child's bottom node through _PLAIN_BOTTOM", "bdd.py",
           "_new_ite((_BOTTOM_NV, lh[2], ll[2]))", "_new_ite((_BOTTOM_NV, _PLAIN_BOTTOM[_BOTTOM_NV][lh[0]], ll[2]))",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("reduce in frame without the memo", "bdd.py",
           "memo.get(j := id(high))", "(j := id(high)) and None",
           bdd_tests("test_reduce_keeps_a_node_on_variable_3_shared_under_two_parents_on_4")),
    Mutant("reduce in frame keeping the child itself when its halves reduce alike", "bdd.py",
           "rl = memo[j] = lh[2] if lh[2] is ll[2] else (", "rl = memo[j] = low if lh[2] is ll[2] else (",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    # ev swaps the row pairs of the variables the tree tests, at every nv
    Mutant("ev swaps every pair at nv <= 8", "bdd.py",
           "    table = _ev_node(b.root, nv, {}, tested, reduced)\n",
           "    table = _ev_node(b.root, nv, {}, tested, reduced)\n"
           "    if nv <= 8:\n        return reverse_rows(table, nv, range(nv // 2))\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    # a streamed tree's class carries its kind and its one written field its
    # rank, read only by the rank function of its kind, within the guard; a
    # tree rebuilt from it carries no rank
    Mutant("bdd2nat reading the rank of a plain streamed tree", "ranking.py",
           "isinstance(b, _Reduced) and", "isinstance(b, _Streamed) and",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("plain_bdd2nat reading the rank of a reduced streamed tree", "ranking.py",
           "isinstance(b, _Plain) and", "isinstance(b, _Streamed) and",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("bdd2nat reading a streamed rank past the guard", "ranking.py",
           "isinstance(b, _Reduced) and (rank := b.rank) is not None and b.nv <= max_nv:",
           "isinstance(b, _Reduced) and (rank := b.rank) is not None:",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("plain_bdd2nat reading a streamed rank past the guard", "ranking.py",
           "isinstance(b, _Plain) and (rank := b.rank) is not None and b.nv <= max_nv:",
           "isinstance(b, _Plain) and (rank := b.rank) is not None:",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("bdd2nat reading the rank of a _replace copy", "ranking.py",
           "isinstance(b, _Reduced) and (rank := b.rank) is not None and", "isinstance(b, _Reduced) and [rank := b.rank] and",
           ranking_tests("test_streamed_trees_rank_with_no_walk_at_every_width")),
    Mutant("plain_bdd2nat reading the rank of a _replace copy", "ranking.py",
           "isinstance(b, _Plain) and (rank := b.rank) is not None and", "isinstance(b, _Plain) and [rank := b.rank] and",
           ranking_tests("test_streamed_trees_rank_with_no_walk_at_every_width")),
    Mutant("a streamed tree's _replace copy with no rank to read", "ranking.py",
           "    rank = None\n", "",
           ranking_tests("test_streamed_trees_rank_with_no_walk_at_every_width")),
    Mutant("the stream's trees yielded without their rank", "ranking.py",
           '            b.__dict__["rank"] = n  # written as copy and pickle write it, past _Streamed\'s refusals\n', "",
           ranking_tests("test_a_streamed_tree_ranks_with_no_walk")),
    Mutant("a streamed tree with no refusing __setattr__", "ranking.py",
           "    __setattr__ = __delattr__ = _read_only\n", "    __delattr__ = _read_only\n",
           ranking_tests("test_a_streamed_trees_kind_and_rank_are_read_only")),
    Mutant("a streamed tree's __delattr__ accepting deletes", "ranking.py",
           "    __setattr__ = __delattr__ = _read_only\n", "    __setattr__ = _read_only\n",
           ranking_tests("test_a_streamed_trees_kind_and_rank_are_read_only")),
    Mutant("a streamed tree written by its own class name", "ranking.py",
           "        return repr(Bdd(*self))\n", "        return Bdd.__repr__(self)\n",
           ranking_tests("test_a_streamed_tree_is_a_bdd_that_carries_its_rank")),
    # the stream: one decomposition, one run per block, bounded by the end of
    # the block or of the stream, each run with one capped memo
    Mutant("the stream's memo without a level cap", "bdd.py",
           "                if len(level) > 8 << (k - v):\n", "                if False:\n",
           ranking_tests("test_a_long_stream_holds_a_bounded_table",
                         "test_a_streams_memo_holds_at_most_twelve_trees_worth_per_level")),
    Mutant("a fresh memo per streamed tree, every level cleared after each", "bdd.py",
           "        if not r & 3:\n            for v, level in memo.items():\n                if len(level) > 8 << (k - v):\n",
           "        if True:\n            for v, level in memo.items():\n                if True:\n",
           ranking_tests("test_a_stream_shares_nodes_across_its_trees")),
    Mutant("the stream's memo kept across a block change", "bdd.py",
           "    memo: defaultdict[int, dict[int, Node]] = defaultdict(dict)\n",
           "    memo = _run.__dict__.setdefault(\"memo\", defaultdict(dict))\n",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    Mutant("the stream leaves a block one tree early", "ranking.py",
           "end = min(n - r + _block_size(k), stop)", "end = min(n - r + _block_size(k) - 1, stop)",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    Mutant("the run bounded one tree past the block, its end checked after a root is pulled", "ranking.py",
           "        for root in _run(kind, k, r, max_nv):\n"
           "            b = new(sealed, (k, root))  # tuple.__new__, without NamedTuple's Python-level __new__\n"
           "            b.__dict__[\"rank\"] = n  # written as copy and pickle write it, past _Streamed's refusals\n"
           "            n += 1\n"
           "            yield b\n"
           "            if n == end:  # before the run is pulled again: no tree past the end\n"
           "                break\n",
           "        for root in _run(kind, k, r, max_nv):\n"
           "            if n == end:\n"
           "                break\n"
           "            b = new(sealed, (k, root))\n"
           "            b.__dict__[\"rank\"] = n\n"
           "            n += 1\n"
           "            yield b\n",
           ranking_tests("test_a_stream_builds_only_the_trees_it_yields")),
    # the stream's table, carried in bit-reversed row order from tree to tree
    Mutant("the carried update using m - 1", "bdd.py",
           "            m = (r & -r).bit_length()\n", "            m = (r & -r).bit_length() - 1\n",
           ranking_tests("test_streamed_trees_equal_trees_built_alone_across_long_carries",
                         "test_streams_from_any_start_equal_trees_built_alone")),
    Mutant("the stream's cap check never firing", "bdd.py",
           "        if not r & 3:\n", "        if r & 3 == 4:\n",
           ranking_tests("test_a_streams_memo_holds_at_most_twelve_trees_worth_per_level")),
    Mutant("the stream's cap check every eighth tree", "bdd.py",
           "        if not r & 3:\n", "        if not r & 7:\n",
           ranking_tests("test_a_streams_memo_holds_at_most_twelve_trees_worth_per_level")),
    Mutant("the reduced stream's table 0 on 4 variables or fewer built as its complete tree, not the 0-leaf", "bdd.py",
           "yield build(k, t, memo)", "yield (build if r or kind == 'plain' else _plain_node)(k, t, memo)",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    # above 4 variables the run makes each root itself, from children it looks
    # up in memo[k - 1], and keeps no root
    Mutant("the run's root on 5 variables made by a builder call", "bdd.py",
           "k > _BOTTOM_NV + 1 and build", "k > _BOTTOM_NV + 2 and build",
           ranking_tests("test_a_run_above_4_variables_makes_each_root_with_no_call_on_k")),
    Mutant("the reduced stream's table 0 above 4 variables built as its complete tree, not the 0-leaf", "bdd.py",
           "hi != ones else LEAVES[hi & 1]", "hi != ones else _plain_node(k, t, memo)",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    Mutant("the run builds a plain root's child by a call though memo[k - 1] holds it", "bdd.py",
           "below.get(hi := t & ones) or below.setdefault(hi, build(k - 1, hi, memo))",
           "below.setdefault(hi := t & ones, build(k - 1, hi, memo))",
           ranking_tests("test_a_builder_is_called_only_for_a_table_the_memo_lacks")),
    Mutant("the run builds a reduced root's low child by a call though memo[k - 1] holds it", "bdd.py",
           "high, below.get(lo) or build(k - 1, lo, memo)", "high, build(k - 1, lo, memo)",
           ranking_tests("test_a_builder_is_called_only_for_a_table_the_memo_lacks")),
    Mutant("the run builds a reduced root's half by a call though memo[k - 1] holds it", "bdd.py",
           "high = below.get(hi) or build(k - 1, hi, memo) if", "high = build(k - 1, hi, memo) if",
           ranking_tests("test_a_builder_is_called_only_for_a_table_the_memo_lacks")),
    Mutant("a reduced run keeps its root in memo[k]", "bdd.py",
           "_new_ite((k - 1, high, below.get(lo) or build(k - 1, lo, memo)))",
           "memo[k].setdefault(t, _new_ite((k - 1, high, below.get(lo) or build(k - 1, lo, memo))))",
           ranking_tests("test_a_streams_memo_holds_at_most_twelve_trees_worth_per_level")),
    Mutant("the run's split mask read from _ONES, which ends at 16 variables", "bdd.py",
           "ones = (1 << (w := 1 << k >> 1)) - 1 if", "ones = _ONES[k - 1] + 0 * (w := 1 << k >> 1) if",
           ranking_tests("test_a_stream_builds_only_the_trees_it_yields")),
    Mutant("the stream's long carries read from the kept flips", "bdd.py",
           "(flip := flips.get(m))", "(flip := flips.get(min(m, _CACHED_SWAP_NV)))",
           ranking_tests("test_streamed_trees_equal_trees_built_alone_across_long_carries")),
    Mutant("the stream's carries above 16 variables not kept", "bdd.py",
           "if m <= _CACHED_SWAP_NV:  # kept on first use", "if False:  # kept on first use",
           ranking_tests("test_a_stream_reverses_one_table_per_block")),
    Mutant("a long carry kept in the module's flips", "bdd.py",
           "if m <= _CACHED_SWAP_NV:  # kept on first use", "if True:  # kept on first use",
           ranking_tests("test_a_stream_reverses_one_table_per_block")),
    Mutant("to_bsum without its correction step", "ranking.py",
           "    return RankPair(k + 1, r - size) if r >= size else RankPair(k, r)\n",
           "    return RankPair(k, r)\n",
           ranking_tests("test_to_bsum_equals_the_summing_loop")),
    # the text formats: parsed trees hold the bottom, whose texts are read and written whole
    Mutant("the bottom's unique table keyed without the variable", "bdd.py",
           "ites.setdefault((var, id(high), id(low)),", "ites.setdefault((id(high), id(low)),",
           cli_tests("test_parsed_trees_hold_the_bottom_objects_of_built_trees")),
    Mutant("the JSON renderer reading the s-expression texts", "cli.py",
           "_node_json(b.root, _bottom_text(_node_json))", "_node_json(b.root, _bottom_text(_node_sexpr))",
           cli_tests("test_json_text_is_json_dumps_of_the_dict_tree")),
    Mutant("the token path of a subtree text missing from the table starts at its '('", "cli.py",
           "_PLAIN_TOKEN_RE.findall(tok, 1)", "_PLAIN_TOKEN_RE.findall(tok)",
           cli_tests("test_a_node_no_built_tree_holds_parses_as_written")),
    Mutant("parse_sexpr without its trailing-content check", "cli.py",
           "    if extra is not None:\n", "    if False:\n",
           cli_tests("test_subtree_tokens_keep_the_parsers_messages")),
    Mutant("_form's order check with < made <=", "cli.py",
           "not 0 <= child.var < k:", "not 0 <= child.var <= k:",
           cli_tests("test_subtree_tokens_keep_the_parsers_messages")),
    # the input boundary: what the CLI accepts, refused with one line or exact
    Mutant("_form without its leaf-bit check", "cli.py",
           "            if not 0 <= k <= 1:\n", "            if False:\n",
           cli_tests("test_tree_errors_name_long_numerals_by_bit_length[sexpr-bit]",
                     "test_tree_errors_name_long_numerals_by_bit_length[json-negative-bit]")),
    Mutant("_form accepting a fifth member", "cli.py",
           '(n == 4 and kind == "ite" or', '(n in (4, 5) and kind == "ite" or',
           cli_tests("test_forms_with_a_member_too_many_or_too_few_are_malformed")),
    Mutant("_numeral without its length check", "cli.py",
           "    if len(text) > _PIECE:  # with a JSON minus sign", "    if False:  # with a JSON minus sign",
           cli_tests("test_long_numerals_in_bdd_text_exit_1")),
    Mutant("parse_nat without its decimal budget", "cli.py",
           "    if len(s) - 1 > math.ldexp(", "    if False and math.ldexp(",
           cli_tests("test_parse_nat_rejects_decimals_past_the_bit_budget")),
    Mutant("parse_nat's budget one digit short", "cli.py",
           "    if len(s) - 1 > math.ldexp(", "    if len(s) > math.ldexp(",
           cli_tests("test_parse_nat_rejects_decimals_past_the_bit_budget")),
    Mutant("_int_pieces cutting a digit", "cli.py",
           "_int_pieces(s[cut:], powers)", "_int_pieces(s[cut + 1:], powers)",
           cli_tests("test_decimal_pieces_match_builtin_conversion")),
    Mutant("the decimal parser's powers of ten kept past the parse", "cli.py",
           "    return _int_pieces(s, {})\n", '    return _int_pieces(s, _int_pieces.__dict__.setdefault("powers", {}))\n',
           cli_tests("test_a_decimal_parse_keeps_no_powers_of_ten")),
    Mutant("parse_json without its RecursionError catch", "cli.py",
           "    except (json.JSONDecodeError, RecursionError) as exc:", "    except json.JSONDecodeError as exc:",
           cli_tests("test_hostile_bdd_text_exits_1[deep-json-bdd2tt]")),
    Mutant("_Parser keeping leftover arguments", "cli.py",
           "        if extras:\n", "        if False:\n",
           cli_tests("test_unknown_argument_names_the_nested_subcommand")),
    # build_parser's one helper: the options and positionals each subcommand takes
    Mutant("--hex given to every command", "cli.py",
           '        if "--hex" in names:\n', "        if True:\n",
           cli_tests("test_tree_printers_refuse_hex[tt2bdd]",
                     "test_each_command_path_keeps_its_options_and_positionals")),
    Mutant("the reduced=True default dropped", "cli.py",
           "            p.set_defaults(reduced=True)\n", "",
           cli_tests("test_each_command_path_keeps_its_options_and_positionals")),
    Mutant('--in added without dest="infile"', "cli.py",
           'p.add_argument("--in", dest="infile", metavar="FILE"', 'p.add_argument("--in", metavar="FILE"',
           cli_tests("test_in_file", "test_each_command_path_keeps_its_options_and_positionals")),
    Mutant("shannon's modes given help=None, which lists them in shannon --help", "cli.py",
           'command(shannon_sub, "split", "--hex", "--vars", "x")',
           'command(shannon_sub, "split", "--hex", "--vars", "x", help=None)',
           cli_tests("test_each_command_path_keeps_its_options_and_positionals")),
    Mutant("the helper dropping the positionals", "cli.py",
           "                p.add_argument(positional)\n", "                pass\n",
           cli_tests("test_each_command_path_keeps_its_options_and_positionals")),
    Mutant("the helper adding --vars without required=True", "cli.py",
           'p.add_argument("--vars", required=True, metavar="N")', 'p.add_argument("--vars", metavar="N")',
           cli_tests("test_each_command_path_keeps_its_options_and_positionals")),
    # one function writes every output line
    Mutant("_line writing a pair's second member in decimal under --hex", "cli.py",
           "format_nat(result[1], args.hex)", "format_nat(result[1], False)",
           cli_tests("test_each_command_path_prints_its_results_byte_for_byte")),
    Mutant("_line rendering every tree as an s-expression", "cli.py",
           "        return render_bdd(result, args.format)\n", "        return render_sexpr(result)\n",
           cli_tests("test_each_command_path_prints_its_results_byte_for_byte")),
    Mutant("parse_sexpr's start check refusing empty text only", "cli.py",
           '    if next(tokens, None) != "(":\n', "    if next(tokens, None) is None:\n",
           cli_tests("test_sexpr_text_must_start_with_a_parenthesis[bdd 1 (c 0))]")),
    Mutant("parse_nat's hex path for a lowercase 0x only", "cli.py",
           '    if s[:2].lower() == "0x":\n', '    if s[:2] == "0x":\n',
           cli_tests("test_parse_nat")),
    Mutant("_max_vars' ceiling one past", "cli.py",
           "int(text) <= MAX_VARS_CEILING)", "int(text) <= MAX_VARS_CEILING + 1)",
           cli_tests("test_max_vars_takes_the_ceiling_and_no_more")),
    Mutant("parse_bdd sending JSON text to parse_sexpr", "cli.py",
           "        return parse_json(s, max_vars)\n", "        return parse_sexpr(s, max_vars)\n",
           cli_tests("test_bdd_text_header_is_guarded")),
    Mutant("bitmerge_unpair with _EVEN and _ODD swapped", "pairing.py",
           '    x = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4\n'
           '    y = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4\n',
           '    x = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4\n'
           '    y = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4\n',
           ("tests/test_pairing.py::test_bitmerge_examples",)),
    Mutant("cantor_unpair through a float square root", "pairing.py",
           "    w = (isqrt(8 * z + 1) - 1) // 2\n", "    w = (int((8 * z + 1) ** 0.5) - 1) // 2\n",
           ("tests/test_pairing.py::test_cantor_is_exact_at_2_pow_200",)),
    Mutant("pepis_pair shifting one place too far", "pairing.py",
           "    return ((2 * y + 1) << x) - 1\n", "    return ((2 * y + 1) << (x + 1)) - 1\n",
           ("tests/test_pairing.py::test_pepis_examples",)),
    Mutant("shannon_fuse without its guard", "truthtab.py",
           "    check_var_count(nv, max_nv)\n    if nv < 1:\n        raise ValueError(\"cannot fuse",
           "    if nv < 1:\n        raise ValueError(\"cannot fuse",
           ("tests/test_truthtab.py::test_shannon_fuse_errors",)),
    Mutant("shannon_split without its nv < 1 check", "truthtab.py",
           "    if nv < 1:\n        raise ValueError(\"cannot split", "    if False:\n        raise ValueError(\"cannot split",
           ("tests/test_truthtab.py::test_shannon_split_errors",)),
    Mutant("check_table one bit off", "truthtab.py",
           "t.bit_length() <= 1 << nv)", "t.bit_length() <= (1 << nv) + 1)",
           ("tests/test_truthtab.py::test_check_table_takes_the_naturals_of_2_to_the_nv_bits",)),
    Mutant("_row_swap missing a repeat", "truthtab.py",
           "(*range(k + 1, j), *range(j + 1, nv))", "(*range(k + 1, j), *range(j + 2, nv))",
           ("tests/test_truthtab.py::test_reverse_rows_moves_each_row_to_its_reversed_index",)),
    Mutant("a mask kept under the wrong pair", "truthtab.py",
           "plan.setdefault(k, _row_swap(nv, k))", "plan.setdefault(0, _row_swap(nv, k))",
           ("tests/test_truthtab.py::test_reverse_rows_moves_each_row_to_its_reversed_index",)),
    Mutant("masks above 16 variables held to the end of the call", "truthtab.py",
           "plan = _PLANS[nv] if nv <= _CACHED_SWAP_NV else None", "plan = _PLANS[nv] if nv <= _CACHED_SWAP_NV else {}",
           ("tests/test_truthtab.py::test_reverse_rows_keeps_no_masks_above_16_variables",)),
    Mutant("_CACHED_SWAP_NV at 17", "truthtab.py",
           "_CACHED_SWAP_NV = 16\n", "_CACHED_SWAP_NV = 17\n",
           ("tests/test_truthtab.py::test_reverse_rows_keeps_no_masks_above_16_variables",)),
]

# Edits that no test can catch, as they change no output: each with the reason.
EQUIVALENT = [
    ("format_nat's one-piece threshold off by one, '<= _PIECE' made '<= _PIECE + 1' or '< _PIECE'", "cli.py",
     "both conversions are exact on either side of it, str(n) of at most 4097 digits stays under "
     "Python's 4300-digit cap, and the threshold only picks the faster conversion"),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass against the package under ``src``."""
    # no third-party plugin is loaded: the tests need none, and loading them
    # takes about half of each run's time
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    started = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        tests = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        if not run_tests(src, tests):
            failures.append(f"fail on the unmutated code, one or more of: {' '.join(tests)}")
        for m in MUTANTS:
            path = src / "natbdd" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                failures.append(f"{m.name}: old text found {text.count(m.old)} times in {m.file}")
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                killed = not run_tests(src, m.tests)
            finally:
                path.write_text(text)
            print(f"{'killed' if killed else 'SURVIVED'}: {m.name}", flush=True)
            if not killed:
                failures.append(f"{m.name}: survived {' '.join(m.tests)}")
    for failure in failures:
        print(f"mutants: {failure}", file=sys.stderr)
    for name, file, reason in EQUIVALENT:
        print(f"equivalent, not run: {name} ({file}): {reason}")
    print(f"{len(MUTANTS)} mutants, {len(failures)} failures, {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
