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
           "        if v <= _CACHED_SWAP_NV:\n", "        if True:\n",
           ("tests/test_truthtab.py::test_table_checks_build_no_mask",
            *bdd_tests("test_reduced_bdd_work_follows_the_reduced_tree"))),
    Mutant("reduced_bdd's reversal misses a swap", "bdd.py",
           "_reduced_split(v, reverse_rows(t, v, range(v // 2)), memo)",
           "_reduced_split(v, reverse_rows(t, v, range(1, v // 2)), memo)",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    Mutant("no equal-halves skip below the cutoff", "bdd.py",
           "        hi, lo = t & ((1 << w) - 1), t >> w\n        if hi != lo:\n",
           "        hi, lo = t & ((1 << w) - 1), t >> w\n        if True:\n",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random",
                     "test_plain_and_reduced_trees_share_equal_subtrees")),
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
           "        if reduced and _REDUCED_BOTTOM[v + 1][table] is not node:", "        if False:",
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
           "        for k in variables:\n", "        for k in ():\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    Mutant("ev marks all of variables 0-2 for a bottom node", "bdd.py",
           "        for k in variables:\n", "        for k in range(_BOTTOM_NV):\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    # the fold: complete trees only, checked before every lookup
    Mutant("no fold memo", "bdd.py",
           "    done = memo.get(id(node))\n    if done is None:  # in reversed order",
           "    done = None\n    if done is None:  # in reversed order",
           bdd_tests("test_memoized_walks_equal_unmemoized_references")),
    Mutant("the fold's memo lookup before its checks", "bdd.py",
           "    v = node.var\n    if v != bound - 1:\n",
           "    v = node.var\n    if id(node) in memo:\n        return memo[id(node)]\n    if v != bound - 1:\n",
           bdd_tests("test_fold_refuses_what_ev_refuses_with_its_message",
                     "test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("the fold's bottom lookup before its checks", "bdd.py",
           "    v = node.var\n    if v != bound - 1:\n",
           "    v = node.var\n"
           "    if v < _BOTTOM_NV and (bottom := _BOTTOM_TABLES.get(id(node))) and _PLAIN_BOTTOM[v + 1][bottom[0]] is node:\n"
           "        return bottom[0]\n"
           "    if v != bound - 1:\n",
           bdd_tests("test_fold_refuses_what_ev_refuses_with_its_message",
                     "test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
    Mutant("the fold vouches for reduced bottom nodes", "bdd.py",
           " and _PLAIN_BOTTOM[v + 1][bottom[0]] is node:\n", ":\n",
           bdd_tests("test_fold_and_plain_rank_refuse_trees_without_a_plain_rank")),
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
           "        return _REDUCED_BOTTOM[node.var + 1][bottom[0]]\n", "        return node\n",
           bdd_tests("test_reduced_bdd_equals_reduced_plain_tree_random")),
    # ev swaps the row pairs of the variables the tree tests, at every nv
    Mutant("ev swaps every pair at nv <= 8", "bdd.py",
           "    table = _ev_node(b.root, nv, {}, tested, reduced)\n",
           "    table = _ev_node(b.root, nv, {}, tested, reduced)\n"
           "    if nv <= 8:\n        return reverse_rows(table, nv, range(nv // 2))\n",
           bdd_tests("test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests")),
    # the stream's record: the rank of a tree a stream yielded on at most 8
    # variables, read only for its kind, variable count and guard, bounded
    Mutant("the record read for either kind", "ranking.py",
           "    entry = _record[kind].get(id(b.root))\n",
           "    entry = _record[kind].get(id(b.root)) or _record[{'plain': 'reduced'}.get(kind, 'plain')].get(id(b.root))\n",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("the record read without the nv check", "ranking.py",
           " and entry[1] == b.nv and ", " and ",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("the record read without the guard check", "ranking.py",
           " and b.nv <= max_nv:\n", ":\n",
           ranking_tests("test_streamed_trees_keep_the_rank_checks")),
    Mutant("the record never replaced", "ranking.py",
           "            if len(record) >= 1 << _RECORD_NV:\n", "            if False:\n",
           bdd_tests("test_kept_memos_retain_a_bounded_memory")),
    Mutant("the record written above 8 variables", "ranking.py",
           "        if k <= _RECORD_NV:  # recorded before the yield", "        if True:  # recorded before the yield",
           ranking_tests("test_a_stream_above_8_variables_records_nothing")),
    Mutant("the record written after the yield", "ranking.py",
           "            record[id(root)] = (root, k, n)\n        yield Bdd(k, root)\n",
           "            yield Bdd(k, root)\n            record[id(root)] = (root, k, n)\n        else:\n            yield Bdd(k, root)\n",
           ranking_tests("test_a_streamed_tree_ranks_with_no_walk")),
    # the stream: one decomposition, one capped memo per block
    Mutant("the stream's memo without a level cap", "ranking.py",
           "            if len(level) > 1 << (k - v + 2):\n", "            if False:\n",
           ranking_tests("test_a_long_stream_holds_a_bounded_table")),
    Mutant("a fresh memo per streamed tree", "ranking.py",
           "        if memo is None:  # a new block\n", "        if True:\n",
           ranking_tests("test_a_stream_shares_nodes_across_its_trees")),
    Mutant("the stream's memo kept across a block change", "ranking.py",
           "            k, r, memo = k + 1, 0, None\n", "            k, r = k + 1, 0\n",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    Mutant("the stream leaves a block one tree early", "ranking.py",
           "        if r == _block_size(k):\n", "        if r == _block_size(k) - 1:\n",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    # the stream's table, carried in bit-reversed row order from tree to tree
    Mutant("the carried update using m - 1", "ranking.py",
           "            m = (r & -r).bit_length()\n", "            m = (r & -r).bit_length() - 1\n",
           ranking_tests("test_streamed_trees_equal_trees_built_alone_across_long_carries",
                         "test_streams_from_any_start_equal_trees_built_alone")),
    Mutant("the stream's cap check never firing", "ranking.py",
           "        if not r & 7:\n", "        if r & 7 == 8:\n",
           ranking_tests("test_a_long_stream_holds_a_bounded_table")),
    Mutant("the reduced stream's table 0 built as its complete tree, not the 0-leaf", "ranking.py",
           "root = build(k, t, memo)", "root = (build if r or kind == 'plain' else _plain_node)(k, t, memo)",
           ranking_tests("test_streamed_trees_equal_trees_built_alone")),
    Mutant("the stream's long carries read from the kept flips", "ranking.py",
           "flips[m] if m < len(flips) else", "flips[m % len(flips)] if flips else",
           ranking_tests("test_streamed_trees_equal_trees_built_alone_across_long_carries")),
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
           "_int_pieces(s[cut:])", "_int_pieces(s[cut + 1:])",
           cli_tests("test_decimal_pieces_match_builtin_conversion")),
    Mutant("parse_json without its RecursionError catch", "cli.py",
           "    except (json.JSONDecodeError, RecursionError) as exc:", "    except json.JSONDecodeError as exc:",
           cli_tests("test_hostile_bdd_text_exits_1[deep-json-bdd2tt]")),
    Mutant("_Parser keeping leftover arguments", "cli.py",
           "        if extras:\n", "        if False:\n",
           cli_tests("test_unknown_argument_names_the_nested_subcommand")),
    Mutant("bitmerge_unpair with _EVEN and _ODD swapped", "pairing.py",
           '    x = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4\n'
           '    y = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4\n',
           '    x = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4\n'
           '    y = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4\n',
           ("tests/test_pairing.py::test_bitmerge_examples",)),
    Mutant("cantor_unpair through a float square root", "pairing.py",
           "    w = (isqrt(8 * z + 1) - 1) // 2\n", "    w = (int((8 * z + 1) ** 0.5) - 1) // 2\n",
           ("tests/test_pairing.py::test_cantor_is_exact_at_2_pow_200",)),
    Mutant("check_table one bit off", "truthtab.py",
           "t.bit_length() <= 1 << nv)", "t.bit_length() <= (1 << nv) + 1)",
           ("tests/test_truthtab.py::test_check_table_takes_the_naturals_of_2_to_the_nv_bits",)),
    Mutant("_row_swap missing a repeat", "truthtab.py",
           "(*range(k + 1, j), *range(j + 1, nv))", "(*range(k + 1, j), *range(j + 2, nv))",
           ("tests/test_truthtab.py::test_reverse_rows_moves_each_row_to_its_reversed_index",)),
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
