import gc
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import natbdd.bdd
import natbdd.pairing
import natbdd.truthtab
from natbdd.bdd import (
    LEAVES,
    Bdd,
    Ite,
    Leaf,
    ev,
    plain_bdd,
    plain_inverse_bdd,
    reduce,
    reduced_bdd,
)
from natbdd.cli import parse_bdd, parse_json, parse_sexpr, render_json, render_sexpr
from natbdd.oracle import truth_table_of
from natbdd.pairing import bitmerge_pair, bitmerge_unpair
from natbdd.ranking import bdd2nat, bsum, enumerate_bdds, nat2plain_bdd, plain_bdd2nat
from natbdd.truthtab import reverse_rows, size_text, var_tt


def c(bit):
    return Leaf(bit)


def ite(var, high, low):
    return Ite(var, high, low)


def is_reduced(node):
    if isinstance(node, Leaf):
        return True
    return node.high != node.low and is_reduced(node.high) and is_reduced(node.low)


def test_plain_bdd_of_42():
    want = Bdd(
        3,
        ite(2,
            ite(1, ite(0, c(0), c(0)), ite(0, c(0), c(0))),
            ite(1, ite(0, c(1), c(1)), ite(0, c(1), c(0)))),
    )
    assert plain_bdd(3, 42) == want


def test_plain_bdd_small_cases():
    assert plain_bdd(0, 0) == Bdd(0, c(0))
    assert plain_bdd(0, 1) == Bdd(0, c(1))
    assert plain_bdd(1, 1) == Bdd(1, ite(0, c(1), c(0)))
    # high branch comes from the even bits, low from the odd bits
    assert plain_bdd(2, 1) == Bdd(2, ite(1, ite(0, c(1), c(0)), ite(0, c(0), c(0))))
    assert plain_bdd(2, 2) == Bdd(2, ite(1, ite(0, c(0), c(0)), ite(0, c(1), c(0))))


def unpair_tree(nv, tt):
    """The paper's construction, recursive unpairing: the reference for plain_bdd."""
    if nv == 0:
        return LEAVES[tt]
    hi, lo = bitmerge_unpair(tt)
    return Ite(nv - 1, unpair_tree(nv - 1, hi), unpair_tree(nv - 1, lo))


def test_plain_bdd_equals_recursive_unpairing():
    for nv in range(5):
        for tt in range(1 << (1 << nv)):
            assert plain_bdd(nv, tt) == Bdd(nv, unpair_tree(nv, tt)), (nv, tt)
    rng = random.Random(5)
    for nv in range(5, 13):
        ones = (1 << (1 << nv)) - 1
        for tt in (0, 1, ones, ones >> 1, ones ^ 1, *(rng.getrandbits(1 << nv) for _ in range(4))):
            assert plain_bdd(nv, tt) == Bdd(nv, unpair_tree(nv, tt)), (nv, tt)
    for nv in (16, 17):  # reverse_rows keeps its row-swap masks up to nv=16 only
        tt = rng.getrandbits(1 << nv)
        assert plain_bdd(nv, tt) == Bdd(nv, unpair_tree(nv, tt)), nv


def strided_subtables(nv, tt, v):
    """The distinct tables under the level-v positions of a complete tree:
    position p covers rows p, p + s, p + 2s, ... with s = 2**(nv-1-v)."""
    bits = format(tt, f"0{1 << nv}b")[::-1]  # bits[row], as text, sliced in C
    s = 1 << (nv - 1 - v)
    return {bits[p::s] for p in range(s)}


def ite_objects(root):
    """The distinct Ite objects of a tree, by identity."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Ite) and id(node) not in seen:
            seen[id(node)] = node
            stack += (node.high, node.low)
    return list(seen.values())


def small_and_random_tables(seed):
    tables = [(nv, tt) for nv in range(4) for tt in range(1 << (1 << nv))]
    rng = random.Random(seed)
    return tables + [(nv, rng.getrandbits(1 << nv)) for nv in range(4, 13) for _ in range(3)]


def independent_of(nv, tt, variables):
    """``tt`` with the rows where each of ``variables`` is 0 copied from
    those where it is 1, so the table no longer depends on them."""
    for k in variables:
        kept = tt & var_tt(nv, k)  # rows where variable k is 1
        tt = kept | kept << (1 << (nv - 1 - k))
    return tt


def tables_across_the_cutoff(seed):
    """Seeded tables on 15 to 18 variables, on both sides of the 16 up to
    which reduced_bdd splits in bit-reversed order: random, independent of
    some variables, and independent of all but 3."""
    rng = random.Random(seed)
    tables = []
    for nv in range(15, 19):
        tt = rng.getrandbits(1 << nv)
        some = rng.sample(range(nv), rng.randrange(1, nv))
        tables += [(nv, tt), (nv, independent_of(nv, tt, some)),
                   (nv, independent_of(nv, tt, rng.sample(range(nv), nv - 3)))]
    return tables


def test_plain_and_reduced_trees_share_equal_subtrees():
    for nv, tt in small_and_random_tables(6) + tables_across_the_cutoff(6):
        plain = plain_bdd(nv, tt)
        subtables = {v: strided_subtables(nv, tt, v) for v in range(nv)}
        # a level-v table depends on variable v when its even and odd rows differ
        beads = {v: sum(t[0::2] != t[1::2] for t in tables) for v, tables in subtables.items()}
        wanted = (
            (plain, {v: len(tables) for v, tables in subtables.items()}),
            (reduce(plain), beads),
            (reduced_bdd(nv, tt), beads),
        )
        for b, per_var in wanted:
            nodes = ite_objects(b.root)
            assert len(set(nodes)) == len(nodes), (nv, tt)  # no two equal objects
            assert Counter(node.var for node in nodes) == +Counter(per_var), (nv, tt)


def test_reduced_parity_has_two_nodes_per_variable_but_the_top():
    # parity's sub-tables at each variable below the top are the parity
    # function and its complement, so 2*20 - 1 distinct nodes, not 2**20 - 1
    nv = 20
    tt = 0
    for k in range(nv):
        tt ^= var_tt(nv, k)
    b = reduced_bdd(nv, tt)
    nodes = ite_objects(b.root)
    assert len(nodes) == 2 * nv - 1
    assert Counter(node.var for node in nodes) == {v: 1 if v == nv - 1 else 2 for v in range(nv)}
    assert ev(b) == tt


def reduce_reference(node):
    """Unmemoized recursive reduction: the reference for reduce."""
    if isinstance(node, Leaf):
        return node
    high, low = reduce_reference(node.high), reduce_reference(node.low)
    return high if high == low else Ite(node.var, high, low)


def tree_faults(b):
    """Every broken invariant of ``b``, one message per tree position, in
    depth-first order: leaf bits 0 or 1, each variable below its parent's and
    the root's below the variable count, which is a natural."""
    if b.nv < 0:
        yield f"variable count must be >= 0, got {size_text(b.nv)}"
        return
    stack = [(b.root, b.nv)]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Leaf):
            if node.bit not in (0, 1):
                yield f"leaf bit must be 0 or 1, got {size_text(node.bit)}"
            continue
        if not 0 <= node.var < bound:
            yield (f"variable {size_text(node.var)} breaks the strictly decreasing order "
                   f"(must lie in [0, {size_text(bound)}))")
        stack += ((node.low, node.var), (node.high, node.var))


def validate_reference(b):
    """The first fault of ``b`` raised as ``ValueError``, else ``b``: the
    reference for the checks the text parsers make as they build."""
    for fault in tree_faults(b):
        raise ValueError(fault)
    return b


def fold_reference(node):
    """Unmemoized recursive pairing fold: the reference for plain_inverse_bdd."""
    if isinstance(node, Leaf):
        return node.bit
    return bitmerge_pair(fold_reference(node.high), fold_reference(node.low))


INCOMPLETE = ("not a complete tree: every node must test the variable one below its parent's, "
              "with leaves below variable 0 only")


def assert_fold_refuses_as_incomplete(b):
    with pytest.raises(ValueError) as exc:
        plain_inverse_bdd(b)
    assert str(exc.value) == INCOMPLETE, b


def test_memoized_walks_equal_unmemoized_references(monkeypatch):
    built, reparsed, incomplete = [], [], []
    for nv, tt in small_and_random_tables(8):
        plain = plain_bdd(nv, tt)
        reduced = reduced_bdd(nv, tt)
        # a reduced tree is complete only when no level reduced away
        for b in (plain, reduced) if reduced == plain else (plain,):
            built.append(b)
            # reparsed trees share the bottom, and nothing above it
            reparsed.append(parse_sexpr(render_sexpr(b)))
        if reduced != plain:
            incomplete += (reduced, parse_sexpr(render_sexpr(reduced)))
    for shared in (ite(0, c(1), c(0)), ite(0, c(1), c(1))):
        # one node object under parents of variables 2 and 1
        incomplete.append(Bdd(3, ite(2, ite(1, shared, c(0)), shared)))
    # the ite objects of the complete trees on at most 3 variables: the
    # bottom that every call shares, folded once, at import
    bottom_trees = [plain_bdd(v, t) for v in range(4) for t in range(1 << (1 << v))]
    bottom = {id(node) for b in bottom_trees for node in ite_objects(b.root)}
    calls = []
    inverse_node = natbdd.bdd._inverse_node

    def counting_inverse_node(node, bound, memo):
        calls.append(1)
        return inverse_node(node, bound, memo)

    # the fold enters the root, then the two children of each distinct ite
    # object above the bottom once; without its memo it would enter each
    # tree position
    monkeypatch.setattr(natbdd.bdd, "_inverse_node", counting_inverse_node)
    for i, b in enumerate(built + reparsed + incomplete):
        assert reduce(b) == Bdd(b.nv, reduce_reference(b.root)), i
    # a reparsed tree holds the bottom objects too, so costs what the built one costs
    for i, b in enumerate(built + reparsed):
        nodes = ite_objects(b.root)
        assert all(id(node) in bottom for node in nodes if node.var < 3), i
        calls.clear()
        assert plain_inverse_bdd(b) == fold_reference(b.root), i
        assert len(calls) == 1 + 2 * sum(id(node) not in bottom for node in nodes), i
    for b in incomplete:
        assert_fold_refuses_as_incomplete(b)


def test_plain_trees_are_built_without_unpairing(monkeypatch):
    # plain_bdd never unpairs; the round trip through the fold checks it, but
    # the fold shares reverse_rows with plain_bdd, so the fold's independent
    # check is fold_reference, recursive pairing (the fold tests below)
    rng = random.Random(16)
    tables = [(nv, rng.getrandbits(1 << nv)) for nv in range(13) for _ in range(3)]

    def refuse(z):
        raise AssertionError("a plain tree was built through bitmerge_unpair")

    monkeypatch.setattr(natbdd.bdd, "bitmerge_unpair", refuse)
    for nv, tt in tables:
        assert plain_inverse_bdd(plain_bdd(nv, tt)) == tt
    for n, b in enumerate(enumerate_bdds("plain", 0, 40)):
        assert b == nat2plain_bdd(n)
        assert plain_bdd2nat(b) == n


OUT_OF_ORDER_TREES = [
    Bdd(3, ite(3, c(0), c(1))),  # variable at nv
    Bdd(3, ite(2, ite(5, c(0), c(1)), c(0))),  # variable above nv below the root
    Bdd(3, ite(2, ite(2, c(0), c(1)), c(0))),  # repeated variable
    Bdd(4, ite(1, ite(3, c(0), c(1)), c(0))),  # increasing variables
    Bdd(3, ite(2, ite(-1, c(0), c(1)), c(0))),  # negative variable
    Bdd(0, ite(0, c(0), c(1))),
]


def test_fold_equals_recursive_pairing_on_random_plain_trees():
    rng = random.Random(9)
    for nv in range(9, 13):
        for _ in range(2):
            tt = rng.getrandbits(1 << nv)
            plain = plain_bdd(nv, tt)
            for b in (plain, parse_sexpr(render_sexpr(plain))):
                assert plain_inverse_bdd(b) == fold_reference(b.root), (nv, tt)
            assert plain_inverse_bdd(plain) == tt
            reduced = reduced_bdd(nv, tt)
            assert reduced != plain
            assert_fold_refuses_as_incomplete(reduced)


def chain(var, depth, bit=1):
    """A tree of ``depth`` levels testing var, var - 1, ...: height ``depth``."""
    node = c(bit)
    for v in range(var - depth + 1, var + 1):
        node = ite(v, node, c(1 - bit))
    return node


def test_fold_refuses_short_children():
    # each tree has a child shorter than its sibling by 1 level, or by more;
    # recursive pairing would pad it, but no such tree is a plain tree
    full = plain_bdd(3, 0x5A).root  # height 3
    trees = [
        Bdd(3, ite(2, chain(1, 1), chain(1, 2))),  # high short by 1
        Bdd(3, ite(2, chain(1, 2, 0), chain(0, 1))),  # low short by 1
        Bdd(4, ite(3, c(1), full)),  # high short by 3
        Bdd(5, ite(4, full, chain(1, 1))),  # low short by 2
        Bdd(6, ite(5, chain(2, 1), ite(4, full, c(0)))),  # high short by 3, variables skipped
        Bdd(8, ite(7, chain(6, 7, 0), ite(3, chain(2, 3), c(1)))),  # low short by 3, and its low by 3
    ]
    for b in trees:
        assert_fold_refuses_as_incomplete(b)


def test_fold_of_a_node_shared_under_parents_of_different_heights():
    shared = ite(1, ite(0, c(0), c(1)), c(1))  # height 2
    trees = [
        Bdd(5, ite(4, ite(3, ite(2, shared, c(0)), shared), ite(2, c(1), shared))),
        # one object, 1 level short under one parent and 2 under another
        Bdd(5, ite(4, ite(3, shared, chain(2, 3)), shared)),
    ]
    for b in trees:
        assert_fold_refuses_as_incomplete(b)


def shared_under_a_lower_parent():
    """One node object under two parents, the second testing a variable below it."""
    shared = ite(2, c(0), c(1))
    return Bdd(5, ite(4, shared, ite(1, shared, c(0))))


def complete_node_shared(lower, v=1):
    """A complete node on variable v, folded first under a node on variable
    v + 1, then shared under a node on variable v (``lower``) or v + 2: the
    fold checks it under each parent, not only when it first folds it."""
    shared = plain_bdd(v + 1, 6).root
    if lower:
        return Bdd(v + 2, ite(v + 1, shared, ite(v, shared, shared)))
    return Bdd(v + 3, ite(v + 2, ite(v + 1, shared, shared), shared))


@pytest.mark.parametrize("b,max_nv", [
    *((b, 20) for b in OUT_OF_ORDER_TREES),
    (shared_under_a_lower_parent(), 20),
    (Bdd(21, c(0)), 20),
    (Bdd(5, ite(4, c(0), c(1))), 4),
    (Bdd(-1, c(0)), 20),
    (complete_node_shared(lower=True), 20),
    # a shared bottom node under a parent on its own variable
    (Bdd(4, ite(3, ite(2, plain_bdd(3, 5).root, plain_bdd(2, 1).root), plain_bdd(3, 5).root)), 20),
    # a complete node above the bottom, checked under each parent before the memo lookup
    (complete_node_shared(lower=True, v=4), 20),
])
def test_fold_refuses_what_ev_refuses_with_its_message(b, max_nv):
    with pytest.raises(ValueError) as want:
        ev(b, max_nv)
    with pytest.raises(ValueError) as got:
        plain_inverse_bdd(b, max_nv)
    # these break completeness above their misordered node, and the fold,
    # walking from the root, meets that first
    if b in (OUT_OF_ORDER_TREES[3], shared_under_a_lower_parent()):
        assert str(got.value) == INCOMPLETE
    else:
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("b,max_nv,want", [
    (reduced_bdd(3, 42), 20, INCOMPLETE),
    (Bdd(2, ite(1, ite(0, c(1), c(0)), c(1))), 20, INCOMPLETE),
    (Bdd(3, ite(2, ite(0, c(1), c(0)), plain_bdd(2, 9).root)), 20, INCOMPLETE),
    (Bdd(24, ite(23, c(1), c(0))), 24, INCOMPLETE),
    (complete_node_shared(lower=False), 20, INCOMPLETE),
    (reduced_bdd(24, 1, 24), 24, INCOMPLETE),
    (Bdd(1, ite(0, c(2), c(0))), 20, "leaf bit must be 0 or 1, got 2"),
    (Bdd(2, ite(1, plain_bdd(1, 1).root, ite(0, c(0), c(2**64)))), 20,
     "leaf bit must be 0 or 1, got a 65-bit number"),
    # shared bottom nodes: reduced under a hand-built parent, beside a look-alike, a level low
    (Bdd(4, ite(3, reduced_bdd(3, 42).root, plain_bdd(3, 5).root)), 20, INCOMPLETE),
    (Bdd(2, ite(1, plain_bdd(1, 1).root, ite(0, c(2), c(0)))), 20, "leaf bit must be 0 or 1, got 2"),
    (Bdd(4, ite(3, plain_bdd(2, 6).root, plain_bdd(3, 1).root)), 20, INCOMPLETE),
    (complete_node_shared(lower=False, v=4), 20, INCOMPLETE),
], ids=["reduced-42", "leaf-above-variable-0", "skips-variable-1", "one-node-on-variable-23",
        "shared-under-a-higher-parent", "chain-of-24", "leaf-bit-2", "leaf-bit-65-bits",
        "reduced-bottom-under-a-hand-built-parent", "leaf-bit-2-beside-a-bottom-node",
        "bottom-node-a-level-low", "shared-above-the-bottom-under-a-higher-parent"])
def test_fold_and_plain_rank_refuse_trees_without_a_plain_rank(b, max_nv, want):
    # refused as the walk meets them, before any table as wide as 2**(var+1)
    # bits is built: 2 MiB masks at variable 23, 7.5 MiB traced when a
    # full-height chain was folded by padding
    for fold in (plain_inverse_bdd, plain_bdd2nat):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                fold(b, max_nv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == want, fold
        assert peak < 1 << 20, (fold, peak)


def test_complete_trees_fold_without_pairing(monkeypatch):
    # in bit-reversed row order the fold of a complete tree is concatenation
    # alone; both names are patched, so a fold that pairs fails however it
    # reaches bitmerge_pair
    rng = random.Random(13)
    tables = [(nv, rng.getrandbits(1 << nv)) for nv in range(13)]
    plains = list(enumerate_bdds("plain", 0, 60))

    def refuse(*args):
        raise AssertionError("a complete tree was folded through bitmerge_pair")

    monkeypatch.setattr(natbdd.bdd, "bitmerge_pair", refuse, raising=False)
    monkeypatch.setattr(natbdd.pairing, "bitmerge_pair", refuse)
    for nv, tt in tables:
        assert plain_inverse_bdd(plain_bdd(nv, tt)) == tt
    for n, b in enumerate(plains):
        assert plain_bdd2nat(b) == n


def mixed_tree(rng, v, t, bottoms):
    """The tree of table ``t`` on ``v`` variables by recursive unpairing,
    hand-built down to where, at random at or below variable 3, it takes
    the subtree that one of ``bottoms`` returns."""
    if not v or v <= 3 and rng.randrange(2):
        return rng.choice(bottoms)(v, t)
    hi, lo = bitmerge_unpair(t)
    return Ite(v - 1, mixed_tree(rng, v - 1, hi, bottoms), mixed_tree(rng, v - 1, lo, bottoms))


def test_walks_on_trees_mixing_shared_bottom_nodes_and_hand_built_ones():
    # the shared bottom nodes carry results made at import; hand-built
    # nodes, equal to them or not, are walked as they always were
    def plain_root(v, t):
        return plain_bdd(v, t).root

    def reduced_root(v, t):
        return reduced_bdd(v, t).root

    rng = random.Random(18)
    for nv in range(1, 9):
        for _ in range(6):
            tt = rng.getrandbits(1 << nv)
            complete = Bdd(nv, mixed_tree(rng, nv, tt, (plain_root, unpair_tree)))
            mixed = Bdd(nv, mixed_tree(rng, nv, tt, (plain_root, reduced_root, unpair_tree)))
            assert complete == plain_bdd(nv, tt)
            assert plain_inverse_bdd(complete) == fold_reference(complete.root) == tt
            for b in (complete, mixed):
                assert ev(b) == truth_table_of(b) == tt
                assert reduce(b) == Bdd(nv, reduce_reference(b.root))
            if mixed == complete:
                assert plain_inverse_bdd(mixed) == tt
            else:
                assert_fold_refuses_as_incomplete(mixed)


def test_ev_swaps_the_row_pairs_of_exactly_the_variables_a_tree_tests(monkeypatch):
    # at every nv ev leaves out the row swap of each variable pair that the
    # tree never tests; a shared bottom node is not walked, so the variables
    # it tests are marked from what import recorded for it
    rng = random.Random(19)
    swaps = []

    def recording_reverse_rows(t, nv, pairs):
        swaps.append(list(pairs))
        return reverse_rows(t, nv, swaps[-1])

    monkeypatch.setattr(natbdd.bdd, "reverse_rows", recording_reverse_rows)
    for nv in range(4, 13):
        pairs = rng.sample(range(3), rng.randint(1, 2))  # both variables of row pairs k, nv-1-k
        for chosen in (
            rng.sample(range(4), rng.randint(1, 4)),
            rng.sample(range(nv - 4, nv), rng.randint(1, 3)),
            [j for k in pairs for j in (k, nv - 1 - k)],
            [],
        ):
            tt = rng.getrandbits(1 << nv)
            for k in chosen:  # made independent of variable k
                kept = tt & var_tt(nv, k)
                tt = kept | kept << (1 << (nv - 1 - k))
            b = reduced_bdd(nv, tt)
            tested = {node.var for node in ite_objects(b.root)}
            swaps.clear()
            assert ev(b) == truth_table_of(b) == tt, (nv, chosen)
            assert swaps == [[k for k in range(nv // 2) if k in tested or nv - 1 - k in tested]], (nv, chosen)


def test_plain_bdd_range_errors():
    with pytest.raises(ValueError):
        plain_bdd(1, 4)
    with pytest.raises(ValueError):
        plain_bdd(0, 2)
    with pytest.raises(ValueError):
        plain_bdd(2, -1)
    with pytest.raises(ValueError):
        plain_bdd(21, 0)
    with pytest.raises(ValueError):
        plain_bdd(-1, 0)


def test_reduced_bdd_examples():
    assert reduced_bdd(2, 0) == Bdd(2, c(0))
    assert reduced_bdd(2, 1) == Bdd(2, ite(1, ite(0, c(1), c(0)), c(0)))
    assert reduced_bdd(2, 2) == Bdd(2, ite(1, c(0), ite(0, c(1), c(0))))
    assert reduced_bdd(2, 3) == Bdd(2, ite(0, c(1), c(0)))
    assert reduced_bdd(2, 13) == Bdd(2, ite(1, c(1), ite(0, c(0), c(1))))
    assert reduced_bdd(2, 14) == Bdd(2, ite(1, ite(0, c(0), c(1)), c(1)))
    assert reduced_bdd(2, 15) == Bdd(2, c(1))
    assert reduced_bdd(3, 42) == Bdd(3, ite(2, c(0), ite(1, c(1), ite(0, c(1), c(0)))))


def test_reduced_bdd_equals_reduced_plain_tree_random():
    # the exhaustive nv <= 4 sweep lives in acceptance criterion 2; here
    # seeded tables are made independent of some variables, so whole levels
    # and constant subtables reduce away
    rng = random.Random(12)
    for nv in range(13):
        for _ in range(6):
            tt = independent_of(nv, rng.getrandbits(1 << nv), rng.sample(range(nv), rng.randrange(nv + 1)))
            assert reduced_bdd(nv, tt) == reduce(plain_bdd(nv, tt)), (nv, tt)
    for nv, tt in tables_across_the_cutoff(12):
        assert reduced_bdd(nv, tt) == reduce(plain_bdd(nv, tt)), nv


@pytest.mark.parametrize(
    "nv,tt,max_nv",
    [(1, 4, 20), (0, 2, 20), (2, -1, 20), (21, 0, 20), (-1, 0, 20), (5, 0, 4)],
)
def test_reduced_bdd_range_errors_match_plain_bdd(nv, tt, max_nv):
    with pytest.raises(ValueError) as plain_error:
        plain_bdd(nv, tt, max_nv)
    with pytest.raises(ValueError) as reduced_error:
        reduced_bdd(nv, tt, max_nv)
    assert str(reduced_error.value) == str(plain_error.value)


@pytest.mark.parametrize("k", [5, 10, 19, 15, 16])
def test_reduced_bdd_work_follows_the_reduced_tree(monkeypatch, k):
    # one variable's column at nv=20: a plain tree would take 2**20 - 1
    # unpairings; the reduced build unpairs once per level above both the
    # variable and the 16 levels split in bit-reversed order, and reverses
    # the 2**16-bit table once if the variable lies among those levels
    nv = 20
    tt = var_tt(nv, k)
    unpairs, reversals = [], []

    def counting_unpair(z):
        unpairs.append(z.bit_length())
        return bitmerge_unpair(z)

    def counting_reverse(t, n, swaps):
        reversals.append(n)
        return reverse_rows(t, n, swaps)

    monkeypatch.setattr(natbdd.bdd, "bitmerge_unpair", counting_unpair)
    monkeypatch.setattr(natbdd.bdd, "reverse_rows", counting_reverse)
    assert reduced_bdd(nv, tt) == Bdd(nv, ite(k, c(1), c(0)))
    assert len(unpairs) == nv - max(k, 16)
    assert reversals == ([16] if k < 16 else [])


def test_reduce_is_idempotent():
    for nv in range(4):
        for tt in range(1 << (1 << nv)):
            once = reduced_bdd(nv, tt)
            assert reduce(once) == once


def test_reduced_trees_have_no_equal_branches():
    for nv in range(4):
        for tt in range(1 << (1 << nv)):
            assert is_reduced(reduced_bdd(nv, tt).root)


def test_distinct_tables_give_distinct_reduced_trees():
    for nv in range(4):
        size = 1 << (1 << nv)
        assert len({reduced_bdd(nv, tt) for tt in range(size)}) == size


def test_plain_inverse_examples():
    assert plain_inverse_bdd(plain_bdd(3, 42)) == 42
    assert plain_inverse_bdd(Bdd(0, c(0))) == 0
    for tt in range(16):
        assert plain_inverse_bdd(plain_bdd(2, tt)) == tt


def test_ev_examples():
    assert ev(plain_bdd(3, 42)) == 42
    assert ev(reduced_bdd(3, 42)) == 42
    assert ev(Bdd(2, c(1))) == 15
    assert ev(Bdd(0, c(1))) == 1
    assert ev(Bdd(0, c(0))) == 0


def test_ev_never_folds_through_pairing(monkeypatch):
    # ev must stay independent of the construction it is meant to invert
    rng = random.Random(7)
    tables = [(nv, rng.getrandbits(1 << nv)) for nv in range(8) for _ in range(3)]
    trees = [(tt, build(nv, tt)) for nv, tt in tables for build in (plain_bdd, reduced_bdd)]

    def refuse(*args):
        raise AssertionError("ev went through the pairing fold")

    monkeypatch.setattr(natbdd.bdd, "bitmerge_pair", refuse, raising=False)
    monkeypatch.setattr(natbdd.pairing, "bitmerge_pair", refuse)
    monkeypatch.setattr(natbdd.bdd, "bitmerge_unpair", refuse)
    for tt, b in trees:
        assert ev(b) == tt


def test_ev_builds_no_full_width_column(monkeypatch):
    # each node's table is built at its own width, so no variable's
    # 2**nv-bit column is ever made
    calls = []

    def counting_var_tt(nv, k, max_nv=natbdd.truthtab.DEFAULT_MAX_VARS):
        calls.append(k)
        return var_tt(nv, k, max_nv)

    monkeypatch.setattr(natbdd.bdd, "var_tt", counting_var_tt, raising=False)
    monkeypatch.setattr(natbdd.truthtab, "var_tt", counting_var_tt)
    # variables 5 and 2 are tested on two paths each
    b = Bdd(10, ite(9, ite(5, ite(2, c(1), c(0)), c(0)), ite(5, c(0), ite(2, c(0), c(1)))))
    assert ev(b) == truth_table_of(b)
    assert calls == []


def test_ev_agrees_with_the_oracle_on_every_table_up_to_4_variables():
    for nv in range(5):
        for tt in range(1 << (1 << nv)):
            plain = plain_bdd(nv, tt)
            # reduced_bdd's shared tree, reduce's, and its reparse, which
            # shares only the leaves, are equal values, so the oracle, a
            # function of the value, is asked once for all of them
            reduced = reduced_bdd(nv, tt)
            unshared = parse_sexpr(render_sexpr(reduced))
            assert truth_table_of(plain) == truth_table_of(reduced) == tt
            assert ev(plain) == ev(reduced) == ev(reduce(plain)) == ev(unshared) == tt


def test_ev_agrees_with_the_oracle_on_random_tables():
    rng = random.Random(512)
    for nv in range(5, 13):
        for _ in range(3):
            tt = rng.getrandbits(1 << nv)
            plain = plain_bdd(nv, tt)
            want = truth_table_of(plain)
            assert want == tt
            reduced = reduced_bdd(nv, tt)
            for b in (plain, reduced, reduce(plain), parse_sexpr(render_sexpr(reduced))):
                assert ev(b) == want


def test_ev_on_hand_built_trees():
    shared = ite(1, c(0), c(1))
    trees = [
        Bdd(5, c(0)),
        Bdd(5, c(1)),
        Bdd(6, ite(3, ite(1, c(1), c(0)), ite(0, c(0), c(1)))),  # root below nv-1
        Bdd(7, ite(5, ite(3, c(1), c(0)), ite(1, c(0), c(1)))),  # skips 1 and 3 variables
        Bdd(7, ite(6, ite(4, shared, c(1)), ite(2, c(0), shared))),  # one node, two parents
        Bdd(1, ite(0, c(0), c(1))),
    ]
    for b in trees:
        assert ev(b) == truth_table_of(b), b
    assert ev(trees[0]) == 0
    assert ev(trees[1]) == (1 << 32) - 1


@pytest.mark.parametrize("b", OUT_OF_ORDER_TREES)
def test_ev_rejects_trees_out_of_order_or_range(b):
    with pytest.raises(ValueError, match="strictly decreasing order") as reference:
        validate_reference(b)
    for text in (render_sexpr(b), render_json(b)):
        with pytest.raises(ValueError) as parsed:
            parse_bdd(text)
        if text.startswith("{") or "-" not in text:  # "-1" is no s-expression numeral: malformed
            assert str(parsed.value) == str(reference.value), text
    with pytest.raises(ValueError, match="strictly decreasing order"):
        ev(b)


def test_ev_checks_every_parent_of_a_shared_node():
    # the second parent of the shared node tests a variable below it
    shared = ite(2, c(0), c(1))
    with pytest.raises(ValueError, match="strictly decreasing order"):
        ev(Bdd(5, ite(4, shared, ite(1, shared, c(0)))))


def test_ev_memory_stays_near_the_table_width():
    # a full-width table per distinct node would hold about 68 MB at nv=16
    tt = random.Random(16).getrandbits(1 << 16)
    b = reduce(plain_bdd(16, tt))
    tracemalloc.start()
    try:
        assert ev(b) == tt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_plain_bdd_memory_stays_under_6_mib_at_nv18():
    # one memo entry per distinct sub-table of each level: about 4.6 MiB at
    # nv=18, 6.3 MiB when the memo is keyed on (level, table) tuples
    tt = random.Random(18).getrandbits(1 << 18)
    tracemalloc.start()
    try:
        b = plain_bdd(18, tt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert ev(b) == tt


def test_reduced_bdd_memory_stays_under_5_5_mib_at_nv18():
    # beads in one dict per level, as plain_bdd keeps its sub-tables: about
    # 4.6 MiB at nv=18, 6.2-6.4 MiB when the memo is keyed on (level, table)
    tt = random.Random(18).getrandbits(1 << 18)
    tracemalloc.start()
    try:
        b = reduced_bdd(18, tt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11 << 19
    assert ev(b) == tt


def test_ev_and_validate_leave_no_reference_cycles():
    # garbage cycles would be freed by the collector during some later call
    # the memos of reduce and plain_inverse_bdd must not be such cycles, and
    # neither must the parsers' stacks of forms checked as they are built
    tt = random.Random(3).getrandbits(1 << 12)
    b = reduced_bdd(12, tt)
    texts = (render_sexpr(b), render_json(b))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert ev(b) == tt
        for text in texts:
            assert parse_bdd(text) == b
        plain = plain_bdd(12, tt)
        assert reduce(plain) == b
        assert plain_inverse_bdd(plain) == tt
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_kept_memos_never_mistake_a_new_node_for_a_dropped_one():
    # a parsed tree shares only the leaves, so dropping it frees all its
    # nodes, and the next tree's nodes can take their ids; the walks keep no
    # memo across calls, so no id from an earlier call can name a new node
    rng = random.Random(24)
    for i in range(3000):
        nv = rng.randint(4, 8)
        tt = rng.getrandbits(1 << nv)
        if i % 3 == 2:
            b = parse_sexpr(render_sexpr(reduced_bdd(nv, tt)))
            assert ev(b, reduced=True) == tt, (i, nv, tt)
        else:
            b = parse_sexpr(render_sexpr(plain_bdd(nv, tt)))
            assert (ev(b) if i % 3 else plain_inverse_bdd(b)) == tt, (i, nv, tt)
        del b


def test_kept_memos_retain_a_bounded_memory():
    # the walks keep no memo across calls, so one tree walked over and over
    # retains nothing; the stream's record, the one state kept, is replaced
    # once a kind's part holds 256 trees, so a k=8 stream of 20 000 trees of
    # each kind, ranked as it is yielded and then dropped, retains about
    # 60 KiB, against megabytes with no bound
    rng = random.Random(25)
    tt = rng.getrandbits(256)
    b, plain = reduced_bdd(8, tt), plain_bdd(8, tt)
    start = bsum(7) + rng.getrandbits(100)
    tracemalloc.start()
    try:
        for _ in range(100):
            assert ev(b) == ev(b, reduced=True) == plain_inverse_bdd(plain) == tt
        streams = zip(enumerate_bdds("reduced", start, 20000), enumerate_bdds("plain", start, 20000))
        for n, trees in enumerate(streams, start):
            assert (bdd2nat(trees[0]), plain_bdd2nat(trees[1])) == (n, n)
        del streams, trees
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 256 << 10, retained


def test_walks_above_8_variables_keep_no_memo():
    # no walk keeps a memo across calls, at any width: a call's memo is its
    # own, freed when it returns (a parsed nv=8 tree has 511 distinct nodes)
    rng = random.Random(26)
    tt, small = rng.getrandbits(1 << 16), rng.getrandbits(1 << 8)
    plain, reduced = plain_bdd(16, tt), reduced_bdd(16, tt)
    parsed = parse_sexpr(render_sexpr(plain_bdd(8, small)))
    assert ev(reduced, reduced=True) == plain_inverse_bdd(plain) == tt
    assert ev(parsed) == plain_inverse_bdd(parsed) == small
    tracemalloc.start()
    try:
        assert ev(reduced, reduced=True) == plain_inverse_bdd(plain) == tt
        assert ev(parsed) == plain_inverse_bdd(parsed) == small
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 16 << 10, retained


def test_roundtrips_exhaustive_small():
    # the full desk-scale sweep (nv <= 4) lives in the acceptance suite
    for nv in range(3):
        for tt in range(1 << (1 << nv)):
            b = plain_bdd(nv, tt)
            assert ev(b) == tt
            assert plain_inverse_bdd(b) == tt
            assert ev(reduce(b)) == tt


@given(nv=st.integers(0, 6), data=st.data())
def test_roundtrips_random(nv, data):
    tt = data.draw(st.integers(0, (1 << (1 << nv)) - 1))
    b = plain_bdd(nv, tt)
    assert ev(b) == tt
    assert plain_inverse_bdd(b) == tt
    assert ev(reduce(b)) == tt


def leaf_ids(node):
    if isinstance(node, Leaf):
        return {id(node)}
    return leaf_ids(node.high) | leaf_ids(node.low)


def test_trees_share_the_two_leaves():
    # a complete tree at nv=10 has 1024 leaf positions, all filled by LEAVES
    shared = {id(leaf) for leaf in LEAVES}
    tt = random.Random(10).getrandbits(1 << 10)
    for b in (plain_bdd(10, tt), reduced_bdd(10, tt), plain_bdd(0, 1), reduced_bdd(3, 0)):
        for parsed in (b, parse_sexpr(render_sexpr(b)), parse_json(render_json(b))):
            assert parsed == b
            assert leaf_ids(parsed.root) <= shared


def test_nodes_are_immutable():
    b = plain_bdd(1, 1)
    for obj, field in ((b, "nv"), (b.root, "var"), (b.root, "high"), (b.root.low, "bit")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    assert b == Bdd(1, ite(0, c(1), c(0)))


def test_node_kinds_never_compare_equal():
    values = [c(0), c(1), ite(0, c(1), c(0)), Bdd(0, c(0)), Bdd(1, c(1)), Bdd(1, ite(0, c(0), c(1)))]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert (x == y) == (i == j), (x, y)


def test_validate_accepts_library_trees():
    for n in (0, 1, 42, 255):
        for b in (plain_bdd(4, n), reduced_bdd(4, n)):
            assert validate_reference(b) is b
            assert parse_bdd(render_sexpr(b)) == b
            assert parse_bdd(render_json(b)) == b


# injected faults: numerals just past their bound and past 64 bits, which a
# message names by bit length
FAULTY_BITS = st.sampled_from([2, 3, 2**64 - 1, 2**64, 10**40])


@st.composite
def faulty_trees(draw):
    """A random tree on at most 6 variables, ordered but for faults injected
    at random positions: a leaf bit above 1, or an ite variable at or above
    its parent's, or at or above the variable count at the root."""

    def node(bound):  # a subtree meant to test only variables below bound
        pick = draw(st.integers(0, 19))
        if pick == 18:
            return c(draw(FAULTY_BITS))
        if pick == 19:  # its children test variables below bound, so below it
            var = bound + draw(st.sampled_from([0, 1, 2**64]))
            return ite(var, node(bound), node(bound))
        if bound == 0 or pick < 6:
            return c(pick % 2)
        var = draw(st.integers(0, bound - 1))
        return ite(var, node(var), node(var))

    nv = draw(st.integers(0, 6))
    return Bdd(nv, node(nv))


@given(faulty_trees())
def test_parsers_reject_exactly_the_trees_the_reference_rejects(b):
    faults = list(tree_faults(b))
    for text in (render_sexpr(b), render_json(b)):
        if not faults:
            parsed = parse_bdd(text)
            assert parsed == b
            assert leaf_ids(parsed.root) <= {id(leaf) for leaf in LEAVES}
            continue
        with pytest.raises(ValueError) as exc:
            parse_bdd(text)
        # one of the faults, so with one fault, the reference's message
        assert str(exc.value) in faults, text


def test_validate_rejects_broken_trees():
    broken = (
        Bdd(1, c(2)),
        Bdd(1, ite(1, c(0), c(1))),
        Bdd(2, ite(1, ite(1, c(0), c(1)), c(0))),
        Bdd(-1, c(0)),
    )
    for b in broken:
        with pytest.raises(ValueError):
            validate_reference(b)
        for text in (render_sexpr(b), render_json(b)):
            with pytest.raises(ValueError):
                parse_bdd(text)
