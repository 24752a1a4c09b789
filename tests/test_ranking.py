import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import natbdd.bdd
from natbdd.bdd import LEAVES, Bdd, Ite, Leaf, ev, plain_bdd, plain_inverse_bdd, reduced_bdd
from natbdd.cli import parse_sexpr, render_sexpr
from natbdd.ranking import (
    RankPair,
    bdd2nat,
    bsum,
    enumerate_bdds,
    nat2bdd,
    nat2plain_bdd,
    plain_bdd2nat,
    to_bsum,
)
from natbdd.ranking import _rank
from natbdd.truthtab import size_text


def is_reduced(node):
    if isinstance(node, Leaf):
        return True
    return node.high != node.low and is_reduced(node.high) and is_reduced(node.low)


def test_bsum_values():
    assert [bsum(n) for n in range(6)] == [0, 2, 6, 22, 278, 65814]
    assert bsum(4) == 2 + 4 + 16 + 256


def test_bsum_rejects_negatives():
    with pytest.raises(ValueError):
        bsum(-1)


def test_bsum_is_held_to_the_guard():
    # bsum(n) is about 2**(2**(n-1)): bsum(26) is a 4 MiB number and bsum(36)
    # would take 4 GiB, so the guard refuses n first, with check_var_count's message
    want = "variable count exceeds the guard of {} (a table on n variables needs 2**n bits), got {}"
    tracemalloc.start()
    try:
        for n, max_nv in ((21, 20), (26, 20), (36, 20), (25, 24), (2**64, 20)):
            with pytest.raises(ValueError) as exc:
                bsum(n, max_nv)
            assert str(exc.value) == want.format(max_nv, size_text(n)), n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak
    assert bsum(21, 21) == bsum(20) + (1 << (1 << 20))
    # a rank calls bsum under the guard its caller was given
    assert bdd2nat(reduced_bdd(22, 5, 22), 22) == bsum(21, 21) + 5


def test_block_sizes():
    assert bsum(1) - bsum(0) == 2
    for k in range(1, 7):
        assert bsum(k + 1) - bsum(k) == 1 << (1 << k)


def test_to_bsum_examples():
    assert to_bsum(42) == RankPair(4, 20)
    assert to_bsum(0) == (1, 0)
    assert to_bsum(2) == (2, 0)
    assert to_bsum(3) == (2, 1)


def test_to_bsum_is_block_consistent():
    for n in range(3000):
        k, r = to_bsum(n)
        assert bsum(k - 1) <= n < bsum(k)
        assert r == n - bsum(k - 1)


def summed_to_bsum(n):
    # to_bsum as a cumulative sum over the block sizes, block by block
    k, start = 1, 0
    while n >= start + (1 << (1 << (k - 1))):
        start += 1 << (1 << (k - 1))
        k += 1
    return k, n - start


def test_to_bsum_equals_the_summing_loop():
    rng = random.Random(22)
    edges = [bsum(k) + d for k in range(13) for d in (-1, 0, 1) if bsum(k) + d >= 0]
    randoms = [rng.getrandbits(rng.randrange(1, 5000)) for _ in range(300)]
    for n in edges + randoms:
        assert to_bsum(n) == summed_to_bsum(n), n


def test_to_bsum_is_monotone():
    previous = to_bsum(0)
    for n in range(1, 3000):
        current = to_bsum(n)
        assert current >= previous
        previous = current


def test_unrank_examples():
    assert nat2plain_bdd(0) == plain_bdd(1, 0)
    assert nat2plain_bdd(3) == plain_bdd(2, 1)
    assert nat2plain_bdd(42) == plain_bdd(4, 20)
    assert nat2bdd(0) == Bdd(1, Leaf(0))
    assert nat2bdd(5) == Bdd(2, Ite(0, Leaf(1), Leaf(0)))
    assert nat2bdd(42) == reduced_bdd(4, 20)


def test_rank_examples():
    assert plain_bdd2nat(plain_bdd(1, 0)) == 0
    assert plain_bdd2nat(nat2plain_bdd(42)) == 42
    assert bdd2nat(Bdd(1, Leaf(0))) == 0
    assert bdd2nat(nat2bdd(42)) == 42


def test_roundtrip_sample():
    # the dense [0, 10^4] sweep is acceptance criterion 5
    for n in [*range(300), 997, 4242, 10**4, 10**6, 10**9]:
        assert plain_bdd2nat(nat2plain_bdd(n)) == n
        assert bdd2nat(nat2bdd(n)) == n


@given(n=st.integers(0, 10**30))
def test_roundtrip_random(n):
    assert plain_bdd2nat(nat2plain_bdd(n)) == n
    assert bdd2nat(nat2bdd(n)) == n


def test_rank_rejects_trees_outside_the_stream():
    # table 2 on one variable lies beyond that block's 2 entries
    with pytest.raises(ValueError):
        plain_bdd2nat(plain_bdd(1, 2))
    # a leaf bit other than 0 and 1 is refused by the fold, with the parsers' message
    with pytest.raises(ValueError, match=r"^leaf bit must be 0 or 1, got -1$"):
        plain_bdd2nat(Bdd(1, Ite(0, Leaf(-1), Leaf(0))))
    # constant true never occurs in the reduced stream
    with pytest.raises(ValueError):
        bdd2nat(Bdd(1, Leaf(1)))
    # there is no block for 0-variable trees
    with pytest.raises(ValueError):
        plain_bdd2nat(Bdd(0, Leaf(0)))
    with pytest.raises(ValueError):
        bdd2nat(Bdd(0, Leaf(1)))


NOT_REDUCED = "not a reduced tree: a node's two branches denote the same function"
INCOMPLETE = ("not a complete tree: every node must test the variable one below its parent's, "
              "with leaves below variable 0 only")


def test_reduced_rank_refuses_trees_that_are_not_reduced():
    # a plain tree that reduces shares its table with its reduced tree, and
    # so would share its rank; a leaf bit of 2 reads as 1 in ev
    with pytest.raises(ValueError) as exc:
        bdd2nat(nat2plain_bdd(5))
    assert str(exc.value) == NOT_REDUCED
    with pytest.raises(ValueError) as exc:
        bdd2nat(Bdd(1, Ite(0, Leaf(2), Leaf(0))))
    assert str(exc.value) == "leaf bit must be 0 or 1, got 2"
    # shared bottom nodes, nodes above them, and parsed trees, which share the
    # bottom too, reduced or not, ranked where they lie in the stream
    for n in [*range(300), bsum(5) + 12345, bsum(6) + 3**40]:
        plain, reduced = nat2plain_bdd(n), nat2bdd(n)
        for b in (plain, parse_sexpr(render_sexpr(plain))):
            if b == reduced:
                assert bdd2nat(b) == n
            else:
                with pytest.raises(ValueError) as exc:
                    bdd2nat(b)
                assert str(exc.value) == NOT_REDUCED, n
        assert bdd2nat(parse_sexpr(render_sexpr(reduced))) == n
    # a redundant node above the bottom, over one parsed bottom object twice
    below = "(ite 2 (c 1) (ite 0 (c 0) (c 1)))"
    with pytest.raises(ValueError) as exc:
        bdd2nat(parse_sexpr(f"(bdd 4 (ite 3 {below} {below}))"))
    assert str(exc.value) == NOT_REDUCED


def test_the_reduced_rank_checks_what_ev_left_unchecked():
    # ev without ``reduced`` checks neither leaf bits nor equal branches, so
    # a node it has evaluated is still checked when the reduced rank meets
    # it; each pair of calls runs twice, so a second call meets the nodes
    # that the first evaluated
    below = reduced_bdd(3, 0x96).root
    for node, want in ((Ite(3, below, below), NOT_REDUCED),
                       (Ite(4, below, Ite(3, Ite(2, Leaf(2), LEAVES[0]), below)), "leaf bit must be 0 or 1, got 2")):
        for _ in range(2):
            ev(Bdd(6, Ite(5, node, LEAVES[0])))
            with pytest.raises(ValueError) as exc:
                bdd2nat(Bdd(6, Ite(5, node, LEAVES[1])))
            assert str(exc.value) == want


def test_a_tree_the_rank_walks_refuse_is_not_kept():
    # plain ev reads any leaf bit but 0 as 1; the rank walks refuse the leaf,
    # and no walk keeps a memo across calls, so dropping the tree frees its
    # 10 MB leaf
    tracemalloc.start()
    try:
        b = Bdd(1, Ite(0, Leaf(1 << 8 * 10**7), LEAVES[0]))
        assert ev(b) == 1
        for rank in (bdd2nat, plain_bdd2nat):
            with pytest.raises(ValueError, match=r"^leaf bit must be 0 or 1, got a 80000001-bit number$"):
                rank(b)
        del b
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10, retained


def leaf_bits(node):
    if isinstance(node, Leaf):
        return {node.bit}
    return leaf_bits(node.high) | leaf_bits(node.low)


@st.composite
def ordered_trees(draw):
    """An ordered tree on 1 to 5 variables, reduced or not: random nodes,
    now and then a node with two equal branches or a leaf bit of 2, over
    reduced and complete trees of random tables, whose nodes on at most 3
    variables are the library's shared bottom."""

    def node(bound):  # a subtree testing only variables below bound
        pick = draw(st.integers(0, 39))
        if pick >= 38:
            return Leaf(2)
        if bound == 0 or pick < 12:
            return LEAVES[pick % 2]
        if pick < 20:
            build = reduced_bdd if pick < 16 else plain_bdd
            return build(bound, draw(st.integers(0, (1 << (1 << bound)) - 1))).root
        var = draw(st.integers(0, bound - 1))
        if pick == 37:
            twice = node(var)
            return Ite(var, twice, twice)
        return Ite(var, node(var), node(var))

    nv = draw(st.integers(1, 5))
    return Bdd(nv, node(nv))


@given(ordered_trees())
def test_reduced_rank_accepts_exactly_the_reduced_trees(b):
    table = ev(b)
    if b != reduced_bdd(b.nv, table):
        with pytest.raises(ValueError) as exc:
            bdd2nat(b)
        # a tree with a bad leaf may meet either fault first
        bad_leaf = {"leaf bit must be 0 or 1, got 2"} if 2 in leaf_bits(b.root) else set()
        assert str(exc.value) in {NOT_REDUCED} | bad_leaf
    elif table.bit_length() > 1 << (b.nv - 1):
        with pytest.raises(ValueError, match="^not in the enumeration"):
            bdd2nat(b)
    else:
        assert nat2bdd(bdd2nat(b)) == b


def test_unrank_resource_guard():
    with pytest.raises(ValueError):
        nat2plain_bdd(bsum(20))  # would need a 21-variable tree
    with pytest.raises(ValueError):
        nat2bdd(bsum(20))


def test_enumerate_matches_pointwise_unranking():
    assert list(enumerate_bdds("plain", 0, 8)) == [nat2plain_bdd(n) for n in range(8)]
    assert list(enumerate_bdds("reduced", 5, 7)) == [nat2bdd(n) for n in range(5, 12)]
    assert list(enumerate_bdds("reduced", 42, 1)) == [nat2bdd(42)]
    assert list(enumerate_bdds("plain", 0, 0)) == []


def assert_stream_equals_trees_built_alone(start, count, kinds=("plain", "reduced")):
    ranks = range(start, start + count)
    if "plain" in kinds:
        assert list(enumerate_bdds("plain", start, count)) == [nat2plain_bdd(n) for n in ranks], (start, count)
    if "reduced" in kinds:
        assert list(enumerate_bdds("reduced", start, count)) == [nat2bdd(n) for n in ranks], (start, count)


def test_streamed_trees_equal_trees_built_alone():
    # runs from inside blocks 1-3 across the ends of blocks 1-4 and 16, one
    # memo per block, and across the end of every block to 9, each block's
    # first table reversed once, from a start inside it or from table 0,
    # whose reduced tree is the 0-leaf
    runs = [(1, 30), (bsum(2) + 5, 40), (bsum(4) - 20, 40), (bsum(16) - 3, 6), (1, bsum(4) + 30)]
    runs += [(max(bsum(k) - 3, 0), 7) for k in range(1, 10)] + [(bsum(k), 3) for k in range(1, 10)]
    for start, count in runs:
        assert_stream_equals_trees_built_alone(start, count)
    assert list(enumerate_bdds("reduced", bsum(6), 1)) == [Bdd(7, LEAVES[0])]
    # at k=17 the reduced memo holds natural-order tables
    assert_stream_equals_trees_built_alone(bsum(16), 40, ("reduced",))
    # a tree past the guard raises its message where the stream reaches it
    for kind in ("plain", "reduced"):
        stream = enumerate_bdds(kind, bsum(4) - 2, 5, 4)
        assert [next(stream), next(stream)] == list(enumerate_bdds(kind, bsum(4) - 2, 2))
        with pytest.raises(ValueError) as exc:
            next(stream)
        assert str(exc.value) == "variable count exceeds the guard of 4 (a table on n variables needs 2**n bits), got 5"


def test_streamed_trees_equal_trees_built_alone_across_long_carries():
    # the stream carries its table in bit-reversed row order: from r - 1 to
    # r it flips rows 0 .. m-1, kept for m up to 16 and reversed alone above;
    # runs from just below r = 2**m - 1 cross carries of every length up to
    # 64 rows, and at k=7, m=64, the end of the block
    for k in (7, 8):
        for m in range(1, 65):
            assert_stream_equals_trees_built_alone(bsum(k - 1) + (1 << m) - 3, 5)


@given(st.integers(1, 9), st.integers(0, 1 << 70), st.integers(0, 70), st.integers(0, 40))
def test_streams_from_any_start_equal_trees_built_alone(k, bits, ones, count):
    # a start in block k, its index random or a run of trailing ones, so
    # that the stream meets short and long carries alike
    size = bsum(k) - bsum(k - 1)
    r = (bits | (1 << ones) - 1) % size
    assert_stream_equals_trees_built_alone(bsum(k - 1) + r, count)


def test_a_stream_reverses_one_table_per_block(monkeypatch):
    # no streamed tree reverses a whole table: each block's first table is
    # reversed once, and then only a carry of over 16 rows, the rows 0 ..
    # m-1 in which r - 1 and r differ
    for k in range(1, 9):
        natbdd.ranking._flips(k)  # kept already, so that only the stream's calls count
    calls = []
    reverse_rows = natbdd.ranking.reverse_rows
    monkeypatch.setattr(natbdd.ranking, "reverse_rows",
                        lambda t, nv, swaps: calls.append((t, nv)) or reverse_rows(t, nv, swaps))
    for kind in ("plain", "reduced"):
        for start in (bsum(6) + 12345, bsum(6) + (1 << 20) - 1000, bsum(7) - 100):
            calls.clear()
            for _ in enumerate_bdds(kind, start, 2000):
                pass
            expected = []
            for n in range(start, start + 2000):
                k, r = to_bsum(n)
                m = (r & -r).bit_length()
                if n == start or r == 0:
                    expected.append((r, k))
                elif m > 16:
                    expected.append(((1 << m) - 1, k))
            assert calls == expected, (kind, start)
            assert len(calls) == (1 if start == bsum(6) + 12345 else 2), (kind, start)


def ite_ids(node, seen):
    if isinstance(node, Ite) and id(node) not in seen:
        seen.add(id(node))
        ite_ids(node.high, seen)
        ite_ids(node.low, seen)
    return seen


def test_a_stream_shares_nodes_across_its_trees():
    # consecutive tables differ in a few rows, so the trees of a stream share
    # all but a few nodes: 130-170 distinct ites over 64 k=7 trees, against
    # 700 or more when each tree is built alone
    rng = random.Random(7)
    for kind in ("plain", "reduced"):
        for _ in range(3):
            start = bsum(6) + rng.randrange(bsum(7) - bsum(6) - 64)
            trees = list(enumerate_bdds(kind, start, 64))
            seen = set()
            for b in trees:
                ite_ids(b.root, seen)
            assert len(seen) < 256, (kind, start, len(seen))


def test_a_long_stream_holds_a_bounded_table():
    # the stream's memo is capped per level, so a long stream holds a few
    # trees' worth of tables, not every table it has met
    start = bsum(6) + random.Random(8).randrange(bsum(7) - bsum(6) - 10**4)
    for kind in ("plain", "reduced"):
        for _ in enumerate_bdds(kind, start, 8):
            pass
        tracemalloc.start()
        try:
            for _ in enumerate_bdds(kind, start, 5000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, (kind, peak)


def count_walk_calls(monkeypatch):
    """The calls of the two rank walks, recorded from now on."""
    calls = []
    for name in ("_ev_node", "_inverse_node"):
        walk = getattr(natbdd.bdd, name)
        monkeypatch.setattr(natbdd.bdd, name, lambda *args, walk=walk: calls.append(1) or walk(*args))
    return calls


def test_streams_rank_exactly_through_the_kept_memos(monkeypatch):
    # each tree a stream yields on at most 8 variables is recorded with its
    # rank, so ranking it back, across block ends too, reads the record and
    # walks no node, where a walk costs about 30 calls per k=7 tree
    calls = count_walk_calls(monkeypatch)
    rng = random.Random(24)
    for kind, rank in (("plain", plain_bdd2nat), ("reduced", bdd2nat)):
        # from the end of block 5 into block 6, then inside blocks 6-8
        for start in (bsum(5) - 1000, *(bsum(k - 1) + rng.getrandbits(1 << (k - 2)) for k in range(6, 9))):
            for n, b in enumerate(enumerate_bdds(kind, start, 2000), start):
                assert rank(b) == n, (kind, n)
            assert calls == [], (kind, start)


def test_a_streamed_tree_ranks_with_no_walk(monkeypatch):
    # the two kinds streamed side by side, each tree ranked once both have
    # yielded, as a user pairs them: the record holds both, so no walk runs
    calls = count_walk_calls(monkeypatch)
    start = bsum(6) + random.Random(28).randrange(bsum(7) - bsum(6) - 500)
    pairs = zip(enumerate_bdds("reduced", start, 500), enumerate_bdds("plain", start, 500))
    for n, (reduced, plain) in enumerate(pairs, start):
        assert (bdd2nat(reduced), plain_bdd2nat(plain)) == (n, n)
    assert calls == []
    # a tree built alone is walked: the record holds only streamed trees
    assert bdd2nat(nat2bdd(start)) == plain_bdd2nat(nat2plain_bdd(start)) == start
    assert calls


def rank_or_message(rank, b, max_nv=20):
    try:
        return rank(b, max_nv)
    except ValueError as exc:
        return str(exc)


def unrecorded(b):
    """``b`` over a copy of its root, which no stream recorded, so a rank walks it."""
    return Bdd(b.nv, type(b.root)(*b.root))


def test_streamed_trees_keep_the_rank_checks():
    # the record gives a rank only to a tree of the kind, the variable count
    # and the guard its stream yielded; every other tree over a streamed root
    # is walked, with the walk's checks and messages
    rng = random.Random(29)
    for k in (2, 3, 5, 7, 8):
        count = min(40, bsum(k) - bsum(k - 1))
        start = bsum(k - 1) + rng.randrange(bsum(k) - bsum(k - 1) - count + 1)
        for n, (reduced, plain) in enumerate(zip(enumerate_bdds("reduced", start, count),
                                                 enumerate_bdds("plain", start, count)), start):
            if plain != reduced:
                with pytest.raises(ValueError) as exc:
                    bdd2nat(plain)
                assert str(exc.value) == NOT_REDUCED, n
                with pytest.raises(ValueError) as exc:
                    plain_bdd2nat(reduced)
                assert str(exc.value) == INCOMPLETE, n
            for rank, b in ((bdd2nat, reduced), (plain_bdd2nat, plain)):
                wider = Bdd(k + 1, b.root)
                assert rank_or_message(rank, wider) == rank_or_message(rank, unrecorded(wider)), (rank, n)
                assert rank_or_message(rank, b, k - 1) == (
                    f"variable count exceeds the guard of {k - 1} (a table on n variables needs 2**n bits), got {k}")
                assert rank(b) == rank(unrecorded(b)) == n


def test_a_stream_above_8_variables_records_nothing(monkeypatch):
    # the record holds trees on at most 8 variables, so a k=9 tree is walked
    calls = count_walk_calls(monkeypatch)
    for kind, rank in (("plain", plain_bdd2nat), ("reduced", bdd2nat)):
        for n, b in enumerate(enumerate_bdds(kind, bsum(8) - 3, 6), bsum(8) - 3):
            entry = natbdd.ranking._record[kind].get(id(b.root))
            assert (entry is not None and entry[1:] == (b.nv, n)) == (b.nv <= 8), (kind, n)
            calls.clear()
            assert rank(b) == n
            assert bool(calls) == (b.nv > 8), (kind, n)


def test_threads_rank_distinct_streams_exactly():
    # each thread's ranks read the record that every stream writes, or walk
    # a tree whose entry another thread's replacement of the record dropped
    starts = [bsum(6) + 1234, bsum(7) - 700, bsum(7) + 3**40, bsum(5) + 999]
    ranks = {"plain": plain_bdd2nat, "reduced": bdd2nat}
    errors = []

    def rank_stream(kind, start):
        try:
            for n, b in enumerate(enumerate_bdds(kind, start, 1500), start):
                assert ranks[kind](b) == n, (kind, n)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rank_stream, args=(kind, start))
                   for kind, start in zip(["plain", "reduced"] * 2, starts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_plain_stream_prefix():
    assert list(enumerate_bdds("plain", 0, 2)) == [
        Bdd(1, Ite(0, Leaf(0), Leaf(0))),
        Bdd(1, Ite(0, Leaf(1), Leaf(0))),
    ]


def test_enumerated_reduced_trees_are_reduced():
    for b in enumerate_bdds("reduced", 0, 1000):
        assert is_reduced(b.root)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_bdds("robdd", 0, 1))
    with pytest.raises(ValueError):
        list(enumerate_bdds("plain", -1, 1))
    with pytest.raises(ValueError):
        list(enumerate_bdds("plain", 0, -1))


def test_rank_resource_guard():
    # the rank of an nv=40 tree lies past 2**(2**38), gigabytes wide: the
    # guard refuses the tree first, with ev's message
    b = Bdd(40, LEAVES[0])
    want = "variable count exceeds the guard of 20 (a table on n variables needs 2**n bits), got 40"
    for rank in (plain_bdd2nat, plain_inverse_bdd, bdd2nat):
        with pytest.raises(ValueError) as exc:
            rank(b)
        assert str(exc.value) == want, rank
    with pytest.raises(ValueError, match="exceeds the guard of 5"):
        plain_bdd2nat(plain_bdd(6, 0, 6), 5)


def test_rank_checks_the_block_by_bit_length():
    # constant true on 24 variables lies past its block, the tables below
    # 2**(2**23); a bound built to compare with would take 1 MiB
    index = (1 << (1 << 24)) - 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"holds the tables below 2\*\*8388608, got a 16777216-bit"):
            _rank(24, index)
        assert _rank(3, 15) == bsum(2) + 15
        with pytest.raises(ValueError, match=r"below 2\*\*4, got 16$"):
            _rank(3, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak
