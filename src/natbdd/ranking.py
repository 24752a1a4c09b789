"""Ranking and unranking: a bijection between naturals and a stream of BDDs.

Ranks are laid out in blocks, one block per variable count k = 1, 2, 3, ...
The block for k holds the trees of the truth tables 0 .. 2**(2**(k-1)) - 1
on k variables -- deliberately only the tables that fit in *half* the
2**(2**k)-bit space, reproducing the cumulative sums bsum(0)=0, bsum(1)=2,
bsum(k+1) = bsum(k) + 2**(2**k).  The enumeration is therefore a bijection
between the naturals and this indexed family, not between the naturals and
all (variable count, table) pairs.

Plain trees rank via the structural fold, reduced trees via boolean
evaluation; both place rank n at bsum(k-1) + local index.  A stream
(:func:`enumerate_bdds`) carries its table from tree to tree, and records
the rank of each tree it yields on at most 8 variables, so ranking that
tree back reads the record instead of walking it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .bdd import Bdd, Node, _plain_node, _reduced_node, _reduced_split, ev, plain_bdd, plain_inverse_bdd, reduced_bdd
from .truthtab import DEFAULT_MAX_VARS, MAX_VARS_CEILING, check_var_count, count_text, reverse_rows, size_text
from .truthtab import _CACHED_SWAP_NV


class RankPair(NamedTuple):
    k: int  # variable count of the block
    r: int  # index within the block


def bsum(n: int, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Cumulative size of the rank blocks for variable counts below ``n``:
    about 2**(2**(n-1)), so ``n`` is held to the ``max_nv`` guard."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {size_text(n)}")
    check_var_count(n, max_nv)
    return _bsum(n)


def _bsum(n: int) -> int:
    # bsum without the guard, as to_bsum needs it for any rank; the sums a
    # guard allows are kept, each built on first use (bsum(24) takes 1 MiB)
    return (_kept_bsum if n <= MAX_VARS_CEILING else _kept_bsum.__wrapped__)(n)


@lru_cache(maxsize=None)
def _kept_bsum(n: int) -> int:
    return sum(map(_block_size, range(1, n + 1)))


def _block_size(k: int) -> int:
    # bsum(k) - bsum(k-1) for k >= 1
    return 1 << (1 << (k - 1))


def to_bsum(n: int) -> RankPair:
    """Decompose rank ``n`` into (variable count, index within its block).

    The block is told by ``n``'s bit length: bsum(k) has 2**(k-1) + 1 bits
    for k >= 1, so the first k whose bsum has at least as many bits as ``n``
    is ``n``'s block or the one before it, and one comparison decides.
    """
    if n < 0:
        raise ValueError(f"expected a natural number, got {size_text(n)}")
    k = max(n.bit_length() - 2, 0).bit_length() + 1
    r = n - _bsum(k - 1)
    size = _block_size(k)
    return RankPair(k + 1, r - size) if r >= size else RankPair(k, r)


def nat2plain_bdd(n: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """Unrank ``n`` to a plain (complete) tree."""
    k, r = to_bsum(n)
    return plain_bdd(k, r, max_nv)


def nat2bdd(n: int, max_nv: int = DEFAULT_MAX_VARS) -> Bdd:
    """Unrank ``n`` to a reduced tree."""
    k, r = to_bsum(n)
    return reduced_bdd(k, r, max_nv)


def plain_bdd2nat(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Rank of a plain tree: block start plus its structural fold.

    The tree must be complete, as :func:`plain_bdd` builds it: every node
    tests the variable one below its parent's and leaves stand only below
    variable 0.  What is checked, in this order: the variable count lies in
    the enumeration, then the fold's checks (:func:`plain_inverse_bdd`:
    the ``max_nv`` guard, then variable order, completeness and leaf bits
    node by node), then the fold lies in the block.  So any tree without a
    plain rank is refused, never given a rank that unranks to another tree.
    A root that a plain stream has just yielded on ``b.nv`` variables, within
    the guard, has its rank read from the stream's record, with no walk.
    """
    rank = _recorded_rank(b, "plain", max_nv)
    if rank is not None:
        return rank
    _check_block(b.nv)  # before the fold, whose guard has its own message for a negative count
    return _rank(b.nv, plain_inverse_bdd(b, max_nv))


def bdd2nat(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Rank of a reduced tree: block start plus its boolean evaluation.

    Only reduced trees, those :func:`nat2bdd` gives, are ranked: ``ev``'s
    ``reduced`` check refuses any other tree, such as a plain tree that
    reduces, which would share its reduced tree's rank.  Then the table
    must lie in the block.  A root that a reduced stream has just yielded on
    ``b.nv`` variables, within the guard, has its rank read from the
    stream's record, with no walk.
    """
    rank = _recorded_rank(b, "reduced", max_nv)
    if rank is not None:
        return rank
    return _rank(b.nv, ev(b, max_nv, reduced=True))


# The stream's record, one part per kind: id(root) -> (root, nv, rank) of the
# last trees the streams of that kind yielded on at most 8 variables.  An entry
# holds its root, so no other object takes the id while the entry lives; a part
# is replaced at 256 entries, never cleared, and one kind's replacement drops
# none of the other's.  Only enumerate_bdds writes it, with trees it built; a
# write that another thread's replacement drops costs only a walk.
_RECORD_NV = 8
_record: dict[str, dict[int, tuple[Node, int, int]]] = {"plain": {}, "reduced": {}}


def _recorded_rank(b: Bdd, kind: str, max_nv: int) -> int | None:
    entry = _record[kind].get(id(b.root))
    if entry is not None and entry[1] == b.nv and b.nv <= max_nv:
        return entry[2]
    return None


def _rank(nv: int, index: int) -> int:
    # fail fast on trees outside the enumeration's image rather than hand
    # back a rank that unranks to something else; the index is told by its
    # bit length, as check_table tells a table, so no 2**(nv-1)-bit bound is built;
    # the walk that gave the index held nv to its guard, so no guard is checked here
    _check_block(nv)
    if not (index >= 0 and index.bit_length() <= 1 << (nv - 1)):
        raise ValueError(
            f"not in the enumeration: the block for {count_text(nv, 'variable')} holds the "
            f"tables below 2**{1 << (nv - 1)}, got {size_text(index)}"
        )
    return _bsum(nv - 1) + index


def _check_block(nv: int) -> None:
    if nv < 1:
        raise ValueError(
            f"not in the enumeration: blocks start at 1 variable, got {size_text(nv)}"
        )


def enumerate_bdds(
    kind: str,
    start: int = 0,
    count: int = 1,
    max_nv: int = DEFAULT_MAX_VARS,
) -> Iterator[Bdd]:
    """Lazily yield the trees of ranks ``start .. start+count-1``.

    ``kind`` selects ``"plain"`` or ``"reduced"`` trees, each equal to the
    one :func:`nat2plain_bdd` or :func:`nat2bdd` gives.  ``start`` is
    decomposed once.  The trees of a block, whose tables differ in a few
    rows, are built as :func:`plain_bdd` and :func:`reduced_bdd` build one,
    through one memo, the stream's unique table.  Table r is carried in
    bit-reversed row order, as those builders split it: reversed once at
    the block's start, then, from r - 1 to r, XORed with the reversal of
    the rows the two differ in, rows 0 .. m-1, kept on at most 16 variables
    for m up to 16.  So no tree reverses a whole table.  A reduced tree
    above 16 variables is built from table r itself, as :func:`reduced_bdd`
    builds it there.  Every eighth tree, a level is cleared once it holds
    four times the tables one tree can hold there, so it never holds more
    than twelve times that, however long the stream.  A tree past
    ``max_nv`` raises the guard's message when the stream reaches it.
    Each tree on at most 8 variables is recorded with its rank before it is
    yielded, so :func:`plain_bdd2nat` or :func:`bdd2nat` of it reads the rank
    back from that record, with no walk; the record holds the last 256 such
    trees of each kind, from all streams.
    """
    if kind not in ("plain", "reduced"):
        raise ValueError(f"kind must be 'plain' or 'reduced', got {kind!r}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be naturals")
    k, r = to_bsum(start)
    memo = None
    for n in range(start, start + count):
        if memo is None:  # a new block
            memo = [{} for _ in range(check_var_count(k, max_nv) + 1)]
            # natural row order for a reduced tree above 16 variables, as reduced_bdd splits there
            build = _plain_node if kind == "plain" else _reduced_split if k <= _CACHED_SWAP_NV else _reduced_node
            t, flips = (r, ()) if build is _reduced_node else (reverse_rows(r, k, range(k // 2)), _flips(k))
        root = build(k, t, memo)  # in a block only table 0 is constant; _reduced_split makes it the 0-leaf
        if k <= _RECORD_NV:  # recorded before the yield, so a rank right after it reads the record
            record = _record[kind]
            if len(record) >= 1 << _RECORD_NV:
                record = _record[kind] = {}
            record[id(root)] = (root, k, n)
        yield Bdd(k, root)
        if not r & 7:
            for v, level in enumerate(memo):
                if len(level) > 1 << (k - v + 2):
                    level.clear()
        r += 1
        if r == _block_size(k):
            k, r, memo = k + 1, 0, None
        elif build is _reduced_node:
            t = r
        else:  # r - 1 and r differ in rows 0 .. m-1
            m = (r & -r).bit_length()
            t ^= flips[m] if m < len(flips) else reverse_rows((1 << m) - 1, k, range(k // 2))


# flips[m]: rows 0 .. m-1 of a k-variable table in bit-reversed row order, m up to 16,
# kept on at most 16 variables as reverse_rows keeps its masks; a longer carry is rare
@lru_cache(maxsize=None)
def _flips(k: int) -> tuple[int, ...]:
    return tuple(reverse_rows((1 << m) - 1, k, range(k // 2)) for m in range(17 if k <= _CACHED_SWAP_NV else 0))
