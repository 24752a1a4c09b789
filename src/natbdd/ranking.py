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
(:func:`enumerate_bdds`) seals each root of a block's run of :mod:`natbdd.bdd`
with its kind and rank, so ranking that tree back reads the rank instead
of walking it.  The module keeps no state that a call writes.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .bdd import Bdd, _run, ev, plain_bdd, plain_inverse_bdd, reduced_bdd
from .truthtab import DEFAULT_MAX_VARS, check_var_count, count_text, size_text


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
    # bsum without the guard, as to_bsum needs it for any rank; summed on each
    # call, as a stream or an unrank takes one sum and a walked rank one more
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
    A tree a plain stream yielded, within the guard, gives the rank it
    carries, with no walk.
    """
    if isinstance(b, _Plain) and (rank := b.rank) is not None and b.nv <= max_nv:
        return rank
    _check_block(b.nv)  # before the fold, whose guard has its own message for a negative count
    return _rank(b.nv, plain_inverse_bdd(b, max_nv))


def bdd2nat(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Rank of a reduced tree: block start plus its boolean evaluation.

    Only reduced trees, those :func:`nat2bdd` gives, are ranked: ``ev``'s
    ``reduced`` check refuses any other tree, such as a plain tree that
    reduces, which would share its reduced tree's rank.  Then the table
    must lie in the block.  A tree a reduced stream yielded, within the
    guard, gives the rank it carries, with no walk.
    """
    if isinstance(b, _Reduced) and (rank := b.rank) is not None and b.nv <= max_nv:
        return rank
    return _rank(b.nv, ev(b, max_nv, reduced=True))


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


def _read_only(b: Bdd, name: str, *value: object) -> None:
    raise AttributeError(f"a streamed tree is read-only: cannot set or delete {name!r}")


class _Streamed(Bdd):
    # a tree enumerate_bdds yielded: its class, one per kind below, named as pickle finds it, carries
    # its kind and its __dict__ its rank, where the stream, copy and pickle write it; every attribute
    # write or delete is refused; a copy by _replace or _make has the class but no rank, and is walked
    rank = None
    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return repr(Bdd(*self))


_Plain = type("_Plain", (_Streamed,), {"kind": "plain"})
_Reduced = type("_Reduced", (_Streamed,), {"kind": "reduced"})


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
    rows, are built by one run of :mod:`natbdd.bdd`, through one memo
    capped per level, and from a table carried from tree to tree, never
    reversed whole.  One loop seals each root as it pulls it, and stops at
    the block's end or the stream's, so no tree past ``count`` is built.  A
    tree past ``max_nv`` raises the guard's message when the stream reaches
    it.  Each tree is of a private subclass of :class:`~natbdd.bdd.Bdd` per
    kind that carries its rank and refuses every attribute write and delete,
    so :func:`plain_bdd2nat` or :func:`bdd2nat` of it, or of its ``copy`` or
    ``pickle`` copies, returns that rank, with no walk; it equals, hashes and
    prints as the tree built alone.  One made by ``_replace`` or ``_make``
    has its class but no rank, and is walked.
    """
    if kind not in ("plain", "reduced"):
        raise ValueError(f"kind must be 'plain' or 'reduced', got {kind!r}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be naturals")
    k, r = to_bsum(start)
    n, stop, sealed, new = start, start + count, _Plain if kind == "plain" else _Reduced, tuple.__new__
    while n < stop:
        end = min(n - r + _block_size(k), stop)  # the block's end, or the stream's
        for root in _run(kind, k, r, max_nv):
            b = new(sealed, (k, root))  # tuple.__new__, without NamedTuple's Python-level __new__
            b.__dict__["rank"] = n  # written as copy and pickle write it, past _Streamed's refusals
            n += 1
            yield b
            if n == end:  # before the run is pulled again: no tree past the end
                break
        k, r = k + 1, 0
