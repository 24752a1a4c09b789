"""Natural numbers as truth tables of 2**nv bits.

A boolean function of ``nv`` variables is the natural number whose bit at
row position p is the function's output on row p's assignment.  Constant
false is 0, constant true is 2**(2**nv) - 1, and each variable has a fixed
column encoding (see :func:`var_tt`).
"""

from __future__ import annotations

from typing import Iterable

# masks occupy 2**nv bits, so an unchecked var count allocates gigabit
# integers; callers can raise the ceiling explicitly where they mean it
DEFAULT_MAX_VARS = 20
# the highest guard the CLI accepts: tables of 2**24 bits (2 MiB), and tree
# walks (ev, reduce, rendering, tuple equality) at most 25 calls deep, far
# below Python's recursion limit of 1000
MAX_VARS_CEILING = 24


def size_text(value: int) -> str:
    """``value`` for an error message: whole up to 64 bits, else by its bit
    length, since a long decimal is slow to print and past 4300 digits fails."""
    if value.bit_length() <= 64:
        return str(value)
    return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit number"


def count_text(n: int, noun: str) -> str:
    """``n`` with ``noun`` pluralised by count: "1 variable", "0 variables"."""
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def check_var_count(nv: int, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Validate a variable count against the resource guard and return it."""
    if nv < 0:
        raise ValueError(f"variable count must be >= 0, got {size_text(nv)}")
    if nv > max_nv:
        raise ValueError(
            f"variable count exceeds the guard of {max_nv} "
            f"(a table on n variables needs 2**n bits), got {size_text(nv)}"
        )
    return nv


def check_table(nv: int, t: int, max_nv: int = DEFAULT_MAX_VARS, name: str = "table") -> None:
    """Check that ``t`` is a table on ``nv`` variables: a natural of at most
    2**nv bits, told by its bit length, so no mask is built.  ``name`` is
    the noun of the error message."""
    check_var_count(nv, max_nv)
    if not (t >= 0 and t.bit_length() <= 1 << nv):
        raise ValueError(f"{name} out of range for {count_text(nv, 'variable')} "
                         f"({count_text(1 << nv, 'bit')}), got {size_text(t)}")


def all_ones_mask(nv: int, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Truth table of constant true on ``nv`` variables: 2**(2**nv) - 1."""
    check_var_count(nv, max_nv)
    return (1 << (1 << nv)) - 1


def var_tt(nv: int, k: int, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Truth-table column of variable ``k`` among ``nv`` variables.

    The column, read LSB-first, is the exact quotient
    (2**(2**nv) - 1) // (2**(2**(nv-k-1)) + 1): blocks of 2**(nv-k-1) ones
    alternating with equally long blocks of zeros.  It is built as the
    masks of :func:`reverse_rows` are: the first two blocks, repeated by
    doubling over the row-index bits above them, in time linear in the table.
    """
    check_var_count(nv, max_nv)
    if not 0 <= k < nv:
        raise ValueError(f"variable index out of range for {count_text(nv, 'variable')}, got {size_text(k)}")
    j = nv - k - 1
    return _repeat_rows((1 << (1 << j)) - 1, range(j + 1, nv))


def _repeat_rows(block: int, bits: Iterable[int]) -> int:
    for i in bits:  # a copy 2**i rows up: the table then ignores row-index bit i
        block |= block << (1 << i)
    return block


def ite_tt(x: int, t: int, e: int) -> int:
    """Rowwise if-then-else on truth tables, in three bitwise operations."""
    return (x & (t ^ e)) ^ e


def reverse_rows(t: int, nv: int, swaps: Iterable[int]) -> int:
    """Table ``t`` on ``nv`` variables with its rows in bit-reversed order.

    Row r moves to the row whose ``nv``-bit index is r's read backwards, by
    one delta swap per bit pair: for each k in ``swaps``, bits k and
    nv-1-k of every row index trade places.  All of ``range(nv // 2)``
    reverse the index; a table that depends on neither bit of a pair is
    unchanged by its swap, so a caller that knows this may leave it out.
    The permutation is its own inverse.
    """
    plan = _PLANS[nv] if nv <= _CACHED_SWAP_NV else None
    for k in swaps:  # a mask is kept on first use up to 16 variables, and above made swap by swap
        d, mask = (plan.get(k) or plan.setdefault(k, _row_swap(nv, k))) if plan is not None else _row_swap(nv, k)
        s = ((t >> d) ^ t) & mask
        t ^= s | s << d
    return t


def _row_swap(nv: int, k: int) -> tuple[int, int]:
    # (d, mask): mask marks the rows with bit k set and bit j = nv-1-k clear,
    # each d rows below the partner it trades with: a 2**(k+1)-row block with
    # bit k set, repeated over every bit above k but j, not through the
    # pairing kernels
    j = nv - 1 - k
    block = ((1 << (1 << k)) - 1) << (1 << k)
    return (1 << j) - (1 << k), _repeat_rows(block, (*range(k + 1, j), *range(j + 1, nv)))


# masks up to nv=16 (8 KiB each, under 120 KiB in all) are kept on first use,
# _PLANS[nv][k] for pair k; a wider one costs about as much to build as the
# swap that uses it, a small share of the evaluation that needs it, and is not kept
_CACHED_SWAP_NV = 16
_PLANS: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in range(_CACHED_SWAP_NV + 1))


def shannon_split(nv: int, x: int, max_nv: int = DEFAULT_MAX_VARS) -> tuple[int, int]:
    """Split table ``x`` on variable 0, the top bit of the row index, into
    (hi, lo) half tables.

    ``hi`` is the cofactor with variable 0 = 0 (the upper rows), ``lo`` the
    one with variable 0 = 1; each half is a table on variables 1..nv-1,
    renumbered 0..nv-2.  (``bitmerge_unpair`` splits on variable nv-1.)
    """
    check_table(nv, x, max_nv)
    if nv < 1:
        raise ValueError("cannot split a 1-bit table (no variables left)")
    return x >> (1 << (nv - 1)), x & all_ones_mask(nv - 1, max_nv)


def shannon_fuse(nv: int, hi: int, lo: int, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Inverse of :func:`shannon_split`: rebuild the table from its halves.
    The result has 2**nv bits, so ``nv`` itself is held to the guard."""
    check_var_count(nv, max_nv)
    if nv < 1:
        raise ValueError("cannot fuse into a 1-bit table (no variables left)")
    check_table(nv - 1, hi, max_nv, "hi half")
    check_table(nv - 1, lo, max_nv, "lo half")
    return (hi << (1 << (nv - 1))) | lo
