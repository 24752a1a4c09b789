"""Pairing bijections Nat x Nat <-> Nat with exact inverses.

Three schemes are provided:

* ``cantor`` -- the diagonal pairing z = (x+y)(x+y+1)/2 + y;
* ``pepis`` -- z = 2**x * (2y+1) - 1, growing fast in the first argument;
* ``bitmerge`` -- bit interleaving: x occupies the even bit positions of z
  and y the odd ones (positions counted from the LSB).

All operations are exact on arbitrarily large naturals.
"""

from __future__ import annotations

from math import isqrt

from .truthtab import size_text


def cantor_pair(x: int, y: int) -> int:
    _check_pair(x, y)
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    # isqrt keeps the inverse exact; floating-point sqrt drifts once z
    # outgrows a double's mantissa
    if z < 0:
        raise ValueError(f"expected a natural number, got {size_text(z)}")
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def pepis_pair(x: int, y: int) -> int:
    _check_pair(x, y)
    return ((2 * y + 1) << x) - 1


def pepis_unpair(z: int) -> tuple[int, int]:
    if z < 0:
        raise ValueError(f"expected a natural number, got {size_text(z)}")
    return two_adic_valuation(z + 1), (odd_part(z + 1) - 1) >> 1


def two_adic_valuation(n: int) -> int:
    """Largest t such that 2**t divides ``n``.  Undefined (an error) for 0."""
    if n <= 0:
        raise ValueError(f"2-adic valuation needs n >= 1, got {size_text(n)}")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """``n`` with every factor of two removed."""
    return n >> two_adic_valuation(n)


# Interleaving by table lookup inside C-level bytes operations, linear in the
# operand size (https://graphics.stanford.edu/~seander/bithacks.html): each
# table maps a byte to a byte, spreading a nibble or gathering alternate bits.
_SPREAD_LO = bytes(sum(((b >> i) & 1) << (2 * i) for i in range(4)) for b in range(256))
_SPREAD_HI = bytes(_SPREAD_LO[b >> 4] for b in range(256))
_EVEN = bytes(sum(((b >> (2 * i)) & 1) << i for i in range(4)) for b in range(256))
_ODD = bytes(_EVEN[b >> 1] for b in range(256))


def bitmerge_pair(x: int, y: int) -> int:
    """Interleave: bit i of ``x`` lands at position 2i, bit i of ``y`` at 2i+1."""
    _check_pair(x, y)
    n = ((x | y).bit_length() + 7) >> 3
    # spread the bytes of x, then of y, in one pass, each onto the even bits of two bytes
    src = x.to_bytes(n, "little") + y.to_bytes(n, "little")
    out = bytearray(4 * n)
    out[0::2] = src.translate(_SPREAD_LO)
    out[1::2] = src.translate(_SPREAD_HI)
    both = int.from_bytes(out, "little")
    return both & ((1 << 16 * n) - 1) | (both >> 16 * n) << 1


def bitmerge_unpair(z: int) -> tuple[int, int]:
    """Split ``z`` into its even-position bits and its odd-position bits."""
    if z < 0:
        raise ValueError(f"expected a natural number, got {size_text(z)}")
    src = z.to_bytes((z.bit_length() + 7) >> 3, "little")
    lo, hi = src[0::2], src[1::2]  # the low and the high nibbles of each byte of x and y
    x = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4
    y = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4
    return x, y


def _check_pair(x: int, y: int) -> None:
    if x < 0 or y < 0:
        raise ValueError(f"expected natural numbers, got ({size_text(x)}, {size_text(y)})")


#: scheme tag -> (pair, unpair)
SCHEMES = {
    "cantor": (cantor_pair, cantor_unpair),
    "pepis": (pepis_pair, pepis_unpair),
    "bitmerge": (bitmerge_pair, bitmerge_unpair),
}
