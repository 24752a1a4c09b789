import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natbdd.bdd import LEAVES, Bdd
from natbdd.pairing import (
    SCHEMES,
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    odd_part,
    pepis_pair,
    pepis_unpair,
    two_adic_valuation,
)
from natbdd.ranking import bsum, plain_bdd2nat, to_bsum

for_each_scheme = pytest.mark.parametrize(
    "pair,unpair", list(SCHEMES.values()), ids=list(SCHEMES)
)

# interleaving of the first sixteen codes: z -> (even bits, odd bits)
BITMERGE_TABLE = {
    0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1),
    4: (2, 0), 5: (3, 0), 6: (2, 1), 7: (3, 1),
    8: (0, 2), 9: (1, 2), 10: (0, 3), 11: (1, 3),
    12: (2, 2), 13: (3, 2), 14: (2, 3), 15: (3, 3),
}


def reference_pair(x, y):
    w = max(x.bit_length(), y.bit_length())
    return int("".join(b + a for a, b in zip(f"{x:0{w}b}", f"{y:0{w}b}")), 2)


def reference_unpair(z):
    bits = f"{z:b}"[::-1] + "0"  # LSB first, padded so both halves are non-empty
    return int(bits[0::2][::-1], 2), int(bits[1::2][::-1], 2)


def test_cantor_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(0, 1) == 2
    assert cantor_pair(1, 2) == 8
    assert cantor_unpair(0) == (0, 0)
    assert cantor_unpair(8) == (1, 2)


def test_cantor_is_exact_at_2_pow_200():
    # a float sqrt loses this roundtrip; the integer sqrt must not
    z = 1 << 200
    assert cantor_pair(*cantor_unpair(z)) == z


def test_pepis_examples():
    assert pepis_pair(1, 10) == 41
    assert pepis_pair(0, 0) == 0
    assert pepis_pair(2, 1) == 11
    assert pepis_unpair(41) == (1, 10)
    assert pepis_unpair(0) == (0, 0)
    assert pepis_unpair(10) == (0, 5)


def test_pepis_pair_is_its_defining_product():
    rng = random.Random(35)
    for x, y in ((0, 0), (3, 0), (0, 5), *((rng.randrange(1 << 16), rng.getrandbits(4096)) for _ in range(8))):
        assert pepis_pair(x, y) == 2**x * (2 * y + 1) - 1


def test_pepis_growth_is_geometric_in_first_argument():
    for x in range(32):
        assert pepis_pair(x + 1, 0) + 1 == 2 * (pepis_pair(x, 0) + 1)


def test_bitmerge_examples():
    assert bitmerge_pair(60, 26) == 2008
    assert bitmerge_unpair(2008) == (60, 26)
    assert bitmerge_pair(0, 0) == 0
    assert bitmerge_pair(3, 0) == 5
    assert bitmerge_unpair(10) == (0, 3)


def test_bitmerge_small_codes():
    assert {z: bitmerge_unpair(z) for z in range(16)} == BITMERGE_TABLE


def test_bitmerge_matches_bitwise_reference_at_every_small_width():
    rng = random.Random(300)
    for w in range(301):
        x = rng.getrandbits(w) | (1 << w >> 1)  # exactly w bits
        y = rng.getrandbits(rng.randrange(w + 1))
        for a, b in ((x, y), (y, x), (x, x)):
            z = bitmerge_pair(a, b)
            assert z == reference_pair(a, b), (a, b)
            assert bitmerge_unpair(z) == (a, b)
    for w in range(602):
        z = rng.getrandbits(w) | (1 << w >> 1)
        assert bitmerge_unpair(z) == reference_unpair(z), z


@pytest.mark.parametrize("bits", [1 << 12, 1 << 16, 1 << 20])
def test_bitmerge_matches_bitwise_reference_when_wide(bits):
    rng = random.Random(bits)
    x, y = rng.getrandbits(bits), rng.getrandbits(bits - 13)
    for a, b in ((x, y), (y, x)):
        z = bitmerge_pair(a, b)
        assert z == reference_pair(a, b)
        assert bitmerge_unpair(z) == reference_unpair(z) == (a, b)


@given(x=st.integers(0, 1 << 5000), y=st.integers(0, 1 << 5000))
def test_bitmerge_roundtrip_matches_reference(x, y):
    z = bitmerge_pair(x, y)
    assert z == reference_pair(x, y)
    assert bitmerge_unpair(z) == reference_unpair(z) == (x, y)


@for_each_scheme
def test_pair_inverts_unpair_exhaustively(pair, unpair):
    for z in range(1 << 12):
        assert pair(*unpair(z)) == z


@for_each_scheme
def test_unpair_inverts_pair_exhaustively(pair, unpair):
    for x in range(64):
        for y in range(64):
            assert unpair(pair(x, y)) == (x, y)


@for_each_scheme
@given(z=st.integers(0, 1 << 512))
def test_pair_inverts_unpair(pair, unpair, z):
    assert pair(*unpair(z)) == z


@given(x=st.integers(0, 1 << 256), y=st.integers(0, 1 << 256))
def test_cantor_roundtrip_big(x, y):
    assert cantor_unpair(cantor_pair(x, y)) == (x, y)


@given(x=st.integers(0, 1 << 256), y=st.integers(0, 1 << 256))
def test_bitmerge_roundtrip_big(x, y):
    assert bitmerge_unpair(bitmerge_pair(x, y)) == (x, y)


@given(x=st.integers(0, 2048), y=st.integers(0, 1 << 256))
def test_pepis_roundtrip_big(x, y):
    assert pepis_unpair(pepis_pair(x, y)) == (x, y)


@given(x=st.integers(0, 1 << 300), y=st.integers(0, 1 << 300))
def test_bitmerge_length_bound(x, y):
    merged = bitmerge_pair(x, y)
    assert merged.bit_length() <= 2 * max(x.bit_length(), y.bit_length())


@for_each_scheme
def test_negative_arguments_are_rejected(pair, unpair):
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        pair(0, -1)
    with pytest.raises(ValueError):
        unpair(-1)


HUGE_NEGATIVE = -10**5000  # past 4300 digits, Python will not print it in decimal
HUGE_TEXT = "a negative 16610-bit number"
HUGE_NEGATIVE_ERRORS = [
    (bitmerge_pair, (HUGE_NEGATIVE, 1), f"expected natural numbers, got ({HUGE_TEXT}, 1)"),
    (cantor_pair, (0, HUGE_NEGATIVE), f"expected natural numbers, got (0, {HUGE_TEXT})"),
    (bitmerge_unpair, (HUGE_NEGATIVE,), f"expected a natural number, got {HUGE_TEXT}"),
    (cantor_unpair, (HUGE_NEGATIVE,), f"expected a natural number, got {HUGE_TEXT}"),
    (pepis_unpair, (HUGE_NEGATIVE,), f"expected a natural number, got {HUGE_TEXT}"),
    (two_adic_valuation, (HUGE_NEGATIVE,), f"2-adic valuation needs n >= 1, got {HUGE_TEXT}"),
    (odd_part, (HUGE_NEGATIVE,), f"2-adic valuation needs n >= 1, got {HUGE_TEXT}"),
    (bsum, (HUGE_NEGATIVE,), f"expected a natural number, got {HUGE_TEXT}"),
    (to_bsum, (HUGE_NEGATIVE,), f"expected a natural number, got {HUGE_TEXT}"),
    (plain_bdd2nat, (Bdd(HUGE_NEGATIVE, LEAVES[0]),),
     f"not in the enumeration: blocks start at 1 variable, got {HUGE_TEXT}"),
]


@pytest.mark.parametrize(
    "fn,args,want", HUGE_NEGATIVE_ERRORS, ids=[fn.__name__ for fn, _, _ in HUGE_NEGATIVE_ERRORS])
def test_huge_negative_arguments_are_named_by_bit_length(fn, args, want):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == want


def test_two_adic_valuation_examples():
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(2**40) == 40
    assert odd_part(2**40) == 1


def test_odd_part_examples():
    assert odd_part(1) == 1
    assert odd_part(12) == 3
    assert odd_part(42) == 21


def test_valuation_of_zero_is_an_error():
    with pytest.raises(ValueError):
        two_adic_valuation(0)
    with pytest.raises(ValueError):
        odd_part(0)


@given(st.integers(min_value=1))
def test_two_adic_factorization(n):
    odd = odd_part(n)
    assert odd % 2 == 1
    assert (1 << two_adic_valuation(n)) * odd == n
