import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import natbdd.truthtab
from natbdd.oracle import row_assignment
from natbdd.bdd import plain_bdd, reduced_bdd
from natbdd.truthtab import (
    all_ones_mask, check_table, ite_tt, reverse_rows, shannon_fuse, shannon_split, var_tt,
)


def test_all_ones_mask_examples():
    assert all_ones_mask(0) == 1
    assert all_ones_mask(2) == 15
    assert all_ones_mask(3) == 255


def test_all_ones_mask_guard():
    with pytest.raises(ValueError):
        all_ones_mask(21)
    with pytest.raises(ValueError):
        all_ones_mask(-1)
    # the ceiling is adjustable where the caller means it
    assert all_ones_mask(21, max_nv=21) == (1 << (1 << 21)) - 1


def test_check_table_takes_the_naturals_of_2_to_the_nv_bits():
    # the message counts variables and bits in the singular or plural by count
    sizes = ["0 variables [(]1 bit[)]", "1 variable [(]2 bits[)]",
             "2 variables [(]4 bits[)]", "3 variables [(]8 bits[)]"]
    for nv in range(4):
        for t in range(1 << (1 << nv)):
            check_table(nv, t)
        with pytest.raises(ValueError, match=f"^table out of range for {sizes[nv]}, got "):
            check_table(nv, 1 << (1 << nv))
        with pytest.raises(ValueError, match="out of range"):
            check_table(nv, -1)
    with pytest.raises(ValueError, match="^hi half out of range for 1 variable [(]2 bits[)], got 4$"):
        check_table(1, 4, name="hi half")
    with pytest.raises(ValueError, match="exceeds the guard of 5"):
        check_table(6, 0, max_nv=5)
    with pytest.raises(ValueError, match="must be >= 0"):
        check_table(-1, 0)


def test_table_checks_build_no_mask():
    # a 2**24-bit mask takes 2 MiB; the checks of the widest table the
    # guard allows, and a reduced tree with one node per level, need far less
    top_row, past_the_top = 1 << (1 << 24) - 1, 1 << (1 << 24)
    tracemalloc.start()
    try:
        check_table(24, top_row, 24)
        with pytest.raises(ValueError, match="truth table out of range"):
            plain_bdd(24, past_the_top, 24)
        assert reduced_bdd(24, 1, 24).nv == 24
        # narrow tables whose trees reach below 16 variables, where the
        # build reverses a 2**16-bit table, never a 2**24-bit one
        for t in (2, 1 << 1000, (1 << (1 << 17)) - 1):
            assert reduced_bdd(24, t, 24).nv == 24
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_var_tt_examples():
    assert var_tt(2, 0) == 3
    assert var_tt(2, 1) == 5
    assert var_tt(3, 2) == 85
    assert [var_tt(3, k) for k in range(3)] == [15, 51, 85]


def test_var_tt_divides_the_mask_exactly():
    for nv in range(1, 5):
        mask = all_ones_mask(nv)
        for k in range(nv):
            divisor = (1 << (1 << (nv - k - 1))) + 1
            assert mask % divisor == 0
            assert var_tt(nv, k) * divisor == mask


def test_var_tt_equals_the_quotient_at_every_width():
    # the construction by doubling against the defining division
    for nv in range(1, 17):
        mask = all_ones_mask(nv)
        for k in range(nv):
            assert var_tt(nv, k) == mask // ((1 << (1 << (nv - k - 1))) + 1), (nv, k)


def test_var_tt_index_errors():
    with pytest.raises(ValueError):
        var_tt(2, 2)
    with pytest.raises(ValueError):
        var_tt(2, -1)
    with pytest.raises(ValueError, match="^variable index out of range for 0 variables, got 0$"):
        var_tt(0, 0)
    with pytest.raises(ValueError, match="^variable index out of range for 1 variable, got 1$"):
        var_tt(1, 1)


def test_ite_tt_examples():
    assert ite_tt(0, 200, 77) == 77
    assert ite_tt(51, 255, 15) == 63
    assert ite_tt(85, 0, 63) == 42


def test_ite_tt_full_mask_selects_then():
    for nv in range(4):
        mask = all_ones_mask(nv)
        for t in range(mask + 1):
            for e in range(mask + 1):
                assert ite_tt(mask, t, e) == t


def test_ite_tt_is_rowwise_selection_exhaustively():
    # every (x, t, e) triple of tables on up to 3 variables, bit by bit;
    # numpy broadcasting routes the full cube through ite_tt itself
    for nv in range(4):
        vals = np.arange(1 << (1 << nv), dtype=np.uint8)
        x = vals[:, None, None]
        t = vals[None, :, None]
        e = vals[None, None, :]
        out = ite_tt(x, t, e)
        for p in range(1 << nv):
            want = np.where((x >> p) & 1, (t >> p) & 1, (e >> p) & 1)
            assert ((out >> p) & 1 == want).all()


@given(
    x=st.integers(0, 1 << 256),
    t=st.integers(0, 1 << 256),
    e=st.integers(0, 1 << 256),
)
def test_ite_tt_is_rowwise_selection_big(x, t, e):
    out = ite_tt(x, t, e)
    width = max(v.bit_length() for v in (x, t, e, out))
    for p in range(width):
        want = (t >> p) & 1 if (x >> p) & 1 else (e >> p) & 1
        assert (out >> p) & 1 == want


def test_shannon_examples():
    assert shannon_split(2, 7) == (1, 3)
    assert shannon_fuse(2, 1, 3) == 7
    assert shannon_split(3, 42) == (2, 10)
    assert shannon_fuse(3, 2, 10) == 42
    assert shannon_split(2, 0) == (0, 0)
    assert shannon_fuse(2, 0, 0) == 0


def test_shannon_roundtrips_exhaustively():
    for nv in range(1, 5):
        for x in range(1 << (1 << nv)):
            hi, lo = shannon_split(nv, x)
            assert shannon_fuse(nv, hi, lo) == x
        half = 1 << (1 << (nv - 1))
        for hi in range(half):
            for lo in range(half):
                assert shannon_split(nv, shannon_fuse(nv, hi, lo)) == (hi, lo)


@given(nv=st.integers(1, 8), data=st.data())
def test_shannon_roundtrip_random(nv, data):
    x = data.draw(st.integers(0, all_ones_mask(nv)))
    hi, lo = shannon_split(nv, x)
    assert shannon_fuse(nv, hi, lo) == x


def test_shannon_split_halves_are_the_cofactors_of_variable_0():
    # a table's bit at an assignment's row is the function's value there, so
    # each half must hold, at every assignment of variables 1..nv-1, the
    # value with variable 0 fixed: 0 for hi, 1 for lo
    rng = random.Random(2008)
    for nv in range(1, 6):
        half_row = {row_assignment(nv - 1, r): r for r in range(1 << (nv - 1))}
        for _ in range(20):
            x = rng.getrandbits(1 << nv)
            halves = shannon_split(nv, x)
            for row in range(1 << nv):
                first, *rest = row_assignment(nv, row)
                assert (halves[first] >> half_row[tuple(rest)]) & 1 == (x >> row) & 1, (nv, x, row)


def test_shannon_split_errors():
    with pytest.raises(ValueError, match=r"^cannot split a 1-bit table \(no variables left\)$"):
        shannon_split(0, 0)
    with pytest.raises(ValueError):
        shannon_split(2, 16)
    with pytest.raises(ValueError):
        shannon_split(2, -1)
    with pytest.raises(ValueError):
        shannon_split(21, 0)
    with pytest.raises(ValueError, match="must be >= 0"):
        shannon_split(-1, 0)
    # the low half is masked under the caller's guard, not the default one
    assert shannon_split(22, 0, max_nv=24) == (0, 0)


def test_shannon_fuse_errors():
    with pytest.raises(ValueError, match=r"^cannot fuse into a 1-bit table \(no variables left\)$"):
        shannon_fuse(0, 0, 0)
    with pytest.raises(ValueError):
        shannon_fuse(2, 4, 0)
    with pytest.raises(ValueError, match="^lo half out of range for 1 variable [(]2 bits[)], got 4$"):
        shannon_fuse(2, 0, 4)
    with pytest.raises(ValueError, match="exceeds the guard of 20"):
        shannon_fuse(21, 0, 0)  # the result would have 2**21 bits


def reversed_index(r, nv):
    return int(format(r, f"0{nv}b")[::-1], 2) if nv else 0


@given(nv=st.integers(0, 9), data=st.data())
def test_reverse_rows_moves_each_row_to_its_reversed_index(nv, data):
    t = data.draw(st.integers(0, all_ones_mask(nv)))
    want = sum(1 << reversed_index(r, nv) for r in range(1 << nv) if t >> r & 1)
    assert reverse_rows(t, nv, range(nv // 2)) == want
    assert reverse_rows(want, nv, range(nv // 2)) == t


def test_reverse_rows_keeps_no_masks_above_16_variables():
    # masks are kept on first use up to 16 variables only: a kept plan at 17
    # would hold 8 masks of 2**17 bits, 16 KiB each, for as long as the
    # process runs; above 16 each mask is dropped after its swap, so a call
    # holds about 6 tables' worth at its peak, not 12
    for plan in natbdd.truthtab._PLANS:
        plan.clear()
    t = random.Random(16).getrandbits(1 << 16)
    assert reverse_rows(reverse_rows(t, 16, range(8)), 16, range(8)) == t
    assert sorted(natbdd.truthtab._PLANS[16]) == list(range(8))
    t = random.Random(17).getrandbits(1 << 17)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert reverse_rows(reverse_rows(t, 17, range(8)), 17, range(8)) == t
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 12, after - before
    assert peak - before < 8 << 14, peak - before


def test_reverse_rows_may_skip_the_pairs_a_table_ignores():
    # the column of variable 5 of 18 depends on bit 12 of the row index only,
    # so only the swap of bits 5 and 12 moves it; masks past nv=16 are not
    # cached, and both kinds must agree
    for nv in (7, 16, 18):
        for k in range(nv):
            column = var_tt(nv, k)
            pair = min(k, nv - 1 - k)
            only = [pair] if pair < nv // 2 else []  # the middle bit of odd nv stays
            assert reverse_rows(column, nv, only) == reverse_rows(column, nv, range(nv // 2))
            others = [j for j in range(nv // 2) if j != pair]
            assert reverse_rows(column, nv, others) == column
