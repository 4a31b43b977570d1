import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import from_coords, mask_extract, submasks
from usolib.core import Face
from usolib.bitops import (
    bit,
    coords,
    coord_set_tables,
    format_coord_set,
    full_mask,
    mask_deposit,
    popcount,
)


def test_bit_and_full_mask():
    assert bit(1) == 1
    assert bit(3) == 4
    assert full_mask(3) == 7
    with pytest.raises(ValueError):
        bit(0)


def test_coords_roundtrip():
    mask = from_coords([1, 3, 6])
    assert mask == 0b100101
    assert list(coords(mask)) == [1, 3, 6]
    assert popcount(mask) == 3
    assert format_coord_set(mask) == "{1,3,6}"
    assert format_coord_set(0) == "{}"


def test_negative_masks_raise():
    # a negative mask has infinitely many set bits; Face(-1, 3) keeps the
    # anchor -4 once the span bits are cleared
    with pytest.raises(ValueError, match="got -4"):
        format_coord_set(-4)
    with pytest.raises(ValueError, match="got -4"):
        repr(Face(-1, 3))


@pytest.mark.parametrize(
    "call, mask",
    [
        (lambda: list(submasks(-2)), -2),
        (lambda: mask_deposit(1, -2), -2),
        (lambda: list(Face(0, -2).vertices()), -2),
    ],
    ids=["submasks", "mask_deposit", "face_span"],
)
def test_helpers_that_walk_a_mask_reject_a_negative_one(call, mask):
    # each of these used to loop forever or answer for a wrapped mask
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"coordinate sets are nonnegative masks, got {mask}"


@pytest.mark.parametrize("n", range(1, 12))
def test_coord_set_tables_match_format_coord_set(n):
    # the lookup rule of coord_set_tables names every mask as format_coord_set
    # does; odd n leaves the high half one coordinate short, and at n = 1 it
    # is empty
    half, low, high = coord_set_tables(n)
    assert (len(low), len(high)) == (1 << half, 2 << (n - half))
    low_mask = full_mask(half)
    names = [low[m & low_mask] + high[2 * (m >> half) + ((m & low_mask) != 0)] for m in range(1 << n)]
    assert names == [format_coord_set(m) for m in range(1 << n)]


def test_submasks_enumerates_all_subsets_in_order():
    subs = list(submasks(0b101))
    assert subs == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_extract_deposit_roundtrip(value):
    positions = 0b1011001110

    packed = mask_extract(value, positions)
    assert mask_deposit(packed, positions) == value & positions

    scattered = mask_deposit(value, positions)
    assert mask_extract(scattered, positions) == value & ((1 << popcount(positions)) - 1)


def test_extract_preserves_order():
    # bits of the mask appear in the packed value in ascending position order
    assert mask_extract(0b10100, 0b10110) == 0b110
    assert mask_deposit(0b110, 0b10110) == 0b10100
