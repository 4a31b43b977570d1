import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import mix64, next_u64, shuffle, stream_value
from usolib.rng import (
    _MASK64,
    _MIX_CHUNK,
    _START_SALT,
    SplitMix64,
    _mix64_inplace,
    derive_seed,
    derive_seeds_np,
    start_values_np,
    stream_block,
    stream_values_np,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(u64)
def test_mix64_scalar_matches_vectorized(x):
    assert mix64(x) == int(_mix64_inplace(np.array([x], dtype=np.uint64))[0])


@given(u64, st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=40))
@example(seed=7, index=0, count=0)
@example(seed=7, index=5, count=0)
def test_stream_scalar_matches_vectorized(seed, index, count):
    vec = stream_values_np(np.array([seed], dtype=np.uint64), index)
    assert stream_value(seed, index) == int(vec[0])
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    block.draw(index)  # a cursor that has already advanced
    scalar.index = index
    values = block.draw(count)
    assert values.dtype == np.uint64
    assert values.tolist() == [next_u64(scalar) for _ in range(count)]
    assert block.index == scalar.index == index + count


@pytest.mark.parametrize(
    "width, count", [(1, 3 * _MIX_CHUNK + 1), (1000, 100), (_MIX_CHUNK + 5, 3)]
)
def test_stream_block_matches_scalar_across_mixing_chunks(width, count):
    # one long stream, a block of many rows per chunk, and rows wider than
    # a chunk: the entries on both sides of each chunk boundary are right
    seeds = derive_seeds_np(17, width)
    block = stream_block(seeds, 5, count)
    assert block.shape == (count, width) and block.dtype == np.uint64
    rows = max(1, _MIX_CHUNK // width)
    for i in sorted({0, rows - 1, rows, count - 1} & set(range(count))):
        for k in sorted({0, width - 1, width // 2}):
            assert int(block[i, k]) == stream_value(int(seeds[k]), 5 + i)


@given(u64)
def test_start_value_matches_vectorized(seed):
    vec = start_values_np(np.array([seed], dtype=np.uint64))
    assert mix64((seed + _START_SALT) & _MASK64) == int(vec[0])


def test_derive_seeds_matches_scalar():
    for master in (123, -123):
        seeds = derive_seeds_np(master, 50)
        assert seeds.tolist() == [stream_value(master, k) for k in range(50)]
        assert derive_seed(master, 49) == int(seeds[49])
        assert derive_seed(master, 10**12) == stream_value(master, 10**12)


def test_streams_differ_between_seeds_and_indices():
    values = {int(x) for s in range(4) for x in SplitMix64(s).draw(64)}
    assert len(values) == 4 * 64


def test_splitmix_sequence_is_reproducible():
    assert SplitMix64(99).draw(10).tolist() == SplitMix64(99).draw(10).tolist()
    items = list(range(20))
    other = list(range(20))
    shuffle(items, SplitMix64(5))
    shuffle(other, SplitMix64(5))
    assert items == other and items != list(range(20))
