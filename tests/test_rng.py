import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import shuffle
from usolib.rng import (
    _MASK64,
    _START_SALT,
    SplitMix64,
    _mix64_inplace,
    derive_seed,
    derive_seeds_np,
    mix64,
    start_values_np,
    stream_value,
    stream_values_np,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(u64)
def test_mix64_scalar_matches_vectorized(x):
    assert mix64(x) == int(_mix64_inplace(np.array([x], dtype=np.uint64))[0])


@given(u64, st.integers(min_value=0, max_value=10_000))
def test_stream_scalar_matches_vectorized(seed, index):
    vec = stream_values_np(np.array([seed], dtype=np.uint64), index)
    assert stream_value(seed, index) == int(vec[0])


@given(u64)
def test_start_value_matches_vectorized(seed):
    vec = start_values_np(np.array([seed], dtype=np.uint64))
    assert mix64((seed + _START_SALT) & _MASK64) == int(vec[0])


def test_derive_seeds_matches_scalar():
    seeds = derive_seeds_np(123, 50)
    for k in range(50):
        assert int(seeds[k]) == derive_seed(123, k)


def test_streams_differ_between_seeds_and_indices():
    values = {stream_value(s, t) for s in range(4) for t in range(64)}
    assert len(values) == 4 * 64


def test_splitmix_sequence_is_reproducible():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    items = list(range(20))
    other = list(range(20))
    shuffle(items, SplitMix64(5))
    shuffle(other, SplitMix64(5))
    assert items == other and items != list(range(20))


@pytest.mark.parametrize("k", [0, -1])
def test_randrange_rejects_an_empty_range(k):
    with pytest.raises(ValueError) as err:
        SplitMix64(1).randrange(k)
    assert str(err.value) == "randrange bound must be positive"
