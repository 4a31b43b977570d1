import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import usolib.rng
from helpers import mix64, next_u64, shuffle, start_value, stream_value
from usolib.cli import main
from usolib.construct import FAMILIES
from usolib.rng import (
    _MIX_CHUNK,
    SIDE_INDEX,
    SplitMix64,
    _mix64_inplace,
    derive_seed,
    derive_seeds_np,
    stream_block,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(u64)
def test_mix64_scalar_matches_vectorized(x):
    assert mix64(x) == int(_mix64_inplace(np.array([x], dtype=np.uint64))[0])


@given(u64, st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=40))
@example(seed=7, index=0, count=0)
@example(seed=7, index=5, count=0)
def test_stream_scalar_matches_vectorized(seed, index, count):
    vec = stream_block(np.array([seed], dtype=np.uint64), index, 1)
    assert stream_value(seed, index) == int(vec[0, 0])
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


@given(st.lists(u64, min_size=1, max_size=8))
@example(seeds=[0, 1, 12345, 2**63 + 7, 2**64 - 1])
def test_start_value_matches_vectorized(seeds):
    # the start's first definition, a salted mix, equals stream value
    # SIDE_INDEX of the seed, one seed at a time and all at once as the walk
    # engine reads them
    vec = stream_block(np.array(seeds, dtype=np.uint64), SIDE_INDEX, 1)[0]
    assert [start_value(s) for s in seeds] == [stream_value(s, SIDE_INDEX) for s in seeds]
    assert vec.tolist() == [start_value(s) for s in seeds]


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


_LEDGER_CALLS = [
    *(
        ["bench", "--family", family, "--algo", walk, "--n", "5..6", "--trials", "20"]
        + ["--seed", "3", "--start", "random"]
        for family in FAMILIES
        for walk in ("re", "ba")
    ),
    *(["walk", "FILE", "--algo", walk, "--start", "random", "--trials", "20", "--seed", "3"]
      for walk in ("re", "ba")),
    *(["solve", "FILE", "--algo", solver, "--start", "random", "--seed", "3"]
      for solver in ("dre", "fs", "fsr")),
    *(["gen", "--family", family, "--n", "6", "--seed", "3"]
      for family in ("fmo", "target-combed", "product")),
]


def _ledger_id(argv):
    return "-".join(a for a in argv[:5] if not a.startswith("-") and a != "FILE")


@pytest.mark.parametrize("argv", _LEDGER_CALLS, ids=_ledger_id)
def test_one_cli_call_mixes_each_input_once(argv, tmp_path, monkeypatch, capsys):
    # every random value is the mix of one 64-bit input; an input mixed
    # twice in one call is a value that two uses share (a bench instance
    # that read its trials' seeds did)
    path = tmp_path / "fmo6.uso"
    assert main(["gen", "--family", "fmo", "--n", "6", "--seed", "3", "--out", str(path)]) == 0
    inputs = []

    def recording(x):
        inputs.append(x.ravel().copy())
        return _mix64_inplace(x)

    monkeypatch.setattr(usolib.rng, "_mix64_inplace", recording)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 0
    capsys.readouterr()
    mixed = np.concatenate(inputs)
    twice = mixed.size - np.unique(mixed).size
    assert mixed.size > 0 and twice == 0, f"{twice} inputs mixed twice"
