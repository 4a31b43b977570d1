import numpy as np
import pytest

from helpers import cover_search_bfs, random_consistent_table, reachmap_bruteforce
from usolib.bitops import bit, coords
from usolib.cli import FAMILIES, build_family
from usolib.construct import (
    auso_lower_bound,
    cyclic_full_reach,
    klee_minty,
    random_fmo,
    random_target_combed,
    uniform,
)
from usolib.core import Orientation, is_acyclic, validate_orientation
from usolib.reach import niceness_index, reach_table
from usolib.rng import SplitMix64


def test_reachmap_examples():
    t = reach_table(uniform(3))
    assert t[0b111] == 0  # global sink
    assert t[0] == 0b111  # source reaches everything
    assert reach_table(cyclic_full_reach(3))[0b100] == 0b111


def test_reach_table_uniform_2():
    t = reach_table(uniform(2))
    assert [t[v] for v in range(4)] == [0b11, 0b10, 0b01, 0]


def test_reach_table_klee_minty_2():
    t = reach_table(klee_minty(2))
    assert t[0b10] == 0b11
    assert t[0b11] == 0b11
    assert t[0b01] == 0b01
    assert t[0b00] == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: klee_minty(5),
        lambda: cyclic_full_reach(5),
        lambda: auso_lower_bound(6),
        lambda: random_fmo(6, SplitMix64(2)),
        lambda: random_target_combed(7, SplitMix64(9)),
    ],
)
def test_reach_table_matches_per_vertex_traversal(make):
    o = make()
    t = reach_table(o)
    rng = SplitMix64(17)
    for _ in range(100):
        v = rng.randrange(o.vertex_count())
        assert t[v] == reachmap_bruteforce(o, v)


def _assert_reach_table_is_bruteforce(o):
    expected = [reachmap_bruteforce(o, v) for v in range(o.vertex_count())]
    assert reach_table(o).entries.tolist() == expected


def test_reach_table_oracle_all_usos_3(all_usos_3):
    for o in all_usos_3:
        _assert_reach_table_is_bruteforce(o)


def test_reach_table_oracle_random_consistent_tables():
    # cyclic, multi-sink and sinkless tables take the same fixed point
    rng = SplitMix64(41)
    cyclic = other_than_one_sink = 0
    for n in range(1, 9):
        for _ in range(5):
            o = random_consistent_table(n, rng)
            cyclic += not is_acyclic(o)
            other_than_one_sink += int((o.outmap == 0).sum()) != 1
            _assert_reach_table_is_bruteforce(o)
    assert cyclic > 0 and other_than_one_sink > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_reach_table_oracle_families(family):
    for n in range(4 if family == "auso-lb" else 3, 11):
        _assert_reach_table_is_bruteforce(build_family(family, n, n))


def test_reachmap_contains_difference_to_sink(all_usos_3):
    # r(v) always contains v xor sink
    for o in all_usos_3:
        t = reach_table(o)
        sink = next(v for v in range(8) if o.out(v) == 0)
        for v in range(8):
            assert t[v] & (v ^ sink) == (v ^ sink)
    big = random_target_combed(10, SplitMix64(4))
    t = reach_table(big)
    sink = next(v for v in range(1 << 10) if big.out(v) == 0)
    rng = SplitMix64(5)
    for _ in range(200):
        v = rng.randrange(1 << 10)
        assert t[v] & (v ^ sink) == (v ^ sink)


def test_reachmap_edge_monotonicity(all_usos_3):
    for o in all_usos_3[::5]:
        t = reach_table(o)
        for v in range(8):
            s = o.out(v)
            assert t[v] & s == s
            for j in coords(s):
                u = v ^ bit(j)
                assert t[v] & t[u] == t[u]


def test_cover_distance_immediate_cover():
    o = klee_minty(4)
    rep = niceness_index(o, reach_table(o))
    # vertex {1} steps straight to the sink, whose reachmap is empty
    assert rep.cover_distance[0b0001] == 1


def test_cover_distance_cyclic_bottom_vertex():
    for n in (3, 4, 5):
        o = cyclic_full_reach(n)
        assert niceness_index(o, reach_table(o)).cover_distance[0] == n


def test_cover_distance_auso_lower_bound_bottom_vertex():
    for n in (4, 5, 6):
        o = auso_lower_bound(n)
        assert niceness_index(o, reach_table(o)).cover_distance[0] == n - 2


def test_niceness_reports():
    rep = niceness_index(klee_minty(3))
    assert rep.niceness_index == 1
    assert rep.sink == 0
    assert (rep.cover_distance[0], rep.witness[0]) == (0, -1)
    for entries in (rep.cover_distance, rep.witness):
        assert entries.dtype == np.int32 and entries.shape == (8,)
        assert not entries.flags.writeable
    assert niceness_index(cyclic_full_reach(3)).niceness_index == 3


def test_niceness_witnesses_are_valid_covers():
    o = auso_lower_bound(5)
    rep = niceness_index(o)
    t = reach_table(o)
    for v in range(32):
        if v == rep.sink:
            continue
        w = rep.witness[v]
        rw, rv = t[w], t[v]
        assert rw != rv and rw & ~rv == 0


def test_niceness_at_most_n(all_usos_3):
    for o in all_usos_3[::7]:
        assert niceness_index(o).niceness_index <= 3


def test_all_low_dimension_usos_are_1_nice(all_usos_2):
    for o in all_usos_2:
        assert niceness_index(o).niceness_index == 1


def test_acyclic_constructions_respect_the_dimension_bound():
    # every acyclic orientation of dimension >= 4 produced here is (n-2)-nice
    rng = SplitMix64(14)
    for n in (4, 5, 6):
        candidates = [
            uniform(n),
            klee_minty(n),
            auso_lower_bound(n),
            random_fmo(n, rng),
            random_target_combed(n, rng),
        ]
        for o in candidates:
            if is_acyclic(o):
                assert niceness_index(o).niceness_index <= n - 2


def test_niceness_report_json():
    obj = niceness_index(klee_minty(2)).to_json_obj()
    assert obj["niceness_index"] == 1
    assert obj["cover_distance"][0] is None
    assert len(obj["witness"]) == 4


def _assert_matches_bfs_oracle(o):
    t = reach_table(o)
    rep = niceness_index(o, t)
    again = niceness_index(o)
    assert (rep.n, rep.sink, rep.niceness_index) == (again.n, again.sink, again.niceness_index)
    assert np.array_equal(rep.cover_distance, again.cover_distance)
    assert np.array_equal(rep.witness, again.witness)
    for v in range(o.vertex_count()):
        if v == rep.sink:
            assert (rep.cover_distance[v], rep.witness[v]) == (0, -1)
        else:
            assert (rep.cover_distance[v], rep.witness[v]) == cover_search_bfs(o, t, v)


def test_niceness_sweep_matches_bfs_oracle_on_all_3_cubes(all_usos_3):
    assert len(all_usos_3) == 744
    for o in all_usos_3:
        _assert_matches_bfs_oracle(o)


@pytest.mark.parametrize("family", FAMILIES)
def test_niceness_sweep_matches_bfs_oracle_on_families(family):
    low = 4 if family == "auso-lb" else 3  # auso_lower_bound needs n >= 4
    for n in range(low, 10):
        for seed in (1, 2, 3):
            _assert_matches_bfs_oracle(build_family(family, n, seed))


@pytest.mark.parametrize("n", range(10, 15))
def test_niceness_closed_forms_at_larger_n(n):
    assert niceness_index(cyclic_full_reach(n)).niceness_index == n
    assert niceness_index(auso_lower_bound(n)).niceness_index == n - 2
    assert niceness_index(klee_minty(n)).niceness_index == 1
    assert niceness_index(random_target_combed(n, SplitMix64(n))).niceness_index == 1


def test_niceness_rejects_two_sinks():
    # {01, 10} -> {00, 11}
    o = Orientation(2, [0b00, 0b11, 0b11, 0b00])
    assert validate_orientation(o)
    with pytest.raises(ValueError, match="2 vertices have an empty outmap"):
        niceness_index(o)


def test_niceness_rejects_a_directed_4_cycle():
    # 00 -> 01 -> 11 -> 10 -> 00, no sink
    o = Orientation(2, [0b01, 0b10, 0b10, 0b01])
    assert validate_orientation(o)
    with pytest.raises(ValueError, match="0 vertices have an empty outmap"):
        niceness_index(o)


def test_niceness_rejects_a_vertex_without_cover():
    # the face {0011, 0111, 1111, 1011} is a directed 4-cycle that every
    # incident edge enters; all other edges point down, so 0000 is the one
    # sink and the cycle's vertices reach nothing with a smaller reachmap
    cycle = {0b0011: 0b0100, 0b0111: 0b1000, 0b1111: 0b0100, 0b1011: 0b1000}
    table = []
    for v in range(16):
        into_cycle = sum(1 << j for j in range(4) if v ^ (1 << j) in cycle)
        table.append(cycle.get(v, v | into_cycle))
    o = Orientation(4, table)
    assert validate_orientation(o)
    with pytest.raises(ValueError, match="vertex 3 has no cover"):
        niceness_index(o)
