import tracemalloc

import numpy as np
import pytest

from helpers import (
    certificate_holds,
    cover_search_bfs,
    cube_edges,
    niceness_by_python_sweep,
    orientation_from_edge_bits,
    random_consistent_table,
    randrange,
    reach_table_bruteforce,
    reachable_vertices,
    reachmap_bruteforce,
    shuffle,
    uso_by_pairwise,
)
from usolib.bitops import bit, coords
from usolib.construct import (
    FAMILIES,
    auso_lower_bound,
    build_family,
    cyclic_full_reach,
    klee_minty,
    random_fmo,
    random_target_combed,
    uniform,
)
from usolib.core import (
    NotUSOError,
    Orientation,
    first_uso_violation,
    is_acyclic,
    validate_orientation,
)
from usolib.algo import fs_revisited, resolve_start
from usolib.reach import niceness_index, reach_table, reachmap, reachmaps
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
        v = randrange(rng, o.vertex_count())
        assert t[v] == reachmap_bruteforce(o, v)


def test_reach_table_oracle_random_consistent_tables():
    # cyclic, multi-sink and sinkless tables take the same fixed point
    rng = SplitMix64(41)
    cyclic = other_than_one_sink = 0
    for n in range(1, 9):
        for _ in range(5):
            o = random_consistent_table(n, rng)
            cyclic += not is_acyclic(o)
            other_than_one_sink += int((o.outmap == 0).sum()) != 1
            expected = reach_table_bruteforce(o)
            assert reach_table(o).entries.tolist() == expected
            assert [reachmap(o, v) for v in range(o.vertex_count())] == expected
    assert cyclic > 0 and other_than_one_sink > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_reach_table_oracle_families(family):
    for n in range(4 if family == "auso-lb" else 3, 11):
        o = build_family(family, n, n)
        assert reach_table(o).entries.tolist() == reach_table_bruteforce(o)


def _vertex_lists(o, rng, vertices=None):
    """Lists that are not traces, for ``reachmaps``: ``vertices`` (every
    vertex by default) in a random order, and a short list with repeats."""
    size = o.vertex_count()
    shuffled = list(range(size)) if vertices is None else list(vertices)
    shuffle(shuffled, rng)
    repeats = [randrange(rng, size) for _ in range(6)]
    return [shuffled, repeats + repeats[::2] + shuffled[:3]]


def _assert_reachmaps_match_the_table(o, lists):
    """``reachmaps`` on each list equals ``reach_table``; returns how many
    pairs of distinct listed vertices reach neither one the other."""
    t = reach_table(o)
    unrelated = 0
    for vertices in lists:
        assert reachmaps(o, vertices) == [t[v] for v in vertices]
        if o.n <= 8:
            reach = {v: reachable_vertices(o, v) for v in vertices}
            unrelated += sum(not (reach[u] >> w & 1 or reach[w] >> u & 1) for u in reach for w in reach)
    return unrelated


def test_reachmaps_oracle_on_all_3_cubes(all_usos_3):
    rng = SplitMix64(43)
    unrelated = sum(_assert_reachmaps_match_the_table(o, _vertex_lists(o, rng)) for o in all_usos_3)
    assert unrelated > 0


def test_reachmaps_oracle_random_consistent_tables():
    # an answered vertex stands in for its whole reach on any table,
    # cyclic, multi-sink and sinkless ones included
    rng = SplitMix64(44)
    cyclic = other_than_one_sink = unrelated = 0
    for n in range(1, 9):
        for _ in range(5):
            o = random_consistent_table(n, rng)
            cyclic += not is_acyclic(o)
            other_than_one_sink += int((o.outmap == 0).sum()) != 1
            unrelated += _assert_reachmaps_match_the_table(o, _vertex_lists(o, rng))
    assert cyclic > 0 and other_than_one_sink > 0 and unrelated > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_reachmaps_oracle_on_fsr_traces(family):
    # each trace as reported, reversed, and shuffled among random vertices
    # with repeats
    rng = SplitMix64(45)
    for n in range(4 if family == "auso-lb" else 3, 13):
        o = build_family(family, n, 0)
        for k in range(10):
            trace = fs_revisited(o, resolve_start(o, "random", k))[1].vertices
            extra = [randrange(rng, o.vertex_count()) for _ in range(4)]
            lists = [trace, trace[::-1], *_vertex_lists(o, rng, trace + tuple(extra))]
            _assert_reachmaps_match_the_table(o, lists)


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
        v = randrange(rng, 1 << 10)
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
    rep = niceness_index(o)
    # vertex {1} steps straight to the sink, whose reachmap is empty
    assert rep.cover_distance[0b0001] == 1


def test_cover_distance_cyclic_bottom_vertex():
    for n in (3, 4, 5):
        o = cyclic_full_reach(n)
        assert niceness_index(o).cover_distance[0] == n


def test_cover_distance_auso_lower_bound_bottom_vertex():
    for n in (4, 5, 6):
        o = auso_lower_bound(n)
        assert niceness_index(o).cover_distance[0] == n - 2


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


@pytest.mark.parametrize("family", FAMILIES)
def test_niceness_report_holds_the_reach_table(family):
    o = build_family(family, 6, 3)
    entries = niceness_index(o).reach.entries
    assert np.array_equal(entries, reach_table(o).entries)
    assert not entries.flags.writeable


def _assert_matches_bfs_oracle(o):
    t = reach_table(o)
    rep = niceness_index(o)
    assert rep.reach.n == o.n and np.array_equal(rep.reach.entries, t.entries)
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


def _witness_ties(o, cover, witness) -> int:
    """Vertices at distance 2 or more whose out-neighbours one level down
    have different witnesses, so that the least one must be picked."""
    ties = 0
    for v, d in enumerate(cover):
        if d >= 2:
            below = {witness[w] for w in (v ^ bit(j) for j in coords(o.out(v))) if cover[w] == d - 1}
            ties += len(below) > 1
    return ties


def test_niceness_matches_the_python_level_sweep_on_deep_random_tables():
    # levels >= 2 run as one fixed point; these tables reach level 3 and
    # beyond and have ties between witnesses one level down
    deep = ties = 0
    for family in ("fmo", "product", "target-combed"):
        for n in range(4, 11):
            for seed in range(8):
                o = build_family(family, n, seed)
                report = niceness_index(o)
                expected = niceness_by_python_sweep(o, reach_table(o).entries.tolist())
                sink, cover, witness, index = expected
                got = (report.sink, report.cover_distance.tolist(), report.witness.tolist())
                assert got + (report.niceness_index,) == expected
                deep += index >= 3
                ties += _witness_ties(o, cover, witness)
    assert deep > 0 and ties > 0


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


def test_niceness_gate_rejects_a_one_sink_non_bijective_4_cube_with_a_4_cycle_face():
    # the face {0011, 0111, 1111, 1011} is a directed 4-cycle that every
    # incident edge enters, and all other edges point down, so 0000 is the
    # one sink. The outmap is not a bijection (vertices 1 and 2 both have
    # {1,2}), so the outmap gate names that pair before the sweep runs
    cycle = {0b0011: 0b0100, 0b0111: 0b1000, 0b1111: 0b0100, 0b1011: 0b1000}
    table = []
    for v in range(16):
        into_cycle = sum(1 << j for j in range(4) if v ^ (1 << j) in cycle)
        table.append(cycle.get(v, v | into_cycle))
    o = Orientation(4, table)
    assert validate_orientation(o)
    with pytest.raises(NotUSOError) as info:
        niceness_index(o)
    assert info.value.pair == (1, 2) and certificate_holds(o, info.value)


def test_niceness_rejects_a_one_sink_non_uso_naming_a_genuine_pair():
    # one sink (7), but the bottom 2-face is the directed 4-cycle
    # 0 -> 1 -> 3 -> 2 -> 0, and vertices 1 and 2 share the outmap {2,3}
    o = Orientation(3, [5, 6, 6, 5, 3, 2, 1, 0])
    assert validate_orientation(o)
    with pytest.raises(NotUSOError) as info:
        niceness_index(o)
    assert info.value.pair == (1, 2) and certificate_holds(o, info.value)
    assert str(info.value) == (
        "not a USO: vertices 1 and 2 differ on {1,2} but their outmaps agree there"
    )


def test_niceness_rejects_every_bijective_non_uso_3_cube_table():
    # every vertex must have an outgoing edge towards the sink; on the 3-cube
    # this catches each of the 72 edge-consistent tables with a bijective
    # outmap that are not USOs, each with a genuine pair (sink, v)
    edges = cube_edges(3)
    rejected = 0
    for code in range(1 << len(edges)):
        o = orientation_from_edge_bits(3, edges, [(code >> k) & 1 for k in range(len(edges))])
        if len(set(o.outmap.tolist())) < 8 or uso_by_pairwise(o):
            continue
        with pytest.raises(NotUSOError) as info:
            niceness_index(o)
        sink = o.outmap.tolist().index(0)
        assert info.value.pair[0] == sink and certificate_holds(o, info.value)
        rejected += 1
    assert rejected == 72
    with pytest.raises(NotUSOError) as info:
        niceness_index(Orientation(3, [0, 3, 6, 5, 7, 4, 1, 2]))
    assert info.value.pair == (0, 6)


def test_niceness_gates_are_only_a_prefix_of_the_uso_check():
    # bijective, and every vertex has an edge towards the sink 0, yet the
    # face span={1,3} anchor={2} has two sinks; the sweep still answers
    o = Orientation(4, [0, 9, 7, 10, 12, 5, 2, 15, 8, 1, 11, 6, 4, 13, 14, 3])
    assert niceness_index(o).niceness_index == 1
    assert str(first_uso_violation(o)) == "not a USO: face span={1,3} anchor={2} has 2 sinks"


#: tracemalloc peaks in bytes per vertex at n = 16, each about 1.25 times
#: the measured figure: the reach sweep holds the reachmaps, the ``partner``
#: buffer and n bool masks, 25.1 B/vertex on km and cyclic-lb 16. In
#: niceness_index that sweep is the peak on km (25.1 B/vertex, 1-nice), and
#: on cyclic-lb the fixed point of the deeper levels is, with the packed
#: keys and one candidate buffer next to the reachmaps and the level-1
#: arrays (27.1 B/vertex)
_PEAK_BYTES_PER_VERTEX = {reach_table: 31, niceness_index: 34}


@pytest.mark.parametrize("family", ["km", "cyclic-lb"])
@pytest.mark.parametrize("compute", [reach_table, niceness_index], ids=lambda f: f.__name__)
def test_traced_peak_memory_per_vertex_at_n_16(family, compute):
    o = build_family(family, 16, 0)
    tracemalloc.start()
    try:
        compute(o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BYTES_PER_VERTEX[compute] * o.vertex_count()


@pytest.mark.parametrize("family", ["km", "cyclic-lb", "fmo"])
def test_traced_peak_memory_of_the_reachmaps_of_a_trace_at_n_16(family):
    # the trace of ``uso solve --algo fsr`` from five random starts, one
    # vertex at a time and in the one reachmaps call that command makes:
    # a search holds one bool per vertex and its frontiers, at most 1.3 / 1.3
    # (km), 4.3 / 1.6 (cyclic-lb) and 1.6 / 1.6 (fmo) B/vertex, against
    # reach_table's 25.1
    o = build_family(family, 16, 0)
    for seed in range(5):
        trace = fs_revisited(o, resolve_start(o, "random", seed))[1]
        for read in (lambda: [reachmap(o, v) for v in trace.vertices], lambda: reachmaps(o, trace.vertices)):
            tracemalloc.start()
            try:
                read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * o.vertex_count()
