import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usolib.core
from helpers import (
    brute_force_usos,
    bfs_distance_in_face,
    canonical_form_by_loop,
    certificate_holds,
    cube_edges,
    face_contains,
    first_edge_violation_pure,
    first_uso_violation_by_face_scan,
    flipped_edge,
    hypercube_automorphisms,
    orientation_from_edge_bits,
    random_consistent_table,
    randrange,
    submasks,
    uso_by_face_scan_pure,
    uso_by_pairwise,
)
from usolib.bitops import bit, full_mask, popcount
from usolib.core import (
    EvalCounter,
    Face,
    NotUSOError,
    Orientation,
    canonical_form,
    face_sink,
    first_edge_violation,
    first_uso_violation,
    is_acyclic,
    is_decomposable,
    sink_and_source,
    topological_order,
    validate_orientation,
    validate_uso,
)
from usolib.construct import (
    FAMILIES,
    cyclic_full_reach,
    auso_lower_bound,
    build_family,
    flip_edge,
    klee_minty,
    random_fmo,
    reverse_orientation,
    uniform,
)
from usolib.algo import derandomized_re, fs_revisited, join_pair
from usolib.reach import reach_table, reachmap, reachmaps
from usolib.rng import SplitMix64

# edge-consistent non-USO tables used below: a directed 4-cycle on the
# 2-cube (no sink anywhere) and a 2-cube with both diagonal vertices sinks
FOUR_CYCLE = Orientation(2, [1, 2, 2, 1])
DOUBLE_SINK = Orientation(2, [0, 3, 3, 0])


def test_face_normalization_and_equality():
    f1 = Face(0b110, 0b011)
    f2 = Face(0b010, 0b011)
    assert f1.anchor == 0b100
    assert f1 == Face(0b111, 0b011)
    assert f1 != f2
    assert f1.dimension == 2
    assert list(f1.vertices()) == [0b100, 0b101, 0b110, 0b111]
    assert face_contains(f1, 0b111) and not face_contains(f1, 0b010)
    assert repr(f1) == "Face(anchor={3}, span={1,2})"


def test_face_vertices_match_the_submask_enumeration():
    # the doubling lists the anchor plus every subset of the span, ascending
    rng = SplitMix64(10)
    for n in range(11):
        full = full_mask(n)
        for _ in range(20):
            span = randrange(rng, full + 1)
            f = Face(randrange(rng, full + 1), span)
            verts = f.vertices()
            assert verts.dtype == np.int64
            assert verts.tolist() == [f.anchor | sub for sub in submasks(span)]


def test_orientation_rejects_bad_tables():
    with pytest.raises(ValueError):
        Orientation(0, [])
    with pytest.raises(ValueError):
        Orientation(2, [0, 1, 2])
    with pytest.raises(ValueError):
        Orientation(2, [0, 1, 2, 4])


def test_orientation_rejects_non_integer_tables():
    with pytest.raises(ValueError, match="dtype float64"):
        Orientation(2, [0.9, 1, 3, 0])
    with pytest.raises(ValueError, match="dtype bool"):
        Orientation(2, [True, False, False, True])
    # range is checked before the uint32 cast, which would wrap these
    with pytest.raises(ValueError, match="out of range"):
        Orientation(2, [1, 0, 3, -1])
    with pytest.raises(ValueError, match="out of range"):
        Orientation(2, np.array([1, 0, 3, 2 - (1 << 32)], dtype=np.int64))
    # the constructions' uint32 arrays, the loaders' int lists and the
    # enumerator's uint8 rows are all accepted, as equal orientations
    accepted = [
        Orientation(2, table)
        for table in (
            np.array([1, 0, 3, 2], dtype=np.uint32),
            [1, 0, 3, 2],
            np.array([1, 0, 3, 2], dtype=np.uint8),
        )
    ]
    for o in accepted:
        assert o.outmap.tolist() == [1, 0, 3, 2]
        assert o.outmap.dtype == np.uint32
        assert o == accepted[0] and hash(o) == hash(accepted[0])
    assert len({*accepted, uniform(2)}) == 2
    assert accepted[0] != [1, 0, 3, 2]
    assert repr(accepted[0]) == "Orientation(n=2, outmap=[1, 0, 3, 2])"


def test_orientation_table_is_immutable():
    o = uniform(3)
    with pytest.raises(ValueError):
        o.outmap[0] = 0


def test_orientation_never_aliases_its_input():
    table = klee_minty(4).outmap.copy()
    o = Orientation(4, table)
    assert table.flags.writeable and not o.outmap.flags.writeable
    table[:] = 0
    assert o == klee_minty(4)


def test_outmap_of_examples():
    o = uniform(3)
    assert o.out(0) == 0b111
    assert o.out(0b111) == 0
    assert klee_minty(2).out(0b10) == 0b11
    with pytest.raises(ValueError):
        o.out(8)


@pytest.mark.parametrize(
    "call, v",
    [
        (lambda: derandomized_re(klee_minty(3), -1), -1),
        (lambda: fs_revisited(klee_minty(3), -2), -2),
        (lambda: face_sink(klee_minty(3), Face(-8, 3)), -8),
        (lambda: face_sink(klee_minty(3), Face(8, 3)), 8),
        (lambda: face_sink(klee_minty(3), Face(1, 0b11000)), 9),
        (lambda: flip_edge(uniform(3), -1, 1), -1),
        (lambda: join_pair(EvalCounter(klee_minty(3)), -1, 3), -1),
        (lambda: reach_table(klee_minty(3))[-1], -1),
        (lambda: reach_table(klee_minty(3))[8], 8),
        (lambda: reachmap(klee_minty(3), -1), -1),
        (lambda: reachmap(klee_minty(3), 8), 8),
        (lambda: reachmaps(klee_minty(3), [0, 8, -1]), 8),
    ],
    ids=[
        "derandomized_re",
        "fs_revisited",
        "face_sink",
        "face_sink-past-end",
        "face_sink-span-past-end",
        "flip_edge",
        "join_pair",
        "reach_table-negative",
        "reach_table-past-end",
        "reachmap-negative",
        "reachmap-past-end",
        "reachmaps-past-end",
    ],
)
def test_negative_vertices_raise_instead_of_wrapping(call, v):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"vertex {v} out of range for dimension 3"


def test_validate_orientation():
    assert validate_orientation(uniform(4))
    assert not validate_orientation(Orientation(1, [0, 0]))
    assert not validate_orientation(Orientation(1, [1, 1]))


def test_first_edge_violation_examples():
    assert first_edge_violation(klee_minty(5)) is None
    assert first_edge_violation(Orientation(1, [1, 1])) == (0, 1)
    # the coordinate-1 edge between vertices 2 and 3 is incoming at both
    assert first_edge_violation(Orientation(2, [3, 2, 0, 0])) == (2, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_first_edge_violation_matches_pure_loop(n):
    rng = SplitMix64(500 + n)
    for k in range(60):
        table = random_consistent_table(n, rng).outmap.copy()
        for _ in range(k % 3):  # 0, 1 or 2 flipped bits
            table[randrange(rng, 1 << n)] ^= bit(randrange(rng, n) + 1)
        o = Orientation(n, table)
        expect = first_edge_violation_pure(o)
        assert first_edge_violation(o) == expect
        assert validate_orientation(o) == (expect is None)


@pytest.mark.parametrize("n", range(9, 13))
def test_first_edge_violation_matches_pure_loop_on_both_pair_view_orders(n):
    # coordinates 1..4 are XORed transposed and the higher ones in numpy's
    # default order; plant one bad edge on either side, then both, with
    # the least bad vertex on the higher coordinate
    rng = SplitMix64(900 + n)
    size = 1 << n
    for base in (klee_minty(n), random_consistent_table(n, rng)):
        low_j, high_j = 1 + randrange(rng, 4), 5 + randrange(rng, n - 4)
        # each planted vertex is the lower end of its edge, and high_v < low_v
        high_v = randrange(rng, size // 2) & ~bit(high_j)
        low_v = (size // 2 + randrange(rng, size // 2)) & ~bit(low_j)
        plants = {"low": [(low_v, low_j)], "high": [(high_v, high_j)]}
        plants["both"] = plants["low"] + plants["high"]
        for planted in plants.values():
            table = base.outmap.copy()
            for v, j in planted:
                table[v] ^= bit(j)
            o = Orientation(n, table)
            assert first_edge_violation(o) == first_edge_violation_pure(o) == min(planted)


def test_random_flips_preserve_edge_consistency():
    rng = SplitMix64(3)
    o = uniform(4)
    for _ in range(50):
        v = randrange(rng, 16)
        j = randrange(rng, 4) + 1
        u = v ^ bit(j)
        if (o.out(v) ^ o.out(u)) & ~bit(j):
            continue
        o = flip_edge(o, v, j)
        assert validate_orientation(o)
        assert validate_uso(o)


def test_face_sink_examples():
    assert face_sink(uniform(3), Face.whole_cube(3)) == 0b111
    assert face_sink(klee_minty(3), Face.whole_cube(3)) == 0
    with pytest.raises(NotUSOError) as info:
        face_sink(DOUBLE_SINK, Face.whole_cube(2))
    assert info.value.count == 2
    with pytest.raises(NotUSOError) as info:
        face_sink(FOUR_CYCLE, Face.whole_cube(2))
    assert info.value.count == 0


def test_not_uso_certificates_of_the_sink_scans_are_genuine():
    # random edge-consistent tables are mostly not USOs; every face the
    # scans name must have the sink count they report, and every pair the
    # outmap gate names must share an outmap
    rng = SplitMix64(606)
    raised = {"face_sink": 0, "sink_and_source-face": 0, "sink_and_source-pair": 0}
    for n in range(2, 8):
        for _ in range(150):
            o = random_consistent_table(n, rng)
            outmaps = o.outmap.tolist()
            empty = outmaps.count(0)
            try:
                sink, source = sink_and_source(o)
            except NotUSOError as exc:
                assert certificate_holds(o, exc)
                if empty != 1:
                    raised["sink_and_source-face"] += 1
                    assert exc.face == Face.whole_cube(n) and exc.pair is None
                    assert str(exc) == f"not a USO: {empty} vertices have an empty outmap"
                else:
                    raised["sink_and_source-pair"] += 1
                    # v: the least vertex whose outmap an earlier one has;
                    # u: the least vertex with that outmap
                    v = next(w for w in range(1 << n) if outmaps[w] in outmaps[:w])
                    assert exc.pair == (outmaps.index(outmaps[v]), v)
            else:
                assert len(set(outmaps)) == 1 << n
                assert o.out(sink) == 0 and o.out(source) == full_mask(n)
            for _ in range(4):
                span = randrange(rng, full_mask(n)) + 1
                f = Face(randrange(rng, 1 << n), span)
                try:
                    sink = face_sink(o, f)
                except NotUSOError as exc:
                    raised["face_sink"] += 1
                    assert exc.face == f and exc.pair is None
                    assert certificate_holds(o, exc)
                else:
                    assert face_contains(f, sink) and o.out(sink) & span == 0
                    assert sum(o.out(v) & span == 0 for v in f.vertices()) == 1
    assert all(raised.values()), raised


def test_sink_and_source_accepts_exactly_the_bijective_tables():
    # random edge-consistent tables, plus USOs and their one-flip
    # neighbours, which keep a bijective outmap when the flipped edge is
    # flippable
    rng = SplitMix64(611)
    accepted = rejected = 0
    for n in range(1, 8):
        usos = [uniform(n), klee_minty(n), random_fmo(n, rng)]
        usos += [cyclic_full_reach(n)] if n >= 3 else []
        tables = usos + [random_consistent_table(n, rng) for _ in range(100)]
        for o in usos:
            for _ in range(10):
                tables.append(flipped_edge(o, randrange(rng, 1 << n), randrange(rng, n) + 1))
        for o in tables:
            outmaps = o.outmap.tolist()
            bijective = len(set(outmaps)) == 1 << n
            try:
                sink, source = sink_and_source(o)
            except NotUSOError as exc:
                assert not bijective and certificate_holds(o, exc)
                rejected += 1
            else:
                assert bijective
                assert (sink, source) == (outmaps.index(0), outmaps.index(full_mask(n)))
                accepted += 1
    assert accepted and rejected
    # a 17-cube spans two of the gate's scatter blocks
    block = usolib.core._SCATTER_BLOCK
    km = klee_minty(17)
    assert km.vertex_count() == 2 * block
    assert sink_and_source(km) == (0, km.outmap.tolist().index(full_mask(17)))
    # one outmap repeated inside the second block, then across the boundary
    for u, v in [(block + 4_465, block + 34_465), (1_000, block + 34_465)]:
        table = km.outmap.copy()
        table[v] = table[u]
        with pytest.raises(NotUSOError) as exc:
            sink_and_source(Orientation(17, table))
        assert exc.value.pair == (u, v)


@pytest.mark.parametrize("n", [17, 18])
def test_sink_and_source_past_one_scatter_block(n):
    # the gate takes the sink and the source block by block, so on tables
    # of 2 and 4 blocks the empty and the full outmap sit in different ones
    block = usolib.core._SCATTER_BLOCK
    blocks = (1 << n) // block
    top = full_mask(n)
    rng = np.random.default_rng(n)
    for _ in range(4):
        sink_block, source_block = rng.choice(blocks, 2, replace=False)
        p, q = (int(b) * block + int(rng.integers(block)) for b in (sink_block, source_block))
        table = rng.permutation(1 << n).astype(np.uint32)
        for position, value in ((p, 0), (q, top)):
            at = int(np.flatnonzero(table == value)[0])
            table[[at, position]] = table[[position, at]]
        o = Orientation(n, table)
        outmaps = o.outmap.tolist()
        assert sink_and_source(o) == (outmaps.index(0), outmaps.index(top)) == (p, q)
    # a repeated outmap whose two vertices sit in different blocks: an
    # outmap between, the full one (a pair), and the empty one (two sinks)
    for value in (int(rng.integers(1, top)), top, 0):
        u, v = sorted(int(b) * block + int(rng.integers(block)) for b in rng.choice(blocks, 2, replace=False))
        at = int(np.flatnonzero(table == value)[0])
        table[[at, u]] = table[[u, at]]
        bad = table.copy()
        bad[v] = value
        o = Orientation(n, bad)
        with pytest.raises(NotUSOError) as exc:
            sink_and_source(o)
        assert certificate_holds(o, exc.value)
        outmaps = o.outmap.tolist()
        if value:
            assert exc.value.pair == (outmaps.index(value), v) == (u, v)
        else:
            assert (exc.value.face, exc.value.count) == (Face.whole_cube(n), 2)


def test_the_gate_copies_no_table():
    # the seen array is 1 B/vertex and one intp scatter block 0.5 B/vertex
    # at n = 20; argmin and argmax on the read-only table copied it twice
    # (5.0 B/vertex traced)
    o = klee_minty(20)
    tracemalloc.start()
    try:
        sink_and_source(o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def checked_certificate(o: Orientation):
    """The face and count of the error ``first_uso_violation`` returns,
    None on a USO; the certificate must hold."""
    err = first_uso_violation(o)
    if err is None:
        return None
    assert certificate_holds(o, err)
    return err.face, err.count


def test_validate_uso_simple_cases():
    for n in range(1, 7):
        assert validate_uso(uniform(n))
    assert validate_uso(cyclic_full_reach(3))
    assert uso_by_pairwise(cyclic_full_reach(3))
    assert not validate_uso(DOUBLE_SINK)
    assert not validate_uso(FOUR_CYCLE)
    assert checked_certificate(DOUBLE_SINK) == (Face(0, 0b11), 2)
    assert checked_certificate(FOUR_CYCLE) == (Face(0, 0b11), 0)


def test_validate_uso_agrees_with_face_scan_exhaustively_small():
    # every edge orientation of the 1- and 2-cube, and of the 3-cube
    for n in (1, 2, 3):
        edges = cube_edges(n)
        for bits in itertools.product((0, 1), repeat=len(edges)):
            o = orientation_from_edge_bits(n, edges, bits)
            expect = uso_by_face_scan_pure(o)
            assert validate_uso(o) == expect
            assert uso_by_pairwise(o) == expect
            assert checked_certificate(o) == first_uso_violation_by_face_scan(o)


def limit_sweep(monkeypatch, n, sweep):
    """Let the root of ``first_uso_violation`` fold the coordinates its
    module bound allows ("bound"), the low half of them ("half") or none
    ("none"); the rest branch depth first."""
    k = {"bound": None, "half": n // 2, "none": 0}[sweep]
    if k is not None:
        monkeypatch.setattr(usolib.core, "_SWEEP_ENTRIES", 3**k << (n - k))


@pytest.mark.parametrize("sweep", ["bound", "half", "none"])
@pytest.mark.parametrize("n", range(1, 9))
def test_first_uso_violation_matches_face_scan_random_tables(monkeypatch, n, sweep):
    limit_sweep(monkeypatch, n, sweep)
    rng = SplitMix64(300 + n)
    for _ in range(40):
        o = random_consistent_table(n, rng)
        assert checked_certificate(o) == first_uso_violation_by_face_scan(o)
        # arbitrary outmaps, mostly not edge-consistent
        o = Orientation(n, [randrange(rng, 1 << n) for _ in range(1 << n)])
        assert checked_certificate(o) == first_uso_violation_by_face_scan(o)


@pytest.mark.parametrize("sweep", ["bound", "half", "none"])
@pytest.mark.parametrize("n", range(4, 11))
def test_first_uso_violation_matches_face_scan_on_flipped_fmos(monkeypatch, n, sweep):
    limit_sweep(monkeypatch, n, sweep)
    rng = SplitMix64(400 + n)
    for _ in range(10):
        j = randrange(rng, n) + 1
        o = flipped_edge(random_fmo(n, rng), randrange(rng, 1 << n), j)
        expect = first_uso_violation_by_face_scan(o)
        assert expect is None or expect[0].span & bit(j)
        assert checked_certificate(o) == expect
        # after a second flip one step can find bad faces whose array order
        # is not their (span, anchor) order
        o = flipped_edge(o, randrange(rng, 1 << n), randrange(rng, n) + 1)
        assert checked_certificate(o) == first_uso_violation_by_face_scan(o)


@pytest.mark.parametrize("seed", [1, 3])
def test_first_uso_violation_depth_first_part_at_n14(seed):
    # the root folds coordinates 1..13 at n = 14; flipping an edge along
    # coordinate 14 leaves every face without it in its span intact, so the
    # first bad face is found depth first
    rng = SplitMix64(seed)
    o = flipped_edge(random_fmo(14, rng), randrange(rng, 1 << 14), 14)
    expect = first_uso_violation_by_face_scan(o)
    assert expect is not None and expect[0].span & bit(14)
    assert checked_certificate(o) == expect


def test_first_uso_violation_accepts_klee_minty_16():
    assert first_uso_violation(klee_minty(16)) is None


def test_first_uso_violation_across_the_uint32_boundary():
    # face sinks are kept as outmaps in the narrowest unsigned dtype: uint16
    # up to n = 16, uint32 from n = 17 (the face-scan agreement tests above
    # already cross uint8 -> uint16 at n = 8 -> 9)
    o = klee_minty(17)
    assert first_uso_violation(o) is None
    o = flipped_edge(o, 12345, 17)
    assert checked_certificate(o) == (Face(12344, bit(1) | bit(17)), 0)


def test_first_uso_violation_traced_peak_at_klee_minty_16():
    # 19.8 MiB measured with uint16 sink outmaps, and the bound is 1.25
    # times that; joining the sinks at the last coordinate too, which no
    # later join reads, peaked at 21.6 MiB, keeping the root's last fold
    # arrays alive through the depth-first part at 28.8 MiB, and int32 sink
    # ids, gathered from the table at every join, at 59.5 MiB
    o = klee_minty(16)
    tracemalloc.start()
    try:
        first_uso_violation(o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 << 20


@settings(deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**64 - 1), flip=st.booleans())
def test_first_uso_violation_matches_face_scan_hypothesis(n, seed, flip):
    rng = SplitMix64(seed)
    if flip:
        o = flipped_edge(random_fmo(n, rng), randrange(rng, 1 << n), randrange(rng, n) + 1)
    else:
        o = random_consistent_table(n, rng)
    assert checked_certificate(o) == first_uso_violation_by_face_scan(o)


@pytest.mark.parametrize("n,samples", [(4, 6000), (5, 4000)])
def test_validate_uso_agrees_with_face_scan_random_tables(n, samples):
    rng = SplitMix64(41 + n)
    agree_true = 0
    for k in range(samples):
        if k % 5 == 0:
            o = random_fmo(n, rng)  # valid by construction
        else:
            o = random_consistent_table(n, rng)
        expect = uso_by_pairwise(o)
        assert validate_uso(o) == expect
        agree_true += expect
    assert agree_true >= samples // 5  # the FMO injections are all USOs


def test_outmap_face_bijection_exhaustive_n3(all_usos_3):
    full = full_mask(3)
    for o in all_usos_3:
        for span in range(1, full + 1):
            expected = set(submasks(span))
            for anchor in submasks(full ^ span):
                values = {o.out(anchor | sub) & span for sub in submasks(span)}
                assert values == expected


def test_outmap_face_bijection_random_faces_n8():
    rng = SplitMix64(8)
    o = klee_minty(8)
    full = full_mask(8)
    for _ in range(50):
        span = randrange(rng, full) + 1
        anchor = randrange(rng, full + 1) & ~span
        if popcount(span) > 5:
            continue
        seen = set()
        for sub in submasks(span):
            seen.add(o.out(anchor | sub) & span)
        assert len(seen) == 1 << popcount(span)


def test_path_to_face_sink_has_hamming_length(all_usos_3):
    # directed distance to the sink of a face equals Hamming distance
    rng = SplitMix64(77)
    for o in all_usos_3[::37]:
        for span in (0b011, 0b111, 0b101):
            anchor = randrange(rng, 8) & ~span
            f = Face(anchor, span)
            u = face_sink(o, f)
            for v in f.vertices().tolist():
                assert bfs_distance_in_face(o, f, v, u) == popcount(v ^ u)


def test_path_to_sink_random_faces_larger():
    o = auso_lower_bound(6)
    rng = SplitMix64(6)
    full = full_mask(6)
    for _ in range(20):
        span = randrange(rng, full) + 1
        anchor = randrange(rng, full + 1) & ~span
        f = Face(anchor, span)
        u = face_sink(o, f)
        v = anchor | (randrange(rng, full + 1) & span)
        assert bfs_distance_in_face(o, f, v, u) == popcount(v ^ u)


def test_is_acyclic():
    for n in (1, 2, 5, 10):
        assert is_acyclic(klee_minty(n))
    assert not is_acyclic(cyclic_full_reach(3))
    assert not is_acyclic(FOUR_CYCLE)
    assert is_acyclic(auso_lower_bound(5))


def test_topological_order_puts_every_edge_forward():
    for o in (klee_minty(6), auso_lower_bound(6), random_fmo(7, SplitMix64(4))):
        order = topological_order(o)
        if order is None:
            assert not is_acyclic(o)
            continue
        assert sorted(order) == list(range(o.vertex_count()))
        rank = {v: k for k, v in enumerate(order)}
        for v in order:
            for j in range(1, o.n + 1):
                if o.out(v) & bit(j):
                    assert rank[v] < rank[v ^ bit(j)]
    assert topological_order(cyclic_full_reach(4)) is None
    assert topological_order(FOUR_CYCLE) is None


def test_is_decomposable():
    for n in (1, 2, 4, 7):
        assert is_decomposable(uniform(n))
        assert is_decomposable(klee_minty(n))
    assert not is_decomposable(cyclic_full_reach(3))


def test_canonical_form_idempotent_and_reflection():
    o = uniform(3)
    c = canonical_form(o)
    assert canonical_form(c) == c
    assert canonical_form(reverse_orientation(uniform(3))) == c
    with pytest.raises(ValueError):
        canonical_form(uniform(7))


def _apply_automorphism(o, vertex_map, coord_map):
    inverse = [0] * len(vertex_map)
    for v, w in enumerate(vertex_map):
        inverse[w] = v
    return Orientation(o.n, [coord_map[o.out(inverse[w])] for w in range(len(vertex_map))])


def test_canonical_form_invariant_under_automorphisms(all_usos_3):
    rng = SplitMix64(13)
    autos = list(hypercube_automorphisms(3))
    for _ in range(12):
        o = all_usos_3[randrange(rng, len(all_usos_3))]
        vertex_map, coord_map = autos[randrange(rng, len(autos))]
        transformed = _apply_automorphism(o, vertex_map, coord_map)
        assert validate_uso(transformed)
        assert canonical_form(transformed) == canonical_form(o)


def test_canonical_form_matches_loop_oracle_on_all_usos_3(all_usos_3):
    for o in all_usos_3:
        assert canonical_form(o) == canonical_form_by_loop(o)


@pytest.mark.parametrize("n", [4, 5])
def test_canonical_form_matches_loop_oracle_seeded(n):
    instances = [build_family(f, n, 11) for f in FAMILIES]
    instances.append(random_consistent_table(n, SplitMix64(n)))
    for o in instances:
        assert canonical_form(o) == canonical_form_by_loop(o)


@pytest.mark.parametrize("n", range(1, 6))
def test_automorphism_arrays_match_the_generator(n):
    inverse, coord_maps = usolib.core._automorphism_arrays(n)
    rows = set(zip(map(tuple, inverse.tolist()), map(tuple, coord_maps.tolist())))
    expected = set()
    for vertex_map, coord_map in hypercube_automorphisms(n):
        inverse_map = [0] * len(vertex_map)
        for v, w in enumerate(vertex_map):
            inverse_map[w] = v
        expected.add((tuple(inverse_map), tuple(coord_map)))
    assert len(inverse) == len(rows) == (1 << n) * math.factorial(n)
    assert rows == expected


def test_automorphism_arrays_at_n_6():
    inverse, coord_maps = usolib.core._automorphism_arrays(6)
    assert inverse.shape == coord_maps.shape == (46_080, 64)
    assert len(np.unique(inverse, axis=0)) == 46_080
    assert (np.sort(inverse, axis=1) == np.arange(64)).all()
    assert (np.sort(coord_maps, axis=1) == np.arange(64)).all()


def test_canonical_form_invariant_under_automorphisms_at_n_6():
    rng = SplitMix64(29)
    picks = {randrange(rng, 46_080) for _ in range(5)}
    autos = [a for k, a in enumerate(hypercube_automorphisms(6)) if k in picks]
    assert len(autos) == 5
    for o in (random_fmo(6, SplitMix64(6)), cyclic_full_reach(6)):
        c = canonical_form(o)
        for vertex_map, coord_map in autos:
            assert canonical_form(_apply_automorphism(o, vertex_map, coord_map)) == c


def test_eval_counter_caches_distinct_vertices():
    o = uniform(4)
    oracle = EvalCounter(o)
    assert oracle(3) == o.out(3)
    assert oracle(3) == o.out(3)
    oracle(5)
    assert oracle.evaluations == 2
    oracle(3)
    assert oracle.evaluations == 2
    oracle(0)
    assert oracle.evaluations == 3


def test_brute_force_uso_counts_small():
    assert sum(1 for _ in brute_force_usos(1)) == 2
    assert sum(1 for _ in brute_force_usos(2)) == 12
