import tracemalloc

import numpy as np
import pytest

from helpers import (
    auso_lower_bound_by_flips,
    fmo_by_list,
    hypersink_reorient_by_vertices,
    from_coords,
    klee_minty_by_definition,
    klee_minty_by_shifts,
    next_u64,
    randrange,
    random_maximal_matching_by_list,
    shuffle,
    target_combed_by_steps,
)
import usolib.construct
from usolib.bitops import bit, coords, full_mask, popcount
from usolib.cli import main
from usolib.construct import (
    FlipPreconditionViolated,
    HypersinkViolated,
    _shuffled_range,
    auso_lower_bound,
    build_family,
    cyclic_full_reach,
    flip_edge,
    flip_matching,
    hypersink_reorient,
    klee_minty,
    product,
    random_fmo,
    random_maximal_matching,
    random_target_combed,
    reverse_orientation,
    target_combed,
    uniform,
    validate_matching,
)
from usolib.core import (
    Face,
    Orientation,
    canonical_form,
    face_sink,
    first_edge_violation,
    is_acyclic,
    is_decomposable,
    sink_and_source,
    validate_uso,
)
from usolib.enumeration import enumerate_all
from usolib.reach import niceness_index
from usolib.rng import SplitMix64


def gray(k):
    return k ^ (k >> 1)


def test_uniform_1():
    o = uniform(1)
    assert o.outmap.tolist() == [1, 0]
    assert reverse_orientation(uniform(1)).outmap.tolist() == [0, 1]


def test_uniform_is_decomposable_and_1_nice():
    for n in (2, 4, 6):
        o = uniform(n)
        assert validate_uso(o)
        assert is_decomposable(o)
        assert niceness_index(o).niceness_index == 1


def test_klee_minty_2_table():
    assert klee_minty(2).outmap.tolist() == [0b00, 0b01, 0b11, 0b10]


@pytest.mark.parametrize("n", range(1, 13))
def test_klee_minty_matches_definition(n):
    assert klee_minty(n) == klee_minty_by_definition(n)


@pytest.mark.parametrize("n", range(1, 25))
def test_klee_minty_matches_the_shift_loop(n):
    assert klee_minty(n) == klee_minty_by_shifts(n)


def test_klee_minty_properties():
    for n in (3, 5, 7):
        o = klee_minty(n)
        assert validate_uso(o)
        assert is_acyclic(o)
        assert is_decomposable(o)
    assert niceness_index(klee_minty(3)).niceness_index == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_klee_minty_hamiltonian_path(n):
    # the reversed Gray code walks the whole cube from source to sink
    o = klee_minty(n)
    seq = [gray(k) for k in range((1 << n) - 1, -1, -1)]
    assert o.out(seq[0]) == full_mask(n)
    assert o.out(seq[-1]) == 0
    for a, b in zip(seq, seq[1:]):
        step = a ^ b
        assert popcount(step) == 1
        assert o.out(a) & step


def test_flip_edge_is_involution():
    o = uniform(3)
    flipped = flip_edge(o, 0, 1)
    assert flipped != o
    assert flip_edge(flipped, 0, 1) == o


def test_flip_edge_allowed_and_rejected():
    o = uniform(3)
    flipped = flip_edge(o, 0, 1)  # outmaps {1,2,3} and {2,3} agree off 1
    assert validate_uso(flipped)
    # after that flip, the edge at the base on coordinate 2 is blocked
    with pytest.raises(FlipPreconditionViolated):
        flip_edge(flipped, 0, 2)


@pytest.mark.parametrize("j", [0, 4])
def test_flip_edge_rejects_a_coordinate_outside_the_cube(j):
    with pytest.raises(ValueError) as err:
        flip_edge(uniform(3), 0, j)
    assert str(err.value) == f"coordinate {j} out of range for dimension 3"


def test_three_flips_build_the_cyclic_3_uso():
    o = reverse_orientation(uniform(3))
    for v, j in ((0b001, 2), (0b010, 3), (0b100, 1)):
        o = flip_edge(o, v, j)
    assert validate_uso(o)
    assert not is_acyclic(o)
    assert canonical_form(o) == canonical_form(cyclic_full_reach(3))


def test_flip_matching_empty_is_uniform():
    assert flip_matching(3, []) == uniform(3)
    assert flip_matching(3, np.empty((0, 2), np.int64)) == uniform(3)


def test_flip_matching_reproduces_cyclic_construction():
    edges = [(0b110, 2), (0b101, 3), (0b011, 1)]
    assert flip_matching(3, edges) == cyclic_full_reach(3)


def test_matching_validation():
    for kind in (list, np.array):  # pairs, or (k, 2) array rows
        validate_matching(3, kind([(0, 1), (0b110, 2)]))
        for n, m, message in (
            (3, [(0, 1), (1, 2)], "matching reuses a vertex of edge (1, 2)"),
            (3, [(0, 4)], "coordinate 4 out of range for dimension 3"),
            (2, [(5, 1)], "vertex 5 out of range for dimension 2"),
        ):
            for check in (validate_matching, flip_matching):
                with pytest.raises(ValueError) as err:
                    check(n, kind(m))
                assert str(err.value) == message


@pytest.mark.parametrize("kind", [list, np.array], ids=["list", "array"])
def test_matching_validation_names_the_first_bad_edge(kind):
    cases = (
        ([(0, 1), (2, 1), (1, 3), (0, 4)], "matching reuses a vertex of edge (1, 3)"),
        ([(0, 1), (2, 0), (0, 2)], "coordinate 0 out of range for dimension 3"),
        ([(0, 1), (-1, 2), (0, 2)], "vertex -1 out of range for dimension 3"),
        ([(6, 1), (4, 2), (7, 1)], "matching reuses a vertex of edge (4, 2)"),
    )
    for m, message in cases:
        with pytest.raises(ValueError) as err:
            validate_matching(3, kind(m))
        assert str(err.value) == message


@pytest.mark.parametrize("m", [[(0.5, 1)], np.array([[0.0, 1.0]]), [(1 << 70, 1)]])
def test_matching_validation_rejects_entries_that_are_not_integers(m):
    with pytest.raises(ValueError, match="matching entries must be integers"):
        flip_matching(3, m)


def test_flip_matching_takes_pairs_and_arrays_alike():
    rng = SplitMix64(5)
    for n in range(1, 9):
        m = random_maximal_matching(n, rng)
        assert flip_matching(n, np.array(m).reshape(-1, 2)) == flip_matching(n, m)


def test_shuffled_range_equals_the_list_shuffle():
    for count in range(1, 200):
        fast, slow = SplitMix64(count), SplitMix64(count)
        fast.index = slow.index = count % 7
        items = list(range(count))
        shuffle(items, slow)
        assert _shuffled_range(count, fast).tolist() == items
        assert fast.index == slow.index


@pytest.mark.parametrize("n", range(1, 13))
def test_random_maximal_matching_equals_the_list_oracle(n):
    for seed in range(10):
        for earlier in (0, 3):
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            for rng in (fast, slow):
                for _ in range(earlier):
                    next_u64(rng)
            assert random_maximal_matching(n, fast) == random_maximal_matching_by_list(n, slow)
            assert fast.index == slow.index


@pytest.mark.parametrize("n", [14, 16])
def test_random_maximal_matching_equals_the_list_oracle_large(n):
    fast, slow = SplitMix64(0), SplitMix64(0)
    assert random_maximal_matching(n, fast) == random_maximal_matching_by_list(n, slow)
    assert fast.index == slow.index


def test_random_maximal_matching_edge_cases():
    rng = SplitMix64(9)
    next_u64(rng)
    assert random_maximal_matching(1, rng) == [(0, 1)]  # one edge, no draw
    assert rng.index == 1
    m = random_maximal_matching(2, rng)  # four edges, three draws, two picks
    assert rng.index == 4
    oracle = SplitMix64(9)
    oracle.index = 1
    assert len(m) == 2 and m == random_maximal_matching_by_list(2, oracle)


@pytest.mark.parametrize("n", range(2, 13))
def test_random_families_equal_their_list_built_tables(n):
    seed = 70 + n
    assert random_fmo(n, SplitMix64(seed)) == fmo_by_list(n, SplitMix64(seed))
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    assert random_target_combed(n, fast) == target_combed_by_steps(
        n, [fmo_by_list(k, slow) for k in range(1, n)]
    )
    assert fast.index == slow.index
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    frame = n // 2
    built = product(
        random_fmo(frame, fast), [random_fmo(n - frame, fast) for _ in range(1 << frame)]
    )
    oracle = product(
        fmo_by_list(frame, slow), [fmo_by_list(n - frame, slow) for _ in range(1 << frame)]
    )
    assert built == oracle


#: traced peak of random_fmo(16) in bytes per cube edge, about 1.25 times
#: the measured 25.0 B/edge: the first greedy round's kill of the edges at
#: about half the vertices, one rank row at a time, atop the (n, 2^n) int32
#: rank table, the shuffled edge codes and their coordinate bits (the list
#: of tuples took 78.7)
_FMO_PEAK_BYTES_PER_EDGE = 31


def test_traced_peak_memory_per_edge_of_random_fmo_at_n_16():
    n = 16
    tracemalloc.start()
    try:
        random_fmo(n, SplitMix64(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _FMO_PEAK_BYTES_PER_EDGE * (n << (n - 1))


def test_random_matchings_always_give_usos():
    for n in range(4, 9):
        rng = SplitMix64(100 + n)
        for _ in range(2000):
            m = random_maximal_matching(n, rng)
            o = flip_matching(n, m)
            assert validate_uso(o)


def test_random_maximal_matching_is_maximal():
    rng = SplitMix64(1)
    n = 5
    m = random_maximal_matching(n, rng)
    occupied = set()
    for v, j in m:
        occupied.update((v, v ^ bit(j)))
    for v in range(1 << n):
        for j in range(1, n + 1):
            if v >> (j - 1) & 1:
                continue
            assert v in occupied or (v ^ bit(j)) in occupied


def test_product_doubling():
    o = klee_minty(2)
    doubled = product(reverse_orientation(uniform(1)), [o, o])
    assert validate_uso(doubled)
    assert doubled.n == 3
    # lower half is o, upper half is o plus the combed top coordinate
    for w in range(4):
        assert doubled.out(w) == o.out(w)
        assert doubled.out(4 | w) == o.out(w) | 0b100


def test_product_reconstructs_klee_minty():
    km2 = klee_minty(2)
    km3 = product(klee_minty(1), [km2, reverse_orientation(km2)])
    assert km3 == klee_minty(3)
    assert is_decomposable(km3)


def test_product_errors():
    with pytest.raises(ValueError):
        product(uniform(1), [uniform(2)])  # wrong fiber count
    with pytest.raises(ValueError):
        product(uniform(1), [uniform(2), uniform(3)])  # mismatched fibers


def test_product_preserves_uso_and_acyclicity_sampled():
    rng = SplitMix64(55)
    for _ in range(60):
        frame = random_fmo(2, rng)
        fibers = [random_fmo(2, rng) for _ in range(4)]
        o = product(frame, fibers)
        assert validate_uso(o)
        if is_acyclic(frame) and all(is_acyclic(f) for f in fibers):
            assert is_acyclic(o)


def test_product_niceness_bound_sampled():
    rng = SplitMix64(56)
    for _ in range(40):
        frame = random_fmo(2, rng)
        fibers = [random_fmo(3, rng) for _ in range(4)]
        o = product(frame, fibers)
        frame_sink = next(v for v in range(4) if frame.out(v) == 0)
        bound = max(
            niceness_index(frame).niceness_index,
            niceness_index(fibers[frame_sink]).niceness_index,
        )
        assert niceness_index(o).niceness_index <= bound


def test_hypersink_identity_replacement():
    o = uniform(3)
    f = Face(0b100, 0b011)  # facet on {1,2} through {3}: the hypersink
    restriction = Orientation(2, [o.out(0b100 | v) & 0b011 for v in range(4)])
    assert hypersink_reorient(o, f, restriction) == o


def test_hypersink_replacement_gives_uso():
    o = uniform(3)
    f = Face(0b100, 0b011)
    o2 = hypersink_reorient(o, f, klee_minty(2))
    assert validate_uso(o2)
    assert is_acyclic(o2)


def test_hypersink_violation_detected():
    o = uniform(3)
    not_a_hypersink = Face(0, 0b011)
    with pytest.raises(HypersinkViolated):
        hypersink_reorient(o, not_a_hypersink, klee_minty(2))
    with pytest.raises(ValueError):
        hypersink_reorient(o, Face(0b100, 0b011), klee_minty(3))


@pytest.mark.parametrize(
    "face, v", [(Face(-8, 3), -8), (Face(8, 3), 8), (Face(1, 0b11000), 9)]
)
def test_hypersink_reorient_and_face_sink_name_one_vertex_out_of_range(face, v):
    # both name the least vertex of the face outside the cube
    message = f"^vertex {v} out of range for dimension 3$"
    with pytest.raises(ValueError, match=message):
        face_sink(uniform(3), face)
    with pytest.raises(ValueError, match=message):
        hypersink_reorient(uniform(3), face, uniform(face.dimension))


def test_hypersink_can_increase_niceness():
    # the 1-nice 4-cube with a 2-nice 3-AUSO placed into its hypersink facet
    found = []

    def visit(o):
        if not found and is_acyclic(o) and niceness_index(o).niceness_index == 2:
            found.append(o)

    enumerate_all(3, visit)
    base = uniform(4)
    assert niceness_index(base).niceness_index == 1
    result = hypersink_reorient(base, Face(0b1000, 0b0111), found[0])
    assert validate_uso(result)
    assert niceness_index(result).niceness_index == 2


def test_hypersink_reorient_matches_the_vertex_loop_oracle():
    # each random span once through a random anchor and once through the
    # sink, where hypersinks are common; a violation names the least
    # offending vertex
    rng = SplitMix64(32)
    hypersinks = violations = 0
    for n in range(1, 9):
        for o in (random_fmo(n, rng), klee_minty(n)):
            for _ in range(20):
                span = randrange(rng, (1 << n) - 1) + 1
                replacement = random_fmo(popcount(span), rng)
                for anchor in (randrange(rng, 1 << n), sink_and_source(o)[0]):
                    f = Face(anchor, span)
                    try:
                        expected = hypersink_reorient_by_vertices(o, f, replacement)
                    except HypersinkViolated as exc:
                        with pytest.raises(HypersinkViolated) as got:
                            hypersink_reorient(o, f, replacement)
                        assert str(got.value) == str(exc)
                        violations += 1
                    else:
                        assert hypersink_reorient(o, f, replacement) == expected
                        hypersinks += 1
    assert hypersinks > 100 and violations > 100


def test_target_combed_uniform_fibers_decomposable():
    fibers = [uniform(k) for k in range(1, 5)]
    o = target_combed(5, fibers)
    assert validate_uso(o)
    assert is_decomposable(o)


def test_target_combed_random_fibers():
    o = random_target_combed(6, SplitMix64(123))
    assert validate_uso(o)
    assert niceness_index(o).niceness_index == 1


def test_target_combed_cyclic_fiber_gives_cyclic_1_nice():
    fibers = [uniform(1), uniform(2), cyclic_full_reach(3)]
    o = target_combed(4, fibers)
    assert validate_uso(o)
    assert not is_acyclic(o)
    assert niceness_index(o).niceness_index == 1


def test_target_combed_errors():
    with pytest.raises(ValueError):
        target_combed(3, [uniform(1)])
    with pytest.raises(ValueError):
        target_combed(3, [uniform(1), uniform(3)])


def test_cyclic_full_reach_trace_n3():
    o = cyclic_full_reach(3)
    assert validate_uso(o)
    assert not is_acyclic(o)
    # the 6-cycle through both middle levels
    cycle = [0b110, 0b100, 0b101, 0b001, 0b011, 0b010]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        step = a ^ b
        assert popcount(step) == 1
        assert o.out(a) & step


def test_cyclic_full_reach_rejects_small_n():
    with pytest.raises(ValueError):
        cyclic_full_reach(2)


def test_auso_lower_bound_rejects_small_n():
    with pytest.raises(ValueError):
        auso_lower_bound(3)


def _backward_edges(o):
    """Edges directed from the larger to the smaller vertex set."""
    out = set()
    for v in range(o.vertex_count()):
        for j in coords(o.out(v)):
            if v & bit(j):
                out.add((v, j))
    return out


def test_auso_lower_bound_5_backward_edge_set():
    o = auso_lower_bound(5)
    expected = {
        # the reversed 2-face on coordinates {1,2} anchored at {4,5}
        (from_coords([1, 4, 5]), 1),
        (from_coords([1, 2, 4, 5]), 1),
        (from_coords([2, 4, 5]), 2),
        (from_coords([1, 2, 4, 5]), 2),
        # the reversed path spanning coordinates 4..5
        (from_coords([1, 3, 4, 5]), 4),
        (from_coords([1, 2, 3, 5]), 5),
        # coordinate-3 edges below the third level
        (from_coords([1, 3]), 3),
        (from_coords([2, 3]), 3),
        (from_coords([3, 4]), 3),
        (from_coords([3, 5]), 3),
    }
    assert _backward_edges(o) == expected


def test_auso_lower_bound_properties_small():
    for n in (4, 5, 6):
        o = auso_lower_bound(n)
        assert validate_uso(o)
        assert is_acyclic(o)
        assert niceness_index(o).niceness_index == n - 2


def test_auso_lower_bound_matches_the_flip_chain():
    for n in range(4, 15):
        assert auso_lower_bound(n) == auso_lower_bound_by_flips(n)


def test_auso_lower_bound_builds_at_n_22():
    assert first_edge_violation(auso_lower_bound(22)) is None


def test_target_combed_matches_the_step_by_step_growth():
    for n in range(2, 11):
        rng = SplitMix64(n)
        fibers = [random_fmo(k, rng) for k in range(1, n)]
        assert target_combed(n, fibers) == target_combed_by_steps(n, fibers)


def test_reverse_orientation():
    o = klee_minty(3)
    r = reverse_orientation(o)
    assert validate_uso(r)
    assert reverse_orientation(r) == o
    assert r.out(0) == full_mask(3)  # the sink becomes the source


@pytest.mark.parametrize(
    "family, call",
    [
        ("km", lambda: build_family("km", 5, 0)),
        ("cyclic-lb", lambda: build_family("cyclic-lb", 5, 0)),
        (
            "km",
            lambda: main(["bench", "--family", "km", "--algo", "re", "--n", "5..5", "--trials", "2"]),
        ),
    ],
    ids=["build-km", "build-cyclic-lb", "bench-km"],
)
def test_family_dispatch_looks_constructors_up_by_module_name(monkeypatch, capsys, family, call):
    # a tracer sees a constructor by rebinding its name in usolib.construct;
    # a dispatch table of function objects would bypass the rebound name
    calls = {"km": 0, "cyclic-lb": 0}
    for name, attr in (("km", "klee_minty"), ("cyclic-lb", "cyclic_full_reach")):
        original = getattr(usolib.construct, attr)

        def counted(n, name=name, original=original):
            calls[name] += 1
            return original(n)

        monkeypatch.setattr(usolib.construct, attr, counted)
    call()
    assert calls == {"km": 0, "cyclic-lb": 0} | {family: 1}


def test_build_family_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown family 'klee-minty'"):
        build_family("klee-minty", 4, 0)
