"""The numpy kernels of ``core`` and ``reach`` against their per-table
oracles: the decomposition tree ``decomposable_rows`` on every USO of the
2- and 3-cube as one stack, and ``reach_table``, ``niceness_index``,
``find_sink_by_scan`` and ``canonical_form`` on each of them; the
``uso gen`` families one table at a time; and random edge-consistent
tables that are mostly not USOs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_form_by_loop,
    cube_edges,
    is_decomposable_by_recursion,
    niceness_by_python_sweep,
    orientation_from_edge_bits,
    random_consistent_table,
    reachmap_bruteforce,
)
from usolib.cli import FAMILIES, build_family
from usolib.core import (
    Orientation,
    canonical_form,
    decomposable_rows,
    find_sink_by_scan,
    is_acyclic,
    is_decomposable,
    topological_order,
)
from usolib.reach import niceness_index, reach_table
from usolib.rng import SplitMix64


def _stack(orientations) -> np.ndarray:
    return np.stack([o.outmap for o in orientations])


def _reach_oracle(o) -> list[int]:
    return [reachmap_bruteforce(o, v) for v in range(o.vertex_count())]


def _assert_usos_match(orientations, *, full_reach=True, canonical=True):
    decomposable = decomposable_rows(_stack(orientations))
    for o, d in zip(orientations, decomposable):
        size = o.vertex_count()
        assert d == is_decomposable(o) == is_decomposable_by_recursion(o)
        reach = reach_table(o).entries
        if full_reach:
            assert reach.tolist() == _reach_oracle(o)
        else:
            for v in range(0, size, size // 16):
                assert reach[v] == reachmap_bruteforce(o, v)
        sink, cover, witness, index = niceness_by_python_sweep(o, reach.tolist())
        assert find_sink_by_scan(o) == sink == [v for v in range(size) if o.out(v) == 0][0]
        report = niceness_index(o)
        assert report.sink == sink
        assert report.cover_distance.tolist() == cover
        assert report.witness.tolist() == witness
        assert report.niceness_index == index
        if canonical:
            assert canonical_form(o) == canonical_form_by_loop(o)


def test_kernels_on_every_uso_of_the_2_cube(all_usos_2):
    assert len(all_usos_2) == 12
    _assert_usos_match(all_usos_2)


def test_kernels_on_every_uso_of_the_3_cube(all_usos_3):
    assert len(all_usos_3) == 744
    _assert_usos_match(all_usos_3)


@pytest.mark.parametrize("family", FAMILIES)
def test_kernels_on_the_families_one_table_at_a_time(family):
    for n in range(4 if family == "auso-lb" else 3, 13):
        o = build_family(family, n, n)
        _assert_usos_match([o], full_reach=n <= 9, canonical=n <= 5)


def test_decomposable_rows_and_reach_table_on_random_consistent_tables():
    rng = SplitMix64(23)
    for n in range(1, 8):
        same_n = [random_consistent_table(n, rng) for _ in range(6)]
        decomposable = decomposable_rows(_stack(same_n))
        for o, d in zip(same_n, decomposable):
            assert d == is_decomposable_by_recursion(o)
            assert reach_table(o).entries.tolist() == _reach_oracle(o)


def test_a_stack_mixing_usos_and_other_tables_keeps_each_row_apart(all_usos_3):
    rng = SplitMix64(29)
    others = [random_consistent_table(3, rng) for _ in range(40)]
    mixed = all_usos_3[::20] + others
    order = np.argsort([rng.randrange(1 << 30) for _ in mixed])
    mixed = [mixed[k] for k in order]
    decomposable = decomposable_rows(_stack(mixed))
    assert 0 < decomposable.sum() < len(mixed)
    for o, d in zip(mixed, decomposable):
        assert d == is_decomposable_by_recursion(o)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=len(cube_edges(n)), max_size=len(cube_edges(n))),
        min_size=1,
        max_size=4,
    ).map(lambda rows: (n, rows))
))
def test_decomposable_rows_and_reach_table_hypothesis(case):
    n, rows = case
    orientations = [orientation_from_edge_bits(n, cube_edges(n), bits) for bits in rows]
    decomposable = decomposable_rows(_stack(orientations))
    for o, d in zip(orientations, decomposable):
        assert d == is_decomposable_by_recursion(o)
        assert reach_table(o).entries.tolist() == _reach_oracle(o)


def test_is_decomposable_on_a_table_that_is_not_edge_consistent():
    # every vertex has coordinate 1 outgoing, so d(v) = s(v) xor v reads bit 1
    # as 1, 0, 1, 0 and bit 2 as 0, 0, 1, 1: no bit is constant on the square
    o = Orientation(2, [1, 1, 1, 1])
    assert not is_decomposable(o)
    # the recursion reads coordinate 1 only on the vertices where it is clear
    assert is_decomposable_by_recursion(o)


def test_decomposable_tables_are_acyclic(all_usos_3):
    # the census counts decomposable rows as acyclic without running Kahn
    decomposable = decomposable_rows(_stack(all_usos_3))
    assert decomposable.sum() == 680
    for o, d in zip(all_usos_3, decomposable):
        if d:
            assert topological_order(o) is not None
    for family in FAMILIES:
        for n in range(4 if family == "auso-lb" else 3, 13):
            o = build_family(family, n, n)
            if is_decomposable(o):
                assert is_acyclic(o)
