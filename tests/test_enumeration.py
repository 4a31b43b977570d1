import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    canonical_form_by_loop,
    cover_search_bfs,
    enumerate_all_by_backtracking,
    is_acyclic_by_reachability,
    is_decomposable_by_recursion,
    randrange,
    reachmap_bruteforce,
    uso_by_face_scan_pure,
)
from usolib.core import Orientation, canonical_form, is_acyclic, validate_uso
from usolib.enumeration import Census, census, enumerate_all, uso_stack
from usolib.reach import niceness_index
from usolib.rng import SplitMix64

GOLDEN = Path(__file__).parent / "golden"


def _golden_json(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def test_counts_small_dimensions():
    assert enumerate_all(1) == 2
    assert enumerate_all(2) == 12
    assert enumerate_all(3) == 744


def test_enumeration_with_verification_filter():
    # the USO check must accept every table the lift emits
    stack = uso_stack(3)
    assert len(stack) == 744
    for row in stack:
        assert validate_uso(Orientation(3, row))


def test_enumerated_tables_are_usos(all_usos_3):
    assert len(all_usos_3) == 744
    assert len({o.outmap.tobytes() for o in all_usos_3}) == 744
    for o in all_usos_3[::31]:
        assert uso_by_face_scan_pure(o)


def test_dimension_guards():
    with pytest.raises(ValueError):
        enumerate_all(0)
    with pytest.raises(ValueError):
        enumerate_all(5)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        uso_stack(0)
    with pytest.raises(ValueError, match="enumeration is supported for n <= 4 only"):
        uso_stack(5)
    with pytest.raises(ValueError):
        census(4)


def test_census_invariants(census_3):
    c = census_3
    assert c.total_uso == 744
    assert c.total_uso == c.acyclic + c.cyclic
    assert c.decomposable <= c.acyclic
    assert sum(c.niceness_histogram.values()) == c.total_uso
    assert sum(c.iso_classes.values()) == c.total_uso


def test_census_low_dimensions_all_1_nice():
    for n in (1, 2):
        c = census(n)
        assert c.niceness_histogram == {1: c.total_uso}
        assert c.cyclic == 0


def test_census_3_structure(census_3, all_usos_3):
    c = census_3
    assert c.cyclic == 16
    assert c.niceness_histogram[3] == 16
    # the cyclic orientations are exactly the 3-nice ones, in one class
    cyclic_forms = {
        canonical_form(o).outmap.tobytes()
        for o in all_usos_3
        if not is_acyclic(o)
    }
    assert len(cyclic_forms) == 1
    two_nice_forms = {
        canonical_form(o).outmap.tobytes()
        for o in all_usos_3
        if is_acyclic(o) and niceness_index(o).niceness_index == 2
    }
    assert len(two_nice_forms) == 1


def test_census_matches_golden_files(census_3):
    for n, c in ((1, census(1)), (2, census(2)), (3, census_3)):
        assert json.loads(json.dumps(dataclasses.asdict(c))) == _golden_json(f"census_n{n}.json")


def _census_by_oracles(n: int) -> Census:
    """The census built table by table from the definition-level oracles."""
    orientations = [Orientation(n, row) for row in uso_stack(n)]
    acyclic = sum(is_acyclic_by_reachability(o) for o in orientations)
    histogram: dict[int, int] = {}
    iso: dict[str, int] = {}
    for o in orientations:
        reach = [reachmap_bruteforce(o, v) for v in range(o.vertex_count())]
        index = max(
            cover_search_bfs(o, reach, v)[0]
            for v in range(o.vertex_count())
            if o.out(v) != 0
        )
        histogram[index] = histogram.get(index, 0) + 1
        key = " ".join(map(str, canonical_form_by_loop(o).outmap.tolist()))
        iso[key] = iso.get(key, 0) + 1
    return Census(
        n=n,
        total_uso=len(orientations),
        acyclic=acyclic,
        cyclic=len(orientations) - acyclic,
        decomposable=sum(is_decomposable_by_recursion(o) for o in orientations),
        niceness_histogram=histogram,
        iso_classes=iso,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_matches_per_table_oracles(n, census_3):
    assert (census_3 if n == 3 else census(n)) == _census_by_oracles(n)


def test_count_dimension_4():
    assert enumerate_all(4) == 5_541_744


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_visits_the_backtracking_order(n):
    searched: list[Orientation] = []
    assert enumerate_all(n) == enumerate_all_by_backtracking(n, searched.append)
    assert uso_stack(n).tolist() == [o.outmap.tolist() for o in searched]


def test_lift_stack_dimension_4():
    stack = uso_stack(4)
    assert stack.shape == (5_541_744, 16)
    assert enumerate_all(4) == len(stack)
    # vertex 0 is the most significant 4-bit digit; strictly increasing
    # keys mean distinct rows in lexicographic order
    key = np.zeros(len(stack), dtype=np.uint64)
    for v in range(16):
        key |= stack[:, v].astype(np.uint64) << np.uint64(4 * (15 - v))
    assert (key[1:] > key[:-1]).all()
    # every edge is outgoing at exactly one of its two endpoints
    vertices = np.arange(16)
    for j in range(4):
        b = np.uint8(1 << j)
        assert (((stack ^ stack[:, vertices ^ b]) & b) == b).all()
    rng = SplitMix64(4)
    for _ in range(2000):
        assert validate_uso(Orientation(4, stack[randrange(rng, len(stack))]))


def test_recurrence_values(census_3):
    f1 = census(1).decomposable
    f2 = census(2).decomposable
    f3 = census_3.decomposable
    assert f1 == 2
    assert 2 * f1**2 <= f2 <= 4 * f1**2
    assert 2 * f2**2 <= f3 <= 6 * f2**2
