import json
import os
from pathlib import Path

import pytest

from helpers import (
    canonical_form_by_loop,
    cover_search_bfs,
    is_acyclic_by_reachability,
    is_decomposable_by_recursion,
    reachmap_bruteforce,
    uso_by_face_scan_pure,
)
from usolib.core import canonical_form, is_acyclic, validate_uso
from usolib.enumeration import Census, census, enumerate_all, recurrence_check
from usolib.reach import niceness_index

GOLDEN = Path(__file__).parent / "golden"


def _golden_json(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def test_counts_small_dimensions():
    assert enumerate_all(1) == 2
    assert enumerate_all(2) == 12
    assert enumerate_all(3) == 744


def test_enumeration_with_verification_filter():
    # the USO check must accept every table the pruner visits
    def check(o):
        assert validate_uso(o)

    assert enumerate_all(3, check) == 744


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
    with pytest.raises(ValueError):
        enumerate_all(4)  # needs the heavy flag
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
        assert c.to_json_obj() == _golden_json(f"census_n{n}.json")


def _census_by_oracles(n: int) -> Census:
    """The census built table by table from the definition-level oracles."""
    orientations: list = []
    enumerate_all(n, orientations.append)
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


def test_recurrence_check():
    assert recurrence_check(2)
    assert recurrence_check(3)
    with pytest.raises(ValueError):
        recurrence_check(4)


@pytest.mark.skipif(
    not os.environ.get("USO_HEAVY_TESTS"),
    reason="takes ~2 minutes; set USO_HEAVY_TESTS=1 to run",
)
def test_heavy_count_dimension_4():
    assert enumerate_all(4, heavy=True) == 5_541_744


def test_recurrence_values(census_3):
    f1 = census(1).decomposable
    f2 = census(2).decomposable
    f3 = census_3.decomposable
    assert f1 == 2
    assert 2 * f1**2 <= f2 <= 4 * f1**2
    assert 2 * f2**2 <= f3 <= 6 * f2**2
