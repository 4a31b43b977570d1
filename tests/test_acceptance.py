"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them). Frozen constants: the deterministic-search evaluation constant
C was fitted once on dimensions 4..6 and the envelope factors come straight
from the criteria.
"""

import time

import numpy as np
import pytest

from helpers import brute_force_usos, next_u64, randrange, reachable_vertices
from usolib.algo import (
    derandomized_re,
    fs_revisited,
    join_pair,
    join_set,
    neighbor_join,
    walk_batch,
)
from usolib.bitops import bit, coords, full_mask, popcount
from usolib.cli import main
from usolib.construct import (
    auso_lower_bound,
    cyclic_full_reach,
    hypersink_reorient,
    klee_minty,
    product,
    random_fmo,
    random_target_combed,
    uniform,
)
from usolib.core import (
    EvalCounter,
    Face,
    Orientation,
    canonical_form,
    is_acyclic,
    is_decomposable,
    sink_and_source,
    validate_uso,
)
from usolib.enumeration import census, enumerate_all, uso_stack
from usolib.reach import niceness_index, reach_table
from usolib.rng import SplitMix64, derive_seed

# frozen on the n=4..6 fit of worst-case derandomized-search evaluations
# over the 1-nice families (ratio evaluations / n**2), plus the allowed 10%
DRE_CONSTANT = 0.5625
DRE_ALLOWANCE = 1.1

FS_ENVELOPE_BASE = 1.62
FS_ENVELOPE_FACTOR = 10.0


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_census_ground_truth():
    t0 = time.perf_counter()
    counts = {n: enumerate_all(n) for n in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    oracle = {n: sum(1 for _ in brute_force_usos(n)) for n in (1, 2, 3)}
    ok = counts == {1: 2, 2: 12, 3: 744} and counts == oracle and elapsed < 10.0
    _report(
        "1",
        ok,
        f"enumerate_all 1/2/3 -> {counts[1]}/{counts[2]}/{counts[3]} "
        f"(oracle {oracle[1]}/{oracle[2]}/{oracle[3]}), {elapsed:.2f}s",
    )
    assert counts == {1: 2, 2: 12, 3: 744}
    assert counts == oracle
    assert elapsed < 10.0


def test_criterion_02_three_cube_classes(all_usos_3):
    km_nice = niceness_index(klee_minty(3)).niceness_index

    cyclic_forms = set()
    two_nice_forms = set()
    remaining_ok = True
    for o in all_usos_3:
        idx = niceness_index(o).niceness_index
        if not is_acyclic(o):
            if idx != 3:
                remaining_ok = False
            cyclic_forms.add(canonical_form(o).outmap.tobytes())
        elif idx == 2:
            two_nice_forms.add(canonical_form(o).outmap.tobytes())
        elif idx != 1:
            remaining_ok = False

    ok = (
        km_nice == 1
        and len(cyclic_forms) == 1
        and len(two_nice_forms) == 1
        and remaining_ok
    )
    _report(
        "2",
        ok,
        f"km(3) niceness {km_nice}; cyclic classes {len(cyclic_forms)}; "
        f"2-nice AUSO classes {len(two_nice_forms)}; rest 1-nice {remaining_ok}",
    )
    assert km_nice == 1
    assert len(cyclic_forms) == 1
    assert len(two_nice_forms) == 1
    assert remaining_ok


def test_criterion_03_niceness_bounds_4_to_7():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in range(4, 8):
        a = auso_lower_bound(n)
        ok &= validate_uso(a) and is_acyclic(a)
        a_idx = niceness_index(a).niceness_index
        ok &= a_idx == n - 2

        c = cyclic_full_reach(n)
        ok &= validate_uso(c) and not is_acyclic(c)
        c_idx = niceness_index(c).niceness_index
        ok &= c_idx == n
        rt = reach_table(c)
        sink = sink_and_source(c)[0]
        full = full_mask(n)
        ok &= all(rt[v] == full for v in range(1 << n) if v != sink)
        details.append(f"n={n}: {a_idx}/{c_idx}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report("3", ok, f"auso-lb/cyclic niceness {'; '.join(details)}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_random_edge_envelope():
    t0 = time.perf_counter()
    trials = 1000
    km_ok = True
    instance_means = []
    for n in range(4, 13):
        envelope = 2 * n * n
        km_mean = walk_batch(
            klee_minty(n), "re", "antipodal", trials, derive_seed(4, n), 4**n
        ).steps.mean()
        km_ok &= km_mean <= envelope
        for k in range(100):
            o = random_target_combed(n, SplitMix64(derive_seed(400 + n, k)))
            mean = walk_batch(
                o, "re", "antipodal", trials, derive_seed(800 + n, k), 4**n
            ).steps.mean()
            instance_means.append(mean / envelope)
    within = float(np.mean([m <= 1.0 for m in instance_means]))
    elapsed = time.perf_counter() - t0
    ok = km_ok and within >= 0.95 and elapsed < 120.0
    _report(
        "4",
        ok,
        f"km within envelope {km_ok}; {within:.1%} of 900 instance means within; "
        f"{elapsed:.0f}s",
    )
    assert km_ok
    assert within >= 0.95
    assert elapsed < 120.0


def _family_instances(n: int):
    yield "uniform", uniform(n)
    yield "km", klee_minty(n)
    if n >= 2:
        yield "fmo", random_fmo(n, SplitMix64(derive_seed(50, n)))
        yield "target-combed", random_target_combed(n, SplitMix64(derive_seed(51, n)))
    if n >= 3:
        yield "cyclic-lb", cyclic_full_reach(n)
    if n >= 4:
        yield "auso-lb", auso_lower_bound(n)
    if n >= 2:
        rng = SplitMix64(derive_seed(52, n))
        frame_dim = max(1, n // 2)
        frame = random_fmo(frame_dim, rng)
        fibers = [random_fmo(n - frame_dim, rng) for _ in range(1 << frame_dim)]
        yield "product", product(frame, fibers)


def _starts(n: int, seed: int) -> list[int]:
    size = 1 << n
    if n <= 6:
        return list(range(size))
    rng = SplitMix64(seed)
    picks = {0, size - 1}
    while len(picks) < 8:
        picks.add(randrange(rng, size))
    return sorted(picks)


ONE_NICE_FAMILIES = {"uniform", "km", "target-combed"}


def test_criterion_05_derandomized_random_edge():
    correct = True
    worst_ratio = 0.0
    for n in range(1, 11):
        for family, o in _family_instances(n):
            sink, source = sink_and_source(o)
            starts = _starts(n, derive_seed(53, n))
            if n >= 7:
                starts.append(source)
            for start in starts:
                stats = derandomized_re(o, start)
                correct &= stats.found_sink == sink
                # the frozen constant was fitted over n=4..6, so the
                # regression gate applies from the fit window upward
                if family in ONE_NICE_FAMILIES and n >= 4:
                    worst_ratio = max(worst_ratio, stats.evaluations / (n * n))
    bound = DRE_CONSTANT * DRE_ALLOWANCE
    ok = correct and worst_ratio <= bound
    _report(
        "5",
        ok,
        f"sinks correct {correct}; worst evals ratio {worst_ratio:.3f} "
        f"<= {bound:.3f} on 1-nice families",
    )
    assert correct
    assert worst_ratio <= bound


def test_criterion_06_join_suite():
    pair_ok = True
    set_ok = True
    neighbor_ok = True
    for n in (1, 2, 3):
        for o in brute_force_usos(n):
            size = 1 << n
            reach_sets = [reachable_vertices(o, v) for v in range(size)]
            for u in range(size):
                for v in range(size):
                    oracle = EvalCounter(o)
                    w = join_pair(oracle, u, v)
                    pair_ok &= oracle.evaluations <= (popcount(u ^ v) + 1 if u != v else 0)
                    pair_ok &= bool((reach_sets[u] >> w) & 1)
                    pair_ok &= bool((reach_sets[v] >> w) & 1)
            for v in range(size):
                s = o.out(v)
                if s == 0:
                    continue
                neighbors = [v ^ bit(j) for j in coords(s)]
                oracle = EvalCounter(o)
                oracle(v)
                z = neighbor_join(oracle, v)
                neighbor_ok &= oracle.evaluations - 1 <= popcount(s)
                for w in neighbors:
                    neighbor_ok &= bool((reach_sets[w] >> z) & 1)
                joined = join_set(EvalCounter(o), neighbors)
                for w in neighbors:
                    set_ok &= bool((reach_sets[w] >> joined) & 1)
    ok = pair_ok and set_ok and neighbor_ok
    _report(
        "6",
        ok,
        f"join_pair {pair_ok}, join_set {set_ok}, neighbor_join {neighbor_ok} "
        f"(exhaustive n<=3)",
    )
    assert pair_ok and set_ok and neighbor_ok


def _fsr_instance(k: int):
    n = 2 + (k % 9)
    kind = k % 3
    seed = derive_seed(70, k)
    if kind == 0:
        return n, random_fmo(n, SplitMix64(seed))
    if kind == 1:
        return n, random_target_combed(n, SplitMix64(seed))
    rng = SplitMix64(seed)
    frame_dim = max(1, n // 2)
    frame = random_fmo(frame_dim, rng)
    fibers = [random_fmo(n - frame_dim, rng) for _ in range(1 << frame_dim)]
    return n, product(frame, fibers)


def test_criterion_07_restarted_seesaw_bounds():
    iter_ok = True
    chain_ok = True
    eval_ok = True
    runs = 0
    for k in range(1000):
        n, o = _fsr_instance(k)
        rt = reach_table(o)
        if n <= 4:
            starts = range(1 << n)
        else:
            starts = [randrange(SplitMix64(derive_seed(71, k)), 1 << n)]
        for start in starts:
            sink, trace = fs_revisited(o, start)
            runs += 1
            rho = len(trace.coordinates)
            reach_size = popcount(rt[start])
            iter_ok &= rho <= reach_size
            sizes = [popcount(rt[v]) for v in trace.vertices]
            chain_ok &= all(a >= b for a, b in zip(sizes, sizes[1:]))
            eval_ok &= trace.evaluations <= FS_ENVELOPE_FACTOR * FS_ENVELOPE_BASE**reach_size
    ok = iter_ok and chain_ok and eval_ok
    _report(
        "7",
        ok,
        f"{runs} runs: iterations<=|r(start)| {iter_ok}, chain decreasing "
        f"{chain_ok}, evaluations within envelope {eval_ok}",
    )
    assert iter_ok and chain_ok and eval_ok


def test_criterion_08_combinator_preservation():
    product_ok = True
    rng = SplitMix64(81)
    for k in range(1000):
        frame_dim = 2 if k % 2 == 0 else 1
        fiber_dim = 2 if k % 3 else 3
        frame = random_fmo(frame_dim, SplitMix64(next_u64(rng)))
        fibers = [
            random_fmo(fiber_dim, SplitMix64(next_u64(rng)))
            for _ in range(1 << frame_dim)
        ]
        o = product(frame, fibers)
        product_ok &= validate_uso(o)
        acyclic_inputs = is_acyclic(frame) and all(is_acyclic(f) for f in fibers)
        if acyclic_inputs:
            product_ok &= is_acyclic(o)
        frame_sink = sink_and_source(frame)[0]
        bound = max(
            niceness_index(frame).niceness_index,
            niceness_index(fibers[frame_sink]).niceness_index,
        )
        product_ok &= niceness_index(o).niceness_index <= bound

    # hypersink reorientation: preserves the USO property, niceness not
    hypersink_ok = True
    rng = SplitMix64(82)
    base = uniform(4)
    hyperface = Face(0b1000, 0b0111)
    for _ in range(200):
        rep = random_fmo(3, SplitMix64(next_u64(rng)))
        hypersink_ok &= validate_uso(hypersink_reorient(base, hyperface, rep))

    two_nice = next(
        o
        for o in (Orientation(3, row) for row in uso_stack(3))
        if is_acyclic(o) and niceness_index(o).niceness_index == 2
    )
    witness = hypersink_reorient(base, hyperface, two_nice)
    increased = (
        niceness_index(base).niceness_index == 1
        and validate_uso(witness)
        and niceness_index(witness).niceness_index == 2
    )

    ok = product_ok and hypersink_ok and increased
    _report(
        "8",
        ok,
        f"product preservation {product_ok}; hypersink USO-preservation "
        f"{hypersink_ok}; niceness-increase witness {increased}",
    )
    assert product_ok and hypersink_ok and increased


def test_criterion_09a_decomposable_recurrence(census_3):
    f1 = census(1).decomposable
    f2 = census(2).decomposable
    f3 = census_3.decomposable
    low2, high2 = 2 * f1**2, 4 * f1**2
    low3, high3 = 2 * f2**2, 6 * f2**2
    ok = low2 <= f2 <= high2 and low3 <= f3 <= high3
    _report(
        "9a",
        ok,
        f"F(1)={f1}, F(2)={f2} in [{low2},{high2}], F(3)={f3} in [{low3},{high3}]",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated claim is false: exhaustive enumeration (independently "
        "cross-checked against definition-level oracles) shows the 1-nice "
        "and decomposable 3-cube classes coincide (680 orientations each); "
        "the strict inclusion first appears in dimension 4"
    ),
)
def test_criterion_09b_one_nice_exceeds_decomposable_at_n3(census_3):
    one_nice = census_3.niceness_histogram.get(1, 0)
    _report(
        "9b",
        one_nice > census_3.decomposable,
        f"1-nice at n=3: {one_nice}, decomposable: {census_3.decomposable} "
        f"(claim requires strict excess)",
    )
    assert one_nice > census_3.decomposable


def test_criterion_09c_cyclic_one_nice_witness():
    from usolib.construct import target_combed

    witness = target_combed(4, [uniform(1), uniform(2), cyclic_full_reach(3)])
    ok = (
        validate_uso(witness)
        and not is_acyclic(witness)
        and not is_decomposable(witness)
        and niceness_index(witness).niceness_index == 1
    )
    _report("9c", ok, "target-combed 4-cube with cyclic fiber is cyclic and 1-nice")
    assert ok


def test_criterion_10_determinism(tmp_path):
    bench_args = [
        "bench",
        "--family",
        "target-combed",
        "--algo",
        "re",
        "--n",
        "4..7",
        "--trials",
        "200",
        "--seed",
        "11",
    ]
    enum_args = ["enum", "--n", "3", "--census"]
    outputs = []
    for run in range(3):
        bench_out = tmp_path / f"bench{run}.csv"
        enum_out = tmp_path / f"enum{run}.json"
        assert main(bench_args + ["--out", str(bench_out)]) == 0
        assert main(enum_args + ["--out", str(enum_out)]) == 0
        outputs.append((bench_out.read_bytes(), enum_out.read_bytes()))
    ok = all(o == outputs[0] for o in outputs[1:])
    _report("10", ok, f"bench+enum byte-identical across repeated runs: {ok}")
    assert ok
