import numpy as np
import pytest

from helpers import (
    bottom_antipodal_by_loop,
    certificate_holds,
    derandomized_re_by_loops,
    fs_revisited_by_loop,
    kth_set_bit_by_loop,
    neighbor_join_by_snapshots,
    random_consistent_table,
    random_edge_walk_by_loop,
    re_expectation_by_solve,
    reachable_vertices,
)
from usolib.algo import (
    _kth_set_bit,
    derandomized_re,
    fibonacci_seesaw,
    fs_revisited,
    join_pair,
    join_set,
    markov_upper_bound,
    neighbor_join,
    resolve_start,
    summarize,
    walk_batch,
)
from usolib.bitops import bit, coords, full_mask, popcount
from usolib.cli import FAMILIES, build_family
from usolib.construct import (
    auso_lower_bound,
    cyclic_full_reach,
    klee_minty,
    random_fmo,
    random_target_combed,
    uniform,
)
from usolib.core import EvalCounter, Face, NotUSOError, Orientation, face_sink, sink_and_source
from usolib.reach import reach_table
from usolib.rng import _MASK64, _START_SALT, SplitMix64, derive_seed, mix64

FAMILIES_N6 = [
    uniform(6),
    klee_minty(6),
    cyclic_full_reach(6),
    auso_lower_bound(6),
    random_fmo(6, SplitMix64(60)),
    random_target_combed(6, SplitMix64(61)),
]


def test_sink_and_source_by_scan():
    o = klee_minty(4)
    sink, source = sink_and_source(o)
    assert sink == 0 and o.out(source) == full_mask(4)
    four_cycle = Orientation(2, [1, 2, 2, 1])  # no vertex has an empty outmap
    with pytest.raises(ValueError):
        sink_and_source(four_cycle)


def test_resolve_start():
    o = klee_minty(3)
    assert resolve_start(o, 5) == 5
    assert resolve_start(o, "antipodal") == 7  # sink is 0
    assert resolve_start(o, "source") == sink_and_source(o)[1]
    for seed in (9, -1, 1 << 70):
        # the auxiliary draw of the seed, reduced to a vertex
        assert resolve_start(o, "random", seed) == mix64((seed + _START_SALT) & _MASK64) % 8
    with pytest.raises(ValueError):
        resolve_start(o, "center")
    with pytest.raises(ValueError):
        resolve_start(o, 8)


@pytest.mark.parametrize("start", [np.int64(3), np.uint8(3)])
def test_numpy_integer_starts_are_vertices(start):
    o = klee_minty(3)
    assert resolve_start(o, start) == 3
    batch = walk_batch(o, "re", start, 5, seed=2, cap=100)
    assert batch.starts.tolist() == [3] * 5
    # a start read back from a batch is a numpy integer too
    again = walk_batch(o, "re", batch.starts[0], 5, seed=2, cap=100)
    assert again.steps.tolist() == batch.steps.tolist()


@pytest.mark.parametrize("policy", ["center", "3", "", 3.0, None])
def test_other_start_policies_raise(policy):
    with pytest.raises(ValueError, match="unknown start policy"):
        resolve_start(klee_minty(3), policy)
    with pytest.raises(ValueError, match="unknown start policy"):
        walk_batch(klee_minty(3), "ba", policy, 1, seed=1, cap=10)


def test_walk_from_sink_is_trivial():
    o = klee_minty(5)
    batch = walk_batch(o, "re", 0, 1, seed=1, cap=100)
    assert batch.steps.tolist() == [0] and batch.found.tolist() == [0]
    assert not batch.capped[0]
    assert batch.evaluations.tolist() == [1]


def test_walk_on_uniform_takes_exactly_missing_coordinates():
    o = uniform(5)
    batch = walk_batch(o, "re", "random", 64, seed=20, cap=1000)
    assert batch.steps.tolist() == [popcount(full_mask(5) ^ v) for v in batch.starts.tolist()]
    assert (batch.found == full_mask(5)).all()


def test_walk_is_reproducible_and_matches_batch():
    o = random_fmo(6, SplitMix64(3))
    batch = walk_batch(o, "re", "random", 64, seed=99, cap=4**6)
    _scalar_matches_batch(
        batch,
        lambda k: random_edge_walk_by_loop(
            o, int(batch.starts[k]), int(batch.seeds[k]), 4**6
        ),
        (0, 1, 13, 63),
    )
    # master seeds are taken mod 2^64, including those at or above 2^63 and
    # negative ones, and trial k walks the stream of derive_seed(seed, k)
    for seed in (2**63, 12345678901234567890, 2**64 - 1, 2**64 + 5, -1, -3):
        for start, cap in ((0, 4**6), (21, 3), (63, 1)):
            rows = walk_batch(o, "re", start, 3, seed, cap)
            assert rows.seeds.tolist() == [derive_seed(seed, k) for k in range(3)]
            _assert_batches_equal(rows, walk_batch(o, "re", start, 3, seed & _MASK64, cap))
            _scalar_matches_batch(
                rows,
                lambda k: random_edge_walk_by_loop(o, start, int(rows.seeds[k]), cap),
                range(3),
            )
    _assert_batches_equal(walk_batch(o, "re", "random", 64, seed=99, cap=4**6), batch)


@pytest.mark.parametrize("algo", ["re", "ba"])
def test_walk_batch_prefix_equals_smaller_batch(algo):
    # trial k depends only on the master seed and k, not on the batch size
    o = cyclic_full_reach(5)
    big = walk_batch(o, algo, "random", 300, seed=5, cap=8)
    small = walk_batch(o, algo, "random", 37, seed=5, cap=8)
    assert big.capped.any() and not big.capped.all()
    _assert_batches_equal(big, small)


def test_walk_cap_reporting():
    # a cyclic orientation with a tiny cap must report capped runs
    o = cyclic_full_reach(4)
    batch = walk_batch(o, "re", "source", 1, seed=8, cap=1)
    assert batch.capped[0] and batch.found[0] == -1 and batch.steps[0] == 1
    source = sink_and_source(o)[1]
    _scalar_matches_batch(
        batch, lambda k: random_edge_walk_by_loop(o, source, int(batch.seeds[k]), 1), [0]
    )
    with pytest.raises(ValueError, match="cap must be >= 1"):
        walk_batch(o, "re", 0, 1, seed=8, cap=0)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        walk_batch(o, "ba", 0, 1, seed=0, cap=-3)
    with pytest.raises(ValueError, match="out of range"):
        walk_batch(o, "re", 16, 1, seed=8, cap=5)
    with pytest.raises(ValueError, match="out of range"):
        walk_batch(o, "ba", -1, 1, seed=0, cap=5)


def test_re_trials_summary_shape():
    o = klee_minty(6)
    summary = summarize(walk_batch(o, "re", "antipodal", 500, seed=3, cap=4**6))
    assert summary.trials == 500
    assert summary.capped_runs == 0
    assert summary.max >= summary.quantiles["p95"] >= summary.mean / 2
    assert 0 < summary.mean < 2 * 36


def test_re_terminates_on_acyclic_within_cap():
    for o in FAMILIES_N6:
        batch = walk_batch(o, "re", "random", 100, seed=11, cap=4**6)
        assert not batch.capped.any()
        sink = sink_and_source(o)[0]
        assert (batch.found == sink).all()


def test_re_mean_on_klee_minty_8():
    summary = summarize(walk_batch(klee_minty(8), "re", "antipodal", 10_000, seed=88, cap=4**8))
    assert summary.capped_runs == 0
    assert summary.mean <= 2 * 8 * 8


def test_re_terminates_on_auso_lower_bound_8():
    batch = walk_batch(auso_lower_bound(8), "re", "random", 200, seed=2, cap=4**8)
    assert not batch.capped.any()


def test_re_easy_on_the_cyclic_lower_bound_family():
    o = cyclic_full_reach(8)
    summary = summarize(walk_batch(o, "re", "antipodal", 1000, seed=21, cap=4**8))
    assert summary.capped_runs == 0
    assert summary.mean < 8**3


def test_re_expectation_on_klee_minty_3():
    o = klee_minty(3)
    expected = re_expectation_by_solve(o)
    # the sink is 000, so the antipodal start is 111
    assert expected[resolve_start(o, "antipodal")] == pytest.approx(3.5, abs=1e-12)
    assert expected[sink_and_source(o)[0]] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_re_sample_means_match_the_exact_expectation(family):
    # Bound: the mean of 2000 walks lies within 5 standard errors of the
    # exact expectation (the worst seen over these 41 cases is about 2.2).
    # When every walk has the same length the standard error is 0, and the
    # mean must equal the expectation up to the solve's rounding.
    trials = 2000
    for n in range(4 if family == "auso-lb" else 3, 9):
        o = build_family(family, n, n)
        expected = re_expectation_by_solve(o)[resolve_start(o, "antipodal")]
        steps = walk_batch(o, "re", "antipodal", trials, 17, 4**n).steps
        stderr = steps.std(ddof=1) / np.sqrt(trials)
        if stderr == 0:
            assert steps.mean() == pytest.approx(expected, abs=1e-9)
        else:
            assert abs(steps.mean() - expected) <= 5 * stderr, (family, n)


def test_markov_upper_bound_values():
    assert markov_upper_bound(5, 1) == 25
    assert markov_upper_bound(3, 2) == 36
    assert markov_upper_bound(4, 0) == 0
    assert markov_upper_bound(30, 5) == 30 * sum(30**k for k in range(1, 6))
    with pytest.raises(ValueError):
        markov_upper_bound(3, 4)


def _simulate_fallback_chain(n: int, i: int, trials: int, seed: int) -> float:
    """Monte Carlo oracle for the distance-to-target chain: advance with
    probability 1/n, else fall back to state i."""
    rng = np.random.default_rng(seed)
    state = np.full(trials, i, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    while True:
        active = np.flatnonzero(state > 0)
        if active.size == 0:
            return float(steps.mean())
        r = rng.random(active.size)
        advance = r < 1.0 / n
        state[active[advance]] -= 1
        state[active[~advance]] = i
        steps[active] += 1


@pytest.mark.parametrize("n,i", [(3, 2), (5, 1), (4, 2)])
def test_markov_bound_matches_chain_simulation(n, i):
    expected = markov_upper_bound(n, i) / n  # per-phase hitting time
    simulated = _simulate_fallback_chain(n, i, 400_000, seed=1234 + n + i)
    assert abs(simulated - expected) / expected < 0.01


def test_bottom_antipodal_examples():
    o = uniform(4)
    assert walk_batch(o, "ba", full_mask(4), 1, seed=0, cap=10).steps.tolist() == [0]
    batch = walk_batch(o, "ba", 0, 1, seed=0, cap=10)
    assert batch.steps.tolist() == [1] and batch.found.tolist() == [full_mask(4)]


def test_bottom_antipodal_klee_minty_regression():
    o = klee_minty(6)
    batch = walk_batch(o, "ba", "source", 1, seed=0, cap=4**6)
    assert batch.found.tolist() == [0]
    assert batch.steps.tolist() == [6]  # frozen regression value


def test_bottom_antipodal_can_hit_cap():
    o = cyclic_full_reach(3)
    # start on the cycle with a tiny cap
    batch = walk_batch(o, "ba", 0b110, 1, seed=0, cap=3)
    assert batch.capped[0] or batch.found[0] == sink_and_source(o)[0]


def _scalar_matches_batch(batch, oracle_at, trials) -> None:
    # oracle_at(k) is trial k run by a per-step loop from tests/helpers.py;
    # batch.capped is computed on each read, so it is read once
    capped = batch.capped
    for k in trials:
        oracle = oracle_at(k)
        assert oracle.steps == int(batch.steps[k])
        assert oracle.evaluations == int(batch.evaluations[k])
        assert oracle.capped == bool(capped[k])
        found = int(batch.found[k])
        assert oracle.found_sink == (None if found < 0 else found)


def _assert_batches_equal(batch, part) -> None:
    # every field of ``part`` equals the matching prefix of ``batch``
    k = part.steps.size
    for name in ("seeds", "starts", "steps", "evaluations", "found", "capped"):
        assert np.array_equal(getattr(batch, name)[:k], getattr(part, name))


def _rerun_matches_prefix(o, algo, batch, seed, cap, split) -> None:
    # the first trials // split trials, run as a batch of their own, equal
    # the prefix of the full batch (split 1 is a plain rerun)
    k = batch.steps.size // split
    _assert_batches_equal(batch, walk_batch(o, algo, "random", k, seed=seed, cap=cap))


@pytest.mark.parametrize("split", [1, 4])
@pytest.mark.parametrize(
    "o",
    [klee_minty(6), auso_lower_bound(6), cyclic_full_reach(4)],
    ids=["km6", "auso-lb6", "cyclic-lb4"],
)
def test_bottom_antipodal_batch_matches_scalar(o, split):
    # many trials, so the evaluation log is merged many times, and a cap
    # small enough that some trials stop at it
    trials = 4_000_000 // o.vertex_count() + 500
    cap = 3
    batch = walk_batch(o, "ba", "random", trials, seed=17, cap=cap)
    assert batch.capped.any() and not batch.capped.all()
    # Bottom Antipodal is deterministic given its start vertex
    by_start = {v: bottom_antipodal_by_loop(o, v, cap) for v in range(o.vertex_count())}
    assert set(batch.starts.tolist()) == set(by_start)  # a walk from every vertex
    _scalar_matches_batch(
        batch, lambda k: by_start[int(batch.starts[k])], range(trials)
    )
    _rerun_matches_prefix(o, "ba", batch, 17, cap, split)


@pytest.mark.parametrize("split", [1, 4])
def test_random_edge_batch_matches_scalar_across_chunks(split):
    o = cyclic_full_reach(4)
    trials = 4_000_000 // o.vertex_count() + 500
    cap = 5
    batch = walk_batch(o, "re", "random", trials, seed=23, cap=cap)
    assert batch.capped.any() and not batch.capped.all()
    sample = range(0, trials, 331)
    _scalar_matches_batch(
        batch,
        lambda k: random_edge_walk_by_loop(
            o, int(batch.starts[k]), int(batch.seeds[k]), cap
        ),
        [*sample, trials - 1],
    )
    _rerun_matches_prefix(o, "re", batch, 23, cap, split)


def _assert_kth_set_bit_matches_the_loop(s, k):
    picked = _kth_set_bit(s, k)
    assert picked.dtype == np.uint32
    assert np.array_equal(picked, kth_set_bit_by_loop(s, k))


def test_kth_set_bit_matches_the_loop_on_every_12_bit_value():
    # every 12-bit x with every k < popcount(x), placed in the low half, in
    # the high half, and in the high half under a random low half
    x = np.arange(1 << 12, dtype=np.uint32)
    counts = np.bitwise_count(x).astype(np.int64)
    x = np.repeat(x, counts)
    k = (np.arange(x.size) - np.repeat(np.cumsum(counts) - counts, counts)).astype(np.uint64)
    _assert_kth_set_bit_matches_the_loop(x, k)
    _assert_kth_set_bit_matches_the_loop(x << np.uint32(12), k)
    low = np.random.default_rng(5).integers(0, 1 << 12, x.size).astype(np.uint32)
    _assert_kth_set_bit_matches_the_loop(
        (x << np.uint32(12)) | low, k + np.bitwise_count(low)
    )


def test_kth_set_bit_matches_the_loop_on_random_24_bit_values():
    rng = np.random.default_rng(11)
    s = rng.integers(1, 1 << 24, 100_000).astype(np.uint32)
    k = rng.integers(0, 1 << 63, s.size).astype(np.uint64) % np.bitwise_count(s)
    _assert_kth_set_bit_matches_the_loop(s, k)


@pytest.mark.parametrize(
    "build",
    [
        lambda: klee_minty(20),
        lambda: random_fmo(14, SplitMix64(8)),
        lambda: cyclic_full_reach(16),
    ],
    ids=["km20", "fmo14", "cyclic-lb16"],
)
def test_random_edge_batch_matches_the_loop_at_high_dimension(build):
    # at n >= 13 some picks land in the high 12-bit half of the outmap
    o = build()
    cap = 4 * o.n**2
    batch = walk_batch(o, "re", "random", 4, seed=31, cap=cap)
    _scalar_matches_batch(
        batch,
        lambda k: random_edge_walk_by_loop(
            o, int(batch.starts[k]), int(batch.seeds[k]), cap
        ),
        range(4),
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bottom_antipodal_batch_counts_revisits_once(n):
    # Bottom Antipodal cycles on this family, so long walks revisit vertices
    # and the evaluation log is merged and deduplicated many times
    o = cyclic_full_reach(n)
    trials, cap = 4 << n, 2000
    batch = walk_batch(o, "ba", "random", trials, seed=29, cap=cap)
    assert batch.capped.any()
    assert (batch.evaluations < batch.steps + 1).any()
    _scalar_matches_batch(
        batch,
        lambda k: bottom_antipodal_by_loop(o, int(batch.starts[k]), cap),
        range(trials),
    )


@pytest.mark.parametrize(
    "n, cap", [(n, 2000) for n in range(4, 9)] + [(n, 4**n) for n in range(4, 8)]
)
def test_bottom_antipodal_retires_cycles_like_the_loop(n, cap):
    # caps far above any cycle length: a trial caught in a cycle is retired
    # early, with the record the loop gives it by running to the cap
    capped = ended = 0
    # Bottom Antipodal both cycles and ends on these USOs
    orientations = [
        cyclic_full_reach(n),
        random_fmo(n, SplitMix64(700 + n)),
        random_target_combed(n, SplitMix64(700 + n)),
    ]
    for o in orientations:
        batch = walk_batch(o, "ba", "random", 3 << n, seed=31 + n, cap=cap)
        by_start = {
            v: bottom_antipodal_by_loop(o, v, cap) for v in set(batch.starts.tolist())
        }
        _scalar_matches_batch(
            batch, lambda k: by_start[int(batch.starts[k])], range(batch.steps.size)
        )
        assert np.all(batch.steps[batch.capped] == cap)
        capped += int(batch.capped.sum())
        ended += int((~batch.capped).sum())
    assert capped and ended


@pytest.mark.parametrize("n", [10, 12])
def test_bottom_antipodal_default_cap_returns_capped_trials(n):
    # with the default cap 4^n the trials caught in a cycle still return
    # at once, each with the full cap as its step count
    o = cyclic_full_reach(n)
    batch = walk_batch(o, "ba", "random", 200, seed=3, cap=4**n)
    capped = batch.capped
    assert capped.any() and not capped.all()
    assert np.all(batch.steps[capped] == 4**n)
    assert np.all(batch.steps[~capped] < 4**n)
    for k in np.flatnonzero(capped)[:5]:
        # a tail plus a cycle visit at most 2^n vertices, so by step 4 * 2^n
        # the loop has entered every vertex it would enter by step 4^n
        looped = bottom_antipodal_by_loop(o, int(batch.starts[k]), 4 << n)
        assert looped.capped and looped.evaluations == int(batch.evaluations[k])


def test_random_edge_on_cyclic_table_counts_revisits_once():
    # Random Edge keeps stepping through repeated vertices; each distinct
    # vertex counts once
    o = cyclic_full_reach(5)
    cap = 300
    batch = walk_batch(o, "re", "random", 200, seed=41, cap=cap)
    assert (batch.evaluations < batch.steps + 1).any()
    _scalar_matches_batch(
        batch,
        lambda k: random_edge_walk_by_loop(
            o, int(batch.starts[k]), int(batch.seeds[k]), cap
        ),
        range(200),
    )


def test_join_pair_identical_vertices():
    o = klee_minty(3)
    oracle = EvalCounter(o)
    assert join_pair(oracle, 5, 5) == 5 and oracle.evaluations == 0


def test_join_pair_hand_traces():
    assert join_pair(EvalCounter(uniform(3)), 0b001, 0b010) == 0b011
    assert join_pair(EvalCounter(klee_minty(2)), 0b10, 0b01) == 0


def test_join_pair_reachability_and_move_bound():
    rng = SplitMix64(123)
    for o in FAMILIES_N6:
        for _ in range(30):
            u = rng.randrange(64)
            v = rng.randrange(64)
            oracle = EvalCounter(o)
            w = join_pair(oracle, u, v)
            assert oracle.evaluations <= (popcount(u ^ v) + 1 if u != v else 0)
            assert (reachable_vertices(o, u) >> w) & 1
            assert (reachable_vertices(o, v) >> w) & 1


# edge-consistent with one global sink (7), but the bottom 2-face is the
# directed 4-cycle 0 -> 1 -> 3 -> 2 -> 0
NOT_USO_3 = Orientation(3, [5, 6, 6, 5, 3, 2, 1, 0])


def test_join_pair_raises_on_non_uso():
    with pytest.raises(ValueError, match="not a USO: vertices 1 and 2 differ on {1,2}"):
        join_pair(EvalCounter(NOT_USO_3), 1, 2)
    for u in range(8):
        for v in range(8):
            try:
                w = join_pair(EvalCounter(NOT_USO_3), u, v)
            except ValueError as exc:
                assert str(exc).startswith("not a USO")
            else:
                assert (reachable_vertices(NOT_USO_3, u) >> w) & 1
                assert (reachable_vertices(NOT_USO_3, v) >> w) & 1


def test_seesaws_raise_on_non_uso():
    with pytest.raises(ValueError, match="not a USO: vertices 0 and 3 differ on {1,2}"):
        fibonacci_seesaw(NOT_USO_3, Face(0, 0b011))
    for start in range(4):
        with pytest.raises(ValueError, match="not a USO"):
            fs_revisited(NOT_USO_3, start)
    for start in range(4, 8):
        assert fs_revisited(NOT_USO_3, start)[0] == 7


@pytest.mark.parametrize("start", [*range(8), "random", "source", "antipodal"])
def test_walks_and_resolve_start_gate_every_start(start):
    # the oracle solvers above stay ungated; every resolved start is gated
    runs = {
        "re": lambda: walk_batch(NOT_USO_3, "re", start, 4, seed=1, cap=100),
        "ba": lambda: walk_batch(NOT_USO_3, "ba", start, 4, seed=1, cap=100),
        "resolve_start": lambda: resolve_start(NOT_USO_3, start, 1),
    }
    for name, run in runs.items():
        with pytest.raises(NotUSOError) as err:
            run()
        assert err.value.pair == (1, 2), name


def test_not_uso_certificates_of_the_joins_and_seesaws_are_genuine():
    # on random edge-consistent tables, mostly not USOs, every pair a join
    # or seesaw names must break the pairwise criterion, and the seesaw
    # never returns a vertex that is not a sink
    rng = SplitMix64(607)
    raised = {"join_pair": 0, "fibonacci_seesaw": 0, "fs_revisited": 0}

    def run(name, call, o):
        try:
            return call()
        except NotUSOError as exc:
            raised[name] += 1
            assert exc.pair is not None and certificate_holds(o, exc)
            return None

    for n in range(2, 8):
        for _ in range(120):
            o = random_consistent_table(n, rng)
            size = 1 << n
            for _ in range(3):
                u, v = rng.randrange(size), rng.randrange(size)
                run("join_pair", lambda: join_pair(EvalCounter(o), u, v), o)
            result = run("fibonacci_seesaw", lambda: fibonacci_seesaw(o), o)
            if result is not None:
                assert o.out(result[0]) == 0
            for _ in range(2):
                start = rng.randrange(size)
                result = run("fs_revisited", lambda: fs_revisited(o, start), o)
                if result is not None:
                    assert o.out(result[0]) == 0
    assert all(raised.values()), raised


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: walk_batch(klee_minty(3), "re", 0, 0, 1, 10), "trials must be >= 1"),
        (lambda: walk_batch(klee_minty(3), "rw", 0, 1, 1, 10), "unknown walk algorithm 'rw'"),
        (lambda: join_set(EvalCounter(klee_minty(3)), []), "join_set needs at least one vertex"),
    ],
    ids=["walk_batch-no-trials", "walk_batch-unknown-algorithm", "join_set-empty"],
)
def test_bad_arguments_raise_naming_the_reason(call, reason):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == reason


def test_join_set_examples():
    o = uniform(3)
    assert join_set(EvalCounter(o), [5]) == 5
    w = join_set(EvalCounter(o), [0b001, 0b010, 0b100])
    for x in (0b001, 0b010, 0b100):
        assert (reachable_vertices(o, x) >> w) & 1


def _neighbor_join_cost(o, v):
    """neighbor_join's vertex and the evaluations it spends once s(v) is
    known."""
    oracle = EvalCounter(o)
    oracle(v)
    return neighbor_join(oracle, v), oracle.evaluations - 1


def test_neighbor_join_single_out_edge():
    o = klee_minty(3)
    v = 0b001  # outmap {1}: only out-neighbor is the sink
    w, evaluations = _neighbor_join_cost(o, v)
    assert w == 0
    assert evaluations <= 1


def test_neighbor_join_hand_traces():
    assert neighbor_join(EvalCounter(uniform(3)), 0) == 0b111
    assert _neighbor_join_cost(klee_minty(2), 0b10) == (0, 2)


def test_neighbor_join_rejects_sink():
    with pytest.raises(ValueError):
        neighbor_join(EvalCounter(klee_minty(3)), 0)


def test_neighbor_join_budget_and_reachability():
    rng = SplitMix64(124)
    for o in FAMILIES_N6:
        for _ in range(20):
            v = rng.randrange(64)
            s = o.out(v)
            if s == 0:
                continue
            w, evaluations = _neighbor_join_cost(o, v)
            assert evaluations <= popcount(s)
            for j in coords(s):
                assert (reachable_vertices(o, v ^ bit(j)) >> w) & 1


def test_derandomized_re_from_sink():
    o = klee_minty(4)
    stats = derandomized_re(o, 0)
    assert stats.found_sink == 0 and stats.steps == 0 and stats.evaluations == 1


def test_derandomized_re_finds_sink_on_all_families():
    for o in FAMILIES_N6:
        sink = sink_and_source(o)[0]
        for start in (0, 21, 42, 63):
            stats = derandomized_re(o, start)
            assert stats.found_sink == sink
            assert not stats.capped


def _outcome(f, *args):
    """Result of ``f(*args)``, or the type and text of what it raised."""
    try:
        return f(*args)
    except (ValueError, NotUSOError) as exc:
        return type(exc), str(exc)


def _counted(join, o, v):
    """Outcome of ``join`` at v and the evaluations it spent."""
    oracle = EvalCounter(o)
    return _outcome(join, oracle, v), oracle.evaluations


def _radius_deepens(o, start):
    """True iff derandomized_re leaves radius 1: at radius 1 each round
    moves to the neighbor join of the current vertex, so the radius deepens
    exactly when those joins revisit a vertex before reaching the sink."""
    visited = set()
    v = start
    while o.out(v) and v not in visited:
        visited.add(v)
        v = neighbor_join_by_snapshots(EvalCounter(o), v)
    return o.out(v) != 0


def test_join_solvers_match_the_loop_oracles(all_usos_3):
    # non-USO tables are the only ones seen to deepen the radius
    rng = SplitMix64(31)
    tables = list(all_usos_3)
    for n in range(2, 7):
        tables += [random_consistent_table(n, rng) for _ in range(40)]
    deepened = 0
    for o in tables:
        for v in range(o.vertex_count()):
            assert _counted(neighbor_join, o, v) == _counted(neighbor_join_by_snapshots, o, v)
            assert _outcome(derandomized_re, o, v) == _outcome(derandomized_re_by_loops, o, v)
            deepened += _radius_deepens(o, v)
    assert deepened > 0


def test_fibonacci_seesaw_base_cases():
    o = klee_minty(3)
    vertex = 0b101
    sink, evals = fibonacci_seesaw(o, Face(vertex, 0))
    assert sink == vertex and evals == 1
    sink, evals = fibonacci_seesaw(o)
    assert sink == face_sink(o, Face.whole_cube(3))
    assert evals == 5  # Fibonacci cost at dimension 3


def test_fibonacci_seesaw_on_faces_matches_face_sink():
    o = random_fmo(6, SplitMix64(7))
    rng = SplitMix64(70)
    for _ in range(30):
        span = rng.randrange(63) + 1
        anchor = rng.randrange(64) & ~span
        f = Face(anchor, span)
        sink, _ = fibonacci_seesaw(o, f)
        assert sink == face_sink(o, f)


def test_fibonacci_seesaw_envelope_on_random_fmos():
    # empirical envelope over a thousand flip-matching orientations,
    # weighted towards the cheap dimensions but reaching n=12
    per_dim = {2: 120, 3: 120, 4: 120, 5: 120, 6: 120, 7: 120, 8: 120, 9: 80, 10: 50, 11: 20, 12: 10}
    for n, count in per_dim.items():
        rng = SplitMix64(900 + n)
        for _ in range(count):
            o = random_fmo(n, rng)
            sink, evals = fibonacci_seesaw(o)
            assert sink == sink_and_source(o)[0]
            assert evals <= 10 * 1.62**n


def test_fs_revisited_from_sink():
    o = klee_minty(5)
    sink, trace = fs_revisited(o, 0)
    assert sink == 0
    assert len(trace.iterations) == 0
    assert trace.reachmap_sizes == (0,)
    assert trace.evaluations == 1


def test_fs_revisited_bounds_small():
    for o in FAMILIES_N6:
        rt = reach_table(o)
        for start in (0, 17, 63):
            sink, trace = fs_revisited(o, start)
            assert sink == sink_and_source(o)[0]
            rho = len(trace.iterations)
            assert rho <= popcount(rt[start])
            sizes = trace.reachmap_sizes
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert trace.evaluations <= 10 * 1.62 ** popcount(rt[start])


def _fs_revisited_summary(o, start):
    """What ``fs_revisited_by_loop`` also gives: the seesaw oracle counts
    evaluations per face, not across the restarts, so the trace's
    evaluation counts are left out."""
    sink, trace = fs_revisited(o, start)
    steps = tuple((step.coordinate, step.face_dimension) for step in trace.iterations)
    return sink, steps, trace.reachmap_sizes


def test_solvers_return_the_scan_sink_on_every_3_cube_uso(all_usos_3):
    for o in all_usos_3:
        sink = sink_and_source(o)[0]
        assert fibonacci_seesaw(o)[0] == sink
        for start in range(8):
            assert derandomized_re(o, start).found_sink == sink
            summary = _fs_revisited_summary(o, start)
            assert summary[0] == sink
            assert summary == fs_revisited_by_loop(o, start)


@pytest.mark.parametrize("family", FAMILIES)
def test_fs_revisited_matches_the_loop_on_the_families(family):
    for n in range(6, 9):
        o = build_family(family, n, n)
        for start in (0, 17, resolve_start(o, "antipodal")):
            assert _fs_revisited_summary(o, start) == fs_revisited_by_loop(o, start)
