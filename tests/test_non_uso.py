"""Public entry points on random edge-consistent tables, which are mostly
not USOs: each call returns or raises ``NotUSOError``, and every
certificate such an error carries is genuine."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import certificate_holds, random_consistent_table, randrange
from usolib.algo import (
    derandomized_re,
    fibonacci_seesaw,
    fs_revisited,
    join_pair,
    neighbor_join,
    walk_batch,
)
from usolib.core import (
    EvalCounter,
    NotUSOError,
    canonical_form,
    first_uso_violation,
    is_acyclic,
    is_decomposable,
    sink_and_source,
)
from usolib.reach import niceness_index, reach_table
from usolib.rng import SplitMix64


def _entry_points(o, u, v):
    """Each entry point under test as a thunk over the table ``o`` and the
    two vertices ``u`` and ``v``."""
    return {
        "sink_and_source": lambda: sink_and_source(o),
        "first_uso_violation": lambda: first_uso_violation(o),
        "reach_table": lambda: reach_table(o),
        "niceness_index": lambda: niceness_index(o),
        "is_acyclic": lambda: is_acyclic(o),
        "is_decomposable": lambda: is_decomposable(o),
        "canonical_form": lambda: canonical_form(o),
        "walk_batch-re": lambda: walk_batch(o, "re", "random", 4, u, 200),
        "walk_batch-ba": lambda: walk_batch(o, "ba", "random", 4, u, 200),
        "derandomized_re": lambda: derandomized_re(o, u),
        "fibonacci_seesaw": lambda: fibonacci_seesaw(o),
        "fs_revisited": lambda: fs_revisited(o, u),
        "join_pair": lambda: join_pair(EvalCounter(o), u, v),
        "neighbor_join": lambda: neighbor_join(EvalCounter(o), u),
    }


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, (1 << 64) - 1))
# [5, 6, 3, 4, 2, 1, 5, 2]: derandomized_re exhausts all radii from u = 3
@example(3, 32)
def test_entry_points_return_or_raise_a_genuine_certificate(n, seed):
    rng = SplitMix64(seed)
    o = random_consistent_table(n, rng)
    u, v = randrange(rng, 1 << n), randrange(rng, 1 << n)
    for name, call in _entry_points(o, u, v).items():
        if name == "neighbor_join" and o.out(u) == 0:
            with pytest.raises(ValueError, match="undefined at the sink"):
                call()
            continue
        try:
            call()
        except NotUSOError as exc:
            assert certificate_holds(o, exc), (name, str(exc))


def _walk_summary(batch):
    return batch.found.tolist(), batch.evaluations.tolist(), batch.steps.tolist()


#: solver -> (call on a table and a vertex, summary of what it returns)
_SOLVERS = {
    "fibonacci_seesaw": (lambda o, u: fibonacci_seesaw(o), lambda r: r),
    "fs_revisited": (fs_revisited, lambda r: (r[0], r[1].evaluations)),
    "derandomized_re": (derandomized_re, lambda r: (r.found_sink, r.evaluations, r.steps)),
    "walk_batch-re": (lambda o, u: walk_batch(o, "re", "random", 4, u, 200), _walk_summary),
    "walk_batch-ba": (lambda o, u: walk_batch(o, "ba", "random", 4, u, 200), _walk_summary),
}


def _solver_outcomes(o, u):
    """One line per solver: its sink with its evaluations or steps on ``o``
    from ``u``, or the certificate of the ``NotUSOError`` it raises."""
    for name, (call, summary) in _SOLVERS.items():
        try:
            yield f"{name} -> {summary(call(o, u))}"
        except NotUSOError as exc:
            face = exc.face and (exc.face.anchor, exc.face.span)
            yield f"{name} raises pair={exc.pair} face={face} count={exc.count}"


def test_solver_outcomes_on_non_usos_are_pinned():
    # sha256 prefix of every solver's sink and cost, or certificate, on 40
    # seeded tables per dimension 1..7; any change to what a solver returns
    # or which pair or face it names on a table that is not a USO shows here
    lines = []
    for n in range(1, 8):
        for seed in range(40):
            rng = SplitMix64(seed)
            o = random_consistent_table(n, rng)
            u = randrange(rng, 1 << n)
            lines.extend(f"{n} {seed} {line}" for line in _solver_outcomes(o, u))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "65668bb25b75f986"
