"""Deterministic sink finding: joins, the derandomized walk, and seesaws.

A join is a vertex that every input vertex can reach; joining the
out-neighborhood of a vertex costs only |s(v)| evaluations and lands on a
vertex with a reachmap no larger than the best neighbor's. Iterating this
gives a deterministic method matching Random Edge's budget. The restarted
seesaw instead pays exponentially in the reachmap of the START vertex, not
in the dimension.

Run:  python3 demos/04_deterministic_solvers.py
"""

from usolib import (
    EvalCounter,
    auso_lower_bound,
    derandomized_re,
    fibonacci_seesaw,
    fs_revisited,
    join_pair,
    join_set,
    klee_minty,
    neighbor_join,
    popcount,
    reachmaps,
    sink_and_source,
)
from usolib.bitops import format_coord_set
from usolib.construct import random_target_combed
from usolib.rng import SplitMix64

print("=== joins ===")
km = klee_minty(4)
# a join sees the cube only through the EvalCounter it is given, and its
# cost is read from that counter; it always moves once per coordinate where
# its two inputs differ
oracle = EvalCounter(km)
w = join_pair(oracle, 0b0011, 0b1100)
print(f"join of {{1,2}} and {{3,4}}: vertex {format_coord_set(w)}"
      f" after {popcount(0b0011 ^ 0b1100)} moves, {oracle.evaluations} evaluations")
w = join_set(EvalCounter(km), [1, 2, 4, 8])
print("join of all four unit vertices:", format_coord_set(w))
oracle = EvalCounter(km)
oracle(0b1010)
w = neighbor_join(oracle, 0b1010)
print(f"neighbor-join at {{2,4}}: vertex {format_coord_set(w)}"
      f" with {oracle.evaluations - 1} extra evaluations")

print()
print("=== derandomized Random Edge ===")
print(" n   rounds  evaluations  budget n^2")
for n in (4, 6, 8, 10):
    o = random_target_combed(n, SplitMix64(2 * n))
    stats = derandomized_re(o, (1 << n) - 1)
    assert stats.found_sink == sink_and_source(o)[0]
    print(f"{n:2}   {stats.steps:5}  {stats.evaluations:10}  {n*n:6}")

print()
print("=== Fibonacci Seesaw ===")
print("evaluation counts follow the Fibonacci recurrence t(n) = t(n-1) + t(n-2):")
for n in (2, 4, 6, 8, 10):
    o = klee_minty(n)
    sink, evals = fibonacci_seesaw(o)
    print(f"  {n}-cube: sink {sink} with {evals} evaluations")

print()
print("=== restarted seesaw, bounded by the start's reachmap ===")
o = auso_lower_bound(8)  # its source is the empty vertex
# the solver sees only what it evaluates; the reachmap sizes along its trace
# come from one reachmaps call over the trace's vertices, as in `uso solve`
for start in (sink_and_source(o)[1], 0b00000001, 0b11110000):
    sink, trace = fs_revisited(o, start)
    sizes = [popcount(r) for r in reachmaps(o, trace.vertices)]
    print(f"start {start:3}: |r(start)| {sizes[0]:2},"
          f" {len(trace.coordinates)} iterations,"
          f" {trace.evaluations} evaluations,"
          f" reachmap sizes {sizes}")
