"""Random Edge experiments: seeded walks, batched trials, step budgets.

On an orientation of niceness i, Random Edge needs an expected number of
steps bounded by n * sum_{k<=i} n^k; for the 1-nice families here that is
quadratic, and the measured means sit far below even 2 n^2.

Run:  python3 demos/03_random_edge.py
"""

import numpy as np

from usolib import klee_minty, markov_upper_bound, walk_batch
from usolib.construct import cyclic_full_reach, random_target_combed
from usolib.rng import SplitMix64

print("=== one reproducible walk ===")
km = klee_minty(6)
# a single walk is a batch of one trial
walk = walk_batch(km, "re", 63, 1, seed=2024, cap=4**6)
print(f"walk on the 6-cube from vertex 63: {walk.steps[0]} steps,"
      f" {walk.evaluations[0]} distinct vertices, sink {walk.found[0]}")
# trial k depends only on the master seed and k, whatever the batch size
batch = walk_batch(km, "re", 63, 100, seed=2024, cap=4**6)
print("same seed, same walk as trial 0 of 100:",
      (batch.steps[0], batch.evaluations[0]) == (walk.steps[0], walk.evaluations[0]))

print()
print("=== batched trials against the quadratic budget ===")
print(" n   mean    p95     max   budget(2n^2)  markov bound n*Sum n^k (i=1)")
for n in (4, 6, 8, 10, 12):
    steps = walk_batch(klee_minty(n), "re", "antipodal", 2000, seed=7, cap=4**n).steps
    print(f"{n:2}  {steps.mean():6.1f} {np.quantile(steps, 0.95):6.1f}"
          f" {steps.max():6d}   {2*n*n:6d}        {markov_upper_bound(n, 1):6d}")

print()
print("=== a 1-nice instance with random fibers behaves the same way ===")
o = random_target_combed(10, SplitMix64(5))
batch = walk_batch(o, "re", "antipodal", 2000, seed=11, cap=4**10)
print(f"target-combed 10-cube: mean {batch.steps.mean():.1f} steps"
      f" (budget {2*10*10}), capped runs {batch.capped.sum()}")

print()
print("=== cyclic does not mean slow for Random Edge ===")
o = cyclic_full_reach(8)
batch = walk_batch(o, "re", "antipodal", 2000, seed=13, cap=4**8)
print(f"cyclic full-reach 8-cube: mean {batch.steps.mean():.1f} steps"
      f" (n^3 = {8**3}), capped runs {batch.capped.sum()}")

print()
print("=== Bottom Antipodal jumps ===")
for n in (4, 6, 8):
    jumps = walk_batch(klee_minty(n), "ba", "source", 1, seed=0, cap=4**n).steps[0]
    print(f"  Klee-Minty {n}-cube from the source: {jumps} jumps")
