"""Reachmaps, cover distances, and the niceness index.

The reachmap of a vertex collects every coordinate reachable along directed
paths; a vertex is covered by a nearby vertex with a strictly smaller
reachmap. The niceness index (the largest cover distance needed) controls
how fast Random Edge makes progress.

Run:  python3 demos/02_reachmaps_and_niceness.py
"""

from usolib import (
    auso_lower_bound,
    cyclic_full_reach,
    is_acyclic,
    klee_minty,
    niceness_index,
    reach_table,
    uniform,
)
from usolib.bitops import format_coord_set, popcount

print("=== reachmaps of the Klee-Minty 3-cube ===")
km = klee_minty(3)
table = reach_table(km)
for v in range(8):
    print(f"  {format_coord_set(v):8} outmap {format_coord_set(km.out(v)):8}"
          f" reachmap {format_coord_set(table[v])}")

print()
print("=== niceness of the classic 3-cubes ===")
for name, o in [
    ("forward uniform", uniform(3)),
    ("Klee-Minty", km),
    ("cyclic (full reach)", cyclic_full_reach(3)),
]:
    rep = niceness_index(o)
    kind = "acyclic" if is_acyclic(o) else "cyclic"
    print(f"  {name:20} {kind:7} niceness index {rep.niceness_index}")

print()
print("=== the two extreme families ===")
print("cyclic family: every non-sink vertex reaches every coordinate,")
print("so only the sink can cover anything and the index is the dimension:")
for n in (3, 4, 5):
    o = cyclic_full_reach(n)
    rep = niceness_index(o)
    sizes = {popcount(rep.reach[v]) for v in range(1 << n) if o.out(v) != 0}
    print(f"  n={n}: niceness {rep.niceness_index}, non-sink reachmap sizes {sizes}")

print()
print("acyclic family: the worst an acyclic orientation can do is n-2,")
print("and this construction attains it:")
for n in (4, 5, 6):
    o = auso_lower_bound(n)
    rep = niceness_index(o)
    print(f"  n={n}: acyclic {is_acyclic(o)}, niceness {rep.niceness_index} = n-2")

print()
print("=== per-vertex report ===")
rep = niceness_index(auso_lower_bound(4))
print("bottom vertex of the 4-dimensional witness:")
print(f"  cover distance {int(rep.cover_distance[0])},"
      f" witness vertex {rep.witness[0]}")
