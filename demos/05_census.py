"""Exhaustive small-dimension census.

Every USO of dimensions 1..3 is generated by lifting pairs of facet USOs
one dimension at a time, and classified: acyclic or cyclic, decomposable or
not, niceness index, and isomorphism class under the full automorphism group
of the cube.

Run:  python3 demos/05_census.py
"""

from usolib import census, enumerate_all, recurrence_check

print("=== counts ===")
for n in (1, 2, 3):
    print(f"  dimension {n}: {enumerate_all(n)} unique sink orientations")

print()
print("=== classification of the 3-cube ===")
c = census(3)
print(f"  total {c.total_uso}: {c.acyclic} acyclic + {c.cyclic} cyclic")
print(f"  decomposable: {c.decomposable}")
print(f"  niceness histogram: {c.niceness_histogram}")
print(f"  isomorphism classes: {len(c.iso_classes)}")
print("  the 16 cyclic orientations form a single class (orbit size 16),")
print("  and the 48 orientations of niceness 2 form a single class too.")

print()
print("=== the doubling recurrence for decomposable counts ===")
print("  F(n) between 2 F(n-1)^2 and 2n F(n-1)^2:")
for n in (2, 3):
    prev = census(n - 1).decomposable
    here = census(n).decomposable
    print(f"  n={n}: {2*prev**2} <= {here} <= {2*n*prev**2}:",
          recurrence_check(n))

print()
print("=== niceness 1 vs decomposable ===")
print(f"  at n=3 the two classes coincide exactly"
      f" ({c.niceness_histogram[1]} orientations);")
print("  from n=4 on, the 1-nice class is strictly larger and even contains")
print("  cyclic orientations (see the target-combed family in demo 02/03).")
