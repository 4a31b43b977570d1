"""Build cube orientations, inspect them, and move them through files.

Run:  python3 demos/01_orientations_and_validation.py
"""

from usolib import (
    Face,
    NotUSOError,
    Orientation,
    face_sink,
    flip_edge,
    is_acyclic,
    is_decomposable,
    klee_minty,
    uniform,
    validate_uso,
)
from usolib.bitops import format_coord_set
from usolib.io import dumps_text, loads_text

print("=== the forward-uniform 3-cube ===")
o = uniform(3)
for v in range(8):
    print(f"  vertex {v} = {format_coord_set(v):8}  outmap {format_coord_set(o.out(v))}")
print("valid USO:", validate_uso(o))
print("acyclic:", is_acyclic(o), " decomposable:", is_decomposable(o))
print("sink of the whole cube:", face_sink(o, Face.whole_cube(3)))

print()
print("=== the Klee-Minty 3-cube ===")
km = klee_minty(3)
print("outmap table:", km.outmap.tolist())
print("sink:", face_sink(km, Face.whole_cube(3)), "(the empty vertex)")
print("sink of the 2-face on {1,2} through vertex {3}:",
      face_sink(km, Face(0b100, 0b011)))

print()
print("=== edge flips ===")
# any single edge whose endpoint outmaps agree off the edge coordinate may
# be reversed without losing the unique-sink property
flipped = flip_edge(o, 0, 1)
print("after flipping the coordinate-1 edge at the source:",
      flipped.outmap.tolist(), "- still a USO:", validate_uso(flipped))
print("flipping twice restores the original:", flip_edge(flipped, 0, 1) == o)

print()
print("=== a broken table is caught ===")
four_cycle = Orientation(2, [1, 2, 2, 1])  # directed 4-cycle, no sink at all
print("valid USO:", validate_uso(four_cycle))
try:
    face_sink(four_cycle, Face.whole_cube(2))
except NotUSOError as err:
    print("face_sink refuses:", err)
    print("certificate: face", err.face, "with", err.count, "sinks")

print()
print("=== text round-trip ===")
text = dumps_text(km)
print(text.splitlines()[0], "... plus", len(text.splitlines()) - 1, "outmap lines")
print("round-trips exactly:", loads_text(text) == km)
