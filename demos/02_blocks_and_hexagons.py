"""
Blocks and their hexagon orbits
===============================

Every seed x outside {0, 1} spans the block
(1, x, x^2, x+1, x^2+1, x^2+x, x^2+x+1): the nonzero part of a
3-dimensional subspace.  Scaling blocks by units groups the seeds into
hexagons: the components of the graph whose moves are x -> x+1 and
x -> 1/x.
"""

from qdf import GF2n, hexagon_rows
from qdf.reference import (
    block_of,
    hexagon_of,
    is_subspace_block,
    same_orbit,
    stabilizer_of,
)

f = GF2n(5)
x = 9
b = block_of(f, x)
print(f"block of x={x}: {b.elements}")
print("subspace with 0 added:", is_subspace_block(f, b.elements))
print("same point set as the block of x+1:",
      b.as_set() == block_of(f, x ^ 1).as_set())

h = hexagon_of(f, x)
print(f"hexagon of {x}: {h} (canonical representative {min(h)})")

# the same walk for every hexagon at once, as one array row each
hexes = hexagon_rows(f).tolist()
print(f"n=5: {len(hexes)} hexagons partition the {f.order - 2} seeds")
for hx in hexes:
    print("  ", tuple(hx))

# seeds in one hexagon give the same orbit; across hexagons they never do
print("orbit(x) == orbit(1/x):", same_orbit(f, x, f.inv(x)))
print("orbit(first hexagon) == orbit(second hexagon):",
      same_orbit(f, min(hexes[0]), min(hexes[1])))

# stabilizers are trivial unless the block is the order-8 subfield
f9 = GF2n(9)
kstar = [t for t in f9.subfield(3) if t]
ordinary = stabilizer_of(f9, block_of(f9, 2).elements)
special = stabilizer_of(f9, block_of(f9, kstar[1]).elements)
print(f"n=9 stabilizer orders: ordinary block {len(ordinary)}, "
      f"subfield block {len(special)}")
