"""
Developing and exhaustively verifying the cyclic design
=======================================================

Developing the index-7 family multiplies every base block by every unit.
The result is a 2-design on the 2^n - 1 nonzero points with block size 7
and index 7, certified here by counting every point pair exhaustively.
"""

from qdf import (
    GF2n,
    build_family,
    check_qanalog,
    check_simple,
    develop,
    verify_2design,
)

for n in (5, 7, 9, 11):
    f = GF2n(n)
    design = develop(build_family(f))
    report = verify_2design(design)
    print(f"n={n:2d}: v={design.v:5d} blocks={design.block_count():7d} "
          f"pair coverage [{report.pair_coverage_min}, {report.pair_coverage_max}] "
          f"pass={report.passed} ({report.timing:.2f}s)")
    assert design.block_count() * 42 == 7 * design.v * (design.v - 1)

# every block is a subspace with the zero vector added back
f = GF2n(9)
design = develop(build_family(f))
print("\nn=9 subspace property:", check_qanalog(design))

# simplicity holds exactly when n = +-1 (mod 6); at n = 3 (mod 6) the
# subfield block's orbit is short and repeats
for n in (5, 7, 9):
    d = develop(build_family(GF2n(n)))
    print(f"n={n}: simple={check_simple(d)}")
repeated = [o for o in design.orbits if o.replication > 1]
print(f"n=9 repeated orbit: length {repeated[0].length}, "
      f"replication {repeated[0].replication}")
