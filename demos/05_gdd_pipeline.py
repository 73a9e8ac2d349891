"""
The group divisible design at n = 3 (mod 6)
===========================================

When 3 divides n the family contains one block equal to K*, the
multiplicative group of the order-8 subfield.  Removing it leaves a
relative difference family: its quotients avoid K* entirely and cover
everything else exactly 7 times.  Developing it against the spread of
K*-cosets yields a cyclic, simple group divisible design.
"""

from qdf import (
    GF2n,
    build_family,
    build_relative_family,
    desarguesian_spread,
    develop,
    verify_gdd,
    verify_relative,
)

f = GF2n(9)

groops = desarguesian_spread(f)
print(f"spread: {len(groops)} groops of size 7 "
      f"(= {(f.order - 1)} units / 7)")
print("first groop:", groops[0].tolist())

family = build_family(f)
relative = build_relative_family(family)
print(f"\nrelative family: {len(relative.slots)} blocks "
      f"(subfield block removed), forbidden subgroup {sorted(relative.forbidden)}")

profile = verify_relative(relative)
print(f"quotient profile: pass={profile.passed} "
      f"(0 inside K*, {profile.pair_coverage_min} outside)")

design = develop(relative)
report = verify_gdd(design)
print(f"\ndeveloped blocks: {design.block_count()}")
print(f"GDD checks ({report.timing:.2f}s):")
for name, ok in report.checks.items():
    print(f"  {name:22s} {ok}")
print("overall:", report.passed)
