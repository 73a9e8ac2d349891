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
    build_family,
    build_relative_family,
    desarguesian_spread,
    develop,
    develop_and_verify_gdd,
    make_field,
    verify_relative,
)

f = make_field(9)

spread = desarguesian_spread(f)
print(f"spread: {len(spread.groops)} groops of size 7 "
      f"(= {(f.order - 1)} units / 7)")
print("first groop:", spread.groops[0].tolist())

family = build_family(f)
relative = build_relative_family(family)
print(f"\nrelative family: {len(relative.slots)} blocks "
      f"(subfield block removed), forbidden subgroup {sorted(relative.forbidden)}")

profile = verify_relative(relative)
print(f"quotient profile: pass={profile.passed} "
      f"(0 inside K*, {profile.pair_coverage_min} outside)")

report = develop_and_verify_gdd(relative)
print(f"\ndeveloped blocks: {develop(relative).block_count()}")
print(f"GDD checks ({report.timing:.2f}s):")
for name, ok in report.checks.items():
    print(f"  {name:22s} {ok}")
print("overall:", report.passed)
