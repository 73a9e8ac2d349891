"""
Difference families and the solvability certificate
====================================================

Taking every seed's block covers each unit t != 1 exactly 42 times in
the quotient list; one block per hexagon brings that down to exactly 7.
The certificate route re-derives the 42 from scratch: of the 42 quotient
equations per t, 24 are degenerate with a single solution each, and the
18 genuinely quadratic ones split into 9 matched pairs with exactly one
solvable member, so m(t) = 24 + 2*9.
"""

from qdf import GF2n, MATCHED_PAIRS, build_family, full_family, multiplicity_profile
from qdf.reference import equation_certificate, predicted_multiplicity

f = GF2n(7)

fam_all = full_family(f)
prof_all = multiplicity_profile(fam_all)
print(f"all-seeds family: {len(fam_all.slots)} blocks, "
      f"m(t) range {prof_all.extremes()}")

fam = build_family(f)
prof = multiplicity_profile(fam)
print(f"index-7 family:   {len(fam.slots)} blocks, "
      f"m(t) range {prof.extremes()}")

t = 87
cert = equation_certificate(f, t)
print(f"\ncertificate at t={t}: r(t)={cert.r}, matching ok: {cert.matching_ok}")
solvable = {(e.i, e.j) for e in cert.equations if e.count == 2}
for left, right in MATCHED_PAIRS:
    winner = left if left in solvable else right
    print(f"  match {left} / {right}: solvable -> E{winner[0]}{winner[1]}")

print("\ncertificate prediction 24 + 2*r(t) vs brute-force profile:")
for t in (2, 3, 87, 100):
    print(f"  t={t}: predicted {predicted_multiplicity(f, t)}, "
          f"counted {prof_all.counts[t]}")
