#!/usr/bin/env python3
"""Enumerate every sublocale of a small frame and tour the distinguished
families living inside the assembly."""

from localelab import frames, sublocales as subl, subsystems as sy

chain3 = frames.frame_from_covers(3, [(0, 1), (1, 2)], labels=["0", "a", "1"])
assembly = subl.enumerate_assembly(chain3)
print("sublocales of the 3-chain:")
for s in assembly:
    tags = []
    if s == subl.closure(s):
        tags.append("closed")
    if any(s == subl.open_sublocale(chain3, x) for x in range(3)):
        tags.append("open")
    if subl.is_dense(s):
        tags.append("dense")
    print(" ", s, " ".join(tags))

# open and closed sublocales at one element complement each other
c_a = subl.closed_sublocale(chain3, 1)
o_a = subl.open_sublocale(chain3, 1)
print("\nc(a) =", c_a, " o(a) =", o_a)
print("complement of c(a):", subl.complement_of(c_a))
print("difference L \\ c(a):", subl.difference(subl.whole(chain3), c_a))

# the distinguished families: on a non-subfit frame the joins of closed
# sublocales stay strictly below the smooth ones
an = sy.FrameAnalysis(chain3)
print("\nfamily sizes on the 3-chain")
print("  all sublocales:  ", len(an.assembly))
print("  smooth:          ", len(an.smooth))
print("  joins of closed: ", len(an.closed_joins))
print("  d-sublocales:    ", len(an.d_family))
print("  spatial:         ", len(an.spatial_family))
print("subfit?", frames.is_subfit(chain3),
      " (joins of closed = smooth exactly for subfit frames)")

# the meet-closure adjunction between covered-prime subsets and sublocales
report = sy.check_td_adjunction(assembly)
print("\nadjunction law checked", report.checked, "times:",
      "pass" if report.passed else report.failures[0])

# lifting the surjection onto a sublocale to the assemblies
lift = sy.lift_surjection(assembly, c_a)
print("\nlift onto c(a): maps", len(lift.source_subs), "sublocales onto",
      len(lift.target_subs))
for i, s in enumerate(lift.source_subs):
    print("  ", s, "->", lift.target_subs[lift.pair.hom[i]])
