#!/usr/bin/env python3
"""Build a few frames, poke at their element-level algebra, and watch the
validator reject the two classic non-distributive lattices."""

import numpy as np

from localelab import frames

# a three-element chain 0 < a < 1, the open-set lattice of the two-point
# space with one open point
chain3 = frames.frame_from_covers(3, [(0, 1), (1, 2)], labels=["0", "a", "1"])
print("3-chain:", chain3, "top =", chain3.labels[chain3.top])

print("a -> 0 =", chain3.labels[frames.heyting(chain3, 1, 0)])
print("pseudocomplement of a =", chain3.labels[frames.pseudocomplement(chain3, 1)])
print("primes:", sorted(chain3.labels[p] for p in frames.primes(chain3)))
print("covered primes:", sorted(chain3.labels[p]
                                for p in frames.covered_primes(chain3)))
print("subfit?", frames.is_subfit(chain3))

# the square: downsets of a two-point antichain; subfit, all primes maximal
square = frames.downset_lattice(np.eye(2, dtype=bool))
print("\nsquare:", square, "subfit?", frames.is_subfit(square),
      "primes maximal?", frames.maximal_primes_only(square))

# the diamond and the pentagon fail distributivity; the report names a witness
diamond = frames.transitive_reflexive_closure(
    5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
try:
    frames.FiniteFrame(diamond)
except frames.NonDistributive as exc:
    print("\ndiamond rejected:", exc)

pentagon = frames.transitive_reflexive_closure(
    5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
try:
    frames.FiniteFrame(pentagon)
except frames.NonDistributive as exc:
    print("pentagon rejected:", exc)

# every finite frame is the downset lattice of a poset; sample a few
import random
rng = random.Random(2)
for _ in range(3):
    f = frames.random_frame(rng, 5)
    print("\nrandom frame with", f.n, "elements,",
          len(frames.primes(f)), "primes; spatial?", frames.is_spatial(f))
