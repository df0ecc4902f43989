"""Independent brute-force oracles.

Everything here recomputes results straight from definitions, without
touching the prime-subset enumeration, the implication table, or the
decomposition formula that the engine uses.  Oracles stay slow and dumb
on purpose.  The one exception is assembly_frontier, a frontier walk
over the engine's sublocale_closure_mask: the second route to the
assembly, beside the prime-subset enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np

from localelab import frames
from localelab import sublocales as subl
from localelab.sublocales import Sublocale


def assembly_bruteforce(frame):
    """All sublocale masks by filtering every one of the 2^n subsets."""
    n = frame.n
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    member = (masks[:, None] >> np.arange(n)[None, :] & 1).astype(bool)
    ok = member[:, frame.top].copy()
    for i in range(n):
        for j in range(i, n):
            m = int(frame.meet[i, j])
            if m != i and m != j:
                ok &= ~(member[:, i] & member[:, j] & ~member[:, m])
    for s in range(n):
        images = {int(frame.imp[a, s]) for a in range(n)}
        for h in images:
            if h != s:
                ok &= ~(member[:, s] & ~member[:, h])
    return sorted(int(m) for m in masks[ok])


def assembly_frontier(frame):
    """All sublocale masks by closure-system frontier expansion.

    Starts from {top} and repeatedly adds one element and re-closes;
    every sublocale is its own closure, so all of them are reached.
    """
    start = subl.sublocale_closure_mask(frame, 0)
    seen = {start}
    frontier = [start]
    full = (1 << frame.n) - 1
    while frontier:
        new = []
        for m in frontier:
            for x in frames.bits_of(full & ~m):
                grown = subl.sublocale_closure_mask(frame, m | 1 << x)
                if grown not in seen:
                    seen.add(grown)
                    new.append(grown)
        frontier = new
    return sorted(seen)


def glb_bruteforce(leq, a, b):
    """Greatest lower bound of a and b by scanning leq; None if none exists."""
    lows = leq[:, a] & leq[:, b]
    # k is the greatest one when every lower bound j has j <= k
    best = np.flatnonzero(lows & (leq | ~lows[:, None]).all(axis=0))
    return int(best[0]) if len(best) else None


def lub_bruteforce(leq, a, b):
    """Least upper bound of a and b by scanning leq; None if none exists."""
    ups = leq[a] & leq[b]
    best = np.flatnonzero(ups & (leq | ~ups[None, :]).all(axis=1))
    return int(best[0]) if len(best) else None


def poset_failure_bruteforce(rel):
    """(reason, witness) of the first failed partial-order law, scanned
    straight from the definitions: reflexivity by element, then
    antisymmetry and transitivity by pair in row-major order; None for a
    partial order."""
    n = len(rel)
    for i in range(n):
        if not rel[i][i]:
            return "missing reflexivity", i
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        if i != j and rel[i][j] and rel[j][i]:
            return "antisymmetry fails", (i, j)
    for i, j in pairs:
        if not rel[i][j] and any(rel[i][k] and rel[k][j] for k in range(n)):
            return "transitivity fails", (i, j)
    return None


def closure_bruteforce(n, pairs):
    """Reflexive-transitive closure as nested lists, by a search from
    every element along the pairs."""
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    out = []
    for start in range(n):
        seen = [False] * n
        seen[start] = True
        todo = [start]
        while todo:
            for j in succ[todo.pop()]:
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        out.append(seen)
    return out


def frame_rejection_bruteforce(rel):
    """What FiniteFrame must raise on a poset, found by brute force: the
    first pair (i <= j, row-major) without a meet, else without a join,
    else the lexicographically first distributivity triple, as
    (exception class, (pair, kind) or triple); None if the poset is a
    frame."""
    n = len(rel)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for kind, bound in (("meet", glb_bruteforce), ("join", lub_bruteforce)):
        for i, j in pairs:
            if bound(rel, i, j) is None:
                return frames.NonLattice, ((i, j), kind)
    meet = [[glb_bruteforce(rel, i, j) for j in range(n)] for i in range(n)]
    join = [[lub_bruteforce(rel, i, j) for j in range(n)] for i in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
            return frames.NonDistributive, (a, b, c)
    return None


def heyting_bruteforce(frame, a, b):
    """The unique maximal c with a meet c <= b, found by scanning."""
    cands = [c for c in range(frame.n) if frame.leq[frame.meet[a, c], b]]
    best = [c for c in cands if all(frame.leq[d, c] for d in cands)]
    assert len(best) == 1, "frame law guarantees a single maximum"
    return best[0]


def subset_meet_table(frame):
    """meets[mask] = meet of the subset encoded by mask (empty -> top)."""
    n = frame.n
    meet = frame.meet_rows
    meets = [frame.top] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        meets[mask] = meet[meets[mask ^ low]][low.bit_length() - 1]
    return meets


def covered_primes_bruteforce(frame):
    """Primes that belong to every subset whose meet they are."""
    meets = subset_meet_table(frame)
    out = set()
    for p in frames.primes(frame):
        bit = 1 << p
        if all(mask & bit for mask in range(1 << frame.n) if meets[mask] == p):
            out.add(p)
    return frozenset(out)


def primes_by_meet_inequality(frame):
    """The a meet b <= p form of primality, for the equivalence self-test."""
    n, top = frame.n, frame.top
    out = set()
    for p in range(n):
        if p == top:
            continue
        if all(frame.leq[a, p] or frame.leq[b, p]
               for a in range(n) for b in range(n)
               if frame.leq[frame.meet[a, b], p]):
            out.add(p)
    return frozenset(out)


def fully_distributive(frame):
    """a meet (join of B) = join of {a meet b}, over every subset B."""
    n = frame.n
    for a in range(n):
        for mask in range(1 << n):
            sub = [b for b in range(n) if mask >> b & 1]
            lhs = int(frame.meet[a, frame.join_of(sub)])
            rhs = frame.join_of(int(frame.meet[a, b]) for b in sub)
            if lhs != rhs:
                return False
    return True


def join_bruteforce(frame, parts):
    """Join of sublocales: meets of all subsets of the union."""
    union = sorted(set().union(*(p.members for p in parts)) | {frame.top})
    out = set()
    for mask in range(1 << len(union)):
        out.add(frame.meet_of(union[i] for i in range(len(union))
                              if mask >> i & 1))
    return Sublocale(frame, out)


def least_difference(frame, assembly_masks, s, t):
    """Least R with s <= t join R; asserts the least one really exists."""
    good = []
    for mask in assembly_masks:
        r = Sublocale(frame, frames.bits_of(mask))
        if s.members <= join_bruteforce(frame, [t, r]).members:
            good.append(r)
    inter = frozenset(range(frame.n))
    for r in good:
        inter &= r.members
    least = Sublocale(frame, inter)
    assert s.members <= join_bruteforce(frame, [t, least]).members
    return least
