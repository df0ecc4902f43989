"""Independent brute-force oracles.

Everything here recomputes results straight from definitions, without
touching the prime-subset enumeration, the implication table, or the
decomposition formula that the engine uses.  Oracles stay slow and dumb
on purpose.  The one exception is assembly_frontier, a frontier walk
over the engine's sublocale_closure_mask: the second route to the
assembly, beside the prime-subset enumeration.  The last two sections
are others: the pair and triple scans of the theorem checks as Python
loops over the engine's own tables, and the lift onto one member at a
time through AdjointPair, the judges of the numpy gathers that
theorems and subsystems run in their place.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems
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


def meet_closure_worklist(frame, mask):
    """The meet closure of mask and top by a worklist: every new element
    is met with every member until nothing new appears."""
    meet = frame.meet_rows
    mask |= 1 << frame.top
    todo = list(frames.bits_of(mask))
    while todo:
        row = meet[todo.pop()]
        for y in frames.bits_of(mask):
            if not mask >> row[y] & 1:
                mask |= 1 << row[y]
                todo.append(row[y])
    return mask


def pieces_unions_by_definition(frame, t_masks):
    """U(T) for each T in t_masks, from its definition: the union of the
    pieces c(x) meet o(y) over every (x, y) whose basic o(x) join c(y),
    the worklist closure of o(x) | c(y), holds T."""
    n, up = frame.n, frame.up_masks
    opens = [frames.mask_of(frame.imp[a].tolist()) for a in range(n)]
    basics = [(meet_closure_worklist(frame, opens[x] | up[y]), up[x] & opens[y])
              for x in range(n) for y in range(n)]
    unions = []
    for t in t_masks:
        union = 0
        for basic, piece in basics:
            if t & ~basic == 0:
                union |= piece
        unions.append(union)
    return unions


def is_boolean_by_loops(frame):
    """Every element has a complement, found by scanning its meet and
    join rows."""
    meet, join = frame.meet_rows, frame.join_rows
    return all(any(m == frame.bottom and j == frame.top for m, j in zip(meet[x], join[x]))
               for x in range(frame.n))


def join_closure_bruteforce(frame, masks):
    """The masks of zero and the given sublocales, closed under binary
    joins; the join of two sublocales is the meet closure of their union
    (meet_closure_worklist), never the engine's join."""
    out = {1 << frame.top, *masks}
    frontier = list(out)
    while frontier:
        new = []
        for a in frontier:
            for b in list(out):
                j = meet_closure_worklist(frame, a | b)
                if j not in out:
                    out.add(j)
                    new.append(j)
        frontier = new
    return out


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


def cover_relation_by_definition(leq):
    """covers[i][j] as nested lists: i < j with no k strictly between,
    scanned from the definition."""
    n = len(leq)
    lt = [[bool(leq[i][j]) and i != j for j in range(n)] for i in range(n)]
    return [[lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


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
    tables = []
    for kind, bound in (("meet", glb_bruteforce), ("join", lub_bruteforce)):
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                table[i][j] = table[j][i] = bound(rel, i, j)
                if table[i][j] is None:
                    return frames.NonLattice, ((i, j), kind)
        tables.append(table)
    meet, join = tables
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


def spectra_by_pairs(frame, mask):
    """(primes, covered primes) of the meet-closed set in mask: a member
    is reducible when two other members meet to it, and a prime is
    covered when the meet of the members strictly above it, folded over
    the meet table, stays strictly above it."""
    members = list(frames.bits_of(mask))
    meet, up = frame.meet_rows, frame.up_masks
    reducible = set()
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            m = meet[x][y]
            if m != x and m != y:
                reducible.add(m)
    primes = frozenset(members) - reducible - {frame.top}
    covered = frozenset(p for p in primes
                        if frame.meet_of(frames.bits_of(up[p] & mask & ~(1 << p))) != p)
    return primes, covered


def meets_of_points_by_folds(frame, points, elements=None):
    """Every element (every one by default) is the meet of the given
    points above it, each meet folded over the meet table."""
    up, pts = frame.up_masks, frames.mask_of(points)
    if elements is None:
        elements = range(frame.n)
    return all(frame.meet_of(frames.bits_of(up[a] & pts)) == a for a in elements)


def subfit_by_triples(frame):
    """Whenever a is not below b some c has a join c = top != b join c,
    scanned over every triple."""
    n, up, join, top = frame.n, frame.up_masks, frame.join_rows, frame.top
    for a in range(n):
        row_a = join[a]
        for b in range(n):
            if up[a] >> b & 1:
                continue
            row_b = join[b]
            if not any(row_a[c] == top and row_b[c] != top for c in range(n)):
                return False
    return True


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


def sublocale_frame(sub):
    """The sublocale as a frame in its own right, with its element map:
    (frame, members), members[i] the ambient element of the i-th new one."""
    members = tuple(sorted(sub.members))
    return sy._frame_on(sub.frame, members), members


def zero(frame):
    """The one-point sublocale {top}, bottom of the assembly."""
    return Sublocale(frame, {frame.top})


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


# ---------------------------------------------------------------------------
# the adjunction scan by pairs

def adjunction_law_by_pairs(frame, points, family, covered):
    """subsystems.adjunction_law as one test per (Y, S) pair, the judge of
    its bitsets: the same report, failures in the same order.  Each
    meet closure is a Sublocale from subsystems.meet_closure."""
    pts = sorted(points)
    name = ("points_of", "covered_points_of")[covered]
    subs = [(subl._from_mask(frame, s), frames.mask_of(frames.spectra_of(frame, s)[covered]))
            for s in family]
    failures = []
    checked = 0
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in frames.bits_of(sel))
        y_mask = frames.mask_of(y)
        m = sy.meet_closure(frame, y)
        if frames.spectra_of(frame, m.mask)[covered] != y:
            failures.append(f"{name}(meet_closure({sorted(y)})) != {sorted(y)}")
        for s, s_points in subs:
            checked += 1
            lhs = m.mask & ~s.mask == 0
            rhs = y_mask & ~s_points == 0
            if lhs != rhs:
                failures.append(
                    f"law fails for Y={sorted(y)} S={s!r}: {lhs} vs {rhs}")
    return sy.AdjunctionReport(checked, failures)


# ---------------------------------------------------------------------------
# nuclei and the smooth family, one sublocale at a time

def nucleus_by_folds(frame, mask):
    """The nucleus of the meet-closed set in mask as a list: nu_S(a), the
    meet of the members above a, folded over the meet table for each a."""
    up = frame.up_masks
    return [frame.meet_of(frames.bits_of(mask & up[a])) for a in range(frame.n)]


def nucleus_failure_by_loops(frame, table):
    """The first nucleus law the self-map table breaks, element by
    element: a <= t(a), then t(t(a)) = t(a), then t(a meet b) =
    t(a) meet t(b) for each b; None when it is a nucleus."""
    t, up, meet = table, frame.up_masks, frame.meet_rows
    for a in range(frame.n):
        if not up[a] >> t[a] & 1:
            return f"not inflationary at {a}"
        if t[t[a]] != t[a]:
            return f"not idempotent at {a}"
        row, t_row = meet[a], meet[t[a]]
        for b in range(frame.n):
            if t[row[b]] != t_row[t[b]]:
                return f"does not preserve {a} meet {b}"
    return None


def nucleus_roundtrip_by_loops(an):
    """theorems.law_nucleus_roundtrip one member at a time: each
    member's nucleus by folds, its laws by loops, then its image."""
    for i, s in enumerate(an.assembly):
        table = nucleus_by_folds(an.frame, s.mask)
        failure = nucleus_failure_by_loops(an.frame, table)
        if failure or frames.mask_of(table) != s.mask:
            detail = f"nucleus of {s!r} {failure}" if failure else repr(s)
            return theorems.LawResult("nucleus_roundtrip", False, i + 1, detail)
    return theorems.LawResult("nucleus_roundtrip", True, len(an.assembly))


def smooth_by_supplements(assembly):
    """The members fixed by the double supplement, each supplement taken
    by sublocales.supplement."""
    return frozenset(s for s in assembly if subl.supplement(subl.supplement(s)) == s)


def complemented_by_supplements(assembly):
    """Zero and the members that meet their supplement in zero
    (sublocales.is_complemented)."""
    return (frozenset(s for s in assembly if subl.is_complemented(s))
            | {zero(assembly.frame)})


# ---------------------------------------------------------------------------
# the scans of the theorem checks, pair by pair
#
# Each loop below is the judge of the array scan in theorems whose name
# it bears without the "_by_loops" suffix: it takes the same arguments,
# reads the same tables and fails through the same tally, so the two
# must give the same result, the same first failure named with the same
# count included.  The arrays find that failure by argmax over whole
# tables and rebuild the pair or triple and the count from its position;
# the loops meet the pairs one at a time in row-major order and count as
# they go, so that arithmetic has a route of its own.  The triple and the
# pair-join loops close each join one mask at a time through
# functools.cache(frame.meet_close_mask), their own route against the
# batch kernel meet_close_masks that the arrays call.
# tests/test_mutants.py swaps these in for the arrays under every mutant.

def d_meets_closed_by_loops(an):
    """theorems._d_meets_closed: every meet of two D-sublocales looked up
    in the meet table and tested for D-membership in turn."""
    d_set, meets = set(an.d_indices), an.meets.tolist()
    return all(meets[i][j] in d_set for i in an.d_indices for j in an.d_indices)


def difference_pairs_by_loops(an, law, diff, supp):
    """theorems._difference_pairs: the four pair laws of S\\T, tested
    pair by pair, each pair's laws in turn."""
    assembly = an.assembly
    subs, masks = list(assembly), assembly.masks
    zero_mask = 1 << an.frame.top
    supp = [masks[a] for a in supp.tolist()]
    diff = diff.tolist()
    # the second route: S\T holds exactly the primes of S not in T
    prime_diff = assembly.bits_table(lambda a, b: a & ~b).tolist()
    for i, s in enumerate(masks):
        for j, t in enumerate(masks):
            law.checked += 4
            d = masks[diff[i][j]]
            if d & ~s:
                which = 0
            elif (d == zero_mask) != (s & ~t == 0):
                which = 1
            elif t & supp[j] == zero_mask and d != s & supp[j]:
                which = 2
            elif diff[i][j] != prime_diff[i][j]:
                which = 3
            else:
                continue
            law.fail(f"{theorems._DIFFERENCE_PAIR_LAWS[which]} at {subs[i]!r}, {subs[j]!r}")


def difference_triples_by_loops(an, law, diff, meets):
    """theorems._difference_triples: the three triple laws of S\\T,
    tested triple by triple against joins closed one mask at a time."""
    subs, masks = list(an.assembly), an.assembly.masks
    k = len(subs)
    diff, meets = diff.tolist(), meets.tolist()
    close = functools.cache(an.frame.meet_close_mask)
    joined = [[close(s | t) for t in masks] for s in masks]
    for i in range(k):
        drow = diff[i]
        for j in range(k):
            dij = drow[j]
            dj, meet_row = diff[dij], meets[j]
            for r in range(k):
                law.checked += 3
                if masks[drow[meet_row[r]]] != joined[dij][drow[r]]:
                    which = 0
                elif dj[r] != diff[drow[r]][j]:
                    which = 1
                elif bool(masks[dij] & ~masks[r]) != bool(masks[i] & ~joined[j][r]):
                    which = 2
                else:
                    continue
                law.fail(f"{theorems._DIFFERENCE_TRIPLE_LAWS[which]} at "
                         f"{subs[i]!r},{subs[j]!r},{subs[r]!r}")


def td_pairs_by_loops(an, law, joins, meets):
    """theorems._td_pairs: monotonicity, join preservation and the image
    meet law of the td-spatialization, pair by pair of D-sublocales,
    inclusion read from the masks."""
    frame = an.frame
    subs, masks = list(an.assembly), an.assembly.masks
    d_idx, sp = an.d_indices, an.td_spatializations
    joins, meets = joins.tolist(), meets.tolist()
    # the image meet law depends only on sp[i] meet sp[j]: check each once
    image_meet_holds = {}
    for i in d_idx:
        sp_i, join_row = sp[i], joins[i]
        sp_join_row, sp_meet_row = joins[sp_i], meets[sp_i]
        for j in d_idx:
            law.checked += 1
            sp_j = sp[j]
            if masks[i] & ~masks[j] == 0 and masks[sp_i] & ~masks[sp_j]:
                law.fail(theorems._TD_PAIR_LAWS[0])
            if sp.get(join_row[j], -1) != sp_join_row[sp_j]:
                law.fail(f"{theorems._TD_PAIR_LAWS[1]} at {subs[i]!r}, {subs[j]!r}")
            inter = sp_meet_row[sp_j]
            if inter not in image_meet_holds:
                # meets inside the image go through the operator once more
                image_meet = sp.get(inter, -1)
                below = [subs[sp[r]] for r in d_idx if not masks[sp[r]] & ~masks[inter]]
                image_meet_holds[inter] = image_meet >= 0 and \
                    subl.sublocale_join(frame, below) == subs[image_meet]
            if not image_meet_holds[inter]:
                law.fail(f"{theorems._TD_PAIR_LAWS[2]} at {subs[i]!r}, {subs[j]!r}")


def covered_joins_by_loops(an, law, covered):
    """theorems._covered_joins: each join of two D-sublocales, closed one
    mask at a time, is a D-sublocale whose covered points, from the
    masks covered lists in D-family order, are theirs."""
    subs, masks = list(an.assembly), an.assembly.masks
    d_idx = an.d_indices
    close = functools.cache(an.frame.meet_close_mask)
    covered = {masks[i]: c for i, c in zip(d_idx, covered)}
    for a, i in enumerate(d_idx):
        for j in d_idx[a + 1:]:
            law.checked += 1
            jmask = close(masks[i] | masks[j])
            if jmask not in covered:
                law.fail(f"join of {subs[i]!r}, {subs[j]!r} is not a D-sublocale")
            if covered[jmask] != covered[masks[i]] | covered[masks[j]]:
                law.fail(f"covered points of the join of {subs[i]!r}, "
                         f"{subs[j]!r} differ from their union")


def d_family_escapes_by_loops(an, law, table, others, what):
    """theorems._d_family_escapes: each entry of the D-rows of the table
    tested for D-membership in turn."""
    subs, d_idx = list(an.assembly), an.d_indices
    rows, d_set = table.tolist(), set(d_idx)
    for i in d_idx:
        for j in others:
            law.checked += 1
            if rows[i][j] not in d_set:
                law.fail(f"{what} escapes at {subs[i]!r}, {subs[j]!r}")


def order_pairs_by_loops(an, law, order, prime_joins):
    """theorems._order_pairs: the three pair laws of the order frame,
    pair by pair, read from its join and meet rows."""
    assembly = an.assembly
    k = len(assembly)
    joins, meets, prime_joins = an.joins.tolist(), an.meets.tolist(), prime_joins.tolist()
    for i in range(k):
        order_join, order_meet = order.join_rows[i], order.meet_rows[i]
        for j in range(k):
            law.checked += 3
            if order_join[j] != meets[i][j]:
                law.fail(theorems._ORDER_PAIR_LAWS[0])
            if order_meet[j] != joins[i][j]:
                law.fail(theorems._ORDER_PAIR_LAWS[1])
            if prime_joins[i][j] != joins[i][j]:
                law.fail(f"{theorems._ORDER_PAIR_LAWS[2]} at {assembly[i]!r}, {assembly[j]!r}")


# ---------------------------------------------------------------------------
# the lift onto one member at a time

def lifts_by_adjoint_pairs(assembly, i):
    """The lift onto member i, subsystems._lift, as each lift was once
    built on its own, the judge of the one-pass lifting
    (tests/test_mutants.py swaps it in): it rebuilds the source side,
    builds and validates the target's order frame, and checks the laws
    by AdjointPair's loops, then the closed-generator square by masks.
    Only the result is built differently: the AssemblyLift is made from
    the pair, surjective when the pair's hom reaches every element of its
    target."""
    frame, sub = assembly.frame, assembly[i]
    if not sy._is_d(frame, sub.mask):
        raise sy.NotLiftable(f"{sub!r} is not a D-sublocale")
    src_frame, src_masks = subl.family_order_frame(
        frame, [assembly.masks[j] for j in sy.d_sublocales(assembly)])
    src_subs = [subl._from_mask(frame, m) for m in src_masks]

    sub_frame, members = sublocale_frame(sub)
    pos = {a: i for i, a in enumerate(members)}
    tgt_assembly = subl.enumerate_assembly(sub_frame, len(assembly))
    tgt_frame, tgt_masks = subl.family_order_frame(
        sub_frame, [tgt_assembly.masks[j] for j in sy.d_sublocales(tgt_assembly)])
    src_index = {m: i for i, m in enumerate(src_masks)}
    tgt_index = {m: i for i, m in enumerate(tgt_masks)}

    hom = []
    for t in src_subs:
        inter = t.mask & sub.mask
        if inter not in src_index:
            raise sy.NotLiftable(f"{t!r} meet {sub!r} is not a D-sublocale")
        translated = frames.mask_of(pos[a] for a in frames.bits_of(inter))
        if translated not in tgt_index:
            raise sy.NotLiftable(f"image of {t!r} is not a D-sublocale of the target")
        hom.append(tgt_index[translated])
    pair = sy.AdjointPair(src_frame, tgt_frame, hom)

    # closed-generator square: c(a) in the source maps to c(a) in sub
    for a in sorted(sub.members):
        i = src_index.get(frame.up_masks[a])
        if i is None:
            raise sy.NotLiftable(f"closed sublocale c({a}) is not a D-sublocale")
        expect = frames.mask_of(pos[x] for x in frames.bits_of(sub.mask & frame.up_masks[a]))
        if tgt_masks[pair.hom[i]] != expect:
            raise sy.NotLiftable(f"closed-generator square fails at {a}")
    return sy.AssemblyLift(frame, src_masks, pair.hom, members,
                           set(pair.hom) == set(range(pair.target.n)))
