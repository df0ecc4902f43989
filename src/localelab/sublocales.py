"""Sublocales, nuclei, and the full structure of the assembly of a frame.

A sublocale is a subset of a frame closed under arbitrary meets and under
a -> (-) for every frame element a.  The collection of all of them,
ordered by inclusion, is a coframe; this module provides intersections,
the join formula, closure, complements, supplements, the co-Heyting
difference, and exhaustive assembly enumeration.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import frames
from .frames import bits_of, mask_of


# The assembly size cap that enumerate_assembly, FrameAnalysis,
# classify_frame, verify_frame_theorems and the CLI take by default.
DEFAULT_CAP = 1 << 16


class MixedFrames(ValueError):
    """Raised when an operation mixes sublocales of different frames."""


class NotASublocale(ValueError):
    pass


class NotComplemented(ValueError):
    """Signals that a sublocale has no complement in the assembly."""


class CapExceeded(RuntimeError):
    def __init__(self, count):
        super().__init__(f"assembly enumeration exceeded the cap at {count} sublocales")
        self.count = count


class Sublocale:
    """An immutable subset of a frame satisfying the two closure conditions."""

    __slots__ = ("frame", "members", "mask")

    def __init__(self, frame, members, _validate=True):
        members = frozenset(int(x) for x in members)
        if any(not 0 <= x < frame.n for x in members):
            raise NotASublocale(f"member out of range for frame of size {frame.n}")
        self.frame = frame
        self.members = members
        self.mask = mask_of(members)
        if _validate and self.mask not in frame._memo.valid:
            self._validate()

    def _validate(self):
        """Check both closure conditions; callers skip masks already valid."""
        frame, mask = self.frame, self.mask
        if not mask >> frame.top & 1:
            raise NotASublocale("missing the top element")
        meet = frame.meet_rows
        for i in self.members:
            row = meet[i]
            for j in self.members:
                if not mask >> row[j] & 1:
                    raise NotASublocale(
                        f"not meet-closed: {i} meet {j} = {row[j]} is missing")
        imp = frame.imp_rows
        for a in range(frame.n):
            row = imp[a]
            for s in self.members:
                if not mask >> row[s] & 1:
                    raise NotASublocale(
                        f"not closed under implication: {a} -> {s} = {row[s]} missing")
        frame._memo.valid.add(mask)

    # mask and members determine each other, so the int stands in for the set
    def __eq__(self, other):
        return (isinstance(other, Sublocale)
                and other.frame is self.frame and other.mask == self.mask)

    def __hash__(self):
        return hash(self.mask)

    def sort_key(self):
        return tuple(sorted(self.members))

    def __repr__(self):
        inner = ",".join(self.frame.labels[i] for i in sorted(self.members))
        return "{" + inner + "}"


def _from_mask(frame, mask, _validate=False):
    """The frame's one Sublocale with this mask, validated once if asked."""
    memo = frame._memo
    sub = memo.subs.get(mask)
    if sub is None:
        sub = memo.subs[mask] = Sublocale(frame, bits_of(mask), _validate=False)
    if _validate and mask not in memo.valid:
        sub._validate()
    return sub


def sublocale_closure_mask(frame, seed_mask):
    """Mask of the smallest sublocale containing the seed elements.

    One implication-closure pass followed by one meet closure suffices:
    the implication image is already implication-closed, and the meet
    closure of an implication-closed set stays implication-closed because
    a -> (s meet t) = (a -> s) meet (a -> t).
    """
    imp_masks = frame.imp_closure_masks
    m = 1 << frame.top
    s = seed_mask
    while s:
        low = s & -s
        m |= imp_masks[low.bit_length() - 1]
        s ^= low
    return frame.meet_close_mask(m)


def generate_sublocale(frame, seed):
    """Smallest sublocale containing the given elements."""
    return _from_mask(frame, sublocale_closure_mask(frame, mask_of(seed)))


def whole(frame):
    return _from_mask(frame, (1 << frame.n) - 1)


def zero(frame):
    """The one-point sublocale {top}, bottom of the assembly."""
    return _from_mask(frame, 1 << frame.top)


def open_sublocale(frame, a):
    """o(a) = {a -> b : b in L}."""
    return _from_mask(frame, mask_of(frame.imp_rows[a]), _validate=True)


def closed_sublocale(frame, a):
    """c(a), the upset of a."""
    return _from_mask(frame, frame.up_masks[a], _validate=True)


def boolean_sublocale(frame, a):
    """b(a) = {b -> a : b in L}; checked to be Boolean as a lattice."""
    sub = _from_mask(frame, mask_of(frame.imp_rows[b][a] for b in range(frame.n)),
                     _validate=True)
    bot = frame.meet_of(sub.members)
    meet, join, imp = frame.meet_rows, frame.join_rows, frame.imp_rows
    for x in sub.members:
        c = imp[x][a]
        if not sub.mask >> c & 1 or meet[x][c] != bot \
                or sub_nucleus_image(sub, join[x][c]) != frame.top:
            raise NotASublocale(f"b({a}) is not Boolean at {x}")
    return sub


def sub_nucleus_image(sub, a):
    """nu_S(a): the least member of S above a."""
    return sub.frame.meet_of(bits_of(sub.mask & sub.frame.up_masks[a]))


class Nucleus:
    """Inflationary idempotent self-map preserving binary meets."""

    __slots__ = ("frame", "table")

    def __init__(self, frame, table):
        self.frame = frame
        self.table = tuple(int(x) for x in table)
        if len(self.table) != frame.n:
            raise ValueError("nucleus table has wrong length")
        t, up, meet = self.table, frame.up_masks, frame.meet_rows
        for a in range(frame.n):
            if not up[a] >> t[a] & 1:
                raise ValueError(f"not inflationary at {a}")
            if t[t[a]] != t[a]:
                raise ValueError(f"not idempotent at {a}")
            row, t_row = meet[a], meet[t[a]]
            for b in range(frame.n):
                if t[row[b]] != t_row[t[b]]:
                    raise ValueError(f"does not preserve {a} meet {b}")

    def __call__(self, a):
        return self.table[a]

    def __eq__(self, other):
        return (isinstance(other, Nucleus)
                and other.frame is self.frame and other.table == self.table)


def nucleus_to_sublocale(nu):
    """The image of the nucleus, as a sublocale."""
    return Sublocale(nu.frame, set(nu.table))


def sublocale_to_nucleus(sub):
    """a maps to the least member above a."""
    return Nucleus(sub.frame, [sub_nucleus_image(sub, a) for a in range(sub.frame.n)])


def _masks_of(frame, parts):
    """The masks of parts, after checking they are sublocales of frame."""
    masks = []
    for p in parts:
        if p.frame is not frame:
            raise MixedFrames("sublocales belong to different frames")
        masks.append(p.mask)
    return masks


def sublocale_join(frame, parts):
    """Join: all meets of subsets of the union (empty join is {top})."""
    m = 0
    for mask in _masks_of(frame, parts):
        m |= mask
    return _from_mask(frame, _meet_closed(frame, m), _validate=True)


def _meet_closed(frame, mask):
    """frame.meet_close_mask(mask), computed once per frame and mask."""
    closures = frame._memo.closures
    closed = closures.get(mask)
    if closed is None:
        closed = closures[mask] = frame.meet_close_mask(mask)
    return closed


def sublocale_meet(frame, parts):
    """Meet: plain intersection (empty meet is the whole frame)."""
    m = (1 << frame.n) - 1
    for mask in _masks_of(frame, parts):
        m &= mask
    return _from_mask(frame, m, _validate=True)


def closure(sub):
    """Smallest closed sublocale containing sub: the upset of its meet."""
    return closed_sublocale(sub.frame, sub.frame.meet_of(sub.members))


def is_dense(sub):
    return sub.frame.bottom in sub.members


def is_codense(sub):
    """Only the top is sent to top by the associated nucleus."""
    frame = sub.frame
    for a in range(frame.n):
        if a != frame.top and sub_nucleus_image(sub, a) == frame.top:
            return False
    return True


def _difference_tables(frame):
    """The distinct basic sublocales o(x) join c(y), each paired with the
    union of the pieces c(x) meet o(y) of every (x, y) that gives it.

    An element t belongs to o(x) join c(y) exactly when
    (x -> t) meet (y join t) = t, so no join computation is needed; for
    each x one numpy gather tests every (y, t).
    """
    n = frame.n
    open_masks = [mask_of(frame.imp_rows[a]) for a in range(n)]
    elements = np.arange(n)
    tables = {}
    for x in range(n):
        inside = frame.meet[frame.imp[x][None, :], frame.join] == elements
        rows = np.packbits(inside, axis=1, bitorder="little")
        up = frame.up_masks[x]
        for y in range(n):
            basic = int.from_bytes(rows[y].tobytes(), "little")
            tables[basic] = tables.get(basic, 0) | up & open_masks[y]
    return tuple(tables.items())


def _pieces_union(frame, t_mask):
    """U(T): the union of the pieces c(x) meet o(y) over every (x, y)
    with T inside o(x) join c(y); computed once per frame and T."""
    memo = frame._memo
    union = memo.unions.get(t_mask)
    if union is None:
        if memo.difference_tables is None:
            memo.difference_tables = _difference_tables(frame)
        union = 0
        for basic, pieces in memo.difference_tables:
            if t_mask & ~basic == 0:
                union |= pieces
        memo.unions[t_mask] = union
    return union


def difference_mask(frame, s, t):
    """Mask of the co-Heyting difference of the sublocales with masks s
    and t: the least R with s <= t join R.

    Computed by decomposing t as the intersection of every complemented
    o(x) join c(y) above it and joining the pieces s meet c(x) meet o(y):
    the meet closure of top and s meet U(t), where U (_pieces_union)
    depends on t alone.
    """
    return _meet_closed(frame, 1 << frame.top | s & _pieces_union(frame, t))


def difference(sub, other):
    """Co-Heyting difference: the least R with sub <= other join R."""
    frame = sub.frame
    s, t = _masks_of(frame, [sub, other])
    return _from_mask(frame, difference_mask(frame, s, t), _validate=True)


def supplement(sub):
    """The least sublocale whose join with sub is the whole frame."""
    return difference(whole(sub.frame), sub)


def complement_of(sub):
    """The complement, when it exists; raises NotComplemented otherwise.

    A complement must contain the supplement, and the supplement already
    joins with sub to the whole frame, so sub is complemented exactly when
    sub meet supplement is the zero sublocale.
    """
    frame = sub.frame
    supp = supplement(sub)
    if sub.mask & supp.mask == 1 << frame.top:
        return supp
    raise NotComplemented(f"{sub!r} has no complement")


def is_complemented(sub):
    return sub.mask & supplement(sub).mask == 1 << sub.frame.top


def family_order_frame(subs):
    """Reverse-inclusion order frame of a family of sublocales of one frame.

    The one builder of such frames, and their one cache: each distinct
    family is built and validated once per frame, whatever order its
    members come in.  Returns (frame, members as a tuple sorted by
    Sublocale.sort_key); i <= j iff members[i] contains members[j].
    """
    subs = tuple(sorted(subs, key=Sublocale.sort_key))
    orders = subs[0].frame._memo.orders
    masks = tuple(_masks_of(subs[0].frame, subs))
    got = orders.get(masks)
    if got is None:
        leq = frames.inclusion_order(masks).T
        got = orders[masks] = (
            frames.FiniteFrame(leq, labels=[repr(s) for s in subs]), subs)
    return got


class Assembly:
    """All sublocales of a frame, indexed by the primes they contain.

    With the frame's primes sorted, by_primes[bits] is the mask of the
    meet closure of top and {primes[i] : bit i of bits}, and primes_of
    maps each mask back to its bits.  Every sublocale is such a closure,
    so joins are ORs of bits, intersections ANDs and differences
    bits & ~bits (bits_table).  sublocales lists the members sorted by
    Sublocale.sort_key, the order family_order_frame gives them, and
    masks their masks in that order; index_of maps a mask back to its
    index, -1 when no member has it, as in the pair tables of
    subsystems.FrameAnalysis.  d_family is None until
    subsystems.d_sublocales keeps the D-family of this enumeration there.
    """

    def __init__(self, frame, by_primes):
        self.frame = frame
        self.by_primes = tuple(by_primes)
        self.primes_of = {m: bits for bits, m in enumerate(self.by_primes)}
        self.sublocales = tuple(sorted((_from_mask(frame, m) for m in self.by_primes),
                                       key=Sublocale.sort_key))
        self.masks = tuple(s.mask for s in self.sublocales)
        self._index = {m: i for i, m in enumerate(self.masks)}
        self.d_family = None

    def __len__(self):
        return len(self.sublocales)

    def __iter__(self):
        return iter(self.sublocales)

    def __getitem__(self, i):
        return self.sublocales[i]

    def index_of(self, mask):
        """The index of the member with this mask, -1 if there is none."""
        return self._index.get(mask, -1)

    def bits_table(self, op):
        """k x k int array: entry [i, j] is the index of the member
        by_primes[op(b_i, b_j)], where b_i are the prime bits of member i
        and op acts elementwise on int arrays (np.bitwise_or gives the
        joins)."""
        bits, at_bits = self._bits
        return at_bits[op(bits[:, None], bits)]

    @cached_property
    def _bits(self):
        """The prime bits of each member, and the index of by_primes[b]."""
        return (np.array([self.primes_of[m] for m in self.masks]),
                np.array([self._index[m] for m in self.by_primes]))


def _prime_subset_closures(frame, primes):
    """closures[bits]: mask of the meet closure of top and the primes[i]
    with bit i set in bits.

    Grown one prime at a time: for a meet-closed m holding top, the meet
    closure of m and p is m with p and every s meet p, s in m, added.
    """
    meet = frame.meet_rows
    closures = [1 << frame.top]
    for p in primes:
        row = meet[p]
        for i in range(len(closures)):
            m = grown = closures[i]
            for s in bits_of(m):
                grown |= 1 << row[s]
            closures.append(grown)
    return closures


def enumerate_assembly(frame, cap=DEFAULT_CAP):
    """Every sublocale exactly once, indexed by the primes it contains.

    The assembly of a finite frame is the powerset of its primes
    (Birkhoff): every sublocale is the meet closure of the primes in it,
    the meet closure of any set of primes is a sublocale, and the primes
    of that closure are the set itself.  So a frame with
    2^|primes| > cap is refused before any closure, with the count
    cap + 1 at which a walk over the sublocales would have stopped, and
    otherwise the closures are grown over the sorted primes.  The
    frontier walk (tests/oracle.py) is the second route to the same set.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    primes = sorted(frames.primes(frame))
    if 1 << len(primes) > cap:
        raise CapExceeded(cap + 1)
    return Assembly(frame, _prime_subset_closures(frame, primes))
