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
    """An immutable subset of a frame satisfying the two closure
    conditions; the engine computes on masks and builds these on request."""

    __slots__ = ("frame", "members", "mask")

    def __init__(self, frame, members, _validate=True):
        members = frozenset(int(x) for x in members)
        if any(not 0 <= x < frame.n for x in members):
            raise NotASublocale(f"member out of range for frame of size {frame.n}")
        self.frame = frame
        self.members = members
        self.mask = mask_of(members)
        if _validate:
            _validate_mask(frame, self.mask)

    # mask and members determine each other, so the int stands in for the set
    def __eq__(self, other):
        return (isinstance(other, Sublocale)
                and other.frame is self.frame and other.mask == self.mask)

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return _label(self.frame, self.mask)


def _label(frame, mask):
    """{a,b,...}, the name of a sublocale in reprs, labels and messages."""
    return "{" + ",".join(frame.labels[i] for i in bits_of(mask)) + "}"


def _member_key(mask):
    """The sort key of member order: the members in increasing order."""
    return tuple(bits_of(mask))


def _validate_mask(frame, mask):
    """Return mask after checking that it holds the top and both closure
    conditions; a mask that passes is kept in frame._memo.valid and never
    checked again, a failure is never recorded.

    Up to INT_ROW_BITS elements both loop over the int rows.  Beyond
    that each is one gather, of the meet table over members x members
    and of the implication table over elements x members, and the first
    missing entry in row-major order is the one the loops would meet
    first.
    """
    valid = frame._memo.valid
    if mask in valid:
        return mask
    if not mask >> frame.top & 1:
        raise NotASublocale("missing the top element")
    members = list(bits_of(mask))
    if frame.n <= frames.INT_ROW_BITS:
        meet = frame.meet_rows
        for i in members:
            row = meet[i]
            for j in members:
                if not mask >> row[j] & 1:
                    raise NotASublocale(
                        f"not meet-closed: {i} meet {j} = {row[j]} is missing")
        imp = frame.imp_rows
        for a in range(frame.n):
            row = imp[a]
            for s in members:
                if not mask >> row[s] & 1:
                    raise NotASublocale(
                        f"not closed under implication: {a} -> {s} = {row[s]} missing")
    else:
        order = np.array(members, dtype=np.intp)
        inside = np.zeros(frame.n, dtype=bool)
        inside[order] = True
        meets = frame.meet[order[:, None], order]
        missing = ~inside[meets]
        if missing.any():
            i, j = np.unravel_index(missing.argmax(), missing.shape)
            raise NotASublocale(f"not meet-closed: {order[i]} meet {order[j]} = "
                                f"{meets[i, j]} is missing")
        imps = frame.imp[:, order]
        missing = ~inside[imps]
        if missing.any():
            a, j = np.unravel_index(missing.argmax(), missing.shape)
            raise NotASublocale(f"not closed under implication: {a} -> {order[j]} = "
                                f"{imps[a, j]} missing")
    valid.add(mask)
    return mask


def _from_mask(frame, mask, _validate=False):
    """The frame's one Sublocale with this mask, validated once if asked."""
    memo = frame._memo
    sub = memo.subs.get(mask)
    if sub is None:
        sub = memo.subs[mask] = Sublocale(frame, bits_of(mask), _validate=False)
    if _validate:
        _validate_mask(frame, mask)
    return sub


def sublocale_closure_mask(frame, seed_mask):
    """Mask of the smallest sublocale containing the seed elements.

    One implication-closure pass followed by one meet closure suffices:
    the implication image is already implication-closed, and the meet
    closure of an implication-closed set stays implication-closed because
    a -> (s meet t) = (a -> s) meet (a -> t).
    """
    imp_masks = frame.boolean_masks
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


def open_sublocale(frame, a):
    """o(a) = {a -> b : b in L}."""
    return _from_mask(frame, frame.open_masks[a], _validate=True)


def closed_sublocale(frame, a):
    """c(a), the upset of a."""
    return _from_mask(frame, frame.up_masks[a], _validate=True)


def boolean_sublocale(frame, a):
    """b(a) = {b -> a : b in L}, column a of the implication table;
    checked to be Boolean as a lattice: x -> a is a complement of each
    member x, meeting it to the least member and joining it to some y
    with nu_S(y) = top, that is with no member but the top above y."""
    col = frame.imp[:, a].tolist()
    sub = _from_mask(frame, mask_of(col), _validate=True)
    bot, zero_mask = frame.meet_of(sub.members), 1 << frame.top
    meet, join, up = frame.meet, frame.join, frame.up_masks
    for x in sub.members:
        c = col[x]
        if not sub.mask >> c & 1 or meet[x, c] != bot \
                or sub.mask & up[join[x, c]] != zero_mask:
            raise NotASublocale(f"b({a}) is not Boolean at {x}")
    return sub


def _nucleus_tables(frame, masks):
    """k x n int32 array: row i is the nucleus of the meet-closed set of
    elements in masks[i], nu_S(a) = the meet of S & up(a), the least
    member above a.  Every row starts at the top and is folded over the
    elements: x meets into nu_S(a) for each a below x when x is in S.
    Members go through in blocks whose temporaries fit in BLOCK_BYTES."""
    n, leq = frame.n, frame.leq
    tables = np.full((len(masks), n), frame.top, dtype=np.int32)
    for lo, hi in frames._row_blocks(len(masks), 6 * n):
        table, inside = tables[lo:hi], frames._matrix_of_rows(masks[lo:hi], n)
        for x in range(n):
            np.copyto(table, frame.meet[table, x], where=inside[:, x, None] & leq[:, x])
    return tables


def _nucleus_failure(frame, tables):
    """(row, message) of the first row of tables, each row a self-map of
    the frame's elements, that is not a nucleus, and the first law it
    breaks: element by element, a <= t(a), then t(t(a)) = t(a), then
    t(a meet b) = t(a) meet t(b) for each b, as a loop over a and b
    meets them; None when every row is a nucleus.  The laws are gathers
    over the (row, a) pairs, in blocks whose temporaries, some 14 bytes
    per pair and element, fit in BLOCK_BYTES."""
    n, meet, leq = frame.n, frame.meet, frame.leq
    for lo, hi in frames._row_blocks(len(tables) * n, 16 * n):
        row, a = np.divmod(np.arange(lo, hi), n)
        t, pairs = tables[row], np.arange(hi - lo)[:, None]
        t_a = t[pairs, a[:, None]]
        bad = np.empty((hi - lo, n + 2), dtype=bool)
        bad[:, :1] = ~leq[a[:, None], t_a]
        bad[:, 1:2] = t[pairs, t_a] != t_a
        bad[:, 2:] = t[pairs, meet[a]] != meet[t_a, t]
        if bad.any():
            pair, law = np.unravel_index(bad.argmax(), bad.shape)
            first, a = divmod(lo + int(pair), n)
            return first, (f"not inflationary at {a}", f"not idempotent at {a}",
                           f"does not preserve {a} meet {law - 2}")[min(law, 2)]
    return None


class Nucleus:
    """Inflationary idempotent self-map preserving binary meets."""

    __slots__ = ("frame", "table")

    def __init__(self, frame, table):
        self.frame = frame
        self.table = tuple(int(x) for x in table)
        if len(self.table) != frame.n:
            raise ValueError("nucleus table has wrong length")
        failure = _nucleus_failure(frame, np.array([self.table], dtype=np.intp))
        if failure:
            raise ValueError(failure[1])

    def __call__(self, a):
        return self.table[a]

    def __eq__(self, other):
        return (isinstance(other, Nucleus)
                and other.frame is self.frame and other.table == self.table)


def nucleus_to_sublocale(nu):
    """The image of the nucleus, as a sublocale."""
    return Sublocale(nu.frame, set(nu.table))


def sublocale_to_nucleus(sub):
    """a maps to the least member above a (_nucleus_tables)."""
    return Nucleus(sub.frame, _nucleus_tables(sub.frame, [sub.mask])[0])


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


def _meet_closed_all(frame, masks):
    """[_meet_closed(frame, m) for m in masks], through the same memo,
    with every mask it lacks closed in one frame.meet_close_masks call."""
    closures = frame._memo.closures
    missing = [m for m in dict.fromkeys(masks) if m not in closures]
    closures.update(zip(missing, frame.meet_close_masks(missing)))
    return [closures[m] for m in masks]


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
    return bool((_nucleus_tables(frame, [sub.mask])[0] == frame.top).sum() == 1)


def _difference_tables(frame):
    """The distinct basic sublocales o(x) join c(y) and, for each, the
    union of the pieces c(x) meet o(y) of every (x, y) that gives it, as
    two (basics, words) uint64 arrays.

    An element t belongs to o(x) join c(y) exactly when
    (x -> t) meet (y join t) = t, so no join computation is needed: one
    numpy gather per block of x tests every (x, y, t).
    """
    n, up, opens = frame.n, frame.up_masks, frame.open_masks
    elements = np.arange(n)
    tables = {}
    for lo, hi in frames._row_blocks(n, 24 * n * n):
        inside = frame.meet[frame.imp[lo:hi, None, :], frame.join] == elements
        basics = iter(frames._int_rows(frames._packed_words(inside.reshape(-1, n))))
        for x in range(lo, hi):
            for y, basic in zip(range(n), basics):
                tables[basic] = tables.get(basic, 0) | up[x] & opens[y]
    return frames.mask_words(tables, n), frames.mask_words(tables.values(), n)


def _pieces_unions(frame, t_masks):
    """[U(T) for T in t_masks]: the union of the pieces c(x) meet o(y)
    over every (x, y) with T inside o(x) join c(y), computed once per
    frame and T through the memo.  The masks it lacks are found at once:
    T lies inside a basic b when T & ~b is empty in every word, and U(T)
    ORs the pieces of the basics holding T, in blocks of masks whose
    temporaries, some 10 bytes per mask, basic and word, fit in
    BLOCK_BYTES."""
    memo = frame._memo
    missing = [t for t in dict.fromkeys(t_masks) if t not in memo.unions]
    if missing:
        if memo.difference_tables is None:
            memo.difference_tables = _difference_tables(frame)
        basics, pieces = memo.difference_tables
        rows, outside = frames.mask_words(missing, frame.n), ~basics
        for lo, hi in frames._row_blocks(len(missing), 10 * basics.size):
            holds = ((rows[lo:hi, None, :] & outside) == 0).all(axis=2)
            unions = np.bitwise_or.reduce(np.where(holds[:, :, None], pieces, np.uint64(0)),
                                          axis=1)
            memo.unions.update(zip(missing[lo:hi], frames._int_rows(unions)))
    return [memo.unions[t] for t in t_masks]


def difference_mask(frame, s, t):
    """Mask of the co-Heyting difference of the sublocales with masks s
    and t: the least R with s <= t join R.

    Computed by decomposing t as the intersection of every complemented
    o(x) join c(y) above it and joining the pieces s meet c(x) meet o(y):
    the meet closure of top and s meet U(t), where U (_pieces_unions)
    depends on t alone.
    """
    return _meet_closed(frame, 1 << frame.top | s & _pieces_unions(frame, [t])[0])


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


def family_order_frame(frame, masks):
    """Reverse-inclusion order frame of the sublocales of frame with
    these masks.

    The one builder of such frames, and their one cache: each distinct
    family is built and validated once per frame, whatever order its
    masks come in.  Returns (frame, the masks in member order as a
    tuple); i <= j iff masks[i] contains masks[j].
    """
    masks = tuple(sorted(masks, key=_member_key))
    if not masks:
        raise frames.NonLattice((), "top")
    orders = frame._memo.orders
    got = orders.get(masks)
    if got is None:
        leq = frames.inclusion_order(masks).T
        got = orders[masks] = (
            frames.FiniteFrame(leq, labels=[_label(frame, m) for m in masks]), masks)
    return got


class Assembly:
    """All sublocales of a frame, indexed by the primes they contain.

    With the frame's primes sorted, by_primes[bits] is the mask of the
    meet closure of top and {primes[i] : bit i of bits}, and primes_of
    maps each mask back to its bits.  Every sublocale is such a closure,
    so joins are ORs of bits, intersections ANDs and differences
    bits & ~bits (bits_table).  A member is its mask: masks lists them
    in member order, index_of maps a mask back to its index (-1 for
    none), and assembly[i] and iteration build Sublocales on demand.
    d_family (indices) and lifts are None until subsystems.d_sublocales
    and lift_surjection keep them there.  """

    def __init__(self, frame, by_primes):
        self.frame = frame
        self.by_primes = tuple(by_primes)
        self.primes_of = {m: bits for bits, m in enumerate(self.by_primes)}
        self.masks = tuple(sorted(self.by_primes, key=_member_key))
        self._index = {m: i for i, m in enumerate(self.masks)}
        self.d_family = self.lifts = None

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return (_from_mask(self.frame, m) for m in self.masks)

    def __getitem__(self, i):
        return _from_mask(self.frame, self.masks[i])

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
