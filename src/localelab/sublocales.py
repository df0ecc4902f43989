"""Sublocales, nuclei, and the full structure of the assembly of a frame.

A sublocale is a subset of a frame closed under arbitrary meets and under
a -> (-) for every frame element a.  The collection of all of them,
ordered by inclusion, is a coframe; this module provides intersections,
the join formula, closure, complements, supplements, the co-Heyting
difference, and exhaustive assembly enumeration.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import frames
from .frames import bits_of, elements_of_mask, mask_of


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
        if _validate:
            self._validate()

    def _validate(self):
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

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __eq__(self, other):
        return (isinstance(other, Sublocale)
                and other.frame is self.frame and other.members == self.members)

    def __hash__(self):
        return hash((id(self.frame), self.members))

    def __le__(self, other):
        _same_frame(self, other)
        return self.members <= other.members

    def __lt__(self, other):
        _same_frame(self, other)
        return self.members < other.members

    def sort_key(self):
        return tuple(sorted(self.members))

    def __repr__(self):
        inner = ",".join(self.frame.labels[i] for i in sorted(self.members))
        return "{" + inner + "}"


def _same_frame(*subs):
    first = subs[0].frame
    for s in subs[1:]:
        if s.frame is not first:
            raise MixedFrames("sublocales belong to different frames")
    return first


def _from_mask(frame, mask, _validate=False):
    return Sublocale(frame, elements_of_mask(mask), _validate=_validate)


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
    return Sublocale(frame, {frame.imp_rows[a][b] for b in range(frame.n)})


def closed_sublocale(frame, a):
    """c(a), the upset of a."""
    return _from_mask(frame, frame.up_masks[a], _validate=True)


def boolean_sublocale(frame, a):
    """b(a) = {b -> a : b in L}; checked to be Boolean as a lattice."""
    sub = Sublocale(frame, {frame.imp_rows[b][a] for b in range(frame.n)})
    bot = frame.meet_of(sub.members)
    for x in sub.members:
        c = frame.imp_rows[x][a]
        if c not in sub.members or frame.meet[x, c] != bot \
                or sub_nucleus_image(sub, frame.join[x, c]) != frame.top:
            raise NotASublocale(f"b({a}) is not Boolean at {x}")
    return sub


def sub_nucleus_image(sub, a):
    """nu_S(a): the least member of S above a."""
    return sub.frame.meet_of(s for s in sub.members if sub.frame.leq[a, s])


class Nucleus:
    """Inflationary idempotent self-map preserving binary meets."""

    __slots__ = ("frame", "table")

    def __init__(self, frame, table, _validate=True):
        self.frame = frame
        self.table = tuple(int(x) for x in table)
        if len(self.table) != frame.n:
            raise ValueError("nucleus table has wrong length")
        if _validate:
            t = self.table
            for a in range(frame.n):
                if not frame.leq[a, t[a]]:
                    raise ValueError(f"not inflationary at {a}")
                if t[t[a]] != t[a]:
                    raise ValueError(f"not idempotent at {a}")
                for b in range(frame.n):
                    if t[frame.meet[a, b]] != frame.meet[t[a], t[b]]:
                        raise ValueError(f"does not preserve {a} meet {b}")

    def __call__(self, a):
        return self.table[a]

    def __eq__(self, other):
        return (isinstance(other, Nucleus)
                and other.frame is self.frame and other.table == self.table)

    def __hash__(self):
        return hash((id(self.frame), self.table))


def nucleus_to_sublocale(nu):
    """The image of the nucleus, as a sublocale."""
    return Sublocale(nu.frame, set(nu.table))


def sublocale_to_nucleus(sub):
    """a maps to the least member above a."""
    return Nucleus(sub.frame, [sub_nucleus_image(sub, a) for a in range(sub.frame.n)])


def sublocale_join(frame, parts):
    """Join: all meets of subsets of the union (empty join is {top})."""
    parts = list(parts)
    if parts:
        _same_frame(*parts)
        if parts[0].frame is not frame:
            raise MixedFrames("parts do not belong to the given frame")
    m = 0
    for p in parts:
        m |= p.mask
    return _from_mask(frame, frame.meet_close_mask(m), _validate=True)


def sublocale_meet(frame, parts):
    """Meet: plain intersection (empty meet is the whole frame)."""
    parts = list(parts)
    if parts:
        _same_frame(*parts)
        if parts[0].frame is not frame:
            raise MixedFrames("parts do not belong to the given frame")
    m = (1 << frame.n) - 1
    for p in parts:
        m &= p.mask
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


@lru_cache(maxsize=None)
def _difference_tables(frame):
    """Masks used by the co-Heyting difference.

    basic[x][y] is o(x) join c(y); an element t belongs to it exactly when
    (x -> t) meet (y join t) = t, so no join computation is needed.  piece
    masks are the complements c(x) meet o(y).
    """
    n = frame.n
    imp, meet, join = frame.imp_rows, frame.meet_rows, frame.join
    open_masks = tuple(mask_of(set(imp[a])) for a in range(n))
    basic = []
    pieces = []
    for x in range(n):
        brow = []
        prow = []
        for y in range(n):
            m = 0
            for t in range(n):
                if meet[imp[x][t]][int(join[y, t])] == t:
                    m |= 1 << t
            brow.append(m)
            prow.append(frame.up_masks[x] & open_masks[y])
        basic.append(tuple(brow))
        pieces.append(tuple(prow))
    return tuple(basic), tuple(pieces), open_masks


def difference(sub, other):
    """Co-Heyting difference: the least R with sub <= other join R.

    Computed by decomposing `other` as the intersection of every
    complemented o(x) join c(y) above it and joining the pieces
    sub meet c(x) meet o(y).
    """
    frame = _same_frame(sub, other)
    basic, pieces, _ = _difference_tables(frame)
    t_mask = other.mask
    acc = 1 << frame.top
    for x in range(frame.n):
        brow = basic[x]
        prow = pieces[x]
        for y in range(frame.n):
            if t_mask & ~brow[y] == 0:
                acc |= sub.mask & prow[y]
    return _from_mask(frame, frame.meet_close_mask(acc), _validate=True)


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
    """Reverse-inclusion order frame of a family of sublocales.

    The one builder of such frames.  Returns (frame, members sorted by
    Sublocale.sort_key); i <= j iff members[i] contains members[j].
    """
    subs = sorted(subs, key=Sublocale.sort_key)
    leq = frames.inclusion_order(s.mask for s in subs).T
    return frames.verify_frame(leq, labels=[repr(s) for s in subs]), subs


class Assembly:
    """All sublocales of a frame, with a deterministic index.

    order_frame materialises the reverse-inclusion order (the dual of the
    coframe of sublocales) as a FiniteFrame through family_order_frame, so
    the whole element-level toolkit applies to the assembly itself.
    """

    def __init__(self, frame, sublocales):
        self.frame = frame
        self.sublocales = tuple(sorted(sublocales, key=Sublocale.sort_key))
        self._index = {s.mask: i for i, s in enumerate(self.sublocales)}

    def __len__(self):
        return len(self.sublocales)

    def __iter__(self):
        return iter(self.sublocales)

    def __getitem__(self, i):
        return self.sublocales[i]

    def index_of(self, sub):
        return self._index[sub.mask]

    def index_of_mask(self, mask):
        return self._index[mask]

    @cached_property
    def order_frame(self):
        """Reverse inclusion as a FiniteFrame: i <= j iff S_i contains S_j."""
        return family_order_frame(self.sublocales)[0]


def enumerate_assembly(frame, cap=1 << 16):
    """Every sublocale exactly once, by closure-system frontier expansion.

    Starts from {top} and repeatedly adds one element and re-closes;
    every sublocale is its own closure, so all of them are reached.
    Raises CapExceeded as soon as the count passes the cap.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    start = sublocale_closure_mask(frame, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for m in frontier:
            rest = (1 << frame.n) - 1 & ~m
            for x in bits_of(rest):
                grown = sublocale_closure_mask(frame, m | 1 << x)
                if grown not in seen:
                    seen.add(grown)
                    if len(seen) > cap:
                        raise CapExceeded(len(seen))
                    new.append(grown)
        frontier = new
    return Assembly(frame, [_from_mask(frame, m) for m in seen])
