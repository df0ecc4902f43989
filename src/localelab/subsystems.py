"""Distinguished subsystems of the assembly and the covered-prime adjunction.

The four families materialised here are the smooth sublocales (fixpoints
of the double supplement, i.e. the Booleanization of the assembly), the
closed sublocales, which are already closed under joins, the sublocales
whose intrinsic covered primes are covered in the ambient frame, and the
spatial sublocales.  On top of that: one scan of the meet-closure
adjunction between subsets of points and a family of sublocales, used
for the covered primes against the D-sublocales and for the primes
against the whole assembly; localic images and preimages, the lifting
of a frame surjection to the assemblies, and essential-prime machinery.
Order frames of families come from sublocales.family_order_frame, which
builds every reverse-inclusion order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, partial
from itertools import zip_longest

import numpy as np

from . import frames
from . import spaces
from . import sublocales as subl
from .frames import bits_of, mask_of
from .sublocales import Sublocale


class NotDSublocale(ValueError):
    pass


class NotLiftable(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


# ---------------------------------------------------------------------------
# intrinsic spectra of a sublocale (as a lattice in its own right)

def points_of(sub):
    """The classical spectrum of a sublocale: its intrinsic primes, which
    for sublocales are the ambient primes lying inside (the tests check)."""
    return frames.spectra_of(sub.frame, sub.mask)[0]


def covered_points_of(sub):
    """The covered-prime spectrum of a sublocale, computed intrinsically:
    NOT the ambient covered primes among its members, whose divergence
    from it is what makes a sublocale fail the covered-prime duality."""
    return frames.spectra_of(sub.frame, sub.mask)[1]


def _is_d(frame, mask):
    """True iff every intrinsic covered prime is covered in the frame."""
    return frames.spectra_of(frame, mask)[1] <= frames.covered_primes(frame)


# ---------------------------------------------------------------------------
# the meet-closure adjunction

def meet_closure(frame, points):
    """The sublocale {meet of A : A subset of the given primes}, closed
    once per frame and set of points through the frame's memo."""
    return subl._from_mask(frame, subl._meet_closed(frame, mask_of(points)),
                           _validate=True)


def _is_spatial(frame, mask):
    """The mask is the meet closure of its intrinsic primes, unvalidated,
    so a non-sublocale (from a broken engine) gets an answer."""
    return subl._meet_closed(frame, mask_of(frames.spectra_of(frame, mask)[0])) == mask


def _td_spatialization(frame, mask):
    """The validated meet closure of the covered primes, as a mask; only
    defined on D-sublocales."""
    if not _is_d(frame, mask):
        raise NotDSublocale(f"{subl._label(frame, mask)} has intrinsic covered primes "
                            "not covered in the frame")
    covered = mask_of(frames.spectra_of(frame, mask)[1])
    return subl._validate_mask(frame, subl._meet_closed(frame, covered))


class AdjunctionReport:
    def __init__(self, checked, failures):
        self.checked = checked
        self.failures = tuple(failures)

    @property
    def passed(self):
        return not self.failures


def adjunction_law(frame, points, family, covered):
    """The meet-closure adjunction between subsets Y of points and the
    family's masks S, in its order, with sp the covered points if covered
    and the points otherwise: sp(meet_closure(Y)) is Y, and
    meet_closure(Y) <= S iff Y <= sp(S).  checked counts the (Y, S) pairs.

    Both sides are bitsets over the family: holding[x] has bit t set when
    member t contains x, and spanning[x] when x is in its sp, so the
    members above meet_closure(Y) are the AND of holding over its
    elements and those whose sp holds Y the AND of spanning over Y.
    """
    pts, name = sorted(points), ("points_of", "covered_points_of")[covered]
    holding, spanning = [0] * frame.n, [0] * frame.n
    for t, s in enumerate(family):
        for x in bits_of(s):
            holding[x] |= 1 << t
        for x in frames.spectra_of(frame, s)[covered]:
            spanning[x] |= 1 << t
    everything = (1 << len(family)) - 1
    failures = []
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in bits_of(sel))
        m = subl._validate_mask(frame, subl._meet_closed(frame, mask_of(y)))
        if frames.spectra_of(frame, m)[covered] != y:
            failures.append(f"{name}(meet_closure({sorted(y)})) != {sorted(y)}")
        above = spans = everything
        for x in bits_of(m):
            above &= holding[x]
        for x in y:
            spans &= spanning[x]
        for t in bits_of(above ^ spans):
            failures.append(f"law fails for Y={sorted(y)} S={subl._label(frame, family[t])}: "
                            f"{bool(above >> t & 1)} vs {bool(spans >> t & 1)}")
    return AdjunctionReport(len(family) << len(pts), failures)


def check_td_adjunction(assembly):
    """The adjunction law between subsets of the covered primes and the
    D-sublocales of the enumerated assembly, in assembly order."""
    return adjunction_law(assembly.frame, frames.covered_primes(assembly.frame),
                          [assembly.masks[i] for i in sorted(d_sublocales(assembly))], True)


# ---------------------------------------------------------------------------
# the four subsystems, as frozensets of assembly indices

def d_sublocales(assembly):
    """The D-sublocales of an enumerated assembly, found once per
    assembly and kept in assembly.d_family."""
    if assembly.d_family is None:
        assembly.d_family = frozenset(i for i, m in enumerate(assembly.masks)
                                      if _is_d(assembly.frame, m))
    return assembly.d_family


def spatial_sublocales(assembly):
    return frozenset(i for i, m in enumerate(assembly.masks)
                     if _is_spatial(assembly.frame, m))


# ---------------------------------------------------------------------------
# adjoint pairs, images and preimages of localic maps

class AdjointPair:
    """A frame homomorphism together with its right adjoint.

    hom maps source -> target preserving finite meets and all joins; the
    right adjoint maps target -> source and is the localic-map side.
    Both laws are verified on construction.
    """

    __slots__ = ("source", "target", "hom", "right")

    def __init__(self, source, target, hom, right=None):
        self.source = source
        self.target = target
        self.hom = tuple(int(x) for x in hom)
        if right is None:
            up = target.up_masks
            right = [source.join_of(a for a in range(source.n) if up[self.hom[a]] >> b & 1)
                     for b in range(target.n)]
        self.right = tuple(int(x) for x in right)
        self._validate()

    def _validate(self):
        src, tgt, h = self.source, self.target, self.hom
        if len(h) != src.n or len(self.right) != tgt.n:
            raise ValueError("map tables have wrong lengths")
        if h[src.top] != tgt.top or h[src.bottom] != tgt.bottom:
            raise ValueError("homomorphism does not preserve the bounds")
        src_meet, src_join = src.meet_rows, src.join_rows
        tgt_meet, tgt_join = tgt.meet_rows, tgt.join_rows
        for a in range(src.n):
            sm, sj, tm, tj = src_meet[a], src_join[a], tgt_meet[h[a]], tgt_join[h[a]]
            for b in range(src.n):
                if h[sm[b]] != tm[h[b]]:
                    raise ValueError(f"meet of ({a},{b}) not preserved")
                if h[sj[b]] != tj[h[b]]:
                    raise ValueError(f"join of ({a},{b}) not preserved")
        src_up, tgt_up = src.up_masks, tgt.up_masks
        for a in range(src.n):
            for b in range(tgt.n):
                if tgt_up[h[a]] >> b & 1 != src_up[a] >> self.right[b] & 1:
                    raise ValueError(f"adjunction law fails at ({a},{b})")


def _frame_on(frame, members):
    """The sublocale with these increasing members as a frame in its own
    right: the order restricted to them, re-validated, or frame itself
    if they are all of it; its i-th element is members[i]."""
    if len(members) == frame.n:
        return frame
    return frames.FiniteFrame(frame.leq[np.ix_(members, members)],
                              labels=[frame.labels[a] for a in members])


def sublocale_surjection_pair(sub):
    """The frame surjection onto a sublocale with the inclusion as adjoint."""
    members = tuple(sorted(sub.members))
    sub_frame = _frame_on(sub.frame, members)
    pos = {a: i for i, a in enumerate(members)}
    hom = [pos[a] for a in subl._nucleus_tables(sub.frame, [sub.mask])[0].tolist()]
    return AdjointPair(sub.frame, sub_frame, hom, members), sub_frame, members


def image(pair, sub):
    """Direct image under the localic map (the right adjoint).

    sub must be a sublocale of the adjoint's domain, i.e. of pair.target.
    """
    if sub.frame is not pair.target:
        raise subl.MixedFrames("image expects a sublocale of the target frame")
    return Sublocale(pair.source, {pair.right[s] for s in sub.members})


def preimage(pair, sub):
    """Largest T with image(T) <= sub, by scanning the target assembly.

    The scan over the enumerated assembly is the dominant cost of this
    module; fine at desk scale.
    """
    if sub.frame is not pair.source:
        raise subl.MixedFrames("preimage expects a sublocale of the source frame")
    assembly = subl.enumerate_assembly(pair.target)
    good = [t for t in assembly if image(pair, t).members <= sub.members]
    return subl.sublocale_join(pair.target, good)


def is_d_homomorphism(pair):
    """The right adjoint must send covered primes into covered primes."""
    src_cov = frames.covered_primes(pair.source)
    return all(pair.right[p] in src_cov for p in frames.covered_primes(pair.target))


# ---------------------------------------------------------------------------
# lifting a frame surjection to the assemblies of D-sublocales

class AssemblyLift(namedtuple("AssemblyLift",
                              "frame source hom target_members surjective")):
    """The lift onto the D-sublocale S of frame with elements
    target_members: hom[i] is the position of source[i] meet S among the
    D-sublocales of S's own frame (source: the masks of frame's), both in
    member order.  The target is rebuilt when pair or target_subs is read."""

    @cached_property
    def _target(self):
        sub_frame = _frame_on(self.frame, self.target_members)
        tgt = subl.enumerate_assembly(sub_frame)
        order, masks = subl.family_order_frame(
            sub_frame, [tgt.masks[j] for j in d_sublocales(tgt)])
        return order, tuple(subl._from_mask(sub_frame, m) for m in masks)

    @cached_property
    def pair(self):
        return AdjointPair(subl.family_order_frame(self.frame, self.source)[0],
                           self._target[0], self.hom)

    @property
    def source_subs(self):
        return tuple(subl._from_mask(self.frame, m) for m in self.source)

    @property
    def target_subs(self):
        return self._target[1]


def lift_surjection(assembly, sub):
    """Lift the surjection onto the member `sub` to the order frames of
    the D-sublocales, T to T meet sub, which exists exactly when sub is
    a D-sublocale."""
    i = assembly.index_of(sub.mask)
    if i < 0 or sub.frame is not assembly.frame:
        raise NotLiftable(f"{sub!r} is no member")
    return _lift(assembly, i)


def _lift(assembly, i):
    """The lift onto member i, or what it raised: all members are lifted
    on the first call and kept in assembly.lifts."""
    if assembly.lifts is None:
        assembly.lifts = _lift_all(assembly)
    got = assembly.lifts[i]
    if isinstance(got, Exception):
        raise got
    return got


def _lift_all(assembly):
    """The AssemblyLift onto each member, or what its lift raises: the
    source side built once, each member's own route to its target, and
    the laws of each block of lifts, within BLOCK_BYTES, at once; each
    target frame and enumeration is dropped once its lift is found."""
    k, frame, source, out = len(assembly), assembly.frame, None, []
    label = partial(subl._label, frame)
    for lo, hi in frames._row_blocks(k, 20 * k * k):
        laws = []
        for s in assembly.masks[lo:hi]:
            try:
                if not _is_d(frame, s):
                    raise NotLiftable(f"{label(s)} is not a D-sublocale")
                if source is None:
                    source, src_masks = subl.family_order_frame(
                        frame, [assembly.masks[i] for i in d_sublocales(assembly)])
                    index = {t: i for i, t in enumerate(src_masks)}
                    rows = frames._matrix_of_rows(src_masks, frame.n)
                members = tuple(bits_of(s))
                sub_frame = _frame_on(frame, members)
                tgt = subl.enumerate_assembly(sub_frame, k)
                tgt_masks = [tgt.masks[j] for j in sorted(d_sublocales(tgt))]
                position, bits = {t: j for j, t in enumerate(tgt_masks)}, tgt.primes_of
                images = frames._int_rows(frames._packed_words(rows[:, members]))
                for t, image in zip(src_masks, images):
                    if t & s not in index:
                        raise NotLiftable(f"{label(t)} meet {label(s)} is not a D-sublocale")
                    if image not in position:
                        raise NotLiftable(f"image of {label(t)} is not a D-sublocale of the "
                                          "target")
                laws.append(([bits[m] for m in images], [bits[t] for t in tgt_masks],
                             members, [index.get(frame.up_masks[a], -2) for a in members],
                             [bits.get(u, -1) for u in sub_frame.up_masks]))
                out.append(AssemblyLift(frame, src_masks, tuple(map(position.get, images)),
                                        members, None))
            except (ValueError, subl.CapExceeded) as exc:   # raised by its member's call
                out.append(exc)
        lifted = [i for i in range(lo, hi) if not isinstance(out[i], Exception)]
        for i, (exc, onto) in zip(lifted, _lift_laws(source, *zip(*laws)) if laws else ()):
            out[i] = exc or out[i]._replace(surjective=onto)
    return out


def _lift_laws(source, hom, bits, order, gens, expect):
    """(exception or None, onto) of each lift onto an S, from the prime
    bits of source members meet S (hom) and of S's targets (bits), and
    for each a in S.members (order) the source index of c(a), -2 if none
    (gens), and the bits of S's own (expect): AdjointPair's laws in its
    order, then the square, as gathers; target meets are ORs, joins ANDs."""
    n, out = source.n, []
    hom, bits, gens, expect = (np.array(list(zip_longest(*rows, fillvalue=-1)), np.int32).T
                               for rows in (hom, bits, gens, expect))
    bounds = ((hom[:, source.top] != np.bitwise_and.reduce(bits, axis=1))
              | (hom[:, source.bottom] != np.bitwise_or.reduce(np.maximum(bits, 0), axis=1)))
    pairs = np.stack([hom[:, source.meet] != hom[:, :, None] | hom[:, None, :],
                      hom[:, source.join] != hom[:, :, None] & hom[:, None, :]], axis=3)
    below = (hom[:, :, None] & bits[:, None, :]) == bits[:, None, :]
    right = np.full(bits.shape, source.bottom)    # right(b): join of the a with h(a) <= b
    for a in range(n):
        right = np.where(below[:, a], source.join[right, a], right)
    ranked, w, valid = np.sort(hom, axis=1), bits.shape[1], bits >= 0
    adjoint = (below != source.leq[np.arange(n)[:, None], right[:, None, :]]) & valid[:, None]
    square = np.stack([gens == -2, (gens >= 0) & (np.take_along_axis(
        hom, np.maximum(gens, 0), axis=1) != expect)], axis=2)
    onto = (ranked[:, 1:] != ranked[:, :-1]).sum(axis=1) + 1 == valid.sum(axis=1)
    failed = [f.reshape(len(hom), -1) for f in (pairs, adjoint, square)]
    for j, elements in enumerate(order):
        p, q, r = (int(f[j].argmax()) for f in failed)
        a = [*elements][r // 2]
        out.append((ValueError("homomorphism does not preserve the bounds") if bounds[j] else
                    ValueError(f"{('meet', 'join')[p % 2]} of ({p // 2 // n},{p // 2 % n}) "
                               "not preserved") if failed[0][j, p] else
                    ValueError(f"adjunction law fails at ({q // w},{q % w})")
                    if failed[1][j, q] else
                    NotLiftable(f"closed-generator square fails at {a}" if r % 2 else
                                f"closed sublocale c({a}) is not a D-sublocale")
                    if failed[2][j, r] else None, bool(onto[j])))
    return out


# ---------------------------------------------------------------------------
# essential primes

def primes_above(frame, a):
    up = frame.up_masks[a]
    return frozenset(p for p in frames.primes(frame) if up >> p & 1)


def _require_meet_of_primes(frame, a):
    pts = primes_above(frame, a)
    if frame.meet_of(pts) != a:
        raise PreconditionFailed(f"{a} is not the meet of the primes above it")
    return pts


def essential_primes(frame, a):
    """Primes p above a whose whole upset cannot be dropped from the meet."""
    pts = _require_meet_of_primes(frame, a)
    out = set()
    for p in pts:
        up = frame.up_masks[p]
        rest = [q for q in pts if not up >> q & 1]
        if frame.meet_of(rest) != a:
            out.add(p)
    return frozenset(out)


def absolutely_essential_primes(frame, a):
    """Primes p above a that no prime decomposition of a can omit."""
    pts = _require_meet_of_primes(frame, a)
    out = set()
    for p in pts:
        rest = [q for q in pts if q != p]
        if frame.meet_of(rest) != a:
            out.add(p)
    return frozenset(out)


def weakly_covered(frame, p):
    """p differs from the meet of the primes strictly above it."""
    up = frame.up_masks[p] & ~(1 << p)
    stricter = [q for q in frames.primes(frame) if up >> q & 1]
    return frame.meet_of(stricter) != p


# ---------------------------------------------------------------------------
# a cached bundle of everything the classifier and theorem suites consume

class FrameAnalysis:
    """Lazily computed subsystems of one frame's assembly.

    The families (smooth, smooth_by_joins, closed_joins, d_family and
    spatial_family) are frozensets of assembly indices.  joins, meets
    and differences are k x k int arrays over assembly.masks (s_i):
    joins[i, j] is the index of the memoised meet closure of s_i | s_j,
    as sublocale_join, meets[i, j] that of s_i & s_j and differences[i, j]
    that of the meet closure of top | s_i & U(s_j), as difference_mask.
    Each distinct closure input is closed once, all of a table's in one
    batch (sublocales._meet_closed_all); every ordered pair has an entry
    of its own, so a table that swaps its arguments still shows.  An
    index is -1, in a table or a family, where the result is not a
    member, which only a broken engine gives; the batteries that read
    it fail there.  inclusion[i, j] tells whether s_i lies inside s_j.
    supplements is the whole frame's row of the differences, from which
    the smooth family and the complemented members are read.
    """

    def __init__(self, frame, cap=subl.DEFAULT_CAP):
        self.frame = frame
        self.cap = cap

    @cached_property
    def assembly(self):
        return subl.enumerate_assembly(self.frame, self.cap)

    def index_table(self, inputs, close):
        """Int array of the assembly index of the closure of each input
        mask, -1 where it is not a member.  close maps the list of the
        distinct inputs to the list of their closures, in one call."""
        index, distinct = self.assembly._index, list(dict.fromkeys(inputs))
        of_input = {u: index.get(c, -1) for u, c in zip(distinct, close(distinct))}
        return np.fromiter(map(of_input.__getitem__, inputs), np.intp, len(inputs))

    @cached_property
    def joins(self):
        masks = self.assembly.masks
        return self.index_table([s | t for s in masks for t in masks],
                                partial(subl._meet_closed_all, self.frame)
                                ).reshape(len(masks), -1)

    @cached_property
    def meets(self):
        masks = self.assembly.masks
        # an intersection of sublocales needs no closing: list is the identity
        return self.index_table([s & t for s in masks for t in masks],
                                list).reshape(len(masks), -1)

    @cached_property
    def differences(self):
        frame, masks = self.frame, self.assembly.masks
        top = 1 << frame.top
        unions = subl._pieces_unions(frame, masks)
        return self.index_table([top | s & u for s in masks for u in unions],
                                partial(subl._meet_closed_all, frame)
                                ).reshape(len(masks), -1)

    @cached_property
    def supplements(self):
        """Int array of k + 1 entries: entry j is the assembly index of
        the supplement of member j, the least sublocale whose join with it
        is the whole frame, -1 where that is not a member, and the last
        entry is -1, which a -1 entry reads.  It is the whole frame's row
        of differences, the meet closure of top | U(s_j), its k unions
        found and its k inputs closed in one batch each through the frame
        memo."""
        frame, masks = self.frame, self.assembly.masks
        top = 1 << frame.top
        row = self.index_table([top | u for u in subl._pieces_unions(frame, masks)],
                               partial(subl._meet_closed_all, frame))
        return np.append(row, -1)

    @cached_property
    def inclusion(self):
        return frames.inclusion_order(self.assembly.masks)

    @cached_property
    def smooth(self):
        """Fixpoints of the double supplement, the Booleanization of the
        assembly: the members i with sup[sup[i]] = i."""
        sup = self.supplements
        return frozenset(np.flatnonzero(sup[sup[:-1]] == np.arange(len(sup) - 1)).tolist())

    @cached_property
    def smooth_by_joins(self):
        """The complemented sublocales and zero, the joins of complemented
        ones (a finite join of complemented elements of a coframe is
        complemented): member i meets its supplement in {top} alone."""
        masks, zero_mask = self.assembly.masks, 1 << self.frame.top
        return frozenset(i for i, j in enumerate(self.supplements[:-1].tolist())
                         if j >= 0 and masks[i] & masks[j] == zero_mask
                         ) | {self.assembly.index_of(zero_mask)}

    @cached_property
    def closed_joins(self):
        """All joins of closed sublocales, the empty join zero = c(top)
        included.  They are the closed sublocales c(a) themselves, because
        c(a) join c(b) = c(a meet b) (law_open_closed checks it on every
        pair); each c(a) is validated."""
        return frozenset(self.assembly.index_of(subl._validate_mask(self.frame, up))
                         for up in self.frame.up_masks)

    @cached_property
    def d_family(self):
        return d_sublocales(self.assembly)

    @cached_property
    def d_indices(self):
        return tuple(sorted(self.d_family))

    @cached_property
    def in_d_family(self):
        """Boolean array of k + 1 entries: entry i tells whether member i
        is a D-sublocale, the last (False) what a -1 entry reads."""
        out = np.zeros(len(self.assembly) + 1, dtype=bool)
        out[list(self.d_family)] = True
        return out

    @cached_property
    def spatial_family(self):
        return spatial_sublocales(self.assembly)

    @cached_property
    def td_spatializations(self):
        """The index of each D-member's td-spatialization, -1 where it is
        not a member, keyed by the D-member's index."""
        masks, index_of = self.assembly.masks, self.assembly.index_of
        return {i: index_of(_td_spatialization(self.frame, masks[i])) for i in self.d_indices}

    @cached_property
    def spectrum(self):
        """The classical spectrum; holding its space keeps spaces.omega's
        frame for it alive while this analysis is."""
        return spaces.spectrum(self.frame)

    @cached_property
    def points(self):
        return frames.primes(self.frame)

    @cached_property
    def covered(self):
        return frames.covered_primes(self.frame)
