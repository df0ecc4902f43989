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

def _spectra(sub):
    """(primes, covered primes) of the sublocale as its own lattice."""
    return frames.spectra_of(sub.frame, sub.mask)


def points_of(sub):
    """The classical spectrum of a sublocale: its intrinsic primes.

    For sublocales these coincide with the ambient primes lying inside,
    which the tests assert; the intrinsic computation is the definition.
    """
    return _spectra(sub)[0]


def covered_points_of(sub):
    """The covered-prime spectrum of a sublocale, computed intrinsically.

    Intentionally NOT the ambient covered primes restricted to the
    members: the divergence of the two is exactly what makes a sublocale
    fail to interact well with the covered-prime duality.
    """
    return _spectra(sub)[1]


def is_d_sublocale(sub):
    """True iff every intrinsic covered prime is covered in the frame.

    The intrinsic side is memoised per mask; the ambient side is read
    from frames.covered_primes on every call.
    """
    return covered_points_of(sub) <= frames.covered_primes(sub.frame)


# ---------------------------------------------------------------------------
# the meet-closure adjunction

def meet_closure(frame, points):
    """The sublocale {meet of A : A subset of the given primes}.

    Closed once per frame and set of points, through the frame's memo.
    theorems.law_td_adjunction compares it with the join of the one-point
    sublocales {1, p}, the second route, on every subset of the primes.
    """
    return subl._from_mask(frame, subl._meet_closed(frame, mask_of(points)),
                           _validate=True)


def is_spatial_sublocale(sub):
    """sub is the meet closure of its intrinsic primes, its
    spatialization.  The closure is compared as a mask and never
    validated as a Sublocale, so a member that is not a sublocale (only
    from a broken engine) gets an answer, not an exception."""
    return subl._meet_closed(sub.frame, mask_of(points_of(sub))) == sub.mask


def td_spatialization(sub):
    """Meet closure of the covered primes; only defined on D-sublocales."""
    if not is_d_sublocale(sub):
        raise NotDSublocale(f"{sub!r} has intrinsic covered primes not covered "
                            "in the frame")
    return meet_closure(sub.frame, covered_points_of(sub))


class AdjunctionReport:
    def __init__(self, checked, failures):
        self.checked = checked
        self.failures = tuple(failures)

    @property
    def passed(self):
        return not self.failures


def adjunction_law(frame, points, family, spectrum):
    """The meet-closure adjunction between subsets Y of points and the
    sublocales S of family, taken in the order given: spectrum(meet_closure(Y))
    is Y, and meet_closure(Y) <= S iff Y <= spectrum(S).  checked counts
    the (Y, S) pairs.

    Both sides of the law are bitsets over the family: holding[x] has bit
    t set when family member t contains x, and spanning[x] when x is in
    its spectrum, so the members above meet_closure(Y) are the AND of
    holding over its elements and those whose spectrum holds Y the AND
    of spanning over Y: one comparison per Y.
    """
    pts = sorted(points)
    subs = list(family)
    holding, spanning = [0] * frame.n, [0] * frame.n
    for t, s in enumerate(subs):
        for x in bits_of(s.mask):
            holding[x] |= 1 << t
        for x in spectrum(s):
            spanning[x] |= 1 << t
    everything = (1 << len(subs)) - 1
    failures = []
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in bits_of(sel))
        m = meet_closure(frame, y)
        if spectrum(m) != y:
            failures.append(f"{spectrum.__name__}(meet_closure({sorted(y)})) "
                            f"!= {sorted(y)}")
        above = spans = everything
        for x in bits_of(m.mask):
            above &= holding[x]
        for x in y:
            spans &= spanning[x]
        for t in bits_of(above ^ spans):
            failures.append(f"law fails for Y={sorted(y)} S={subs[t]!r}: "
                            f"{bool(above >> t & 1)} vs {bool(spans >> t & 1)}")
    return AdjunctionReport(len(subs) << len(pts), failures)


def check_td_adjunction(assembly):
    """The adjunction law between subsets of the covered primes and the
    D-sublocales of the enumerated assembly, in assembly order."""
    d_family = d_sublocales(assembly)
    return adjunction_law(assembly.frame, frames.covered_primes(assembly.frame),
                          [s for s in assembly if s in d_family],
                          covered_points_of)


# ---------------------------------------------------------------------------
# the four subsystems

def d_sublocales(assembly):
    """The D-sublocales of an enumerated assembly, found once per
    assembly and kept in assembly.d_family."""
    if assembly.d_family is None:
        assembly.d_family = frozenset(s for s in assembly if is_d_sublocale(s))
    return assembly.d_family


def spatial_sublocales(assembly):
    return frozenset(s for s in assembly if is_spatial_sublocale(s))


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


def sublocale_frame(sub):
    """The sublocale as a frame in its own right, with its element map.

    Returns (frame, members) where members[i] is the ambient element of
    the i-th new element; the order restricted to the members is
    re-validated as a frame.
    """
    members = sorted(sub.members)
    labels = [sub.frame.labels[a] for a in members]
    return (frames.FiniteFrame(sub.frame.leq[np.ix_(members, members)],
                               labels=labels), tuple(members))


def sublocale_surjection_pair(sub):
    """The frame surjection onto a sublocale with the inclusion as adjoint."""
    sub_frame, members = sublocale_frame(sub)
    pos = {a: i for i, a in enumerate(members)}
    hom = [pos[subl.sub_nucleus_image(sub, a)] for a in range(sub.frame.n)]
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
                              "hom source_subs target_subs target_members surjective")):
    """The lift onto a D-sublocale S: target_subs[hom[i]] is source_subs[i]
    meet S in S's own elements (target_members); pair is built when read."""

    @cached_property
    def pair(self):
        return AdjointPair(subl.family_order_frame(self.source_subs)[0],
                           subl.family_order_frame(self.target_subs)[0], self.hom)


def lift_surjection(assembly, sub):
    """Lift the surjection onto the member `sub` to the order frames of
    the D-sublocales, T to T meet sub, which exists exactly when sub is
    a D-sublocale.  All members are lifted on the first call (_lift_all,
    kept in assembly.lifts); one with no lift raises what it met first."""
    if assembly.lifts is None:
        assembly.lifts = _lift_all(assembly)
    i = assembly.index_of(sub.mask)
    got = assembly.lifts[i] if assembly[i] == sub else NotLiftable(f"{sub!r} is no member")
    if isinstance(got, Exception):
        raise got
    return got


def _lift_all(assembly):
    """The AssemblyLift onto each member, or what its lift raises: the
    source side built once, each member's own route to its target, and
    the laws of each block of lifts, within BLOCK_BYTES, at once."""
    k, frame, source, out = len(assembly), assembly.frame, None, []
    for lo, hi in frames._row_blocks(k, 20 * k * k):
        laws = []
        for s in assembly.sublocales[lo:hi]:
            try:
                if not is_d_sublocale(s):
                    raise NotLiftable(f"{s!r} is not a D-sublocale")
                if source is None:
                    source, src_subs = subl.family_order_frame(d_sublocales(assembly))
                    index = {t.mask: i for i, t in enumerate(src_subs)}
                    rows = frames._matrix_of_rows([t.mask for t in src_subs], frame.n)
                sub_frame, members = sublocale_frame(s)
                tgt = subl.enumerate_assembly(sub_frame, k)
                tgt_subs = tuple(t for t in tgt if t in d_sublocales(tgt))
                position, bits = {t.mask: j for j, t in enumerate(tgt_subs)}, tgt.primes_of
                images = frames._int_rows(frames._packed_words(rows[:, members]))
                for t, image in zip(src_subs, images):
                    if t.mask & s.mask not in index:
                        raise NotLiftable(f"{t!r} meet {s!r} is not a D-sublocale")
                    if image not in position:
                        raise NotLiftable(f"image of {t!r} is not a D-sublocale of the "
                                          "target")
                laws.append(([bits[m] for m in images], [bits[t.mask] for t in tgt_subs],
                             s.members, [index.get(frame.up_masks[a], -2) for a in s.members],
                             [bits.get(sub_frame.up_masks[members.index(a)], -1)
                              for a in s.members]))
                out.append((tuple(map(position.get, images)), src_subs, tgt_subs, members))
            except (ValueError, subl.CapExceeded) as exc:   # raised by its member's call
                out.append(exc)
        lifted = [i for i in range(lo, hi) if not isinstance(out[i], Exception)]
        for i, (exc, onto) in zip(lifted, _lift_laws(source, *zip(*laws)) if laws else ()):
            out[i] = exc or AssemblyLift(*out[i], onto)
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

    joins, meets and differences are the pair tables the batteries read
    binary sublocale operations from, each a k x k int array over the
    whole assembly: with s_i the i-th entry of assembly.masks,
    joins[i, j] is the assembly index of the meet closure of s_i | s_j
    (through the frame's closure memo, as sublocale_join), meets[i, j]
    that of s_i & s_j and differences[i, j] that of the meet closure of
    top | s_i & U(s_j) (sublocales._pieces_unions, as difference_mask).
    Each distinct closure input is closed once, all of a table's in one
    batch (sublocales._meet_closed_all), and no Sublocale is made; every
    ordered pair has an entry of its own, so a table that swaps its
    arguments still shows.  An entry is -1 when the result is not a
    member, which only a broken operation or enumeration gives; the
    batteries that read it fail there.  inclusion[i, j] tells whether
    s_i lies inside s_j (frames.inclusion_order).  supplements is the
    whole frame's row of the differences, from which the smooth family
    and the complemented members are read.
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
    def whole(self):
        return subl.whole(self.frame)

    @cached_property
    def smooth(self):
        """Fixpoints of the double supplement, the Booleanization of the
        assembly: the members i with sup[sup[i]] = i."""
        sup = self.supplements
        fixed = np.flatnonzero(sup[sup[:-1]] == np.arange(len(sup) - 1))
        return frozenset(self.assembly[i] for i in fixed.tolist())

    @cached_property
    def smooth_by_joins(self):
        """The complemented sublocales and zero: the other published
        description of the smooth sublocales, the joins of complemented
        ones.  No join has to be added, because a finite join of
        complemented elements of a coframe is complemented.  Member i is
        complemented when it meets its supplement in the zero sublocale
        {top} alone."""
        masks, zero_mask = self.assembly.masks, 1 << self.frame.top
        return frozenset(self.assembly[i]
                         for i, j in enumerate(self.supplements[:-1].tolist())
                         if j >= 0 and masks[i] & masks[j] == zero_mask
                         ) | {subl.zero(self.frame)}

    @cached_property
    def closed_joins(self):
        """All joins of closed sublocales, the empty join zero = c(top)
        included.  They are the closed sublocales c(a) themselves, because
        c(a) join c(b) = c(a meet b) (law_open_closed checks it on every
        pair)."""
        frame = self.frame
        return frozenset(subl.closed_sublocale(frame, a) for a in range(frame.n))

    @cached_property
    def d_family(self):
        return d_sublocales(self.assembly)

    @cached_property
    def d_indices(self):
        """Assembly indices of the D-family, in assembly order (which is
        Sublocale.sort_key order)."""
        return tuple(i for i, s in enumerate(self.assembly) if s in self.d_family)

    @cached_property
    def in_d_family(self):
        """Boolean array of k + 1 entries: entry i tells whether member i
        is a D-sublocale, and the last, False, is what a -1 entry of a
        pair table reads."""
        out = np.zeros(len(self.assembly) + 1, dtype=bool)
        out[list(self.d_indices)] = True
        return out

    @cached_property
    def spatial_family(self):
        return spatial_sublocales(self.assembly)

    @cached_property
    def td_spatializations(self):
        """Assembly index of the td_spatialization of every D-sublocale,
        keyed by the D-sublocale's index (-1 where it is not a member),
        computed once."""
        assembly = self.assembly
        return {i: assembly.index_of(td_spatialization(assembly[i]).mask)
                for i in self.d_indices}

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
