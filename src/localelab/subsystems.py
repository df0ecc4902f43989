"""Distinguished subsystems of the assembly and the covered-prime adjunction.

The four families materialised here are the smooth sublocales (fixpoints
of the double supplement, i.e. the Booleanization of the assembly), the
joins of closed sublocales, the sublocales whose intrinsic covered primes
are covered in the ambient frame, and the spatial sublocales.  On top of
that: the meet-closure adjunction between prime subsets and sublocales,
localic images and preimages, the lifting of a frame surjection to the
assemblies, and essential-prime machinery.  Order frames of families
come from sublocales.family_order_frame, the one builder of
reverse-inclusion orders.
"""

from __future__ import annotations

from functools import cached_property

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
    """(primes, covered primes) of the sublocale as its own lattice,
    computed once per frame and mask.

    Meets in a sublocale agree with meets in the frame, so the primes
    come from a plain meet-irreducibility scan over the members.  A prime
    p is covered when the meet of the members strictly above p stays
    strictly above p (so no subset of members can reach p without p).
    """
    frame = sub.frame
    spectra = frame._memo.spectra
    got = spectra.get(sub.mask)
    if got is None:
        members = sorted(sub.members)
        meet = frame.meet_rows
        reducible = set()
        for i, x in enumerate(members):
            row = meet[x]
            for y in members[i + 1:]:
                m = row[y]
                if m != x and m != y:
                    reducible.add(m)
        primes = frozenset(sub.members - reducible - {frame.top})
        covered = frozenset(
            p for p in primes
            if frame.meet_of(bits_of(frame.up_masks[p] & sub.mask & ~(1 << p))) != p)
        got = spectra[sub.mask] = (primes, covered)
    return got


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

class PrimeSubset:
    """A subset of the spectrum, validated against the ambient frame.

    classical=True admits any primes; otherwise members must be covered
    primes, as required on the covered-prime side of the adjunction.
    """

    __slots__ = ("frame", "elements", "classical")

    def __init__(self, frame, elements, classical=False):
        elements = frozenset(int(x) for x in elements)
        allowed = frames.primes(frame) if classical else frames.covered_primes(frame)
        stray = elements - allowed
        if stray:
            kind = "primes" if classical else "covered primes"
            raise ValueError(f"elements {sorted(stray)} are not {kind} of the frame")
        self.frame = frame
        self.elements = elements
        self.classical = classical

    def __iter__(self):
        return iter(sorted(self.elements))

    def __len__(self):
        return len(self.elements)


def meet_closure(frame, points):
    """The sublocale {meet of A : A subset of the given primes}.

    theorems.law_td_adjunction compares it with the join of the one-point
    sublocales {1, p}, the second route, on every subset of the primes.
    """
    if isinstance(points, PrimeSubset):
        points = points.elements
    return subl._from_mask(frame, frame.meet_close_mask(mask_of(points)),
                           _validate=True)


def spatialization(sub):
    """Meet closure of the intrinsic primes; sub is spatial iff fixed."""
    return meet_closure(sub.frame, points_of(sub))


def is_spatial_sublocale(sub):
    return spatialization(sub) == sub


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

    def __repr__(self):
        state = "pass" if self.passed else f"fail ({len(self.failures)})"
        return f"AdjunctionReport({state}, checked={self.checked})"


def check_td_adjunction(assembly):
    """Verify the adjunction law between covered-prime subsets and D-sublocales.

    For every D-sublocale S of the enumerated assembly and every subset Y
    of the covered primes: meet_closure(Y) <= S iff Y <= covered_points_of(S);
    additionally taking covered points of a meet closure must give the
    subset back.
    """
    frame = assembly.frame
    d_family = d_sublocales(assembly)
    dsubs = [(s, mask_of(covered_points_of(s))) for s in assembly if s in d_family]
    pts = sorted(frames.covered_primes(frame))
    failures = []
    checked = 0
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in bits_of(sel))
        y_mask = mask_of(y)
        m = meet_closure(frame, y)
        if covered_points_of(m) != y:
            failures.append(f"covered points of closure of {sorted(y)} differ")
        for s, covered in dsubs:
            checked += 1
            lhs = m.mask & ~s.mask == 0
            rhs = y_mask & ~covered == 0
            if lhs != rhs:
                failures.append(
                    f"law fails for Y={sorted(y)} S={s!r}: {lhs} vs {rhs}")
    return AdjunctionReport(checked, failures)


# ---------------------------------------------------------------------------
# the four subsystems

def smooth_sublocales(assembly):
    """Fixpoints of the double supplement: the Booleanization of the assembly."""
    out = set()
    for s in assembly:
        if subl.supplement(subl.supplement(s)) == s:
            out.add(s)
    return frozenset(out)


def complemented_sublocales(assembly):
    return frozenset(s for s in assembly if subl.is_complemented(s))


def joins_of_complemented(assembly):
    """Closure of the complemented sublocales under binary joins.

    The other published description of the smooth sublocales; asserted
    equal to the double-supplement fixpoints in the tests.
    """
    return _join_closure(assembly, complemented_sublocales(assembly))


def joins_of_closed(assembly):
    """All joins of closed sublocales (the empty join included)."""
    frame = assembly.frame
    gens = [subl.closed_sublocale(frame, a) for a in range(frame.n)]
    return _join_closure(assembly, gens)


def _join_closure(assembly, generators):
    """The zero sublocale and the generators, closed under binary joins
    read from the assembly's prime-subset table (Assembly.join_mask)."""
    frame = assembly.frame
    gens = [g.mask for g in generators]
    out = {subl.zero(frame).mask, *gens}
    frontier = list(out)
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                j = assembly.join_mask(s, g)
                if j not in out:
                    out.add(j)
                    new.append(j)
        frontier = new
    return frozenset(subl._from_mask(frame, m) for m in out)


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
            right = [source.join_of(a for a in range(source.n)
                                    if up[self.hom[a]] >> b & 1)
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


def identity_pair(frame):
    return AdjointPair(frame, frame, range(frame.n), range(frame.n))


def sublocale_frame(sub):
    """The sublocale as a frame in its own right, with its element map.

    Returns (frame, members) where members[i] is the ambient element of
    the i-th new element; the order restricted to the members is
    re-validated as a frame.
    """
    members = sorted(sub.members)
    labels = [sub.frame.labels[a] for a in members]
    return (frames.verify_frame(sub.frame.leq[np.ix_(members, members)],
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

class AssemblyLift:
    """The lift of a surjection onto a D-sublocale.

    pair is an AdjointPair between the reverse-inclusion order frames of
    the D-sublocales of the source and of the target sublocale; index
    tables recover the actual sublocales on both sides.
    """

    def __init__(self, pair, source_subs, target_subs, target_members):
        self.pair = pair
        self.source_subs = source_subs
        self.target_subs = target_subs
        self.target_members = target_members


def lift_surjection(assembly, sub):
    """Lift the surjection onto `sub` to the assemblies of D-sublocales.

    The lift sends a D-sublocale T of the enumerated assembly to T meet
    sub (meet taken in the family of D-sublocales); it exists exactly when
    sub itself is a D-sublocale.  The returned AdjointPair lives on the
    reverse-inclusion order frames, and is checked to preserve meets,
    joins, and the closed-sublocale generators with elements of sub.
    sub's primes are the frame's primes inside it, so its own assembly is
    enumerated with len(assembly) as the cap, which it never exceeds.
    """
    if not is_d_sublocale(sub):
        raise NotLiftable(f"{sub!r} is not a D-sublocale")
    frame = assembly.frame
    src_family = d_sublocales(assembly)
    src_frame, src_subs = subl.family_order_frame(src_family)

    sub_frame, members = sublocale_frame(sub)
    pos = {a: i for i, a in enumerate(members)}
    tgt_assembly = subl.enumerate_assembly(sub_frame, len(assembly))
    tgt_family = d_sublocales(tgt_assembly)
    tgt_frame, tgt_subs = subl.family_order_frame(tgt_family)
    tgt_index = {t.members: i for i, t in enumerate(tgt_subs)}

    def meet_in_family(t):
        """Meet of t and sub taken inside the D-family.

        The family is closed under joins, so its meet is the join of the
        members inside the plain intersection; when the intersection is
        itself in the family (always, for finite frames) this is just it.
        """
        cut = t.mask & sub.mask
        inter = subl._from_mask(frame, cut, _validate=True)
        if inter in src_family:
            return inter.members
        inside = [cand for cand in src_subs if cand.mask & ~cut == 0]
        return subl.sublocale_join(frame, inside).members

    hom = []
    for t in src_subs:
        cut = meet_in_family(t)
        translated = frozenset(pos[a] for a in cut)
        if translated not in tgt_index:
            raise NotLiftable(f"image of {t!r} is not a D-sublocale of the target")
        hom.append(tgt_index[translated])
    pair = AdjointPair(src_frame, tgt_frame, hom)

    # closed-generator square: c(a) in the source maps to c(a) in sub
    for a in sub.members:
        c_src = subl.closed_sublocale(frame, a)
        i = next(k for k, t in enumerate(src_subs) if t == c_src)
        expect = frozenset(pos[x] for x in bits_of(sub.mask & frame.up_masks[a]))
        if tgt_subs[pair.hom[i]].members != expect:
            raise NotLiftable(f"closed-generator square fails at {a}")
    return AssemblyLift(pair, src_subs, tgt_subs, members)


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
    binary sublocale operations from: with S_i the i-th member of the
    assembly, joins[i][j] is the assembly index of sublocale_join of S_i
    and S_j, meets[i][j] that of their sublocale_meet and
    differences[i][j] that of the difference S_i minus S_j.  Each is
    k x k over the whole assembly, every ordered pair computed once
    through the sublocales module attribute, so a commutativity slip
    still shows in the table.  An entry is None when the result is not a
    member, which only a broken operation or enumeration gives; the
    batteries that read it fail there.
    """

    def __init__(self, frame, cap=1 << 16):
        self.frame = frame
        self.cap = cap

    @cached_property
    def assembly(self):
        return subl.enumerate_assembly(self.frame, self.cap)

    def _pair_table(self, op):
        index, subs = self.assembly.index_of, self.assembly.sublocales
        return tuple(tuple(index(op(s, t)) for t in subs) for s in subs)

    @cached_property
    def joins(self):
        return self._pair_table(lambda s, t: subl.sublocale_join(self.frame, [s, t]))

    @cached_property
    def meets(self):
        return self._pair_table(lambda s, t: subl.sublocale_meet(self.frame, [s, t]))

    @cached_property
    def differences(self):
        return self._pair_table(lambda s, t: subl.difference(s, t))

    @cached_property
    def whole(self):
        return subl.whole(self.frame)

    @cached_property
    def smooth(self):
        return smooth_sublocales(self.assembly)

    @cached_property
    def smooth_by_joins(self):
        return joins_of_complemented(self.assembly)

    @cached_property
    def closed_joins(self):
        return joins_of_closed(self.assembly)

    @cached_property
    def d_family(self):
        return d_sublocales(self.assembly)

    @cached_property
    def d_indices(self):
        """Assembly indices of the D-family, in assembly order (which is
        Sublocale.sort_key order)."""
        return tuple(i for i, s in enumerate(self.assembly) if s in self.d_family)

    @cached_property
    def spatial_family(self):
        return spatial_sublocales(self.assembly)

    @cached_property
    def td_spatializations(self):
        """Assembly index of the td_spatialization of every D-sublocale,
        keyed by the D-sublocale's index (None where it is not a member),
        computed once."""
        assembly = self.assembly
        return {i: assembly.index_of(td_spatialization(assembly[i]))
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
