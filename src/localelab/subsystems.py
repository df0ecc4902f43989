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
from . import sublocales as subl
from .frames import bits_of, mask_of
from .sublocales import Assembly, Sublocale


class NotDSublocale(ValueError):
    pass


class NotLiftable(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


# ---------------------------------------------------------------------------
# intrinsic spectra of a sublocale (as a lattice in its own right)

def sub_primes(sub):
    """Primes of the sublocale as its own lattice.

    Meets in a sublocale agree with meets in the frame, so this is a
    plain meet-irreducibility scan over the members.
    """
    frame = sub.frame
    members = sorted(sub.members)
    meet = frame.meet_rows
    reducible = set()
    for i, x in enumerate(members):
        row = meet[x]
        for y in members[i + 1:]:
            m = row[y]
            if m != x and m != y:
                reducible.add(m)
    return frozenset(sub.members - reducible - {frame.top})


def sub_covered_primes(sub):
    """Covered primes of the sublocale as its own lattice.

    p is covered when the meet of the members strictly above p stays
    strictly above p (so no subset of members can reach p without p).
    """
    frame = sub.frame
    out = set()
    for p in sub_primes(sub):
        above = [x for x in sub.members if frame.leq[p, x] and x != p]
        if frame.meet_of(above) != p:
            out.add(p)
    return frozenset(out)


def points_of(sub):
    """The classical spectrum of a sublocale: its intrinsic primes.

    For sublocales these coincide with the ambient primes lying inside,
    which the tests assert; the intrinsic computation is the definition.
    """
    return sub_primes(sub)


def covered_points_of(sub):
    """The covered-prime spectrum of a sublocale, computed intrinsically.

    Intentionally NOT the ambient covered primes restricted to the
    members: the divergence of the two is exactly what makes a sublocale
    fail to interact well with the covered-prime duality.
    """
    return sub_covered_primes(sub)


def is_d_sublocale(sub):
    """True iff every intrinsic covered prime is covered in the frame."""
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


def check_td_adjunction(frame, cap=1 << 16):
    """Verify the adjunction law between covered-prime subsets and D-sublocales.

    For every D-sublocale S and every subset Y of the covered primes:
    meet_closure(Y) <= S iff Y <= covered_points_of(S); additionally
    taking covered points of a meet closure must give the subset back.
    """
    assembly = _assembly_of(frame, cap)
    dsubs = [s for s in assembly if is_d_sublocale(s)]
    pts = sorted(frames.covered_primes(frame))
    failures = []
    checked = 0
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in bits_of(sel))
        m = meet_closure(frame, y)
        if covered_points_of(m) != y:
            failures.append(f"covered points of closure of {sorted(y)} differ")
        for s in dsubs:
            checked += 1
            lhs = m.members <= s.members
            rhs = y <= covered_points_of(s)
            if lhs != rhs:
                failures.append(
                    f"law fails for Y={sorted(y)} S={s!r}: {lhs} vs {rhs}")
    return AdjunctionReport(checked, failures)


def _assembly_of(frame_or_assembly, cap=1 << 16):
    if isinstance(frame_or_assembly, Assembly):
        return frame_or_assembly
    return subl.enumerate_assembly(frame_or_assembly, cap)


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
    return _join_closure(assembly.frame, complemented_sublocales(assembly))


def joins_of_closed(assembly):
    """All joins of closed sublocales (the empty join included)."""
    frame = assembly.frame
    gens = [subl.closed_sublocale(frame, a) for a in range(frame.n)]
    return _join_closure(frame, gens)


def _join_closure(frame, generators):
    out = {subl.zero(frame)}
    out.update(generators)
    frontier = list(out)
    while frontier:
        new = []
        for s in frontier:
            for g in generators:
                j = subl.sublocale_join(frame, [s, g])
                if j not in out:
                    out.add(j)
                    new.append(j)
        frontier = new
    return frozenset(out)


def d_sublocales(assembly):
    return frozenset(s for s in assembly if is_d_sublocale(s))


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

    def __init__(self, source, target, hom, right=None, _validate=True):
        self.source = source
        self.target = target
        self.hom = tuple(int(x) for x in hom)
        if right is None:
            right = [source.join_of(a for a in range(source.n)
                                    if target.leq[self.hom[a], b])
                     for b in range(target.n)]
        self.right = tuple(int(x) for x in right)
        if _validate:
            self._validate()

    def _validate(self):
        src, tgt, h = self.source, self.target, self.hom
        if len(h) != src.n or len(self.right) != tgt.n:
            raise ValueError("map tables have wrong lengths")
        if h[src.top] != tgt.top or h[src.bottom] != tgt.bottom:
            raise ValueError("homomorphism does not preserve the bounds")
        for a in range(src.n):
            for b in range(src.n):
                if h[src.meet[a, b]] != tgt.meet[h[a], h[b]]:
                    raise ValueError(f"meet of ({a},{b}) not preserved")
                if h[src.join[a, b]] != tgt.join[h[a], h[b]]:
                    raise ValueError(f"join of ({a},{b}) not preserved")
        for a in range(src.n):
            for b in range(tgt.n):
                if bool(tgt.leq[h[a], b]) != bool(src.leq[a, self.right[b]]):
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


def preimage(pair, sub, cap=1 << 16):
    """Largest T with image(T) <= sub, by scanning the target assembly.

    The scan over the enumerated assembly is the dominant cost of this
    module; fine at desk scale.
    """
    if sub.frame is not pair.source:
        raise subl.MixedFrames("preimage expects a sublocale of the source frame")
    assembly = subl.enumerate_assembly(pair.target, cap)
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


def lift_surjection(frame, sub, cap=1 << 16):
    """Lift the surjection onto `sub` to the assemblies of D-sublocales.

    The lift sends a D-sublocale T to T meet sub (meet taken in the
    family of D-sublocales); it exists exactly when sub itself is a
    D-sublocale.  The returned AdjointPair lives on the reverse-inclusion
    order frames, and is checked to preserve meets, joins, and the
    closed-sublocale generators with elements of sub.
    """
    if not is_d_sublocale(sub):
        raise NotLiftable(f"{sub!r} is not a D-sublocale")
    assembly = subl.enumerate_assembly(frame, cap)
    src_family = d_sublocales(assembly)
    src_frame, src_subs = subl.family_order_frame(src_family)

    sub_frame, members = sublocale_frame(sub)
    pos = {a: i for i, a in enumerate(members)}
    tgt_assembly = subl.enumerate_assembly(sub_frame, cap)
    tgt_family = d_sublocales(tgt_assembly)
    tgt_frame, tgt_subs = subl.family_order_frame(tgt_family)
    tgt_index = {t.members: i for i, t in enumerate(tgt_subs)}

    def meet_in_family(t):
        """Meet of t and sub taken inside the D-family.

        The family is closed under joins, so its meet is the join of the
        members inside the plain intersection; when the intersection is
        itself in the family (always, for finite frames) this is just it.
        """
        cut = t.members & sub.members
        inter = Sublocale(frame, cut)
        if inter in src_family:
            return inter.members
        inside = [cand for cand in src_subs if cand.members <= cut]
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
        expect = frozenset(pos[x] for x in sub.members if frame.leq[a, x])
        if tgt_subs[pair.hom[i]].members != expect:
            raise NotLiftable(f"closed-generator square fails at {a}")
    return AssemblyLift(pair, src_subs, tgt_subs, members)


# ---------------------------------------------------------------------------
# essential primes

def primes_above(frame, a):
    return frozenset(p for p in frames.primes(frame) if frame.leq[a, p])


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
        rest = [q for q in pts if not frame.leq[p, q]]
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
    stricter = [q for q in frames.primes(frame) if frame.leq[p, q] and q != p]
    return frame.meet_of(stricter) != p


# ---------------------------------------------------------------------------
# a cached bundle of everything the classifier and theorem suites consume

class FrameAnalysis:
    """Lazily computed subsystems of one frame's assembly."""

    def __init__(self, frame, cap=1 << 16):
        self.frame = frame
        self.cap = cap

    @cached_property
    def assembly(self):
        return subl.enumerate_assembly(self.frame, self.cap)

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
    def spatial_family(self):
        return spatial_sublocales(self.assembly)

    @cached_property
    def points(self):
        return frames.primes(self.frame)

    @cached_property
    def covered(self):
        return frames.covered_primes(self.frame)
