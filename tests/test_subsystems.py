import functools
import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems
from localelab.sublocales import Sublocale

import oracle
from conftest import antichain2_plus_top, boolean_square, chain, random_frames
from test_mutants import _lift_outcome


class TestIntrinsicSpectra:
    def test_zero_has_no_points(self, chain3):
        assert sy.covered_points_of(oracle.zero(chain3)) == frozenset()

    def test_chain_two_element_sublocale(self, chain3):
        s = Sublocale(chain3, {0, 2})
        assert sy.covered_points_of(s) == {0}
        assert sy.points_of(s) == {0}

    def test_intrinsic_equals_ambient_restriction(self, small_corpus):
        # for points always; for covered points only because frames here
        # are finite (the chain module witnesses the divergence)
        for f in (f for f in small_corpus if f.n <= 8):
            pts = frames.primes(f)
            cov = frames.covered_primes(f)
            for s in subl.enumerate_assembly(f):
                assert sy.points_of(s) == pts & s.members
                assert sy.covered_points_of(s) == cov & s.members

    def test_every_sublocale_is_d(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for m in subl.enumerate_assembly(f).masks:
                assert sy._is_d(f, m)


class TestMeetClosure:
    def test_empty_gives_zero(self, chain3):
        assert sy.meet_closure(chain3, ()) == oracle.zero(chain3)

    def test_single_point(self, chain3):
        assert sy.meet_closure(chain3, {0}).members == {0, 2}

    def test_points_of_closure_is_identity(self, fixture_frames):
        for f in fixture_frames.values():
            pts = sorted(frames.covered_primes(f))
            for sel in range(1 << len(pts)):
                y = frozenset(pts[i] for i in frames.bits_of(sel))
                assert sy.covered_points_of(sy.meet_closure(f, y)) == y


class TestFamilies:
    def test_three_chain_families(self, chain3):
        an = sy.FrameAnalysis(chain3)
        assert len(an.assembly) == 4
        assert len(an.smooth) == 4
        assert len(an.closed_joins) == 3
        assert {an.assembly[i].members for i in an.closed_joins} == {
            frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}
        assert an.d_family == frozenset(range(len(an.assembly)))
        assert an.spatial_family == frozenset(range(len(an.assembly)))

    def test_square_families(self, square):
        an = sy.FrameAnalysis(square)
        assert len(an.assembly) == len(an.smooth) == len(an.closed_joins) == 4

    def test_smooth_two_routes_agree(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            an = sy.FrameAnalysis(f)
            assert an.smooth == an.smooth_by_joins

    def test_families_are_closed_under_joins(self, fixture_frames, small_corpus):
        # the closed and the complemented sublocales, with zero, are their
        # own join closures: the brute-force closure adds nothing
        for f in [*fixture_frames.values(), *small_corpus]:
            an = sy.FrameAnalysis(f)
            closed = [f.up_masks[a] for a in range(f.n)]
            complemented = [s.mask for s in an.assembly if subl.is_complemented(s)]
            masks = an.assembly.masks
            assert ({masks[i] for i in an.closed_joins}
                    == oracle.join_closure_bruteforce(f, closed))
            assert ({masks[i] for i in an.smooth_by_joins}
                    == oracle.join_closure_bruteforce(f, complemented))

    def test_subfit_iff_closed_joins_is_smooth(self, small_corpus):
        for f in small_corpus:
            an = sy.FrameAnalysis(f)
            assert (an.closed_joins == an.smooth) == frames.is_subfit(f)


class TestSpatialization:
    # the td-spatialization of the sublocale with mask m, as a mask
    def test_fixes_whole_frame(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            whole = subl.whole(f).mask
            assert sy._td_spatialization(f, whole) == whole

    def test_fixes_zero(self, chain3):
        zero = oracle.zero(chain3).mask
        assert sy._td_spatialization(chain3, zero) == zero

    def test_preserves_joins(self, fixture_frames):
        for f in fixture_frames.values():
            assembly = subl.enumerate_assembly(f)
            for s, t in itertools.product(assembly, repeat=2):
                j = subl.sublocale_join(f, [s, t])
                sp_s, sp_t = (subl._from_mask(f, sy._td_spatialization(f, x.mask))
                              for x in (s, t))
                assert sy._td_spatialization(f, j.mask) == subl.sublocale_join(
                    f, [sp_s, sp_t]).mask

    def test_guard_on_non_d_sublocale(self, chain3, monkeypatch):
        # unreachable for finite frames, so force the predicate
        monkeypatch.setattr(sy, "_is_d", lambda frame, mask: False)
        with pytest.raises(sy.NotDSublocale):
            sy._td_spatialization(chain3, subl.whole(chain3).mask)


class TestAdjunction:
    def test_fixture_frames_pass(self, fixture_frames):
        for f in fixture_frames.values():
            assert sy.check_td_adjunction(subl.enumerate_assembly(f)).passed

    def test_empty_subset_consistent(self, chain3):
        z = sy.meet_closure(chain3, ())
        for s in subl.enumerate_assembly(chain3):
            assert z.members <= s.members


class TestAdjointPairs:
    def test_identity(self, chain3):
        pair = sy.AdjointPair(chain3, chain3, range(chain3.n), range(chain3.n))
        assert sy.is_d_homomorphism(pair)

    def test_surjection_onto_sublocale_is_d(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for s in subl.enumerate_assembly(f):
                pair, _, _ = sy.sublocale_surjection_pair(s)
                assert sy.is_d_homomorphism(pair)

    def test_invalid_hom_rejected(self, chain3, square):
        with pytest.raises(ValueError):
            sy.AdjointPair(chain3, chain3, [0, 0, 0])   # top not preserved

    def test_image_of_whole_is_the_sublocale(self, chain3):
        s = Sublocale(chain3, {0, 2})
        pair, sub_frame, _ = sy.sublocale_surjection_pair(s)
        assert sy.image(pair, subl.whole(sub_frame)) == s

    def test_preimage_of_top(self, chain3):
        s = Sublocale(chain3, {0, 2})
        pair, sub_frame, _ = sy.sublocale_surjection_pair(s)
        assert sy.preimage(pair, subl.whole(chain3)) == subl.whole(sub_frame)

    def test_image_preimage_adjunction(self, chain3):
        for s in subl.enumerate_assembly(chain3):
            pair, sub_frame, _ = sy.sublocale_surjection_pair(s)
            tgt_assembly = subl.enumerate_assembly(sub_frame)
            for sub in subl.enumerate_assembly(chain3):
                pre = sy.preimage(pair, sub)
                for t in tgt_assembly:
                    assert (sy.image(pair, t).members <= sub.members) == \
                        (t.members <= pre.members)


class TestLifting:
    def test_lift_onto_whole_is_identity(self, chain3):
        lift = sy.lift_surjection(subl.enumerate_assembly(chain3),
                                  subl.whole(chain3))
        assert lift.pair.hom == tuple(range(len(lift.source_subs)))

    def test_lift_onto_closed(self, chain3):
        s = subl.closed_sublocale(chain3, 1)
        lift = sy.lift_surjection(subl.enumerate_assembly(chain3), s)
        # the map cuts every part down to the sublocale
        for i, t in enumerate(lift.source_subs):
            cut = t.members & s.members
            translated = {lift.target_members.index(a) for a in cut}
            assert lift.target_subs[lift.pair.hom[i]].members == translated

    def test_not_liftable_guard(self, chain3, monkeypatch):
        monkeypatch.setattr(sy, "_is_d", lambda frame, mask: False)
        with pytest.raises(sy.NotLiftable):
            sy.lift_surjection(subl.enumerate_assembly(chain3),
                               subl.whole(chain3))

    def test_only_members_are_lifted(self, chain3):
        # the lifts are looked up by member: a sublocale of another frame
        # with a member's mask is refused
        with pytest.raises(sy.NotLiftable, match="is no member"):
            sy.lift_surjection(subl.enumerate_assembly(chain3), subl.whole(chain(3)))

    def test_all_sublocales_lift_on_fixtures(self, fixture_frames):
        for f in fixture_frames.values():
            assembly = subl.enumerate_assembly(f)
            for s in assembly:
                lift = sy.lift_surjection(assembly, s)
                assert set(lift.pair.hom) == set(range(lift.pair.target.n))

    def test_lifts_keep_no_target(self):
        # the lifts onto the 128 members of the 7-antichain's frame keep
        # their homs and drop their targets: with the source family's order
        # frame built first, the pass retains under 1 MB (4.6 MB when each
        # lift kept its target's frame, enumeration and members)
        f = frames.downset_lattice(np.eye(7, dtype=bool))
        assembly = subl.enumerate_assembly(f)
        subl.family_order_frame(f, [assembly.masks[i] for i in sy.d_sublocales(assembly)])
        tracemalloc.start()
        try:
            lifts = sy._lift_all(assembly)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lifts) == 128 and all(lift.surjective for lift in lifts)
        assert retained < 1 << 20
        # the target is rebuilt when read: the whole frame's and zero's
        assert [(lift.pair.target.n, len(lift.target_subs)) for lift in lifts[::127]] == [
            (128, 128), (1, 1)]


def _lift_inputs(frame):
    """The assembly of frame, with the source order frame and the per-lift
    inputs (hom, bits, order, gens, expect) that its lifting pass hands
    to _lift_laws, each a list over the lifts."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sy, "_lift_laws", lambda source, *laws: seen.append((source, laws)) or [])
        assembly = subl.enumerate_assembly(frame)
        sy._lift_all(assembly)
    return assembly, seen[0][0], [list(x) for x in seen[0][1]]


def _order_of_bits(bits):
    """The reverse-inclusion order frame of the prime bits of a target."""
    b = np.array(bits)
    return frames.FiniteFrame((b[:, None] & b) == b)


# the square's members have prime bits 3, 1, 2, 0 in assembly order, and
# its lift onto itself, the first, is the identity on them; each
# doctoring sends some of those bits elsewhere
SQUARE_DOCTORINGS = [
    ({0: 1}, "homomorphism does not preserve the bounds"),
    ({2: 0}, "meet of (1,2) not preserved"),
    ({2: 3}, "join of (1,2) not preserved"),
    ({1: 2, 2: 1}, "closed-generator square fails at 1"),
]


# the failures of lifts onto members with a doctored source D-family, by
# a fragment of their message
KINDS = ("has no meet", "has no join", "not distributive", "} meet {", "closed sublocale",
         "preserve the bounds")


class TestLiftFailureSites:
    """Each failure the lifting pass can report, reached by doctored homs
    and tables, and each raise of AdjointPair._validate, the judge's."""

    @pytest.mark.parametrize("hom, right, law", [
        ([0, 1, 2], [0, 1, 2, 3], "map tables have wrong lengths"),
        ([3, 3, 3, 3], None, "homomorphism does not preserve the bounds"),
        ([0, 1, 1, 3], None, "meet of (1,2) not preserved"),
        ([0, 1, 0, 3], None, "join of (1,2) not preserved"),
        ([0, 1, 2, 3], [0, 0, 0, 0], "adjunction law fails at (1,1)"),
    ])
    def test_adjoint_pair_raises_at_each_site(self, hom, right, law):
        f = boolean_square()
        assert (f.bottom, f.top) == (0, 3)
        sy.AdjointPair(f, f, [0, 1, 2, 3])
        with pytest.raises(ValueError) as caught:
            sy.AdjointPair(f, f, hom, right)
        assert str(caught.value) == law

    @pytest.mark.parametrize("image, law", SQUARE_DOCTORINGS,
                             ids=["bounds", "meet", "join", "square"])
    def test_doctored_hom_fails_as_adjoint_pair(self, image, law, monkeypatch):
        assembly, source, (hom, bits, order, gens, expect) = _lift_inputs(boolean_square())
        assert hom[0] == bits[0] == [3, 1, 2, 0]
        hom[0] = [image.get(b, b) for b in hom[0]]
        exc, onto = sy._lift_laws(source, hom, bits, order, gens, expect)[0]
        assert str(exc) == law and onto == (len(set(hom[0])) == 4)
        # the same hom, as positions, through the AdjointPair constructor;
        # it raises what the pass names, and takes an automorphism, which
        # only the closed-generator square refuses
        pair = functools.partial(sy.AdjointPair, source, _order_of_bits(bits[0]),
                                 [bits[0].index(b) for b in hom[0]])
        if law.startswith("closed-generator"):
            pair()
        else:
            with pytest.raises(ValueError, match=re.escape(law)):
                pair()
        # and through law_lifting, whose first lift is the doctored one
        real = sy._lift_laws

        def doctored(source, hom, *laws):
            return real(source, [[image.get(b, b) for b in hom[0]], *hom[1:]], *laws)
        monkeypatch.setattr(sy, "_lift_laws", doctored)
        result = theorems.law_lifting(sy.FrameAnalysis(assembly.frame))
        assert result.detail == f"no lift onto {assembly[0]!r}: {law}"

    def test_doctored_order_fails_the_adjunction_as_adjoint_pair(self, monkeypatch):
        # the source's order loses whole <= zero: meets and joins hold,
        # and the right adjoint, found by joins, breaks the adjunction
        assembly, source, laws = _lift_inputs(boolean_square())
        leq = source.leq.copy()
        leq[0, 3] = False
        doctored = SimpleNamespace(
            n=source.n, top=source.top, bottom=source.bottom, meet=source.meet,
            join=source.join, leq=leq, meet_rows=source.meet_rows,
            join_rows=source.join_rows, join_of=source.join_of,
            up_masks=tuple(frames.mask_of(np.flatnonzero(row)) for row in leq))
        exc, _ = sy._lift_laws(doctored, *laws)[0]
        assert str(exc) == "adjunction law fails at (0,3)"
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            sy.AdjointPair(doctored, _order_of_bits(laws[1][0]), [0, 1, 2, 3])
        real = sy._lift_laws
        monkeypatch.setattr(sy, "_lift_laws", lambda source, *laws: real(doctored, *laws))
        result = theorems.law_lifting(sy.FrameAnalysis(assembly.frame))
        assert result.detail == f"no lift onto {assembly[0]!r}: {exc}"

    def test_larger_target_is_not_reached(self, monkeypatch):
        # the square's lift onto itself sent into a six-member distributive
        # target of three prime bits, as the sublattice 0, 1, 6, 7: every
        # law and the square hold, and 4 and 5 are never reached
        image = {3: 7, 1: 1, 2: 6, 0: 0}
        assembly, source, (hom, bits, order, gens, expect) = _lift_inputs(boolean_square())
        hom[0] = [image[b] for b in hom[0]]
        bits[0], expect[0] = [7, 1, 6, 0, 4, 5], [image.get(b, b) for b in expect[0]]
        assert sy._lift_laws(source, hom, bits, order, gens, expect)[0] == (None, False)
        pair = sy.AdjointPair(source, _order_of_bits(bits[0]),
                              [bits[0].index(b) for b in hom[0]])
        assert set(pair.hom) != set(range(pair.target.n))
        real = sy._lift_laws

        def doctored(source, hom, bits, order, gens, expect):
            return real(source, [[image[b] for b in hom[0]], *hom[1:]],
                        [[7, 1, 6, 0, 4, 5], *bits[1:]], order, gens,
                        [[image.get(b, b) for b in expect[0]], *expect[1:]])
        monkeypatch.setattr(sy, "_lift_laws", doctored)
        result = theorems.law_lifting(sy.FrameAnalysis(assembly.frame))
        assert result.detail == f"lift onto {assembly[0]!r} is not surjective"

    def test_missing_generator_is_named(self):
        assembly, source, (hom, bits, order, gens, expect) = _lift_inputs(boolean_square())
        gens[0] = [-2] * len(gens[0])
        exc, _ = sy._lift_laws(source, hom, bits, order, gens, expect)[0]
        assert str(exc) == f"closed sublocale c({next(iter(order[0]))}) is not a D-sublocale"

    def test_pass_matches_its_oracle_on_doctored_families(self):
        # the source D-family without one or two members: every member's
        # lift fails or holds as its oracle's, and between them the frames
        # reach both FrameErrors of the source family, "meet ... is not a
        # D-sublocale", a missing closed generator, the bounds, a lift that
        # is not onto and lifts that hold
        seen = set()
        for frame in (boolean_square(), chain(3), chain(4), antichain2_plus_top(),
                      random_frames(1, 4, 3)[2]):
            for x in range(len(subl.enumerate_assembly(frame))):
                for drop in ({x}, {x, x + 1}):
                    assembly = subl.enumerate_assembly(frame)
                    assembly.d_family = frozenset(j for j in range(len(assembly))
                                                  if j not in drop)
                    for i in range(len(assembly)):
                        got = _lift_outcome(sy._lift, assembly, i)
                        assert got == _lift_outcome(oracle.lifts_by_adjoint_pairs,
                                                    assembly, i)
                        seen.add(next(kind for kind in KINDS if kind in got[1])
                                 if len(got) == 2 else got[2])
        assert seen == set(KINDS) | {False, True}

    def test_doctored_target_family_misses_the_image(self, monkeypatch):
        # a target D-family without its zero, which no finite frame has
        # (every prime of a finite distributive lattice is covered): the
        # pass names the image that is not a target
        # (the whole frame's own frame is the frame itself, so a target is
        # told from the source by its assembly)
        real, assembly = sy.d_sublocales, subl.enumerate_assembly(chain(3))
        monkeypatch.setattr(sy, "d_sublocales", lambda tgt: real(tgt) if
                            tgt is assembly else real(tgt) - {len(tgt) - 1})
        with pytest.raises(sy.NotLiftable, match="is not a D-sublocale of the target"):
            sy.lift_surjection(assembly, assembly[0])

    def test_oracle_on_an_emptied_one_member_target_family(self, monkeypatch):
        # the zero sublocale's frame has one element, so its target has one
        # member; with that target's D-family doctored empty, the lift
        # oracle fails on the empty family's order frame (no IndexError)
        # and the pass names the image that is not a target
        real = sy.d_sublocales
        monkeypatch.setattr(sy, "d_sublocales", lambda assembly: frozenset()
                            if len(assembly) == 1 else real(assembly))
        assembly = subl.enumerate_assembly(chain(3))
        zero = oracle.zero(assembly.frame)
        assert _lift_outcome(oracle.lifts_by_adjoint_pairs, assembly,
                             assembly.index_of(zero.mask)) == (
            frames.NonLattice, "not a lattice: pair () has no top")
        with pytest.raises(sy.NotLiftable, match="is not a D-sublocale of the target"):
            sy.lift_surjection(assembly, zero)


class TestEssentialPrimes:
    def test_prime_essential_for_itself(self, small_corpus):
        for f in small_corpus:
            for p in frames.primes(f):
                assert p in sy.essential_primes(f, p)

    def test_boolean_points_lemma(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for a in range(f.n):
                assert sy.essential_primes(f, a) == \
                    sy.points_of(subl.boolean_sublocale(f, a))

    def test_covered_essential_is_absolute(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            cov = frames.covered_primes(f)
            for a in range(f.n):
                assert sy.essential_primes(f, a) & cov <= \
                    sy.absolutely_essential_primes(f, a)

    def test_absolute_is_in_every_decomposition(self, square):
        pts = sorted(frames.primes(square))
        for a in range(square.n):
            abse = sy.absolutely_essential_primes(square, a)
            for p in sy.primes_above(square, a):
                in_every = all(
                    p in sel
                    for sel in (frozenset(pts[i] for i in frames.bits_of(b))
                                for b in range(1 << len(pts)))
                    if square.meet_of(sel) == a)
                assert (p in abse) == in_every

    def test_weakly_covered_reading(self, small_corpus):
        # the inferred reading: p differs from the meet of primes above it
        for f in (f for f in small_corpus if f.n <= 8):
            for p in frames.primes(f):
                stricter = [q for q in frames.primes(f)
                            if f.leq[p, q] and q != p]
                assert sy.weakly_covered(f, p) == (f.meet_of(stricter) != p)

    def test_precondition_guard(self, chain3, monkeypatch):
        # finite frames always satisfy the precondition; force a failure
        monkeypatch.setattr(sy, "primes_above",
                            lambda f, a: frozenset())
        with pytest.raises(sy.PreconditionFailed):
            sy.essential_primes(chain3, 0)


class TestOnePointComplementedLemma:
    def test_complemented_iff_covered(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            cov = frames.covered_primes(f)
            for p in frames.primes(f):
                one_point = Sublocale(f, {f.top, p})
                assert subl.is_complemented(one_point) == (p in cov)


class TestPairTables:
    def test_entries_match_the_public_operations(self, small_corpus):
        # each entry against the operation itself, on a copy of the frame
        # with nothing memoised
        for f in small_corpus:
            an = sy.FrameAnalysis(f)
            fresh = frames.FiniteFrame(f.leq, f.labels)
            subs = [Sublocale(fresh, s.members) for s in an.assembly]
            for i, s in enumerate(subs):
                for j, t in enumerate(subs):
                    assert an.assembly[an.joins[i][j]].mask == \
                        subl.sublocale_join(fresh, [s, t]).mask
                    assert an.assembly[an.meets[i][j]].mask == \
                        subl.sublocale_meet(fresh, [s, t]).mask
                    assert an.assembly[an.differences[i][j]].mask == \
                        subl.difference(s, t).mask

    def test_d_indices_follow_the_assembly(self, square):
        # the D-family in assembly order, whose masks come in member order
        an = sy.FrameAnalysis(square)
        masks = an.assembly.masks
        assert an.d_indices == tuple(sorted(an.d_family))
        assert [masks[i] for i in an.d_indices] == sorted(
            (masks[i] for i in an.d_family), key=lambda m: sorted(frames.bits_of(m)))
