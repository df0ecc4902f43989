import itertools

import pytest

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab.sublocales import Sublocale


class TestIntrinsicSpectra:
    def test_zero_has_no_points(self, chain3):
        assert sy.covered_points_of(subl.zero(chain3)) == frozenset()

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
            for s in subl.enumerate_assembly(f):
                assert sy.is_d_sublocale(s)


class TestMeetClosure:
    def test_empty_gives_zero(self, chain3):
        assert sy.meet_closure(chain3, ()) == subl.zero(chain3)

    def test_single_point(self, chain3):
        assert sy.meet_closure(chain3, {0}).members == {0, 2}

    def test_points_of_closure_is_identity(self, fixture_frames):
        for f in fixture_frames.values():
            pts = sorted(frames.covered_primes(f))
            for sel in range(1 << len(pts)):
                y = frozenset(pts[i] for i in frames.bits_of(sel))
                assert sy.covered_points_of(sy.meet_closure(f, y)) == y

    def test_prime_subset_validation(self, chain3):
        with pytest.raises(ValueError):
            sy.PrimeSubset(chain3, {2})       # the top is not a prime
        ok = sy.PrimeSubset(chain3, {0, 1})
        assert len(ok) == 2


class TestFamilies:
    def test_three_chain_families(self, chain3):
        an = sy.FrameAnalysis(chain3)
        assert len(an.assembly) == 4
        assert len(an.smooth) == 4
        assert len(an.closed_joins) == 3
        assert {s.members for s in an.closed_joins} == {
            frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}
        assert an.d_family == frozenset(an.assembly)
        assert an.spatial_family == frozenset(an.assembly)

    def test_square_families(self, square):
        an = sy.FrameAnalysis(square)
        assert len(an.assembly) == len(an.smooth) == len(an.closed_joins) == 4

    def test_smooth_two_routes_agree(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            an = sy.FrameAnalysis(f)
            assert an.smooth == an.smooth_by_joins

    def test_subfit_iff_closed_joins_is_smooth(self, small_corpus):
        for f in small_corpus:
            an = sy.FrameAnalysis(f)
            assert (an.closed_joins == an.smooth) == frames.is_subfit(f)


class TestSpatialization:
    def test_fixes_whole_frame(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            assert sy.td_spatialization(subl.whole(f)) == subl.whole(f)

    def test_fixes_zero(self, chain3):
        assert sy.td_spatialization(subl.zero(chain3)) == subl.zero(chain3)

    def test_preserves_joins(self, fixture_frames):
        for f in fixture_frames.values():
            assembly = subl.enumerate_assembly(f)
            for s, t in itertools.product(assembly, repeat=2):
                j = subl.sublocale_join(f, [s, t])
                assert sy.td_spatialization(j) == subl.sublocale_join(
                    f, [sy.td_spatialization(s), sy.td_spatialization(t)])

    def test_guard_on_non_d_sublocale(self, chain3, monkeypatch):
        # unreachable for finite frames, so force the predicate
        monkeypatch.setattr(sy, "is_d_sublocale", lambda s: False)
        with pytest.raises(sy.NotDSublocale):
            sy.td_spatialization(subl.whole(chain3))


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
        monkeypatch.setattr(sy, "is_d_sublocale", lambda s: False)
        with pytest.raises(sy.NotLiftable):
            sy.lift_surjection(subl.enumerate_assembly(chain3),
                               subl.whole(chain3))

    def test_all_sublocales_lift_on_fixtures(self, fixture_frames):
        for f in fixture_frames.values():
            assembly = subl.enumerate_assembly(f)
            for s in assembly:
                lift = sy.lift_surjection(assembly, s)
                assert set(lift.pair.hom) == set(range(lift.pair.target.n))


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
        an = sy.FrameAnalysis(square)
        assert [an.assembly[i] for i in an.d_indices] == \
            sorted(an.d_family, key=Sublocale.sort_key)
