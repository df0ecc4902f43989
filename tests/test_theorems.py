import gc
import hashlib
import random
import types
import weakref
from collections import Counter

import pytest

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems

import mutants
from conftest import chain, random_frames


class TestSuitesOnFixtures:
    def test_all_pass(self, fixture_frames):
        for name, f in fixture_frames.items():
            verdict = theorems.verify_frame_theorems(f, name=name)
            assert verdict.passed, (name, verdict.failures())

    def test_degenerate_suites_all_true(self, fixture_frames):
        expect_all = {"covered_primes_characterization",
                      "total_td_spatiality_characterization",
                      "assembly_powerset_characterization"}
        for f in fixture_frames.values():
            an = sy.FrameAnalysis(f)
            for suite in theorems.run_theorem_suites(an):
                if suite.name in expect_all:
                    assert suite.expect_all_true
                    assert all(v for _, v in suite.conditions), suite.describe()

    def test_small_corpus_passes(self, small_corpus):
        for f in small_corpus:
            verdict = theorems.verify_frame_theorems(f)
            assert verdict.passed, verdict.failures()

    def test_random_frames_pass(self):
        for f in random_frames(99, 4, 25):
            verdict = theorems.verify_frame_theorems(f)
            assert verdict.passed, verdict.failures()


class TestBooleanLattice:
    def test_square_is_boolean(self, square):
        assert theorems.is_boolean_lattice(square)

    def test_three_chain_is_not(self, chain3):
        assert not theorems.is_boolean_lattice(chain3)


class TestInconsistencyDetection:
    def test_covered_mutant_splits_covered_primes_suite(self, chain3,
                                                        monkeypatch):
        mutants.underreport_covered_primes(monkeypatch)
        an = sy.FrameAnalysis(chain3)
        suite = theorems.covered_primes_suite(an)
        values = {v for _, v in suite.conditions}
        assert values == {True, False}     # the conditions diverge
        assert not suite.passed

    def test_join_mutant_breaks_a_law(self, square, monkeypatch):
        mutants.join_without_meet_closure(monkeypatch)
        verdict = theorems.verify_frame_theorems(square)
        assert not verdict.passed

    def test_difference_mutant_breaks_a_law(self, square, monkeypatch):
        mutants.difference_without_decomposition(monkeypatch)
        verdict = theorems.verify_frame_theorems(square)
        assert not verdict.passed

    def test_meet_closure_checked_against_join_of_points(self, square,
                                                         monkeypatch):
        # a join that answers zero when every part is a one-point
        # sublocale {1, p}; the pair tables are built before the doctoring
        an = sy.FrameAnalysis(square)
        assert theorems.law_td_adjunction(an).ok
        real = subl.sublocale_join

        def doctored(frame, parts):
            parts = list(parts)
            if parts and all(len(s.members) == 2 for s in parts):
                return subl.zero(frame)
            return real(frame, parts)
        monkeypatch.setattr(subl, "sublocale_join", doctored)
        result = theorems.law_td_adjunction(an)
        assert not result.ok
        assert "join of points" in result.detail

    def test_essential_primes_battery_sees_a_dropped_prime(self, chain3,
                                                           monkeypatch):
        real = sy.absolutely_essential_primes

        def doctored(frame, a):
            got = real(frame, a)
            return got - {max(got)} if got else got
        monkeypatch.setattr(sy, "absolutely_essential_primes", doctored)
        result = theorems.law_essential_primes(sy.FrameAnalysis(chain3))
        assert not result.ok
        assert "absolute essentiality mismatch" in result.detail

    @pytest.mark.parametrize("table, ok", [((0, 0, 2, 3, 4), True),
                                           ((0, 2, 2, 3, 4), False)])
    def test_interior_operator_battery_sees_a_wrong_image_meet(self, table, ok,
                                                               monkeypatch):
        # 0 < 1 < 2, 3 < 4; the image {0, 2, 3, 4} is join-closed and fixed
        # either way, but the doctored table sends 1 = 2 meet 3 to 2, not
        # to 0, the greatest member of the image below 1
        f = frames.frame_from_covers(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        monkeypatch.setattr(theorems, "_interior_operators", lambda frame: [table])
        result = theorems.law_interior_operators(sy.FrameAnalysis(f))
        assert result.ok == ok
        if not ok:
            assert result.detail == "image meet is not the corrected meet"

    def test_difference_mutant_named_in_law_report(self, square, monkeypatch):
        # the naive difference escapes the assembly; the law battery says so
        mutants.difference_without_decomposition(monkeypatch)
        an = sy.FrameAnalysis(square)
        result = theorems.law_difference(an)
        assert not result.ok
        assert "not a sublocale" in result.detail or "fails" in result.detail


class TestUnprovenStepChecks:
    def test_d_in_smooth_implies_spatialization_totally_spatial(
            self, small_corpus):
        # one-directional consequence; the converse is not claimed
        for f in (f for f in small_corpus if f.n <= 8):
            an = sy.FrameAnalysis(f)
            if an.d_family <= an.smooth:
                sp = sy.spatialization(subl.whole(f))
                sp_frame, members = sy.sublocale_frame(sp)
                sp_an = sy.FrameAnalysis(sp_frame)
                assert frozenset(sp_an.assembly) == sp_an.spatial_family

    def test_smooth_below_spatialization_restricts(self, small_corpus):
        # empirical check of the unproven step: smooth sublocales inside
        # the spatialization stay smooth in it
        for f in (f for f in small_corpus if f.n <= 8):
            an = sy.FrameAnalysis(f)
            sp = sy.spatialization(subl.whole(f))
            sp_frame, members = sy.sublocale_frame(sp)
            pos = {a: i for i, a in enumerate(members)}
            inner = sy.FrameAnalysis(sp_frame)
            inner_smooth = {frozenset(members[i] for i in s.members)
                            for s in inner.smooth}
            for b in an.smooth:
                if b.members <= sp.members:
                    assert b.members in inner_smooth


class TestLawBatteryDetails:
    def test_interior_operator_battery(self, square):
        an = sy.FrameAnalysis(square)
        assert theorems.law_interior_operators(an).ok

    def test_lifting_battery_skips_large(self, monkeypatch):
        f = chain(3)
        an = sy.FrameAnalysis(f)
        monkeypatch.setattr(theorems, "TRIPLE_SCAN_LIMIT", 0)
        result = theorems.law_lifting(an)
        assert result.ok and "skipped" in result.detail

    @pytest.mark.parametrize("battery", [theorems.law_difference])
    def test_dropped_triple_scan_is_reported(self, battery, monkeypatch):
        an = sy.FrameAnalysis(chain(3))
        full = battery(an)
        monkeypatch.setattr(theorems, "TRIPLE_SCAN_LIMIT", 0)
        cut = battery(an)
        assert full.ok and full.detail == ""
        assert cut.ok and cut.detail.startswith("skipped: ")
        assert cut.checked < full.checked

    @pytest.mark.parametrize("doctor, detail", [
        (lambda frame, closed: closed & ~(1 << frame.top),
         "join of {0,1,2}, {0,2} is not a D-sublocale"),
        (lambda frame, closed: (1 << frame.n) - 1,
         "covered points of the join of {0,2}, {2} differ from their union"),
    ], ids=["join_not_in_family", "covered_points_differ"])
    def test_pair_join_scan_names_the_pair(self, doctor, detail, monkeypatch):
        # the battery closes pair joins through its own functools.cache,
        # here a stand-in that doctors every closure it answers
        an = sy.FrameAnalysis(chain(3))
        frame = an.frame
        monkeypatch.setattr(theorems, "functools", types.SimpleNamespace(
            cache=lambda close: lambda mask: doctor(frame, close(mask))))
        result = theorems.law_td_adjunction(an)
        assert not result.ok and result.detail == detail

    def test_battery_names_in_order(self, chain3):
        assert [fn.__name__ for fn in theorems.LAW_BATTERIES] == [
            "law_difference", "law_open_closed", "law_zero_dimensional",
            "law_nucleus_roundtrip", "law_covered_degeneracy", "law_spectra",
            "law_td_adjunction", "law_d_family_closure", "law_assembly_order",
            "law_interior_operators", "law_lifting", "law_essential_primes"]
        results = theorems.run_law_batteries(sy.FrameAnalysis(chain3))
        assert [r.name for r in results] == [
            "difference_laws", "open_closed_identities", "zero_dimensionality",
            "nucleus_roundtrip", "covered_degeneracy", "spectra",
            "td_adjunction", "d_family_closure", "assembly_order",
            "interior_operators", "lifting", "essential_primes"]

    def test_d_family_closure_repeats_across_copies(self, monkeypatch):
        # the failing pair and count must not depend on hash order
        rel = frames.transitive_reflexive_closure(4, [(0, 1)])
        mutants.difference_without_decomposition(monkeypatch)
        first, second = (
            theorems.law_d_family_closure(sy.FrameAnalysis(frames.downset_lattice(rel)))
            for _ in range(2))
        assert not first.ok
        assert first == second

    def test_frame_is_freed_after_verification(self):
        f = chain(4)
        ref = weakref.ref(f)
        assert theorems.verify_frame_theorems(f).passed
        del f
        gc.collect()
        assert ref() is None

    def test_verdict_reports_engine_errors(self, chain3, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("engine exploded")
        monkeypatch.setattr(theorems, "run_law_batteries", boom)
        verdict = theorems.verify_frame_theorems(chain3)
        assert not verdict.passed
        assert "engine exploded" in verdict.failures()[0]

    def test_cap_exceeded_is_not_an_engine_error(self, square):
        with pytest.raises(subl.CapExceeded):
            theorems.verify_frame_theorems(square, cap=2)

    def test_pair_operations_computed_once_per_frame(self, monkeypatch):
        # the frame of verify --seed 1005201 --bound 6 --count 1: 64 sublocales
        frame = frames.random_frame(random.Random(1005201), 6)
        calls = Counter()
        for name in ("sublocale_join", "sublocale_meet", "difference"):
            def counted(*args, _real=getattr(subl, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(subl, name, counted)
        # the pair tables are built from masks, through no public operation
        an = sy.FrameAnalysis(frame)
        assert len(an.joins) == len(an.meets) == len(an.differences) == 64
        assert calls == {}
        assert theorems.verify_frame_theorems(frame).passed
        # per pair in every battery, this frame made 17,296 joins, 9,040
        # meets and 8,448 differences
        assert sum(calls.values()) < 34784 // 2


class TestResultDigest:
    # the frames of verify --seed 1 --bound 4 --count 40, --seed 1005201
    # --bound 6 --count 1 and --seed 3 --bound 5 --count 8
    CORPUS = ((1, 4, 40), (1005201, 6, 1), (3, 5, 8))
    DIGEST = "6ac37ad54de762f1050a038bb76248e5b25023e70a2be7cb1797f45bd41464f3"

    def test_every_result_is_unchanged(self):
        # the transcripts print neither checked counts nor passing details;
        # this pins the repr of every suite and battery result, 588 of them
        # battery results
        lines = []
        for seed, bound, count in self.CORPUS:
            for f in random_frames(seed, bound, count):
                an = sy.FrameAnalysis(f)
                results = theorems.run_theorem_suites(an) + theorems.run_law_batteries(an)
                lines.extend(repr(r) for r in results)
        assert len(lines) == 49 * (len(theorems.THEOREM_SUITES)
                                   + len(theorems.LAW_BATTERIES))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST

    def test_every_member_is_validated(self):
        # the pair tables validate nothing; the checks that build members
        # as Sublocale objects (the spatial family's meet closures,
        # law_nucleus_roundtrip) must still have validated every one
        for seed, bound, count in self.CORPUS:
            for f in random_frames(seed, bound, count):
                assert theorems.verify_frame_theorems(f).passed
                assert set(subl.enumerate_assembly(f).masks) <= f._memo.valid
