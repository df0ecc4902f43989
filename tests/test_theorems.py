from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems

import mutants
from conftest import chain


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
        for f in frames.random_frames(99, 4, 25):
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
        # a meet closure that drops the bottom on classical prime subsets
        real = sy.meet_closure

        def doctored(frame, points):
            got = real(frame, points)
            if isinstance(points, sy.PrimeSubset) and points.classical:
                return subl._from_mask(frame, got.mask & ~(1 << frame.bottom))
            return got
        monkeypatch.setattr(sy, "meet_closure", doctored)
        result = theorems.law_td_adjunction(sy.FrameAnalysis(square))
        assert not result.ok
        assert "join of points" in result.detail

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

    def test_verdict_reports_engine_errors(self, chain3, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("engine exploded")
        monkeypatch.setattr(theorems, "run_law_batteries", boom)
        verdict = theorems.verify_frame_theorems(chain3)
        assert not verdict.passed
        assert "engine exploded" in verdict.failures()[0]
