import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems

import mutants
import oracle
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

    def test_matches_the_loops(self, small_corpus):
        # the frames and the reverse-inclusion orders of their assemblies,
        # Boolean on a finite frame, against the loop that scans the rows
        orders = [subl.family_order_frame(subl.enumerate_assembly(f))[0]
                  for f in small_corpus]
        results = [theorems.is_boolean_lattice(f) for f in small_corpus + orders]
        assert results == [oracle.is_boolean_by_loops(f) for f in small_corpus + orders]
        assert set(results) == {True, False}


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
                sp = sy.meet_closure(f, sy.points_of(subl.whole(f)))
                sp_frame, members = sy.sublocale_frame(sp)
                sp_an = sy.FrameAnalysis(sp_frame)
                assert frozenset(sp_an.assembly) == sp_an.spatial_family

    def test_smooth_below_spatialization_restricts(self, small_corpus):
        # empirical check of the unproven step: smooth sublocales inside
        # the spatialization stay smooth in it
        for f in (f for f in small_corpus if f.n <= 8):
            an = sy.FrameAnalysis(f)
            sp = sy.meet_closure(f, sy.points_of(subl.whole(f)))
            sp_frame, members = sy.sublocale_frame(sp)
            pos = {a: i for i, a in enumerate(members)}
            inner = sy.FrameAnalysis(sp_frame)
            inner_smooth = {frozenset(members[i] for i in s.members)
                            for s in inner.smooth}
            for b in an.smooth:
                if b.members <= sp.members:
                    assert b.members in inner_smooth


def _with_doctored_member(frame, position, mask):
    """A FrameAnalysis of frame whose assembly holds mask in place of
    the member at by_primes[position]."""
    an = sy.FrameAnalysis(frame)
    by_primes = list(subl.enumerate_assembly(frame).by_primes)
    by_primes[position] = mask
    an.assembly = subl.Assembly(frame, by_primes)
    return an


@pytest.mark.parametrize("draw, mask", [(2, 0b10000001), (13, 0b1001)],
                         ids=["eight_elements", "square"])
def test_batteries_fail_on_a_doctored_member(draw, mask):
    # a mask that is meet-closed but not closed under implication, put
    # in place of each member in turn: every suite and battery returns a
    # result, none raises, and the nucleus, assembly-order and lifting
    # batteries fail with a detail
    rng = random.Random(3)
    frame = [frames.random_frame(rng, 3) for _ in range(draw + 1)][draw]
    assert frame.meet_close_mask(mask) == mask
    with pytest.raises(subl.NotASublocale, match="not closed under implication"):
        subl.Sublocale(frame, frames.bits_of(mask))
    details = {}
    for position in range(1 << len(frames.primes(frame))):
        an = _with_doctored_member(frame, position, mask)
        for suite in theorems.THEOREM_SUITES:
            assert isinstance(suite(an), theorems.SuiteResult), (position, suite.__name__)
        for battery in theorems.LAW_BATTERIES:
            result = battery(an)
            assert result.ok or result.detail, (position, battery.__name__)
            if not result.ok:
                details[position, battery.__name__] = result.detail
    positions = range(1 << len(frames.primes(frame)))
    doctored = subl.Sublocale(frame, frames.bits_of(mask), _validate=False)
    assert all(details[p, "law_nucleus_roundtrip"]
               == f"nucleus of {doctored!r} does not preserve 1 meet 2" for p in positions)
    assert all((p, "law_assembly_order") in details for p in positions)
    if frame.n == 4:
        # the doctored member replaces c(1) at position 1 and c(2) at 2
        assert details[1, "law_lifting"].endswith("closed sublocale c(1) is not a D-sublocale")
        assert details[2, "law_lifting"].endswith("closed sublocale c(2) is not a D-sublocale")
    else:
        assert {details[p, "law_assembly_order"] for p in positions} == {
            "the order of the assembly is not a frame"}


def _reversed(frame):
    """The frame with its elements numbered backwards, top first."""
    return frames.FiniteFrame(frame.leq[::-1, ::-1])


@pytest.mark.parametrize("make, i, x, law", [
    (lambda: random_frames(1, 4, 1)[0], 0, 1, "join not preserved at "),
    (lambda: random_frames(1, 4, 3)[2], 3, 7, "image meet law fails at "),
    (lambda: _reversed(random_frames(1, 4, 1)[0]), 2, 0, "td-spatialization not monotone"),
], ids=["join_not_preserved", "image_meet_law_fails", "not_monotone"])
def test_td_pair_scan_fails_as_its_loop(make, i, x, law, monkeypatch):
    # the td-spatialization of member i doctored to x, a smaller member
    # that it fixes, so its inflation and idempotence checks still pass;
    # the pair scan must fail, and name the same pair with the same count
    # as its loop in tests/oracle.py.  Members are ordered by their sorted
    # elements, so with the top numbered last a member comes after every
    # larger one: where the doctored map is not monotone on a pair, the
    # join check fails first on the reversed pair.  Numbering the top
    # first lets a member precede a larger one.
    an = sy.FrameAnalysis(make())
    assert theorems.law_td_adjunction(an).ok
    sp, masks = an.td_spatializations, an.assembly.masks
    assert i in sp and sp[x] == x and x != sp[i] and masks[x] & ~masks[sp[i]] == 0
    an.td_spatializations = {**sp, i: x}
    arrays = theorems.law_td_adjunction(an)
    monkeypatch.setattr(theorems, "_td_pairs", oracle.td_pairs_by_loops)
    assert arrays == theorems.law_td_adjunction(an)
    assert not arrays.ok and arrays.detail.startswith(law)


class TestLawBatteryDetails:
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
        # the battery closes pair joins through the frame's batch kernel,
        # not the frame memo: with the tables built, a stand-in kernel
        # doctors every closure it answers
        an = sy.FrameAnalysis(chain(3))
        assert theorems.law_td_adjunction(an).ok
        frame, close_all = an.frame, an.frame.meet_close_masks
        monkeypatch.setattr(frame, "meet_close_masks",
                            lambda masks: [doctor(frame, m) for m in close_all(masks)],
                            raising=False)
        result = theorems.law_td_adjunction(an)
        assert not result.ok and result.detail == detail

    def test_battery_names_in_order(self, chain3):
        assert [fn.__name__ for fn in theorems.LAW_BATTERIES] == [
            "law_difference", "law_open_closed", "law_zero_dimensional",
            "law_nucleus_roundtrip", "law_covered_degeneracy", "law_spectra",
            "law_td_adjunction", "law_d_family_closure", "law_assembly_order",
            "law_lifting", "law_essential_primes"]
        results = theorems.run_law_batteries(sy.FrameAnalysis(chain3))
        assert [r.name for r in results] == [
            "difference_laws", "open_closed_identities", "zero_dimensionality",
            "nucleus_roundtrip", "covered_degeneracy", "spectra",
            "td_adjunction", "d_family_closure", "assembly_order",
            "lifting", "essential_primes"]

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
    DIGEST = "79302adc7e7ad1ed3a23f9c254d1ab40d1e6d4e15699ba5fcf2ae9c6713a3b1a"

    def test_every_result_is_unchanged(self):
        # the transcripts print neither checked counts nor passing details;
        # this pins the repr of every suite and battery result, 1,029 in
        # all, 539 of them battery results
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
