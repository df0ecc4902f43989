"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  Stated runtime budgets are asserted.
"""

import io
import time

import pytest

from localelab import cli, frames, classify, theorems
from localelab import omegachain as oc
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab.sublocales import Sublocale

import mutants
import oracle
from conftest import all_posets, boolean_square, chain, random_frames
from test_omegachain import description_corpus


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="module")
def poset_corpus():
    out = []
    for k in range(5):
        for rel in all_posets(k):
            out.append(frames.downset_lattice(rel))
    return out


@pytest.fixture(scope="module")
def named_fixtures():
    from localelab import spaces
    return [
        chain(2),
        chain(3, labels=["0", "a", "1"]),
        boolean_square(),
        spaces.omega(spaces.sierpinski()).frame,
        frames.downset_lattice(
            frames.transitive_reflexive_closure(3, [(0, 2), (1, 2)])),
    ]


def test_criterion_1_oracle_equivalence(poset_corpus):
    start = time.monotonic()
    for f in poset_corpus:
        fast = sorted(s.mask for s in subl.enumerate_assembly(f))
        slow = oracle.assembly_bruteforce(f)
        assert fast == slow, f"assembly mismatch on frame of size {f.n}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _report(1, "assembly enumeration matches the 2^n subset filter")


def test_criterion_2_table_verdicts(named_fixtures):
    start = time.monotonic()
    tested = list(named_fixtures) + random_frames(2026, 5, 200)
    for f in tested:
        an = sy.FrameAnalysis(f)
        result = classify.classify_frame(f)
        assert result.cap_exceeded is None
        assert result.all_agree, [
            (r.key, r.relation_holds, r.property_holds)
            for r in result.rows if not r.agree]
        assert (an.closed_joins == an.smooth) == frames.is_subfit(f)
        assert an.smooth <= an.spatial_family
    # the mandatory negative witness
    three = chain(3)
    an3 = sy.FrameAnalysis(three)
    assert len(an3.closed_joins) == 3
    assert len(an3.smooth) == 4
    assert not frames.is_subfit(three)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"table verdicts took {elapsed:.1f}s"
    _report(2, "property table agrees on 200 random frames and fixtures")


def test_criterion_3_theorem_suites(named_fixtures):
    degenerate = {"covered_primes_characterization",
                  "total_td_spatiality_characterization",
                  "assembly_powerset_characterization"}
    tested = list(named_fixtures) + random_frames(1, 4, 200)
    seen_degenerate = set()
    for f in tested:
        an = sy.FrameAnalysis(f)
        for suite in theorems.run_theorem_suites(an):
            assert suite.consistent, suite.describe()
            if suite.name in degenerate:
                assert all(v for _, v in suite.conditions), suite.describe()
                seen_degenerate.add(suite.name)
    assert seen_degenerate == degenerate
    _report(3, "equivalence theorems consistent on every generated frame")


def test_criterion_4_difference_laws(poset_corpus, named_fixtures):
    extra = [f for f in random_frames(11, 5, 30)]
    count = 0
    for f in poset_corpus + named_fixtures + extra:
        an = sy.FrameAnalysis(f)
        if len(an.assembly) > 32:
            continue
        count += 1
        result = theorems.law_difference(an)
        assert result.ok, result.detail
    assert count >= 30
    _report(4, "difference laws exhaustive on assemblies up to 32")


def test_criterion_5_lemma_batteries(poset_corpus, named_fixtures):
    small = [f for f in poset_corpus + named_fixtures if f.n <= 8]
    assert small
    for f in small:
        cov = frames.covered_primes(f)
        for x in range(f.n):
            for y in range(f.n):
                assert subl.boolean_sublocale(f, frames.heyting(f, x, y)) == \
                    subl.sublocale_meet(f, [subl.open_sublocale(f, x),
                                            subl.boolean_sublocale(f, y)])
        for a in range(f.n):
            assert sy.essential_primes(f, a) == \
                sy.points_of(subl.boolean_sublocale(f, a))
        for p in frames.primes(f):
            one_point = Sublocale(f, {f.top, p})
            assert subl.is_complemented(one_point) == (p in cov)
    for f in (g for g in poset_corpus + named_fixtures
              if 1 << len(frames.primes(g)) <= 64):
        assembly = subl.enumerate_assembly(f)
        order, _ = subl.family_order_frame(assembly)
        expected = frozenset(assembly.index_of(Sublocale(f, {f.top, p}))
                             for p in frames.covered_primes(f))
        assert frames.covered_primes(order) == expected
    _report(5, "boolean/essential/one-point lemmas exhaustive at size 8")


def test_criterion_6_adjunction_battery(named_fixtures):
    for f in named_fixtures:
        report = sy.check_td_adjunction(subl.enumerate_assembly(f))
        assert report.passed, report.failures[:3]
        an = sy.FrameAnalysis(f)
        result = theorems.law_td_adjunction(an)
        assert result.ok, result.detail
        # covered points of a meet closure give the subset back
        pts = sorted(frames.covered_primes(f))
        for sel in range(1 << len(pts)):
            y = frozenset(pts[i] for i in frames.bits_of(sel))
            assert sy.covered_points_of(sy.meet_closure(f, y)) == y
    _report(6, "meet-closure adjunction and td-spatialization laws hold")


def test_criterion_7_remark_reproduction():
    start = time.monotonic()
    out = io.StringIO()
    code = cli.main(["remark"], out=out)
    text = out.getvalue()
    elapsed = time.monotonic() - start
    assert code == cli.EXIT_OK
    assert "is_D(S) = true" in text
    assert "is_D(T) = true" in text
    assert "S intersect T = bottom: yes" in text
    assert "covered primes of S intersect T: {bottom}" in text
    assert "bottom in covered primes of the chain: false" in text
    assert "verdict: S intersect T is not a D-sublocale" in text
    for n in (16, 32, 64):
        assert f"truncation N={n}: agree" in text
    assert elapsed < 1.0, f"remark took {elapsed:.2f}s"
    _report(7, "chain counterexample transcript with truncation checks")


def test_criterion_8_lifting(poset_corpus, named_fixtures):
    for f in poset_corpus + named_fixtures:
        assembly = subl.enumerate_assembly(f)
        if len(assembly) > 32:
            continue
        for s in assembly:
            lift = sy.lift_surjection(assembly, s)
            pair = lift.pair
            # meets of the coframe are joins of the reversed order frame;
            # re-check preservation over all pairs on top of the
            # constructor's own validation
            src, tgt = pair.source, pair.target
            for i in range(src.n):
                for j in range(src.n):
                    assert pair.hom[int(src.meet[i, j])] == \
                        int(tgt.meet[pair.hom[i], pair.hom[j]])
            assert set(pair.hom) == set(range(tgt.n))
    chain_corpus = description_corpus()
    lifted = {c for c in chain_corpus if oc.chain_is_d_sublocale(c)}
    assert lifted and set(chain_corpus) - lifted
    _report(8, "surjections lift exactly on well-behaved sublocales")


def test_criterion_9_mutation_sensitivity(named_fixtures, monkeypatch):
    baseline = [theorems.verify_frame_theorems(f) for f in named_fixtures]
    assert all(v.passed for v in baseline)
    killed = {}
    for name, apply_mutant in mutants.ALL_MUTANTS:
        with monkeypatch.context() as ctx:
            apply_mutant(ctx)
            verdicts = [theorems.verify_frame_theorems(f)
                        for f in named_fixtures]
        killed[name] = sum(1 for v in verdicts if not v.passed)
        assert killed[name] > 0, f"mutant {name} was not detected"
    # the documented divergence: the underreporting mutant splits the
    # covered-prime equivalence suite on the 3-chain
    with monkeypatch.context() as ctx:
        mutants.underreport_covered_primes(ctx)
        an = sy.FrameAnalysis(chain(3))
        suite = theorems.covered_primes_suite(an)
        assert {v for _, v in suite.conditions} == {True, False}
    _report(9, "every documented mutant is caught by the suites")
