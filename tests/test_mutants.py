"""Each mutant in mutants.ALL_MUTANTS is killed by a named suite or battery,
each in mutants.ORDER_MUTANTS by a named oracle or boundary check, and
each in mutants.MEMO_MUTANTS by a named test of the frame memo.

KILLED_BY pins, for every mutant, one frame and one suite or battery that
must fail under it (without crashing) and pass without it, so a change
that silences the check that used to catch a mutant shows up here by
name.  Other checks may fail too; only the named one is pinned.  The
order mutants break frame kernels and the cap prediction, mostly where
verify's generated frames (lattices of few elements, far below the cap)
never reach, so ORDER_KILLED_BY pins an oracle comparison or the cap
boundary for each instead.

The mutant matrix asserts the converse over all ALL_MUTANTS at once:
every suite and battery fails under some mutant, save those in UNKILLED.
It also runs the checks that scan pairs and triples as theorems runs
them, by numpy gathers, and again with those scans swapped for their
Python loops in tests/oracle.py, law_lifting with its lifts made one
member at a time there, and law_nucleus_roundtrip against its
member-by-member loop there; both must agree under every mutant.
"""

import io

import numpy as np
import pytest

from localelab import cli, frames
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems

import mutants
import oracle
import test_sublocales
from conftest import (antichain2_plus_top, boolean_square, chain, grid_relation,
                      m3_relation, n5_relation, random_frames)

# mutant -> (frame, the suite or battery that kills it)
KILLED_BY = {
    "covered_prime_underreporting": ("chain3", theorems.covered_primes_suite),
    "join_without_meet_closure": ("square", theorems.law_open_closed),
    "difference_without_decomposition": ("square", theorems.law_difference),
    "union_memo_ignoring_other": ("square", theorems.law_difference),
    "enumeration_dropping_last_prime": ("square", theorems.assembly_powerset_suite),
    "table_join_ignoring_second": ("square", theorems.law_assembly_order),
    "enumeration_without_prime_meets": ("square", theorems.law_nucleus_roundtrip),
    "spectra_of_another_mask": ("square", theorems.law_spectra),
    "pair_differences_transposed": ("square", theorems.law_difference),
    "pair_joins_ignoring_second": ("square", theorems.law_assembly_order),
    "closure_memo_answering_first": ("square", theorems.law_assembly_order),
}
FRAMES = {"chain3": lambda: chain(3), "square": boolean_square}


def _passed(result):
    return result.passed if isinstance(result, theorems.SuiteResult) else result.ok


def test_every_mutant_has_a_named_killer():
    assert set(KILLED_BY) == {name for name, _ in mutants.ALL_MUTANTS}


@pytest.mark.parametrize("name, apply_mutant", mutants.ALL_MUTANTS,
                         ids=[name for name, _ in mutants.ALL_MUTANTS])
def test_named_check_kills_mutant(name, apply_mutant, monkeypatch):
    frame_name, check = KILLED_BY[name]
    assert _passed(check(sy.FrameAnalysis(FRAMES[frame_name]())))
    apply_mutant(monkeypatch)
    assert not _passed(check(sy.FrameAnalysis(FRAMES[frame_name]())))


@pytest.mark.parametrize("name, apply_mutant", mutants.ALL_MUTANTS,
                         ids=[name for name, _ in mutants.ALL_MUTANTS])
def test_mutant_fails_verify(name, apply_mutant, monkeypatch, tmp_path):
    args = ["verify", "--seed", "1", "--bound", "4", "--count", "8",
            "--out-dir", str(tmp_path)]
    assert cli.main(args, out=io.StringIO()) == cli.EXIT_OK
    apply_mutant(monkeypatch)
    assert cli.main(args, out=io.StringIO()) == cli.EXIT_FAIL


def test_enumeration_mutant_fails_the_frontier_oracle(monkeypatch):
    mutants.enumeration_dropping_last_prime(monkeypatch)
    f = boolean_square()
    got = sorted(s.mask for s in subl.enumerate_assembly(f))
    assert got != oracle.assembly_frontier(f)


def _two_tops(n):
    """A chain of n - 2 elements with two incomparable elements above it:
    they have no join."""
    covers = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    return frames.transitive_reflexive_closure(n, covers)


def _bowtie(n):
    """A chain of n - 4 elements, two incomparable elements above it and
    two more above both: the upper two have no meet, the lower two no join."""
    c = n - 5
    covers = [(i, i + 1) for i in range(c)] + [(c, c + 1), (c, c + 2)]
    covers += [(a, b) for a in (c + 1, c + 2) for b in (c + 3, c + 4)]
    return frames.transitive_reflexive_closure(n, covers)


def _m3_times_2_relabelled():
    """M3 x 2 with (x, 1) for an atom x relabelled 0.  The join-irreducibles
    that are not join-prime are the (atom, 0), and the first
    distributivity witness, (x, 1) with two other atoms at level 0, lies
    strictly above one of them."""
    m3 = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    covers = [((x, e), (y, e)) for x, y in m3 for e in (0, 1)]
    covers += [((x, 0), (x, 1)) for x in range(5)]
    ids = [(1, 1)] + [(x, e) for x in range(5) for e in (0, 1) if (x, e) != (1, 1)]
    index = {p: i for i, p in enumerate(ids)}
    return frames.transitive_reflexive_closure(
        len(ids), [(index[p], index[q]) for p, q in covers])


def _chain(n):
    """The order of the n-chain."""
    return frames.transitive_reflexive_closure(n, [(k, k + 1) for k in range(n - 1)])


def _not_transitive(n, i, j):
    """The order of an n-chain with the pair i < j (j > i + 1) taken out."""
    rel = _chain(n)
    rel[i, j] = False
    return rel


def _two_word_frame():
    """The 72-element downset lattice of a 7-point poset with two covers,
    whose masks take two 64-bit words; it has 128 sublocales."""
    return frames.downset_lattice(frames.transitive_reflexive_closure(7, [(0, 1), (2, 3)]))


def _rejections_match_oracle(rels):
    """FiniteFrame raises what the brute-force oracles name on each rel."""
    for rel in rels:
        expected = (oracle.poset_failure_bruteforce(rel.tolist())
                    or oracle.frame_rejection_bruteforce(rel))
        try:
            frames.FiniteFrame(rel)
            got = None
        except frames.NonPoset as exc:
            got = (exc.reason, exc.witness)
        except frames.NonLattice as exc:
            got = (frames.NonLattice, (exc.pair, exc.kind))
        except frames.NonDistributive as exc:
            got = (frames.NonDistributive, exc.triple)
        if got != expected:
            return False
    return True


def _tables_match_oracle(rel):
    """The meet and join tables of the frame on rel equal the oracle's."""
    try:
        f = frames.FiniteFrame(rel)
    except frames.FrameError:
        return False
    return all(f.meet[a, b] == oracle.glb_bruteforce(f.leq, a, b)
               and f.join[a, b] == oracle.lub_bruteforce(f.leq, a, b)
               for a in range(f.n) for b in range(f.n))


def _grid_tables_match_oracle():
    """_tables_match_oracle on the 5 x 7 grid, whose 210 open pairs go
    through 30 blocks under a BLOCK_BYTES of 512."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "BLOCK_BYTES", 1 << 9)
        return _tables_match_oracle(grid_relation(5, 7))


def _closure_matches_oracle(n, pairs):
    return (frames.transitive_reflexive_closure(n, pairs).tolist()
            == oracle.closure_bruteforce(n, pairs))


def _heyting_matches_oracle():
    """The Heyting tables of a few fresh frames equal the oracle's."""
    return all(f.imp[a, b] == oracle.heyting_bruteforce(f, a, b)
               for f in (chain(3), boolean_square(), antichain2_plus_top())
               for a in range(f.n) for b in range(f.n))


def _closures_match_oracle():
    """meet_close_mask equals the worklist closure on every mask of the
    square, whose bottom has two upper covers."""
    f = boolean_square()
    return all(f.meet_close_mask(m) == oracle.meet_closure_worklist(f, m)
               for m in range(1 << f.n))


def _refused_at(f, cap):
    """The count CapExceeded reports for f's assembly under cap, or None."""
    try:
        subl.enumerate_assembly(f, cap=cap)
    except subl.CapExceeded as exc:
        return exc.count
    return None


def _cap_boundary_holds():
    """As test_sublocales' test_cap_refusal_matches_bruteforce_size: a
    cap of the assembly's size is accepted, one less is refused with the
    count cap + 1."""
    sizes = ((f, len(oracle.assembly_bruteforce(f)))
             for f in (chain(2), chain(3), boolean_square(), antichain2_plus_top()))
    return all(_refused_at(f, size) is None and _refused_at(f, size - 1) == size
               for f, size in sizes)


SMALL_FRAMES = (lambda: chain(3), boolean_square, antichain2_plus_top)


def _spectra_match_oracle():
    """spectra_of equals the pairwise scan at every assembly mask of a
    few fresh frames."""
    return all(frames.spectra_of(f, m) == oracle.spectra_by_pairs(f, m)
               for f in (make() for make in SMALL_FRAMES)
               for m in oracle.assembly_bruteforce(f))


def _covered_primes_match_oracle():
    return all(frames.covered_primes(f) == oracle.covered_primes_bruteforce(f)
               for f in (make() for make in SMALL_FRAMES))


def _points_match_oracle():
    """meets_of_points equals the folds on a few fresh frames, for their
    primes (found by the meet-inequality oracle) and for all but the
    first of them."""
    for f in (make() for make in SMALL_FRAMES):
        pts = sorted(oracle.primes_by_meet_inequality(f))
        for points in (pts, pts[1:]):
            if (frames.meets_of_points(f, points)
                    != oracle.meets_of_points_by_folds(f, points)):
                return False
    return True


def _subfit_matches_oracle():
    return all(frames.is_subfit(f) == oracle.subfit_by_triples(f)
               for f in (make() for make in SMALL_FRAMES))


def _batched_closures_match_oracle():
    """meet_close_masks equals the worklist closure on every mask of the
    square, and on masks of a 72-element frame, two words each."""
    square, wide = boolean_square(), _two_word_frame()
    rng = np.random.default_rng(0)
    wide_masks = [int.from_bytes(rng.bytes(9), "little") & ((1 << wide.n) - 1)
                  for _ in range(40)]
    return all(f.meet_close_masks(masks) == [oracle.meet_closure_worklist(f, m)
                                             for m in masks]
               for f, masks in ((square, list(range(1 << square.n))), (wide, wide_masks)))


def _unions_match_oracle():
    """The unions of pieces U(T) of every sublocale of a few fresh
    frames equal those from the definition."""
    for f in (make() for make in SMALL_FRAMES):
        masks = oracle.assembly_bruteforce(f)
        if subl._pieces_unions(f, masks) != oracle.pieces_unions_by_definition(f, masks):
            return False
    return True


def _nuclei_match_oracle():
    """The nucleus table of every sublocale of a few fresh frames equals
    the folds, row by row, and every row is a nucleus."""
    for f in (make() for make in SMALL_FRAMES):
        masks = oracle.assembly_bruteforce(f)
        tables = subl._nucleus_tables(f, masks)
        if (tables.tolist() != [oracle.nucleus_by_folds(f, m) for m in masks]
                or subl._nucleus_failure(f, tables) is not None):
            return False
    return True


def _smooth_families_match_oracle():
    """The smooth family read off the supplement row, and the
    complemented members with zero, equal the supplement loops."""
    for f in (make() for make in SMALL_FRAMES):
        an = sy.FrameAnalysis(f)
        if (an.smooth != oracle.smooth_by_supplements(an.assembly)
                or an.smooth_by_joins != oracle.complemented_by_supplements(an.assembly)):
            return False
    return True


def _lift_outcome(lift, assembly, s):
    """What lift(assembly, s) gives, as comparable values: the exception
    type and message, or the hom, the target masks and surjectivity."""
    try:
        got = lift(assembly, s)
    except Exception as exc:
        return type(exc), str(exc)
    return got.hom, [t.mask for t in got.target_subs], got.surjective


def _lifts_match_oracle():
    """The one-pass lift onto every member of a few fresh frames, the
    last of 16 members, equals oracle.lifts_by_adjoint_pairs."""
    for assembly in (subl.enumerate_assembly(make()) for make in
                     SMALL_FRAMES + (lambda: random_frames(1, 4, 3)[2],)):
        if any(_lift_outcome(sy.lift_surjection, assembly, s)
               != _lift_outcome(oracle.lifts_by_adjoint_pairs, assembly, s)
               for s in assembly):
            return False
    return True


# order mutant -> the oracle comparison that must fail under it; the
# narrow cases have at most frames.INT_ROW_BITS elements, the wide ones
# more, in one, two and three 64-bit words
WIDE = frames.INT_ROW_BITS + 4
ORDER_KILLED_BY = {
    "int_table_defaulting_missing_bound":
        lambda: _rejections_match_oracle([np.eye(2, dtype=bool), _two_tops(5),
                                          _bowtie(7)]),
    "word_table_skipping_row_equality":
        lambda: _rejections_match_oracle([_two_tops(WIDE), _bowtie(70), _two_tops(130)]),
    "comparable_pairs_taking_wrong_element": lambda: _tables_match_oracle(_chain(WIDE)),
    "open_pair_blocks_dropping_last": _grid_tables_match_oracle,
    "rows_dropping_top_word": lambda: _tables_match_oracle(_chain(65)),
    "transitivity_checking_row_zero":
        lambda: _rejections_match_oracle([_not_transitive(6, 2, 5),
                                          _not_transitive(70, 5, 66)]),
    "closure_of_one_pass":
        lambda: _closure_matches_oracle(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    "birkhoff_count_of_no_irreducibles":
        lambda: _rejections_match_oracle([m3_relation(), n5_relation()]),
    "heyting_taking_second_candidate": _heyting_matches_oracle,
    "cap_prediction_refusing_at_cap": _cap_boundary_holds,
    "closure_reading_first_cover": _closures_match_oracle,
    "witness_scan_of_bad_irreducibles_only":
        lambda: _rejections_match_oracle([m3_relation(), _m3_times_2_relabelled()]),
    "join_prime_lookup_inverted": lambda: _rejections_match_oracle([m3_relation()]),
    "points_count_reading_whole_upset": _points_match_oracle,
    "prime_lookup_of_whole_upset": _spectra_match_oracle,
    "covered_count_at_own_level": _covered_primes_match_oracle,
    "subfit_against_reversed_order": _subfit_matches_oracle,
    "batched_closure_reading_first_gap": _batched_closures_match_oracle,
    "unions_of_basics_meeting_t": _unions_match_oracle,
    "nucleus_fold_skipping_a_meet": _nuclei_match_oracle,
    "supplement_row_without_pieces": _smooth_families_match_oracle,
    "lift_adjunction_reading_padding": _lifts_match_oracle,
}


def test_every_order_mutant_has_a_named_killer():
    assert set(ORDER_KILLED_BY) == {name for name, _ in mutants.ORDER_MUTANTS}


@pytest.mark.parametrize("name, apply_mutant", mutants.ORDER_MUTANTS,
                         ids=[name for name, _ in mutants.ORDER_MUTANTS])
def test_named_oracle_check_kills_order_mutant(name, apply_mutant, monkeypatch):
    check = ORDER_KILLED_BY[name]
    assert check()
    apply_mutant(monkeypatch)
    assert not check()


# memo mutant -> the test of the frame memo that must fail under it
MEMO_KILLED_BY = {
    "validation_memo_reading_subs":
        lambda: test_sublocales.TestFrameMemo().test_failed_validation_is_never_remembered(),
    "object_memo_answering_first":
        lambda: test_sublocales.TestFrameMemo().test_one_object_per_mask(boolean_square()),
}


def test_every_memo_mutant_has_a_named_killer():
    assert set(MEMO_KILLED_BY) == {name for name, _ in mutants.MEMO_MUTANTS}


@pytest.mark.parametrize("name, apply_mutant", mutants.MEMO_MUTANTS,
                         ids=[name for name, _ in mutants.MEMO_MUTANTS])
def test_named_memo_test_kills_memo_mutant(name, apply_mutant, monkeypatch):
    MEMO_KILLED_BY[name]()
    apply_mutant(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        MEMO_KILLED_BY[name]()


MATRIX_FRAMES = {
    "square": boolean_square, "chain3": lambda: chain(3), "chain4": lambda: chain(4),
    **{f"seed{s}": (lambda s=s: random_frames(s, 4, 1)[0]) for s in range(1, 7)},
}


CHECKS = theorems.THEOREM_SUITES + theorems.LAW_BATTERIES


# the checks that scan pairs or triples of the assembly -> each array
# scan they call in theorems (a dotted name is read through theorems, so
# "sy.lift_surjection" is subsystems.lift_surjection), with its loop in
# tests/oracle.py
SCANNED = {
    theorems.covered_primes_suite: {"_d_meets_closed": oracle.d_meets_closed_by_loops},
    theorems.law_difference: {"_difference_pairs": oracle.difference_pairs_by_loops,
                              "_difference_triples": oracle.difference_triples_by_loops},
    theorems.law_td_adjunction: {"_td_pairs": oracle.td_pairs_by_loops,
                                 "_covered_joins": oracle.covered_joins_by_loops},
    theorems.law_d_family_closure: {"_d_family_escapes": oracle.d_family_escapes_by_loops},
    theorems.law_assembly_order: {"_order_pairs": oracle.order_pairs_by_loops},
    theorems.law_lifting: {"sy.lift_surjection": oracle.lifts_by_adjoint_pairs},
}


def _both_routes(check, an):
    """check(an) as theorems runs it, by its array scans, then again with
    each scan swapped for its loop: (arrays, loops, calls), where calls
    counts, by scan name, the calls that reached each loop."""
    arrays = check(an)
    calls = dict.fromkeys(SCANNED[check], 0)
    with pytest.MonkeyPatch.context() as patch:
        for name, loop in SCANNED[check].items():
            def counted(*args, _name=name, _loop=loop):
                calls[_name] += 1
                return _loop(*args)
            owner, _, attr = name.rpartition(".")
            patch.setattr(getattr(theorems, owner) if owner else theorems, attr, counted)
        return arrays, check(an), calls


def _routes(an):
    """Each SCANNED check by its array scans and by their loops, each
    side of the meet-closure adjunction by its bitsets and by
    oracle.adjunction_law_by_pairs, and law_nucleus_roundtrip by its
    whole-assembly table and by oracle.nucleus_roundtrip_by_loops:
    (name -> (fast, loops), reports as (checked, failures); SCANNED
    check name -> the calls of _both_routes)."""
    out, calls = {}, {}
    for check in SCANNED:
        arrays, loops, calls[check.__name__] = _both_routes(check, an)
        out[check.__name__] = arrays, loops
    out["law_nucleus_roundtrip"] = (theorems.law_nucleus_roundtrip(an),
                                    oracle.nucleus_roundtrip_by_loops(an))
    frame, assembly = an.frame, an.assembly
    d_family = sy.d_sublocales(assembly)
    for name, points, family, spectrum in (
            ("check_td_adjunction", an.covered, [s for s in assembly if s in d_family],
             sy.covered_points_of),
            ("adjunction_law", an.points, assembly, sy.points_of)):
        out[name] = tuple((report.checked, report.failures) for report in (
            sy.adjunction_law(frame, points, family, spectrum),
            oracle.adjunction_law_by_pairs(frame, points, family, spectrum)))
    return out, calls


@pytest.fixture(scope="module")
def mutant_matrix():
    """Every suite and battery on every MATRIX_FRAMES frame, without a
    mutant (key None) and under each mutant in mutants.ALL_MUTANTS:
    (failed, raised, compared, reached), where failed[mutant] names the
    checks that failed, raised maps (mutant, frame, check) to the
    exception type, compared maps (mutant, frame, check) to the two
    routes' results of each check that _routes runs both ways, and
    reached maps (mutant, frame, check) to the calls of each oracle loop
    that a SCANNED check made."""
    failed, raised, compared, reached = {}, {}, {}, {}
    for name, apply_mutant in [(None, None)] + list(mutants.ALL_MUTANTS):
        failed[name] = set()
        with pytest.MonkeyPatch.context() as patch:
            if apply_mutant:
                apply_mutant(patch)
            for frame_name, make in MATRIX_FRAMES.items():
                an = sy.FrameAnalysis(make())
                for check in CHECKS:
                    try:
                        if not _passed(check(an)):
                            failed[name].add(check.__name__)
                    except Exception as exc:
                        raised[name, frame_name, check.__name__] = type(exc)
                if not raised:
                    pairs, calls = _routes(an)
                    for check_name, pair in pairs.items():
                        compared[name, frame_name, check_name] = pair
                    for check_name, counts in calls.items():
                        reached[name, frame_name, check_name] = counts
    return failed, raised, compared, reached


def test_mutant_matrix_raises_only_where_it_raised(mutant_matrix):
    # every suite and battery passes or fails cleanly under every mutant:
    # none raises, so each failure names its condition
    _, raised, _, _ = mutant_matrix
    assert raised == {}


def test_array_scans_match_their_loops(mutant_matrix):
    # the array scans and the loops read the same tables; they must agree
    # on the verdict, the first failure named and the count checked, under
    # every mutant, and each check must fail somewhere, so that the
    # agreement covers failures too
    _, raised, compared, _ = mutant_matrix
    assert raised == {}
    assert len(compared) == ((len(mutants.ALL_MUTANTS) + 1) * len(MATRIX_FRAMES)
                             * (len(SCANNED) + 3))
    assert {key: pair for key, pair in compared.items() if pair[0] != pair[1]} == {}
    failing = {key[2] for key, (fast, _) in compared.items()
               if (fast[1] if isinstance(fast, tuple) else not _passed(fast))}
    assert failing == {check.__name__ for check in SCANNED} | {
        "check_td_adjunction", "adjunction_law", "law_nucleus_roundtrip"}


def test_every_scan_reaches_its_loop(mutant_matrix):
    # a swap that does not take effect would compare the arrays with
    # themselves: without a mutant, every scan of every SCANNED check must
    # have run its oracle loop on every frame
    _, _, _, reached = mutant_matrix
    for frame_name in MATRIX_FRAMES:
        for check, loops in SCANNED.items():
            calls = reached[None, frame_name, check.__name__]
            assert set(calls) == set(loops)
            assert all(calls.values()), (frame_name, check.__name__, calls)


@pytest.mark.parametrize("doctor", [
    lambda frame, closed: closed & ~(1 << frame.top),
    lambda frame, closed: (1 << frame.n) - 1,
], ids=["closure_outside_assembly", "closure_of_everything"])
@pytest.mark.parametrize("frame_name", MATRIX_FRAMES)
def test_own_closure_scans_match_their_loops(frame_name, doctor, monkeypatch):
    # law_difference's triple scan and law_td_adjunction's pair-join scan
    # close joins of their own, which no mutant reaches, the loops one
    # mask at a time and the arrays in one batch: with the tables built,
    # the frame's closures by both kernels are doctored alike, and both
    # routes of each must name the same first failure with the same count
    an = sy.FrameAnalysis(MATRIX_FRAMES[frame_name]())
    theorems.run_theorem_suites(an)
    theorems.run_law_batteries(an)
    frame, close, close_all = an.frame, an.frame.meet_close_mask, an.frame.meet_close_masks
    monkeypatch.setattr(frame, "meet_close_mask",
                        lambda mask: doctor(frame, close(mask)), raising=False)
    monkeypatch.setattr(frame, "meet_close_masks",
                        lambda masks: [doctor(frame, m) for m in close_all(masks)],
                        raising=False)
    arrays, loops, calls = _both_routes(theorems.law_difference, an)
    assert arrays == loops and not arrays.ok
    assert calls["_difference_triples"]
    arrays, loops, calls = _both_routes(theorems.law_td_adjunction, an)
    assert arrays == loops and calls["_covered_joins"]


@pytest.mark.parametrize("frame_name", MATRIX_FRAMES)
def test_supplement_outside_the_assembly_fails_both_routes(frame_name):
    # a supplement row with entries that are not members (-1), which only
    # a broken engine gives: law_difference fails at the first of them,
    # by its array scans and by their loops alike
    an = sy.FrameAnalysis(MATRIX_FRAMES[frame_name]())
    k = len(an.assembly)
    an.supplements = an.supplements.copy()
    an.supplements[[k // 2, k - 1]] = -1
    arrays, loops, _ = _both_routes(theorems.law_difference, an)
    assert arrays == loops and not arrays.ok
    assert arrays.detail == f"a supplement is not a sublocale at {an.assembly[k // 2]!r}"


@pytest.mark.parametrize("name, apply_mutant", [(None, None)] + list(mutants.ALL_MUTANTS),
                         ids=["no_mutant"] + [name for name, _ in mutants.ALL_MUTANTS])
def test_array_scans_match_their_loops_past_one_word(name, apply_mutant, monkeypatch):
    # 72 elements and 128 members: masks and covered points take two
    # 64-bit words, which no MATRIX_FRAMES frame reaches.  law_lifting
    # skips an assembly past TRIPLE_SCAN_LIMIT, so it calls no lift here
    # (test_lift_pass_matches_its_oracle_past_one_word lifts this frame)
    if apply_mutant:
        apply_mutant(monkeypatch)
    an = sy.FrameAnalysis(_two_word_frame())
    assert an.frame.n > 64 and len(an.assembly) > theorems.TRIPLE_SCAN_LIMIT
    results = [_both_routes(check, an) for check in SCANNED
               if check is not theorems.law_lifting]
    assert all(arrays == loops for arrays, loops, _ in results)
    assert all(_passed(arrays) for arrays, _, _ in results) == (name is None)
    if name is None:
        assert all(any(calls.values()) for _, _, calls in results)


def test_lift_pass_matches_its_oracle_past_one_word():
    # the one pass lifts onto all 128 members of the 72-element frame,
    # whose masks take two words; every eighth is judged by its oracle
    assembly = subl.enumerate_assembly(_two_word_frame())
    assert all(_lift_outcome(sy.lift_surjection, assembly, s)
               == _lift_outcome(oracle.lifts_by_adjoint_pairs, assembly, s)
               for s in assembly[::8])


# the checks that no mutant makes fail on MATRIX_FRAMES
UNKILLED = set()


def test_every_check_fails_under_some_mutant(mutant_matrix):
    # a check that no broken engine makes fail judges nothing
    failed, _, _, _ = mutant_matrix
    assert failed.pop(None) == set()
    killed = set().union(*failed.values())
    assert {check.__name__ for check in CHECKS} - killed == UNKILLED
