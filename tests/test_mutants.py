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
from conftest import (antichain2_plus_top, boolean_square, chain, m3_relation,
                      n5_relation, random_frames)

# mutant -> (frame, the suite or battery that kills it)
KILLED_BY = {
    "covered_prime_underreporting": ("chain3", theorems.covered_primes_suite),
    "join_without_meet_closure": ("square", theorems.law_open_closed),
    "difference_without_decomposition": ("square", theorems.law_difference),
    "union_memo_ignoring_other": ("square", theorems.law_difference),
    "enumeration_dropping_last_prime": ("square", theorems.assembly_powerset_suite),
    "table_join_ignoring_second": ("square", theorems.law_assembly_order),
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


def _not_transitive(n, i, j):
    """The order of an n-chain with the pair i < j (j > i + 1) taken out."""
    rel = frames.transitive_reflexive_closure(n, [(k, k + 1) for k in range(n - 1)])
    rel[i, j] = False
    return rel


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


def _tables_match_oracle(n):
    """The meet and join tables of the n-chain equal the oracle's."""
    try:
        f = chain(n)
    except frames.FrameError:
        return False
    return all(f.meet[a, b] == oracle.glb_bruteforce(f.leq, a, b)
               and f.join[a, b] == oracle.lub_bruteforce(f.leq, a, b)
               for a in range(f.n) for b in range(f.n))


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
    "rows_dropping_top_word": lambda: _tables_match_oracle(65),
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


@pytest.fixture(scope="module")
def mutant_matrix():
    """Every suite and battery on every MATRIX_FRAMES frame, without a
    mutant (key None) and under each mutant in mutants.ALL_MUTANTS:
    (failed, raised), where failed[mutant] names the checks that failed
    and raised maps (mutant, frame, check) to the exception type."""
    failed, raised = {}, {}
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
    return failed, raised


def test_mutant_matrix_raises_only_where_it_raised(mutant_matrix):
    # every suite and battery passes or fails cleanly under every mutant:
    # none raises, so each failure names its condition
    _, raised = mutant_matrix
    assert raised == {}


# the checks that no mutant makes fail on MATRIX_FRAMES.  law_nucleus_roundtrip
# fails only on an assembly member that is not a sublocale, and no mutant
# makes one (a FOUND line of CHANGES.md)
UNKILLED = {"law_nucleus_roundtrip"}


def test_every_check_fails_under_some_mutant(mutant_matrix):
    # a check that no broken engine makes fail judges nothing
    failed, _ = mutant_matrix
    assert failed.pop(None) == set()
    killed = set().union(*failed.values())
    assert {check.__name__ for check in CHECKS} - killed == UNKILLED
