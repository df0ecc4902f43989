"""Each mutant in mutants.ALL_MUTANTS is killed by a named suite or battery.

KILLED_BY pins, for every mutant, one frame and one suite or battery that
must fail under it (without crashing) and pass without it, so a change
that silences the check that used to catch a mutant shows up here by
name.  Other checks may fail too; only the named one is pinned.
"""

import io

import pytest

from localelab import cli
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab import theorems

import mutants
import oracle
from conftest import boolean_square, chain

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
