"""Deliberately broken variants of core operations and their fast paths.

Used to prove the verification suites are not vacuous: each mutant must
make at least one suite or battery fail (test_mutants.py names which).
The wrong results are built through the unvalidated constructor so the
breakage propagates into the laws instead of tripping input validation
immediately.
"""

import functools

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy

REAL_COVERED = frames.covered_primes
REAL_JOIN = subl.sublocale_join
REAL_DIFFERENCE = subl.difference
REAL_PIECES_UNION = subl._pieces_union
REAL_PRIME_CLOSURES = subl._prime_subset_closures
REAL_SPECTRA = sy._spectra
REAL_DIFFERENCES = sy.FrameAnalysis.differences.func


def underreport_covered_primes(monkeypatch):
    """Drop the largest covered prime whenever there is one."""
    def mutant(frame):
        full = REAL_COVERED(frame)
        return full - {max(full)} if full else full
    monkeypatch.setattr(frames, "covered_primes", mutant)


def join_without_meet_closure(monkeypatch):
    """Union plus top, skipping the meet closure of the join formula."""
    def mutant(frame, parts):
        out = {frame.top}
        for p in parts:
            out |= p.members
        return subl.Sublocale(frame, out, _validate=False)
    monkeypatch.setattr(subl, "sublocale_join", mutant)


def difference_without_decomposition(monkeypatch):
    """Plain set difference plus top instead of the least-solution search."""
    def mutant(sub, other):
        return subl.Sublocale(sub.frame,
                              (sub.members - other.members) | {sub.frame.top},
                              _validate=False)
    monkeypatch.setattr(subl, "difference", mutant)


def union_memo_ignoring_other(monkeypatch):
    """A U(T) memo of difference keyed by the frame alone: every T reads
    the U of the first T asked for."""
    first = {}

    def mutant(frame, t_mask):
        if frame not in first:
            first[frame] = REAL_PIECES_UNION(frame, t_mask)
        return first[frame]
    monkeypatch.setattr(subl, "_pieces_union", mutant)


def enumeration_dropping_last_prime(monkeypatch):
    """Prime-subset enumeration that never adds the largest prime."""
    def mutant(frame, primes):
        return REAL_PRIME_CLOSURES(frame, primes[:-1])
    monkeypatch.setattr(subl, "_prime_subset_closures", mutant)


def table_join_ignoring_second(monkeypatch):
    """Assembly.join_mask returning by_primes[P(S)], as if T added nothing."""
    def mutant(self, a, b):
        return self.by_primes[self.primes_of[a]]
    monkeypatch.setattr(subl.Assembly, "join_mask", mutant)


def spectra_of_another_mask(monkeypatch):
    """An intrinsic-spectra memo that answers every sublocale with the
    entry of the whole frame."""
    def mutant(sub):
        return REAL_SPECTRA(subl.whole(sub.frame))
    monkeypatch.setattr(sy, "_spectra", mutant)


def _replace_pair_table(monkeypatch, name, build):
    table = functools.cached_property(build)
    table.__set_name__(sy.FrameAnalysis, name)
    monkeypatch.setattr(sy.FrameAnalysis, name, table)


def pair_differences_transposed(monkeypatch):
    """FrameAnalysis.differences holding difference(T, S) at [i][j]."""
    _replace_pair_table(monkeypatch, "differences",
                        lambda an: tuple(zip(*REAL_DIFFERENCES(an))))


def pair_joins_ignoring_second(monkeypatch):
    """FrameAnalysis.joins holding the join of S alone at [i][j], as if T
    added nothing."""
    def mutant(an):
        return an._pair_table(lambda s, t: subl.sublocale_join(an.frame, [s]))
    _replace_pair_table(monkeypatch, "joins", mutant)


ALL_MUTANTS = (
    ("covered_prime_underreporting", underreport_covered_primes),
    ("join_without_meet_closure", join_without_meet_closure),
    ("difference_without_decomposition", difference_without_decomposition),
    ("union_memo_ignoring_other", union_memo_ignoring_other),
    ("enumeration_dropping_last_prime", enumeration_dropping_last_prime),
    ("table_join_ignoring_second", table_join_ignoring_second),
    ("spectra_of_another_mask", spectra_of_another_mask),
    ("pair_differences_transposed", pair_differences_transposed),
    ("pair_joins_ignoring_second", pair_joins_ignoring_second),
)
