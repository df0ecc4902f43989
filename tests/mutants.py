"""Deliberately broken variants of core operations and their fast paths.

Used to prove the verification suites are not vacuous: each mutant in
ALL_MUTANTS must make at least one suite or battery fail, each in
ORDER_MUTANTS at least one oracle check, and each in MEMO_MUTANTS one
test of the frame memo (test_mutants.py names which).  The ALL_MUTANTS
break the mask operations the pair tables read (the join closure, the
difference's union of pieces, the enumeration), the table builders of
FrameAnalysis and Assembly themselves, and sublocale_join, which
law_open_closed reads; wrong results are handed on unvalidated, so the
breakage propagates into the laws instead of tripping input validation
immediately.  The ORDER_MUTANTS break the
frame kernels (validation and its witness search, the Heyting table,
the meet closure one mask at a time and in batches, the spectra, meets
of points and subfitness), the cap prediction of enumerate_assembly,
the difference's unions of pieces, the nucleus table, the
supplement row of FrameAnalysis and the batched lift laws, and the
MEMO_MUTANTS the two entries of the frame memo that _from_mask and
_validate_mask read;
each of these is the kernel's own source with one statement edited
(_edited), so it differs from the real kernel by exactly that statement.
"""

import functools
import inspect
import textwrap

from localelab import frames
from localelab import sublocales as subl
from localelab import subsystems as sy

REAL_COVERED = frames.covered_primes
REAL_PIECES_UNIONS = subl._pieces_unions
REAL_PRIME_CLOSURES = subl._prime_subset_closures
REAL_SPECTRA = frames.spectra_of


def underreport_covered_primes(monkeypatch):
    """Drop the largest covered prime whenever there is one."""
    def mutant(frame):
        full = REAL_COVERED(frame)
        return full - {max(full)} if full else full
    monkeypatch.setattr(frames, "covered_primes", mutant)


def join_without_meet_closure(monkeypatch):
    """The frame memo's batched reader (_meet_closed_all, read by the
    pair tables, the supplement row and law_open_closed) answers each
    mask with union plus top, skipping the meet closure of the join
    formula."""
    _patch_edited(monkeypatch, "_meet_closed_all", "[closures[m] for m in masks]",
                  "[m | 1 << frame.top for m in masks]", owner=subl)


def difference_without_decomposition(monkeypatch):
    """FrameAnalysis.differences taking U(T) to be the complement of T, so
    that each entry is the meet closure of top and plain S minus T
    instead of the pieces of the decomposition."""
    _patch_edited(monkeypatch, "differences",
                  "unions = subl._pieces_unions(frame, masks)",
                  "unions = [~t for t in masks]", owner=sy.FrameAnalysis)


def union_memo_ignoring_other(monkeypatch):
    """A U(T) memo of difference keyed by the frame alone: every T reads
    the U of the first T asked for."""
    first = {}

    def mutant(frame, t_masks):
        if frame not in first:
            first[frame] = REAL_PIECES_UNIONS(frame, t_masks[:1])[0]
        return [first[frame]] * len(t_masks)
    monkeypatch.setattr(subl, "_pieces_unions", mutant)


def enumeration_dropping_last_prime(monkeypatch):
    """Prime-subset enumeration that never adds the largest prime."""
    def mutant(frame, primes):
        return REAL_PRIME_CLOSURES(frame, primes[:-1])
    monkeypatch.setattr(subl, "_prime_subset_closures", mutant)


def table_join_ignoring_second(monkeypatch):
    """Assembly.bits_table applying op to the prime bits of S and none,
    so the join table reads by_primes[P(S)], as if T added nothing."""
    _patch_edited(monkeypatch, "bits_table", "op(bits[:, None], bits)",
                  "op(bits[:, None], 0 * bits)", owner=subl.Assembly)


def enumeration_without_prime_meets(monkeypatch):
    """Prime-subset enumeration adding each prime without its meets with
    the members already there, so a member need not be meet-closed."""
    _patch_edited(monkeypatch, "_prime_subset_closures", "grown |= 1 << row[s]",
                  "grown |= 1 << p", owner=subl)


def spectra_of_another_mask(monkeypatch):
    """An intrinsic-spectra reader that answers every mask with the
    entry of the whole frame."""
    def mutant(frame, mask):
        return REAL_SPECTRA(frame, (1 << frame.n) - 1)
    monkeypatch.setattr(frames, "spectra_of", mutant)


def pair_differences_transposed(monkeypatch):
    """FrameAnalysis.differences holding difference(T, S) at [i, j]."""
    _patch_edited(monkeypatch, "differences", "for s in masks for u in unions",
                  "for u in unions for s in masks", owner=sy.FrameAnalysis)


def pair_joins_ignoring_second(monkeypatch):
    """FrameAnalysis.joins holding the join of S alone at [i, j], as if T
    added nothing."""
    _patch_edited(monkeypatch, "joins", "[s | t for s in masks for t in masks]",
                  "[s for s in masks for t in masks]", owner=sy.FrameAnalysis)


def closure_memo_answering_first(monkeypatch):
    """The frame's closure memo, as its batched reader _meet_closed_all
    (the pair tables, the supplement row and law_open_closed) reads it,
    answers every mask with the first closure it stored."""
    _patch_edited(monkeypatch, "_meet_closed_all", "[closures[m] for m in masks]",
                  "[next(iter(closures.values())) for m in masks]", owner=subl)


ALL_MUTANTS = (
    ("covered_prime_underreporting", underreport_covered_primes),
    ("join_without_meet_closure", join_without_meet_closure),
    ("difference_without_decomposition", difference_without_decomposition),
    ("union_memo_ignoring_other", union_memo_ignoring_other),
    ("enumeration_dropping_last_prime", enumeration_dropping_last_prime),
    ("table_join_ignoring_second", table_join_ignoring_second),
    ("enumeration_without_prime_meets", enumeration_without_prime_meets),
    ("spectra_of_another_mask", spectra_of_another_mask),
    ("pair_differences_transposed", pair_differences_transposed),
    ("pair_joins_ignoring_second", pair_joins_ignoring_second),
    ("closure_memo_answering_first", closure_memo_answering_first),
)


def _edited(fn, old, new):
    """fn compiled, decorators included, from its own source with the one
    occurrence of old replaced by new, over its module's globals."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} no longer reads {old!r}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), f"<mutant of {fn.__qualname__}>", "exec"),
         namespace)
    return namespace[fn.__name__]


def _patch_edited(monkeypatch, name, old, new, owner=frames):
    """Replace owner.name, a module function or a cached property of a
    class, by its edited source."""
    current = vars(owner)[name]
    if isinstance(current, functools.cached_property):
        edited = _edited(current.func, old, new)
        edited.__set_name__(owner, name)
    else:
        edited = _edited(current, old, new)
    monkeypatch.setattr(owner, name, edited)


def int_table_defaulting_missing_bound(monkeypatch):
    """The int-row bound table takes i as the bound of {i, j} when no row
    equals the AND of rows i and j."""
    _patch_edited(monkeypatch, "_bound_table_ints",
                  "element.get(ri & rows[j])", "element.get(ri & rows[j], i)")


def word_table_skipping_row_equality(monkeypatch):
    """The numpy-word bound table takes the lowest common bit as the
    bound of an open pair without testing that its row is the whole AND."""
    _patch_edited(monkeypatch, "_bound_table_words",
                  "bad = ranked[best] != common",
                  "bad = np.zeros(common.shape, dtype=bool)")


def comparable_pairs_taking_wrong_element(monkeypatch):
    """Past INT_ROW_BITS elements, a comparable pair takes i as its bound
    when j is in row i, and j when i is, instead of the other way round."""
    _patch_edited(monkeypatch, "_bound_table",
                  "np.where(matrix, index, index[:, None])",
                  "np.where(matrix, index[:, None], index)")


def open_pair_blocks_dropping_last(monkeypatch):
    """The numpy-word bound table never tests or fills the last block of
    open pairs."""
    _patch_edited(monkeypatch, "_bound_table_words",
                  "for lo, hi in _row_blocks(len(pairs), 40 * w + 32):",
                  "for lo, hi in list(_row_blocks(len(pairs), 40 * w + 32))[:-1]:")


def rows_dropping_top_word(monkeypatch):
    """Packed rows of more than one word lose their last word."""
    _patch_edited(monkeypatch, "_packed_words",
                  'return packed.view("<u8")',
                  'packed[:, max(8, packed.shape[1] - 8):] = 0; '
                  'return packed.view("<u8")')


def transitivity_checking_row_zero(monkeypatch):
    """The poset check looks for a transitivity failure in row 0 only."""
    _patch_edited(monkeypatch, "_check_poset",
                  "enumerate(_or_of_rows_under(leq, up, words))",
                  "enumerate(_or_of_rows_under(leq, up, words)[:1])")


def closure_of_one_pass(monkeypatch):
    """transitive_reflexive_closure stops after its first pass over the
    rows, which settles an acyclic relation but not a cycle."""
    _patch_edited(monkeypatch, "transitive_reflexive_closure",
                  "    changed = True\n    while changed:", "    for changed in (True,):")


def birkhoff_count_of_no_irreducibles(monkeypatch):
    """The join-irreducibility lookup clears the lowest bit of down[j],
    not j's own: on a lattice whose bottom is element 0 it counts no
    join-irreducibles, and every lattice passes without the triple scan."""
    _patch_edited(monkeypatch, "_check_distributive",
                  "d & ~(1 << j) in downsets", "d & (d - 1) in downsets")


def join_prime_lookup_inverted(monkeypatch):
    """The join-prime lookup is inverted, so the triple scan starts above
    the join-irreducibles that are join-prime, not those that are not."""
    _patch_edited(monkeypatch, "_check_distributive",
                  "full & ~u not in downsets", "full & ~u in downsets")


def heyting_taking_second_candidate(monkeypatch):
    """The Heyting table skips the first ranked candidate, the top, and
    takes the next c with a meet c <= b."""
    _patch_edited(monkeypatch, "imp", "order[ok.argmax(axis=2)]",
                  "order[ok[:, :, 1:].argmax(axis=2) + 1]", owner=frames.FiniteFrame)


def cap_prediction_refusing_at_cap(monkeypatch):
    """enumerate_assembly refuses an assembly of exactly cap members."""
    _patch_edited(monkeypatch, "enumerate_assembly", "if 1 << len(primes) > cap:",
                  "if 1 << len(primes) >= cap:", owner=subl)


def witness_scan_of_bad_irreducibles_only(monkeypatch):
    """The distributivity witness scan tries only the join-irreducibles
    that are not join-prime, not every element above them."""
    _patch_edited(monkeypatch, "_check_distributive", "scan |= u", "scan |= 1 << j")


def closure_reading_first_cover(monkeypatch):
    """meet_close_mask tests only the first upper cover of each element,
    so an element with two or more upper covers gets in even when every
    member above it lies above a later cover."""
    _patch_edited(monkeypatch, "meet_close_mask", "for gap in gaps:",
                  "for gap in gaps[:1]:", owner=frames.FiniteFrame)


def points_count_reading_whole_upset(monkeypatch):
    """meets_of_points looks for an element of a's count in the whole
    upset of a, a included, so no element is a meet of points."""
    _patch_edited(monkeypatch, "meets_of_points",
                  "up[a] & ~(1 << a) & level[cnt[a]]", "up[a] & level[cnt[a]]")


def prime_lookup_of_whole_upset(monkeypatch):
    """spectra_of looks up the members above p, p included, so every
    member but the top counts as prime."""
    _patch_edited(monkeypatch, "spectra_of",
                  "mask & up[p] & ~(1 << p) in rows", "mask & up[p] in rows")


def covered_count_at_own_level(monkeypatch):
    """spectra_of looks for a member above p with p's own count, not one
    less, so no prime counts as covered."""
    _patch_edited(monkeypatch, "spectra_of",
                  "level.get(cnt[p] - 1, 0)", "level.get(cnt[p], 0)")


def subfit_against_reversed_order(monkeypatch):
    """is_subfit allows T(a) <= T(b) when b <= a instead of a <= b."""
    _patch_edited(monkeypatch, "is_subfit", "& ~frame.leq)", "& ~frame.leq.T)")


def batched_closure_reading_first_gap(monkeypatch):
    """meet_close_masks decides each element by its first gap alone, so
    an element with two or more upper covers gets in even when every
    member above it lies above a later cover."""
    _patch_edited(monkeypatch, "meet_close_masks",
                  "np.logical_and.reduceat(hit, starts, axis=1)", "hit[:, starts]",
                  owner=frames.FiniteFrame)


def unions_of_basics_meeting_t(monkeypatch):
    """_pieces_unions ORs the pieces of every basic that meets T, not of
    those that hold it."""
    _patch_edited(monkeypatch, "_pieces_unions", "(rows[lo:hi, None, :] & outside) == 0",
                  "(rows[lo:hi, None, :] & ~outside) != 0", owner=subl)


def nucleus_fold_skipping_a_meet(monkeypatch):
    """_nucleus_tables folds in every element but element 0, so
    nu_S(0) misses 0 when S holds it."""
    _patch_edited(monkeypatch, "_nucleus_tables", "for x in range(n):",
                  "for x in range(1, n):", owner=subl)


def lift_adjunction_reading_padding(monkeypatch):
    """The batched lift laws test the adjunction on the padding columns
    of a lift whose target is smaller than another's in its block."""
    _patch_edited(monkeypatch, "_lift_laws", "& valid[:, None]", "& True",
                  owner=sy)


def supplement_row_without_pieces(monkeypatch):
    """FrameAnalysis.supplements closes top | s_j instead of
    top | U(s_j), so every member is its own supplement."""
    _patch_edited(monkeypatch, "supplements", "subl._pieces_unions(frame, masks)",
                  "masks", owner=sy.FrameAnalysis)


ORDER_MUTANTS = (
    ("int_table_defaulting_missing_bound", int_table_defaulting_missing_bound),
    ("word_table_skipping_row_equality", word_table_skipping_row_equality),
    ("comparable_pairs_taking_wrong_element", comparable_pairs_taking_wrong_element),
    ("open_pair_blocks_dropping_last", open_pair_blocks_dropping_last),
    ("rows_dropping_top_word", rows_dropping_top_word),
    ("transitivity_checking_row_zero", transitivity_checking_row_zero),
    ("closure_of_one_pass", closure_of_one_pass),
    ("birkhoff_count_of_no_irreducibles", birkhoff_count_of_no_irreducibles),
    ("heyting_taking_second_candidate", heyting_taking_second_candidate),
    ("cap_prediction_refusing_at_cap", cap_prediction_refusing_at_cap),
    ("closure_reading_first_cover", closure_reading_first_cover),
    ("witness_scan_of_bad_irreducibles_only", witness_scan_of_bad_irreducibles_only),
    ("join_prime_lookup_inverted", join_prime_lookup_inverted),
    ("points_count_reading_whole_upset", points_count_reading_whole_upset),
    ("prime_lookup_of_whole_upset", prime_lookup_of_whole_upset),
    ("covered_count_at_own_level", covered_count_at_own_level),
    ("subfit_against_reversed_order", subfit_against_reversed_order),
    ("batched_closure_reading_first_gap", batched_closure_reading_first_gap),
    ("unions_of_basics_meeting_t", unions_of_basics_meeting_t),
    ("nucleus_fold_skipping_a_meet", nucleus_fold_skipping_a_meet),
    ("supplement_row_without_pieces", supplement_row_without_pieces),
    ("lift_adjunction_reading_padding", lift_adjunction_reading_padding),
)


def validation_memo_reading_subs(monkeypatch):
    """_validate_mask skips any mask the frame has an object for, as if
    every interned mask had been validated."""
    _patch_edited(monkeypatch, "_validate_mask", "if mask in valid:",
                  "if mask in valid or mask in frame._memo.subs:", owner=subl)


def object_memo_answering_first(monkeypatch):
    """_from_mask answers every mask with the first object it interned."""
    _patch_edited(monkeypatch, "_from_mask", "memo.subs.get(mask)",
                  "next(iter(memo.subs.values()), None)", owner=subl)


MEMO_MUTANTS = (
    ("validation_memo_reading_subs", validation_memo_reading_subs),
    ("object_memo_answering_first", object_memo_answering_first),
)
