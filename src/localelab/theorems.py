"""Equivalence-theorem suites and law batteries over one frame.

Each suite evaluates the numbered conditions of one characterization
theorem along independent computational routes and demands that they all
agree.  Law batteries check the identities the engine is built on
(difference laws, open/closed homomorphism identities, the meet-closure
adjunction, lifting, essential primes).  A failure in either is a bug in
the engine or a real counterexample; both are reported with witnesses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import classify
from . import frames
from . import spaces
from . import sublocales as subl
from . import subsystems as sy


@dataclass(frozen=True)
class SuiteResult:
    name: str
    conditions: tuple
    expect_all_true: bool = False

    @property
    def consistent(self):
        values = {v for _, v in self.conditions}
        return len(values) == 1

    @property
    def passed(self):
        if self.expect_all_true:
            return all(v for _, v in self.conditions)
        return self.consistent

    def describe(self):
        inner = ", ".join(f"{label}={'T' if v else 'F'}"
                          for label, v in self.conditions)
        return f"{self.name}: {inner}"


@dataclass(frozen=True)
class LawResult:
    name: str
    ok: bool
    checked: int
    detail: str = ""


def is_boolean_lattice(frame):
    """Every element complemented: meet to bottom, join to top."""
    return bool(((frame.meet == frame.bottom) & (frame.join == frame.top)).any(axis=1).all())


def _order_frame(an, family):
    """The reverse-inclusion order frame of a family of assembly indices,
    or None when that order is not a frame, the order of an empty family
    included, which only a broken engine gives; a condition on the
    family's lattice is then false."""
    try:
        return subl.family_order_frame(an.frame, [an.assembly.masks[i] for i in family])[0]
    except frames.FrameError:
        return None


def _name(an, i):
    return subl._label(an.frame, an.assembly.masks[i])


def _whole(an):
    return an.assembly.index_of((1 << an.frame.n) - 1)


def _intrinsically_spatial(frame, mask, covered):
    """Every member of the sublocale is the meet of its points (covered
    points if covered) above it."""
    return frames.meets_of_points(frame, frames.spectra_of(frame, mask)[covered],
                                  list(frames.bits_of(mask)))


# ---------------------------------------------------------------------------
# equivalence suites

def td_spatial_suite(an):
    frame = an.frame
    spec = spaces.spectrum_td(frame)
    smooth_frame = _order_frame(an, an.smooth)
    return SuiteResult("td_spatial_characterization", (
        ("counit_injective", len(set(spec.sigma)) == frame.n),
        ("meets_of_covered", frames.is_td_spatial(frame)),
        ("smooth_lattice_spatial",
         smooth_frame is not None and frames.is_spatial(smooth_frame)),
        ("smooth_lattice_powerset",
         smooth_frame is not None and is_boolean_lattice(smooth_frame)
         and smooth_frame.n == 1 << len(an.covered)),
    ))


def strongly_td_spatial_suite(an):
    frame = an.frame
    spec = an.spectrum
    covered_all = an.covered == an.points
    injective = len(set(spec.sigma)) == frame.n
    spatial_frame = _order_frame(an, an.spatial_family)
    return SuiteResult("strongly_td_spatial_characterization", (
        ("counit_injective_and_covered", injective and covered_all),
        ("meets_of_covered_and_covered",
         frames.is_td_spatial(frame) and covered_all),
        ("spatial_and_spectrum_td",
         frames.is_spatial(frame) and spaces.is_td(spec.space)),
        ("opens_of_sober_td_space",
         injective and spaces.is_td(spec.space) and spaces.is_sober(spec.space)),
        ("spatial_and_spatialpart_powerset",
         frames.is_spatial(frame) and spatial_frame is not None
         and is_boolean_lattice(spatial_frame)
         and spatial_frame.n == 1 << len(an.points)),
        ("smooth_eq_spatialpart", an.smooth == an.spatial_family),
    ))


def covered_primes_suite(an):
    d_fam = an.d_family
    closed_pairs = _d_meets_closed(an)
    return SuiteResult("covered_primes_characterization", (
        ("all_primes_covered", an.covered == an.points),
        ("spatialpart_in_smooth", an.spatial_family <= an.smooth),
        ("d_is_everything", d_fam == frozenset(range(len(an.assembly)))),
        ("d_closed_under_meets", _whole(an) in d_fam and closed_pairs),
        ("spatialpart_in_d", an.spatial_family <= d_fam),
    ), expect_all_true=True)


def _d_meets_closed(an):
    """Whether the meet of every pair of D-sublocales is one again."""
    d = np.array(an.d_indices, dtype=np.intp)
    return bool(an.in_d_family[an.meets[d[:, None], d]].all())


def total_td_spatiality_suite(an):
    frame = an.frame
    masks = an.assembly.masks
    d_fam = an.d_family
    d_frame = _order_frame(an, d_fam)
    return SuiteResult("total_td_spatiality_characterization", (
        ("all_sublocales_td_spatial",
         all(_intrinsically_spatial(frame, m, True) for m in masks)),
        ("all_d_sublocales_td_spatial",
         all(_intrinsically_spatial(frame, masks[i], True) for i in d_fam)),
        ("td_spatialization_fixes_d",
         all(sp == i for i, sp in an.td_spatializations.items())),
        ("d_lattice_powerset", d_frame is not None and is_boolean_lattice(d_frame)
         and d_frame.n == 1 << len(an.covered)),
        ("d_lattice_spatial_boolean", d_frame is not None
         and frames.is_spatial(d_frame) and is_boolean_lattice(d_frame)),
        ("smooth_eq_d_and_td_spatial",
         an.smooth == d_fam and frames.is_td_spatial(frame)),
        ("nonzero_has_intrinsic_covered_point",
         all(m == 1 << frame.top or frames.spectra_of(frame, m)[1] for m in masks)),
    ), expect_all_true=True)


def assembly_powerset_suite(an):
    frame = an.frame
    masks = an.assembly.masks
    every = frozenset(range(len(masks)))
    order = _order_frame(an, every)
    covered_all = an.covered == an.points
    totally_spatial = an.spatial_family == every
    zero_mask, covered_mask = 1 << frame.top, frames.mask_of(an.covered)

    def covered_essentials(a):
        return sy.essential_primes(frame, a) & an.covered

    def covered_abs_essentials(a):
        return sy.absolutely_essential_primes(frame, a) & an.covered

    return SuiteResult("assembly_powerset_characterization", (
        ("totally_spatial_and_covered", totally_spatial and covered_all),
        ("totally_spatial_and_strongly_td",
         totally_spatial and frames.is_strongly_td_spatial(frame)),
        ("all_sublocales_strongly_td",
         all(_intrinsically_spatial(frame, m, False)
             and frames.spectra_of(frame, m)[1] == frames.spectra_of(frame, m)[0] for m in masks)),
        ("assembly_powerset", order is not None and is_boolean_lattice(order)
         and order.n == 1 << len(an.covered)),
        ("assembly_spatial_boolean", order is not None
         and frames.is_spatial(order) and is_boolean_lattice(order)),
        ("meets_of_covered_essentials",
         all(frame.meet_of(covered_essentials(a)) == a for a in range(frame.n))),
        ("meets_of_covered_abs_essentials",
         all(frame.meet_of(covered_abs_essentials(a)) == a
             for a in range(frame.n))),
        ("spatial_and_abs_essential_above",
         frames.is_spatial(frame)
         and all(a == frame.top or covered_abs_essentials(a)
                 for a in range(frame.n))),
        ("nonzero_contains_ambient_covered_prime",
         all(m == zero_mask or m & covered_mask for m in masks)),
    ), expect_all_true=True)


def spatial_vs_closed_joins_suite(an):
    return SuiteResult("spatial_vs_closed_joins", (
        ("spatial", frames.is_spatial(an.frame)),
        ("closed_joins_in_spatialpart", an.closed_joins <= an.spatial_family),
    ))


def maximal_primes_vs_closed_joins_suite(an):
    return SuiteResult("maximal_primes_vs_closed_joins", (
        ("primes_maximal", frames.maximal_primes_only(an.frame)),
        ("spatialpart_in_closed_joins", an.spatial_family <= an.closed_joins),
    ))


def d_family_vs_closed_joins_suite(an):
    return SuiteResult("d_family_vs_closed_joins", (
        ("d_in_closed_joins", an.d_family <= an.closed_joins),
        ("d_eq_closed_joins", an.d_family == an.closed_joins),
        ("subfit_and_d_scattered",
         frames.is_subfit(an.frame) and an.d_family <= an.smooth),
    ))


def totally_spatial_suite(an):
    return SuiteResult("totally_spatial_characterization", (
        ("all_sublocales_spatial", an.spatial_family == frozenset(range(len(an.assembly)))),
        ("d_in_spatialpart", an.d_family <= an.spatial_family),
        ("meets_of_essential_primes",
         classify.is_totally_spatial_by_essentials(an.frame)),
    ))


def d_scattered_suite(an):
    return SuiteResult("d_scattered_characterization", (
        ("d_in_smooth", an.d_family <= an.smooth),
        ("pointless_are_smooth", classify.is_d_scattered_by_pointless(an)),
    ))


THEOREM_SUITES = (
    td_spatial_suite,
    strongly_td_spatial_suite,
    covered_primes_suite,
    total_td_spatiality_suite,
    assembly_powerset_suite,
    spatial_vs_closed_joins_suite,
    maximal_primes_vs_closed_joins_suite,
    d_family_vs_closed_joins_suite,
    totally_spatial_suite,
    d_scattered_suite,
)


def run_theorem_suites(an):
    return [fn(an) for fn in THEOREM_SUITES]


# ---------------------------------------------------------------------------
# law batteries

TRIPLE_SCAN_LIMIT = 32


class _LawFailed(Exception):
    """Raised by _Tally.fail; the tally holds the count and the detail."""


@dataclass
class _Tally:
    checked: int = 0
    detail: str = ""           # "skipped: ..." when part of a battery did not run

    def fail(self, detail, checked=None):
        """End the battery as failed; checked, if given, replaces the count."""
        if checked is not None:
            self.checked = checked
        self.detail = detail
        raise _LawFailed


def _battery(name):
    """Turn law(an, tally) into law(an) -> LawResult(name, ...), the one
    builder of a battery's result.  The battery adds to tally.checked as
    it goes and stops at its first failed check through tally.fail."""
    def decorate(fn):
        @functools.wraps(fn)
        def battery(an):
            law = _Tally()
            try:
                fn(an, law)
                ok = True
            except _LawFailed:
                ok = False
            return LawResult(name, ok, law.checked, law.detail)
        return battery
    return decorate


def _members_only(law, an, table, what):
    """The table of member indices, a row or a pair table, after failing
    the battery at its first entry, in row-major order, that is not an
    assembly member (-1), so no -1 is read as an index."""
    failed = _first_failure(table < 0)
    if failed:
        at = np.unravel_index(failed[0], table.shape)
        law.fail(f"a {what} is not a sublocale at "
                 + ", ".join(_name(an, int(x)) for x in at))
    return table


def _first_failure(*failed):
    """(position, which) of the first True entry of the boolean arrays
    failed, all of one shape: the least row-major position, and there the
    first array in argument order, as a loop over the positions testing
    each array in turn meets it; None when no entry is True."""
    first = None
    for which, f in enumerate(failed):
        if f.size:
            pos = int(f.argmax())
            if f.flat[pos] and (first is None or pos < first[0]):
                first = (pos, which)
    return first


_DIFFERENCE_PAIR_LAWS = ("S\\T beyond S", "S\\T=0 iff S<=T fails",
                         "S\\C law fails", "S\\T prime-subset law fails")
_DIFFERENCE_TRIPLE_LAWS = ("S\\(T&R) law fails", "(S\\T)\\R law fails",
                           "residuation fails")


@_battery("difference_laws")
def law_difference(an, law):
    k = len(an.assembly)
    diff = _members_only(law, an, an.differences, "difference")
    supp = _members_only(law, an, an.supplements[:-1], "supplement")
    _difference_pairs(an, law, diff, supp)
    if k > TRIPLE_SCAN_LIMIT:
        law.detail = "skipped: triple scan, assembly too large"
        return
    # the triple scans close the joins they judge against themselves, off
    # the frame memo that difference reads
    meets = _members_only(law, an, an.meets, "meet")
    _difference_triples(an, law, diff, meets)


def _difference_pairs(an, law, diff, supp):
    assembly = an.assembly
    masks = assembly.masks
    k = len(masks)
    zero_mask = 1 << an.frame.top
    incl = an.inclusion
    # S\C is S meet supp(C) for a complemented C
    complemented = np.array([m & masks[c] == zero_mask for m, c in zip(masks, supp.tolist())])
    meet_supp = an.meets[:, supp]
    failed = _first_failure(
        ~incl[diff, np.arange(k)[:, None]],
        (diff == assembly.index_of(zero_mask)) != incl,
        complemented & (diff != meet_supp),
        # the second route: S\T holds exactly the primes of S not in T
        diff != assembly.bits_table(lambda a, b: a & ~b))
    if failed:
        pos, which = failed
        i, j = divmod(pos, k)
        law.fail(f"{_DIFFERENCE_PAIR_LAWS[which]} at {_name(an, i)}, {_name(an, j)}",
                 checked=4 * (pos + 1))
    law.checked = 4 * k * k


def _difference_triples(an, law, diff, meets):
    masks = an.assembly.masks
    k = len(masks)
    incl, close = an.inclusion, an.frame.meet_close_masks
    joined = an.index_table([s | t for s in masks for t in masks], close).reshape(k, k)
    # inside[i, j, r]: S_i lies inside the join of T_j and R_r
    inside = incl[:, joined]
    outside = list(zip(*np.nonzero(joined < 0)))
    for (j, r), join_mask in zip(outside, close([masks[j] | masks[r] for j, r in outside])):
        inside[:, j, r] = [m & ~join_mask == 0 for m in masks]
    # axes (i, j, r) of S_i, T_j, R_r
    d_ij, d_ir, ks = diff[:, :, None], diff[:, None, :], np.arange(k)
    failed = _first_failure(
        diff[ks[:, None, None], meets] != joined[d_ij, d_ir],
        diff[d_ij, ks] != diff[d_ir, ks[:, None]],
        incl[d_ij, ks] != inside)
    if failed:
        pos, which = failed
        i, j, r = (_name(an, x) for x in np.unravel_index(pos, (k, k, k)))
        law.fail(f"{_DIFFERENCE_TRIPLE_LAWS[which]} at {i},{j},{r}",
                 checked=4 * k * k + 3 * (pos + 1))
    law.checked += 3 * k ** 3


@_battery("open_closed_identities")
def law_open_closed(an, law):
    """The open, closed and boolean sublocales o(a), c(a) and b(a) as the
    frame's open_masks, up_masks and boolean_masks: their meets are
    intersections, and their joins the frame memo's meet closures of
    unions, all closed in one batch."""
    frame = an.frame
    n = frame.n
    opens, closeds, booleans = frame.open_masks, frame.up_masks, frame.boolean_masks
    unions = [m[a] | m[b] for m in (opens, closeds) for a in range(n) for b in range(n)]
    unions += [o | c for o, c in zip(opens, closeds)]
    joined = dict(zip(unions, subl._meet_closed_all(frame, unions)))
    for a in range(n):
        join_row, meet_row, imp_row = frame.join_rows[a], frame.meet_rows[a], frame.imp_rows[a]
        for b in range(n):
            law.checked += 5
            jj, mm = join_row[b], meet_row[b]
            if closeds[jj] != closeds[a] & closeds[b]:
                law.fail(f"closed-of-join at ({a},{b})")
            if opens[jj] != joined[opens[a] | opens[b]]:
                law.fail(f"open-of-join at ({a},{b})")
            if closeds[mm] != joined[closeds[a] | closeds[b]]:
                law.fail(f"closed-of-meet at ({a},{b})")
            if opens[mm] != opens[a] & opens[b]:
                law.fail(f"open-of-meet at ({a},{b})")
            if booleans[imp_row[b]] != opens[a] & booleans[b]:
                law.fail(f"boolean-of-implication at ({a},{b})")
    for a in range(n):
        law.checked += 2
        if opens[a] & closeds[a] != 1 << frame.top:
            law.fail(f"open meet closed not zero at {a}")
        if joined[opens[a] | closeds[a]] != (1 << n) - 1:
            law.fail(f"open join closed not whole at {a}")


@_battery("zero_dimensionality")
def law_zero_dimensional(an, law):
    """Every sublocale is the meet of the basic complemented ones above
    it, the n^2 joins o(x) join c(y), closed in one batch and validated."""
    frame = an.frame
    joined = subl._meet_closed_all(frame, [o | c for o in frame.open_masks
                                           for c in frame.up_masks])
    for m in (*frame.open_masks, *frame.up_masks, *joined):
        try:
            subl._validate_mask(frame, m)
        except subl.NotASublocale as exc:
            law.fail(f"{subl._label(frame, m)} is not a sublocale: {exc}")
    basics = set(joined)    # few distinct masks: test each once
    for i, s in enumerate(an.assembly.masks):
        law.checked += 1
        acc = (1 << frame.n) - 1
        for b in basics:
            if s & ~b == 0:
                acc &= b
        if acc != s:
            law.fail(f"not an intersection of basics: {_name(an, i)}")


@_battery("nucleus_roundtrip")
def law_nucleus_roundtrip(an, law):
    """Each member S, in assembly order, goes to its nucleus nu_S, which
    must be a nucleus, and back to the image of nu_S, which must be S.
    The nuclei of all members are one table (sublocales._nucleus_tables),
    checked by gathers."""
    frame, masks = an.frame, an.assembly.masks
    k = len(masks)
    tables = subl._nucleus_tables(frame, masks)
    image = frames._row_sets(tables)
    wrong_image = (image != frames._matrix_of_rows(masks, frame.n)).any(axis=1)
    first_wrong = int(wrong_image.argmax()) if wrong_image.any() else k
    failure = subl._nucleus_failure(frame, tables[:first_wrong + 1])
    if failure:
        i, message = failure
        law.fail(f"nucleus of {_name(an, i)} {message}", checked=i + 1)
    if first_wrong < k:
        law.fail(_name(an, first_wrong), checked=first_wrong + 1)
    law.checked = k


@_battery("covered_degeneracy")
def law_covered_degeneracy(an, law):
    """Finite degeneracy: primes and covered primes coincide, also inside
    every sublocale (the divergence needs an infinite frame)."""
    law.checked = 1
    if frames.covered_primes(an.frame) != frames.primes(an.frame):
        law.fail("frame level")
    for i, m in enumerate(an.assembly.masks):
        law.checked += 1
        points, covered = frames.spectra_of(an.frame, m)
        if covered != points:
            law.fail(_name(an, i))


@_battery("spectra")
def law_spectra(an, law):
    frame = an.frame
    spec = an.spectrum
    law.checked = 2
    if not spaces.is_sober(spec.space):
        law.fail("spectrum not sober")
    if not spaces.is_td(spaces.spectrum_td(frame).space):
        law.fail("covered spectrum not td")
    # finite frames are spatial: the counit is injective
    law.checked += 1
    if len(set(spec.sigma)) != frame.n:
        law.fail("counit not injective")
    points = frames.mask_of(an.points)
    for i, m in enumerate(an.assembly.masks):
        law.checked += 1
        if frames.mask_of(frames.spectra_of(frame, m)[0]) != points & m:
            law.fail(f"intrinsic vs ambient points differ on {_name(an, i)}")


_TD_PAIR_LAWS = ("td-spatialization not monotone", "join not preserved",
                 "image meet law fails")


@_battery("td_adjunction")
def law_td_adjunction(an, law):
    frame, assembly = an.frame, an.assembly
    report = sy.check_td_adjunction(assembly)
    law.checked = report.checked
    if not report.passed:
        law.fail(report.failures[0])
    masks = assembly.masks
    # sp[i]: the assembly index of the td-spatialization of member i
    sp = an.td_spatializations
    for i in an.d_indices:
        law.checked += 2
        if sp[i] < 0:
            law.fail(f"td-spatialization of {_name(an, i)} is not a sublocale")
        if masks[sp[i]] & ~masks[i]:
            law.fail(f"td-spatialization inflates {_name(an, i)}")
        if sp.get(sp[i]) != sp[i]:
            law.fail(f"td-spatialization not idempotent on {_name(an, i)}")
    joins = _members_only(law, an, an.joins, "join")
    meets = _members_only(law, an, an.meets, "meet")
    _td_pairs(an, law, joins, meets)
    # td-spatializations as the enumeration closes them (covered points
    # read once for this and _covered_joins)
    pts = sorted(an.points)
    covered = [frames.mask_of(frames.spectra_of(frame, masks[i])[1]) for i in an.d_indices]
    for i, cov in zip(an.d_indices, covered):
        bits = sum(1 << b for b, p in enumerate(pts) if cov >> p & 1)
        if masks[sp[i]] != assembly.by_primes[bits]:
            law.fail(f"td-spatialization of {_name(an, i)} is not its covered points' closure")
    # covered points distribute over joins of D-sublocales.  Checked on
    # pairs: a pair's join must be a D-sublocale again, and since
    # cl(cl(A | B) | C) = cl(A | B | C) the pair law gives the law for
    # families of every size.  Joins are closed here, off the frame memo
    # of sublocale_join.
    _covered_joins(an, law, covered)
    # the classical adjunction, between subsets of the primes and the
    # whole assembly, and each subset's meet closure against the
    # enumeration's, grown one prime at a time
    report = sy.adjunction_law(frame, an.points, masks, False)
    law.checked += report.checked
    if not report.passed:
        law.fail(report.failures[0])
    for sel, grown in enumerate(assembly.by_primes):
        law.checked += 1
        chosen = [pts[i] for i in frames.bits_of(sel)]
        if subl._meet_closed(frame, frames.mask_of(chosen)) != grown:
            law.fail(f"meet closure of {chosen} disagrees with the enumeration")


def _td_pairs(an, law, joins, meets):
    frame, masks = an.frame, an.assembly.masks
    d_idx, sp, incl = an.d_indices, an.td_spatializations, an.inclusion
    d = np.array(d_idx, dtype=np.intp)
    sp_d = np.array([sp[i] for i in d_idx], dtype=np.intp)
    sp_of = np.full(len(masks), -1)     # sp.get(x) of every member, -1 off D
    sp_of[d] = sp_d
    pairs = d.size * d.size
    failed = _first_failure(
        incl[d[:, None], d] & ~incl[sp_d[:, None], sp_d],
        sp_of[joins[d[:, None], d]] != joins[sp_d[:, None], sp_d])
    # the image meet law depends only on sp[i] meet sp[j]: check each
    # value once, where it first appears, up to the first failure above
    inter = meets[sp_d[:, None], sp_d].ravel()
    first_seen = np.full(len(masks), pairs)
    np.minimum.at(first_seen, inter, np.arange(pairs))
    for pos in np.sort(first_seen[first_seen < (failed[0] if failed else pairs)]):
        # meets inside the image go through the operator once more; the
        # join is closed and validated as sublocale_join does
        image_meet, union = sp_of[inter[pos]], 0
        for x in sp_d[incl[sp_d, inter[pos]]].tolist():
            union |= masks[x]
        joined = subl._validate_mask(frame, subl._meet_closed(frame, union))
        if not (image_meet >= 0 and joined == masks[image_meet]):
            failed = (int(pos), 2)
            break
    if failed:
        pos, which = failed
        a, b = divmod(pos, d.size)
        law.fail(_TD_PAIR_LAWS[which] if which == 0 else
                 f"{_TD_PAIR_LAWS[which]} at {_name(an, d_idx[a])}, {_name(an, d_idx[b])}",
                 checked=law.checked + pos + 1)
    law.checked += pairs


def _covered_joins(an, law, covered):
    """covered: the masks of the D-members' covered points, in order."""
    masks = an.assembly.masks
    d_idx = an.d_indices
    d = np.array(d_idx, dtype=np.intp)
    d_masks = [masks[i] for i in d_idx]
    first, second = np.nonzero(np.arange(d.size)[:, None] < np.arange(d.size))
    d_position = np.full(len(masks) + 1, -1)
    d_position[d] = np.arange(d.size)
    # the D-family position of each pair's join, -1 off the D-family
    joined = d_position[an.index_table([x | y for a, x in enumerate(d_masks)
                                        for y in d_masks[a + 1:]],
                                       an.frame.meet_close_masks)]
    covered = frames.mask_words(covered, an.frame.n).T
    failed = _first_failure(
        joined < 0,
        (covered[:, joined] != covered[:, first] | covered[:, second]).any(axis=0))
    if failed:
        pos, which = failed
        i, j = _name(an, d_idx[first[pos]]), _name(an, d_idx[second[pos]])
        law.fail(f"join of {i}, {j} is not a D-sublocale" if which == 0 else
                 f"covered points of the join of {i}, {j} differ from their union",
                 checked=law.checked + pos + 1)
    law.checked += first.size


@_battery("d_family_closure")
def law_d_family_closure(an, law):
    if _whole(an) not in an.d_family:
        law.fail("whole frame not in family", checked=1)
    if not an.smooth <= an.d_family:
        law.fail("smooth not inside family", checked=1)
    for table, others, what in ((an.joins, an.d_indices, "join"),
                                (an.differences, range(len(an.assembly)), "difference")):
        _d_family_escapes(an, law, table, others, what)


def _d_family_escapes(an, law, table, others, what):
    """Fail at the first entry, in assembly order, of the table's rows of
    the D-sublocales and columns others that is not a D-sublocale, so a
    failure names the same pair and count every run."""
    d_idx = an.d_indices
    failed = _first_failure(~an.in_d_family[table[np.ix_(d_idx, others)]])
    if failed:
        a, b = divmod(failed[0], len(others))
        law.fail(f"{what} escapes at {_name(an, d_idx[a])}, {_name(an, others[b])}",
                 checked=law.checked + failed[0] + 1)
    law.checked += len(d_idx) * len(others)


_ORDER_PAIR_LAWS = ("order join is not intersection", "order meet is not sublocale join",
                    "prime-subset join law fails")


@_battery("assembly_order")
def law_assembly_order(an, law):
    """The order frame of the assembly really is the reversed coframe."""
    assembly = an.assembly
    # the order frame lists the members in assembly order, so its
    # elements are assembly indices, as are the table entries
    order = _order_frame(an, range(len(assembly)))
    if order is None:
        law.fail("the order of the assembly is not a frame", checked=1)
    frame = an.frame
    # the second route to the joins: ORs of prime bits
    _order_pairs(an, law, order, assembly.bits_table(np.bitwise_or))
    # covered primes of the reversed assembly are the one-point sublocales
    expected = {assembly.index_of(1 << frame.top | 1 << p) for p in an.covered}
    got = frames.covered_primes(order)
    law.checked += 1
    if got != expected:
        law.fail("covered primes of the assembly are not the "
                 "one-point sublocales")
    # the td-spatial members form the boolean sublocale at the
    # td-spatialization of the whole frame
    sp_index = an.td_spatializations.get(_whole(an), -1)
    image = set(an.td_spatializations.values())
    law.checked += 1
    if sp_index < 0 or image != subl.boolean_sublocale(order, sp_index).members:
        law.fail("td-spatial members differ from the boolean "
                 "sublocale at the td-spatialization")


def _order_pairs(an, law, order, prime_joins):
    """The order frame's joins against the meet table, its meets against
    the join table and the joins by ORs of prime bits against the join
    table, pair by pair in row-major order."""
    assembly = an.assembly
    k = len(assembly)
    failed = _first_failure(order.join != an.meets, order.meet != an.joins,
                            prime_joins != an.joins)
    if failed:
        pos, which = failed
        i, j = divmod(pos, k)
        law.fail(_ORDER_PAIR_LAWS[which] if which < 2 else
                 f"{_ORDER_PAIR_LAWS[which]} at {_name(an, i)}, {_name(an, j)}",
                 checked=3 * (pos + 1))
    law.checked = 3 * k * k


@_battery("lifting")
def law_lifting(an, law):
    if len(an.assembly) > TRIPLE_SCAN_LIMIT:
        law.detail = "skipped: assembly too large"
        return
    for i in range(len(an.assembly)):
        law.checked += 1
        try:
            lift = sy._lift(an.assembly, i)
        except ValueError as exc:   # NotLiftable, a FrameError or a failed law
            law.fail(f"no lift onto {_name(an, i)}: {exc}")
        if not lift.surjective:
            law.fail(f"lift onto {_name(an, i)} is not surjective")


@_battery("essential_primes")
def law_essential_primes(an, law):
    frame = an.frame
    pts = sorted(an.points)
    # in_all[a]: the primes (bit i for pts[i]) in every selection of
    # primes whose meet is a, by the low-bit recurrence over all 2^|pts|
    # selections; the empty selection meets to the top
    meet = frame.meet_rows
    sel_meet = [frame.top] * (1 << len(pts))
    in_all = [(1 << len(pts)) - 1] * frame.n
    in_all[frame.top] = 0
    for sel in range(1, 1 << len(pts)):
        low = sel & -sel
        m = sel_meet[sel] = meet[sel_meet[sel ^ low]][pts[low.bit_length() - 1]]
        in_all[m] &= sel
    for a in range(frame.n):
        ess = sy.essential_primes(frame, a)
        abse = sy.absolutely_essential_primes(frame, a)
        above = sy.primes_above(frame, a)
        # absolute essentiality == membership in every prime decomposition
        for p in above:
            law.checked += 1
            in_every = bool(in_all[a] >> pts.index(p) & 1)
            if in_every != (p in abse):
                law.fail(f"absolute essentiality mismatch at a={a} p={p}")
            weak = sy.weakly_covered(frame, p)
            if (p in abse) != (weak and p in ess):
                law.fail(f"weakly-covered split fails at a={a} p={p}")
        # essential primes are the points of the boolean sublocale at a
        law.checked += 1
        if ess != sy.points_of(subl.boolean_sublocale(frame, a)):
            law.fail(f"essential primes differ from boolean points at {a}")
        # covered and essential implies absolutely essential
        law.checked += 1
        if not (ess & an.covered) <= abse:
            law.fail(f"covered essential not absolute at {a}")
    for p in pts:
        law.checked += 1
        if p not in sy.essential_primes(frame, p):
            law.fail(f"prime {p} not essential for itself")


LAW_BATTERIES = (
    law_difference,
    law_open_closed,
    law_zero_dimensional,
    law_nucleus_roundtrip,
    law_covered_degeneracy,
    law_spectra,
    law_td_adjunction,
    law_d_family_closure,
    law_assembly_order,
    law_lifting,
    law_essential_primes,
)


def run_law_batteries(an):
    return [fn(an) for fn in LAW_BATTERIES]


@dataclass
class FrameVerdict:
    name: str
    suites: list
    laws: list
    error: str = ""

    @property
    def passed(self):
        return (not self.error and all(s.passed for s in self.suites)
                and all(l.ok for l in self.laws))

    def failures(self):
        out = []
        if self.error:
            out.append(f"error: {self.error}")
        out.extend(s.describe() for s in self.suites if not s.passed)
        out.extend(f"{l.name}: {l.detail}" for l in self.laws if not l.ok)
        return out


def verify_frame_theorems(frame, cap=subl.DEFAULT_CAP, name="frame"):
    """Run every suite and battery on one frame, trapping engine errors.

    An assembly over the cap is no engine error: CapExceeded propagates,
    for the caller to report the frame as not verified.
    """
    an = sy.FrameAnalysis(frame, cap)
    try:
        suites = run_theorem_suites(an)
        laws = run_law_batteries(an)
    except subl.CapExceeded:
        raise
    except Exception as exc:           # an engine crash is a failed verdict
        return FrameVerdict(name, [], [], error=f"{type(exc).__name__}: {exc}")
    return FrameVerdict(name, suites, laws)
