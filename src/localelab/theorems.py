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


def _order_frame(family):
    """The reverse-inclusion order frame of a family of sublocales, or
    None when that order is not a frame, the order of an empty family
    included, which only a broken engine gives; a condition on the
    family's lattice is then false."""
    try:
        return subl.family_order_frame(family)[0]
    except frames.FrameError:
        return None


def _intrinsically_td_spatial(sub):
    """Every member is the meet of the sublocale's covered points above it."""
    return frames.meets_of_points(sub.frame, sy.covered_points_of(sub), sub.members)


def _intrinsically_spatial(sub):
    return frames.meets_of_points(sub.frame, sy.points_of(sub), sub.members)


# ---------------------------------------------------------------------------
# equivalence suites

def td_spatial_suite(an):
    frame = an.frame
    spec = spaces.spectrum_td(frame)
    smooth_frame = _order_frame(an.smooth)
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
    spatial_frame = _order_frame(an.spatial_family)
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
    every = frozenset(an.assembly)
    d_fam = an.d_family
    closed_pairs = _d_meets_closed(an)
    return SuiteResult("covered_primes_characterization", (
        ("all_primes_covered", an.covered == an.points),
        ("spatialpart_in_smooth", an.spatial_family <= an.smooth),
        ("d_is_everything", d_fam == every),
        ("d_closed_under_meets", an.whole in d_fam and closed_pairs),
        ("spatialpart_in_d", an.spatial_family <= d_fam),
    ), expect_all_true=True)


def _d_meets_closed(an):
    """Whether the meet of every pair of D-sublocales is one again."""
    d = np.array(an.d_indices, dtype=np.intp)
    return bool(an.in_d_family[an.meets[d[:, None], d]].all())


def total_td_spatiality_suite(an):
    frame = an.frame
    every = list(an.assembly)
    d_fam = an.d_family
    d_frame = _order_frame(d_fam)
    zero = subl.zero(frame)
    return SuiteResult("total_td_spatiality_characterization", (
        ("all_sublocales_td_spatial",
         all(_intrinsically_td_spatial(s) for s in every)),
        ("all_d_sublocales_td_spatial",
         all(_intrinsically_td_spatial(s) for s in d_fam)),
        ("td_spatialization_fixes_d",
         all(sp == i for i, sp in an.td_spatializations.items())),
        ("d_lattice_powerset", d_frame is not None and is_boolean_lattice(d_frame)
         and d_frame.n == 1 << len(an.covered)),
        ("d_lattice_spatial_boolean", d_frame is not None
         and frames.is_spatial(d_frame) and is_boolean_lattice(d_frame)),
        ("smooth_eq_d_and_td_spatial",
         an.smooth == d_fam and frames.is_td_spatial(frame)),
        ("nonzero_has_intrinsic_covered_point",
         all(s == zero or sy.covered_points_of(s) for s in every)),
    ), expect_all_true=True)


def assembly_powerset_suite(an):
    frame = an.frame
    every = list(an.assembly)
    order = _order_frame(an.assembly)
    covered_all = an.covered == an.points
    totally_spatial = an.spatial_family == frozenset(an.assembly)
    zero = subl.zero(frame)

    def covered_essentials(a):
        return sy.essential_primes(frame, a) & an.covered

    def covered_abs_essentials(a):
        return sy.absolutely_essential_primes(frame, a) & an.covered

    return SuiteResult("assembly_powerset_characterization", (
        ("totally_spatial_and_covered", totally_spatial and covered_all),
        ("totally_spatial_and_strongly_td",
         totally_spatial and frames.is_strongly_td_spatial(frame)),
        ("all_sublocales_strongly_td",
         all(_intrinsically_spatial(s)
             and sy.covered_points_of(s) == sy.points_of(s) for s in every)),
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
         all(s == zero or (s.members & an.covered) for s in every)),
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
        ("all_sublocales_spatial", an.spatial_family == frozenset(an.assembly)),
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
                 + ", ".join(repr(an.assembly[int(x)]) for x in at))
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
    subs, masks = assembly.sublocales, assembly.masks
    k = len(subs)
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
        law.fail(f"{_DIFFERENCE_PAIR_LAWS[which]} at {subs[i]!r}, {subs[j]!r}",
                 checked=4 * (pos + 1))
    law.checked = 4 * k * k


def _difference_triples(an, law, diff, meets):
    subs, masks = an.assembly.sublocales, an.assembly.masks
    k = len(subs)
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
        i, j, r = (subs[x] for x in np.unravel_index(pos, (k, k, k)))
        law.fail(f"{_DIFFERENCE_TRIPLE_LAWS[which]} at {i!r},{j!r},{r!r}",
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
    """Every sublocale is the meet of the basic complemented ones above it."""
    frame = an.frame
    n = frame.n
    opens = [subl.open_sublocale(frame, x) for x in range(n)]
    closeds = [subl.closed_sublocale(frame, y) for y in range(n)]
    # the n^2 basics o(x) join c(y) take few distinct masks: test each once
    basics = {subl.sublocale_join(frame, [o, c]).mask
              for o in opens for c in closeds}
    for s in an.assembly:
        law.checked += 1
        acc = (1 << n) - 1
        for b in basics:
            if s.mask & ~b == 0:
                acc &= b
        if acc != s.mask:
            law.fail(f"not an intersection of basics: {s!r}")


@_battery("nucleus_roundtrip")
def law_nucleus_roundtrip(an, law):
    """Each member S, in assembly order, goes to its nucleus nu_S, which
    must be a nucleus, and back to the image of nu_S, which must be S.
    The nuclei of all members are one table (sublocales._nucleus_tables),
    checked by gathers."""
    frame, subs, masks = an.frame, an.assembly.sublocales, an.assembly.masks
    k = len(masks)
    tables = subl._nucleus_tables(frame, masks)
    image = frames._row_sets(tables)
    wrong_image = (image != frames._matrix_of_rows(masks, frame.n)).any(axis=1)
    first_wrong = int(wrong_image.argmax()) if wrong_image.any() else k
    failure = subl._nucleus_failure(frame, tables[:first_wrong + 1])
    if failure:
        i, message = failure
        law.fail(f"nucleus of {subs[i]!r} {message}", checked=i + 1)
    if first_wrong < k:
        law.fail(repr(subs[first_wrong]), checked=first_wrong + 1)
    law.checked = k


@_battery("covered_degeneracy")
def law_covered_degeneracy(an, law):
    """Finite degeneracy: primes and covered primes coincide, also inside
    every sublocale (the divergence needs an infinite frame)."""
    law.checked = 1
    if frames.covered_primes(an.frame) != frames.primes(an.frame):
        law.fail("frame level")
    for s in an.assembly:
        law.checked += 1
        if sy.covered_points_of(s) != sy.points_of(s):
            law.fail(repr(s))


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
    for s in an.assembly:
        law.checked += 1
        if sy.points_of(s) != an.points & s.members:
            law.fail(f"intrinsic vs ambient points differ on {s!r}")


_TD_PAIR_LAWS = ("td-spatialization not monotone", "join not preserved",
                 "image meet law fails")


@_battery("td_adjunction")
def law_td_adjunction(an, law):
    frame = an.frame
    assembly = an.assembly
    report = sy.check_td_adjunction(assembly)
    law.checked = report.checked
    if not report.passed:
        law.fail(report.failures[0])
    subs = assembly.sublocales
    masks = assembly.masks
    # sp[i]: the assembly index of the td-spatialization of member i
    sp = an.td_spatializations
    for i in an.d_indices:
        law.checked += 2
        if sp[i] < 0:
            law.fail(f"td-spatialization of {subs[i]!r} is not a sublocale")
        if masks[sp[i]] & ~masks[i]:
            law.fail(f"td-spatialization inflates {subs[i]!r}")
        if sp.get(sp[i]) != sp[i]:
            law.fail(f"td-spatialization not idempotent on {subs[i]!r}")
    joins = _members_only(law, an, an.joins, "join")
    meets = _members_only(law, an, an.meets, "meet")
    _td_pairs(an, law, joins, meets)
    pts = sorted(an.points)     # td-spatializations as the enumeration closes them
    for i in an.d_indices:
        bits = sum(1 << b for b, p in enumerate(pts) if p in sy.covered_points_of(subs[i]))
        if masks[sp[i]] != assembly.by_primes[bits]:
            law.fail(f"td-spatialization of {subs[i]!r} is not its covered points' closure")
    # covered points distribute over joins of D-sublocales.  Checked on
    # pairs: a pair's join must be a D-sublocale again, and since
    # cl(cl(A | B) | C) = cl(A | B | C) the pair law gives the law for
    # families of every size.  Joins are closed here, off the frame memo
    # of sublocale_join.
    _covered_joins(an, law)
    # the classical adjunction, between subsets of the primes and the
    # whole assembly, and the meet closure against its second route, the
    # join of the one-point sublocales
    report = sy.adjunction_law(frame, an.points, assembly, sy.points_of)
    law.checked += report.checked
    if not report.passed:
        law.fail(report.failures[0])
    one_points = [subl.Sublocale(frame, {frame.top, p}) for p in pts]
    for sel in range(1 << len(pts)):
        law.checked += 1
        chosen = list(frames.bits_of(sel))
        if sy.meet_closure(frame, [pts[i] for i in chosen]) != subl.sublocale_join(
                frame, [one_points[i] for i in chosen]):
            law.fail("meet closure disagrees with the join of points")


def _td_pairs(an, law, joins, meets):
    frame = an.frame
    subs = an.assembly.sublocales
    d_idx, sp, incl = an.d_indices, an.td_spatializations, an.inclusion
    d = np.array(d_idx, dtype=np.intp)
    sp_d = np.array([sp[i] for i in d_idx], dtype=np.intp)
    sp_of = np.full(len(subs), -1)      # sp.get(x) of every member, -1 off D
    sp_of[d] = sp_d
    pairs = d.size * d.size
    failed = _first_failure(
        incl[d[:, None], d] & ~incl[sp_d[:, None], sp_d],
        sp_of[joins[d[:, None], d]] != joins[sp_d[:, None], sp_d])
    # the image meet law depends only on sp[i] meet sp[j]: check each
    # value once, where it first appears, up to the first failure above
    inter = meets[sp_d[:, None], sp_d].ravel()
    first_seen = np.full(len(subs), pairs)
    np.minimum.at(first_seen, inter, np.arange(pairs))
    for pos in np.sort(first_seen[first_seen < (failed[0] if failed else pairs)]):
        # meets inside the image go through the operator once more
        image_meet = sp_of[inter[pos]]
        below = [subs[x] for x in sp_d[incl[sp_d, inter[pos]]]]
        if not (image_meet >= 0 and
                subl.sublocale_join(frame, below) == subs[image_meet]):
            failed = (int(pos), 2)
            break
    if failed:
        pos, which = failed
        a, b = divmod(pos, d.size)
        law.fail(_TD_PAIR_LAWS[which] if which == 0 else
                 f"{_TD_PAIR_LAWS[which]} at {subs[d_idx[a]]!r}, {subs[d_idx[b]]!r}",
                 checked=law.checked + pos + 1)
    law.checked += pairs


def _covered_joins(an, law):
    subs, masks = an.assembly.sublocales, an.assembly.masks
    d_idx = an.d_indices
    d = np.array(d_idx, dtype=np.intp)
    d_masks = [masks[i] for i in d_idx]
    first, second = np.nonzero(np.arange(d.size)[:, None] < np.arange(d.size))
    d_position = np.full(len(subs) + 1, -1)
    d_position[d] = np.arange(d.size)
    # the D-family position of each pair's join, -1 off the D-family
    joined = d_position[an.index_table([x | y for a, x in enumerate(d_masks)
                                        for y in d_masks[a + 1:]],
                                       an.frame.meet_close_masks)]
    covered = frames.mask_words((frames.mask_of(sy.covered_points_of(subs[i]))
                                 for i in d_idx), an.frame.n).T
    failed = _first_failure(
        joined < 0,
        (covered[:, joined] != covered[:, first] | covered[:, second]).any(axis=0))
    if failed:
        pos, which = failed
        i, j = subs[d_idx[first[pos]]], subs[d_idx[second[pos]]]
        law.fail(f"join of {i!r}, {j!r} is not a D-sublocale" if which == 0 else
                 f"covered points of the join of {i!r}, {j!r} differ from their union",
                 checked=law.checked + pos + 1)
    law.checked += first.size


@_battery("d_family_closure")
def law_d_family_closure(an, law):
    if an.whole not in an.d_family:
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
    subs, d_idx = an.assembly.sublocales, an.d_indices
    failed = _first_failure(~an.in_d_family[table[np.ix_(d_idx, others)]])
    if failed:
        a, b = divmod(failed[0], len(others))
        law.fail(f"{what} escapes at {subs[d_idx[a]]!r}, {subs[others[b]]!r}",
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
    order = _order_frame(assembly)
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
    sp_index = an.td_spatializations.get(assembly.index_of(an.whole.mask), -1)
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
                 f"{_ORDER_PAIR_LAWS[which]} at {assembly[i]!r}, {assembly[j]!r}",
                 checked=3 * (pos + 1))
    law.checked = 3 * k * k


@_battery("lifting")
def law_lifting(an, law):
    if len(an.assembly) > TRIPLE_SCAN_LIMIT:
        law.detail = "skipped: assembly too large"
        return
    for s in an.assembly:
        law.checked += 1
        try:
            lift = sy.lift_surjection(an.assembly, s)
        except ValueError as exc:   # NotLiftable, a FrameError or a failed law
            law.fail(f"no lift onto {s!r}: {exc}")
        if not lift.surjective:
            law.fail(f"lift onto {s!r} is not surjective")


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
