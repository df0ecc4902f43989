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
    n, meet, join = frame.n, frame.meet_rows, frame.join_rows
    bot, top = frame.bottom, frame.top
    return all(any(m == bot and j == top for m, j in zip(meet[x], join[x]))
               for x in range(n))


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
    smooth_frame, _ = subl.family_order_frame(an.smooth)
    return SuiteResult("td_spatial_characterization", (
        ("counit_injective", len(set(spec.sigma)) == frame.n),
        ("meets_of_covered", frames.is_td_spatial(frame)),
        ("smooth_lattice_spatial", frames.is_spatial(smooth_frame)),
        ("smooth_lattice_powerset",
         is_boolean_lattice(smooth_frame)
         and smooth_frame.n == 1 << len(an.covered)),
    ))


def strongly_td_spatial_suite(an):
    frame = an.frame
    spec = an.spectrum
    covered_all = an.covered == an.points
    injective = len(set(spec.sigma)) == frame.n
    spatial_frame, _ = subl.family_order_frame(an.spatial_family)
    return SuiteResult("strongly_td_spatial_characterization", (
        ("counit_injective_and_covered", injective and covered_all),
        ("meets_of_covered_and_covered",
         frames.is_td_spatial(frame) and covered_all),
        ("spatial_and_spectrum_td",
         frames.is_spatial(frame) and spaces.is_td(spec.space)),
        ("opens_of_sober_td_space",
         injective and spaces.is_td(spec.space) and spaces.is_sober(spec.space)),
        ("spatial_and_spatialpart_powerset",
         frames.is_spatial(frame) and is_boolean_lattice(spatial_frame)
         and spatial_frame.n == 1 << len(an.points)),
        ("smooth_eq_spatialpart", an.smooth == an.spatial_family),
    ))


def covered_primes_suite(an):
    every = frozenset(an.assembly)
    d_fam = an.d_family
    d_set, meets = set(an.d_indices), an.meets
    closed_pairs = all(meets[i][j] in d_set
                       for i in an.d_indices for j in an.d_indices)
    return SuiteResult("covered_primes_characterization", (
        ("all_primes_covered", an.covered == an.points),
        ("spatialpart_in_smooth", an.spatial_family <= an.smooth),
        ("d_is_everything", d_fam == every),
        ("d_closed_under_meets", an.whole in d_fam and closed_pairs),
        ("spatialpart_in_d", an.spatial_family <= d_fam),
    ), expect_all_true=True)


def total_td_spatiality_suite(an):
    frame = an.frame
    every = list(an.assembly)
    d_fam = an.d_family
    d_frame, _ = subl.family_order_frame(d_fam)
    zero = subl.zero(frame)
    return SuiteResult("total_td_spatiality_characterization", (
        ("all_sublocales_td_spatial",
         all(_intrinsically_td_spatial(s) for s in every)),
        ("all_d_sublocales_td_spatial",
         all(_intrinsically_td_spatial(s) for s in d_fam)),
        ("td_spatialization_fixes_d",
         all(sp == i for i, sp in an.td_spatializations.items())),
        ("d_lattice_powerset",
         is_boolean_lattice(d_frame) and d_frame.n == 1 << len(an.covered)),
        ("d_lattice_spatial_boolean",
         frames.is_spatial(d_frame) and is_boolean_lattice(d_frame)),
        ("smooth_eq_d_and_td_spatial",
         an.smooth == d_fam and frames.is_td_spatial(frame)),
        ("nonzero_has_intrinsic_covered_point",
         all(s == zero or sy.covered_points_of(s) for s in every)),
    ), expect_all_true=True)


def assembly_powerset_suite(an):
    frame = an.frame
    every = list(an.assembly)
    order, _ = subl.family_order_frame(an.assembly)
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
        ("assembly_powerset",
         is_boolean_lattice(order) and order.n == 1 << len(an.covered)),
        ("assembly_spatial_boolean",
         frames.is_spatial(order) and is_boolean_lattice(order)),
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
    """The pair table, after failing the battery at its first entry that
    is not an assembly member (None), so no None is read as an index."""
    subs = an.assembly.sublocales
    for i, row in enumerate(table):
        if None in row:
            law.fail(f"a {what} is not a sublocale at {subs[i]!r}, "
                     f"{subs[row.index(None)]!r}")
    return table


@_battery("difference_laws")
def law_difference(an, law):
    frame = an.frame
    assembly = an.assembly
    subs = assembly.sublocales
    masks = assembly.masks
    k = len(subs)
    zero_mask = 1 << frame.top
    diff = _members_only(law, an, an.differences, "difference")
    supp = [subl.supplement(t).mask for t in subs]
    # the second route: S\T holds exactly the primes of S not in T
    by_primes = assembly.by_primes
    bits = [assembly.primes_of[m] for m in masks]
    for i in range(k):
        for j in range(k):
            law.checked += 4
            d = masks[diff[i][j]]
            if d & ~masks[i]:
                law.fail(f"S\\T beyond S at {subs[i]!r}, {subs[j]!r}")
            if (d == zero_mask) != (masks[i] & ~masks[j] == 0):
                law.fail(f"S\\T=0 iff S<=T fails at {subs[i]!r}, {subs[j]!r}")
            if masks[j] & supp[j] == zero_mask and d != masks[i] & supp[j]:
                law.fail(f"S\\C law fails at {subs[i]!r}, {subs[j]!r}")
            if d != by_primes[bits[i] & ~bits[j]]:
                law.fail(f"S\\T prime-subset law fails at {subs[i]!r}, {subs[j]!r}")
    if k > TRIPLE_SCAN_LIMIT:
        law.detail = "skipped: triple scan, assembly too large"
        return
    # the join route this battery judges against: its own closures, off
    # the frame memo that difference reads
    close = functools.cache(frame.meet_close_mask)
    joined = [[close(masks[i] | masks[j]) for j in range(k)] for i in range(k)]
    meets = _members_only(law, an, an.meets, "meet")
    for i in range(k):
        drow = diff[i]
        for j in range(k):
            dij = drow[j]
            dj, meet_row = diff[dij], meets[j]
            for r in range(k):
                law.checked += 3
                if masks[drow[meet_row[r]]] != joined[dij][drow[r]]:
                    law.fail(f"S\\(T&R) law fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")
                if dj[r] != diff[drow[r]][j]:
                    law.fail(f"(S\\T)\\R law fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")
                if bool(masks[dij] & ~masks[r]) != bool(masks[i] & ~joined[j][r]):
                    law.fail(f"residuation fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")


@_battery("open_closed_identities")
def law_open_closed(an, law):
    frame = an.frame
    n = frame.n
    opens = [subl.open_sublocale(frame, a) for a in range(n)]
    closeds = [subl.closed_sublocale(frame, a) for a in range(n)]
    booleans = [subl.boolean_sublocale(frame, a) for a in range(n)]
    for a in range(n):
        join_row, meet_row = frame.join_rows[a], frame.meet_rows[a]
        for b in range(n):
            law.checked += 5
            jj, mm = join_row[b], meet_row[b]
            if closeds[jj] != subl.sublocale_meet(frame, [closeds[a], closeds[b]]):
                law.fail(f"closed-of-join at ({a},{b})")
            if opens[jj] != subl.sublocale_join(frame, [opens[a], opens[b]]):
                law.fail(f"open-of-join at ({a},{b})")
            if closeds[mm] != subl.sublocale_join(frame, [closeds[a], closeds[b]]):
                law.fail(f"closed-of-meet at ({a},{b})")
            if opens[mm] != subl.sublocale_meet(frame, [opens[a], opens[b]]):
                law.fail(f"open-of-meet at ({a},{b})")
            if booleans[frame.imp_rows[a][b]] != \
                    subl.sublocale_meet(frame, [opens[a], booleans[b]]):
                law.fail(f"boolean-of-implication at ({a},{b})")
    for a in range(n):
        law.checked += 2
        if subl.sublocale_meet(frame, [opens[a], closeds[a]]) != subl.zero(frame):
            law.fail(f"open meet closed not zero at {a}")
        if subl.sublocale_join(frame, [opens[a], closeds[a]]) != subl.whole(frame):
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
    for s in an.assembly:
        law.checked += 1
        nu = subl.sublocale_to_nucleus(s)
        if subl.nucleus_to_sublocale(nu) != s:
            law.fail(repr(s))


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
    d_idx = an.d_indices
    # sp[i]: the assembly index of the td-spatialization of member i
    sp = an.td_spatializations
    for i in d_idx:
        law.checked += 2
        if sp[i] is None:
            law.fail(f"td-spatialization of {subs[i]!r} is not a sublocale")
        if masks[sp[i]] & ~masks[i]:
            law.fail(f"td-spatialization inflates {subs[i]!r}")
        if sp.get(sp[i]) != sp[i]:
            law.fail(f"td-spatialization not idempotent on {subs[i]!r}")
    joins = _members_only(law, an, an.joins, "join")
    meets = _members_only(law, an, an.meets, "meet")
    # the image meet law depends only on sp[i] meet sp[j]: check each once
    image_meet_holds = {}
    for i in d_idx:
        sp_i, join_row = sp[i], joins[i]
        sp_join_row, sp_meet_row = joins[sp_i], meets[sp_i]
        for j in d_idx:
            law.checked += 1
            sp_j = sp[j]
            if masks[i] & ~masks[j] == 0 and masks[sp_i] & ~masks[sp_j]:
                law.fail("td-spatialization not monotone")
            if sp.get(join_row[j]) != sp_join_row[sp_j]:
                law.fail(f"join not preserved at {subs[i]!r}, {subs[j]!r}")
            inter = sp_meet_row[sp_j]
            if inter not in image_meet_holds:
                # meets inside the image go through the operator once more
                image_meet = sp.get(inter)
                below = [subs[sp[r]] for r in d_idx if not masks[sp[r]] & ~masks[inter]]
                image_meet_holds[inter] = image_meet is not None and \
                    subl.sublocale_join(frame, below) == subs[image_meet]
            if not image_meet_holds[inter]:
                law.fail(f"image meet law fails at {subs[i]!r}, {subs[j]!r}")
    # covered points distribute over joins of D-sublocales.  Checked on
    # pairs: a pair's join must be a D-sublocale again, and since
    # cl(cl(A | B) | C) = cl(A | B | C) the pair law gives the law for
    # families of every size.  Joins are closed here, off the frame memo
    # of sublocale_join.
    close = functools.cache(frame.meet_close_mask)
    covered = {masks[i]: sy.covered_points_of(subs[i]) for i in d_idx}
    for a, i in enumerate(d_idx):
        for j in d_idx[a + 1:]:
            law.checked += 1
            jmask = close(masks[i] | masks[j])
            if jmask not in covered:
                law.fail(f"join of {subs[i]!r}, {subs[j]!r} is not a D-sublocale")
            if covered[jmask] != covered[masks[i]] | covered[masks[j]]:
                law.fail(f"covered points of the join of {subs[i]!r}, "
                         f"{subs[j]!r} differ from their union")
    # the classical adjunction, between subsets of the primes and the
    # whole assembly, and the meet closure against its second route, the
    # join of the one-point sublocales
    report = sy.adjunction_law(frame, an.points, assembly, sy.points_of)
    law.checked += report.checked
    if not report.passed:
        law.fail(report.failures[0])
    pts = sorted(an.points)
    for sel in range(1 << len(pts)):
        y = [pts[i] for i in frames.bits_of(sel)]
        law.checked += 1
        if sy.meet_closure(frame, y) != subl.sublocale_join(
                frame, [subl.Sublocale(frame, {frame.top, p}) for p in y]):
            law.fail("meet closure disagrees with the join of points")


@_battery("d_family_closure")
def law_d_family_closure(an, law):
    if an.whole not in an.d_family:
        law.fail("whole frame not in family", checked=1)
    if not an.smooth <= an.d_family:
        law.fail("smooth not inside family", checked=1)
    # assembly order, so a failure names the same pair and count every run
    subs = an.assembly.sublocales
    d_set = set(an.d_indices)
    for table, others, what in ((an.joins, an.d_indices, "join"),
                                (an.differences, range(len(subs)), "difference")):
        for i in an.d_indices:
            row = table[i]
            for j in others:
                law.checked += 1
                if row[j] not in d_set:
                    law.fail(f"{what} escapes at {subs[i]!r}, {subs[j]!r}")


@_battery("assembly_order")
def law_assembly_order(an, law):
    """The order frame of the assembly really is the reversed coframe."""
    assembly = an.assembly
    # the order frame lists the members in assembly order, so its
    # elements are assembly indices, as are the table entries
    order, _ = subl.family_order_frame(assembly)
    frame = an.frame
    masks = assembly.masks
    for i, s in enumerate(masks):
        order_join, order_meet = order.join_rows[i], order.meet_rows[i]
        meet_row, join_row = an.meets[i], an.joins[i]
        for j, t in enumerate(masks):
            law.checked += 3
            if order_join[j] != meet_row[j]:
                law.fail("order join is not intersection")
            if order_meet[j] != join_row[j]:
                law.fail("order meet is not sublocale join")
            if assembly.join_mask(s, t) != masks[join_row[j]]:
                law.fail(f"prime-subset join law fails at "
                         f"{assembly[i]!r}, {assembly[j]!r}")
    # covered primes of the reversed assembly are the one-point sublocales
    expected = {assembly.index_of(1 << frame.top | 1 << p) for p in an.covered}
    got = frames.covered_primes(order)
    law.checked += 1
    if got != expected:
        law.fail("covered primes of the assembly are not the "
                 "one-point sublocales")
    # the td-spatial members form the boolean sublocale at the
    # td-spatialization of the whole frame
    sp_index = an.td_spatializations.get(assembly.index_of(an.whole.mask))
    image = set(an.td_spatializations.values())
    law.checked += 1
    if sp_index is None or image != subl.boolean_sublocale(order, sp_index).members:
        law.fail("td-spatial members differ from the boolean "
                 "sublocale at the td-spatialization")


@_battery("lifting")
def law_lifting(an, law):
    if len(an.assembly) > TRIPLE_SCAN_LIMIT:
        law.detail = "skipped: assembly too large"
        return
    for s in an.assembly:
        law.checked += 1
        try:
            lift = sy.lift_surjection(an.assembly, s)
        except sy.NotLiftable as exc:
            law.fail(f"no lift onto {s!r}: {exc}")
        # the adjoint-pair constructor has already verified meet/join
        # preservation and the adjunction; spot-check surjectivity
        if set(lift.pair.hom) != set(range(lift.pair.target.n)):
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
