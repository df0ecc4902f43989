"""Equivalence-theorem suites and law batteries over one frame.

Each suite evaluates the numbered conditions of one characterization
theorem along independent computational routes and demands that they all
agree.  Law batteries check the identities the engine is built on
(difference laws, open/closed homomorphism identities, the meet-closure
adjunction, lifting, essential primes).  A failure in either is a bug in
the engine or a real counterexample; both are reported with witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import classify
from . import frames
from . import spaces
from . import sublocales as subl
from . import subsystems as sy
from .sublocales import Sublocale


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


class _NotEvenASublocale(Exception):
    """An operation produced a set outside the assembly."""


def is_boolean_lattice(frame):
    """Every element complemented: meet to bottom, join to top."""
    n, meet, join = frame.n, frame.meet, frame.join
    bot, top = frame.bottom, frame.top
    return all(any(meet[x, y] == bot and join[x, y] == top for y in range(n))
               for x in range(n))


def _intrinsically_td_spatial(sub):
    """Every member is the meet of the sublocale's covered points above it."""
    cov = sy.covered_points_of(sub)
    frame = sub.frame
    return all(frame.meet_of(p for p in cov if frame.leq[s, p]) == s
               for s in sub.members)


def _intrinsically_spatial(sub):
    pts = sy.points_of(sub)
    frame = sub.frame
    return all(frame.meet_of(p for p in pts if frame.leq[s, p]) == s
               for s in sub.members)


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
    spec = spaces.spectrum(frame)
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
    closed_pairs = all(
        subl.sublocale_meet(an.frame, [s, t]) in d_fam
        for s in d_fam for t in d_fam)
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
         all(sy.td_spatialization(s) == s for s in d_fam)),
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
    order = an.assembly.order_frame
    covered_all = an.covered == an.points
    zero = subl.zero(frame)

    def covered_essentials(a):
        return sy.essential_primes(frame, a) & an.covered

    def covered_abs_essentials(a):
        return sy.absolutely_essential_primes(frame, a) & an.covered

    return SuiteResult("assembly_powerset_characterization", (
        ("totally_spatial_and_covered",
         all(sy.spatialization(s) == s for s in every) and covered_all),
        ("totally_spatial_and_strongly_td",
         all(sy.spatialization(s) == s for s in every)
         and frames.is_strongly_td_spatial(frame)),
        ("all_sublocales_strongly_td",
         all(_intrinsically_spatial(s)
             and sy.sub_covered_primes(s) == sy.sub_primes(s) for s in every)),
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
        ("all_sublocales_spatial",
         all(sy.spatialization(s) == s for s in an.assembly)),
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


def law_difference(an):
    frame = an.frame
    assembly = an.assembly
    subs = list(assembly)
    k = len(subs)
    masks = [s.mask for s in subs]
    zero_mask = 1 << frame.top

    def idx(mask):
        try:
            return assembly.index_of_mask(mask)
        except KeyError:
            raise _NotEvenASublocale(mask) from None

    diff = [[subl.difference(s, t).mask for t in subs] for s in subs]
    joined = [[frame.meet_close_mask(masks[i] | masks[j]) for j in range(k)]
              for i in range(k)]
    supp = [subl.supplement(t).mask for t in subs]
    try:
        return _difference_scan(frame, assembly, subs, masks, zero_mask,
                                idx, diff, joined, supp)
    except _NotEvenASublocale as exc:
        return LawResult("difference_laws", False, 0,
                         f"a difference is not a sublocale "
                         f"(mask {exc.args[0]:#x})")


def _difference_scan(frame, assembly, subs, masks, zero_mask, idx, diff,
                     joined, supp):
    k = len(subs)
    checked = 0
    for i in range(k):
        for j in range(k):
            checked += 3
            d = diff[i][j]
            if d & ~masks[i]:
                return LawResult("difference_laws", False, checked,
                                 f"S\\T beyond S at {subs[i]!r}, {subs[j]!r}")
            if (d == zero_mask) != (masks[i] & ~masks[j] == 0):
                return LawResult("difference_laws", False, checked,
                                 f"S\\T=0 iff S<=T fails at {subs[i]!r}, {subs[j]!r}")
            if masks[j] & supp[j] == zero_mask and d != masks[i] & supp[j]:
                return LawResult("difference_laws", False, checked,
                                 f"S\\C law fails at {subs[i]!r}, {subs[j]!r}")
    if k <= TRIPLE_SCAN_LIMIT:
        for i in range(k):
            drow = diff[i]
            for j in range(k):
                dij = drow[j]
                dj = diff[idx(dij)]
                for r in range(k):
                    checked += 3
                    if drow[idx(masks[j] & masks[r])] != \
                            joined[idx(dij)][idx(drow[r])]:
                        return LawResult(
                            "difference_laws", False, checked,
                            f"S\\(T&R) law fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")
                    if dj[r] != diff[idx(drow[r])][j]:
                        return LawResult(
                            "difference_laws", False, checked,
                            f"(S\\T)\\R law fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")
                    if bool(dij & ~masks[r]) != bool(masks[i] & ~joined[j][r]):
                        return LawResult(
                            "difference_laws", False, checked,
                            f"residuation fails at {subs[i]!r},{subs[j]!r},{subs[r]!r}")
    return LawResult("difference_laws", True, checked)


def law_open_closed(an):
    frame = an.frame
    n = frame.n
    opens = [subl.open_sublocale(frame, a) for a in range(n)]
    closeds = [subl.closed_sublocale(frame, a) for a in range(n)]
    booleans = [subl.boolean_sublocale(frame, a) for a in range(n)]
    checked = 0
    for a in range(n):
        for b in range(n):
            checked += 5
            jj, mm = int(frame.join[a, b]), int(frame.meet[a, b])
            if closeds[jj] != subl.sublocale_meet(frame, [closeds[a], closeds[b]]):
                return LawResult("open_closed_identities", False, checked,
                                 f"closed-of-join at ({a},{b})")
            if opens[jj] != subl.sublocale_join(frame, [opens[a], opens[b]]):
                return LawResult("open_closed_identities", False, checked,
                                 f"open-of-join at ({a},{b})")
            if closeds[mm] != subl.sublocale_join(frame, [closeds[a], closeds[b]]):
                return LawResult("open_closed_identities", False, checked,
                                 f"closed-of-meet at ({a},{b})")
            if opens[mm] != subl.sublocale_meet(frame, [opens[a], opens[b]]):
                return LawResult("open_closed_identities", False, checked,
                                 f"open-of-meet at ({a},{b})")
            if booleans[frame.imp_rows[a][b]] != \
                    subl.sublocale_meet(frame, [opens[a], booleans[b]]):
                return LawResult("open_closed_identities", False, checked,
                                 f"boolean-of-implication at ({a},{b})")
    for a in range(n):
        checked += 2
        if subl.sublocale_meet(frame, [opens[a], closeds[a]]) != subl.zero(frame):
            return LawResult("open_closed_identities", False, checked,
                             f"open meet closed not zero at {a}")
        if subl.sublocale_join(frame, [opens[a], closeds[a]]) != subl.whole(frame):
            return LawResult("open_closed_identities", False, checked,
                             f"open join closed not whole at {a}")
    return LawResult("open_closed_identities", True, checked)


def law_zero_dimensional(an):
    """Every sublocale is the meet of the basic complemented ones above it."""
    frame = an.frame
    n = frame.n
    basics = {}
    for x in range(n):
        for y in range(n):
            basics[x, y] = subl.sublocale_join(
                frame, [subl.open_sublocale(frame, x),
                        subl.closed_sublocale(frame, y)])
    checked = 0
    for s in an.assembly:
        checked += 1
        acc = (1 << n) - 1
        for b in basics.values():
            if s.members <= b.members:
                acc &= b.mask
        if acc != s.mask:
            return LawResult("zero_dimensionality", False, checked,
                             f"not an intersection of basics: {s!r}")
    return LawResult("zero_dimensionality", True, checked)


def law_nucleus_roundtrip(an):
    checked = 0
    for s in an.assembly:
        checked += 1
        nu = subl.sublocale_to_nucleus(s)
        if subl.nucleus_to_sublocale(nu) != s:
            return LawResult("nucleus_roundtrip", False, checked, repr(s))
    return LawResult("nucleus_roundtrip", True, checked)


def law_covered_degeneracy(an):
    """Finite degeneracy: primes and covered primes coincide, also inside
    every sublocale (the divergence needs an infinite frame)."""
    if frames.covered_primes(an.frame) != frames.primes(an.frame):
        return LawResult("covered_degeneracy", False, 1, "frame level")
    checked = 1
    for s in an.assembly:
        checked += 1
        if sy.sub_covered_primes(s) != sy.sub_primes(s):
            return LawResult("covered_degeneracy", False, checked, repr(s))
    return LawResult("covered_degeneracy", True, checked)


def law_spectra(an):
    frame = an.frame
    spec = spaces.spectrum(frame)
    checked = 2
    if not spaces.is_sober(spec.space):
        return LawResult("spectra", False, checked, "spectrum not sober")
    if not spaces.is_td(spaces.spectrum_td(frame).space):
        return LawResult("spectra", False, checked, "covered spectrum not td")
    # finite frames are spatial: the counit is injective
    checked += 1
    if len(set(spec.sigma)) != frame.n:
        return LawResult("spectra", False, checked, "counit not injective")
    for s in an.assembly:
        checked += 1
        if sy.points_of(s) != an.points & s.members:
            return LawResult("spectra", False, checked,
                             f"intrinsic vs ambient points differ on {s!r}")
    return LawResult("spectra", True, checked)


def law_td_adjunction(an):
    frame = an.frame
    report = sy.check_td_adjunction(frame, an.cap)
    if not report.passed:
        return LawResult("td_adjunction", False, report.checked,
                         report.failures[0])
    checked = report.checked
    d_fam = sorted(an.d_family, key=Sublocale.sort_key)
    sp_d = {s: sy.td_spatialization(s) for s in d_fam}
    for s in d_fam:
        checked += 2
        if not sp_d[s].members <= s.members:
            return LawResult("td_adjunction", False, checked,
                             f"td-spatialization inflates {s!r}")
        if sp_d[s] != sy.td_spatialization(sp_d[s]):
            return LawResult("td_adjunction", False, checked,
                             f"td-spatialization not idempotent on {s!r}")
    for s in d_fam:
        for t in d_fam:
            checked += 1
            if s.members <= t.members and not sp_d[s].members <= sp_d[t].members:
                return LawResult("td_adjunction", False, checked,
                                 "td-spatialization not monotone")
            j = subl.sublocale_join(frame, [s, t])
            if sp_d[j] != subl.sublocale_join(frame, [sp_d[s], sp_d[t]]):
                return LawResult("td_adjunction", False, checked,
                                 f"join not preserved at {s!r}, {t!r}")
            # meets inside the image go through the operator once more
            image_meet = sy.td_spatialization(
                subl.sublocale_meet(frame, [sp_d[s], sp_d[t]]))
            below = [sp_d[r] for r in d_fam
                     if sp_d[r].members <= sp_d[s].members & sp_d[t].members]
            if subl.sublocale_join(frame, below) != image_meet:
                return LawResult("td_adjunction", False, checked,
                                 f"image meet law fails at {s!r}, {t!r}")
    # covered points distribute over joins of d-sublocales, families <= 3
    if len(d_fam) <= TRIPLE_SCAN_LIMIT:
        covered_by_mask = {}

        def covered_of_mask(mask):
            if mask not in covered_by_mask:
                covered_by_mask[mask] = sy.covered_points_of(
                    subl._from_mask(frame, mask))
            return covered_by_mask[mask]

        for size in (2, 3):
            for fam in itertools.combinations(d_fam, size):
                checked += 1
                jmask = frame.meet_close_mask(
                    fam[0].mask | fam[1].mask | fam[-1].mask)
                union = frozenset().union(*(covered_of_mask(s.mask) for s in fam))
                if covered_of_mask(jmask) != union:
                    return LawResult("td_adjunction", False, checked,
                                     "covered points of join differ from union")
    # classical adjunction law, same shape with plain primes; the meet
    # closure is checked against its second route, the join of points
    pts = sorted(an.points)
    subs = list(an.assembly)
    for sel in range(1 << len(pts)):
        y = frozenset(pts[i] for i in frames.bits_of(sel))
        m = sy.meet_closure(frame, sy.PrimeSubset(frame, y, classical=True))
        checked += 1
        if m != subl.sublocale_join(
                frame, [Sublocale(frame, {frame.top, p}) for p in y]):
            return LawResult("td_adjunction", False, checked,
                             "meet closure disagrees with the join of points")
        for s in subs:
            checked += 1
            if (m.members <= s.members) != (y <= sy.points_of(s)):
                return LawResult("td_adjunction", False, checked,
                                 "classical adjunction law fails")
    return LawResult("td_adjunction", True, checked)


def law_d_family_closure(an):
    frame = an.frame
    d_fam = an.d_family
    checked = 0
    if an.whole not in d_fam:
        return LawResult("d_family_closure", False, 1, "whole frame not in family")
    if not an.smooth <= d_fam:
        return LawResult("d_family_closure", False, 1, "smooth not inside family")
    for s in d_fam:
        for t in d_fam:
            checked += 1
            if not sy.is_d_sublocale(subl.sublocale_join(frame, [s, t])):
                return LawResult("d_family_closure", False, checked,
                                 f"join escapes at {s!r}, {t!r}")
    for s in d_fam:
        for t in an.assembly:
            checked += 1
            if not sy.is_d_sublocale(subl.difference(s, t)):
                return LawResult("d_family_closure", False, checked,
                                 f"difference escapes at {s!r}, {t!r}")
    return LawResult("d_family_closure", True, checked)


def law_assembly_order(an):
    """The order frame of the assembly really is the reversed coframe."""
    assembly = an.assembly
    order = assembly.order_frame
    frame = an.frame
    checked = 0
    for i, s in enumerate(assembly):
        for j, t in enumerate(assembly):
            checked += 2
            inter = subl.sublocale_meet(frame, [s, t])
            if assembly[int(order.join[i, j])] != inter:
                return LawResult("assembly_order", False, checked,
                                 "order join is not intersection")
            if assembly[int(order.meet[i, j])] != \
                    subl.sublocale_join(frame, [s, t]):
                return LawResult("assembly_order", False, checked,
                                 "order meet is not sublocale join")
    # covered primes of the reversed assembly are the one-point sublocales
    expected = {assembly.index_of(Sublocale(frame, {frame.top, p}))
                for p in an.covered}
    got = frames.covered_primes(order)
    checked += 1
    if got != frozenset(expected):
        return LawResult("assembly_order", False, checked,
                         "covered primes of the assembly are not the "
                         "one-point sublocales")
    # the td-spatial members form the boolean sublocale at the
    # td-spatialization of the whole frame
    sp_index = assembly.index_of(sy.td_spatialization(an.whole))
    bool_at = subl.boolean_sublocale(order, sp_index)
    image = {assembly.index_of(sy.td_spatialization(s)) for s in an.d_family}
    checked += 1
    if frozenset(image) != bool_at.members:
        return LawResult("assembly_order", False, checked,
                         "td-spatial members differ from the boolean "
                         "sublocale at the td-spatialization")
    return LawResult("assembly_order", True, checked)


def _interior_operators(frame):
    """Interior operators to exercise: crops by one element, operators
    induced by pair-generated join-closed subsets, and a few random
    join-closed subsets (seeded by the frame size, so runs stay stable)."""
    ops = []
    for c in range(frame.n):
        ops.append(tuple(int(frame.meet[x, c]) for x in range(frame.n)))

    def from_join_closed(closed):
        return tuple(frame.join_of(c for c in closed if frame.leq[c, x])
                     for x in range(frame.n))

    for a in range(frame.n):
        for b in range(a + 1, frame.n):
            ops.append(from_join_closed(
                {frame.bottom, a, b, int(frame.join[a, b])}))
    rng = __import__("random").Random(frame.n * 7919 + 1)
    for _ in range(5):
        seed = {frame.bottom} | {rng.randrange(frame.n) for _ in range(3)}
        closed = set(seed)
        while True:
            grown = closed | {int(frame.join[x, y])
                              for x in closed for y in closed}
            if grown == closed:
                break
            closed = grown
        ops.append(from_join_closed(closed))
    return ops


def law_interior_operators(an):
    """Image lattices of interior operators behave as the host lattice for
    joins, with meets corrected through the operator; the surjection onto
    the image preserves meets."""
    frame = an.frame
    checked = 0
    for table in _interior_operators(frame):
        image = sorted(set(table))
        for x in image:
            if table[x] != x:
                return LawResult("interior_operators", False, checked,
                                 "image not fixed")
        for x in image:
            for y in image:
                checked += 2
                j = int(frame.join[x, y])
                if table[j] != j:
                    return LawResult("interior_operators", False, checked,
                                     "join left the image")
                m_host = int(frame.meet[x, y])
                m_img = table[m_host]
                # greatest lower bound within the image
                below = [z for z in image if frame.leq[z, x] and frame.leq[z, y]]
                if frame.join_of(below) != m_img:
                    return LawResult("interior_operators", False, checked,
                                     "image meet is not the corrected meet")
                if table[m_host] != table[int(frame.meet[table[x], table[y]])]:
                    return LawResult("interior_operators", False, checked,
                                     "surjection fails to preserve meets")
    return LawResult("interior_operators", True, checked)


def law_lifting(an):
    frame = an.frame
    if len(an.assembly) > TRIPLE_SCAN_LIMIT:
        return LawResult("lifting", True, 0, "skipped: assembly too large")
    checked = 0
    for s in an.assembly:
        checked += 1
        lift = sy.lift_surjection(frame, s, an.cap)
        # the adjoint-pair constructor has already verified meet/join
        # preservation and the adjunction; spot-check surjectivity
        if set(lift.pair.hom) != set(range(lift.pair.target.n)):
            return LawResult("lifting", False, checked,
                             f"lift onto {s!r} is not surjective")
    return LawResult("lifting", True, checked)


def law_essential_primes(an):
    frame = an.frame
    pts = sorted(an.points)
    checked = 0
    for a in range(frame.n):
        ess = sy.essential_primes(frame, a)
        abse = sy.absolutely_essential_primes(frame, a)
        above = sy.primes_above(frame, a)
        # absolute essentiality == membership in every prime decomposition
        for p in above:
            checked += 1
            in_every = all(
                p in sel
                for sel in ({pts[i] for i in frames.bits_of(bitsel)}
                            for bitsel in range(1 << len(pts)))
                if frame.meet_of(sel) == a)
            if in_every != (p in abse):
                return LawResult("essential_primes", False, checked,
                                 f"absolute essentiality mismatch at a={a} p={p}")
            weak = sy.weakly_covered(frame, p)
            if (p in abse) != (weak and p in ess):
                return LawResult("essential_primes", False, checked,
                                 f"weakly-covered split fails at a={a} p={p}")
        # essential primes are the points of the boolean sublocale at a
        checked += 1
        if ess != sy.points_of(subl.boolean_sublocale(frame, a)):
            return LawResult("essential_primes", False, checked,
                             f"essential primes differ from boolean points at {a}")
        # covered and essential implies absolutely essential
        checked += 1
        if not (ess & an.covered) <= abse:
            return LawResult("essential_primes", False, checked,
                             f"covered essential not absolute at {a}")
    for p in pts:
        checked += 1
        if p not in sy.essential_primes(frame, p):
            return LawResult("essential_primes", False, checked,
                             f"prime {p} not essential for itself")
    return LawResult("essential_primes", True, checked)


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
    law_interior_operators,
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


def verify_frame_theorems(frame, cap=1 << 16, name="frame"):
    """Run every suite and battery on one frame, trapping engine errors."""
    an = sy.FrameAnalysis(frame, cap)
    try:
        suites = run_theorem_suites(an)
        laws = run_law_batteries(an)
    except Exception as exc:           # an engine crash is a failed verdict
        return FrameVerdict(name, [], [], error=f"{type(exc).__name__}: {exc}")
    return FrameVerdict(name, suites, laws)
