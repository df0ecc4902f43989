"""Classification of a frame against the standard property table.

Every row of the table pairs a containment between distinguished
subsystems of the assembly with a property of the frame itself.  Both
sides are computed along independent routes and compared; a DISAGREE is
a bug signal, never a feature of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import frames
from . import spaces
from . import subsystems as sy
from .sublocales import DEFAULT_CAP, CapExceeded


def spectrum_is_scattered(frame):
    """Every nonempty subspace of the spectrum has an isolated point."""
    spec = spaces.spectrum(frame)
    pts = spec.space.points
    for sel in range(1, 1 << pts):
        sub = frozenset(frames.bits_of(sel))
        if not any(u & sub == {x} for x in sub for u in spec.space.opens):
            return False
    return True


def is_scattered_frame(frame):
    """Spatial with a scattered spectrum (the space-level reading)."""
    return frames.is_spatial(frame) and spectrum_is_scattered(frame)


def is_totally_spatial_by_essentials(frame):
    """Every element is the meet of its essential primes."""
    for a in range(frame.n):
        if frame.meet_of(sy.essential_primes(frame, a)) != a:
            return False
    return True


def is_d_scattered_by_pointless(analysis):
    """Sublocales with no intrinsic covered points are joins of complemented.

    The absolute form of being D-scattered: it quantifies over sublocales
    without mentioning the smooth family computed from supplements.
    """
    smooth_joins = analysis.smooth_by_joins
    for s in analysis.assembly:
        if not sy.covered_points_of(s) and s not in smooth_joins:
            return False
    return True


@dataclass(frozen=True)
class RowVerdict:
    key: str
    relation_text: str
    property_text: str
    relation_holds: bool
    property_holds: bool

    @property
    def agree(self):
        return self.relation_holds == self.property_holds


@dataclass
class Classification:
    name: str
    size: int
    booleans: dict
    assembly_size: int | None = None
    family_sizes: dict = field(default_factory=dict)
    rows: tuple = ()
    cap_exceeded: int | None = None

    @property
    def all_agree(self):
        return all(r.agree for r in self.rows)


def _row_definitions(analysis, booleans):
    """Rows as (key, relation text, property text, relation, property).

    Frame-level predicates come from classify_frame's booleans, whose
    scattered, d_scattered and totally_spatial entries are relation-side,
    so those three properties are computed here along their own routes.
    """
    frame = analysis.frame
    every = frozenset(analysis.assembly)
    smooth = analysis.smooth
    closed_joins = analysis.closed_joins
    d_fam = analysis.d_family
    spatial_fam = analysis.spatial_family

    spatial = booleans["spatial"]
    subfit = booleans["subfit"]
    scattered = is_scattered_frame(frame)
    covered_all = booleans["primes_covered"]
    maximal = booleans["primes_maximal"]
    strongly = booleans["strongly_td_spatial"]
    totally = is_totally_spatial_by_essentials(frame)
    d_scattered = is_d_scattered_by_pointless(analysis)

    return [
        ("smooth_in_spatial", "smooth <= spatial-part", "spatial",
         smooth <= spatial_fam, spatial),
        ("smooth_eq_spatial", "smooth = spatial-part", "strongly td-spatial",
         smooth == spatial_fam, strongly),
        ("smooth_eq_all", "smooth = all sublocales", "scattered",
         smooth == every, scattered),
        ("all_eq_d", "all sublocales = d-sublocales", "primes covered",
         every == d_fam, covered_all),
        ("all_eq_spatial", "all sublocales = spatial-part", "totally spatial",
         every == spatial_fam, totally),
        ("smooth_eq_d", "smooth = d-sublocales", "d-scattered",
         smooth == d_fam, d_scattered),
        ("d_in_smooth", "d-sublocales <= smooth", "d-scattered",
         d_fam <= smooth, d_scattered),
        ("d_in_spatial", "d-sublocales <= spatial-part", "totally spatial",
         d_fam <= spatial_fam, totally),
        ("spatial_in_d", "spatial-part <= d-sublocales", "primes covered",
         spatial_fam <= d_fam, covered_all),
        ("closedjoins_in_spatial", "closed-joins <= spatial-part", "spatial",
         closed_joins <= spatial_fam, spatial),
        ("spatial_in_closedjoins", "spatial-part <= closed-joins",
         "primes maximal", spatial_fam <= closed_joins, maximal),
        ("d_in_closedjoins", "d-sublocales <= closed-joins",
         "subfit and d-scattered", d_fam <= closed_joins,
         subfit and d_scattered),
        ("d_eq_closedjoins", "d-sublocales = closed-joins",
         "subfit and d-scattered", d_fam == closed_joins,
         subfit and d_scattered),
        ("all_eq_closedjoins", "all sublocales = closed-joins",
         "subfit and scattered", every == closed_joins,
         subfit and scattered),
    ]


def classify_frame(frame, cap=DEFAULT_CAP, name="frame"):
    """Full classification; degrades to frame-level predicates on cap overflow."""
    spatial = frames.is_spatial(frame)
    primes_covered = frames.covered_primes(frame) == frames.primes(frame)
    booleans = {
        "spatial": spatial,
        "subfit": frames.is_subfit(frame),
        "primes_covered": primes_covered,
        "primes_maximal": frames.maximal_primes_only(frame),
        "td_spatial": frames.is_td_spatial(frame),
        # frames.is_strongly_td_spatial, from the two values above
        "strongly_td_spatial": spatial and primes_covered,
    }
    out = Classification(name=name, size=frame.n, booleans=booleans)
    analysis = sy.FrameAnalysis(frame, cap)
    try:
        assembly = analysis.assembly
    except CapExceeded as exc:
        out.cap_exceeded = exc.count
        return out
    out.assembly_size = len(assembly)
    out.family_sizes = {
        "smooth": len(analysis.smooth),
        "closed_joins": len(analysis.closed_joins),
        "d_sublocales": len(analysis.d_family),
        "spatial_sublocales": len(analysis.spatial_family),
    }
    booleans.update({
        "scattered": analysis.smooth == frozenset(assembly),
        "d_scattered": analysis.d_family <= analysis.smooth,
        "totally_spatial": frozenset(assembly) == analysis.spatial_family,
    })
    out.rows = tuple(RowVerdict(key, rel_text, prop_text, rel, prop)
                     for key, rel_text, prop_text, rel, prop
                     in _row_definitions(analysis, booleans))
    return out


def classification_text(c):
    lines = [f"frame: {c.name}", f"elements: {c.size}"]
    if c.cap_exceeded is not None:
        lines.append(f"assembly: cap exceeded at {c.cap_exceeded}")
    else:
        lines.append(f"assembly: {c.assembly_size}")
        for key in ("smooth", "closed_joins", "d_sublocales", "spatial_sublocales"):
            lines.append(f"{key}: {c.family_sizes[key]}")
    for key in sorted(c.booleans):
        lines.append(f"{key}: {'true' if c.booleans[key] else 'false'}")
    for r in c.rows:
        flag = "AGREE" if r.agree else "DISAGREE"
        lines.append(f"row {r.key}: relation[{r.relation_text}]="
                     f"{'true' if r.relation_holds else 'false'} "
                     f"property[{r.property_text}]="
                     f"{'true' if r.property_holds else 'false'} {flag}")
    if c.rows:
        lines.append(f"verdict: {'AGREE' if c.all_agree else 'DISAGREE'}")
    return "\n".join(lines) + "\n"


def classification_keyvalue(c):
    lines = [f"name={c.name}", f"size={c.size}"]
    if c.cap_exceeded is not None:
        lines.append("assembly=cap_exceeded")
        lines.append(f"cap_reached={c.cap_exceeded}")
    else:
        lines.append(f"assembly={c.assembly_size}")
        for key in ("smooth", "closed_joins", "d_sublocales", "spatial_sublocales"):
            lines.append(f"{key}={c.family_sizes[key]}")
    for key in sorted(c.booleans):
        lines.append(f"{key}={'true' if c.booleans[key] else 'false'}")
    for r in c.rows:
        lines.append(f"row.{r.key}.relation={'true' if r.relation_holds else 'false'}")
        lines.append(f"row.{r.key}.property={'true' if r.property_holds else 'false'}")
        lines.append(f"row.{r.key}.agree={'true' if r.agree else 'false'}")
    if c.rows:
        lines.append(f"agree_all={'true' if c.all_agree else 'false'}")
    return "\n".join(lines) + "\n"
