"""Deterministic DOT export of Hasse diagrams.

Frames draw bottom-up by the cover relation.  Assemblies mark closed
sublocales as boxes, open ones as ellipses (closed wins when both), and
one-point sublocales of primes are shaded.  Node order is lexicographic
in the member lists so the output is stable for golden-file tests.
"""

from __future__ import annotations

import numpy as np

from . import frames as fr


def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', r'\"') + '"'


def frame_dot(frame):
    lines = ["digraph frame {", "  rankdir=BT;"]
    for i in range(frame.n):
        lines.append(f"  n{i} [label={_quote(frame.labels[i])}];")
    rows, cols = np.nonzero(frame.covers)
    lines += [f"  n{i} -> n{j};" for i, j in zip(rows.tolist(), cols.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"


def assembly_dot(assembly):
    frame = assembly.frame
    closed, opens = set(frame.up_masks), set(frame.open_masks)
    shaded = {1 << frame.top | 1 << p for p in fr.primes(frame)}
    lines = ["digraph assembly {", "  rankdir=BT;"]
    for i, s in enumerate(assembly):
        attrs = [f"label={_quote(repr(s))}"]
        if s.mask in closed:
            attrs.append("shape=box")
        elif s.mask in opens:
            attrs.append("shape=ellipse")
        if s.mask in shaded:
            attrs.append("style=filled")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    # cover relation of the inclusion order, without validating the order
    # as a frame: that check holds k^3 integers in memory
    covers = fr.cover_relation(fr.inclusion_order(s.mask for s in assembly))
    for i, j in zip(*covers.nonzero()):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def space_dot(space):
    """Specialization preorder, drawn on equivalence classes of points."""
    m = space.points
    opens = list(space.opens)
    # below[x, y]: x in closure of {y}, i.e. every open around x holds y
    below = fr.inclusion_order(
        fr.mask_of(k for k, u in enumerate(opens) if x in u) for x in range(m))
    classes = []
    for x in range(m):
        if not any(x in cls for cls in classes):
            classes.append([y for y in range(m) if below[x, y] and below[y, x]])
    lines = ["digraph space {", "  rankdir=BT;"]
    for i, cls in enumerate(classes):
        label = "=".join(str(x) for x in sorted(cls))
        lines.append(f"  n{i} [label={_quote(label)}];")
    reps = [cls[0] for cls in classes]
    for i, j in zip(*fr.cover_relation(below[np.ix_(reps, reps)]).nonzero()):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
