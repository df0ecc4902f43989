"""Finite topological spaces, spectra, separation axioms, and subspaces.

Spaces are point sets 0..m-1 with an explicit family of opens.  The
open-set lattice of a space is a frame; primes and covered primes of a
frame give back spaces (the classical and the covered-prime spectrum).
Subspaces induce sublocales through the largest-open nucleus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import frames
from .sublocales import Sublocale


class SpaceError(ValueError):
    pass


class SpaceFormatError(SpaceError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FiniteSpace:
    """Immutable finite space; hashable so derived frames can be cached."""

    points: int
    opens: frozenset[frozenset[int]]

    def __post_init__(self):
        full = frozenset(range(self.points))
        opens = self.opens
        if any(not u <= full for u in opens):
            raise SpaceError("an open mentions a point that does not exist")
        if frozenset() not in opens or full not in opens:
            raise SpaceError("a topology must contain the empty set and the space")
        for u in opens:
            for v in opens:
                if u | v not in opens:
                    raise SpaceError(f"not closed under union: {sorted(u)} | {sorted(v)}")
                if u & v not in opens:
                    raise SpaceError(f"not closed under intersection: "
                                     f"{sorted(u)} & {sorted(v)}")

    def closure_of(self, pts):
        """Complement of the union of opens missing every given point."""
        avoid = frozenset().union(*(u for u in self.opens if not u & pts))
        return frozenset(range(self.points)) - avoid


def space(points, opens):
    return FiniteSpace(points, frozenset(frozenset(u) for u in opens))


def discrete(points):
    subsets = [frozenset(s) for r in range(points + 1)
               for s in itertools.combinations(range(points), r)]
    return FiniteSpace(points, frozenset(subsets))


def indiscrete(points):
    return space(points, [frozenset(), frozenset(range(points))])


def sierpinski():
    """Two points; point 1 is open, point 0 is closed."""
    return space(2, [[], [1], [0, 1]])


def from_preorder(rel):
    """The topology of all upsets of a preorder (every finite space arises so)."""
    rel = np.asarray(rel, dtype=bool)
    m = rel.shape[0]
    ups = set()
    for mask in range(1 << m):
        pts = frozenset(frames.bits_of(mask))
        if all(rel[x, y] <= (y in pts) for x in pts for y in range(m)):
            ups.add(pts)
    return FiniteSpace(m, frozenset(ups))


def all_spaces(points):
    """All topologies on the given point count, one per preorder.

    Only off-diagonal pairs are chosen, so each preorder comes once.
    """
    pairs = [(i, j) for i in range(points) for j in range(points) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        rel = np.eye(points, dtype=bool)
        for t in frames.bits_of(mask):
            rel[pairs[t]] = True
        closed = rel.copy()
        for k in range(points):
            closed |= closed[:, k, None] & closed[None, k, :]
        if (closed == rel).all():
            out.append(from_preorder(rel))
    return out


# ---------------------------------------------------------------------------
# the open-set frame and the spectra

@dataclass(frozen=True)
class OmegaFrame:
    """The open-set lattice as a frame plus the element <-> open bijection."""

    frame: frames.FiniteFrame
    opens: tuple[frozenset[int], ...]

    def index_of(self, u):
        return self.opens.index(frozenset(u))

    def open_of(self, i):
        return self.opens[i]


@lru_cache(maxsize=None)
def omega(sp):
    """Open-set lattice of a space, ordered by inclusion.

    Cached per space so that sublocales built from one space share a
    frame object.
    """
    opens = sorted(sp.opens, key=lambda u: (len(u), tuple(sorted(u))))
    leq = frames.inclusion_order(frames.mask_of(u) for u in opens)
    labels = ["{" + ",".join(str(x) for x in sorted(u)) + "}" for u in opens]
    return OmegaFrame(frames.verify_frame(leq, labels=labels), tuple(opens))


@dataclass(frozen=True)
class SpectrumSpace:
    """A spectrum: the space plus which frame element each point came from."""

    space: FiniteSpace
    prime_of_point: tuple[int, ...]
    sigma: tuple[frozenset[int], ...]   # sigma[a] = points whose prime misses a


def _spectrum_from(frame, prime_list):
    prime_list = sorted(prime_list)
    pos = {p: i for i, p in enumerate(prime_list)}
    sigma = tuple(frozenset(pos[p] for p in prime_list if not frame.leq[a, p])
                  for a in range(frame.n))
    sp = FiniteSpace(len(prime_list), frozenset(sigma))
    return SpectrumSpace(sp, tuple(prime_list), sigma)


def spectrum(frame):
    """Classical spectrum: primes, opened by the elements not below them."""
    return _spectrum_from(frame, frames.primes(frame))


def spectrum_td(frame):
    """Covered-prime spectrum; always produces a T_D space."""
    return _spectrum_from(frame, frames.covered_primes(frame))


# ---------------------------------------------------------------------------
# separation axioms

def is_t0(sp):
    for x in range(sp.points):
        for y in range(x + 1, sp.points):
            if all((x in u) == (y in u) for u in sp.opens):
                return False
    return True


def is_td(sp):
    """Every point has an open neighbourhood that stays open without it."""
    for x in range(sp.points):
        if not any(u - {x} in sp.opens for u in sp.opens if x in u):
            return False
    return True


def is_sober(sp):
    """Every prime open is the complement of exactly one point closure."""
    om = omega(sp)
    full = frozenset(range(sp.points))
    comp_closures = [full - sp.closure_of(frozenset({x})) for x in range(sp.points)]
    for p in frames.primes(om.frame):
        u = om.open_of(p)
        if sum(1 for c in comp_closures if c == u) != 1:
            return False
    return True


def skula(sp):
    """Topology generated by the opens together with their complements."""
    full = frozenset(range(sp.points))
    family = set(sp.opens) | {full - u for u in sp.opens}
    changed = True
    while changed:
        changed = False
        pairs = list(family)
        for u in pairs:
            for v in pairs:
                for w in (u & v, u | v):
                    if w not in family:
                        family.add(w)
                        changed = True
    return FiniteSpace(sp.points, frozenset(family))


def homeomorphic(sp_a, sp_b):
    """Exhaustive bijection search; meant for desk-scale spaces only."""
    if sp_a.points != sp_b.points or len(sp_a.opens) != len(sp_b.opens):
        return False
    for perm in itertools.permutations(range(sp_a.points)):
        if all(frozenset(perm[x] for x in u) in sp_b.opens for u in sp_a.opens):
            return True
    return False


# ---------------------------------------------------------------------------
# subspaces as sublocales

def omega_prime(sp, pts):
    """The sublocale of omega(sp) induced by a subspace.

    Image of the nucleus sending an open U to the largest open V with
    V meet A = U meet A.
    """
    pts = frozenset(pts)
    if any(not 0 <= x < sp.points for x in pts):
        raise SpaceError("subspace mentions unknown points")
    om = omega(sp)
    members = set()
    for u in om.opens:
        best = frozenset().union(*(v for v in om.opens if v & pts <= u & pts))
        members.add(om.index_of(best))
    return Sublocale(om.frame, members)


# ---------------------------------------------------------------------------
# space text format:  `points: n`, `open: i j k` (one line per open)

def parse_space_text(text):
    m = None
    opens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise SpaceFormatError(f"expected 'key: value', got {line!r}", lineno)
        fields = rest.split()
        if key == "points":
            if m is not None:
                raise SpaceFormatError("duplicate 'points' line", lineno)
            if len(fields) != 1 or not fields[0].isdigit():
                raise SpaceFormatError("'points' takes one decimal count", lineno)
            m = int(fields[0])
        elif key == "open":
            if not all(f.isdigit() for f in fields):
                raise SpaceFormatError("'open' takes decimal point ids", lineno)
            opens.append((frozenset(int(f) for f in fields), lineno))
        else:
            raise SpaceFormatError(f"unknown key {key!r}", lineno)
    if m is None:
        raise SpaceFormatError("missing 'points' line")
    for u, lineno in opens:
        if any(not 0 <= x < m for x in u):
            raise SpaceFormatError("point id out of range", lineno)
    try:
        return FiniteSpace(m, frozenset(u for u, _ in opens))
    except SpaceError as exc:
        raise SpaceFormatError(str(exc)) from exc


def load_space(path):
    with open(path, encoding="ascii") as fh:
        return parse_space_text(fh.read())


def space_to_text(sp):
    lines = [f"points: {sp.points}"]
    for u in sorted(sp.opens, key=lambda u: (len(u), tuple(sorted(u)))):
        lines.append(("open: " + " ".join(str(x) for x in sorted(u))).rstrip())
    return "\n".join(lines) + "\n"
