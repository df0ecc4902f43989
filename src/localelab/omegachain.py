"""A symbolic infinite chain: 1 = a0 > a1 > a2 > ... > bottom.

Finite frames cannot separate primes from covered primes; this chain can.
The bottom is prime but not covered (it is the unattained meet of all the
levels), so sublocale descriptions over the chain witness phenomena such
as two well-behaved sublocales whose intersection no longer sends covered
primes to covered primes.

Sublocales are described finitely: an explicit set of levels, an
eventually periodic tail, and a bottom flag; the top is always a member.
Such descriptions are closed under intersection, union and difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import frames
from . import sublocales as subl
from .sublocales import Sublocale


class MalformedDescription(ValueError):
    pass


@dataclass(frozen=True)
class Tail:
    """Levels n >= offset with pattern[(n - offset) mod len] set."""

    offset: int
    pattern: tuple[bool, ...]


@dataclass(frozen=True)
class ChainSublocale:
    """Canonical description of a subset of the chain; the top is implicit.

    Build through chain_sublocale(), which normalises: level 0 is dropped,
    the tail pattern is reduced to its least period and pushed to the
    least offset, and finite levels absorbed by the tail are removed.
    """

    finite_part: frozenset[int]
    tail: Tail | None
    bottom: bool

    def has_level(self, n):
        return n == 0 or ChainPointSet.has_level(self, n)

    def is_infinite(self):
        return self.tail is not None

    def __repr__(self):
        return "chain<" + format_description(self) + ">"


@dataclass(frozen=True)
class ChainPointSet:
    """Covered-prime description: levels plus a covered-bottom flag.

    Unlike ChainSublocale the top is not implicit (the top is never a
    point), so an empty description really is empty.
    """

    finite_part: frozenset[int]
    tail: Tail | None
    bottom: bool

    def has_level(self, n):
        if n in self.finite_part:
            return True
        t = self.tail
        return (t is not None and n >= t.offset
                and t.pattern[(n - t.offset) % len(t.pattern)])


def _canonical_levels(finite, tail):
    """Normalise a (finite set, tail) description of a set of levels >= 1."""
    finite = frozenset(int(x) for x in finite)
    if any(x < 0 for x in finite):
        raise MalformedDescription("levels are indexed by naturals")
    finite = finite - {0}
    if tail is None:
        return finite, None
    if not tail.pattern:
        raise MalformedDescription("tail pattern must be nonempty")
    if tail.offset < 0:
        raise MalformedDescription("tail offset must be a natural")
    if not any(tail.pattern):
        return finite, None
    length = len(tail.pattern)
    period = next(p for p in range(1, length + 1)
                  if length % p == 0
                  and all(tail.pattern[i] == tail.pattern[(i + p) % length]
                          for i in range(length)))
    pattern = tuple(bool(b) for b in tail.pattern[:period])
    offset = max(tail.offset, 1)

    def member(n):
        if n in finite:
            return True
        return n >= offset and pattern[(n - offset) % period]

    # beyond this bound membership is already periodic
    bound = max([offset] + [x + 1 for x in finite])
    start = 1
    for n in range(bound - 1, 0, -1):
        if member(n) != member(n + period):
            start = n + 1
            break
    new_pattern = tuple(member(start + i) for i in range(period))
    new_finite = frozenset(n for n in range(1, start) if member(n))
    return new_finite, Tail(start, new_pattern)


def chain_sublocale(finite=(), tail=None, bottom=False):
    finite, tail = _canonical_levels(finite, tail)
    return ChainSublocale(finite, tail, bool(bottom))


def chain_point_set(finite=(), tail=None, bottom=False):
    finite, tail = _canonical_levels(finite, tail)
    return ChainPointSet(finite, tail, bool(bottom))


def chain_whole():
    """The chain itself: every level, bottom included."""
    return chain_sublocale(tail=Tail(1, (True,)), bottom=True)


def chain_is_sublocale(c):
    """Closed under meets: an infinite level set forces the bottom in.

    Implication closure is automatic in a chain (a -> s is 1 or s), and
    finite meets are attained, so this is the whole condition.
    """
    return c.bottom or not c.is_infinite()


def _require_sublocale(c):
    if not chain_is_sublocale(c):
        raise MalformedDescription(
            f"{c!r} is not a sublocale: infinitely many levels but no bottom")


def _combine(c, d, op):
    """Pointwise boolean combination of two level descriptions."""
    parts = [c, d]
    offsets = []
    period = 1
    for x in parts:
        if x.tail is not None:
            offsets.append(x.tail.offset)
            period = math.lcm(period, len(x.tail.pattern))
        if x.finite_part:
            offsets.append(max(x.finite_part) + 1)
    start = max(offsets, default=1)
    finite = {n for n in range(1, start) if op(c.has_level(n), d.has_level(n))}
    pattern = tuple(op(c.has_level(start + i), d.has_level(start + i))
                    for i in range(period))
    tail = Tail(start, pattern) if any(pattern) else None
    return finite, tail


def chain_intersect(c, d):
    _require_sublocale(c)
    _require_sublocale(d)
    finite, tail = _combine(c, d, lambda a, b: a and b)
    return chain_sublocale(finite, tail, c.bottom and d.bottom)


def chain_join(c, d):
    """Join of sublocales; the union is already meet-closed here because
    any new infinite meet is the bottom, carried by whichever side is
    infinite."""
    _require_sublocale(c)
    _require_sublocale(d)
    finite, tail = _combine(c, d, lambda a, b: a or b)
    out = chain_sublocale(finite, tail, c.bottom or d.bottom)
    assert chain_is_sublocale(out)
    return out


def chain_subset(c, d):
    """c inside d, for two sublocale or two point-set descriptions."""
    finite, tail = _combine(c, d, lambda a, b: a and not b)
    return tail is None and not finite and (d.bottom or not c.bottom)


def chain_difference(c, d):
    """The least description r with c contained in the join of d and r.

    The level part is forced to be the set difference; the bottom is
    needed exactly when c has it, d does not, and nothing else supplies
    it (an infinite side would).
    """
    _require_sublocale(c)
    _require_sublocale(d)
    finite, tail = _combine(c, d, lambda a, b: a and not b)
    r_infinite = tail is not None
    need_bottom = r_infinite or (c.bottom and not d.bottom and not d.is_infinite())
    return chain_sublocale(finite, tail, need_bottom)


def chain_ptd(c):
    """Covered primes of the sublocale as a chain in its own right.

    Every level of the sublocale is covered in it: only finitely many
    members sit above a level, so the meet of its strict upset is
    attained.  The bottom is covered exactly when the level set is
    finite; otherwise it is the unattained meet of the levels.
    """
    _require_sublocale(c)
    return ChainPointSet(c.finite_part, c.tail,
                         c.bottom and not c.is_infinite())


def chain_ptd_whole():
    """Covered primes of the whole chain: all levels, bottom excluded."""
    return chain_point_set(tail=Tail(1, (True,)))


def chain_is_d_sublocale(c):
    """Covered primes of the sublocale must be covered in the chain.

    All levels are covered in the chain, the bottom never is; so this
    fails exactly when the bottom is covered inside the sublocale.
    """
    return chain_subset(chain_ptd(c), chain_ptd_whole())


# ---------------------------------------------------------------------------
# truncation to a finite chain frame for cross-checks

@lru_cache(maxsize=None)
def truncated_chain_frame(depth):
    """Finite chain frame with levels 0..depth plus a distinct bottom.

    Element k is level k (0 the top); element depth+1 is the bottom.
    Cached per depth: truncation checks reuse the same frame object.
    """
    n = depth + 2
    covers = [(k, k - 1) for k in range(1, depth + 1)] + [(n - 1, depth)]
    labels = ["1"] + [f"a{k}" for k in range(1, depth + 1)] + ["0"]
    return frames.frame_from_covers(n, covers, labels=labels)


def truncate_sublocale(c, depth):
    """The description cut at the given depth, as a sublocale of
    truncated_chain_frame(depth)."""
    members = {k for k in range(depth + 1) if c.has_level(k)}
    if c.bottom:
        members.add(depth + 1)
    return Sublocale(truncated_chain_frame(depth), members)


def min_truncation_depth(*descriptions):
    """Depth where every description has gone periodic: offset + 3 periods."""
    depth = 1
    for c in descriptions:
        if c.tail is not None:
            depth = max(depth, c.tail.offset + 3 * len(c.tail.pattern))
        if c.finite_part:
            depth = max(depth, max(c.finite_part) + 1)
    return depth


def truncation_matches_set_op(c, d, op_name, depth):
    """Do the symbolic set operations agree with the finite computation?

    Compares memberships on levels 0..depth and the bottom; valid for
    depth at least min_truncation_depth(c, d).
    """
    frame = truncated_chain_frame(depth)
    tc = truncate_sublocale(c, depth)
    td = truncate_sublocale(d, depth)
    if op_name == "intersect":
        sym = chain_intersect(c, d)
        fin = subl.sublocale_meet(frame, [tc, td])
    elif op_name == "join":
        sym = chain_join(c, d)
        fin = subl.sublocale_join(frame, [tc, td])
    else:
        raise ValueError(f"unknown operation {op_name!r}")
    return truncate_sublocale(sym, depth) == fin


def truncation_matches_ptd(c, depth):
    """Symbolic covered primes vs the finite frame's, above the cut.

    Level memberships are compared throughout; the bottom is compared
    only when the symbolic level set is finite, since truncation itself
    makes every meet attained down there.
    """
    from . import subsystems
    tc = truncate_sublocale(c, depth)
    fin = subsystems.covered_points_of(tc)
    sym = chain_ptd(c)
    for k in range(1, depth + 1):
        if (k in fin) != sym.has_level(k):
            return False
    if not c.is_infinite():
        if ((depth + 1) in fin) != sym.bottom:
            return False
    return True


# ---------------------------------------------------------------------------
# text format:  `finite: 2 5 9 ; tail: offset=4 pattern=10 ; bottom: yes`

def parse_description(text):
    finite = frozenset()
    tail = None
    bottom = False
    seen = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, rest = chunk.partition(":")
        key = key.strip()
        rest = rest.strip()
        if not sep:
            raise MalformedDescription(f"expected 'key: value' in {chunk!r}")
        if key in seen:
            raise MalformedDescription(f"duplicate section {key!r}")
        seen.add(key)
        if key == "finite":
            try:
                finite = frozenset(int(f) for f in rest.split())
            except ValueError:
                raise MalformedDescription(f"bad level list {rest!r}") from None
        elif key == "tail":
            if rest == "none":
                tail = None
                continue
            fields = dict(f.split("=", 1) for f in rest.split() if "=" in f)
            if set(fields) != {"offset", "pattern"} or \
                    len(fields) != len(rest.split()):
                raise MalformedDescription(f"tail needs offset= and pattern=, got {rest!r}")
            if not fields["offset"].isdigit():
                raise MalformedDescription(f"bad offset {fields['offset']!r}")
            if not fields["pattern"] or set(fields["pattern"]) - {"0", "1"}:
                raise MalformedDescription(f"bad pattern {fields['pattern']!r}")
            tail = Tail(int(fields["offset"]),
                        tuple(ch == "1" for ch in fields["pattern"]))
        elif key == "bottom":
            if rest not in ("yes", "no"):
                raise MalformedDescription(f"bottom must be yes or no, got {rest!r}")
            bottom = rest == "yes"
        else:
            raise MalformedDescription(f"unknown section {key!r}")
    return chain_sublocale(finite, tail, bottom)


def format_description(c):
    parts = []
    if c.finite_part:
        parts.append("finite: " + " ".join(str(x) for x in sorted(c.finite_part)))
    if c.tail is not None:
        bitstring = "".join("1" if b else "0" for b in c.tail.pattern)
        parts.append(f"tail: offset={c.tail.offset} pattern={bitstring}")
    parts.append("bottom: " + ("yes" if c.bottom else "no"))
    return " ; ".join(parts)


# the two interleaved sublocales driving the intersection counterexample
def even_levels_sublocale():
    return chain_sublocale(tail=Tail(2, (True, False)), bottom=True)


def odd_levels_sublocale():
    return chain_sublocale(tail=Tail(1, (True, False)), bottom=True)
