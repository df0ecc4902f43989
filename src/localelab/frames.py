"""Finite frames: bounded distributive lattices with precomputed order tables.

Elements are dense integers 0..n-1.  A frame is immutable once validated;
all element-level algebra (meets, joins, the implication a -> b, primes,
covered primes, subfitness) lives here.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property

import numpy as np


class FrameError(ValueError):
    """Base class for frame construction and parsing failures."""


class NonPoset(FrameError):
    def __init__(self, reason, witness=None):
        super().__init__(f"not a partial order: {reason}"
                         + (f" (witness {witness})" if witness is not None else ""))
        self.reason = reason
        self.witness = witness


class NonLattice(FrameError):
    def __init__(self, pair, kind):
        super().__init__(f"not a lattice: pair {pair} has no {kind}")
        self.pair = pair
        self.kind = kind


class NonDistributive(FrameError):
    def __init__(self, triple):
        a, b, c = triple
        super().__init__(f"not distributive: {a} meet ({b} join {c}) != "
                         f"({a} meet {b}) join ({a} meet {c})")
        self.triple = triple


class FrameFormatError(FrameError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def transitive_reflexive_closure(n, pairs):
    """Boolean n x n matrix: reflexive-transitive closure of the given pairs."""
    rel = np.eye(n, dtype=bool)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise FrameFormatError(f"element out of range: ({i}, {j})")
        rel[i, j] = True
    # Warshall
    for k in range(n):
        rel |= rel[:, k, None] & rel[None, k, :]
    return rel


def _check_poset(leq):
    n = leq.shape[0]
    diag = leq[np.diag_indices(n)]
    if not diag.all():
        raise NonPoset("missing reflexivity", int(np.flatnonzero(~diag)[0]))
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise NonPoset("antisymmetry fails", (int(i), int(j)))
    closed = leq | (leq @ leq)
    if (closed & ~leq).any():
        i, j = np.argwhere(closed & ~leq)[0]
        raise NonPoset("transitivity fails", (int(i), int(j)))


def _bound_table(leq, upper):
    """Table of least upper bounds (upper=True) or greatest lower bounds.

    Raises NonLattice naming the first pair without one.
    """
    n = leq.shape[0]
    rows = leq if upper else leq.T
    # the set of common bounds determines the bound: it must be the row of
    # exactly one element
    row_id = {tuple(rows[i]): i for i in range(n)}
    table = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            k = row_id.get(tuple(rows[i] & rows[j]))
            if k is None:
                raise NonLattice((i, j), "join" if upper else "meet")
            table[i, j] = table[j, i] = k
    return table


def _check_distributive(meet, join):
    n = meet.shape[0]
    # a meet (b join c) == (a meet b) join (a meet c), full triple scan
    lhs = meet[np.arange(n)[:, None, None], join[None, :, :]]
    rhs = join[meet[:, :, None], meet[:, None, :]]
    bad = lhs != rhs
    if bad.any():
        a, b, c = np.argwhere(bad)[0]
        raise NonDistributive((int(a), int(b), int(c)))


class FiniteFrame:
    """A validated finite frame.

    leq is a read-only boolean matrix; meet/join/imp are cached n x n
    tables.  Instances hash and compare by identity, so sublocales of one
    frame always reference the same object.
    """

    def __init__(self, leq, labels=None):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise FrameError(f"leq must be square, got shape {leq.shape}")
        n = leq.shape[0]
        if n == 0:
            raise NonLattice((), "top")
        _check_poset(leq)
        self.n = n
        leq.flags.writeable = False
        self.leq = leq
        self.meet = _bound_table(leq, upper=False)
        self.join = _bound_table(leq, upper=True)
        self.meet.flags.writeable = False
        self.join.flags.writeable = False
        _check_distributive(self.meet, self.join)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise FrameError("label count does not match element count")
        self.labels = labels

    def __repr__(self):
        return f"FiniteFrame(n={self.n})"

    @cached_property
    def top(self):
        return int(np.flatnonzero(self.leq.all(axis=0))[0])

    @cached_property
    def bottom(self):
        return int(np.flatnonzero(self.leq.all(axis=1))[0])

    @cached_property
    def covers(self):
        """covers[i][j] True iff j covers i (i < j with nothing between)."""
        out = cover_relation(self.leq)
        out.flags.writeable = False
        return out

    @cached_property
    def imp(self):
        """Heyting table: imp[a, b] is the largest c with a meet c <= b."""
        n = self.n
        meet, join, leq = self.meet, self.join, self.leq
        out = np.zeros((n, n), dtype=np.int32)
        for a in range(n):
            ok = leq[meet[a]]          # ok[c, b] iff a meet c <= b
            for b in range(n):
                cand = np.flatnonzero(ok[:, b])
                r = int(cand[0])
                for c in cand[1:]:
                    r = int(join[r, c])
                out[a, b] = r
        out.flags.writeable = False
        return out

    # plain-int copies of the tables for bitmask-heavy inner loops
    @cached_property
    def meet_rows(self):
        return tuple(tuple(int(x) for x in row) for row in self.meet)

    @cached_property
    def imp_rows(self):
        return tuple(tuple(int(x) for x in row) for row in self.imp)

    @cached_property
    def up_masks(self):
        """up_masks[a]: bitmask of the upset of a."""
        return tuple(mask_of(np.flatnonzero(self.leq[a])) for a in range(self.n))

    @cached_property
    def imp_closure_masks(self):
        """For each s, the bitmask of {a -> s : a in L}.

        Since a -> (b -> s) = (a meet b) -> s, one union of these masks
        already closes a set under the implication condition.
        """
        out = []
        for s in range(self.n):
            m = 0
            for a in range(self.n):
                m |= 1 << self.imp_rows[a][s]
            out.append(m)
        return tuple(out)

    @cached_property
    def _primes(self):
        # p is reducible exactly when some pair of other elements meets to it
        meet, n = self.meet_rows, self.n
        reducible = set()
        for x in range(n):
            row = meet[x]
            for y in range(x + 1, n):
                m = row[y]
                if m != x and m != y:
                    reducible.add(m)
        return frozenset(set(range(n)) - reducible - {self.top})

    def meet_of(self, elements):
        """Meet of an iterable of elements; the empty meet is the top."""
        r = self.top
        for x in elements:
            r = int(self.meet[r, x])
        return r

    def join_of(self, elements):
        r = self.bottom
        for x in elements:
            r = int(self.join[r, x])
        return r

    def meet_close_mask(self, mask):
        """Close a bitmask of elements under binary meets; always adds top."""
        meet = self.meet_rows
        mask |= 1 << self.top
        todo = list(bits_of(mask))
        while todo:
            row = meet[todo.pop()]
            m = mask
            while m:
                low = m & -m
                k = row[low.bit_length() - 1]
                bit = 1 << k
                if not mask & bit:
                    mask |= bit
                    todo.append(k)
                m ^= low
        return mask


def bits_of(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements):
    m = 0
    for x in elements:
        m |= 1 << int(x)
    return m


def elements_of_mask(mask):
    return frozenset(bits_of(mask))


def inclusion_order(masks):
    """Boolean matrix leq[i, j]: masks[i] is a subset of masks[j].

    The one builder of inclusion orders.  Masks are ints of any width,
    compared one 64-bit word at a time: no k x k x width temporary.
    """
    masks = list(masks)
    leq = True
    for shift in range(0, max(masks, default=0).bit_length() or 1, 64):
        words = np.array([m >> shift & 0xFFFFFFFFFFFFFFFF for m in masks],
                         dtype=np.uint64)
        leq = leq & (words[:, None] & ~words == 0)
    return leq


def cover_relation(leq):
    """covers[i, j] True iff j covers i in the partial order leq."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return lt & ~(lt @ lt)


def verify_frame(leq, labels=None):
    """Validate an order relation as a frame.

    Raises NonPoset, NonLattice (with a witness pair) or NonDistributive
    (with a witness triple); the exception doubles as the rejection report.
    """
    return FiniteFrame(leq, labels=labels)


def frame_from_covers(n, covers, labels=None):
    """Build a frame from a cover relation, closing it reflexively/transitively."""
    return verify_frame(transitive_reflexive_closure(n, covers), labels=labels)


def heyting(frame, a, b):
    """Largest c with a meet c <= b."""
    return int(frame.imp[a, b])


def pseudocomplement(frame, a):
    """Largest b with a meet b = bottom, i.e. a -> bottom."""
    return int(frame.imp[a, frame.bottom])


def primes(frame):
    """Meet-irreducible elements below top: p = x meet y forces p in {x, y}."""
    return frame._primes


def covered_primes(frame):
    """Primes p such that any subset with meet p must contain p.

    For a finite frame this equals primes(frame): the meet of the strict
    upset of a prime is attained, hence lies strictly above p.  The check
    is still performed for real so that sublattice scans and mutation
    tests are not presumed degenerate.
    """
    out = set()
    for p in primes(frame):
        above = [x for x in range(frame.n) if frame.leq[p, x] and x != p]
        if frame.meet_of(above) != p:
            out.add(p)
    return frozenset(out)


def is_spatial(frame):
    """Every element is a meet of the primes above it."""
    ps = primes(frame)
    return all(frame.meet_of(p for p in ps if frame.leq[a, p]) == a
               for a in range(frame.n))


def is_td_spatial(frame):
    """Every element is a meet of the covered primes above it."""
    ps = covered_primes(frame)
    return all(frame.meet_of(p for p in ps if frame.leq[a, p]) == a
               for a in range(frame.n))


def is_strongly_td_spatial(frame):
    return is_spatial(frame) and covered_primes(frame) == primes(frame)


def is_subfit(frame):
    """Whenever a is not below b there is c with a join c = 1 != b join c."""
    n, leq, join, top = frame.n, frame.leq, frame.join, frame.top
    for a in range(n):
        for b in range(n):
            if leq[a, b]:
                continue
            if not any(join[a, c] == top and join[b, c] != top for c in range(n)):
                return False
    return True


def maximal_primes_only(frame):
    """True iff no prime has anything strictly between it and the top."""
    return all(int(frame.leq[p].sum()) == 2 for p in primes(frame))


# ---------------------------------------------------------------------------
# poset / downset-lattice generation

def downsets(poset_leq):
    """All downsets of a poset, as bitmasks sorted by (size, value)."""
    poset_leq = np.asarray(poset_leq, dtype=bool)
    k = poset_leq.shape[0]
    below = [mask_of(np.flatnonzero(poset_leq[:, i])) for i in range(k)]
    out = []
    for mask in range(1 << k):
        need = 0
        m = mask
        while m:
            low = m & -m
            need |= below[low.bit_length() - 1]
            m ^= low
        if need & ~mask == 0:
            out.append(mask)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def downset_lattice(poset_leq, point_names=None):
    """The (distributive) lattice of downsets of a poset, as a FiniteFrame.

    By Birkhoff duality every finite frame arises this way up to
    isomorphism, which is why the random generator samples posets.
    """
    poset_leq = np.asarray(poset_leq, dtype=bool)
    k = poset_leq.shape[0]
    if point_names is None:
        point_names = [str(i) for i in range(k)]
    ds = downsets(poset_leq)
    labels = tuple("{" + ",".join(point_names[p] for p in bits_of(m)) + "}"
                   for m in ds)
    return verify_frame(inclusion_order(ds), labels=labels)


def random_poset(rng, size):
    """Random poset: upper-triangular random DAG, transitively closed."""
    density = rng.uniform(0.15, 0.75)
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < density]
    return transitive_reflexive_closure(size, pairs)


def random_frame(rng, bound):
    """Downset lattice of a random poset on 1..bound points."""
    size = rng.randint(1, bound)
    return downset_lattice(random_poset(rng, size))


def random_frames(seed, bound, count):
    rng = random.Random(seed)
    return [random_frame(rng, bound) for _ in range(count)]


def all_posets(size):
    """All posets on `size` labelled points, one per isomorphism class.

    Every finite poset admits a linear extension, so enumerating strict
    orders contained in the integer order covers all classes; duplicates
    are removed by a minimum-over-permutations canonical form.
    """
    if size == 0:
        return [np.zeros((0, 0), dtype=bool)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    perms = list(itertools.permutations(range(size)))
    seen = set()
    out = []
    for bitsel in range(1 << len(pairs)):
        chosen = [pairs[t] for t in range(len(pairs)) if bitsel >> t & 1]
        rel = transitive_reflexive_closure(size, chosen)
        canon = min(tuple(rel[list(p), :][:, list(p)].flatten().tolist())
                    for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(rel)
    return out


# ---------------------------------------------------------------------------
# frame text format:  `elements: n`, `cover: i j`, optional `label: i name`

def parse_frame_text(text):
    n = None
    covers = []
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise FrameFormatError(f"expected 'key: value', got {line!r}", lineno)
        fields = rest.split()
        if key == "elements":
            if n is not None:
                raise FrameFormatError("duplicate 'elements' line", lineno)
            if len(fields) != 1 or not fields[0].isdigit():
                raise FrameFormatError("'elements' takes one decimal count", lineno)
            n = int(fields[0])
        elif key == "cover":
            if len(fields) != 2 or not all(f.isdigit() for f in fields):
                raise FrameFormatError("'cover' takes two decimal ids", lineno)
            covers.append((int(fields[0]), int(fields[1]), lineno))
        elif key == "label":
            if len(fields) != 2 or not fields[0].isdigit():
                raise FrameFormatError("'label' takes an id and a name", lineno)
            labels[int(fields[0])] = fields[1]
        else:
            raise FrameFormatError(f"unknown key {key!r}", lineno)
    if n is None:
        raise FrameFormatError("missing 'elements' line")
    for i, j, lineno in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise FrameFormatError(f"cover id out of range: {i} {j}", lineno)
    for i in labels:
        if not 0 <= i < n:
            raise FrameFormatError(f"label id out of range: {i}")
    label_list = [labels.get(i, str(i)) for i in range(n)]
    return frame_from_covers(n, [(i, j) for i, j, _ in covers], labels=label_list)


def load_frame(path):
    with open(path, encoding="ascii") as fh:
        return parse_frame_text(fh.read())


def frame_to_text(frame):
    lines = [f"elements: {frame.n}"]
    for i in range(frame.n):
        for j in range(frame.n):
            if frame.covers[i, j]:
                lines.append(f"cover: {i} {j}")
    for i, lab in enumerate(frame.labels):
        if lab != str(i):
            lines.append(f"label: {i} {lab}")
    return "\n".join(lines) + "\n"


def save_frame(frame, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(frame_to_text(frame))
