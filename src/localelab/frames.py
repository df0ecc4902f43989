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


# Largest number of cells a table builder holds in one temporary.  Rows are
# processed in blocks of at most this many cells (at least one row), so a
# frame with n**3 <= BLOCK_CELLS takes one pass and a large frame never
# holds an n**3 temporary.
BLOCK_CELLS = 1 << 18


def _row_blocks(n):
    """Row ranges [lo, hi) whose n x n slabs fit in BLOCK_CELLS cells,
    one row at least."""
    step = max(1, BLOCK_CELLS // (n * n))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _bound_table(leq, upper):
    """Table of least upper bounds (upper=True) or greatest lower bounds.

    The bound of {i, j} is the common bound with the largest row, accepted
    only if its row is the whole set of common bounds.  A common bound's
    row lies inside that set, so it is enough to compare sizes.  Raises
    NonLattice naming the first pair (i <= j, row-major) without one.
    """
    n = leq.shape[0]
    rows = leq if upper else np.ascontiguousarray(leq.T)
    size = rows.sum(axis=1)
    # columns ranked by decreasing row size: the first common bound is the
    # candidate
    order = np.argsort(-size, kind="stable")
    ranked = rows[:, order]
    table = np.empty((n, n), dtype=np.int32)
    for lo, hi in _row_blocks(n):
        common = ranked[lo:hi, None, :] & ranked[None, :, :]
        best = order[common.argmax(axis=2)]
        bad = size[best] != common.sum(axis=2)
        if bad.any():
            # a bad (i, j) with j < i was already met as (j, i), so the
            # first bad cell in row-major order has i <= j
            i, j = np.argwhere(bad)[0]
            raise NonLattice((int(lo + i), int(j)), "join" if upper else "meet")
        table[lo:hi] = best
    return table


def _check_distributive(leq, meet, join):
    """Raise NonDistributive unless a meet (b join c) = (a meet b) join (a meet c).

    A finite lattice is distributive exactly when every join-irreducible j
    is join-prime, j <= x join y forcing j <= x or j <= y (Birkhoff).  With
    below(x) the join-irreducibles below x, below(x meet y) is below(x) &
    below(y) and below(x) | below(y) lies in below(x join y), so the test
    is a count per pair: |below(x join y)| + |below(x meet y)| =
    |below(x)| + |below(y)|.  Only when that fails does the triple scan
    run, one a at a time, to name the lexicographically first witness.
    """
    n = leq.shape[0]
    idx = np.arange(n)
    # x is join-reducible when two elements other than x join to it
    reducible = np.zeros(n, dtype=bool)
    reducible[join[(join != idx[:, None]) & (join != idx[None, :])]] = True
    count = leq[~reducible].sum(axis=0)
    if (count[join] + count[meet] == count[:, None] + count[None, :]).all():
        return
    for a in range(n):
        ma = meet[a]
        bad = ma[join] != join[ma[:, None], ma[None, :]]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            raise NonDistributive((a, int(b), int(c)))


class _Memo:
    """What the sublocale engine computes once per frame (see sublocales).

    subs maps a mask to the frame's one Sublocale object; valid holds the
    masks that passed Sublocale._validate (a failure is never recorded);
    closures maps an input mask of sublocale_join or difference to its
    meet closure, the one kernel result both read; unions maps
    other.mask to the mask U(other) of pieces that difference intersects
    with sub; difference_tables holds the tables U is built from, once
    built; spectra maps a mask to its intrinsic (primes, covered primes)
    (see subsystems); orders maps the masks of a family of sublocales, in
    Sublocale.sort_key order, to its family_order_frame result.
    """

    __slots__ = ("subs", "valid", "closures", "unions", "difference_tables",
                 "spectra", "orders")

    def __init__(self):
        self.subs = {}
        self.valid = set()
        self.closures = {}
        self.unions = {}
        self.difference_tables = None
        self.spectra = {}
        self.orders = {}


class FiniteFrame:
    """A validated finite frame.

    leq is a read-only boolean matrix; meet, join and imp are read-only
    n x n tables.  meet and join are built at construction and imp on
    first use, each by numpy passes over blocks of rows holding at most
    BLOCK_CELLS cells, so a large frame never holds an n^3 temporary;
    distributivity is checked by join-primality (_check_distributive).
    Instances hash and compare by identity, so sublocales of one frame
    always reference the same object.
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
        _check_distributive(leq, self.meet, self.join)
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
    def _memo(self):
        """Private memo of the sublocale engine's results; it lives and
        dies with the frame, so no module-level cache keeps frames alive."""
        return _Memo()

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
        """Heyting table: imp[a, b] is the largest c with a meet c <= b.

        {c : a meet c <= b} is the downset of imp[a, b], so imp[a, b] is
        its member with the largest downset: the first one when elements
        are ranked by decreasing downset size.
        """
        n = self.n
        order = np.argsort(-self.leq.sum(axis=0), kind="stable")
        ranked_meet = self.meet[:, order]
        below = np.ascontiguousarray(self.leq.T)    # below[b, x]: x <= b
        out = np.empty((n, n), dtype=np.int32)
        for lo, hi in _row_blocks(n):
            ok = below[:, ranked_meet[lo:hi]]        # ok[b, a, r]
            out[lo:hi] = order[ok.argmax(axis=2)].T
        out.flags.writeable = False
        return out

    # plain-int copies of the tables for bitmask-heavy inner loops
    @cached_property
    def meet_rows(self):
        return tuple(map(tuple, self.meet.tolist()))

    @cached_property
    def join_rows(self):
        return tuple(map(tuple, self.join.tolist()))

    @cached_property
    def imp_rows(self):
        return tuple(map(tuple, self.imp.tolist()))

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

    @cached_property
    def _covered_primes(self):
        out = set()
        for p in self._primes:
            if self.meet_of(bits_of(self.up_masks[p] & ~(1 << p))) != p:
                out.add(p)
        return frozenset(out)

    def meet_of(self, elements):
        """Meet of an iterable of elements; the empty meet is the top."""
        meet, r = self.meet_rows, self.top
        for x in elements:
            r = meet[r][x]
        return r

    def join_of(self, elements):
        join, r = self.join_rows, self.bottom
        for x in elements:
            r = join[r][x]
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
    is still performed for real, once per frame, so that sublattice scans
    and mutation tests are not presumed degenerate.
    """
    return frame._covered_primes


def meets_of_points(frame, points, elements=None):
    """Every element (every one of the frame by default) is the meet of
    the given points above it."""
    up, pts = frame.up_masks, mask_of(points)
    if elements is None:
        elements = range(frame.n)
    return all(frame.meet_of(bits_of(up[a] & pts)) == a for a in elements)


def is_spatial(frame):
    """Every element is a meet of the primes above it."""
    return meets_of_points(frame, primes(frame))


def is_td_spatial(frame):
    """Every element is a meet of the covered primes above it."""
    return meets_of_points(frame, covered_primes(frame))


def is_strongly_td_spatial(frame):
    return is_spatial(frame) and covered_primes(frame) == primes(frame)


def is_subfit(frame):
    """Whenever a is not below b there is c with a join c = 1 != b join c."""
    n, up, join, top = frame.n, frame.up_masks, frame.join_rows, frame.top
    for a in range(n):
        row_a = join[a]
        for b in range(n):
            if up[a] >> b & 1:
                continue
            row_b = join[b]
            if not any(row_a[c] == top and row_b[c] != top for c in range(n)):
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
    # the Hasse diagram of a finite lattice is connected, so n elements
    # need n - 1 distinct covers; checked before anything n-sized is built
    distinct = len({(i, j) for i, j, _ in covers})
    if n >= 2 and distinct < n - 1:
        raise FrameFormatError(f"{n} elements need at least {n - 1} distinct "
                               f"'cover' lines, got {distinct}")
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
