"""Finite frames: bounded distributive lattices with precomputed order tables.

Elements are dense integers 0..n-1.  A frame is immutable once validated;
all element-level algebra (meets, joins, the implication a -> b, primes,
covered primes, subfitness) lives here.
"""

from __future__ import annotations

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


# Largest number of bytes a kernel holds in one temporary.  Rows (or
# pairs) are processed in blocks that fit (at least one), so a small frame
# takes one pass and a large frame never holds an n^3 temporary.
BLOCK_BYTES = 1 << 18

# Order kernels on frames of at most this many elements loop over Python
# int rows; larger frames go through numpy words.  FiniteFrame timed on
# downset lattices of 8 to 40 elements, with the numpy kernels working on
# set entries and open pairs only: the int loops win up to 18 elements
# (by some 10% at 17 and 18), the two routes trade places at 19 and 20
# and numpy wins from 21 on, numpy's fixed cost per call against n^2
# Python steps.  The limit stays at 16: moving it would save some 20
# microseconds on a frame of 17 or 18 elements.
INT_ROW_BITS = 16


def _row_blocks(n, row_bytes):
    """Ranges [lo, hi) of an n-row (or n-pair) kernel whose temporaries
    take row_bytes bytes per row, each range within BLOCK_BYTES, one row
    at least."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _packed_words(matrix):
    """The rows of a boolean matrix as little-endian 64-bit words: bit j
    of row i is bit j % 64 of words[i, j // 64], one word at least."""
    n, width = matrix.shape
    packed = np.zeros((n, 8 * max(1, -(-width // 64))), dtype=np.uint8)
    packed[:, :-(-width // 8)] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view("<u8")


def _int_rows(words):
    """Each row of a word array as one Python int mask."""
    rows = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        rows = [r << 64 | x for r, x in zip(rows, words[:, k].tolist())]
    return rows


def _matrix_of_rows(rows, width):
    """Boolean matrix whose row i holds the bits of the int rows[i]."""
    packed = mask_words(rows, width).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


def _lowest_bits(words):
    """Index of the lowest set bit of each word (-1 for a zero word)."""
    low = words & (~words + np.uint64(1))
    return np.frexp(low.astype(np.float64))[1] - 1


def transitive_reflexive_closure(n, pairs):
    """Boolean n x n matrix: reflexive-transitive closure of the given pairs.

    Each row is an int mask, its own bit ORed with the rows of its
    successors, repeated until no row changes, so a cycle ends like any
    other input.  Rows are visited successors first (Kahn's order, then
    whatever lies on or below a cycle), so an acyclic relation settles in
    one pass, O(pairs * n / 64) word operations, and the next confirms it.
    """
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise FrameFormatError(f"element out of range: ({i}, {j})")
        if i != j:
            succ[i].append(j)
            pred[j].append(i)
    waiting = [len(s) for s in succ]
    order = [i for i in range(n) if not waiting[i]]
    for j in order:
        for i in pred[j]:
            waiting[i] -= 1
            if not waiting[i]:
                order.append(i)
    order += [i for i in range(n) if waiting[i]]
    rows = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in order:
            row = old = rows[i]
            for j in succ[i]:
                row |= rows[j]
            if row != old:
                rows[i] = row
                changed = True
    return _matrix_of_rows(rows, n)


def _or_of_rows_under(leq, up, words):
    """acc[i]: the OR of the rows up[k] over every k in up[i], as ints;
    leq is the boolean matrix of the rows and words their packed form.

    Up to INT_ROW_BITS rows are ORed as ints.  Beyond that only the set
    entries of leq take part: for each block of rows, the words of the
    rows they name are gathered in row-major order and each row's run of
    them ORed by one reduceat, the gathered words of a block within
    BLOCK_BYTES (one row at least).  A row with no set entry, such as
    the top's strict row, reads 0.
    """
    if len(up) <= INT_ROW_BITS:
        acc = []
        for m in up:
            a = 0
            while m:
                low = m & -m
                a |= up[low.bit_length() - 1]
                m ^= low
            acc.append(a)
        return acc
    n, w = words.shape
    counts = np.fromiter(map(int.bit_count, up), np.intp, n)
    ends = counts.cumsum()
    starts = ends - counts
    # reduceat reads one word for an empty run (and cannot start a run
    # at the end), so when some row has no set entry (none has in a
    # reflexive relation) only the others are reduced, and that row keeps
    # its 0; reducing by rows alone made the 22-chain's _check_poset
    # 11-18% slower than the dense (block x n x w) kernel this replaced
    gaps = 0 in up
    acc = np.zeros(words.shape, dtype=words.dtype)
    budget = max(1, BLOCK_BYTES // (8 * w))
    lo = 0
    while lo < n:
        hi = (n if ends[-1] - starts[lo] <= budget else
              max(lo + 1, int(np.searchsorted(ends, starts[lo] + budget, side="right"))))
        # flat index (i - lo) * n + k of each set entry; take wraps it to k
        flat = np.flatnonzero(leq[lo:hi])
        gathered = np.take(words, flat, axis=0, mode="wrap")
        if not gaps:
            np.bitwise_or.reduceat(gathered, starts[lo:hi] - starts[lo], axis=0, out=acc[lo:hi])
        else:
            rows = np.flatnonzero(counts[lo:hi])
            if len(rows):
                runs = starts[lo + rows] - starts[lo]
                acc[lo + rows] = np.bitwise_or.reduceat(gathered, runs, axis=0)
        lo = hi
    return _int_rows(acc)


def _check_poset(leq, up, down, words):
    """Raise NonPoset for the first failure, on the int rows up and down:
    reflexivity by element; antisymmetry at the first pair (row-major)
    with j in both up[i] and down[i]; transitivity at the first pair
    with j in the OR of the rows under up[i] but not in up[i]."""
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise NonPoset("missing reflexivity", i)
    for i in range(len(up)):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise NonPoset("antisymmetry fails", (i, (both & -both).bit_length() - 1))
    for i, acc in enumerate(_or_of_rows_under(leq, up, words)):
        extra = acc & ~up[i]
        if extra:
            raise NonPoset("transitivity fails", (i, (extra & -extra).bit_length() - 1))


def _open_pairs(leq):
    """The flat indices i * n + j of the incomparable pairs i < j of the
    partial order leq, in row-major order: the pairs whose bounds the
    order leaves open."""
    return np.flatnonzero(np.triu(~(leq | leq.T), 1))


def _bound_table(matrix, rows, kind, open_pairs):
    """Table of the bounds of each pair: joins when rows[i] is the int
    mask of the upset of i (matrix its boolean form), meets when it is
    the downset.  Raises NonLattice naming the first pair (i <= j,
    row-major) without a bound.

    The bound of {i, j}, if any, is the element whose row is the AND of
    rows i and j: that element is a common bound, and every common bound
    lies in its row.  Up to INT_ROW_BITS elements each AND is looked up
    among the rows.  Beyond that a comparable pair takes its bound from
    the order, j when j is in row i, as in every poset, so no check is
    dropped; only open_pairs (_open_pairs, one list for both tables)
    are tested, by _bound_table_words, and as no comparable pair fails,
    the first bad open pair is the first bad pair.
    """
    if len(rows) <= INT_ROW_BITS:
        return _bound_table_ints(rows, kind)
    index = np.arange(len(rows), dtype=np.int32)
    table = np.where(matrix, index, index[:, None])
    if len(open_pairs):
        sizes = np.fromiter(map(int.bit_count, rows), np.intp, len(rows))
        order = np.argsort(-sizes, kind="stable")
        _bound_table_words(table, _packed_words(matrix[:, order]), order, open_pairs, kind)
    return table


def _bound_table_ints(rows, kind):
    n = len(rows)
    element = {row: x for x, row in enumerate(rows)}
    table = [[0] * n for _ in range(n)]
    for i, ri in enumerate(rows):
        line = table[i]
        for j in range(i, n):
            best = element.get(ri & rows[j])
            if best is None:
                raise NonLattice((i, j), kind)
            line[j] = table[j][i] = best
    return np.array(table, dtype=np.int32)


def _bound_table_words(table, ranked, order, pairs, kind):
    """Write the bound of each open pair (i, j), given by its flat index
    i * n + j, into table at [i, j] and [j, i], or raise NonLattice at the
    first pair without one.

    Elements are ranked by decreasing row size and their rows packed in
    that order as numpy words (ranked): every common bound but the bound
    lies beyond it, so has a smaller row and a later rank, and the
    candidate is the lowest set bit of the AND, accepted only if its own
    row is the whole AND.  The work is (pairs x words) gathers, in
    blocks of pairs whose temporaries, some 40 bytes per pair and word,
    fit in BLOCK_BYTES.
    """
    n, w = ranked.shape
    if w == 1:
        # one word a row: flat gathers, no word to pick and no reduction
        # over words; through the general lines a 64-element order frame
        # was 10% slower than under the dense kernel this replaced, and
        # 3% faster with the rank line alone flat
        ranked = ranked[:, 0]
    for lo, hi in _row_blocks(len(pairs), 40 * w + 32):
        i, j = pairs[lo:hi] // n, pairs[lo:hi] % n
        common = ranked[i] & ranked[j]
        if w == 1:
            rank = _lowest_bits(common)
        else:
            first = (common != 0).argmax(axis=1)
            rank = 64 * first + _lowest_bits(common[np.arange(hi - lo), first])
        # a zero AND (no common bound) reads rank -1, which clips to the
        # first ranked element, whose row is not zero
        best = order.take(rank, mode="clip")
        bad = ranked[best] != common
        if w > 1:
            bad = bad.any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise NonLattice((int(i[k]), int(j[k])), kind)
        table[i, j] = table[j, i] = best


def _check_distributive(up, down, meet, join):
    """Raise NonDistributive unless a meet (b join c) = (a meet b) join (a meet c).

    A finite lattice is distributive exactly when every join-irreducible j
    is join-prime, j <= x join y forcing j <= x or j <= y (Birkhoff).  On
    the int rows up and down both are row lookups: j is join-irreducible
    iff its strict downset down[j] & ~(1 << j) is the downset of one
    element (its lower cover), and join-prime iff the elements not above
    j, full & ~up[j], are.  Only when some j fails does the triple scan
    run, one a at a time, to name the lexicographically first witness.
    It scans only the a above a failing j: a witness (a, b, c) has such a
    j below a meet (b join c) and not below (a meet b) join (a meet c),
    and each failing j is a witness itself, so the first is the same.
    """
    downsets = set(down)
    full = (1 << len(up)) - 1
    scan = 0
    for j, (u, d) in enumerate(zip(up, down)):
        if d & ~(1 << j) in downsets and full & ~u not in downsets:
            scan |= u
    for a in bits_of(scan):
        ma = meet[a]
        bad = ma[join] != join[ma[:, None], ma[None, :]]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            raise NonDistributive((a, int(b), int(c)))


class _Memo:
    """What the sublocale engine computes once per frame (see sublocales).

    subs maps a mask to the frame's one Sublocale object; valid holds the
    masks that passed Sublocale._validate (a failure is never recorded);
    closures maps an input mask of sublocale_join, of difference_mask or
    of subsystems.meet_closure to its meet closure, the one kernel result
    they all read, filled one mask at a time by those and in batches of
    meet_close_masks by the pair tables, the supplement row and
    law_open_closed (sublocales._meet_closed_all); unions maps a mask
    t to the mask U(t) of pieces that difference_mask intersects with s;
    difference_tables holds the tables U is built from, once built;
    spectra maps a mask to spectra_of's (primes, covered primes) of its
    members, the frame's own at the full mask; orders maps the masks of a
    family of sublocales, in Sublocale.sort_key order, to its
    family_order_frame result.
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

    leq is a read-only boolean matrix and up_masks[a] the int mask of the
    upset of a; meet, join and imp are read-only n x n tables.  The order
    is checked, and meet and join are built, at construction on the up
    and down rows, as Python ints up to INT_ROW_BITS elements (the rows
    read straight off the matrix) and as numpy 64-bit words beyond that,
    on what the order leaves open: transitivity ORs only the rows of the
    set entries of leq, and of the pairs only the incomparable ones are
    tested for a bound, the others reading theirs off leq.  Both go in
    blocks of at most BLOCK_BYTES bytes, so a large frame never holds an
    n^3 temporary.  imp is built on first use by a blocked argmax;
    distributivity is checked by row lookups (_check_distributive).
    Instances hash and compare by identity, so sublocales of one frame
    always reference the same object.

    An order that is no frame raises NonPoset, NonLattice (with a witness
    pair) or NonDistributive (with a witness triple); the exception
    doubles as the rejection report.
    """

    def __init__(self, leq, labels=None):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise FrameError(f"leq must be square, got shape {leq.shape}")
        n = leq.shape[0]
        if n == 0:
            raise NonLattice((), "top")
        if n <= INT_ROW_BITS:
            bits = 1 << np.arange(n)
            up, down, words = (leq @ bits).tolist(), (bits @ leq).tolist(), None
        else:
            words = _packed_words(leq)
            up, down = _int_rows(words), _int_rows(_packed_words(leq.T))
        _check_poset(leq, up, down, words)
        pairs = None if words is None else _open_pairs(leq)
        self.n = n
        leq.flags.writeable = False
        self.leq = leq
        self.up_masks = tuple(up)
        self.meet = _bound_table(leq.T, down, "meet", pairs)
        self.join = _bound_table(leq, up, "join", pairs)
        self.meet.flags.writeable = False
        self.join.flags.writeable = False
        _check_distributive(up, down, self.meet, self.join)
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
        for lo, hi in _row_blocks(n, n * n):
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
    def open_masks(self):
        """o(a) for each a, the mask of row a of imp: {a -> b : b in L}."""
        return tuple(_int_rows(_packed_words(_row_sets(self.imp))))

    @cached_property
    def boolean_masks(self):
        """b(s) for each s, the mask of column s of imp: {a -> s : a in L}.

        Since a -> (b -> s) = (a meet b) -> s, one union of these masks
        already closes a set under the implication condition.
        """
        return tuple(_int_rows(_packed_words(_row_sets(self.imp.T))))

    @cached_property
    def _spectra(self):
        """The frame's (primes, covered primes): spectra_of at the full mask."""
        return spectra_of(self, (1 << self.n) - 1)

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

    @cached_property
    def _cover_gaps(self):
        """For each x, the masks up(x) & ~up(y), one per upper cover y of
        x as covers lists them; the top has none."""
        up = self.up_masks
        gaps = [[] for _ in range(self.n)]
        for x, y in zip(*(axis.tolist() for axis in np.nonzero(self.covers))):
            gaps[x].append(up[x] & ~up[y])
        return tuple(map(tuple, gaps))

    def meet_close_mask(self, mask):
        """Close a bitmask of elements under binary meets; always adds top.

        The cover test, one pass with no worklist: x is the meet of some
        members of mask exactly when it is the meet of the members above
        it, that is when every upper cover y of x misses a member of
        mask & up(x).  The top has no upper cover, so it is always in.
        The worklist closure is the oracle (tests/oracle.py), and
        meet_close_masks runs the same test on many masks at once.
        """
        out = 0
        for x, gaps in enumerate(self._cover_gaps):
            for gap in gaps:
                if not mask & gap:
                    break
            else:
                out |= 1 << x
        return out

    @cached_property
    def _gap_words(self):
        """_cover_gaps laid out for meet_close_masks: every gap, element
        by element, as mask_words transposed to (words, gaps), the elements
        that have gaps (all but the top) and where each one's run starts."""
        runs = self._cover_gaps
        owners = [x for x, gaps in enumerate(runs) if gaps]
        sizes = np.array([len(runs[x]) for x in owners], dtype=np.intp)
        return (mask_words([gap for gaps in runs for gap in gaps], self.n).T,
                np.array(owners, dtype=np.intp), np.cumsum(sizes) - sizes)

    def meet_close_masks(self, masks):
        """[meet_close_mask(m) for m in masks], by the same cover test run
        on the whole batch as numpy words.

        Each mask is read as ceil(n / 64) 64-bit words; hit[m, g] tells
        whether mask m meets gap g, one AND per word, and x is in the
        closure of m exactly when every gap of x is hit, one
        AND-reduction over the run of x's gaps (the top has none and is
        always in).  masks is a list; it goes through in blocks whose
        temporaries, some 12 bytes per mask and gap, fit in BLOCK_BYTES.
        The single-mask kernel and the worklist closure are the routes it
        is tested against.
        """
        gaps, owners, starts = self._gap_words
        out = [0] * len(masks)
        for lo, hi in _row_blocks(len(masks), 12 * gaps.shape[1] + 2 * self.n + 8 * len(gaps)):
            rows = mask_words(masks[lo:hi], self.n)
            hit = (rows[:, 0, None] & gaps[0]) != 0
            for w in range(1, len(gaps)):
                hit |= (rows[:, w, None] & gaps[w]) != 0
            closed = np.ones((hi - lo, self.n), dtype=bool)
            closed[:, owners] = np.logical_and.reduceat(hit, starts, axis=1)
            out[lo:hi] = _int_rows(_packed_words(closed))
        return out


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


def mask_words(masks, bits):
    """The int masks of at most bits bits as a uint64 array of shape
    (len(masks), ceil(bits / 64)), one word at least: bit j of masks[i]
    is bit j % 64 of [i, j // 64]."""
    size = 8 * max(1, -(-bits // 64))
    raw = b"".join(m.to_bytes(size, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, size // 8)


def _row_sets(table):
    """Boolean matrix whose [i, x] tells whether x is in row i of an
    index table, whose entries lie below its width."""
    inside = np.zeros(table.shape, dtype=bool)
    inside[np.arange(len(table))[:, None], table] = True
    return inside


def inclusion_order(masks):
    """Boolean matrix leq[i, j]: masks[i] is a subset of masks[j].

    The one builder of inclusion orders.  Masks are ints of any width,
    compared one 64-bit word at a time: no k x k x width temporary.
    """
    masks = list(masks)
    leq = True
    for words in mask_words(masks, max(masks, default=0).bit_length()).T:
        leq = leq & (words[:, None] & ~words == 0)
    return leq


def cover_relation(leq):
    """covers[i, j] True iff j covers i in the partial order leq: j is
    strictly above i and in no strict upset of an element strictly above i."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    words = _packed_words(lt)
    strict = _int_rows(words)
    above = _or_of_rows_under(lt, strict, words)
    return _matrix_of_rows([s & ~a for s, a in zip(strict, above)], len(leq))


def frame_from_covers(n, covers, labels=None):
    """Build a frame from a cover relation, closing it reflexively/transitively."""
    return FiniteFrame(transitive_reflexive_closure(n, covers), labels=labels)


def heyting(frame, a, b):
    """Largest c with a meet c <= b."""
    return int(frame.imp[a, b])


def pseudocomplement(frame, a):
    """Largest b with a meet b = bottom, i.e. a -> bottom."""
    return int(frame.imp[a, frame.bottom])


def _count_levels(up, points, elements):
    """cnt[x], the number of points in up[x], for each x in elements, and
    level[c], the mask of the elements x with cnt[x] = c."""
    cnt, level = {}, {}
    for x in elements:
        c = cnt[x] = (up[x] & points).bit_count()
        level[c] = level.get(c, 0) | 1 << x
    return cnt, level


def spectra_of(frame, mask):
    """(primes, covered primes) of the meet-closed set S of elements in
    mask (the whole frame or a sublocale) as a lattice in its own right,
    computed once per frame and mask.

    Its meets are the frame's, so p != top is prime iff the members
    strictly above p, S & up[p] & ~(1 << p), are those above one member
    z: one lookup per member.  A prime is covered when the meet of the
    members strictly above it stays strictly above it, decided by the
    count of meets_of_points: with cnt[x] = |S & up[x]|, that meet is a
    member y > p with cnt[y] = cnt[p] - 1, and any such y has them all
    above it.
    """
    spectra = frame._memo.spectra
    got = spectra.get(mask)
    if got is None:
        up, members = frame.up_masks, list(bits_of(mask))
        rows = {mask & up[z] for z in members}
        primes = frozenset(p for p in members
                           if p != frame.top and mask & up[p] & ~(1 << p) in rows)
        cnt, level = _count_levels(up, mask, members)
        covered = frozenset(p for p in primes
                            if up[p] & ~(1 << p) & level.get(cnt[p] - 1, 0))
        got = spectra[mask] = (primes, covered)
    return got


def primes(frame):
    """Meet-irreducible elements below top: p = x meet y forces p in {x, y}."""
    return frame._spectra[0]


def covered_primes(frame):
    """Primes p such that any subset with meet p must contain p.

    For a finite frame this equals primes(frame): the meet of the strict
    upset of a prime is attained, hence lies strictly above p.  The check
    is still performed for real, once per frame, so that sublattice scans
    and mutation tests are not presumed degenerate.
    """
    return frame._spectra[1]


def meets_of_points(frame, points, elements=None):
    """Every element of elements (of the frame by default) is the meet of
    the given points above it.  elements, when given, must hold the top
    and the points and be closed under meets, as a sublocale's members
    are.

    With cnt[x] the number of points above x, a is that meet iff no y > a
    has cnt[y] = cnt[a]: the meet of the points above a is >= a and has
    the same points above it, and a y > a with as many points above it
    has all of them.  Such a y, where one exists, can be taken to be that
    meet, which lies in elements, so the counts are taken over elements
    alone.  One AND per element, with its count's mask.
    """
    up = frame.up_masks
    if elements is None:
        elements = range(frame.n)
    cnt, level = _count_levels(up, mask_of(points), elements)
    return not any(up[a] & ~(1 << a) & level[cnt[a]] for a in elements)


def is_spatial(frame):
    """Every element is a meet of the primes above it."""
    return meets_of_points(frame, primes(frame))


def is_td_spatial(frame):
    """Every element is a meet of the covered primes above it."""
    return meets_of_points(frame, covered_primes(frame))


def is_strongly_td_spatial(frame):
    return is_spatial(frame) and covered_primes(frame) == primes(frame)


def is_subfit(frame):
    """Whenever a is not below b there is c with a join c = 1 != b join c:
    T(a) = {c : a join c = 1}, a row of the join table, lies in T(b) only
    when a <= b, one inclusion_order of those rows."""
    ones = _int_rows(_packed_words(frame.join == frame.top))
    return not (inclusion_order(ones) & ~frame.leq).any()


def maximal_primes_only(frame):
    """True iff no prime has anything strictly between it and the top."""
    return all(frame.up_masks[p].bit_count() == 2 for p in primes(frame))


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


def downset_lattice(poset_leq):
    """The (distributive) lattice of downsets of a poset, as a FiniteFrame.

    By Birkhoff duality every finite frame arises this way up to
    isomorphism, which is why the random generator samples posets.
    """
    poset_leq = np.asarray(poset_leq, dtype=bool)
    ds = downsets(poset_leq)
    labels = tuple("{" + ",".join(map(str, bits_of(m))) + "}" for m in ds)
    return FiniteFrame(inclusion_order(ds), labels=labels)


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


# ---------------------------------------------------------------------------
# text formats: `key: value` lines, read by key_value_lines for frame and
# space files; a frame file holds `elements: n`, `cover: i j` and
# optional `label: i name` lines

def key_value_lines(text, error, count_key, keys):
    """The (key, fields, lineno) of every nonblank `key: value` line of a
    frame or space file, in order, for the count line count_key and the
    other keys.  Raises error(message, lineno) on a line that is not ASCII
    or has no colon, an unknown key, a second count line or one that is
    not a single decimal count, and error(message) when the count line is
    missing."""
    counted = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise error("non-ASCII character", lineno)
        line = raw.strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise error(f"expected 'key: value', got {line!r}", lineno)
        fields = rest.split()
        if key == count_key:
            if counted:
                raise error(f"duplicate {key!r} line", lineno)
            if len(fields) != 1 or not fields[0].isdigit():
                raise error(f"{key!r} takes one decimal count", lineno)
            counted = True
        elif key not in keys:
            raise error(f"unknown key {key!r}", lineno)
        yield key, fields, lineno
    if not counted:
        raise error(f"missing {count_key!r} line")


def parse_frame_text(text):
    covers = []
    labels = {}
    for key, fields, lineno in key_value_lines(text, FrameFormatError, "elements",
                                               ("cover", "label")):
        if key == "elements":
            n = int(fields[0])
        elif key == "cover":
            if len(fields) != 2 or not all(f.isdigit() for f in fields):
                raise FrameFormatError("'cover' takes two decimal ids", lineno)
            covers.append((int(fields[0]), int(fields[1]), lineno))
        else:
            if len(fields) != 2 or not fields[0].isdigit():
                raise FrameFormatError("'label' takes an id and a name", lineno)
            i = int(fields[0])
            if i in labels:
                raise FrameFormatError(f"duplicate label id: {i}", lineno)
            labels[i] = fields[1], lineno
    for i, j, lineno in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise FrameFormatError(f"cover id out of range: {i} {j}", lineno)
    for i, (_, lineno) in labels.items():
        if not 0 <= i < n:
            raise FrameFormatError(f"label id out of range: {i}", lineno)
    # the Hasse diagram of a finite lattice is connected, so n elements
    # need n - 1 distinct covers; checked before anything n-sized is built
    distinct = len({(i, j) for i, j, _ in covers})
    if n >= 2 and distinct < n - 1:
        raise FrameFormatError(f"{n} elements need at least {n - 1} distinct "
                               f"'cover' lines, got {distinct}")
    label_list = [labels[i][0] if i in labels else str(i) for i in range(n)]
    return frame_from_covers(n, [(i, j) for i, j, _ in covers], labels=label_list)


def load_frame(path):
    # a byte outside ASCII reaches key_value_lines as a lone surrogate
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        return parse_frame_text(fh.read())


def frame_to_text(frame):
    lines = [f"elements: {frame.n}"]
    rows, cols = np.nonzero(frame.covers)
    lines += [f"cover: {i} {j}" for i, j in zip(rows.tolist(), cols.tolist())]
    for i, lab in enumerate(frame.labels):
        if lab != str(i):
            lines.append(f"label: {i} {lab}")
    return "\n".join(lines) + "\n"


def save_frame(frame, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(frame_to_text(frame))
