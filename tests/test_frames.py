import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localelab import frames
from localelab import sublocales as subl
from localelab.frames import (NonDistributive, NonLattice, NonPoset,
                              FrameFormatError)

import oracle
from conftest import (all_posets, chain, grid_covers, grid_relation, m3_relation,
                      n5_relation, random_frames)


class TestVerifyFrame:
    def test_chains_are_frames(self):
        for n in range(1, 6):
            f = chain(n)
            assert f.n == n
            assert f.top == n - 1 and f.bottom == 0

    def test_diamond_rejected(self):
        with pytest.raises(NonDistributive) as exc:
            frames.FiniteFrame(m3_relation())
        # recompute the witness from scratch: meets/joins by bound scans
        assert _is_distributivity_witness(m3_relation(), *exc.value.triple)

    def test_pentagon_rejected(self):
        with pytest.raises(NonDistributive) as exc:
            frames.FiniteFrame(n5_relation())
        assert _is_distributivity_witness(n5_relation(), *exc.value.triple)

    def test_cycle_rejected(self):
        rel = frames.transitive_reflexive_closure(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(NonPoset):
            frames.FiniteFrame(rel)

    def test_two_tops_rejected(self):
        with pytest.raises(NonLattice) as exc:
            frames.FiniteFrame(np.eye(2, dtype=bool))
        assert exc.value.pair == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(NonLattice):
            frames.FiniteFrame(np.zeros((0, 0), dtype=bool))


def _is_distributivity_witness(rel, a, b, c):
    n = rel.shape[0]

    def glb(x, y):
        lows = [k for k in range(n) if rel[k, x] and rel[k, y]]
        tops = [k for k in lows if all(rel[j, k] for j in lows)]
        return tops[0]

    def lub(x, y):
        ups = [k for k in range(n) if rel[x, k] and rel[y, k]]
        bots = [k for k in ups if all(rel[k, j] for j in ups)]
        return bots[0]

    return glb(a, lub(b, c)) != lub(glb(a, b), glb(a, c))


class TestPosetRejection:
    """NonPoset reasons and witnesses, each against the first failure
    that a brute-force scan of the definitions finds."""

    @staticmethod
    def _rejection(rel):
        with pytest.raises(NonPoset) as exc:
            frames.FiniteFrame(rel)
        got = (exc.value.reason, exc.value.witness)
        assert got == oracle.poset_failure_bruteforce(rel.tolist())
        return got

    def test_missing_reflexivity(self):
        rel = frames.transitive_reflexive_closure(5, [(i, i + 1) for i in range(4)])
        rel[3, 3] = rel[4, 4] = False
        assert self._rejection(rel) == ("missing reflexivity", 3)

    def test_cycle(self):
        rel = frames.transitive_reflexive_closure(
            5, [(0, 1), (1, 4), (4, 2), (2, 1), (2, 3)])
        assert self._rejection(rel) == ("antisymmetry fails", (1, 2))

    def test_not_transitive(self):
        # 1 < 3 < 4 without 1 < 4; row 0 (0 < 2) is transitive
        rel = np.eye(5, dtype=bool)
        rel[0, 2] = rel[1, 3] = rel[3, 4] = True
        assert self._rejection(rel) == ("transitivity fails", (1, 4))

    def test_not_transitive_past_one_word(self):
        rel = frames.transitive_reflexive_closure(70, [(i, i + 1) for i in range(69)])
        rel[5, 66] = False
        assert self._rejection(rel) == ("transitivity fails", (5, 66))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poset_rejection_matches_bruteforce(data):
    # a random relation inside the integer order, perhaps with some
    # reversed pairs and missing diagonal cells, then relabelled
    n = data.draw(st.integers(1, 7))
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i < j:
                rel[i, j] = data.draw(st.booleans())
            elif i == j:
                rel[i, j] = data.draw(st.integers(0, 9)) > 0
            else:
                rel[i, j] = data.draw(st.integers(0, 9)) == 0
    perm = data.draw(st.permutations(range(n)))
    rel = rel[np.ix_(perm, perm)]
    expected = oracle.poset_failure_bruteforce(rel.tolist())
    if expected is None:
        try:
            frames.FiniteFrame(rel)
        except NonPoset:
            pytest.fail("a partial order was rejected as a non-poset")
        except frames.FrameError:
            pass
        return
    with pytest.raises(NonPoset) as exc:
        frames.FiniteFrame(rel)
    assert (exc.value.reason, exc.value.witness) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))))
def test_closure_matches_bruteforce(case):
    # random pairs: cycles, self-loops and repeats included
    n, pairs = case
    got = frames.transitive_reflexive_closure(n, pairs)
    assert got.dtype == bool and got.shape == (n, n)
    assert got.tolist() == oracle.closure_bruteforce(n, pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))))
def test_cover_relation_matches_definition(case):
    # pairs i < j only, so the closure is a partial order
    n, pairs = case
    pairs = [(i, j) for i, j in pairs if i < j]
    leq = frames.transitive_reflexive_closure(n, pairs)
    assert frames.cover_relation(leq).tolist() == oracle.cover_relation_by_definition(leq)


def _assert_tables_match_bruteforce(f):
    assert (f.meet == f.meet.T).all() and (f.join == f.join.T).all()
    for a in range(f.n):
        for b in range(a, f.n):
            assert f.meet[a, b] == oracle.glb_bruteforce(f.leq, a, b)
            assert f.join[a, b] == oracle.lub_bruteforce(f.leq, a, b)


class TestBoundTables:
    def test_agree_with_bruteforce(self, small_corpus):
        larger = [frames.FiniteFrame(grid_relation(10, 10)), chain(22)]
        for f in list(small_corpus) + larger:
            _assert_tables_match_bruteforce(f)

    # one 64-bit word holds a row up to 64 elements; these sit on either
    # side of one and two words
    @pytest.mark.parametrize("n", [64, 65, 128, 129])
    def test_chains_at_word_boundaries(self, n):
        _assert_tables_match_bruteforce(chain(n))

    @pytest.mark.parametrize("a, b", [(8, 8), (5, 13), (8, 16), (3, 43), (14, 14)])
    def test_grids_at_word_boundaries(self, a, b):
        _assert_tables_match_bruteforce(frames.FiniteFrame(grid_relation(a, b)))

    def test_grid_stays_within_a_memory_bound(self):
        # validation and the Heyting table hold O(n^2) tables and one block
        # of BLOCK_BYTES bytes at a time: about 1.2 MB for this 196-element
        # grid, where a single n^3 int32 temporary would take 30 MB
        rel = grid_relation(14, 14)
        tracemalloc.start()
        try:
            frames.FiniteFrame(rel).imp
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_chain_file_stays_within_a_memory_bound(self):
        # parsing and validating an 800-element chain file holds O(n^2)
        # arrays: the int32 meet and join tables (2.6 MB each), about
        # 8 MB at the peak; one n x n x 13-word temporary would take
        # 67 MB, and an n^3 boolean cube 512 MB
        n = 800
        text = f"elements: {n}\n" + "".join(f"cover: {i} {i + 1}\n"
                                              for i in range(n - 1))
        tracemalloc.start()
        try:
            f = frames.parse_frame_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.n == n and f.join[3, 700] == 700 and f.meet[3, 700] == 3
        assert peak < 32 << 20

    def test_open_pairs_stay_within_a_memory_bound(self):
        # the 900-element 30 x 30 grid has 189,225 open (incomparable)
        # pairs, which the 800-chain has none of.  Parsing it holds the
        # two int32 tables (3.1 MB each), the pair list (8 bytes a pair),
        # a few n x n boolean matrices and a block of BLOCK_BYTES at a
        # time; one gather of the pairs' 15-word rows unblocked would
        # take 22.7 MB
        n = 30 * 30
        text = f"elements: {n}\n" + "".join(f"cover: {i} {j}\n"
                                              for i, j in grid_covers(30, 30))
        tracemalloc.start()
        try:
            f = frames.parse_frame_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = len(frames._open_pairs(f.leq))
        assert pairs == 189225 and f.join[29, 30] == 59 and f.meet[29, 30] == 0
        assert peak < 2 * 4 * n * n + 8 * pairs + 4 * n * n + 4 * frames.BLOCK_BYTES

    def test_distributivity_check_stays_within_row_blocks(self):
        # the test holds no n x n temporary: on the 800-chain its row
        # lookups stay far below the bound, where one n x n int64 count
        # array takes 5.1 MB
        n = 800
        f = chain(n)
        down = [frames.mask_of(np.flatnonzero(f.leq[:, x])) for x in range(n)]
        tracemalloc.start()
        try:
            frames._check_distributive(f.up_masks, down, f.meet, f.join)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n // 4


def _draw_bounded_covers(data):
    """Covers of a random poset on k <= 7 points between a new bottom 0
    and top k + 1, with the element count k + 2."""
    k = data.draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    chosen = [p for p, kept in zip(pairs, keep) if kept]
    covers = (chosen + [(0, i) for i in range(1, k + 2)]
              + [(i, k + 1) for i in range(1, k + 1)])
    return k + 2, covers


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rejection_witness_matches_bruteforce(data):
    # a random bounded poset, relabelled
    n, covers = _draw_bounded_covers(data)
    perm = data.draw(st.permutations(range(n)))
    rel = frames.transitive_reflexive_closure(
        n, [(perm[i], perm[j]) for i, j in covers])
    expected = oracle.frame_rejection_bruteforce(rel)
    if expected is None:
        frames.FiniteFrame(rel)
        return
    with pytest.raises(expected[0]) as exc:
        frames.FiniteFrame(rel)
    if expected[0] is NonLattice:
        assert (exc.value.pair, exc.value.kind) == expected[1]
    else:
        assert exc.value.triple == expected[1]
        assert _is_distributivity_witness(rel, *exc.value.triple)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rejection_witness_on_word_rows(data):
    # a random bounded poset between a pad-chain below and a pad-chain
    # above, relabelled: ranked by row size, the lower chain comes first
    # in the join rows and the upper chain in the meet rows, so every
    # candidate bound of two core elements lies past bit pad.  Both pads
    # give numpy word rows: one word with pad 8, three with pad 64
    n, covers = _draw_bounded_covers(data)
    pad = data.draw(st.sampled_from([8, 64]))
    total = n + 2 * pad
    padded = ([(pad + i, pad + j) for i, j in covers]
              + [(i, i + 1) for i in range(pad)]
              + [(pad + n - 1 + i, pad + n + i) for i in range(pad)])
    perm = data.draw(st.permutations(range(total)))
    rel = frames.transitive_reflexive_closure(
        total, [(perm[i], perm[j]) for i, j in padded])
    # a chain element is comparable with every element, so the first
    # pair without a bound is a pair of core elements
    core = sorted(perm[pad + x] for x in range(n))
    pairs = [(i, j) for i in core for j in core if i <= j]
    for kind, bound in (("meet", oracle.glb_bruteforce),
                        ("join", oracle.lub_bruteforce)):
        missing = [(i, j) for i, j in pairs if bound(rel, i, j) is None]
        if missing:
            with pytest.raises(NonLattice) as exc:
                frames.FiniteFrame(rel)
            assert (exc.value.pair, exc.value.kind) == (missing[0], kind)
            return
    # a lattice: the chains keep it distributive exactly when the core is
    core_expected = oracle.frame_rejection_bruteforce(frames.transitive_reflexive_closure(n, covers))
    if core_expected is None:
        frames.FiniteFrame(rel)
        return
    with pytest.raises(NonDistributive) as exc:
        frames.FiniteFrame(rel)
    assert _is_distributivity_witness(rel, *exc.value.triple)


def _closure_system_relation(rng):
    """Inclusion order of a random closure system on five points, in a
    random order: the full set and the intersections of a few random
    subsets, at most 32 elements.  Always a lattice, often not
    distributive."""
    family = {31}
    for _ in range(rng.randint(1, 16)):
        m = rng.getrandbits(5)
        family |= {m & f for f in family}
    masks = sorted(family)
    rng.shuffle(masks)
    return frames.inclusion_order(masks)


def test_closure_system_rejections_match_bruteforce():
    # the row lookups of _check_distributive name the same first triple
    # as the brute-force triple scan, on 3,000 lattices
    rng = random.Random(18)
    rejected = 0
    for _ in range(3000):
        rel = _closure_system_relation(rng)
        expected = oracle.frame_rejection_bruteforce(rel)
        if expected is None:
            frames.FiniteFrame(rel)
            continue
        assert expected[0] is NonDistributive
        with pytest.raises(NonDistributive) as exc:
            frames.FiniteFrame(rel)
        assert exc.value.triple == expected[1]
        rejected += 1
    assert 0 < rejected < 3000


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6), st.data())
def test_frame_kernels_match_their_judges(bound, seed, data):
    """spectra_of at every assembly mask, meets_of_points and is_subfit,
    each against the route it replaced (tests/oracle.py), on a random
    frame at bound 2 to 7."""
    f = frames.random_frame(random.Random(seed), bound)
    assert frames.is_subfit(f) == oracle.subfit_by_triples(f)
    for m in subl.enumerate_assembly(f).masks:
        primes, covered = frames.spectra_of(f, m)
        assert (primes, covered) == oracle.spectra_by_pairs(f, m)
        members = list(frames.bits_of(m))
        for points in (primes, covered):
            assert (frames.meets_of_points(f, points, members)
                    == oracle.meets_of_points_by_folds(f, points, members))
    elements = st.lists(st.integers(0, f.n - 1), max_size=8)
    points, some = data.draw(elements), data.draw(elements)
    # given elements must be meet-closed and hold the points and the top
    closed = list(frames.bits_of(f.meet_close_mask(frames.mask_of(some + points))))
    for chosen in (None, closed):
        assert (frames.meets_of_points(f, points, chosen)
                == oracle.meets_of_points_by_folds(f, points, chosen))


def test_frame_kernels_match_their_judges_on_the_800_chain():
    f = chain(800)
    full = (1 << f.n) - 1
    assert frames.spectra_of(f, full) == oracle.spectra_by_pairs(f, full)
    for points in (frames.primes(f), range(0, f.n, 2)):
        assert (frames.meets_of_points(f, points)
                == oracle.meets_of_points_by_folds(f, points))
    assert frames.is_subfit(f) == oracle.subfit_by_triples(f)


class TestHeyting:
    def test_three_chain_implication_to_bottom(self, chain3):
        # oracle first: scan for the maximum of {c : a meet c <= 0}
        assert oracle.heyting_bruteforce(chain3, 1, 0) == 0
        assert frames.heyting(chain3, 1, 0) == 0

    def test_self_implication_is_top(self, small_corpus):
        for f in small_corpus:
            for x in range(f.n):
                assert frames.heyting(f, x, x) == f.top

    def test_top_implies_identity(self, small_corpus):
        for f in small_corpus:
            for b in range(f.n):
                assert frames.heyting(f, f.top, b) == b

    def test_residuation_exhaustive(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for a in range(f.n):
                for b in range(f.n):
                    h = frames.heyting(f, a, b)
                    for c in range(f.n):
                        assert bool(f.leq[f.meet[a, c], b]) == bool(f.leq[c, h])

    def test_agrees_with_bruteforce(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for a in range(f.n):
                for b in range(f.n):
                    assert frames.heyting(f, a, b) == \
                        oracle.heyting_bruteforce(f, a, b)


class TestPseudocomplement:
    def test_three_chain(self, chain3):
        assert frames.pseudocomplement(chain3, 1) == 0

    def test_bottom_gives_top(self, small_corpus):
        for f in small_corpus:
            assert frames.pseudocomplement(f, f.bottom) == f.top

    def test_square_atoms_swap(self, square):
        p, q = sorted(frames.primes(square))
        assert frames.pseudocomplement(square, p) == q
        assert frames.pseudocomplement(square, q) == p


class TestPrimes:
    def test_three_chain(self, chain3):
        assert frames.primes(chain3) == {0, 1}

    def test_square_coatoms(self, square):
        coatoms = {x for x in range(square.n)
                   if int(square.leq[x].sum()) == 2}
        assert frames.primes(square) == coatoms

    def test_one_element_frame(self):
        assert frames.primes(chain(1)) == frozenset()

    def test_meet_inequality_form_agrees(self, small_corpus):
        # primality via a meet b <= p is equivalent on distributive lattices
        for f in small_corpus:
            assert frames.primes(f) == oracle.primes_by_meet_inequality(f)

    def test_every_element_is_meet_of_primes(self, small_corpus):
        for f in small_corpus:
            assert frames.is_spatial(f)


class TestCoveredPrimes:
    def test_three_chain_oracle(self, chain3):
        assert oracle.covered_primes_bruteforce(chain3) == {0, 1}
        assert frames.covered_primes(chain3) == {0, 1}

    def test_degeneracy_on_corpus(self, small_corpus):
        # finite meets are attained, so covered primes are all primes
        for f in small_corpus:
            assert frames.covered_primes(f) == frames.primes(f)
            if f.n <= 8:
                assert frames.covered_primes(f) == \
                    oracle.covered_primes_bruteforce(f)


class TestSubfit:
    def test_examples(self, chain2, chain3, square):
        assert not frames.is_subfit(chain3)
        assert frames.is_subfit(square)
        assert frames.is_subfit(chain2)

    def test_boolean_frames_agree_with_the_judge(self):
        # finite subfit frames are Boolean, which random frames seldom are
        for k in range(1, 6):
            f = frames.downset_lattice(np.eye(k, dtype=bool))
            assert frames.is_subfit(f) and oracle.subfit_by_triples(f)


class TestMaximalPrimes:
    def test_examples(self, chain2, chain3, square):
        assert not frames.maximal_primes_only(chain3)
        assert frames.maximal_primes_only(square)
        assert frames.maximal_primes_only(chain2)


def test_full_distributivity_small(small_corpus):
    # binary distributivity (validated at construction) extends to subsets
    for f in (f for f in small_corpus if f.n <= 6):
        assert oracle.fully_distributive(f)


def test_downset_lattice_of_chain_poset():
    rel = frames.transitive_reflexive_closure(3, [(0, 1), (1, 2)])
    f = frames.downset_lattice(rel)
    assert f.n == 4
    assert all(int(f.covers[i].sum()) <= 1 for i in range(f.n))


def test_random_generation_deterministic():
    a = random_frames(42, 5, 10)
    b = random_frames(42, 5, 10)
    assert [f.n for f in a] == [f.n for f in b]
    for fa, fb in zip(a, b):
        assert (fa.leq == fb.leq).all()


def test_all_posets_counts():
    assert [len(all_posets(k)) for k in range(5)] == [1, 1, 2, 5, 16]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_frames_satisfy_residuation(seed):
    f = frames.random_frame(__import__("random").Random(seed), 4)
    for a in range(f.n):
        for b in range(f.n):
            h = frames.heyting(f, a, b)
            assert f.leq[f.meet[a, h], b]
            assert all(bool(f.leq[f.meet[a, c], b]) == bool(f.leq[c, h])
                       for c in range(f.n))


@functools.cache
def _closure_frame(kind, seed):
    if kind == "boolean7":
        return frames.downset_lattice(np.eye(7, dtype=bool))
    return frames.random_frame(random.Random(seed), kind)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 5, 6, 7, "boolean7"]), st.integers(0, 10**6), st.data())
def test_meet_close_mask_matches_worklist(kind, seed, data):
    """The cover-test closure equals the worklist oracle on a sparse and
    a dense random mask of a frame drawn at bound 4 to 7, or of the
    128-element downset lattice of a 7-antichain."""
    f = _closure_frame(kind, 0 if kind == "boolean7" else seed)
    sparse = frames.mask_of(data.draw(st.lists(st.integers(0, f.n - 1), max_size=8)))
    dense = data.draw(st.integers(0, (1 << f.n) - 1))
    for mask in (sparse, dense):
        assert f.meet_close_mask(mask) == oracle.meet_closure_worklist(f, mask)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 7, "boolean7"]), st.integers(0, 10**6), st.data())
def test_meet_close_masks_match_single_masks(kind, seed, data):
    """The batched cover test equals meet_close_mask and the worklist
    oracle, mask by mask, on a batch of sparse and dense random masks of
    a frame drawn at bound 2 to 7, or of the 128-element downset lattice
    of a 7-antichain, whose masks take two words."""
    f = _closure_frame(kind, 0 if kind == "boolean7" else seed)
    sparse = st.lists(st.integers(0, f.n - 1), max_size=8).map(frames.mask_of)
    masks = data.draw(st.lists(st.one_of(sparse, st.integers(0, (1 << f.n) - 1)),
                               max_size=12))
    assert (f.meet_close_masks(masks) == [f.meet_close_mask(m) for m in masks]
            == [oracle.meet_closure_worklist(f, m) for m in masks])


def _bowtie_above_grid(a, b):
    """The a x b grid with two incomparable elements above its top and
    two more above both: the upper two have no meet, the lower two no
    join."""
    top, n = a * b - 1, a * b + 4
    covers = grid_covers(a, b) + [(top, top + 1), (top, top + 2)]
    covers += [(x, y) for x in (top + 1, top + 2) for y in (top + 3, top + 4)]
    return frames.transitive_reflexive_closure(n, covers)


def test_validation_across_blocks(monkeypatch):
    # with BLOCK_BYTES at 1 KB, the 540 open pairs of the 6 x 9 grid go
    # through some 38 blocks of pairs, and the set entries of its rows,
    # and of the strict rows of a random poset with four maximal elements
    # (rows with no set entry), through many blocks of rows; the tables,
    # the cover relations and the witnesses, of a non-lattice past one
    # word and of a relation that is not transitive, are the oracle's
    monkeypatch.setattr(frames, "BLOCK_BYTES", 1 << 10)
    grid = frames.FiniteFrame(grid_relation(6, 9))
    assert len(frames._open_pairs(grid.leq)) == 540
    _assert_tables_match_bruteforce(grid)
    poset = frames.random_poset(random.Random(3), 60)
    assert len(np.flatnonzero(poset.sum(axis=1) == 1)) == 4
    for leq in (grid.leq, poset):
        assert frames.cover_relation(leq).tolist() == oracle.cover_relation_by_definition(leq)
    perm = random.Random(5).sample(range(76), 76)
    rel = _bowtie_above_grid(8, 9)[np.ix_(perm, perm)]
    with pytest.raises(NonLattice) as exc:
        frames.FiniteFrame(rel)
    assert ((NonLattice, (exc.value.pair, exc.value.kind))
            == oracle.frame_rejection_bruteforce(rel))
    rel = frames.transitive_reflexive_closure(70, [(i, i + 1) for i in range(69)])
    rel[40, 66] = False
    with pytest.raises(NonPoset) as exc:
        frames.FiniteFrame(rel)
    assert ((exc.value.reason, exc.value.witness)
            == oracle.poset_failure_bruteforce(rel.tolist()) == ("transitivity fails", (40, 66)))


def test_meet_close_masks_across_blocks():
    # 300 masks of the 128-element frame go through in several blocks of
    # BLOCK_BYTES, and come out in their order
    f = _closure_frame("boolean7", 0)
    rng = random.Random(7)
    masks = [rng.getrandbits(f.n) & rng.getrandbits(f.n) for _ in range(300)]
    assert f.meet_close_masks(masks) == [f.meet_close_mask(m) for m in masks]
    assert f.meet_close_masks([]) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, (1 << 130) - 1), max_size=12), st.data())
def test_inclusion_order_is_pairwise_subset(masks, data):
    # wide masks, and masks that are subsets of one another across words
    masks += [m & data.draw(st.integers(0, (1 << 130) - 1)) for m in masks]
    leq = frames.inclusion_order(masks)
    assert leq.dtype == bool and leq.shape == (len(masks), len(masks))
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            assert leq[i, j] == (a & ~b == 0)


class TestTextFormat:
    def test_roundtrip(self, fixture_frames):
        for f in fixture_frames.values():
            g = frames.parse_frame_text(frames.frame_to_text(f))
            assert (g.leq == f.leq).all()
            assert g.labels == f.labels

    def test_unknown_key_rejected(self):
        with pytest.raises(FrameFormatError) as exc:
            frames.parse_frame_text("elements: 2\nwhat: 1\n")
        assert exc.value.line == 2

    def test_out_of_range_cover(self):
        with pytest.raises(FrameFormatError) as exc:
            frames.parse_frame_text("elements: 2\ncover: 0 5\n")
        assert exc.value.line == 2

    def test_missing_elements(self):
        with pytest.raises(FrameFormatError):
            frames.parse_frame_text("cover: 0 1\n")

    def test_too_few_covers_refused(self):
        with pytest.raises(FrameFormatError, match="at least 2 distinct 'cover'"):
            frames.parse_frame_text("elements: 3\ncover: 0 1\ncover: 0 1\n")

    def test_declared_size_costs_nothing_before_refusal(self):
        tracemalloc.start()
        try:
            with pytest.raises(FrameFormatError):
                frames.parse_frame_text("elements: 1000000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_labels_applied(self):
        f = frames.parse_frame_text("elements: 2\ncover: 0 1\nlabel: 0 bot\n")
        assert f.labels == ("bot", "1")
