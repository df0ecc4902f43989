import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localelab import frames
from localelab.frames import (NonDistributive, NonLattice, NonPoset,
                              FrameFormatError)

import oracle
from conftest import chain, grid_relation, m3_relation, n5_relation


class TestVerifyFrame:
    def test_chains_are_frames(self):
        for n in range(1, 6):
            f = chain(n)
            assert f.n == n
            assert f.top == n - 1 and f.bottom == 0

    def test_diamond_rejected(self):
        with pytest.raises(NonDistributive) as exc:
            frames.verify_frame(m3_relation())
        # recompute the witness from scratch: meets/joins by bound scans
        assert _is_distributivity_witness(m3_relation(), *exc.value.triple)

    def test_pentagon_rejected(self):
        with pytest.raises(NonDistributive) as exc:
            frames.verify_frame(n5_relation())
        assert _is_distributivity_witness(n5_relation(), *exc.value.triple)

    def test_cycle_rejected(self):
        rel = frames.transitive_reflexive_closure(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(NonPoset):
            frames.verify_frame(rel)

    def test_two_tops_rejected(self):
        with pytest.raises(NonLattice) as exc:
            frames.verify_frame(np.eye(2, dtype=bool))
        assert exc.value.pair == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(NonLattice):
            frames.verify_frame(np.zeros((0, 0), dtype=bool))


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


class TestBoundTables:
    def test_agree_with_bruteforce(self, small_corpus):
        larger = [frames.verify_frame(grid_relation(10, 10)), chain(22)]
        for f in list(small_corpus) + larger:
            for a in range(f.n):
                for b in range(f.n):
                    assert f.meet[a, b] == oracle.glb_bruteforce(f.leq, a, b)
                    assert f.join[a, b] == oracle.lub_bruteforce(f.leq, a, b)

    def test_grid_stays_within_a_memory_bound(self):
        # validation and the Heyting table hold O(n^2) tables and one block
        # of BLOCK_CELLS cells at a time: about 1.2 MB for this 196-element
        # grid, where a single n^3 int32 temporary would take 30 MB
        rel = grid_relation(14, 14)
        tracemalloc.start()
        try:
            frames.verify_frame(rel).imp
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def _expected_rejection(rel):
    """What verify_frame must raise on a poset, found by brute force: the
    first pair (i <= j, row-major) without a meet, else without a join,
    else the lexicographically first distributivity triple; None if the
    poset is a frame."""
    n = len(rel)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for kind, bound in (("meet", oracle.glb_bruteforce),
                        ("join", oracle.lub_bruteforce)):
        for i, j in pairs:
            if bound(rel, i, j) is None:
                return NonLattice, ((i, j), kind)
    meet = [[oracle.glb_bruteforce(rel, i, j) for j in range(n)] for i in range(n)]
    join = [[oracle.lub_bruteforce(rel, i, j) for j in range(n)] for i in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
            return NonDistributive, (a, b, c)
    return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rejection_witness_matches_bruteforce(data):
    # a random poset on k points between a new bottom 0 and top k + 1,
    # then relabelled
    k = data.draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    chosen = [p for p, kept in zip(pairs, keep) if kept]
    covers = (chosen + [(0, i) for i in range(1, k + 2)]
              + [(i, k + 1) for i in range(1, k + 1)])
    perm = data.draw(st.permutations(range(k + 2)))
    rel = frames.transitive_reflexive_closure(
        k + 2, [(perm[i], perm[j]) for i, j in covers])
    expected = _expected_rejection(rel)
    if expected is None:
        frames.verify_frame(rel)
        return
    with pytest.raises(expected[0]) as exc:
        frames.verify_frame(rel)
    if expected[0] is NonLattice:
        assert (exc.value.pair, exc.value.kind) == expected[1]
    else:
        assert exc.value.triple == expected[1]
        assert _is_distributivity_witness(rel, *exc.value.triple)


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
    a = frames.random_frames(42, 5, 10)
    b = frames.random_frames(42, 5, 10)
    assert [f.n for f in a] == [f.n for f in b]
    for fa, fb in zip(a, b):
        assert (fa.leq == fb.leq).all()


def test_all_posets_counts():
    assert [len(frames.all_posets(k)) for k in range(5)] == [1, 1, 2, 5, 16]


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
