import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localelab import frames, theorems
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab.sublocales import (CapExceeded, MixedFrames,
                                  NotASublocale, Nucleus, Sublocale)

import oracle
from conftest import boolean_square, chain


def members(frame, mask):
    return Sublocale(frame, frames.bits_of(mask))


class TestSublocaleValidation:
    def test_must_contain_top(self, chain3):
        with pytest.raises(NotASublocale):
            Sublocale(chain3, {0})

    def test_must_be_meet_closed(self, square):
        p, q = sorted(frames.primes(square))
        with pytest.raises(NotASublocale):
            Sublocale(square, {p, q, square.top})

    def test_must_be_implication_closed(self, square):
        p, q = sorted(frames.primes(square))
        # {0, q, 1} fails: p -> 0 = q is in, but q -> 0 = p is not
        with pytest.raises(NotASublocale):
            Sublocale(square, {square.bottom, q, square.top})

    def test_out_of_range(self, chain3):
        with pytest.raises(NotASublocale):
            Sublocale(chain3, {7})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_unions_of_pieces_match_their_definition(seed, data):
    # U(T) at the sublocales and at random masks of a frame drawn at
    # bound 2 to 5, asked in one batch and one at a time
    f = frames.random_frame(random.Random(seed), data.draw(st.integers(2, 5)))
    masks = oracle.assembly_bruteforce(f)
    masks += data.draw(st.lists(st.integers(0, (1 << f.n) - 1), max_size=6))
    expected = oracle.pieces_unions_by_definition(f, masks)
    assert subl._pieces_unions(f, masks) == expected
    g = frames.FiniteFrame(f.leq)
    assert [subl._pieces_unions(g, [m])[0] for m in masks] == expected


def test_unions_of_pieces_past_one_word():
    # a 70-element chain: masks and pieces take two 64-bit words
    f = chain(70)
    rng = random.Random(70)
    masks = [rng.getrandbits(70) | 1 << f.top for _ in range(20)] + [1 << f.top]
    assert subl._pieces_unions(f, masks) == oracle.pieces_unions_by_definition(f, masks)


def _validation_failure(frame, mask):
    """The NotASublocale message of validating mask afresh, or None."""
    try:
        subl._validate_mask(frame, mask)
    except NotASublocale as exc:
        return str(exc)
    return None


def test_validation_gathers_name_the_loops_failure(monkeypatch):
    # past INT_ROW_BITS elements a mask is validated by two gathers; on
    # the 32-element Boolean frame they accept and reject what the int
    # loops do and name the same first failure: random masks with the
    # top (mostly not meet-closed), their meet closures (mostly not
    # closed under implication) and the sublocales
    f = frames.downset_lattice(np.eye(5, dtype=bool))
    assert f.n > frames.INT_ROW_BITS
    rng = random.Random(5)
    drawn = [rng.getrandbits(f.n) | 1 << f.top for _ in range(60)]
    masks = drawn + f.meet_close_masks(drawn) + list(subl.enumerate_assembly(f).masks)
    gathers = [_validation_failure(f, m) for m in masks]
    monkeypatch.setattr(frames, "INT_ROW_BITS", 1 << 30)
    assert [_validation_failure(f, m) for m in masks] == gathers
    kinds = {g.split(":")[0] if g else None for g in gathers}
    assert kinds == {None, "not meet-closed", "not closed under implication"}


def test_whole_assembly_passes_stay_within_block_bytes():
    # the 128-element frame of a 7-antichain has 128 sublocales: the
    # laws of their nuclei checked at once would take a k x n x n int64
    # table of 16 MB, the batched closure of its 6,197 distinct pair
    # unions 22 MB of gap words, and the laws of the lifts onto all 128
    # members a (lifts x k x k) block of 16 MB a gather (verify skips the
    # lifting battery past TRIPLE_SCAN_LIMIT; the pass is called here
    # directly).  Beyond what it returns (the result is alive when current
    # is read), each pass holds at most BLOCK_BYTES of its own
    # temporaries, plus numpy's iteration buffers, which a broadcasting
    # ufunc call takes at np.getbufsize() elements of 8 bytes per
    # operand, whatever the size of its arrays.
    f = frames.downset_lattice(np.eye(7, dtype=bool))
    assembly = subl.enumerate_assembly(f)
    masks = list(assembly.masks)
    unions = list(dict.fromkeys(s | t for s in masks for t in masks))
    assert len(masks) == f.n == 128 and len(unions) == 6197
    assert len(assembly) > theorems.TRIPLE_SCAN_LIMIT
    f.meet_close_masks([])
    tables = subl._nucleus_tables(f, masks)
    numpy_buffers = 2 * 8 * np.getbufsize()
    lifts = []
    for run in (lambda: f.meet_close_masks(unions), lambda: subl._nucleus_tables(f, masks),
                lambda: subl._nucleus_failure(f, tables),
                lambda: lifts.append(sy._lift_all(assembly))):
        tracemalloc.start()
        try:
            result = run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        assert peak - current < frames.BLOCK_BYTES + numpy_buffers
    assert all(isinstance(lift, sy.AssemblyLift) and lift.surjective for lift in lifts[0])


class TestEnumeration:
    def test_three_chain_is_the_four_bruteforce_subsets(self, chain3):
        expected = oracle.assembly_bruteforce(chain3)
        got = sorted(s.mask for s in subl.enumerate_assembly(chain3))
        assert got == expected
        assert len(got) == 4
        sets = {s.members for s in subl.enumerate_assembly(chain3)}
        assert sets == {frozenset({2}), frozenset({0, 2}),
                        frozenset({1, 2}), frozenset({0, 1, 2})}

    def test_two_chain(self, chain2):
        assert {s.members for s in subl.enumerate_assembly(chain2)} == \
            {frozenset({1}), frozenset({0, 1})}

    def test_square(self, square):
        assert len(subl.enumerate_assembly(square)) == 4

    def test_matches_bruteforce_on_corpus(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 10):
            assert sorted(s.mask for s in subl.enumerate_assembly(f)) == \
                oracle.assembly_bruteforce(f)

    def test_cap_exceeded(self, square):
        with pytest.raises(CapExceeded) as exc:
            subl.enumerate_assembly(square, cap=2)
        assert exc.value.count == 3

    def test_cap_refusal_matches_bruteforce_size(self, small_corpus):
        for f in small_corpus:
            size = len(oracle.assembly_bruteforce(f))
            for cap in (size - 1, size):
                if cap < 1:
                    continue
                if size > cap:
                    with pytest.raises(CapExceeded) as exc:
                        subl.enumerate_assembly(f, cap=cap)
                    assert exc.value.count == cap + 1
                else:
                    assert len(subl.enumerate_assembly(f, cap=cap)) == size

    def test_cap_refused_before_any_closure(self):
        f = chain(6)
        with pytest.raises(CapExceeded):
            subl.enumerate_assembly(f, cap=31)
        assert "imp" not in f.__dict__


@st.composite
def posets(draw, max_points=6):
    """A random poset on 0..max_points points, as a closed order relation."""
    k = draw(st.integers(0, max_points))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return frames.transitive_reflexive_closure(
        k, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=60, deadline=None)
@given(posets())
def test_prime_subset_index_matches_both_routes(rel):
    f = frames.downset_lattice(rel)
    assembly = subl.enumerate_assembly(f)
    got = sorted(s.mask for s in assembly)
    assert got == oracle.assembly_frontier(f)
    if f.n <= 16:
        assert got == oracle.assembly_bruteforce(f)
    primes = sorted(frames.primes(f))
    assert len(assembly.by_primes) == len(assembly.primes_of) == 1 << len(primes)
    for bits, mask in enumerate(assembly.by_primes):
        assert assembly.primes_of[mask] == bits
        # the closure holds exactly the primes that its bits name
        assert [p for p in primes if mask >> p & 1] == \
            [primes[i] for i in frames.bits_of(bits)]
    for mask, bits in assembly.primes_of.items():
        assert assembly.by_primes[bits] == mask


class TestGenerate:
    def test_empty_seed_gives_zero(self, chain3):
        assert subl.generate_sublocale(chain3, ()).members == {chain3.top}

    def test_bottom_seed_in_chain(self, chain3):
        assert subl.generate_sublocale(chain3, {0}).members == {0, 2}

    def test_full_seed_gives_whole(self, chain3):
        assert subl.generate_sublocale(chain3, range(3)) == subl.whole(chain3)

    def test_closure_is_smallest(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            masks = oracle.assembly_bruteforce(f)
            for seed_mask in range(1 << f.n):
                got = subl.generate_sublocale(
                    f, frames.bits_of(seed_mask))
                smallest = min((m for m in masks if m & seed_mask == seed_mask),
                               key=lambda m: bin(m).count("1"))
                assert got.mask == smallest


class TestNucleus:
    def test_identity_nucleus_gives_whole(self, chain3):
        nu = Nucleus(chain3, range(3))
        assert subl.nucleus_to_sublocale(nu) == subl.whole(chain3)

    def test_constant_top_gives_zero(self, chain3):
        nu = Nucleus(chain3, [2, 2, 2])
        assert subl.nucleus_to_sublocale(nu) == oracle.zero(chain3)

    def test_formula_on_chain(self, chain3):
        nu = subl.sublocale_to_nucleus(Sublocale(chain3, {0, 2}))
        assert nu(1) == 2 and nu(0) == 0

    def test_invalid_nucleus_rejected(self, chain3):
        with pytest.raises(ValueError):
            Nucleus(chain3, [0, 0, 2])     # not inflationary at 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_law_checks_name_the_loops_failure(self, seed, data):
        # the gathers of _nucleus_failure name the law and the element
        # the loops of oracle.nucleus_failure_by_loops meet first, on
        # nuclei of sublocales with one entry doctored and on random maps
        f = frames.random_frame(random.Random(seed), 4)
        masks = oracle.assembly_bruteforce(f)
        table = oracle.nucleus_by_folds(f, data.draw(st.sampled_from(masks)))
        element = st.integers(0, f.n - 1)
        table[data.draw(element)] = data.draw(element)
        tables = [table, data.draw(st.lists(element, min_size=f.n, max_size=f.n))]
        for t in tables:
            failure = subl._nucleus_failure(f, np.array([t]))
            expected = oracle.nucleus_failure_by_loops(f, t)
            assert failure == (None if expected is None else (0, expected))
        first = next((i for i, t in enumerate(tables)
                      if oracle.nucleus_failure_by_loops(f, t)), None)
        got = subl._nucleus_failure(f, np.array(tables))
        assert (got and got[0]) == first

    def test_roundtrip_both_ways(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for s in subl.enumerate_assembly(f):
                nu = subl.sublocale_to_nucleus(s)
                assert subl.nucleus_to_sublocale(nu) == s
                assert subl.sublocale_to_nucleus(
                    subl.nucleus_to_sublocale(nu)) == nu


class TestOpenClosedBoolean:
    def test_three_chain_examples(self, chain3):
        assert subl.open_sublocale(chain3, 1).members == {0, 2}
        assert subl.closed_sublocale(chain3, 0) == subl.whole(chain3)
        assert subl.closed_sublocale(chain3, 2) == oracle.zero(chain3)
        assert subl.boolean_sublocale(chain3, 0).members == {0, 2}
        assert subl.boolean_sublocale(chain3, 1).members == {1, 2}

    def test_all_validate_on_corpus(self, small_corpus):
        for f in small_corpus:
            for a in range(f.n):
                subl.open_sublocale(f, a)
                subl.closed_sublocale(f, a)
                subl.boolean_sublocale(f, a)

    def test_one_point_sublocales_of_primes(self, small_corpus):
        for f in small_corpus:
            for p in frames.primes(f):
                assert subl.boolean_sublocale(f, p).members == {p, f.top}


class TestJoinMeet:
    def test_chain_join(self, chain3):
        a = Sublocale(chain3, {0, 2})
        b = Sublocale(chain3, {1, 2})
        assert subl.sublocale_join(chain3, [a, b]) == subl.whole(chain3)

    def test_zero_is_join_unit(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            for s in subl.enumerate_assembly(f):
                assert subl.sublocale_join(f, [s, oracle.zero(f)]) == s

    def test_empty_meet_is_whole(self, chain3):
        assert subl.sublocale_meet(chain3, []) == subl.whole(chain3)

    def test_empty_join_is_zero(self, chain3):
        assert subl.sublocale_join(chain3, []) == oracle.zero(chain3)

    def test_mixed_frames_rejected(self, chain3, square):
        with pytest.raises(MixedFrames):
            subl.sublocale_join(chain3, [subl.whole(chain3),
                                         subl.whole(square)])

    def test_join_matches_bruteforce(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            assembly = list(subl.enumerate_assembly(f))
            for a, b in itertools.product(assembly, repeat=2):
                assert subl.sublocale_join(f, [a, b]) == \
                    oracle.join_bruteforce(f, [a, b])


class TestClosureDensity:
    def test_boolean_bottom_is_dense(self, small_corpus):
        for f in small_corpus:
            assert subl.is_dense(subl.boolean_sublocale(f, f.bottom))

    def test_chain_closed_is_closed(self, chain3):
        s = Sublocale(chain3, {1, 2})
        assert subl.closure(s) == s

    def test_whole_dense_and_codense(self, small_corpus):
        for f in small_corpus:
            assert subl.is_dense(subl.whole(f))
            assert subl.is_codense(subl.whole(f))

    def test_closure_is_upset_of_meet(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            for s in subl.enumerate_assembly(f):
                c = subl.closure(s)
                assert c.members == {x for x in range(f.n)
                                     if f.leq[f.meet_of(s.members), x]}
                assert s.members <= c.members

    def test_zero_codense_iff_trivial(self, chain3):
        # on a chain with 0 < a < 1, nu of {1} sends a to 1
        assert not subl.is_codense(oracle.zero(chain3))


class TestDifference:
    def test_difference_zero_iff_subset(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            assembly = list(subl.enumerate_assembly(f))
            for s, t in itertools.product(assembly, repeat=2):
                d = subl.difference(s, t)
                assert (d == oracle.zero(f)) == (s.members <= t.members)

    def test_complement_of_closed_is_open(self, chain3):
        assert subl.complement_of(subl.closed_sublocale(chain3, 1)) == \
            subl.open_sublocale(chain3, 1)

    def test_matches_least_solution_oracle(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 5):
            masks = oracle.assembly_bruteforce(f)
            assembly = list(subl.enumerate_assembly(f))
            for s, t in itertools.product(assembly, repeat=2):
                assert subl.difference(s, t) == \
                    oracle.least_difference(f, masks, s, t)

    def test_distributes_over_intersections(self, square):
        assembly = list(subl.enumerate_assembly(square))
        for s, t, r in itertools.product(assembly, repeat=3):
            lhs = subl.difference(s, subl.sublocale_meet(square, [t, r]))
            rhs = subl.sublocale_join(
                square, [subl.difference(s, t), subl.difference(s, r)])
            assert lhs == rhs

    def test_supplement_joins_to_whole(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            for s in subl.enumerate_assembly(f):
                assert subl.sublocale_join(f, [s, subl.supplement(s)]) == \
                    subl.whole(f)

    def test_finite_assemblies_are_boolean(self, small_corpus):
        # every sublocale of a finite frame is complemented
        for f in (f for f in small_corpus if f.n <= 6):
            for s in subl.enumerate_assembly(f):
                c = subl.complement_of(s)
                assert subl.sublocale_meet(f, [s, c]) == oracle.zero(f)
                assert subl.sublocale_join(f, [s, c]) == subl.whole(f)


class TestAssemblyOrder:
    def test_three_chain_order_frame(self, chain3):
        assembly = subl.enumerate_assembly(chain3)
        order, _ = subl.family_order_frame(chain3, assembly.masks)
        assert order.n == 4
        assert assembly[order.top] == oracle.zero(chain3)
        assert assembly[order.bottom] == subl.whole(chain3)

    def test_family_builder_sorts_and_reverses_inclusion(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            assembly = subl.enumerate_assembly(f)
            shuffled = list(assembly)[::-1]
            order, masks = subl.family_order_frame(f, [s.mask for s in shuffled])
            subs = tuple(sorted(shuffled, key=lambda s: sorted(s.members)))
            assert masks == tuple(s.mask for s in subs) == assembly.masks
            assert order.labels == tuple(repr(s) for s in subs)
            for i, s in enumerate(subs):
                for j, t in enumerate(subs):
                    assert order.leq[i, j] == (t.members <= s.members)

    def test_meet_join_agree_with_set_ops(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 6):
            assembly = subl.enumerate_assembly(f)
            order, _ = subl.family_order_frame(f, assembly.masks)
            for i, s in enumerate(assembly):
                for j, t in enumerate(assembly):
                    assert assembly[int(order.join[i, j])].members == \
                        s.members & t.members
                    assert assembly[int(order.meet[i, j])] == \
                        subl.sublocale_join(f, [s, t])

    def test_zero_dimensionality(self, small_corpus):
        # every sublocale is the meet of the basic complemented ones above it
        for f in (f for f in small_corpus if f.n <= 6):
            basics = [subl.sublocale_join(
                f, [subl.open_sublocale(f, x), subl.closed_sublocale(f, y)])
                for x in range(f.n) for y in range(f.n)]
            for s in subl.enumerate_assembly(f):
                acc = frozenset(range(f.n))
                for b in basics:
                    if s.members <= b.members:
                        acc &= b.members
                assert acc == s.members


class TestFamilyOrderMemo:
    def test_each_family_gets_its_own_order(self):
        f = chain(3)
        assembly = subl.enumerate_assembly(f)
        closed = {subl.closed_sublocale(f, a) for a in range(f.n)}
        assert len(closed) < len(assembly)
        for family in (assembly, closed, assembly):
            order, masks = subl.family_order_frame(f, [s.mask for s in family])
            subs = tuple(sorted(family, key=lambda s: sorted(s.members)))
            assert masks == tuple(s.mask for s in subs)
            assert order.n == len(family)
            for i, s in enumerate(subs):
                for j, t in enumerate(subs):
                    assert order.leq[i, j] == (t.members <= s.members)

    def test_empty_family_has_no_order_frame(self):
        # the order of no sublocales has no top, as a frame of no elements
        with pytest.raises(frames.FrameError, match=r"pair \(\) has no top"):
            subl.family_order_frame(chain(3), ())

    def test_equal_family_in_another_order_is_the_same_frame(self, square):
        assembly = subl.enumerate_assembly(square)
        order, masks = subl.family_order_frame(square, assembly.masks)
        again, masks_again = subl.family_order_frame(square, set(reversed(assembly.masks)))
        assert again is order
        assert masks_again is masks

    def test_verify_builds_each_distinct_family_order_once(self, monkeypatch):
        # the 16-element frame of 6 primes of the verify_large benchmark:
        # its smooth, spatial and D-families and its assembly coincide, so
        # the frame itself, one family order frame and the open-set frame
        # of its spectrum are all the frames built
        real = frames.FiniteFrame.__init__
        built = []

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(frames.FiniteFrame, "__init__", counting)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)]
        f = frames.downset_lattice(frames.transitive_reflexive_closure(6, pairs))
        assert (f.n, len(frames.primes(f))) == (16, 6)
        assert theorems.verify_frame_theorems(f).passed
        assert len(built) == 3


class TestFrameMemo:
    def test_one_object_per_mask(self, square):
        assembly = subl.enumerate_assembly(square)
        assert sorted(s.mask for s in assembly) == sorted(assembly.by_primes)
        for s in assembly:
            assert subl._from_mask(square, s.mask) is s
            assert subl.sublocale_join(square, [s, s]) is s
            assert subl.sublocale_meet(square, [s]) is s

    def test_failed_validation_is_never_remembered(self):
        f = boolean_square()
        p, q = sorted(frames.primes(f))
        mask = frames.mask_of({p, q, f.top})
        for _ in range(2):
            with pytest.raises(NotASublocale):
                subl._from_mask(f, mask, _validate=True)
        subl._from_mask(f, mask)            # interned without validation
        with pytest.raises(NotASublocale):
            subl._from_mask(f, mask, _validate=True)

    def test_warm_memo_gives_the_results_of_a_fresh_frame(self, small_corpus):
        def results(f, pairs, cold=False):
            out = []
            for s, t in pairs:
                if cold:
                    vars(f).pop("_memo", None)   # a new, empty memo per pair
                s, t = subl._from_mask(f, s.mask), subl._from_mask(f, t.mask)
                out.append((subl.sublocale_join(f, [s, t]).mask,
                            subl.difference(s, t).mask))
            return out

        for f in small_corpus:
            subs = list(subl.enumerate_assembly(f))
            pairs = list(itertools.product(subs, repeat=2))
            results(f, pairs)
            fresh = frames.FiniteFrame(f.leq, labels=f.labels)
            assert results(f, pairs) == results(fresh, pairs, cold=True)
