import itertools

import pytest

from localelab import omegachain as oc
from localelab import subsystems as sy


def description_corpus():
    """Deterministic corpus: offsets to 6, patterns to length 4, small
    finite parts, both bottom flags; only valid sublocales are kept."""
    patterns = [p for n in (1, 2, 3, 4)
                for p in itertools.product((False, True), repeat=n)]
    finites = [frozenset(), frozenset({2}), frozenset({1, 4})]
    out = []
    for offset in (1, 3, 6):
        for pattern in patterns:
            for finite in finites:
                for bottom in (False, True):
                    tail = oc.Tail(offset, pattern)
                    c = oc.chain_sublocale(finite, tail, bottom)
                    if oc.chain_is_sublocale(c):
                        out.append(c)
    for finite in finites:
        for bottom in (False, True):
            out.append(oc.chain_sublocale(finite, None, bottom))
    seen = set()
    uniq = []
    for c in out:
        if c not in seen:
            seen.add(c)
            uniq.append(c)
    return uniq


CORPUS = description_corpus()


class TestSublocaleCondition:
    def test_top_only(self):
        assert oc.chain_is_sublocale(oc.chain_sublocale())

    def test_infinite_without_bottom_fails(self):
        c = oc.chain_sublocale(tail=oc.Tail(2, (True, False)), bottom=False)
        assert not oc.chain_is_sublocale(c)

    def test_evens_with_bottom(self):
        assert oc.chain_is_sublocale(oc.even_levels_sublocale())

    def test_malformed_rejected(self):
        with pytest.raises(oc.MalformedDescription):
            oc.chain_sublocale(tail=oc.Tail(1, ()))
        with pytest.raises(oc.MalformedDescription):
            oc.chain_sublocale(finite={-2})

    def test_ops_require_valid_sublocales(self):
        bad = oc.chain_sublocale(tail=oc.Tail(1, (True,)), bottom=False)
        with pytest.raises(oc.MalformedDescription):
            oc.chain_ptd(bad)


class TestCanonicalForm:
    def test_tail_absorbs_finite_prefix(self):
        a = oc.chain_sublocale(finite={2, 4}, tail=oc.Tail(6, (True, False)),
                               bottom=True)
        b = oc.chain_sublocale(tail=oc.Tail(2, (True, False)), bottom=True)
        assert a == b

    def test_pattern_period_reduced(self):
        a = oc.chain_sublocale(tail=oc.Tail(1, (True, False, True, False)),
                               bottom=True)
        b = oc.chain_sublocale(tail=oc.Tail(1, (True, False)), bottom=True)
        assert a == b

    def test_all_false_tail_dropped(self):
        a = oc.chain_sublocale(finite={3}, tail=oc.Tail(5, (False, False)))
        assert a.tail is None and a.finite_part == {3}

    def test_level_zero_implicit(self):
        assert oc.chain_sublocale(finite={0}).finite_part == frozenset()

    def test_membership_preserved(self):
        for c in CORPUS:
            rebuilt = oc.chain_sublocale(
                frozenset(n for n in range(1, 40) if c.has_level(n)
                          and (c.tail is None or n < c.tail.offset)),
                c.tail, c.bottom)
            for n in range(0, 40):
                assert rebuilt.has_level(n) == c.has_level(n)


class TestCoveredPrimes:
    def test_whole_chain(self):
        ptd = oc.chain_ptd(oc.chain_whole())
        assert all(ptd.has_level(n) for n in range(1, 64))
        assert not ptd.bottom       # the unattained meet of all levels

    def test_two_point_sublocale(self):
        c = oc.chain_sublocale(bottom=True)
        assert oc.chain_ptd(c) == oc.chain_point_set(bottom=True)

    def test_top_only_empty(self):
        assert oc.chain_ptd(oc.chain_sublocale()) == oc.chain_point_set()

    def test_bottom_covered_iff_finitely_many_levels(self):
        for c in CORPUS:
            if not c.bottom:
                continue
            assert oc.chain_ptd(c).bottom == (not c.is_infinite())


class TestRemark:
    def test_full_reproduction(self):
        s = oc.even_levels_sublocale()
        t = oc.odd_levels_sublocale()
        assert oc.chain_is_d_sublocale(s)
        assert oc.chain_is_d_sublocale(t)
        inter = oc.chain_intersect(s, t)
        assert inter == oc.chain_sublocale(bottom=True)   # {top, bottom}
        assert oc.chain_ptd(inter) == oc.chain_point_set(bottom=True)
        assert not oc.chain_ptd_whole().bottom
        assert not oc.chain_is_d_sublocale(inter)

    def test_join_is_whole_chain(self):
        s = oc.even_levels_sublocale()
        t = oc.odd_levels_sublocale()
        assert oc.chain_join(s, t) == oc.chain_whole()

    def test_intersection_idempotent(self):
        for c in CORPUS[:40]:
            assert oc.chain_intersect(c, c) == c


class TestDifference:
    def test_residuation_characterisation(self):
        sample = CORPUS[::7]
        for c, d, r in itertools.product(sample, repeat=3):
            diff = oc.chain_difference(c, d)
            lhs = oc.chain_subset(diff, r)
            rhs = oc.chain_subset(c, oc.chain_join(d, r))
            assert lhs == rhs, (c, d, r)

    def test_difference_is_least(self):
        for c, d in itertools.product(CORPUS[::5], repeat=2):
            diff = oc.chain_difference(c, d)
            assert oc.chain_is_sublocale(diff)
            assert oc.chain_subset(c, oc.chain_join(d, diff))


class TestDFamily:
    def test_closed_under_joins(self):
        ds = [c for c in CORPUS if oc.chain_is_d_sublocale(c)]
        for c, d in itertools.product(ds[::4], repeat=2):
            assert oc.chain_is_d_sublocale(oc.chain_join(c, d))

    def test_closed_under_differences(self):
        ds = [c for c in CORPUS if oc.chain_is_d_sublocale(c)]
        for c in ds[::4]:
            for d in CORPUS[::4]:
                assert oc.chain_is_d_sublocale(oc.chain_difference(c, d))

    def test_corpus_has_both_kinds(self):
        kinds = {oc.chain_is_d_sublocale(c) for c in CORPUS}
        assert kinds == {True, False}

    def test_surjection_d_homomorphism_examples(self):
        # the inclusion preserves covered primes exactly on D-sublocales
        assert not oc.chain_is_d_sublocale(oc.chain_sublocale(bottom=True))
        assert oc.chain_is_d_sublocale(oc.chain_whole())


class TestTruncation:
    def test_set_ops_agree(self):
        sample = CORPUS[::6]
        for c, d in itertools.product(sample, repeat=2):
            depth = max(oc.min_truncation_depth(c, d), 16)
            assert oc.truncation_matches_set_op(c, d, "intersect", depth)
            assert oc.truncation_matches_set_op(c, d, "join", depth)

    def test_ptd_agrees_up_to_64(self):
        for c in CORPUS[::3]:
            for depth in (16, 32, 64):
                if depth >= oc.min_truncation_depth(c):
                    assert oc.truncation_matches_ptd(c, depth)

    def test_truncated_frame_shape(self):
        f = oc.truncated_chain_frame(4)
        assert f.n == 6
        assert f.labels == ("1", "a1", "a2", "a3", "a4", "0")

    def test_truncation_loses_bottom_noncoveredness(self):
        # inside any finite cut the bottom becomes covered: the cut is the
        # reason the chain module exists
        whole = oc.chain_whole()
        tc = oc.truncate_sublocale(whole, 8)
        assert 9 in sy.covered_points_of(tc)        # the finite bottom
        assert not oc.chain_ptd(whole).bottom


class TestFormat:
    def test_documented_example(self):
        c = oc.parse_description(
            "finite: 2 5 9 ; tail: offset=14 pattern=10 ; bottom: yes")
        assert c.has_level(2) and c.has_level(5) and c.has_level(9)
        assert c.has_level(14) and not c.has_level(15) and c.has_level(16)
        assert c.bottom

    def test_roundtrip_on_corpus(self):
        for c in CORPUS:
            assert oc.parse_description(oc.format_description(c)) == c

    def test_malformed_inputs(self):
        for text in ("finite: x", "tail: offset=1", "bottom: maybe",
                     "what: 1", "tail: offset=1 pattern=12",
                     "finite: 1 ; finite: 2"):
            with pytest.raises(oc.MalformedDescription):
                oc.parse_description(text)

    def test_empty_text_is_top_only(self):
        for text in ("", "tail: none"):
            assert oc.parse_description(text) == oc.chain_sublocale()
