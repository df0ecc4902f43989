import gc
import weakref

import pytest

from localelab import frames
from localelab import spaces
from localelab import sublocales as subl
from localelab import subsystems as sy
from localelab.spaces import SpaceError, SpaceFormatError

import oracle
from conftest import all_spaces


def all_small_spaces(max_points=3):
    out = []
    for k in range(max_points + 1):
        out.extend(all_spaces(k))
    return out


class TestTopologyValidation:
    def test_missing_full_set(self):
        with pytest.raises(SpaceError):
            spaces.space(2, [[]])

    def test_union_escape(self):
        with pytest.raises(SpaceError):
            spaces.space(3, [[], [0], [1], [0, 1, 2]])

    def test_intersection_escape(self):
        with pytest.raises(SpaceError):
            spaces.space(3, [[], [0, 1], [1, 2], [0, 1, 2]])


class TestOmega:
    def test_sierpinski_gives_three_chain(self):
        om = spaces.omega(spaces.sierpinski())
        assert om.frame.n == 3
        assert all(int(om.frame.covers[i].sum()) <= 1 for i in range(3))

    def test_discrete_two_gives_square(self):
        om = spaces.omega(spaces.discrete(2))
        assert om.frame.n == 4
        assert len(frames.primes(om.frame)) == 2

    def test_one_point_space_gives_two_chain(self):
        om = spaces.omega(spaces.discrete(1))
        assert om.frame.n == 2

    def test_cached_frame_identity(self):
        # both spaces are held, so the first one's entry is still cached
        # when the second, equal space asks for its frame
        first, second = spaces.sierpinski(), spaces.sierpinski()
        assert spaces.omega(first).frame is spaces.omega(second).frame

    def test_frame_shared_while_its_space_lives(self):
        a, b = spaces.sierpinski(), spaces.sierpinski()
        frame = spaces.omega(a).frame
        assert b is not a
        assert spaces.omega(b).frame is frame
        ref = weakref.ref(frame)
        del a, b, frame
        gc.collect()
        assert ref() is None


class TestSpectrum:
    def test_three_chain_spectrum_is_sierpinski(self, chain3):
        spec = spaces.spectrum(chain3)
        assert spaces.homeomorphic(spec.space, spaces.sierpinski())

    def test_square_spectrum_is_discrete(self, square):
        spec = spaces.spectrum(square)
        assert spaces.homeomorphic(spec.space, spaces.discrete(2))

    def test_one_element_frame_has_empty_spectrum(self):
        f = frames.frame_from_covers(1, [])
        assert spaces.spectrum(f).space.points == 0

    def test_spectrum_always_sober(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            assert spaces.is_sober(spaces.spectrum(f).space)

    def test_td_spectrum_always_td(self, small_corpus):
        for f in (f for f in small_corpus if f.n <= 8):
            assert spaces.is_td(spaces.spectrum_td(f).space)

    def test_counit_is_iso_on_finite_frames(self, small_corpus):
        for f in small_corpus:
            spec = spaces.spectrum(f)
            assert len(set(spec.sigma)) == f.n
            om = spaces.omega(spec.space)
            assert om.frame.n == f.n

    def test_spectrum_of_omega_recovers_sober_t0_spaces(self):
        for sp in all_small_spaces(3):
            if spaces.is_t0(sp) and spaces.is_sober(sp):
                om = spaces.omega(sp)
                spec = spaces.spectrum(om.frame)
                assert spaces.homeomorphic(spec.space, sp)


class TestSeparation:
    def test_sierpinski_td(self):
        assert spaces.is_td(spaces.sierpinski())

    def test_indiscrete_not_t0(self):
        assert not spaces.is_t0(spaces.indiscrete(2))

    def test_finite_t0_implies_td(self):
        for sp in all_small_spaces(3) + all_spaces(4):
            if spaces.is_t0(sp):
                assert spaces.is_td(sp)

    def test_td_iff_skula_discrete(self):
        for sp in all_small_spaces(3) + all_spaces(4):
            discrete = len(spaces.skula(sp).opens) == 1 << sp.points
            assert spaces.is_td(sp) == discrete


class TestOmegaPrime:
    def test_whole_subspace(self):
        sp = spaces.sierpinski()
        assert spaces.omega_prime(sp, {0, 1}) == \
            subl.whole(spaces.omega(sp).frame)

    def test_empty_subspace(self):
        sp = spaces.sierpinski()
        assert spaces.omega_prime(sp, ()) == oracle.zero(spaces.omega(sp).frame)

    def test_closed_point_gives_one_point_sublocale(self):
        sp = spaces.sierpinski()
        om = spaces.omega(sp)
        got = spaces.omega_prime(sp, {0})
        prime = om.index_of({1})      # the complement of the closed point
        assert got == subl.boolean_sublocale(om.frame, prime)

    def test_image_is_spatial(self):
        for sp in all_small_spaces(3):
            for sel in range(1 << sp.points):
                sub = spaces.omega_prime(sp, frozenset(frames.bits_of(sel)))
                assert sy.meet_closure(sub.frame, sy.points_of(sub)) == sub

    def test_injective_iff_td(self):
        for sp in all_small_spaces(3) + all_spaces(4):
            images = [spaces.omega_prime(sp, frozenset(frames.bits_of(sel)))
                      for sel in range(1 << sp.points)]
            assert (len(set(images)) == len(images)) == spaces.is_td(sp)

    def test_surjective_onto_spatial_iff_sober(self):
        # quantified over T0 spaces: without T0 there are no generic
        # points to be unique, yet the T0 quotient can still cover all
        # spatial sublocales (witness: the indiscrete two-point space)
        for sp in all_small_spaces(3):
            if not spaces.is_t0(sp):
                continue
            om = spaces.omega(sp)
            images = {spaces.omega_prime(sp, frozenset(frames.bits_of(sel)))
                      for sel in range(1 << sp.points)}
            assembly = subl.enumerate_assembly(om.frame)
            spatial = {assembly[i] for i in sy.spatial_sublocales(assembly)}
            assert (images == spatial) == spaces.is_sober(sp)

    def test_non_t0_can_cover_without_sobriety(self):
        sp = spaces.indiscrete(2)
        om = spaces.omega(sp)
        images = {spaces.omega_prime(sp, frozenset(frames.bits_of(sel)))
                  for sel in range(1 << sp.points)}
        assembly = subl.enumerate_assembly(om.frame)
        spatial = {assembly[i] for i in sy.spatial_sublocales(assembly)}
        assert images == spatial and not spaces.is_sober(sp)


class TestSpaceDot:
    def test_sierpinski_preorder(self):
        from localelab import dot
        text = dot.space_dot(spaces.sierpinski())
        assert text == ('digraph space {\n  rankdir=BT;\n'
                        '  n0 [label="0"];\n  n1 [label="1"];\n'
                        '  n0 -> n1;\n}\n')

    def test_indiscrete_collapses_to_one_class(self):
        from localelab import dot
        text = dot.space_dot(spaces.indiscrete(2))
        assert '[label="0=1"]' in text
        assert "->" not in text


class TestAllSpaces:
    def test_counts_match_finite_topologies(self):
        # labelled topologies on 0..4 points (OEIS A000798), each once
        for k, count in enumerate((1, 1, 4, 29, 355)):
            found = all_spaces(k)
            assert len(found) == count
            assert len({sp.opens for sp in found}) == count


class TestSpaceFormat:
    def test_roundtrip(self):
        for sp in (spaces.sierpinski(), spaces.discrete(2),
                   spaces.indiscrete(3)):
            assert spaces.parse_space_text(spaces.space_to_text(sp)) == sp

    def test_roundtrip_all_small_spaces(self, tmp_path):
        for sp in all_small_spaces(3):
            assert spaces.parse_space_text(spaces.space_to_text(sp)) == sp
        path = tmp_path / "sierpinski.space"
        path.write_text(spaces.space_to_text(spaces.sierpinski()))
        assert spaces.load_space(str(path)) == spaces.sierpinski()

    def test_unknown_key(self):
        with pytest.raises(SpaceFormatError) as exc:
            spaces.parse_space_text("points: 1\nclosed: 0\n")
        assert exc.value.line == 2

    def test_non_topology_rejected(self):
        text = "points: 3\nopen:\nopen: 0\nopen: 1\nopen: 0 1 2\n"
        with pytest.raises(SpaceFormatError):
            spaces.parse_space_text(text)

    def test_out_of_range_point(self):
        with pytest.raises(SpaceFormatError) as exc:
            spaces.parse_space_text("points: 1\nopen: 3\n")
        assert exc.value.line == 2
