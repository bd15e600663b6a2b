import dataclasses
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from polycx import (
    GroupPresentation,
    abelianization,
    is_perfect,
    higman_presentation,
    presentation_complex,
    presentation_complex_stats,
    q_superperfect_certificate,
    fundamental_group,
    simplify_presentation,
    homology,
    format_grp,
    parse_grp,
)
from polycx.groups import free_reduce, cyclic_reduce, cyclic_presentation

import oracles
from _corpus import circle, sphere2, torus


letters = st.integers(-3, 3).filter(lambda x: x != 0)


class TestWords:

    def test_free_reduce(self):
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(letters, max_size=10))
    def test_reduce_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once


class TestAbelianization:

    def test_cyclic(self):
        assert abelianization(cyclic_presentation(6)) == (0, (6,))

    def test_free_group(self):
        assert abelianization(GroupPresentation.make(2, [])) == (2, ())

    def test_commutator_relator_ignored_in_h1(self):
        pres = GroupPresentation.make(2, [(1, 2, -1, -2)])
        assert abelianization(pres) == (2, ())

    def test_higman_perfect(self):
        pres = higman_presentation()
        assert abelianization(pres) == (0, ())
        assert is_perfect(pres)

    def test_h1_comes_from_a_certified_smith_form(self, monkeypatch):
        # a forged Smith form of the exponent matrix [[6]]: D = [[1]] is a
        # Smith form, but no operation is logged that carries [[6]] to it
        groups = importlib.import_module("polycx.groups")
        real = groups.smith_normal_form
        monkeypatch.setattr(groups, "smith_normal_form", lambda M: dataclasses.replace(
            real(M), diagonal=[[1]], invariant_factors=[1]))
        with pytest.raises(AssertionError, match="1 x 1 exponent matrix failed certification"):
            abelianization(cyclic_presentation(6))

    def test_higman_balanced_chi_one(self):
        chi, balanced = presentation_complex_stats(higman_presentation())
        assert chi == 1
        assert balanced


class TestPresentationComplex:

    def test_higman_certified_superperfect(self):
        K = presentation_complex(higman_presentation())
        cert = q_superperfect_certificate(K)
        assert cert["certified"]
        assert cert["reduced_betti"] == [0, 0, 0]

    def test_cyclic_group_not_superperfect_over_q(self):
        # Z/2 has trivial Q-homology in degree 1 but the complex is RP^2-like
        K = presentation_complex(cyclic_presentation(1))  # trivial group <x | x>
        cert = q_superperfect_certificate(K)
        assert cert["certified"]

    def test_free_loop_obstruction(self):
        K = presentation_complex(GroupPresentation.make(1, []))
        cert = q_superperfect_certificate(K)
        assert not cert["certified"]
        assert cert["obstructions"] == {"b1": 1}

    def test_complex_h1_matches_abelianization_rank(self):
        pres = GroupPresentation.make(2, [(1, 1), (2, 2, 2)])
        K = presentation_complex(pres)
        prof = homology(K, "Z")
        free_rank, torsion = abelianization(pres)
        assert prof.betti[1] == free_rank
        assert prof.torsion[1] == torsion


class TestFundamentalGroup:

    def test_circle_is_free_of_rank_one(self):
        pres = simplify_presentation(fundamental_group(circle(5)))
        assert (pres.generators, pres.relators) == (1, ())

    def test_sphere_is_trivial(self):
        pres = simplify_presentation(fundamental_group(sphere2()))
        assert abelianization(pres) == (0, ())

    def test_torus_abelianization(self):
        pres = fundamental_group(torus())
        assert abelianization(pres) == (2, ())

    def test_wedge_of_two_circles(self):
        from polycx import SimplicialComplex
        K = SimplicialComplex([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        pres = simplify_presentation(fundamental_group(K))
        assert (pres.generators, pres.relators) == (2, ())



@st.composite
def presentations(draw):
    """Up to five generators and up to eight short relators, so one-letter
    relators, duplicates and kills are frequent."""
    g = draw(st.integers(1, 5))
    letter = st.sampled_from([x for x in range(-g, g + 1) if x])
    return GroupPresentation.make(g, draw(st.lists(st.lists(letter, max_size=6), max_size=8)))


class TestSimplify:

    @settings(max_examples=400, deadline=None)
    @given(presentations())
    def test_matches_variant_set_oracle(self, pres):
        got = simplify_presentation(pres)
        g, relators = oracles.simplify_presentation(pres.generators, pres.relators)
        assert (got.generators, got.relators) == (g, relators)
        assert format_grp(got) == format_grp(GroupPresentation.make(g, relators))

    def test_kills_one_generator_at_a_time(self):
        # x1 dies first, then x3; killing both at once would leave
        # cyclic_reduce the other rotation, x1^-1 x2
        pres = GroupPresentation.make(4, [(-1, -2, 4, -1, -2, 3, 2), (2, 1, -2), (-3,)])
        got = simplify_presentation(pres)
        assert (got.generators, got.relators) == (2, ((2, -1),))


class TestGrpFormat:

    def test_round_trip(self):
        pres = higman_presentation()
        assert parse_grp(format_grp(pres)) == pres

    def test_explicit_text(self):
        text = "gens 2\nx1 x2 x1^-1 x2^-1\n"
        pres = parse_grp(text)
        assert pres.relators == ((1, 2, -1, -2),)
        assert format_grp(pres) == text

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            parse_grp("gens 1\nx2\n")
