import dataclasses
import importlib

import pytest
from hypothesis import example, given, settings, strategies as st

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


@st.composite
def grp_texts(draw):
    """GRP/1 texts with at most five generators and four relators, written
    as drawn, before any reduction: empty relators and ones that reduce
    away, repeated and inverse letters, generators that no relator uses,
    and no generator at all."""
    g = draw(st.integers(0, 5))
    letters = ["x%d%s" % (a, inv) for a in range(1, g + 1) for inv in ("", "^-1")]
    word = st.lists(st.sampled_from(letters), max_size=6) if g else st.just([])
    words = draw(st.lists(word, max_size=4))
    return "gens %d\n" % g + "".join(" ".join(w) + "\n" for w in words)


class TestAbelianization:

    def test_exponent_matrix_has_a_column_per_used_generator(self):
        pres = parse_grp("gens 4\nx1 x3 x1^-1 x3^-1\nx3 x3\nx2 x2^-1\n")
        assert pres.exponent_matrix() == [[0, 0], [0, 2], [0, 0]]
        huge = GroupPresentation.make(10 ** 15, [(1, 2, -1, -2)])
        assert huge.exponent_matrix() == [[0, 0]]
        assert abelianization(huge) == (10 ** 15, ())

    @settings(max_examples=150, deadline=None)
    @given(grp_texts())
    @example("gens 3\nx1 x3 x1^-1 x3^-1\n")
    @example("gens 3\nx3 x3\nx1 x1^-1\n")
    @example("gens 0\n")
    def test_is_the_smith_form_of_a_column_per_generator(self, text):
        # the columns of the generators no relator uses are zero, and
        # change no invariant factor
        pres = parse_grp(text)
        factors = oracles.snf_invariant_factors(
            oracles.exponent_matrix(pres.generators, pres.relators))
        assert abelianization(pres) == (pres.generators - len(factors),
                                        tuple(d for d in factors if d > 1))

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

    def test_a_spare_relator_is_a_b2_obstruction(self):
        # <x | x, x> is trivial, but its complex holds a 2-sphere, so
        # Hopf's argument certifies nothing
        K = presentation_complex(GroupPresentation.make(1, [(1,), (1,)]))
        assert q_superperfect_certificate(K) == {
            "certified": False, "reduced_betti": [0, 0, 1], "obstructions": {"b2": 1}}

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

    def test_disconnected_complex_is_rejected(self):
        from polycx import SimplicialComplex
        with pytest.raises(ValueError, match="complex must be connected"):
            fundamental_group(SimplicialComplex([(0,), (1,)]))



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
