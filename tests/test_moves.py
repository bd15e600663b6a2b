import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polycx import (
    SimplicialComplex,
    format_scx,
    DualComplexMove,
    dual_move,
    dual_complex,
    stellar_subdivide,
    barycentric_move,
    cone_over_star,
    homology,
)
from polycx.simplicial import label_key

import oracles
from _corpus import circle, sphere2, torus, projective_plane

# mixed int and str labels, some of them the labels a move would add
LABELS = [0, 1, 2, 3, 4, "a", "b", "x", "b(0,1)", "b(1,a)", "c(0)", "c(a)"]


@st.composite
def complexes_with_targets(draw, members_only=False):
    """A closed complex from up to six random simplices and two extra
    vertices, and a target: mostly one of its simplices, sometimes any
    set of labels."""
    tops = draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1, max_size=4),
                         min_size=1, max_size=6))
    K = SimplicialComplex(tops, vertices=draw(st.lists(st.sampled_from(LABELS), max_size=2)))
    if members_only or draw(st.integers(0, 4)):
        target = draw(st.sampled_from(K.simplices()))
    else:
        target = draw(st.sets(st.sampled_from(LABELS), min_size=1, max_size=3))
    return K, tuple(sorted(target, key=label_key))


def attempt(move, *args):
    """(result, None), or (None, message) if the move raises ValueError."""
    try:
        return move(*args), None
    except ValueError as e:
        return None, str(e)


def barycentric_oracle(simplices, vertices, target):
    fs = frozenset(target)
    if fs not in simplices:
        raise ValueError("target simplex not in complex")
    simplices, vertices = set(simplices), set(vertices)
    for size in range(len(fs), 1, -1):
        for face in itertools.combinations(sorted(fs, key=label_key), size):
            simplices, vertices = oracles.stellar_subdivide(simplices, vertices, face)
    return simplices, vertices


class TestStellar:

    def test_edge_subdivision_of_circle(self):
        K = circle(3)
        L = stellar_subdivide(K, (0, 1))
        assert L.f_vector() == (4, 4)
        assert homology(L, "Z").betti == (1, 1)

    def test_triangle_becomes_three(self):
        K = SimplicialComplex([(0, 1, 2)])
        L = stellar_subdivide(K, (0, 1, 2))
        assert len(L.simplices(2)) == 3

    def test_vertex_subdivision_is_identity(self):
        K = circle(4)
        assert stellar_subdivide(K, (0,)) == K

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            stellar_subdivide(circle(4), (0, 2))


class TestMoves:

    def test_barycentric_preserves_surface_homology(self):
        for K in (sphere2(), torus(), projective_plane()):
            before = homology(K, "Z")
            target = next(iter(K.simplices(2)))
            L = dual_move(K, DualComplexMove("barycentric", tuple(target)))
            after = homology(L, "Z")
            assert (before.betti, before.torsion) == (after.betti, after.torsion)

    def test_cone_over_star_preserves_homology(self):
        K = circle(3)
        L = dual_move(K, DualComplexMove("cone-over-star", (0,)))
        a, b = homology(L, "Z"), homology(K, "Z")
        assert all(a.betti_at(k) == b.betti_at(k) for k in range(3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DualComplexMove("flip", (0, 1))

    def test_moves_commute_with_euler(self):
        K = sphere2()
        target = tuple(next(iter(K.simplices(1))))
        L = barycentric_move(K, target)
        assert L.euler_characteristic() == K.euler_characteristic()


class TestLocalMoves:
    """The moves edit the simplex set locally; the oracles close the whole
    set under faces again, as the moves once did."""

    @settings(max_examples=300, deadline=None)
    @given(complexes_with_targets(), st.sampled_from([
        (stellar_subdivide, oracles.stellar_subdivide),
        (cone_over_star, oracles.cone_over_star),
        (barycentric_move, barycentric_oracle),
    ]))
    def test_move_matches_closing_oracle(self, case, moves):
        (K, target), (move, oracle) = case, moves
        got, error = attempt(move, K, target)
        want, want_error = attempt(oracle, set(K), K.vertices, target)
        assert error == want_error
        if want is not None:
            simplices, vertices = want
            assert set(got) == simplices
            assert set(got.vertices) == vertices
            assert format_scx(got) == format_scx(SimplicialComplex(simplices, vertices))

    @settings(max_examples=150, deadline=None)
    @given(complexes_with_targets(members_only=True),
           st.sampled_from([stellar_subdivide, cone_over_star, barycentric_move]))
    def test_moved_complex_is_closed_under_faces(self, case, move):
        K, target = case
        L, error = attempt(move, K, target)
        if L is None:
            assert "already used" in error
            return
        simplices = set(L)
        for s in simplices:
            for k in range(1, len(s)):
                assert all(frozenset(f) in simplices for f in itertools.combinations(s, k))
        assert {v for s in simplices for v in s} == set(L.vertices)
        assert L == SimplicialComplex(simplices, L.vertices)

    def test_label_clashes_are_rejected(self):
        K = SimplicialComplex([(0, 1, "b(0,1)"), (0, "c(0)")])
        with pytest.raises(ValueError, match="barycenter label 'b\\(0,1\\)' already used"):
            stellar_subdivide(K, (0, 1))
        with pytest.raises(ValueError, match="cone label 'c\\(0\\)' already used"):
            cone_over_star(K, (0,))
        with pytest.raises(ValueError, match="target simplex not in complex"):
            cone_over_star(K, (1, "c(0)"))


class TestDualComplex:

    def test_three_pairwise_meeting_surfaces(self):
        K = dual_complex("ABC", {
            frozenset("A"): 1, frozenset("B"): 1, frozenset("C"): 1,
            frozenset("AB"): 1, frozenset("BC"): 1, frozenset("AC"): 1,
            frozenset("ABC"): 1,
        })
        assert K.f_vector() == (3, 3, 1)

    def test_cycle_with_empty_triple_locus(self):
        K = dual_complex("ABC", {
            frozenset("A"): 1, frozenset("B"): 1, frozenset("C"): 1,
            frozenset("AB"): 1, frozenset("BC"): 1, frozenset("AC"): 1,
        })
        assert homology(K, "Z").betti == (1, 1)

    def test_double_intersection_makes_a_cycle(self):
        # two components meeting in two circles: subdivided digon
        K = dual_complex("AB", {
            frozenset("A"): 1, frozenset("B"): 1, frozenset("AB"): 2,
        })
        assert homology(K, "Z").betti == (1, 1)

    def test_strata_must_be_downward_closed(self):
        with pytest.raises(ValueError):
            dual_complex("AB", {frozenset("AB"): 1})

    def test_singleton_multiplicity_must_be_one(self):
        with pytest.raises(ValueError):
            dual_complex("A", {frozenset("A"): 2})

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            dual_complex("A", {frozenset("AZ"): 1})
        with pytest.raises(ValueError, match="unknown components"):
            dual_complex([], {frozenset(["A", 1]): 0})  # mixed labels
