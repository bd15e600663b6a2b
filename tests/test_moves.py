import pytest

from polycx import (
    SimplicialComplex,
    DualComplexMove,
    dual_move,
    dual_complex,
    stellar_subdivide,
    barycentric_move,
    cone_over_star,
    homology,
)

from _corpus import circle, sphere2, torus, projective_plane


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
