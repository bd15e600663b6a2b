import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from polycx import SimplicialComplex, homology, smith_normal_form
from polycx.homology import ChainComplex, SmithForm, int_rank, mat_mul

from oracles import snf_invariant_factors, betti_numbers
from _corpus import circle, sphere2, torus, projective_plane


class TestSmithNormalForm:

    def test_diag_already(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.invariant_factors == [1, 6]
        assert snf.certify([[2, 0], [0, 3]])

    def test_classic_example(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        snf = smith_normal_form(M)
        assert snf.invariant_factors == snf_invariant_factors(M)
        assert snf.certify(M)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.invariant_factors == []

    def test_divisibility_chain(self):
        rng = random.Random(5)
        M = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(5)]
        snf = smith_normal_form(M)
        f = snf.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))

    def test_certify_rejects_wrong_diagonal(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        snf = smith_normal_form(M)
        D = [row[:] for row in snf.diagonal]
        D[0][0] += 1
        assert not SmithForm(D, snf.invariant_factors, snf.U, snf.V).certify(M)

    def test_certify_rejects_non_unimodular_transforms(self):
        # (2U) M V = U M (2V) = 2D still hold, but |det 2U| = |det 2V| != 1
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        snf = smith_normal_form(M)
        U2 = [[2 * x for x in row] for row in snf.U]
        V2 = [[2 * x for x in row] for row in snf.V]
        D2 = [[2 * x for x in row] for row in snf.diagonal]
        for U, V in ((U2, snf.V), (snf.U, V2)):
            assert mat_mul(mat_mul(U, M), V) == D2
            assert not SmithForm(D2, snf.invariant_factors, U, V).certify(M)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_matches_minor_gcd_oracle(self, M):
        snf = smith_normal_form(M)
        assert snf.invariant_factors == snf_invariant_factors(M)
        assert snf.certify(M)


class TestChainComplex:

    def test_boundary_of_boundary_checked(self):
        with pytest.raises(AssertionError):
            ChainComplex([1, 1, 1], {1: [[1]], 2: [[1]]})

    def test_of_complex_ranks(self):
        cc = ChainComplex.of_complex(sphere2())
        assert cc.ranks == [4, 6, 4]

    def test_boundary_squares_to_zero(self):
        cc = ChainComplex.of_complex(torus())
        prod = mat_mul(cc.boundaries[1], cc.boundaries[2])
        assert all(all(x == 0 for x in row) for row in prod)


class TestHomology:

    def test_circle(self):
        prof = homology(circle(4), "Z")
        assert prof.betti == (1, 1)
        assert prof.torsion == ((), ())

    def test_sphere(self):
        prof = homology(sphere2(), "Z")
        assert prof.betti == (1, 0, 1)

    def test_torus(self):
        prof = homology(torus(), "Z")
        assert prof.betti == (1, 2, 1)
        assert prof.torsion == ((), (), ())

    def test_projective_plane_torsion(self):
        prof = homology(projective_plane(), "Z")
        assert prof.betti == (1, 0, 0)
        assert prof.torsion[1] == (2,)
        # over Q the torsion is invisible
        assert homology(projective_plane(), "Q").betti == (1, 0, 0)

    def test_z_homology_certifies_smith_forms(self, monkeypatch):
        def doubled(M):
            snf = smith_normal_form(M)
            return SmithForm([[2 * x for x in row] for row in snf.diagonal],
                             snf.invariant_factors,
                             [[2 * x for x in row] for row in snf.U], snf.V)
        # the package exports the function `homology` under the module's name
        module = importlib.import_module("polycx.homology")
        monkeypatch.setattr(module, "smith_normal_form", doubled)
        with pytest.raises(AssertionError, match="boundary 1"):
            homology(circle(4), "Z")

    def test_two_components(self):
        K = SimplicialComplex([(0, 1), (2, 3)])
        prof = homology(K, "Z")
        assert prof.betti == (2, 0)
        assert prof.reduced_betti() == (1, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4),
                    min_size=1, max_size=7))
    def test_matches_fraction_oracle_over_q(self, simplices):
        K = SimplicialComplex(simplices)
        prof = homology(K, "Q")
        assert list(prof.betti) == betti_numbers(
            [tuple(s) for s in K.maximal_simplices()])
