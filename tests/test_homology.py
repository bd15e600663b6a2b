import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from polycx import SimplicialComplex, homology, linalg, smith_normal_form
from polycx.homology import ADD, NEGATE, SWAP, V_SIDE, ChainComplex, SmithForm, int_rank, mat_mul

import oracles
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
        assert not SmithForm(D, snf.invariant_factors, snf.log).certify(M)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_matches_minor_gcd_oracle(self, M):
        snf = smith_normal_form(M)
        assert snf.invariant_factors == snf_invariant_factors(M)
        assert snf.certify(M)


ENTRIES = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-12, 12))


@st.composite
def int_matrices(draw, rows=None, cols=None):
    """Integer matrices of 0-7 rows and 0-7 columns, mostly zeros and
    units, sometimes with a whole zero row or column."""
    m = draw(st.integers(0, 7)) if rows is None else rows
    n = draw(st.integers(0, 7)) if cols is None else cols
    M = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    if m and draw(st.booleans()):
        M[draw(st.integers(0, m - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = 0
    return M


@st.composite
def boundary_matrices(draw):
    simplex = st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True)
    simplices = draw(st.lists(simplex, min_size=1, max_size=6))
    boundaries = ChainComplex.of_complex(SimplicialComplex(simplices)).boundaries
    return boundaries[draw(st.sampled_from(sorted(boundaries)))]


def assert_matches_dense_oracle(M):
    snf = smith_normal_form(M)
    D, factors, U, V = oracles.smith_normal_form(M)
    assert snf.diagonal == D
    assert snf.U == U
    assert snf.V == V
    assert snf.invariant_factors == factors
    assert snf.certify(M)


class TestSparseKernel:
    """The zero-skipping Smith form, product and rank against the dense
    versions they replace (oracles.smith_normal_form, oracles.mat_mul) and
    against rank over Q by Gauss-Jordan elimination on fractions
    (oracles.rational_rank)."""

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_smith_form_equals_dense_oracle(self, M):
        assert_matches_dense_oracle(M)

    @settings(max_examples=60, deadline=None)
    @given(boundary_matrices())
    def test_boundary_smith_form_equals_dense_oracle(self, M):
        assert_matches_dense_oracle(M)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.data())
    def test_mat_mul_equals_dense_oracle(self, m, k, p, data):
        A = data.draw(int_matrices(m, k))
        B = data.draw(int_matrices(k, p))
        assert mat_mul(A, B) == oracles.mat_mul(A, B)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(int_matrices(), boundary_matrices()))
    def test_sparse_rank_equals_rational_rank(self, M):
        assert int_rank(M) == oracles.rational_rank(M)

    def test_products_keep_the_shape_of_empty_factors(self):
        assert mat_mul([[1, 0], [0, 1]], [[], []]) == [[], []]
        assert mat_mul([[], []], []) == [[], []]
        assert mat_mul([], [[1, 2]]) == []
        assert smith_normal_form([[], []]).certify([[], []])

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(), st.data())
    def test_certify_rejects_one_changed_entry_of_d(self, M, data):
        snf = smith_normal_form(M)
        if not M or not M[0]:
            return
        i = data.draw(st.integers(0, len(M) - 1))
        j = data.draw(st.integers(0, len(M[0]) - 1))
        D = [row[:] for row in snf.diagonal]
        D[i][j] += data.draw(st.sampled_from([1, -1, 2]))
        assert not SmithForm(D, snf.invariant_factors, snf.log).certify(M)

    def test_certify_rejects_u_of_determinant_two(self):
        # U = [[2]] would give U M V = D, but no log builds a U of
        # determinant two, and the empty log leaves M = [[1]] as it is
        M, D = [[1]], [[2]]
        assert not SmithForm(D, [2], []).certify(M)

    def test_certify_rejects_a_non_diagonal_d(self):
        # the empty log carries M to D = M, but D is no Smith form
        M = [[2, 4], [6, 8]]
        assert not SmithForm(M, [], []).certify(M)

    def test_certify_rejects_factors_that_are_not_d(self):
        M = [[1, 0], [0, 5]]
        assert not SmithForm(M, [7], []).certify(M)
        assert SmithForm(M, [1, 5], []).certify(M)

    @pytest.mark.parametrize("M, factors", [
        ([[2, 0], [0, 3]], [2, 3]),    # 2 does not divide 3
        ([[-1, 0], [0, 0]], [-1]),     # a negative factor
        ([[0, 0], [0, 0]], [0]),       # a zero factor
        ([[1, 0], [0, 0]], [1, 0, 0]),  # more factors than the diagonal holds
    ], ids=["chain", "negative", "zero", "too-many"])
    def test_certify_rejects_bad_factors(self, M, factors):
        assert not SmithForm(M, factors, []).certify(M)

    def test_certify_rejects_singular_v(self):
        # the singular V = [[1, 0], [0, 0]] would give M V = D; no log builds
        # it, and column 1 -= column 0 is the operation that does carry M to D
        M, D = [[1, 1]], [[1, 0]]
        assert not SmithForm(D, [1], []).certify(M)
        assert SmithForm(D, [1], [V_SIDE + ADD, 1, 0, -1]).certify(M)


# logs that leave the grammar, each on a 2 x 2 form
OUTSIDE_GRAMMAR = [
    [ADD, 0, -1, 1],               # a negative index would read row 1
    [ADD, 0, 2, 1],
    [SWAP, 0, 2, 0],
    [NEGATE, 2, 2, 0],
    [V_SIDE + SWAP, 0, 2, 0],
    [2 * V_SIDE, 0, 1, 1],         # no such code
    [-1, 0, 1, 1],
    [ADD, 0, 1],                   # not four ints per operation
    [ADD, 0, 1, 1.0],              # not an int
]
OUTSIDE_GRAMMAR_IDS = ["negative", "add", "swap", "negate", "v-swap", "code-6", "code-minus-1",
                       "short", "float"]


def logged_ops(snf, side):
    """Positions in snf.log of the ADD operations on U (side 0) or V (side 1)."""
    code = side * V_SIDE + ADD
    return [p for p in range(0, len(snf.log), 4) if snf.log[p] == code]


class TestOperationLog:
    """The Smith form certificate: the logged operations replayed on M must
    give D exactly.  Every logged operation is an integer matrix of
    determinant +-1, and U and V are read off the log; linalg.int_det and
    oracles.certify_smith_form, the check on stored transforms that the
    replay replaced, are the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(int_matrices(), boundary_matrices()))
    def test_every_smith_form_replays_to_unimodular_transforms(self, M):
        snf = smith_normal_form(M)
        assert snf.certify(M)
        assert len(snf.log) % 4 == 0
        for T in (snf.U, snf.V):
            assert not T or abs(linalg.int_det(T)) == 1

    def test_certify_computes_no_determinant(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a product or a determinant was computed")
        monkeypatch.setattr(linalg, "int_det", refuse)
        monkeypatch.setattr(importlib.import_module("polycx.homology"), "mat_mul", refuse)
        for M in ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [[1, 1]], [[0, 2], [3, 0], [1, 1]]):
            snf = smith_normal_form(M)
            assert snf.log and snf.certify(M)
            assert not SmithForm(snf.diagonal, snf.invariant_factors, snf.log[:-4]).certify(M)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(int_matrices(), boundary_matrices()),
           st.sampled_from(["none", "q", "drop", "d"]), st.data())
    def test_certify_agrees_with_the_stored_transform_oracle(self, M, change, data):
        # the oracle checks the transforms a form used to store: those of
        # the dense oracle Smith form, which shares no code with the log
        snf = smith_normal_form(M)
        _, _, U, V = oracles.smith_normal_form(M)
        D, log = [row[:] for row in snf.diagonal], list(snf.log)
        adds = logged_ops(snf, 0) + logged_ops(snf, 1)
        if change == "q" and adds:
            log[data.draw(st.sampled_from(adds)) + 3] += data.draw(st.sampled_from([1, -1, 2]))
        elif change == "drop" and log:
            del log[-4:]
        elif change == "d" and M and M[0]:
            D[data.draw(st.integers(0, len(D) - 1))][data.draw(st.integers(0, len(M[0]) - 1))] \
                += data.draw(st.sampled_from([1, -1, 2]))
        else:
            change = "none"
        got = SmithForm(D, snf.invariant_factors, log).certify(M)
        assert got == oracles.certify_smith_form(M, D, snf.invariant_factors, U, V, log)
        assert got == (change == "none")

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.sampled_from([0, 1]), st.sampled_from([1, -1, 2]), st.data())
    def test_certify_rejects_a_log_that_disagrees_with_u_or_v(self, M, side, delta, data):
        # changing q by delta adds delta times a product of invertible
        # matrices and the row (or column) src, nonzero at that step, to
        # the replay, so it no longer gives D
        snf = smith_normal_form(M)
        ops = logged_ops(snf, side)
        if not ops:
            return
        log = list(snf.log)
        log[data.draw(st.sampled_from(ops)) + 3] += delta
        assert not SmithForm(snf.diagonal, snf.invariant_factors, log).certify(M)

    def test_certify_rejects_a_log_missing_its_last_operation(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        snf = smith_normal_form(M)
        assert snf.log
        assert not SmithForm(snf.diagonal, snf.invariant_factors, snf.log[:-4]).certify(M)

    def test_certify_rejects_an_add_that_scales_a_row(self):
        # row 0 += 1 * row 0 would double it and carry M to D, but the log
        # grammar admits no add with src = dst
        M, D = [[1]], [[2]]
        assert not SmithForm(D, [2], [ADD, 0, 0, 1]).certify(M)
        assert not SmithForm(D, [2], [V_SIDE + ADD, 0, 0, 1]).certify(M)

    I2 = [[1, 0], [0, 1]]

    @pytest.mark.parametrize("log", OUTSIDE_GRAMMAR, ids=OUTSIDE_GRAMMAR_IDS)
    def test_certify_rejects_a_log_outside_its_grammar(self, log):
        # with [ADD, 0, 1, 1] the same form is certified: row 0 += row 1
        M = [[1, -1], [0, 1]]
        assert SmithForm(self.I2, [1, 1], [ADD, 0, 1, 1]).certify(M)
        assert not SmithForm(self.I2, [1, 1], log).certify(M)

    @pytest.mark.parametrize("log", OUTSIDE_GRAMMAR, ids=OUTSIDE_GRAMMAR_IDS)
    def test_transforms_of_a_log_outside_its_grammar_raise(self, log):
        snf = SmithForm(self.I2, [1, 1], log)
        for name in ("U", "V"):
            with pytest.raises(ValueError):
                getattr(snf, name)

    def test_every_operation_of_the_grammar_is_unimodular(self):
        rng = random.Random(3)
        for _ in range(200):
            log = []
            for _ in range(rng.randint(0, 12)):
                code = rng.randrange(2 * V_SIDE)
                dst, src = rng.sample(range(4), 2)
                log += [code, dst, src if code % V_SIDE != NEGATE else dst,
                        rng.randint(-3, 3) if code % V_SIDE == ADD else 0]
            snf = SmithForm([[0] * 4 for _ in range(4)], [], log)
            for T in (snf.U, snf.V):
                assert abs(linalg.int_det(T)) == 1


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

    def test_edited_rows_change_no_later_result(self):
        K = projective_plane()
        want = ChainComplex.of_complex(K).boundaries
        z, q = homology(K, "Z"), homology(K, "Q")
        cc = ChainComplex.of_complex(K)
        cc.boundaries[1][0][0] += 5
        cc.boundaries[2][0] = [7] * len(cc.boundaries[2][0])
        cc.ranks[0] = 99
        assert homology(K, "Z") == z and homology(K, "Q") == q
        again = ChainComplex.of_complex(K)
        assert again.boundaries == want and again.ranks == [6, 15, 10]

    def test_one_build_per_complex(self, monkeypatch):
        module = importlib.import_module("polycx.homology")
        builds = []

        def counted(K):
            builds.append(K)
            return build(K)
        build = module._build_complex
        monkeypatch.setattr(module, "_build_complex", counted)
        K, L = torus(), sphere2()
        homology(K, "Z"), homology(K, "Q"), ChainComplex.of_complex(K)
        assert builds == [K]
        assert homology(L, "Z").betti == (1, 0, 1)
        assert homology(K, "Z").betti == (1, 2, 1)  # the slot holds L now
        assert builds == [K, L, K]


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
            # D and the factors doubled agree with each other, but the log
            # still carries M to the undoubled D
            snf = smith_normal_form(M)
            return SmithForm([[2 * x for x in row] for row in snf.diagonal],
                             [2 * d for d in snf.invariant_factors], snf.log)
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
