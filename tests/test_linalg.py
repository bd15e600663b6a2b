from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycx import QQ, rat, rat_str
from polycx.linalg import (rref, rank, nullspace, solve, det, dot, int_rank, int_det,
                           in_row_space, row_space_contained, intersect_row_spaces)

from oracles import (rational_rank, rational_rref, rational_det, _int_det,
                     rational_in_row_space, rational_intersect_row_spaces)

entries = st.fractions(min_value=-9, max_value=9, max_denominator=4)
matrices = st.lists(st.lists(entries, min_size=3, max_size=3),
                    min_size=1, max_size=4)


def rows_of(width, values):
    """Rows of `width` values; some rows are all zero."""
    return st.one_of(st.lists(values, min_size=width, max_size=width),
                     st.just([0] * width))


# mixed denominators, so each row is scaled by a different lcm
mixed = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# small entries make rank-deficient matrices likely, large ones exercise
# the exactness of the Bareiss divisions
ints = st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6))
rational_matrices = st.integers(1, 5).flatmap(
    lambda w: st.lists(rows_of(w, mixed), min_size=0, max_size=5))
square_rational = st.integers(0, 5).flatmap(
    lambda n: st.lists(rows_of(n, mixed), min_size=n, max_size=n))
integer_matrices = st.integers(1, 6).flatmap(
    lambda w: st.lists(rows_of(w, ints), min_size=0, max_size=6))
square_integer = st.integers(0, 6).flatmap(
    lambda n: st.lists(rows_of(n, ints), min_size=n, max_size=n))
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def row_space_pairs(draw):
    """(A, B) of one width, not in RREF: random and zero rows, and rows of B
    that are combinations of A's rows, so intersections are often proper."""
    w = draw(st.integers(1, 5))
    a = draw(st.lists(rows_of(w, mixed), max_size=4))
    b = draw(st.lists(rows_of(w, mixed), max_size=3))
    for coeffs in draw(st.lists(st.lists(small, min_size=len(a), max_size=len(a)),
                                max_size=3)):
        b.append([sum((c * row[j] for c, row in zip(coeffs, a)), Fraction(0))
                  for j in range(w)])
    return a, draw(st.permutations(b))


def qq(M):
    return [[rat(c) for c in row] for row in M]


def test_rat_parsing():
    assert rat("3/4") == QQ(3, 4)
    assert rat("-2") == QQ(-2)
    assert rat_str(QQ(6, 4)) == "3/2"
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError, match="1/0"):
        rat("1/0")


def test_det_and_solve():
    M = qq([[2, 1], [1, 1]])
    assert det(M) == 1
    assert solve(M, (rat(3), rat(2))) == (rat(1), rat(1))
    assert solve(qq([[1, 1], [1, 1]]), (rat(0), rat(1))) is None


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_rank_matches_oracle(M):
    assert rank(qq(M)) == rational_rank(M)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_rref_matches_rational_oracle(M):
    rows, pivots = rref(qq(M))
    assert (list(rows), pivots) == rational_rref(M)


@settings(max_examples=150, deadline=None)
@given(square_rational)
def test_det_matches_rational_oracle(M):
    assert det(qq(M)) == rational_det(M)


@settings(max_examples=150, deadline=None)
@given(integer_matrices)
def test_int_rank_matches_oracle(M):
    assert int_rank(M) == rational_rank(M)


@settings(max_examples=150, deadline=None)
@given(square_integer)
def test_int_det_matches_oracle(M):
    assert int_det(M) == _int_det(M)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_annihilates(M):
    Q = qq(M)
    for v in nullspace(Q):
        assert all(dot(row, v) == 0 for row in Q)
    assert rank(Q) + len(nullspace(Q)) == 3


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rref_idempotent(M):
    rows, pivots = rref(qq(M))
    again, pivots2 = rref(rows)
    assert list(again) == list(rows)
    assert pivots2 == pivots


@settings(max_examples=200, deadline=None)
@given(row_space_pairs())
def test_intersect_row_spaces_matches_oracle(pair):
    A, B = pair
    got = intersect_row_spaces(qq(A), qq(B))
    assert got == rational_intersect_row_spaces(A, B)
    assert got == intersect_row_spaces(qq(B), qq(A))
    assert rref(got)[0] == got


@settings(max_examples=200, deadline=None)
@given(row_space_pairs())
def test_containment_matches_oracle(pair):
    A, B = pair
    assert row_space_contained(qq(B), qq(A)) == all(rational_in_row_space(A, v) for v in B)
    assert row_space_contained(qq(A), qq(B)) == all(rational_in_row_space(B, v) for v in A)
    for v in B:
        assert in_row_space(qq(A), qq([v])[0]) == rational_in_row_space(A, v)


def test_row_space_edge_cases():
    e1, e2, e3 = (tuple(row) for row in qq([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert intersect_row_spaces([], [e1]) == []
    assert intersect_row_spaces([e1], []) == []
    assert intersect_row_spaces([], []) == []
    assert intersect_row_spaces([e1], [e2, e3]) == []  # trivial intersection
    plane = qq([[2, 4, 0], [1, 1, 0]])
    assert intersect_row_spaces(plane, qq([[3, 3, 1], [1, 1, 1]])) == [(1, 1, 0)]
    assert intersect_row_spaces(plane, plane + plane) == [e1, e2]
    assert row_space_contained([], [])
    assert row_space_contained([(0, 0, 0)], [])
    assert not row_space_contained([e1], [])
    assert row_space_contained([e1, e2], plane)
    assert not row_space_contained([e1, e3], plane)
    assert in_row_space(plane, qq([[5, -7, 0]])[0])
    assert not in_row_space(plane, e3)
