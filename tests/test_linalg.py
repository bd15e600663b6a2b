from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycx import QQ, rat, rat_str
from polycx.linalg import rref, rank, nullspace, solve, det, dot, int_rank, int_det

from oracles import rational_rank, rational_rref, rational_det, _int_det

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
