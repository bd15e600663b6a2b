import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycx import (
    QQ,
    rat,
    LinearInequality,
    RationalPolyhedron,
    convex_hull_inequalities,
    polytope_volume,
    format_poly,
    parse_poly,
)
from polycx.polyhedra import _primitive, _solve_constraints

from oracles import feasible


def box(lo, hi):
    return RationalPolyhedron.from_box(lo, hi)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def as_ineq(coeffs, rhs, strict):
    return (tuple(QQ(c.numerator, c.denominator) for c in coeffs),
            QQ(rhs.numerator, rhs.denominator), strict)


class TestFeasibility:

    def test_unit_square_interior_point(self):
        p = box([0, 0], [1, 1])
        x = p.feasible_point()
        assert all(0 <= c <= 1 for c in x)

    def test_empty_by_contradiction(self):
        p = RationalPolyhedron(1, [
            LinearInequality.make([1], 0, False),    # x <= 0
            LinearInequality.make([-1], -1, False),  # x >= 1
        ])
        assert p.is_empty()

    def test_strict_open_interval_nonempty(self):
        p = RationalPolyhedron(1, [
            LinearInequality.make([1], 1, True),
            LinearInequality.make([-1], 0, True),
        ])
        x = p.feasible_point()
        assert 0 < x[0] < 1

    def test_strict_empty_point(self):
        # x >= 0, x <= 0, x != 0 via strict halves
        p = RationalPolyhedron(1, [
            LinearInequality.make([1], 0, True),
        ], tightened=frozenset())
        q = p.intersect(RationalPolyhedron(1, [LinearInequality.make([-1], 0, False)]))
        assert q.is_empty()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.lists(rationals, min_size=2, max_size=2),
                  rationals, st.booleans()),
        min_size=1, max_size=6))
    def test_matches_independent_elimination(self, rows):
        ineqs = [LinearInequality.make(a, b, s) for a, b, s in rows]
        p = RationalPolyhedron(2, ineqs)
        expected = feasible([], [(a, b, s) for a, b, s in rows], 2)
        assert (not p.is_empty()) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.lists(rationals, min_size=3, max_size=3), rationals),
                    max_size=2),
           st.lists(st.tuples(st.lists(rationals, min_size=3, max_size=3), rationals,
                              st.booleans()),
                    min_size=1, max_size=4))
    def test_witness_satisfies_system(self, eq_rows, rows):
        eqs = [(tuple(rat(str(c)) for c in a), rat(str(b))) for a, b in eq_rows]
        ineqs = [(tuple(rat(str(c)) for c in a), rat(str(b)), s) for a, b, s in rows]
        x = _solve_constraints(eqs, ineqs)
        assert (x is not None) == feasible(eqs, ineqs, 3)
        if x is not None:
            for a, b in eqs:
                assert sum(c * v for c, v in zip(a, x)) == b
            for a, b, s in ineqs:
                lhs = sum(c * v for c, v in zip(a, x))
                assert lhs < b if s else lhs <= b

    def test_primitive_rows_are_ints(self):
        coeffs, offset = _primitive((QQ(1, 2), QQ(-3, 4)), QQ(5, 6))
        assert (coeffs, offset) == ((6, -9), 10)
        assert all(type(x) is int for x in coeffs + (offset,))
        assert _primitive((QQ(0), QQ(0)), QQ(-7, 3)) == ((0, 0), -1)


class TestFaces:

    def test_square_face_counts(self):
        faces = box([0, 0], [1, 1]).enumerate_faces()
        dims = sorted(f.dimension() for f in faces)
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]

    def test_cube_face_counts(self):
        faces = box([0, 0, 0], [1, 1, 1]).enumerate_faces()
        dims = [f.dimension() for f in faces]
        assert sorted(dims) == [0] * 8 + [1] * 12 + [2] * 6 + [3]

    def test_implicit_equality_detected(self):
        # x <= 0 and x >= 0 pins the first coordinate without tightening
        p = RationalPolyhedron(2, [
            LinearInequality.make([1, 0], 0, False),
            LinearInequality.make([-1, 0], 0, False),
            LinearInequality.make([0, 1], 1, False),
            LinearInequality.make([0, -1], 0, False),
        ])
        assert p.dimension() == 1

    def test_affine_span_of_vertex(self):
        p = box([0], [1]).with_tightened([0])  # tighten x <= 1
        assert p.dimension() == 0
        assert p.affine_span().basepoint == (rat(1),)

    def test_same_solution_set_mod_representation(self):
        a = box([0, 0], [1, 1])
        b = RationalPolyhedron(2, list(a.inequalities) + [
            LinearInequality.make([1, 1], 5, False)])  # redundant
        assert a.same_solution_set(b)
        assert a.canonical_key() == b.canonical_key()


class TestVolume:

    def test_unit_square(self):
        assert polytope_volume(box([0, 0], [1, 1])) == 1

    def test_translated_scaled_box(self):
        assert polytope_volume(box([-1, 2], [1, 3])) == 2

    def test_triangle_half(self):
        t = RationalPolyhedron(2, [
            LinearInequality.make([-1, 0], 0, False),
            LinearInequality.make([0, -1], 0, False),
            LinearInequality.make([1, 1], 1, False),
        ])
        assert polytope_volume(t) == QQ(1, 2)

    def test_hull_of_square_corners(self):
        pts = [(rat(0), rat(0)), (rat(1), rat(0)), (rat(0), rat(1)), (rat(1), rat(1))]
        hull = convex_hull_inequalities(pts)
        assert polytope_volume(hull) == 1
        for p in pts:
            assert hull.contains(p)


class TestPolyFormat:

    def test_round_trip(self):
        p = box([0, 0], [1, 1]).with_tightened([0])
        q = parse_poly(format_poly(p))
        assert q.same_solution_set(p)

    def test_strict_marker_survives(self):
        p = RationalPolyhedron(1, [LinearInequality.make([1], QQ(1, 3), True)])
        text = format_poly(p)
        assert "<" in text and "1/3" in text
        assert parse_poly(text).inequalities[0].strict

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("not a polyhedron\n")
