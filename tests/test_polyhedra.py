import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

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
from polycx.complexes import PolyhedralComplex, _key_token
from polycx import polyhedra
from polycx.polyhedra import FaceRecord, _primitive, _solve_constraints

import oracles
from test_fuzz import TOKENS
from oracles import (FMFaces, feasible, int_key_as_rref, intersect_rows, line_record,
                     rational_affine_span, rref_key_token)


def box(lo, hi):
    return RationalPolyhedron.from_box(lo, hi)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def as_ineq(coeffs, rhs, strict):
    return (tuple(QQ(c.numerator, c.denominator) for c in coeffs),
            QQ(rhs.numerator, rhs.denominator), strict)


def integer_system(eqs, ineqs):
    """The rows of a system as `_solve_constraints` takes them: primitive integers."""
    return ([_primitive(a, b)[0] for a, b in eqs],
            [_primitive(a, b)[0] + (s,) for a, b, s in ineqs])


def assert_witness(eqs, ineqs, x):
    for a, b in eqs:
        assert sum(c * v for c, v in zip(a, x)) == b
    for a, b, s in ineqs:
        lhs = sum(c * v for c, v in zip(a, x))
        assert lhs < b if s else lhs <= b


def assert_farkas(rows, lam):
    """lam proves the integer system a·x <= b, (a, b) in rows, empty."""
    assert lam is not None and len(lam) == len(rows) and min(lam) >= 0
    assert all(sum(x * a[j] for x, (a, _) in zip(lam, rows)) == 0
               for j in range(len(rows[0][0])))
    assert sum(x * b for x, (_, b) in zip(lam, rows)) < 0


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
        x = _solve_constraints(*integer_system(eqs, ineqs))
        assert (x is not None) == feasible(eqs, ineqs, 3)
        if x is not None:
            assert_witness(eqs, ineqs, x)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.lists(rationals, min_size=4, max_size=4), rationals),
                    max_size=2),
           st.lists(st.tuples(st.lists(rationals, min_size=4, max_size=4), rationals,
                              st.booleans()),
                    min_size=1, max_size=4))
    def test_matches_independent_elimination_in_four_unknowns(self, eq_rows, rows):
        # at most six rows, so that the naive elimination stays fast
        eqs = [(tuple(rat(str(c)) for c in a), rat(str(b))) for a, b in eq_rows]
        ineqs = [(tuple(rat(str(c)) for c in a), rat(str(b)), s) for a, b, s in rows]
        x = _solve_constraints(*integer_system(eqs, ineqs))
        assert (x is not None) == feasible(eqs, ineqs, 4)
        if x is not None:
            assert_witness(eqs, ineqs, x)

    def test_rows_in_no_unknowns(self):
        assert _solve_constraints([], [((), 5, False)]) == ()
        assert _solve_constraints([], [((), -1, False)]) is None
        assert _solve_constraints([], [((), 0, True)]) is None

    def test_thirty_rows_in_four_and_five_unknowns_are_decided_in_time(self):
        # dense random rows through a point, a third of them strict; each
        # system once as it is and once emptied by one far row: the sum of
        # all its rows, reversed and pushed one unit past their offsets
        cases = []
        for seed, n in enumerate([4, 4, 5, 5]):
            rng = random.Random(seed)
            rows = []
            while len(rows) < 30:
                a = [rng.randint(-5, 5) for _ in range(n)]
                if any(a):
                    rows.append((a, rng.randint(1, 20), len(rows) % 3 == 0))
            far = ([-sum(col) for col in zip(*(a for a, _, _ in rows))],
                   -sum(b for _, b, _ in rows) - 1, False)
            cases.append((n, rows, True))
            cases.append((n, rows + [far], False))
        start = time.perf_counter()
        answers = [_solve_constraints([], [(tuple(a), b, s) for a, b, s in rows])
                   for _, rows, _ in cases]
        certificates = [None if ok else polyhedra._farkas([(a, b) for a, b, _ in rows], n)
                        for n, rows, ok in cases]
        assert time.perf_counter() - start <= 2
        for (n, rows, ok), x, lam in zip(cases, answers, certificates):
            assert (x is not None) == ok
            if ok:
                assert_witness([], rows, x)
            else:
                assert_farkas([(a, b) for a, b, _ in rows], lam)

    def test_primitive_rows_are_ints(self):
        (coeffs, offset), scale = _primitive((QQ(1, 2), QQ(-3, 4)), QQ(5, 6))
        assert ((coeffs, offset), scale) == (((6, -9), 10), (1, 12))
        assert all(type(x) is int for x in coeffs + (offset,) + scale)
        assert _primitive((QQ(0), QQ(0)), QQ(-7, 3)) == (((0, 0), -1), (7, 3))
        assert _primitive((QQ(0), QQ(0)), QQ(0)) == (((0, 0), 0), (1, 1))


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


@st.composite
def systems(draw):
    """A small system in N = 1..3: random rows, sometimes all free of the
    last coordinate (a lineality direction), sometimes boxed in, with
    duplicate and scaled rows, tightened rows and strict rows."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(-2, 2)
    flat = n > 1 and draw(st.booleans())
    boxed = draw(st.booleans())
    rows = []
    for a, b in draw(st.lists(st.tuples(st.lists(coeff, min_size=n, max_size=n),
                                        st.integers(-3, 3)),
                              min_size=1, max_size=3 if boxed else 5)):
        if flat:
            a[-1] = 0
        rows.append((a, Fraction(b)))
    if boxed:
        for i in range(n):
            e = [0] * n
            e[i] = 1
            rows.append((e, Fraction(2)))
            rows.append(([-x for x in e], Fraction(2)))
    for k, scale in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.sampled_from([1, 2, Fraction(1, 3)])),
                                  max_size=2)):
        a, b = rows[k]
        rows.append(([x * scale for x in a], b * scale))
    strict = draw(st.lists(st.sampled_from([False, False, False, True]),
                           min_size=len(rows), max_size=len(rows)))
    tightened = draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    tightened = frozenset(i for i in tightened if not strict[i])
    return n, [(a, b, s) for (a, b), s in zip(rows, strict)], tightened


def make(n, rows, tightened=()):
    return RationalPolyhedron(n, [LinearInequality.make(a, b, s) for a, b, s in rows],
                              tightened)


@st.composite
def record_systems(draw):
    """(n, rows, eq): closed systems in N = 1..4 as primitive integer rows,
    as `RationalPolyhedron` hands them to `FaceRecord.build`.  Rows are
    sometimes free of the last coordinates (lineality), sometimes boxed in
    (bounded) and otherwise unbounded, with duplicate, scaled, opposite and
    zero-normal rows, equality rows, and sometimes a contradictory pair
    (empty)."""
    n = draw(st.integers(1, 4))
    free = draw(st.integers(0, n - 1))
    coeff = st.integers(-2, 2)
    rows = []
    for a, b in draw(st.lists(st.tuples(st.lists(coeff, min_size=n, max_size=n),
                                        st.integers(0, 3)), min_size=1, max_size=5)):
        rows.append((a[:n - free] + [0] * free, Fraction(b)))
    if draw(st.booleans()):
        for i in range(n - free):
            e = [int(i == j) for j in range(n)]
            rows += [(e, Fraction(2)), ([-x for x in e], Fraction(2))]
    for k, scale in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.sampled_from([1, 2, Fraction(1, 3), -1])),
                                  max_size=2)):
        a, b = rows[k]
        rows.append(([x * scale for x in a], b * scale))
    if draw(st.integers(0, 3)) == 3:
        rows.append(([0] * n, Fraction(draw(st.sampled_from([1, 0, -1])))))
    if draw(st.integers(0, 4)) == 4:
        a, b = rows[draw(st.integers(0, len(rows) - 1))]
        rows += [(a, b), ([-x for x in a], -b - 1)]
    eq = frozenset(draw(st.sets(st.integers(0, len(rows) - 1), max_size=2)))
    return n, [_primitive(a, b)[0] for a, b in rows], eq


@st.composite
def closed_systems(draw):
    """systems() with every row closed, sometimes with a redundant row
    appended: the sum of two rows, its offset raised by 0, 1 or 2."""
    n, rows, tightened = draw(systems())
    rows = [(a, b, False) for a, b, _ in rows]
    if draw(st.booleans()):
        (a, b, _), (c, d, _) = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        rows.append(([x + y for x, y in zip(a, c)], b + d + draw(st.integers(0, 2)), False))
    return n, rows, tightened


class TestCanonicalKey:
    """Integer keys against the Fraction RREF key (`FMFaces.rref_key`)."""

    @settings(max_examples=100, deadline=None)
    @given(closed_systems())
    def test_integer_key_is_the_rref_key(self, system):
        n, rows, tightened = system
        P = make(n, rows, tightened)
        if P.is_empty():
            assert P.canonical_key() == (n, "empty")
            return
        oracle = FMFaces(n, rows, tightened)
        for f in P.enumerate_faces():
            key = f.canonical_key()
            _, eq_rows, facets = key
            assert all(type(x) is int for row in eq_rows for x in row)
            assert all(type(x) is int for a, b in facets for x in a + (b,))
            expected = oracle.rref_key(f.tightened)
            assert int_key_as_rref(key) == expected
            assert _key_token(key) == rref_key_token(expected)
            # a face built afresh, with no record or closure to share, agrees
            assert make(n, rows, f.tightened).canonical_key() == key

    @settings(max_examples=100, deadline=None)
    @given(closed_systems())
    def test_the_key_gives_the_dimension(self, system):
        # dimension() after canonical_key() reads N minus the canonical
        # rows, which must be the record's N minus the rank of the normals
        n, rows, tightened = system
        P = make(n, rows, tightened)
        if P.is_empty():
            return
        for f in P.enumerate_faces():
            fresh = make(n, rows, f.tightened)
            for Q in (f, fresh):
                Q.canonical_key()
                assert Q._cache["dim"] == Q.dimension() == f._record().dim(f._root())

    def test_one_facet_offset_apart_gives_another_key(self):
        # the bottom edges of [0, 1] x [0, 1] and [0, 2] x [0, 1]: y = 0 in both
        a, b = (box([0, 0], [hi, 1]).with_tightened([3]) for hi in (1, 2))
        assert a.canonical_key()[1] == b.canonical_key()[1]
        assert a.canonical_key() != b.canonical_key()
        # on the line x + 2y = 2, x + y <= c reduces to -y <= c - 2 and
        # -x <= 0 to y <= 1
        keys = [RationalPolyhedron(2, [LinearInequality.make([1, 2], 2),
                                       LinearInequality.make([1, 1], c),
                                       LinearInequality.make([-1, 0], 0)], [0]).canonical_key()
                for c in (2, 3)]
        assert keys[0][:2] == keys[1][:2] == (2, ((1, 2, 2),))
        assert keys[0][2] == {((0, 1), 1), ((0, -1), 0)}
        assert keys[1][2] == {((0, 1), 1), ((0, -1), 1)}
        assert _key_token(keys[0]) != _key_token(keys[1])

    @settings(max_examples=80, deadline=None)
    @given(closed_systems(), st.randoms(use_true_random=False))
    def test_scaled_permuted_and_redundant_rows_keep_the_key(self, system, rng):
        n, rows, tightened = system
        order = list(range(len(rows)))
        rng.shuffle(order)
        moved = []
        for k in order:
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            moved.append(([x * scale for x in rows[k][0]], rows[k][1] * scale, False))
        (a, b, _), (c, d, _) = rng.choice(rows), rng.choice(rows)
        moved.append(([x + y for x, y in zip(a, c)], b + d + rng.randint(0, 2), False))
        P = make(n, rows, tightened)
        Q = make(n, moved, {order.index(i) for i in tightened})
        assert Q.canonical_key() == P.canonical_key()
        if not P.is_empty():
            assert ({f.canonical_key() for f in Q.enumerate_faces()}
                    == {f.canonical_key() for f in P.enumerate_faces()})


def corrupting(mode, when, index):
    """The double description engine, subclassed so that its `when`-th cut
    first removes or negates the ray at `index` (modulo the number of
    rays)."""

    class Corrupted(polyhedra._Cone):
        calls = 0

        def cut(self, h):
            self.calls += 1
            if self.calls == when and self.rays:
                k = index % len(self.rays)
                if mode == "remove":
                    del self.rays[k]
                else:
                    ray, tight = self.rays[k]
                    self.rays[k] = ([-x for x in ray], tight)
            return super().cut(h)

    return Corrupted


def box_cut_by_rows(n, m, seed):
    """The box [-6, 6]^N and m random integer rows a·x <= b, each with b
    in [4, 4·|a|_1], so that most of them cut off a corner of the box."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rows += [(e, 6), (tuple(-x for x in e), 6)]
    while len(rows) < 2 * n + m:
        a = [rng.randint(-3, 3) for _ in range(n)]
        if any(a):
            rows.append(_primitive(a, rng.randint(4, 4 * sum(map(abs, a))))[0])
    return rows


class TestFaceRecord:
    """The record-based face structure against the Fourier-Motzkin oracle."""

    @settings(max_examples=120, deadline=None)
    @given(systems())
    def test_matches_fourier_motzkin_faces(self, system):
        n, rows, tightened = system
        oracle = FMFaces(n, rows, tightened)
        assert make(n, rows, tightened).is_empty() == (oracle.closure() is None)
        P = make(n, rows, tightened)
        root = oracle.closure()
        assert P.tight_closure() == root
        assert P.is_empty() == (root is None)  # now read off the record
        for i, (_, _, s) in enumerate(rows):
            if not s:
                assert P.tight_closure({i}) == oracle.closure({i})
        if root is None:
            return
        faces = P.enumerate_faces()
        assert [f.tightened for f in faces] == oracle.faces()
        assert [f.dimension() for f in faces] == [oracle.dimension(t) for t in oracle.faces()]
        if P.is_closed_system():
            # integer keys, compared in their RREF form (`int_key_as_rref`)
            assert ([int_key_as_rref(f.canonical_key()) for f in faces]
                    == [oracle.key(t) for t in oracle.faces()])
        assert P.is_bounded() == oracle.is_bounded()
        assert P.vertices() == sorted(oracle.vertices().values())
        if P.is_bounded() and P.is_closed_system():
            assert P.triangulate() == oracle.triangulate()

    @settings(max_examples=60, deadline=None)
    @given(systems(), st.lists(rationals, min_size=3, max_size=3), rationals)
    def test_entails_on_generators_matches_fourier_motzkin(self, system, normal, offset):
        n, rows, tightened = system
        P = make(n, rows, tightened)
        if not P.is_empty():
            P.enumerate_faces()  # builds the record
        q = LinearInequality.make(normal[:n], offset)
        eqs = [(rows[i][0], rows[i][1]) for i in sorted(tightened)]
        rest = [r for i, r in enumerate(rows) if i not in tightened]
        neg = ([-x for x in normal[:n]], -offset, True)
        assert P.entails(q) == (not feasible(eqs, rest + [neg], n))

    def test_vertices_with_equal_numerators_stay_apart(self):
        # 3/8 and 3/2 share their lowest-terms numerator
        cell = RationalPolyhedron(1, [LinearInequality.make([1], QQ(3, 2)),
                                      LinearInequality.make([-1], QQ(-3, 8))])
        assert cell.vertices() == [(QQ(3, 8),), (QQ(3, 2),)]
        assert sorted(f.dimension() for f in cell.enumerate_faces()) == [0, 0, 1]
        assert len({f.canonical_key() for f in cell.enumerate_faces()}) == 3
        right = RationalPolyhedron(1, [LinearInequality.make([1], 3),
                                       LinearInequality.make([-1], QQ(-3, 2))])
        C = PolyhedralComplex.from_subdivision([cell, right])
        assert sorted(C.face_dim(i) for i in C.ids()) == [0, 0, 0, 1, 1]

    def test_record_of_a_cone_with_lineality(self):
        # x >= 0, y >= 0 in Q^3: one vertex, two rays, the z-axis as lineality
        P = make(3, [([-1, 0, 0], 0, False), ([0, -1, 0], 0, False)])
        record = P._record()
        assert [pt for pt, _ in record.points] == [((0, 0, 0), 1)]
        assert sorted(ray for ray, _ in record.rays) == [(0, 1, 0), (1, 0, 0)]
        assert record.lineality == ((0, 0, 1),)
        assert not P.is_bounded() and P.vertices() == []
        assert P.dimension() == 3

    def test_certificate_rejects_a_missing_vertex(self):
        record = box([0, 0, 0], [1, 1, 1])._record()
        broken = FaceRecord(3, record.rows, record.eq, record.lineality,
                            record.points[1:], record.rays)
        with pytest.raises(AssertionError, match="edge walk"):
            broken.certify()

    def test_certificate_rejects_a_missing_ray(self):
        record = make(2, [([-1, 0], 0, False), ([0, -1], 0, False)])._record()
        broken = FaceRecord(2, record.rows, record.eq, record.lineality,
                            record.points, record.rays[1:])
        with pytest.raises(AssertionError, match="not a recorded ray"):
            broken.certify()

    def test_certificate_rejects_a_violating_generator(self):
        record = box([0, 0], [1, 1])._record()
        (_, tight), *rest = record.points
        bad = (((2, 0), 1), tight)  # (2, 0) lies outside the square
        broken = FaceRecord(2, record.rows, record.eq, record.lineality,
                            (bad,) + tuple(rest), record.rays)
        with pytest.raises(AssertionError, match="violates a row"):
            broken.certify()

    def test_certificate_rejects_a_feasible_system_without_points(self):
        record = box([0], [1])._record()
        broken = FaceRecord(1, record.rows, record.eq, record.lineality, (), ())
        with pytest.raises(AssertionError, match="no vertex"):
            broken.certify()

    def test_certificate_rejects_an_empty_record_of_the_square(self):
        record = box([0, 0], [1, 1])._record()
        broken = FaceRecord(2, record.rows, record.eq, record.lineality, (), ())
        with pytest.raises(AssertionError, match="no Farkas vector"):
            broken.certify()

    @pytest.mark.parametrize("change", ["negate", "raise"])
    def test_certificate_rejects_a_changed_farkas_vector(self, monkeypatch, change):
        # x + y <= 1, x >= 0, y >= 0 and x + y >= 2: empty, with multipliers
        # (1, 0, 0, 1); the first entry negated, or the last one raised,
        # which leaves λb = -3 < 0 and only λA = (-1, -1) wrong
        rows = [((1, 1), 1), ((-1, 0), 0), ((0, -1), 0), ((-1, -1), -2)]
        record = FaceRecord.build(2, rows, frozenset())
        assert not record.points
        lam = polyhedra._farkas(rows, 2)
        assert lam == [1, 0, 0, 1]
        changed = [-1, 0, 0, 1] if change == "negate" else [1, 0, 0, 2]
        monkeypatch.setattr(polyhedra, "_farkas", lambda rows, n: changed)
        with pytest.raises(AssertionError, match="no Farkas vector"):
            record.certify()

    @pytest.mark.parametrize("forged", [
        [-1, -1, 0, 0],  # λA = 0 and λb = -1, but negative
        [1, 1, 0, 0],  # λ >= 0 and λA = 0, but λb = 1
    ])
    def test_certificate_rejects_a_forged_farkas_vector(self, monkeypatch, forged):
        # the unit square's record emptied, with a vector that fails one check
        record = box([0, 0], [1, 1])._record()
        broken = FaceRecord(2, record.rows, record.eq, record.lineality, (), ())
        monkeypatch.setattr(polyhedra, "_farkas", lambda rows, n: forged)
        with pytest.raises(AssertionError, match="no Farkas vector"):
            broken.certify()

    @settings(max_examples=150, deadline=None)
    @given(record_systems())
    def test_empty_records_are_certified(self, system):
        # emptiness decided by the naive elimination; the search must find
        # a vector for every empty system, or the build would raise
        n, rows, eq = system
        cons = FaceRecord._constraints(rows, eq)
        if feasible([], [(a, b, False) for a, b in cons], n):
            return
        record = FaceRecord.build(n, rows, eq)
        assert not record.points and not record.rays
        assert_farkas(cons, polyhedra._farkas(cons, n))

    @settings(max_examples=150, deadline=None)
    @given(record_systems())
    def test_build_matches_line_enumeration(self, system):
        n, rows, eq = system
        record = FaceRecord.build(n, rows, eq)
        assert ((record.rows, record.eq, record.lineality, record.points, record.rays)
                == (rows, eq) + line_record(n, rows, eq))

    def test_boxes_cut_by_many_rows_build_in_time(self):
        # the line enumeration made C(m, r - 1) eliminations: 12 s on a
        # 2-core x86 machine under Python 3.11, against 0.24 s for these five
        systems = [(n, box_cut_by_rows(n, m, seed))
                   for seed, (n, m) in enumerate([(3, 20), (3, 40), (4, 28), (4, 32), (5, 40)])]
        start = time.perf_counter()
        records = [FaceRecord.build(n, rows, frozenset()) for n, rows in systems]
        assert time.perf_counter() - start <= 2
        assert all(record.points and not record.rays for record in records)

    @pytest.mark.parametrize("system, mode, when, index, message", [
        ("box", "remove", 4, 1, "edge walk"),
        ("box", "flip", 5, 0, "violates a row"),
        ("cone", "remove", 4, 1, "not a recorded ray"),
        ("cone", "flip", 4, 1, "violates a row"),
        # a removed ray leaves an empty system's record right: what is left
        # of the cone still has no generator with t > 0
        ("empty", "flip", 2, 1, "violates a row"),
    ])
    def test_corrupted_engine_is_rejected(self, monkeypatch, system, mode, when, index, message):
        n, rows = {
            "box": (3, box([0, 0, 0], [1, 1, 1]).rows),
            "cone": (3, [((-1, 0, 0), 0), ((0, -1, 0), 0)]),
            "empty": (1, [((1,), 0), ((-1,), -1)]),
        }[system]
        monkeypatch.setattr(polyhedra, "_Cone", corrupting(mode, when, index))
        with pytest.raises(AssertionError, match=message):
            FaceRecord.build(n, rows, frozenset())

    @settings(max_examples=100, deadline=None)
    @given(record_systems(), st.sampled_from(["remove", "flip"]), st.integers(1, 12),
           st.integers(0, 7))
    def test_corrupted_engine_raises_or_changes_nothing(self, system, mode, when, index):
        n, rows, eq = system
        expected = FaceRecord.build(n, rows, eq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyhedra, "_Cone", corrupting(mode, when, index))
            try:
                record = FaceRecord.build(n, rows, eq)
            except AssertionError:
                return
        assert (record.lineality, record.points, record.rays) == (
            expected.lineality, expected.points, expected.rays)

    def test_face_structure_makes_no_feasibility_call(self, monkeypatch):
        P = box([0, 0, 0], [1, 1, 1])
        P._record()
        from polycx import polyhedra

        def forbidden(*args):
            raise AssertionError("feasibility test called")

        monkeypatch.setattr(polyhedra, "_solve_constraints", forbidden)
        for f in P.enumerate_faces():
            f.canonical_key()
            f.dimension()
        assert P.is_bounded() and len(P.vertices()) == 8
        assert polytope_volume(P) == 1


@st.composite
def witness_systems(draw):
    """systems() with rows added: opposite rows (a pair when both are
    non-strict), a zero-normal row and a redundant row (the sum of two
    rows, its offset sometimes raised)."""
    n, rows, tightened = draw(systems())
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        a, b, _ = rows[k]
        rows.append(([-x for x in a], -b, draw(st.sampled_from([False, False, True]))))
    for b, s in draw(st.lists(st.tuples(st.sampled_from([0, 1]), st.booleans()), max_size=1)):
        rows.append(([0] * n, Fraction(b), s))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        (a, b, _), (c, d, _) = rows[i], rows[j]
        rows.append(([x + y for x, y in zip(a, c)], b + d + draw(st.integers(0, 1)), False))
    return n, rows, tightened


def int_points(n):
    """Rational points of Q^n as (integer numerators, positive denominator)."""
    return st.tuples(st.tuples(*[st.integers(-6, 6)] * n), st.integers(1, 3))


def assert_matches_record(P, point):
    """P's root, dimension, affine span and relative-interior point against
    the record of the same system, built afresh."""
    oracle = RationalPolyhedron(P.ambient_dim, P.inequalities, P.tightened)
    root = oracle._root()
    assert P._root() == root
    assert P.dimension() == oracle.dimension()
    assert P.affine_span() == oracle.affine_span()
    assert P.is_empty() == (root is None)
    if root is None:
        assert point is None
    else:
        nums, den = point
        x = tuple(QQ(c, den) for c in nums)
        assert oracle.contains(x)
        assert root == {i for i, q in enumerate(oracle.inequalities)
                        if oracles.dot(q.normal, x) == q.offset}


def assert_intersect_matches_oracle(P, Q):
    """P ∩ Q has the rows and tightened set of the oracle's deduplication,
    each stored as a primitive integer row with its written scale in
    lowest terms.  Returns P ∩ Q."""
    def rows(poly):
        return [(q.normal, q.offset, q.strict) for q in poly.inequalities]

    got = P.intersect(Q)
    written = [(tuple(Fraction(x * p, q) for x in a), Fraction(b * p, q), i in got._strict)
               for i, ((a, b), (p, q)) in enumerate(zip(got.rows, got.scales))]
    assert (written, got.tightened) == intersect_rows(rows(P), P.tightened,
                                                     rows(Q), Q.tightened)
    for (a, b), (p, q) in zip(got.rows, got.scales):
        assert gcd(*a, b) == 1 or (gcd(*a, b), p, q) == (0, 1, 1)
        assert p > 0 and q > 0 and gcd(p, q) == 1
    return got


class TestIntegerRows:
    """Answers read off the cached integer rows, against Fraction oracles
    of the code they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(witness_systems())
    @example((2, [([0, 1], Fraction(1), False)], frozenset([0])))  # free column before the pivot
    @example((2, [([1, 0], Fraction(1), False)], frozenset()))  # no root rows
    def test_affine_span_matches_rref_oracle(self, system):
        n, rows, tightened = system
        P = make(n, rows, tightened)
        span, root = P.affine_span(), P._root()
        if root is None:
            assert span.basepoint is None
        else:
            eq = sorted(root)
            assert (span.basepoint, span.directions) == rational_affine_span(
                n, [rows[i][0] for i in eq], [rows[i][1] for i in eq])

    @settings(max_examples=200, deadline=None)
    @given(witness_systems(), st.data())
    def test_intersect_matches_key_deduplication(self, system, data):
        # two overlapping slices of one system, which repeat rows as they
        # are, scaled, strict or tightened
        n, rows, tightened = system
        k = data.draw(st.integers(0, len(rows)))
        j = data.draw(st.integers(0, len(rows) - 1))
        P = make(n, rows[:k], {i for i in tightened if i < k})
        Q = make(n, rows[j:], {i - j for i in tightened if i >= j})
        assert_intersect_matches_oracle(P, Q)

    @pytest.mark.parametrize("rows, tightened, kept, empty", [
        ([([2], 2, True)], (), 2, False),  # a strict copy of x <= 1 stays
        ([([0], 0, True)], (), 2, True),  # 0 < 0 stays and empties
        ([([0], -1, False)], (), 2, True),  # 0 <= -1 stays and empties
        ([([0], 1, False)], (), 1, False),  # 0 <= 1 is dropped
        ([([3], 3, False)], (0,), 2, False),  # a tightened copy stays
    ])
    def test_intersect_row_edge_cases(self, rows, tightened, kept, empty):
        P = make(1, [([1], 1, False)])
        Q = make(1, rows, tightened)
        got = assert_intersect_matches_oracle(P, Q)
        assert len(got.inequalities) == kept
        assert got.is_empty() == empty


class TestContains:
    """`contains` compares each integer row with the point in integers,
    against the Fraction dot product it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(witness_systems(), st.data())
    def test_matches_the_fraction_dot(self, system, data):
        n, rows, tightened = system
        P = make(n, rows, tightened)
        nums, den = data.draw(int_points(n))
        points = [tuple(QQ(x, den) for x in nums)]
        relint = P.relint_point()
        if relint is not None:
            points.append(tuple(QQ(x, relint[1]) for x in relint[0]))
        for point in points:
            assert P.contains(point) == oracles.polyhedron_contains(
                P.rows, P._strict, P.tightened, point)

    @pytest.mark.parametrize("point, inside", [
        ((1, 0), True), ((1, QQ(1, 2)), True), ((1, 1), False),  # on y = 1, y < 1 fails
        ((QQ(1, 2), 0), False), ((QQ(2, 3), QQ(1, 3)), False),  # x = 1 is tightened
        ((1, -1), False), ((QQ(3, 2), 0), False),
    ])
    def test_strict_and_tightened_rows(self, point, inside):
        # x <= 1 tightened to x = 1, y < 1 strict, y >= 0
        P = make(2, [([1, 0], 1, False), ([0, 1], 1, True), ([0, -1], 0, False)], (0,))
        assert P.contains(point) is inside
        assert oracles.polyhedron_contains(P.rows, P._strict, P.tightened, point) is inside

    @pytest.mark.parametrize("point", [(QQ(1, 2),), (QQ(1, 2), QQ(1, 2), 9), ()])
    def test_a_point_of_another_dimension_is_rejected(self, point):
        # zip once cut the longer side short, so the unit square held (1/2,)
        with pytest.raises(ValueError, match="point of dimension %d" % len(point)):
            box([0, 0], [1, 1]).contains(point)


class TestRelintWitness:
    """relint_point certifies the root and the dimension by a witness where
    the guess passes, and falls back to the record where it does not; the
    answers are the record's either way."""

    @settings(max_examples=200, deadline=None)
    @given(witness_systems(), st.data())
    def test_matches_the_record(self, system, data):
        n, rows, tightened = system
        oracle = make(n, rows, tightened)
        candidates = [pt for pt, _ in oracle._record().points]
        if oracle._root() is not None:
            candidates.append(oracle._record().relint())
        near = data.draw(st.one_of(
            st.just([]),
            st.lists(int_points(n), min_size=1, max_size=3),
            st.lists(st.sampled_from(candidates), min_size=1) if candidates else st.just([]),
            st.just(candidates)))
        P = make(n, rows, tightened)
        assert_matches_record(P, P.relint_point(near))

    @settings(max_examples=100, deadline=None)
    @given(systems(), st.data())
    def test_written_faces_take_the_witness(self, system, data):
        # a face written by format_poly carries its tight set as row pairs,
        # so a point of its relative interior passes the check
        n, rows, tightened = system
        P = make(n, rows, tightened)
        if P.is_empty():
            return
        for face in P.enumerate_faces():
            written = parse_poly(format_poly(face))
            near = [face._record().relint()]
            if data.draw(st.booleans()):  # vertices of a bounded face span it
                pts = [pt for pt, _ in face._record().points]
                near = pts if not face._record().rays and len(pts) > 1 else near
            point = written.relint_point(near)
            assert "record" not in written._cache
            assert_matches_record(written, point)

    def test_a_tightened_edge_takes_the_witness(self):
        # the edge x = 2 of the square [0, 2]^2, before and after writing
        P = box([0, 0], [2, 2]).with_tightened([0])
        Q = parse_poly(format_poly(P))
        for R in (P, Q):
            point = R.relint_point([((2, 0), 1), ((2, 2), 1)])
            assert point == ((2, 1), 1) and "record" not in R._cache
            assert R.dimension() == 1
            assert_matches_record(R, point)
        assert P._root() == {0} and Q._root() == {0, 1}

    def test_a_guess_on_a_non_pair_row_falls_back(self):
        # the corner (0, 0) of the square makes two rows tight
        P = box([0, 0], [1, 1])
        point = P.relint_point([((0, 0), 1)])
        assert "record" in P._cache and point == ((1, 1), 2)
        assert P.dimension() == 2
        assert_matches_record(P, point)

    def test_a_guess_outside_a_segment_retries_at_its_middle(self):
        # the segment [0, 1] x {0}, written with y = 0 as a pair, and a
        # forged face below it at (3, 0): on the line, outside the segment,
        # so the second guess is the middle of the line's section
        P = make(2, [([0, 1], 0, False), ([0, -1], 0, False),
                     ([1, 0], 1, False), ([-1, 0], 0, False)])
        point = P.relint_point([((3, 0), 1)])
        assert "record" not in P._cache and point == ((1, 0), 2)
        assert P.dimension() == 1
        assert_matches_record(P, point)

    @pytest.mark.parametrize("rows, near, point", [
        # a half-line from its vertex (0, 0): one unit past the bound
        ([([0, 1], 0, False), ([0, -1], 0, False), ([-1, 0], 0, False)], [((0, 0), 1)],
         ((1, 0), 1)),
        ([([0, 1], 0, False), ([0, -1], 0, False), ([1, 0], 0, False)], [((0, 0), 1)],
         ((-1, 0), 1)),
        # an open ray whose vertex was removed: nothing below it
        ([([0, 1], 0, False), ([0, -1], 0, False), ([-1, 0], 0, True)], [], ((1, 0), 1)),
        # an edge cut half-open at (2, 0), seen from its vertex (0, 0)
        ([([0, 1], 0, False), ([0, -1], 0, False), ([-1, 0], 0, False), ([1, 0], 2, True)],
         [((0, 0), 1)], ((1, 0), 1)),
    ])
    def test_one_dimensional_faces_over_their_vertex_take_the_witness(self, rows, near, point):
        P = make(2, rows)
        assert P.relint_point(near) == point and "record" not in P._cache
        assert P.dimension() == 1
        assert_matches_record(P, point)

    def test_an_open_segment_is_witnessed_at_its_middle(self):
        # 0 < x < 1: no equality, the particular solution 0 fails, and the
        # section of the line is (0, 1)
        P = make(1, [([1], 1, True), ([-1], 0, True)])
        point = P.relint_point()
        assert point == ((1,), 2) and "record" not in P._cache
        assert P.dimension() == 1
        assert_matches_record(P, point)

    def test_a_degenerate_section_falls_back(self):
        # on y = 0, x <= 1 and -x - y <= -1 are not a pair, but cut the
        # line to the one point (1, 0): every guess on it makes both tight
        P = make(2, [([0, 1], 0, False), ([0, -1], 0, False),
                     ([1, 0], 1, False), ([-1, -1], -1, False)])
        point = P.relint_point([((0, 0), 1)])
        assert "record" in P._cache and point == ((1, 0), 1)
        assert P.dimension() == 0
        assert_matches_record(P, point)

    def test_an_empty_section_falls_back(self):
        # on y = 0, x <= 0 and -x <= -1 leave no point of the line
        rows = [([0, 1], 0, False), ([0, -1], 0, False), ([1, 0], 0, False),
                ([-1, 0], -1, False)]
        P = make(2, rows)
        assert P.relint_point([((0, 0), 1)]) is None
        assert "record" in P._cache and P.dimension() == -1
        assert_matches_record(P, None)
        with pytest.raises(ValueError, match="face 1 is empty"):
            PolyhedralComplex(2, {0: box([0, 0], [1, 1]), 1: make(2, rows)}, set())

    def test_an_equality_not_written_as_a_pair_falls_back(self):
        # x <= y <= 0 <= x + y: the point (0, 0), all of whose equalities
        # are implied; even the point itself fails as a guess, since no
        # row is a pair and so the check asks every row to hold strictly
        P = make(2, [([1, -1], 0, False), ([0, 1], 0, False), ([-1, -1], 0, False)])
        point = P.relint_point([((0, 0), 1)])
        assert "record" in P._cache and point == ((0, 0), 1)
        assert P.dimension() == 0
        assert_matches_record(P, point)

    @pytest.mark.parametrize("pair", [False, True])
    def test_a_strict_row_against_its_opposite_falls_back(self, pair):
        # x < 1 with x >= 1 (and, in the second case, x <= 1 too): empty
        rows = [([1], 1, True), ([-1], -1, False)] + ([([1], 1, False)] if pair else [])
        P = make(1, rows)
        assert P.relint_point([((1, 1), 1)]) is None
        assert "record" in P._cache and P.dimension() == -1
        assert_matches_record(P, None)


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

    def test_strict_system_is_not_triangulated(self):
        # 0 < y < 2, -2 <= x <= 2: every vertex of the closure lies on a strict row
        P = make(2, [([0, -1], 0, True), ([0, 1], 2, True),
                     ([1, 0], 2, False), ([-1, 0], 2, False)])
        with pytest.raises(ValueError, match="closed system"):
            P.triangulate()

    def test_hull_volume_makes_no_feasibility_call(self, monkeypatch):
        # the volume reads the hull's record; no feasibility test runs on
        # the hull system (Fourier-Motzkin on it did not finish in Q^4)
        from polycx import polyhedra

        def forbidden(*args):
            raise AssertionError("feasibility test called")

        monkeypatch.setattr(polyhedra, "_solve_constraints", forbidden)
        pts = [tuple(rat(c) for c in p) for p in itertools.product([0, 2], repeat=3)]
        assert polytope_volume(convex_hull_inequalities(pts)) == 8

    def test_strict_system_has_no_volume(self):
        # x in [0, 1): a half-open interval, whose volume once read 0
        P = make(1, [([-1], 0, False), ([1], 1, True)])
        with pytest.raises(ValueError, match="closed system"):
            polytope_volume(P)


# spellings of POLY/1 tokens that Python's int accepts or rejects
SPELLINGS = ["1_0", "\u0663", "+3", "1/-2", "-0", "4/6", "-6/-4", "1/2/3", "1e3", "/", "1/",
             "0x10", "1__0", "_1"]


@st.composite
def poly_texts(draw):
    """(N, text): POLY/1 texts, valid or not, with rows of tokens from the
    fuzz tests, the spellings above, fractions and integers, under a header
    'N m' whose row count m may be wrong."""
    n = draw(st.sampled_from([-3, -1] + [0, 1, 2, 3] * 3))
    fraction = st.fractions(-5, 5, max_denominator=6).map(str)
    token = st.one_of(st.sampled_from(TOKENS + SPELLINGS), fraction, fraction,
                      st.integers(-30, 30).map(str))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        parts = [draw(token) for _ in range(max(n, 0))]
        parts += [draw(st.sampled_from(["<=", "<"] * 4 + [">="])), draw(token)]
        arity = draw(st.sampled_from([0] * 8 + [-1, 1]))  # now and then a wrong one
        if arity < 0:
            parts.pop(0)
        elif arity > 0:
            parts.append(draw(token))
        rows.append(" ".join(parts))
    m = len(rows) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    return n, "\n".join(["%d %d" % (n, m)] + rows) + "\n"


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

    @settings(max_examples=400, deadline=None)
    @given(poly_texts(), st.sets(st.integers(0, 4)))
    @example((2, "2 2\n1_0 \u0663 <= +3\n1/-2 4/6 < -6/-4\n"), {0})
    @example((1, "1 1\n0 <= -7/3\n"), {0})
    @example((1, "1 1\n1/0 <= 1\n"), set())
    @example((1, "1 1\n0/0 <= 1\n"), set())
    @example((1, "1 1\n1/2/3 <= 1\n"), set())
    @example((1, "1 1\n1e3 <= 1\n"), set())
    @example((2, "2 -1\n"), set())
    def test_matches_the_fraction_oracle(self, drawn, tighten):
        # the same written rows, strictness and output bytes (with the
        # non-strict rows of `tighten` tightened) as the reader and writer
        # on Fractions, and the same error on every input with N, m >= 0; a
        # negative N or m is an error at the header
        n, text = drawn
        if n < 0:
            with pytest.raises(ValueError, match="N must be non-negative"):
                parse_poly(text)
            return
        if int(text.split()[1]) < 0:
            with pytest.raises(ValueError, match=r"^POLY/1: the row count m must be "
                                                 r"non-negative \(line 1\)$"):
                parse_poly(text)
            return
        try:
            n, rows = oracles.parse_poly(text)
        except Exception as e:
            with pytest.raises(type(e)) as raised:
                parse_poly(text)
            assert str(raised.value) == str(e)
            return
        P = parse_poly(text)
        assert P.ambient_dim == n
        assert [(tuple(Fraction(x * p, q) for x in a), Fraction(b * p, q), i in P._strict)
                for i, ((a, b), (p, q)) in enumerate(zip(P.rows, P.scales))] == rows
        tight = {i for i in tighten if i < len(rows) and not rows[i][2]}
        assert format_poly(P.with_tightened(tight)) == oracles.format_poly(n, rows, tight)
