import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polycx import (
    rat,
    PolyhedralComplex,
    ProjectiveSubspace,
    ParasiticRecord,
    span_assignment,
    parasitic_intersections,
    saturate,
    verify_proper,
    blowup_plan,
    format_ledger,
    parse_ledger,
)

from polycx.projective import _intersection_lattice

from _corpus import box, cube_tower
from oracles import rational_intersect_row_spaces


def square_complex():
    return PolyhedralComplex.from_subdivision([box([0, 0], [1, 1])])


def triangle_complex():
    from polycx import RationalPolyhedron, LinearInequality
    t = RationalPolyhedron(2, [
        LinearInequality.make([-1, 0], 0, False),
        LinearInequality.make([0, -1], 0, False),
        LinearInequality.make([1, 1], 1, False),
    ])
    return PolyhedralComplex.from_subdivision([t])


def pipeline(C):
    spans = span_assignment(C)
    records = parasitic_intersections(C, spans)
    return spans, saturate(C, spans, records)


class TestSubspaces:

    def test_canonical_representation(self):
        a = ProjectiveSubspace(2, [(1, 0, 0), (0, 1, 0)])
        b = ProjectiveSubspace(2, [(1, 1, 0), (2, 0, 0)])
        assert a == b and hash(a) == hash(b)

    def test_dim_and_containment(self):
        line = ProjectiveSubspace(2, [(1, 0, 0), (0, 0, 1)])
        pt = ProjectiveSubspace(2, [(1, 0, 0)])
        assert line.dim == 1 and pt.dim == 0
        assert line.contains(pt)
        assert not pt.contains(line)

    def test_disjoint_intersection_is_none(self):
        p = ProjectiveSubspace(2, [(1, 0, 0)])
        q = ProjectiveSubspace(2, [(0, 1, 0)])
        assert p.intersect(q) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.lists(st.integers(-1, 1), min_size=4, max_size=4),
                             min_size=1, max_size=3), min_size=1, max_size=5))
    def test_lattice_is_the_fixpoint_closure(self, gens):
        subs = {ProjectiveSubspace(3, g) for g in gens if any(any(row) for row in g)}
        closure = set(subs)
        while True:
            new = set()
            for s, t in itertools.product(closure, repeat=2):
                rows = rational_intersect_row_spaces(s.generators, t.generators)
                if rows:
                    new.add(ProjectiveSubspace(3, rows))
            if new <= closure:
                break
            closure |= new
        assert _intersection_lattice(subs) == closure


class TestParasites:

    def test_square_parallel_edges_meet_at_infinity(self):
        C = square_complex()
        spans = span_assignment(C)
        records = parasitic_intersections(C, spans)
        pts = sorted(tuple(r.subspace.generators[0]) for r in records)
        # two horizon points: (1:0:0) for the horizontal pair, (0:1:0) vertical
        assert pts == [(rat(0), rat(1), rat(0)), (rat(1), rat(0), rat(0))]
        assert all(C.face_dim(r.ambient) == 2 for r in records)

    def test_triangle_has_none(self):
        C = triangle_complex()
        spans = span_assignment(C)
        assert parasitic_intersections(C, spans) == []

    def test_vertex_spans_never_parasitic(self):
        C = square_complex()
        spans = span_assignment(C)
        for r in parasitic_intersections(C, spans):
            for i in C.ids():
                if C.face_dim(i) == 0:
                    assert r.subspace != spans[i]


class TestSaturation:

    def test_square_propagates_to_edges(self):
        C = square_complex()
        spans, saturated = pipeline(C)
        # each horizon point also lands in the two edges parallel to it
        assert len(saturated) == 6
        edge_records = [r for r in saturated if C.face_dim(r.ambient) == 1]
        assert len(edge_records) == 4
        assert all(r.saturated for r in edge_records)

    def test_idempotent(self):
        C = cube_tower(1)
        spans = span_assignment(C)
        records = parasitic_intersections(C, spans)
        once = saturate(C, spans, records)
        twice = saturate(C, spans, once)
        assert [(r.ambient, r.subspace) for r in once] == \
            [(r.ambient, r.subspace) for r in twice]


class TestVerifyProper:

    def test_square_passes(self):
        C = square_complex()
        spans, saturated = pipeline(C)
        report = verify_proper(C, spans, saturated)
        assert report["passed"]
        assert report["checked_records"] == len(saturated)

    def test_injected_bad_record_fails(self):
        C = square_complex()
        spans, saturated = pipeline(C)
        top = max(C.ids(), key=C.face_dim)
        bad = ParasiticRecord(top, (top,), spans[top], saturated=True)
        report = verify_proper(C, spans, saturated + [bad])
        assert not report["passed"]
        checks = {v["check"] for v in report["violations"]}
        assert checks == {"dimension", "contains-face"}

    def test_non_simple_complex_rejected(self):
        grid = PolyhedralComplex.from_subdivision(
            [box([i, j], [i + 1, j + 1]) for i in range(2) for j in range(2)])
        spans = span_assignment(grid)
        with pytest.raises(ValueError):
            verify_proper(grid, spans, [])


class TestBlowUpPlan:

    def test_tower_has_lower_stage_certificates(self):
        C = cube_tower(2)
        spans, saturated = pipeline(C)
        ledger = blowup_plan(C, spans, saturated)
        assert len(ledger.stages) == 2  # points, then lines at infinity
        pairs = [e for cert in ledger.certificates for e in cert["pairs"]]
        assert pairs and all(e["separated"] in ("disjoint", "via-lower-stage")
                             for e in pairs)
        assert any(e.get("witness_dim") == 0 for e in pairs)

    def test_stage_dimension_matches_subspaces(self):
        C = cube_tower(1)
        spans, saturated = pipeline(C)
        ledger = blowup_plan(C, spans, saturated)
        for d, stage in enumerate(ledger.stages):
            for centers in stage.values():
                assert all(s.dim == d for s in centers)

    def test_ledger_round_trip(self):
        C = cube_tower(1)
        spans, saturated = pipeline(C)
        ledger = blowup_plan(C, spans, saturated)
        text = format_ledger(ledger)
        assert format_ledger(parse_ledger(text)) == text
