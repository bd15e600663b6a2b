import itertools
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

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

from polycx import format_cplx, linalg, parse_cplx, projective
from polycx.cli import _records_payload, run

from _corpus import box, cube_tower, voronoi_fixture, clipped_fixture, simple_polyhedral_corpus
from oracles import (RationalSubspace, covers_by_leq, intersection_lattice, lattices_by_popcount,
                     parasite_scan, rational_in_row_space, rational_intersect_row_spaces,
                     zassenhaus_intersect)
from test_polyhedra import make, witness_systems

GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_equal_subspaces_hash_alike_however_built(self):
        # the line y = 0 of P^2 from generators, as the kernel of its
        # annihilator, and read back from a ledger
        made = ProjectiveSubspace(2, [(2, 0, 0), (1, 0, 3)])
        kernel = ProjectiveSubspace._kernel(2, [(0, 5, 0)])
        text = json.dumps({"schema_version": "LEDGER/1", "certificates": [], "stages": [
            [], [{"ambient": 0, "centers": [[["1", "0", "0"], ["0", "0", "1"]]]}]]})
        [parsed], = parse_ledger(text).stages[1].values()
        assert made == kernel == parsed
        assert hash(made) == hash(kernel) == hash(parsed) == hash((2, made.rows))
        assert len({made, kernel, parsed}) == 1

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
        assert intersection_lattice(subs) == closure

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=3),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=3))
    def test_intersection_is_built_from_its_canonical_basis(self, a, b):
        assume(any(any(row) for row in a) and any(any(row) for row in b))
        s, t = ProjectiveSubspace(3, a), ProjectiveSubspace(3, b)
        meet = s.intersect(t)
        rows = rational_intersect_row_spaces(s.generators, t.generators)
        if not rows:
            assert meet is None
            return
        again = ProjectiveSubspace(3, meet.generators)
        assert meet == again == ProjectiveSubspace(3, rows)
        assert meet.generators == again.generators and hash(meet) == hash(again)
        assert meet.ambient_dim == 3 and meet.dim == len(rows) - 1


# generators of subspaces of P^3 with mixed denominators; at least one row
# is nonzero, and zero rows, repeated and scaled rows are all likely
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
generator_lists = st.lists(st.lists(coeffs, min_size=4, max_size=4),
                           min_size=1, max_size=3).filter(lambda g: any(any(r) for r in g))


class TestIntegerForm:

    def test_scaled_generators_share_one_canonical_form(self):
        forms = [ProjectiveSubspace(2, [g]) for g in ((2, 4, 0), (1, 2, 0), (-3, -6, 0))]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(s) for s in forms}) == 1
        assert len({s.generators for s in forms}) == 1
        assert forms[0].generators == ((rat(1), rat(2), rat(0)),)
        assert all(s.rows == ((1, 2, 0),) for s in forms)

    def test_rows_never_combined_are_made_primitive(self):
        # no elimination step touches either row, so only canonicalisation
        # divides them by their content
        s = ProjectiveSubspace(2, [(0, 0, 2), (0, 3, 0)])
        t = ProjectiveSubspace(2, [(0, 1, 0), (0, 0, -1)])
        assert s.rows == t.rows == ((0, 1, 0), (0, 0, 1)) and s.pivots == (1, 2)
        assert s == t and hash(s) == hash(t) and s.generators == t.generators

    def test_intersection_rows_are_canonical(self):
        plane = ProjectiveSubspace(2, [(1, 0, 0), (0, 1, 0)])
        other = ProjectiveSubspace(2, [(-2, 2, 3), (0, 0, 1)])
        meet = plane.intersect(other)
        assert meet.rows == ((1, -1, 0),) and meet.pivots == (0,)
        assert meet == ProjectiveSubspace(2, [(-5, 5, 0)])
        assert meet.row_strings() == (("1", "-1", "0"),)

    def test_row_strings_are_rat_str_of_generators(self):
        s = ProjectiveSubspace(3, [(2, 0, 3, -6), (0, 4, 0, 10)])
        assert s.row_strings() == (("1", "0", "3/2", "-3"), ("0", "1", "0", "5/2"))
        assert s.sort_token() == (1, s.row_strings())

    @settings(max_examples=150, deadline=None)
    @given(generator_lists, generator_lists, st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_contains_matches_rational_oracle(self, a, b, combo):
        s, t = ProjectiveSubspace(3, a), ProjectiveSubspace(3, b)
        rs, rt = RationalSubspace(3, a), RationalSubspace(3, b)
        assert s.generators == rs.generators and t.generators == rt.generators
        assert s.contains(t) == all(rational_in_row_space(rs.generators, g) for g in rt.generators)
        assert t.contains(s) == all(rational_in_row_space(rt.generators, g) for g in rs.generators)
        # a combination of the generators of s lies in s
        v = [sum((c * g[j] for c, g in zip(combo, rs.generators)), rat(0)) for j in range(4)]
        assume(any(v))
        point = ProjectiveSubspace(3, [v])
        assert s.contains(point) and rational_in_row_space(rs.generators, v)
        assert s.intersect(point) == point.intersect(s) == point

    @settings(max_examples=150, deadline=None)
    @given(generator_lists, generator_lists)
    def test_intersect_matches_rational_oracle(self, a, b):
        s, t = ProjectiveSubspace(3, a), ProjectiveSubspace(3, b)
        rows = rational_intersect_row_spaces(RationalSubspace(3, a).generators,
                                             RationalSubspace(3, b).generators)
        meet = s.intersect(t)
        if not rows:
            assert meet is None and t.intersect(s) is None
            return
        assert meet.generators == tuple(rows) and meet == t.intersect(s)
        assert meet.sort_token() == RationalSubspace(3, rows).sort_token()
        assert s.contains(meet) and t.contains(meet)


def assert_annihilator(s):
    """The rows s keeps for its annihilator span exactly that: they kill
    every canonical row, and their rank is the codimension."""
    n = s.ambient_dim + 1
    assert linalg.annihilates(s._ann, s.rows)
    assert linalg.int_rank(s._ann) == n - len(s.rows)


class TestAnnihilatorForm:
    """The annihilator operations against what they replaced: the span from
    the tight rows against `from_affine(affine_span())` (the Fraction solve
    of the tight rows), the meet of stacked annihilators against Zassenhaus,
    and dimension-first containment against the annihilator check."""

    @settings(max_examples=200, deadline=None)
    @given(witness_systems(), st.booleans())
    def test_span_from_tight_rows_matches_affine_span(self, system, witnessed):
        # the root comes from a relative-interior witness where one passes,
        # or from the record
        n, rows, tightened = system
        P = make(n, rows, tightened)
        if (P.relint_point() if witnessed else P._root()) is None:
            with pytest.raises(ValueError, match="empty polyhedron"):
                ProjectiveSubspace.of_polyhedron(P)
            return
        span = ProjectiveSubspace.of_polyhedron(P)
        old = RationalSubspace.from_affine(P.affine_span())
        assert span.generators == old.generators == RationalSubspace.of_polyhedron(P).generators
        again = ProjectiveSubspace(n, old.generators)
        assert (span.rows, span.pivots) == (again.rows, again.pivots)
        assert span.dim == P.dimension()
        assert_annihilator(span)

    @pytest.mark.parametrize("name", ["line", "plane", "plane6", "space", "lattice-clip"])
    def test_golden_face_spans_match_affine_spans(self, name):
        C = parse_cplx((GOLDEN / (name + ".cplx")).read_text())
        spans = span_assignment(C)
        for i in C.ids():
            old = ProjectiveSubspace(C.ambient_dim, RationalSubspace.from_affine(
                C.faces[i].affine_span()).generators)
            assert (spans[i].rows, spans[i].pivots) == (old.rows, old.pivots)

    @settings(max_examples=200, deadline=None)
    @given(generator_lists, generator_lists, generator_lists)
    def test_meet_matches_zassenhaus(self, a, b, c):
        s, t, u = (ProjectiveSubspace(3, g) for g in (a, b, c))
        meet = s.intersect(t)
        rows = zassenhaus_intersect(s.generators, t.generators)
        if not rows:
            assert meet is None
            return
        again = ProjectiveSubspace(3, rows)
        assert meet.generators == tuple(rows)
        assert (meet.rows, meet.pivots) == (again.rows, again.pivots)
        assert_annihilator(meet)
        # a meet's kept annihilator stacks again
        again = meet.intersect(u)
        rows = zassenhaus_intersect(meet.generators, u.generators)
        assert (again.generators if again else ()) == tuple(rows)

    @settings(max_examples=200, deadline=None)
    @given(generator_lists, generator_lists)
    def test_contains_matches_the_annihilator_check(self, a, b):
        s, t = ProjectiveSubspace(3, a), ProjectiveSubspace(3, b)
        subs = [s, t, ProjectiveSubspace(3, s.generators[:1])]
        subs += [m for m in (s.intersect(t),) if m is not None]
        for x, y in itertools.product(subs, repeat=2):
            kernel = linalg.int_kernel(x.rows, x.pivots, 4)
            assert x.contains(y) == linalg.annihilates(kernel, y.rows)

    def test_a_forged_cover_after_the_first_incidence_is_rejected(self, tmp_path, capsys):
        # the chain point < vertical edge < horizontal edge: the first
        # incidence (0, 1) and the closure pair (0, 2) are nested, but the
        # cover (1, 2) is not; the library and the parasites command name it
        point, up, right = box([0, 0], [0, 0]), box([0, 0], [0, 1]), box([0, 0], [1, 0])
        C = PolyhedralComplex(2, {0: point, 1: up, 2: right}, {(0, 1), (1, 2)})
        assert C.incidences() == [(0, 1), (0, 2), (1, 2)] and C._covers == [0, 0b1, 0b10]
        message = ("span assignment is not functorial at 1 <= 2: the span of face 1 "
                   "does not lie in the span of face 2")
        text = format_cplx(C)
        for D in (C, parse_cplx(text)):
            with pytest.raises(ValueError) as err:
                span_assignment(D)
            assert str(err.value) == message
        path, out = tmp_path / "c.cplx", tmp_path / "out.json"
        path.write_text(text)
        assert run(["parasites", "--complex", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "input error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("face, over", [
        # two points: same dimension, different rows
        (box([0, 0], [0, 0]), box([1, 1], [1, 1])),
        # a point off the line of a segment: the annihilator rejects it
        (box([3, 1], [3, 1]), box([0, 0], [1, 0])),
        # a segment declared a face of a point: larger, so not contained
        (box([0, 0], [1, 0]), box([0, 0], [0, 0])),
        # two segments that cross: same dimension, different lines
        (box([0, 0], [0, 1]), box([0, 0], [1, 0])),
    ], ids=["same-dimension", "smaller", "larger", "crossing"])
    def test_forged_cplx_incidence_is_rejected(self, face, over, tmp_path, capsys,
                                               monkeypatch):
        # the parasite lattice and its scan take nested spans for granted,
        # so spans that are not nested must be rejected before any lattice
        # is built, by the library and by the parasites command
        def no_lattice(*args):
            raise AssertionError("a lattice was built")
        monkeypatch.setattr(projective, "_lattices", no_lattice)
        monkeypatch.setattr(ProjectiveSubspace, "intersect", no_lattice)
        C = PolyhedralComplex(2, {0: face, 1: over}, {(0, 1)})
        text = format_cplx(C)
        assert json.loads(text)["morphisms"] == [{"dst": 1, "src": 0}]
        for D in (C, parse_cplx(text)):
            with pytest.raises(ValueError, match="not functorial at 0 <= 1"):
                span_assignment(D)
        path, out = tmp_path / "c.cplx", tmp_path / "out.json"
        path.write_text(text)
        assert run(["parasites", "--complex", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: span assignment is not functorial at 0 <= 1")
        assert not out.exists()


def parasite_outputs(C):
    """What the parasites, saturate, verify-proper and blowup-plan
    subcommands write for C, from the subspaces `span_assignment` makes."""
    spans = span_assignment(C)
    records = parasitic_intersections(C, spans)
    saturated = saturate(C, spans, records)
    report = verify_proper(C, spans, saturated)
    ledger = format_ledger(blowup_plan(C, spans, saturated)) if report["passed"] else None
    return _records_payload(records), _records_payload(saturated), report, ledger


PIPELINE_CORPUS = [
    ("tower-1", lambda: cube_tower(1)),
    ("tower-2", lambda: cube_tower(2)),
    ("tower-3", lambda: cube_tower(3)),
    ("vor2-100", lambda: voronoi_fixture(2, 5, 100)),
    ("vor2-101", lambda: voronoi_fixture(2, 5, 101)),
    ("vor3-200", lambda: voronoi_fixture(3, 5, 200)),
    ("vor3-202", lambda: voronoi_fixture(3, 6, 202)),
    ("clipped-0", lambda: clipped_fixture(0)),
]


class TestAgainstRationalOracle:

    @pytest.mark.parametrize("name, make", PIPELINE_CORPUS, ids=[n for n, _ in PIPELINE_CORPUS])
    def test_pipeline_matches_rational_subspaces(self, name, make, monkeypatch):
        C = make()
        got = parasite_outputs(C)
        assert got[0] and got[3] is not None
        monkeypatch.setattr(projective, "ProjectiveSubspace", RationalSubspace)
        assert parasite_outputs(C) == got


class TestGrownLattice:
    """The lattices grown along the face poset and the scan read off its
    bitsets, against the per-face closure and scan they replaced."""

    def test_every_lattice_and_record_matches_the_per_face_scan(self):
        cases = simple_polyhedral_corpus()
        cases += [(p.name, parse_cplx(p.read_text())) for p in sorted(GOLDEN.glob("*.cplx"))]
        faces = records = 0
        for name, C in cases:
            spans = span_assignment(C)
            lattices = projective._lattices(C, [spans[i] for i in C.ids()])
            for c, lattice in zip(C.ids(), lattices):
                assert len(set(lattice)) == len(lattice), (name, c)
                want = intersection_lattice({spans[b] for b in C.faces_below(c)})
                assert set(lattice) == want, (name, c)
            got = parasitic_intersections(C, spans)
            assert not any(r.saturated for r in got)
            assert [(r.ambient, r.tuple_ids, r.subspace) for r in got] == \
                parasite_scan(C, spans), name
            faces += len(lattices)
            records += len(got)
        # a corpus that shrank would check less without failing
        assert faces > 600 and records > 200

    @pytest.fixture(scope="class")
    def cases(self):
        cases = simple_polyhedral_corpus()
        return cases + [(p.name, parse_cplx(p.read_text()))
                        for p in sorted(GOLDEN.glob("*.cplx"))]

    def test_lattices_are_the_lists_the_popcount_order_built(self, cases):
        # each L(c) depends only on c's covers and their lists, so the Kahn
        # order gives the very lists, in the same order, as the down-set
        # size order and the covers found again per face
        for name, C in cases:
            spans = span_assignment(C)
            span = [spans[i] for i in C.ids()]
            assert projective._lattices(C, span) == lattices_by_popcount(C, span), name

    def test_span_assignment_tests_each_cover_once(self, cases, monkeypatch):
        contains, calls = ProjectiveSubspace.contains, []
        monkeypatch.setattr(ProjectiveSubspace, "contains",
                            lambda s, o: calls.append((s, o)) or contains(s, o))
        total = pairs = 0
        for name, C in cases:
            del calls[:]
            spans = span_assignment(C)
            want = [(spans[b], spans[a]) for b, below in covers_by_leq(C).items()
                    for a in below]
            assert [(id(s), id(o)) for s, o in calls] == \
                [(id(s), id(o)) for s, o in want], name
            total += len(calls)
            pairs += len(C.incidences())
        # fewer tests than strict incidences, on a corpus that did not shrink
        assert 1000 < total < pairs


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

    @pytest.mark.parametrize("text", [
        "[]",
        '{"schema_version":"LEDGER/1"}',
        '{"schema_version":"LEDGER/1","stages":[[{"ambient":0,"centers":[[]]}]],'
        '"certificates":[]}',
    ], ids=["top-level-array", "no-stages", "empty-center"])
    def test_malformed_ledger_is_rejected(self, text):
        with pytest.raises(ValueError, match="^LEDGER/1: "):
            parse_ledger(text)
