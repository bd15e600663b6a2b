import itertools
import json
import tracemalloc
from pathlib import Path

import pytest

from polycx import (
    QQ,
    rat,
    RationalPolyhedron,
    PolyhedralComplex,
    SiteSet,
    voronoi_complex,
    clipped_complex,
    format_cplx,
    parse_cplx,
    parse_pts,
    parse_rgn,
)

from polycx import complexes
from polycx.polyhedra import FaceRecord
import oracles
from _corpus import (box, segment_chain, square_strip, cube_tower, voronoi_fixture,
                     clipped_fixture, simple_polyhedral_corpus)
from test_polyhedra import assert_matches_record
from test_voronoi import annulus_case

GOLDEN = Path(__file__).resolve().parent / "golden"


def two_segments():
    return PolyhedralComplex.from_subdivision([box([0], [1]), box([1], [2])])


def square_corner_voronoi():
    Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    return voronoi_complex(Y)


class TestConstruction:

    def test_two_segments_face_count(self):
        C = two_segments()
        dims = sorted(C.face_dim(i) for i in C.ids())
        assert dims == [0, 0, 0, 1, 1]

    def test_shared_vertex_below_both_segments(self):
        C = two_segments()
        shared = [i for i in C.ids() if C.face_dim(i) == 0
                  and len(C.above_of(i)) == 3]
        assert len(shared) == 1
        mid = C.faces[shared[0]].feasible_point()
        assert mid == (rat(1),)

    def test_overlapping_cells_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralComplex.from_subdivision(
                [box([0], [2]), box([1], [3])])

    def test_poset_is_transitive(self):
        C = cube_tower(2)
        for a in C.ids():
            for b in C.above_of(a):
                for c in C.above_of(b):
                    assert C.leq(a, c)

    def test_id_of_polyhedron(self):
        C = square_corner_voronoi()
        for i in C.ids():
            assert C.id_of_polyhedron(C.faces[i]) == i
        # the same segment written by other rows, and a box that is no face
        C = two_segments()
        seg = RationalPolyhedron(1, [((2,), 2), ((-3,), 0)])
        assert C.faces[C.id_of_polyhedron(seg)].same_solution_set(box([0], [1]))
        assert C.id_of_polyhedron(box([0], [2])) is None


class TestNerve:

    def test_two_segments_single_edge(self):
        K = two_segments().nerve()
        assert K.f_vector() == (2, 1)

    def test_square_corner_center_gives_all_triples(self):
        C = square_corner_voronoi()
        K = C.nerve()
        assert len(K.simplices(2)) == 4  # every facet triple around the center

    def test_nerve_requires_pure(self):
        mixed = PolyhedralComplex.from_subdivision([box([0, 0], [1, 1])])
        seg = box([0], [1])
        faces = dict(mixed.faces)
        # grafting a face of the wrong dimension is rejected upstream;
        # here we just check purity is enforced
        assert mixed.is_pure()


class TestSimplicity:

    def test_two_segments_simple(self):
        flag, witness = two_segments().is_simple()
        assert flag and witness is None

    def test_square_corner_voronoi_not_simple(self):
        C = square_corner_voronoi()
        flag, witness = C.is_simple()
        assert not flag
        # the witness is the center vertex (1/2, 1/2)
        assert C.face_dim(witness) == 0
        assert C.faces[witness].feasible_point() == (QQ(1, 2), QQ(1, 2))

    def test_strips_and_towers_simple(self):
        for C in (segment_chain(3), square_strip(3), cube_tower(2)):
            assert C.is_simple()[0]

    def test_full_grid_not_simple(self):
        grid = PolyhedralComplex.from_subdivision(
            [box([i, j], [i + 1, j + 1]) for i in range(2) for j in range(2)])
        flag, witness = grid.is_simple()
        assert not flag
        assert grid.face_dim(witness) == 0


class TestResidue:

    def test_residue_is_up_set(self):
        C = square_strip(2)
        v = min(i for i in C.ids() if C.face_dim(i) == 0)
        R = C.residue(v)
        for i in R.ids():
            assert C.leq(v, i)

    def test_residue_of_facet_is_itself(self):
        C = segment_chain(2)
        f = max(C.ids(), key=C.face_dim)
        assert set(C.residue(f).ids()) == {f}


class TestDifference:

    def test_requires_downward_closed(self):
        C = two_segments()
        top = max(C.ids(), key=C.face_dim)
        with pytest.raises(ValueError):
            C.difference({top})  # removing a facet alone keeps its vertices

    def test_cut_removes_exactly_the_subcomplex(self):
        C = two_segments()
        # remove one endpoint vertex (a downward-closed singleton)
        ends = [i for i in C.ids() if C.face_dim(i) == 0
                and len(C.above_of(i)) == 2]
        D = C.difference({ends[0]})
        assert set(D.ids()) == set(C.ids()) - {ends[0]}
        removed_pt = C.faces[ends[0]].feasible_point()
        for i in D.ids():
            assert not D.faces[i].contains(removed_pt)

    def test_difference_hereditarily_simple(self):
        C = square_strip(3)
        assert C.is_simple()[0]
        verts = [i for i in C.ids() if C.face_dim(i) == 0]
        B = C.downward_closure({verts[0]})
        D = C.difference(B)
        assert D.is_simple()[0]

    def test_ids_preserved(self):
        C = square_strip(2)
        verts = [i for i in C.ids() if C.face_dim(i) == 0]
        D = C.difference({verts[0]})
        assert set(D.ids()) <= set(C.ids())


    @pytest.mark.parametrize("make", [lambda: square_strip(3), lambda: cube_tower(2),
                                      lambda: voronoi_fixture(2, 5, 100),
                                      lambda: voronoi_fixture(3, 4, 200)])
    def test_cut_faces_extend_the_parent_record(self, make):
        # every cut face carries its parent's record with the cut rows
        # appended; it passes certify and equals a fresh build
        C = make()
        for v in [i for i in C.ids() if C.face_dim(i) <= 1][:3]:
            D = C.difference(C.downward_closure({v}))
            cut = [i for i in D.ids()
                   if len(D.faces[i].inequalities) > len(C.faces[i].inequalities)]
            assert cut
            for i in cut:
                P = D.faces[i]
                record = P._cache["record"]
                record.certify()
                built = FaceRecord.build(P.ambient_dim, P.rows, P.tightened)
                assert (record.rows, record.eq, record.lineality, record.points,
                        record.rays) == (built.rows, built.eq, built.lineality,
                                         built.points, built.rays)
                assert record.dims is not C.faces[i]._record().dims
                assert D.face_dim(i) == C.face_dim(i)

    @pytest.mark.parametrize("case", ["annulus-0", "annulus-1", "annulus-2", "golden"])
    def test_cut_rows_match_the_entailment_search(self, case, monkeypatch):
        # every cut `difference` makes in a clip: the rows tight at the
        # face's relative-interior point are the rows the face entails
        # with equality, decided by elimination, and give the same cut row
        if case == "golden":
            Y = parse_pts((GOLDEN / "lattice-perturbed.pts").read_text())
            region = parse_rgn((GOLDEN / "inputs" / "region.rgn").read_text())
        else:
            Y, region = annulus_case(int(case[-1]))
        cut, calls = complexes._cut_inequality, []
        monkeypatch.setattr(complexes, "_cut_inequality",
                            lambda poly, face: calls.append((poly, face)) or cut(poly, face))
        clipped_complex(Y, region)
        monkeypatch.undo()
        assert calls
        for poly, face in calls:
            asked = []
            with_tightened = RationalPolyhedron.with_tightened
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(RationalPolyhedron, "with_tightened",
                           lambda self, extra: asked.append(extra) or with_tightened(self, extra))
                got = cut(poly, face)
            tight, normal, offset = oracles.cut_inequality(
                poly.ambient_dim, [(q.normal, q.offset, q.strict) for q in poly.inequalities],
                poly.tightened,
                [(q.normal, q.offset) for i, q in enumerate(face.inequalities)
                 if i in face.tightened],
                [(q.normal, q.offset, q.strict) for i, q in enumerate(face.inequalities)
                 if i not in face.tightened])
            assert asked == [poly.tightened | set(tight)]
            (a, b), (p, q) = got
            assert (tuple(QQ(x * p, q) for x in a), QQ(b * p, q)) == (normal, offset)

    def test_a_translated_face_is_rejected(self):
        # the edge x = 1 of the unit square moved up by 1/2: its middle
        # (1, 1) is the square's corner, where two rows are tight, but
        # tightening them gives the corner, not the edge
        square = box([0, 0], [1, 1])
        edge = box([1, QQ(1, 2)], [1, QQ(3, 2)])
        with pytest.raises(ValueError, match="not a face"):
            complexes._cut_inequality(square, edge)

    def test_the_polyhedron_is_not_its_own_proper_face(self):
        square = box([0, 0], [1, 1])
        with pytest.raises(ValueError, match="not a proper face"):
            complexes._cut_inequality(square, square)

    def test_a_polyhedron_with_implicit_equalities_is_not_its_own_proper_face(self):
        # the segment [0, 1] x {0} as four rows, none tightened: y <= 0 and
        # -y <= 0 are tight at its middle, but on all of it, and their sum
        # would be the empty cut 0 < 0
        segment = RationalPolyhedron(2, [([1, 0], 1), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)])
        with pytest.raises(ValueError, match="not a proper face"):
            complexes._cut_inequality(segment, segment)

    def test_a_row_a_generator_violates_is_rejected(self):
        record = box([0, 0], [1, 1])._record()
        with pytest.raises(AssertionError, match="violates the appended row"):
            record.with_row(((1, 1), 1))  # x + y <= 1 cuts the corner (1, 1)
        cone = RationalPolyhedron(2, [([-1, 0], 0)])._record()  # x >= 0
        with pytest.raises(AssertionError, match="ray"):
            cone.with_row(((1, 0), 5))
        with pytest.raises(AssertionError, match="lineality"):
            cone.with_row(((-1, 1), 0))


class TestPosetFacts:
    """The covers and the order the complex keeps, and the maximal removed
    faces `difference` reads off them, against the `leq` derivations they
    replaced."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = simple_polyhedral_corpus()
        return cases + [(p.name, parse_cplx(p.read_text()))
                        for p in sorted(GOLDEN.glob("*.cplx"))]

    def test_covers_and_order_match_leq(self, cases):
        covers = 0
        for name, C in cases:
            want = oracles.covers_by_leq(C)
            for c, cov in zip(C.ids(), C._covers):
                assert list(C._members(cov)) == want[c], (name, c)
                assert C._maximal(complexes._bits(C._down[C._pos(c)])) == cov, (name, c)
                covers += cov.bit_count()
            assert oracles.is_linear_extension(C, C._order), name
        # a corpus that shrank would check less without failing
        assert covers > 1000

    def test_difference_cuts_match_the_leq_scan(self, cases, monkeypatch):
        cut, calls = complexes._cut_inequality, []
        monkeypatch.setattr(complexes, "_cut_inequality",
                            lambda poly, face: calls.append((poly, face)) or cut(poly, face))
        checked = 0
        for name, C in cases[::3]:
            face_of = {id(p): i for i, p in C.faces.items()}
            facet = max(C.facets())
            vertex = min(i for i in C.ids() if C.face_dim(i) == 0)
            for removed in (C.downward_closure({vertex}), set(C.faces_below(facet)),
                            {facet}, C.downward_closure({vertex}) | {facet}):
                del calls[:]
                if not oracles.is_downward_closed(C, removed):
                    with pytest.raises(ValueError, match="not a subcomplex"):
                        C.difference(removed)
                    assert not calls
                    continue
                if len(removed) == len(C.ids()):
                    continue
                C.difference(removed)
                want = [(c, b) for c in C.ids() if c not in removed
                        for b in oracles.maximal_removed(C, removed, c)]
                assert [(face_of[id(p)], face_of[id(f)]) for p, f in calls] == want, name
                checked += len(want)
        assert checked > 50


class TestOrderComplex:

    def test_two_segments_chains(self):
        K = two_segments().order_complex()
        # chains: 5 faces, one 2-chain per (vertex <= segment) pair
        assert len(K.vertices) == 5
        assert K.dim() == 1


class TestCplxFormat:

    def test_round_trip(self):
        C = square_strip(2)
        D = parse_cplx(format_cplx(C))
        assert set(D.ids()) == set(C.ids())
        for i in C.ids():
            assert D.faces[i].same_solution_set(C.faces[i])
        assert D.incidences() == C.incidences()

    def test_byte_determinism(self):
        C = cube_tower(1)
        assert format_cplx(C) == format_cplx(parse_cplx(format_cplx(C)))

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            parse_cplx('{"schema_version":"CPLX/9"}')


FIXTURES = [lambda: cube_tower(2), lambda: square_strip(3), lambda: voronoi_fixture(1, 5, 0),
            lambda: voronoi_fixture(2, 5, 101), lambda: voronoi_fixture(3, 4, 201),
            lambda: clipped_fixture(300)]


class TestRelintWitnesses:
    """Parsed faces get their dimension and affine span from a checked
    relative-interior witness where one is found, and from their record
    otherwise; the answers are the record's either way."""

    @pytest.mark.parametrize("make", FIXTURES)
    def test_parsed_faces_match_their_records(self, make):
        C = make()
        D = parse_cplx(format_cplx(C))
        witnessed = 0
        for i in D.ids():
            P = D.faces[i]
            witnessed += "record" not in P._cache
            assert_matches_record(P, P.relint_point())
            assert D.face_dim(i) == C.face_dim(i)
        assert witnessed

    def test_bounded_faces_need_no_record(self):
        D = parse_cplx(format_cplx(cube_tower(2)))
        assert not any("record" in P._cache for P in D.faces.values())

    @pytest.mark.parametrize("source", FIXTURES + sorted(GOLDEN.glob("*.cplx")),
                             ids=lambda s: s.name if isinstance(s, Path) else None)
    def test_faces_of_dimension_at_most_one_need_no_record(self, source, monkeypatch):
        # the witness at the middle of a line covers half-lines, open rays
        # and half-open edges, whose faces below do not span them
        text = source.read_text() if isinstance(source, Path) else format_cplx(source())
        built = []
        build = FaceRecord.build

        def counting(ambient_dim, rows, eq):
            built.append(rows)
            return build(ambient_dim, rows, eq)

        monkeypatch.setattr(FaceRecord, "build", staticmethod(counting))
        D = parse_cplx(text)
        recorded = [i for i in D.ids() if "record" in D.faces[i]._cache]
        assert len(built) == len(recorded)
        assert all(D.face_dim(i) >= 2 for i in recorded)

    def test_forged_incidence_falls_back_to_the_record(self):
        # the point (3, 3) declared a face of the unit square: the guess
        # lies outside the square, so the square builds its record
        point = RationalPolyhedron.from_box([3, 3], [3, 3])
        C = PolyhedralComplex(2, {0: point, 1: box([0, 0], [1, 1])}, {(0, 1)})
        assert "record" in C.faces[1]._cache
        assert C.face_dim(0) == 0 and C.face_dim(1) == 2

    def test_empty_face_with_a_record_is_rejected(self):
        empty = RationalPolyhedron(1, [([1], 0, True), ([-1], 0, True)])  # x < 0 < x
        assert empty._root() is None and "record" in empty._cache
        with pytest.raises(ValueError, match="face 1 is empty"):
            PolyhedralComplex(1, {0: box([0], [1]), 1: empty}, set())

    def test_empty_face_is_rejected(self):
        empty = RationalPolyhedron(1, [([1], 0, True), ([-1], 0, True)])  # x < 0 < x
        with pytest.raises(ValueError, match="face 1 is empty"):
            PolyhedralComplex(1, {0: box([0], [1]), 1: empty}, set())


def test_cyclic_incidences_rejected():
    seg = RationalPolyhedron.from_box([0], [1])
    faces = {0: seg, 1: seg, 2: seg}
    with pytest.raises(ValueError, match="cycle through face"):
        PolyhedralComplex(1, faces, {(0, 1), (1, 0)})
    with pytest.raises(ValueError, match="cycle through face"):
        PolyhedralComplex(1, faces, {(0, 1), (1, 2), (2, 0)})
    # a chain closes transitively and is accepted
    assert PolyhedralComplex(1, faces, {(0, 1), (1, 2)}).above_of(0) == {0, 1, 2}


def test_deep_incidence_chain_closes():
    # a chain deeper than the interpreter's recursion limit, listed bottom
    # first, so a recursive closure would walk all of it from face 0
    seg = RationalPolyhedron.from_box([0], [1])
    n = 1200
    C = PolyhedralComplex(1, {i: seg for i in range(n)}, [(i, i + 1) for i in range(n - 1)])
    assert C.above_of(0) == set(range(n)) and C.facets() == [n - 1]
    with pytest.raises(ValueError, match="cycle through face"):
        PolyhedralComplex(1, {i: seg for i in range(n)}, [(i, (i + 1) % n) for i in range(n)])


def chain_cplx(n, closed):
    """CPLX/1 text of the chain [0, 1] < [0, 2] < ... < [0, n], given by its
    n - 1 generators or by all n(n - 1)/2 pairs of its closure."""
    pairs = (itertools.combinations(range(n), 2) if closed
             else zip(range(n - 1), range(1, n)))
    return json.dumps({
        "schema_version": "CPLX/1", "ambient_dim": 1,
        "faces": [{"id": i, "poly": "1 2\n1 <= %d\n-1 <= 0\n" % (i + 1)} for i in range(n)],
        "morphisms": [{"src": a, "dst": b} for a, b in pairs]})


# the bitset closure of a 3,000-face chain holds about 9 million bits, and
# parsing it peaks near 10 MB; the closure as sets of ids peaked at 466 MB
CHAIN_PEAK_BOUND_MB = 32


def test_long_chain_closes_in_linear_memory(monkeypatch):
    text = chain_cplx(3000, closed=False)
    tracemalloc.start()
    try:
        C = parse_cplx(text)
        assert C.is_simple() == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHAIN_PEAK_BOUND_MB * 2**20, "peak %.1f MB" % (peak / 2**20)
    assert C.facets() == [2999] and C.below_of(2999) == set(range(3000))
    # generators and their closure give the same complex, with the same
    # number of face records built
    built = []
    build = FaceRecord.build

    def counting(ambient_dim, rows, eq):
        built.append(rows)
        return build(ambient_dim, rows, eq)

    monkeypatch.setattr(FaceRecord, "build", staticmethod(counting))
    seen = []
    for closed in (False, True):
        del built[:]
        D = parse_cplx(chain_cplx(40, closed))
        seen.append((D.incidences(), [D.face_dim(i) for i in D.ids()], len(built)))
    assert seen[0] == seen[1]
    assert len(seen[0][0]) == 40 * 39 // 2
