import itertools
import random
import time
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from polycx import (
    QQ,
    rat,
    SiteSet,
    RationalPolyhedron,
    PolyhedralRegion,
    voronoi_complex,
    is_simple_configuration,
    perturb_to_simple,
    delaunay,
    clipped_complex,
    dense_lattice_sites,
    format_pts,
    parse_pts,
    format_rgn,
    parse_rgn,
    PolyhedralComplex,
    format_cplx,
    convex_hull_inequalities,
    polytope_volume,
    SimplicialComplex,
    format_scx,
)
from polycx import linalg, polyhedra, voronoi
from polycx.polyhedra import simplex_volume
from polycx.voronoi import (_cell_inequalities, _certify_triangulation,
                            _faces_missing, _open_simplices_meet, _voronoi_cells)

from oracles import (FMFaces, cell_inequalities, circumcenter_2d, circumsphere_sweep,
                     empty_sphere_tops, simple_configuration, open_simplices_meet,
                     pairwise_triangulation)
from _corpus import box, random_sites
from test_polyhedra import corrupting

# a small lattice with mixed denominators, so that collinear and cocircular
# subsets are common
LATTICE_COORDS = [QQ(a, d) for a in range(-2, 3) for d in (1, 2, 3)]


class TestVoronoi:

    def test_two_sites_on_a_line(self):
        C = voronoi_complex(SiteSet(1, [(0,), (1,)]))
        # two half-lines and their shared midpoint
        dims = sorted(C.face_dim(i) for i in C.ids())
        assert dims == [0, 1, 1]
        mid = [i for i in C.ids() if C.face_dim(i) == 0]
        assert C.faces[mid[0]].feasible_point() == (QQ(1, 2),)

    @pytest.mark.parametrize("sites", [[(0, 0), (4, 0), (1, 3)], "random"])
    def test_a_face_shared_by_cells_is_one_face(self, sites):
        # every face copy is grouped by its key from the Fraction oracle,
        # which shares no code with the integer keys: each group is one face
        # of the complex, and distinct groups are distinct faces
        Y = random_sites(2, 5, seed=12) if sites == "random" else SiteSet(2, sites)
        C = voronoi_complex(Y)
        ids, copies = {}, 0
        for cell in _voronoi_cells(Y):
            oracle = FMFaces(2, [(q.normal, q.offset, False) for q in cell.inequalities])
            for f in cell.enumerate_faces():
                ids.setdefault(oracle.rref_key(f.tightened), set()).add(C.id_of_polyhedron(f))
                copies += 1
        assert all(len(group) == 1 and None not in group for group in ids.values())
        assert len(ids) == len(C.ids()) < copies
        if sites != "random":  # three wedges, three rays and their apex
            assert sorted(C.face_dim(i) for i in C.ids()) == [0, 1, 1, 1, 2, 2, 2]
            apex = next(i for i in C.ids() if C.face_dim(i) == 0)
            assert C.above_of(apex) == set(C.ids())

    def test_cells_partition_membership(self):
        Y = random_sites(2, 5, seed=11)
        for i, (cell, p) in enumerate(zip(_voronoi_cells(Y), Y.sites)):
            assert cell.contains(p)
            assert not any(cell.contains(q) for j, q in enumerate(Y.sites) if j != i)


class TestSimpleConfiguration:

    def test_square_corners_degenerate(self):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        flag, witness = is_simple_configuration(Y)
        assert not flag
        assert tuple(witness) == (0, 1, 2, 3)

    def test_collinear_triple_degenerate(self):
        Y = SiteSet(2, [(0, 0), (1, 1), (2, 2), (5, 0)])
        flag, witness = is_simple_configuration(Y)
        assert not flag
        assert tuple(witness) == (0, 1, 2)

    def test_triangle_simple(self):
        Y = SiteSet(2, [(0, 0), (2, 0), (0, 2)])
        assert is_simple_configuration(Y)[0]

    def test_distinct_line_sites_simple(self):
        Y = SiteSet(1, [(0,), (1,), (rat("7/2"),)])
        assert is_simple_configuration(Y)[0]

    def test_cocircular_witness_matches_circumcenter(self):
        # four points on the circle of radius 5/6 about (1/2, 1/3), listed
        # after a fifth site that lies off it
        c, r = (QQ(1, 2), QQ(1, 3)), QQ(5, 6)
        on = [(c[0] + r * u, c[1] + r * v) for u, v in
              ((QQ(3, 5), QQ(4, 5)), (QQ(-4, 5), QQ(3, 5)), (-1, 0), (0, -1))]
        Y = SiteSet(2, [(3, 3)] + on)
        flag, witness = is_simple_configuration(Y)
        assert (flag, witness) == simple_configuration(Y.sites) == (False, (1, 2, 3, 4))
        centers = {circumcenter_2d(*(Y.sites[i] for i in W))
                   for W in itertools.combinations(witness, 3)}
        assert centers == {(c, r * r)}

    @pytest.mark.parametrize("sites, expected", [
        # four cocircular corners, then a collinear triple: the rank failure
        # is reported, although the collision comes first in subset order
        ([(0, 0), (2, 0), (0, 2), (2, 2), (5, 0), (6, 0)], (False, (0, 1, 4))),
        # a shared circle whose subsets' eliminations end in differently
        # scaled rows, so the center must be hashed in lowest terms
        ([(1, 1), (1, "-1/3"), ("-2/3", "-1/3"), ("-1/3", 2), ("-2/3", 1), (-1, "1/3")],
         (False, (0, 1, 2, 4))),
    ])
    def test_witness_matches_oracle(self, sites, expected):
        Y = SiteSet(2, sites)
        assert is_simple_configuration(Y) == simple_configuration(Y.sites) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(LATTICE_COORDS)] * n),
        min_size=2, max_size=7, unique=True)))
    def test_matches_fraction_oracle(self, sites):
        Y = SiteSet(len(sites[0]), sites)
        assert is_simple_configuration(Y) == simple_configuration(Y.sites)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(LATTICE_COORDS) | st.integers(-6, 6)] * n),
        min_size=2, max_size=8 if n < 3 else 7, unique=True)))
    def test_matches_elimination_sweep(self, sites):
        # the lifted-hyperplane keys against the elimination of each
        # equidistance system: the same verdict and witness, the same
        # subsets swept, and the same Delaunay tops as the emptiness test
        # on the elimination's (den, *nums, den²r²) keys
        Y = SiteSet(len(sites[0]), sites)
        ok, witness, spheres = voronoi._circumspheres(Y)
        old_ok, old_witness, old_spheres = circumsphere_sweep(Y.sites)
        assert (ok, witness) == (old_ok, old_witness)
        assert sorted(spheres.values()) == sorted(old_spheres.values())
        if ok and len(Y) > Y.ambient_dim:
            tops = [top for top, _ in delaunay(Y).simplex_volumes]
            assert tops == empty_sphere_tops(Y.sites, old_spheres)

    def test_collision_across_opposite_orientations(self):
        # four sites on the unit circle, not listed in their circular order:
        # (0, 1, 2) turns clockwise and (0, 1, 3) counterclockwise, so the
        # raw normals of their lifted planes point opposite ways, and only
        # the sign normalisation makes their keys collide
        Y = SiteSet(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])

        def orientation(W):
            (x0, y0), (x1, y1), (x2, y2) = (Y.sites[i] for i in W)
            return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)

        assert orientation((0, 1, 2)) < 0 < orientation((0, 1, 3))
        ok, witness, spheres = voronoi._circumspheres(Y)
        assert (ok, witness) == (False, (0, 1, 2, 3)) == simple_configuration(Y.sites)
        assert sorted(spheres.values()) == [(0, 1, 3)]


class _Unreadable:
    """Stands in for a site set's rational `sites`: any access raises."""

    def _refuse(self, *args):
        raise AssertionError("the rational sites were read")

    __getattribute__ = __len__ = __iter__ = __getitem__ = __eq__ = __hash__ = _refuse


def test_cells_and_sweep_read_only_the_integer_sites():
    Y, twin = random_sites(2, 7, seed=4), random_sites(2, 7, seed=4)
    Y.sites = _Unreadable()
    assert is_simple_configuration(Y) == is_simple_configuration(twin)
    assert format_cplx(voronoi_complex(Y)) == format_cplx(voronoi_complex(twin))


class TestPerturb:

    def test_fixes_square_corners(self):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        Z = perturb_to_simple(Y, QQ(1, 100), seed=3)
        assert is_simple_configuration(Z)[0]
        for p, q in zip(Y.sites, Z.sites):
            assert all(abs(a - b) <= QQ(1, 100) for a, b in zip(p, q))

    def test_zero_bound_rejected(self):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            perturb_to_simple(Y, 0, seed=0)

    def test_already_simple_untouched(self):
        Y = SiteSet(2, [(0, 0), (2, 0), (0, 2)])
        assert perturb_to_simple(Y, QQ(1, 100), seed=0).sites == Y.sites

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_deterministic_in_seed(self, seed):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        a = perturb_to_simple(Y, QQ(1, 100), seed=seed)
        b = perturb_to_simple(Y, QQ(1, 100), seed=seed)
        assert a.sites == b.sites


class TestDelaunay:

    def test_triangle(self):
        Y = SiteSet(2, [(0, 0), (2, 0), (0, 2)])
        D = delaunay(Y)
        assert D.hull_dim == 2
        assert D.hull_volume == 2
        assert len(D.simplex_volumes) == 1
        assert D.eta == {0: Y.sites[0], 1: Y.sites[1], 2: Y.sites[2]}

    def test_volume_additivity(self):
        Y = random_sites(2, 6, seed=21)
        D = delaunay(Y)
        assert D.hull_volume == polytope_volume(convex_hull_inequalities(Y.sites))
        assert all(v > 0 for _, v in D.simplex_volumes)

    def test_non_simple_rejected(self):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            delaunay(Y)

    def test_lower_dimensional_hull(self):
        Y = SiteSet(2, [(0, 0), (1, 1)])
        D = delaunay(Y)
        assert D.hull_dim == 1

    def test_four_dimensional_sites_finish(self):
        # the hull volume once ran Fourier-Motzkin on the 24-row hull system
        # and did not finish in 40 s; delaunay now computes no hull at all,
        # and the hull volume is the oracle's, read from its face record
        rng = random.Random(5)
        Y = SiteSet(4, [tuple(QQ(rng.randint(-20, 20)) for _ in range(4)) for _ in range(10)])
        start = time.perf_counter()
        D = delaunay(Y)
        assert time.perf_counter() - start < 30
        assert D.hull_dim == 4 and len(D.simplex_volumes) == 30
        assert D.hull_volume == polytope_volume(convex_hull_inequalities(Y.sites))

    def test_forged_top_of_the_wrong_size_is_rejected(self, monkeypatch):
        # the key (0, 0, 1, 0) is the tangent hyperplane |z|² = 0 at the
        # lift of site 0, a sphere of radius 0 about it that holds no site
        # inside: the top {0}
        real = voronoi._circumspheres

        def forged(Y, *lifted):
            ok, witness, spheres = real(Y, *lifted)
            return ok, witness, {**spheres, (0, 0, 1, 0): (0,)}

        monkeypatch.setattr(voronoi, "_circumspheres", forged)
        with pytest.raises(ValueError, match=r"Delaunay facet \[0\] has wrong dimension"):
            delaunay(SiteSet(2, [(0, 0), (2, 0), (0, 2)]))

    def test_builds_no_complex(self, monkeypatch):
        # the tops come off the genericity test's circumspheres: no Voronoi
        # cell, no face record, no double description cone, no complex, no
        # face list and no canonical key; and the certificate needs no hull,
        # so neither the hull, its volume nor a rational solve for span
        # coordinates
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError("delaunay called " + name)
            return call

        monkeypatch.setattr(voronoi, "_voronoi_cells", forbidden("_voronoi_cells"))
        monkeypatch.setattr(voronoi, "_Cone", forbidden("_Cone"))
        monkeypatch.setattr(polyhedra.FaceRecord, "build", forbidden("FaceRecord.build"))
        monkeypatch.setattr(PolyhedralComplex, "__init__", forbidden("PolyhedralComplex"))
        for name in ("canonical_key", "enumerate_faces"):
            monkeypatch.setattr(RationalPolyhedron, name, forbidden(name))
        for name in ("convex_hull_inequalities", "polytope_volume"):
            monkeypatch.setattr(polyhedra, name, forbidden(name))
            monkeypatch.setattr(voronoi, name, forbidden(name), raising=False)
        monkeypatch.setattr(linalg, "solve", forbidden("linalg.solve"))
        for Y in (random_sites(2, 6, seed=21), random_sites(3, 6, seed=22),
                  SiteSet(3, [(0, 0, 0), (2, 1, 0), (1, 3, 1)])):
            assert delaunay(Y).hull_volume > 0


class TestClipping:

    def test_convex_region_contractible_nerve(self):
        Y = random_sites(2, 6, seed=31)
        region = PolyhedralRegion([box([-2, -2], [2, 2])])
        C = clipped_complex(Y, region)
        assert C.is_simple()[0]

    def test_non_simple_sites_rejected(self):
        Y = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        region = PolyhedralRegion([box([0, 0], [1, 1])])
        with pytest.raises(ValueError):
            clipped_complex(Y, region)

    def test_unbounded_region_rejected(self):
        from polycx import LinearInequality
        half = RationalPolyhedron(2, [LinearInequality.make([1, 0], 0, False)])
        with pytest.raises(ValueError):
            PolyhedralRegion([half])

    def test_piece_checks_read_the_record_alone(self, monkeypatch):
        # the boundedness check builds each piece's record, and the
        # emptiness check reads it: no feasibility solve for either
        solve, calls = polyhedra._solve_constraints, []
        monkeypatch.setattr(polyhedra, "_solve_constraints",
                            lambda eqs, ineqs: calls.append(ineqs) or solve(eqs, ineqs))
        half_open = parse_rgn("1\n2 4\n1 0 < 1\n-1 0 <= 0\n0 1 <= 1\n0 -1 < 0\n")
        region = PolyhedralRegion([box([0, 0], [1, 1]), *half_open.pieces])
        assert not calls and len(region.pieces) == 2

    def test_dense_lattice_sites_cover_region(self):
        region = PolyhedralRegion([box([0, 0], [2, 2])])
        Y = dense_lattice_sites(region, 1, seed=0)
        assert is_simple_configuration(Y)[0]
        # every point of {-1,...,3}^2 is within 1 of the square
        assert len(Y) == 25

    def test_bounding_box_of_an_open_interval(self):
        # both vertices lie on strict rows: the box is that of the closure
        region = parse_rgn("1\n1 2\n1 < 1\n-1 < 0\n")
        assert region.bounding_box() == ([0], [1])
        Y = dense_lattice_sites(region, 1, seed=0)
        # the boxes [c - 1, c + 1] that meet (0, 1) are those of c = 0, 1
        assert sorted(Y.sites) == [(0,), (1,)]

    def test_bounding_box_of_a_half_open_square(self):
        # [0, 1) x [0, 1]: the vertices at x = 1 lie on the strict row
        region = parse_rgn("1\n2 4\n1 0 < 1\n-1 0 <= 0\n0 1 <= 1\n0 -1 <= 0\n")
        assert region.bounding_box() == ([0, 0], [1, 1])
        # the boxes of side 1 about (1/2)Z^2 that meet it: x in {-1/2, 0,
        # 1/2, 1} (the column x = 1 meets it at x = 1/2) and y in {-1/2, ..., 3/2}
        assert len(dense_lattice_sites(region, QQ(1, 2), seed=0)) == 20


class TestFormats:

    def test_pts_round_trip(self):
        Y = random_sites(2, 4, seed=41)
        back = parse_pts(format_pts(Y))
        assert back.sites == Y.sites
        assert (back.ints, back.scale) == (Y.ints, Y.scale)

    def test_pts_bad_arity(self):
        with pytest.raises(ValueError):
            parse_pts("2 1\n1 2 3\n")

    def test_rgn_round_trip(self):
        region = PolyhedralRegion([box([0, 0], [1, 1]), box([2, 0], [3, 1])])
        back = parse_rgn(format_rgn(region))
        assert len(back.pieces) == 2
        for a, b in zip(region.pieces, back.pieces):
            assert a.same_solution_set(b)


@st.composite
def simple_sites(draw, dims=(1, 2, 3), max_sites=6):
    n = draw(st.sampled_from(dims))
    pts = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n),
                        min_size=2, max_size=max_sites if n < 3 else 5, unique=True))
    Y = SiteSet(n, pts)
    assume(is_simple_configuration(Y)[0])
    return Y


FIXED_SITES = pytest.mark.parametrize("sites", [
    # four dimensions
    [(0, 0, 0, 0), (3, 1, 0, -2), (-1, 4, 2, 1), (2, -3, 1, 3), (1, 2, -4, 0),
     (-2, -1, 3, -3), (4, 0, 2, 2)],
    # coplanar in Q^3, and collinear in Q^2: the cells have lineality
    [(0, 0, 0), (2, 1, 0), (1, 3, 1)],
    [("1/2", 1), (2, "-1/3")],
    # flat in Q^4
    [(0, 0, 0, 1), (1, 2, 0, 0), (0, 1, 3, 0)],
], ids=["4d", "coplanar", "collinear", "flat-4d"])


def nerve_oracle(Y):
    """The Delaunay nerve by the old derivation: the nerve of the whole
    Voronoi complex, each facet relabelled by the site it contains."""
    C = voronoi_complex(Y)
    site_of = {f: next(i for i, p in enumerate(Y.sites) if C.faces[f].contains(p))
               for f in C.facets()}
    return SimplicialComplex([[site_of[f] for f in s] for s in C.nerve().maximal_simplices()])


def cell_record_tops(Y):
    """The Delaunay tops as `delaunay` once read them: the sites nearest to
    each point of each certified Voronoi cell's record, compared exactly."""
    Z, L = Y.ints, Y.scale
    tops = set()
    for cell in _voronoi_cells(Y):
        for (nums, den), _ in cell._record().points:
            dist = [sum((L * x - den * z) ** 2 for x, z in zip(nums, zj)) for zj in Z]
            least = min(dist)
            tops.add(tuple(j for j, s in enumerate(dist) if s == least))
    return sorted(tops)


def dropping(top):
    """`_circumspheres` with the sphere of `top` left out of its map."""
    real = voronoi._circumspheres

    def sweep(Y, *lifted):
        ok, witness, spheres = real(Y, *lifted)
        return ok, witness, {key: W for key, W in spheres.items() if W != top}

    return sweep


class TestNerveOracle:
    """`delaunay` reads its tops off the empty circumspheres; the tops read
    off the cells' records and the nerve of the Voronoi complex are the
    oracles."""

    def assert_matches(self, Y):
        D = delaunay(Y)
        assert [top for top, _ in D.simplex_volumes] == cell_record_tops(Y)
        assert format_scx(D.complex) == format_scx(nerve_oracle(Y))

    @settings(max_examples=100, deadline=None)
    @given(simple_sites())
    def test_random_simple_sites(self, Y):
        self.assert_matches(Y)

    @FIXED_SITES
    def test_fixed_sites(self, sites):
        Y = SiteSet(len(sites[0]), [tuple(rat(c) for c in p) for p in sites])
        assert is_simple_configuration(Y)[0]
        self.assert_matches(Y)

    def test_four_dimensional_random_sites(self):
        rng = random.Random(5)
        self.assert_matches(SiteSet(4, [tuple(QQ(rng.randint(-20, 20)) for _ in range(4))
                                        for _ in range(10)]))

    def test_dropping_any_top_is_rejected(self):
        # every top of a planar set, in turn, left out of the sphere map
        Y = random_sites(2, 7, seed=4)
        tops = [top for top, _ in delaunay(Y).simplex_volumes]
        assert len(tops) > 1
        for top in tops:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(voronoi, "_circumspheres", dropping(top))
                with pytest.raises(ValueError, match="lies beyond it"):
                    delaunay(Y)

    def test_a_key_with_a_site_inside_is_rejected(self):
        # a top's key swapped with that of a subset whose circumsphere holds
        # a site strictly inside: the top fails the emptiness test and the
        # other subset passes it, and the certificate rejects the result
        Y = random_sites(2, 7, seed=4)
        real = voronoi._circumspheres
        _, _, spheres = real(Y)
        P = voronoi._lifted_sites(Y)

        def holds_a_site(key):
            return any(sum(a * x for a, x in zip(key, p)) < key[-1] for p in P)

        tops = {top for top, _ in delaunay(Y).simplex_volumes}
        full = next(key for key, W in spheres.items() if holds_a_site(key))
        for top_key in [key for key, W in spheres.items() if W in tops]:
            swapped = {**spheres, top_key: spheres[full], full: spheres[top_key]}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(voronoi, "_circumspheres",
                           lambda Y, *lifted: real(Y, *lifted)[:2] + (swapped,))
                with pytest.raises(ValueError):
                    delaunay(Y)

    @settings(max_examples=40, deadline=None)
    @given(simple_sites(), st.randoms(use_true_random=False))
    def test_dropping_a_random_top_is_rejected(self, Y, rng):
        assume(len(Y) > Y.ambient_dim)
        top = rng.choice([top for top, _ in delaunay(Y).simplex_volumes])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voronoi, "_circumspheres", dropping(top))
            with pytest.raises(ValueError):
                delaunay(Y)


def certify(points, tops):
    """`_certify_triangulation` on rational points: each scaled to an
    integer point by the lcm of all their denominators."""
    den = lcm(*(x.denominator for p in points.values() for x in p))
    return _certify_triangulation(
        {k: [x.numerator * (den // x.denominator) for x in p] for k, p in points.items()},
        den, tops)


def certified(points, tops):
    try:
        certify(points, tops)
    except ValueError:
        return False
    return True


def span_coordinates(Y):
    """The sites in the basis of the reduced rows of their differences from
    site 0, by one rational solve per site: the derivation that `delaunay`
    replaced by reading pivot offsets."""
    base = Y.sites[0]
    dirs, _ = linalg.rref([[a - b for a, b in zip(p, base)] for p in Y.sites[1:]])
    columns = list(zip(*dirs))
    return [linalg.solve(columns, [a - b for a, b in zip(p, base)]) for p in Y.sites]


class TestLocalCertificates:
    """The local certificates of the Voronoi complex and the Delaunay nerve
    against the pairwise checks they replace."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(LATTICE_COORDS)] * n),
        min_size=1, max_size=6, unique=True)))
    def test_voronoi_complex_matches_pairwise_subdivision(self, sites):
        Y = SiteSet(len(sites[0]), sites)
        cells = [RationalPolyhedron(Y.ambient_dim, written(_cell_inequalities(Y, i)[0]))
                 for i in range(len(Y))]
        assert (format_cplx(voronoi_complex(Y))
                == format_cplx(PolyhedralComplex.from_subdivision(cells)))

    @settings(max_examples=30, deadline=None)
    @given(simple_sites())
    def test_delaunay_matches_pairwise_oracle(self, Y):
        D = delaunay(Y)
        simplices = [sorted(s) for s in D.complex.simplices()]
        for s, t in itertools.combinations(simplices, 2):
            a, b = [Y.sites[i] for i in s], [Y.sites[i] for i in t]
            assert not _open_simplices_meet(a, b) and not open_simplices_meet(a, b)

    def assert_volumes_match_hull_oracle(self, Y):
        # the old derivation: the volume of the hull of the span coordinates
        coords = span_coordinates(Y)
        D = delaunay(Y)
        assert D.hull_volume == polytope_volume(convex_hull_inequalities(coords))
        assert D.simplex_volumes == [(top, simplex_volume([coords[i] for i in top]))
                                     for top, _ in D.simplex_volumes]

    @settings(max_examples=40, deadline=None)
    @given(simple_sites())
    def test_volumes_match_hull_oracle(self, Y):
        self.assert_volumes_match_hull_oracle(Y)

    @FIXED_SITES
    def test_fixed_volumes_match_hull_oracle(self, sites):
        self.assert_volumes_match_hull_oracle(
            SiteSet(len(sites[0]), [tuple(rat(c) for c in p) for p in sites]))

    @settings(max_examples=80, deadline=None)
    @given(simple_sites(dims=(1, 2)),
           st.sampled_from(["keep", "drop", "add", "swap", "add-two", "duplicate"]),
           st.randoms(use_true_random=False))
    def test_certificate_matches_pairwise_oracle(self, Y, mutation, rng):
        n = Y.ambient_dim
        assume(len(Y) > n)
        points = dict(enumerate(Y.sites))
        hull = polytope_volume(convex_hull_inequalities(Y.sites))
        tops = [top for top, _ in delaunay(Y).simplex_volumes]
        others = [t for t in itertools.combinations(range(len(Y)), n + 1) if t not in tops]
        if mutation in ("drop", "swap"):
            tops.pop(rng.randrange(len(tops)))
        if mutation in ("add", "swap") and others:
            tops.append(rng.choice(others))
        if mutation == "add-two" and len(others) > 1:
            tops += rng.sample(others, 2)
        if mutation == "duplicate":
            tops.append(rng.choice(tops))
        # the point-location step starts from whichever top comes first,
        # and a ridge is the same whatever order its top lists it in
        tops = [tuple(rng.sample(top, len(top))) for top in tops]
        rng.shuffle(tops)
        assert certified(points, tops) == pairwise_triangulation(points, tops, hull)

    # corners of the square [0, 2]^2 and its center
    SQUARE = {"a": (0, 0), "b": (2, 0), "c": (2, 2), "d": (0, 2), "e": (1, 1)}
    FAN = [("a", "b", "e"), ("b", "c", "e"), ("c", "d", "e"), ("a", "d", "e")]

    def square(self, tops):
        points = {k: tuple(QQ(x) for x in p) for k, p in self.SQUARE.items()}
        return points, [tuple(sorted(t)) for t in tops], QQ(4)

    def test_certificate_accepts_a_triangulation(self):
        points, tops, hull = self.square(self.FAN)
        assert [v for _, v in certify(points, tops)] == [1, 1, 1, 1]
        assert pairwise_triangulation(points, tops, hull)

    def test_certificate_accepts_tops_in_any_vertex_order(self):
        points, _, hull = self.square([])
        tops = [("a", "b", "e"), ("e", "c", "b"), ("c", "d", "e"), ("a", "d", "e")]
        assert [v for _, v in certify(points, tops)] == [1, 1, 1, 1]
        assert pairwise_triangulation(points, tops, hull)

    @pytest.mark.parametrize("tops, message", [
        # the fan without one of its tops
        (FAN[:3], "lies beyond it"),
        # the fan with one of its tops twice
        (FAN + [("b", "e", "c")], "lies in 3 Delaunay simplices"),
    ], ids=["missing", "three-on-a-ridge"])
    def test_certificate_rejects_square(self, tops, message):
        points, tops, hull = self.square(tops)
        with pytest.raises(ValueError, match=message):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, hull)

    def test_certificate_rejects_no_tops(self):
        points, tops, hull = self.square([])
        with pytest.raises(ValueError, match="no Delaunay simplices"):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, hull)

    def test_certificate_rejects_a_flipped_triangle(self):
        # abd is folded over its ridge ab onto the side of abc
        points = {"a": (0, 0), "b": (2, 0), "c": (1, 2), "d": (1, 1)}
        points = {k: tuple(QQ(x) for x in p) for k, p in points.items()}
        tops = [("a", "b", "c"), ("a", "b", "d")]
        with pytest.raises(ValueError, match="lie on one side of their common ridge"):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, QQ(2))

    def test_certificate_rejects_an_overlapping_pair(self):
        # two triangles that overlap near their common vertex a; the ridge
        # ae of the first has the site c beyond it
        points = {"a": (0, 0), "b": (4, 0), "c": (0, 4), "d": (3, 1), "e": (1, 3)}
        points = {k: tuple(QQ(x) for x in p) for k, p in points.items()}
        tops = [("a", "b", "e"), ("a", "c", "d")]
        with pytest.raises(ValueError, match="lies beyond it"):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, QQ(8))

    def test_certificate_rejects_a_t_junction(self):
        # m lies inside the edge ab of the lower top: the interiors are
        # disjoint and the volumes add up, but am and mb are no hull facets
        points = {"a": (0, 0), "b": (2, 0), "c": (1, 2), "d": (1, -2), "m": (1, 0)}
        points = {k: tuple(QQ(x) for x in p) for k, p in points.items()}
        tops = [("a", "c", "m"), ("b", "c", "m"), ("a", "b", "d")]
        with pytest.raises(ValueError, match="lies beyond it"):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, QQ(4))

    def test_certificate_rejects_a_double_cover(self):
        # two fans over the square, from different centers and with the
        # boundary split differently, cover it twice: every ridge condition
        # holds and only the point location tells
        points = {"a": (0, 0), "b": (2, 0), "c": (2, 2), "d": (0, 2), "e": (1, 1),
                  "f": (1, QQ(1, 2)), "m1": (1, 0), "m2": (2, 1), "m3": (1, 2), "m4": (0, 1)}
        points = {k: tuple(QQ(x) for x in p) for k, p in points.items()}
        ring = ["a", "m1", "b", "m2", "c", "m3", "d", "m4"]
        tops = [tuple(sorted(t)) for t in self.FAN]
        tops += [tuple(sorted((u, v, "f"))) for u, v in zip(ring, ring[1:] + ring[:1])]
        with pytest.raises(ValueError, match=r"the centroid of Delaunay simplex \['a', 'b', 'e'\] "
                                             r"lies in Delaunay simplex \['a', 'f', 'm1'\] too"):
            certify(points, tops)
        assert not pairwise_triangulation(points, tops, QQ(4))

    def test_certificate_rejects_a_degenerate_top(self):
        # a collinear triple spans no triangle
        points = {"a": (0, 0), "b": (1, 1), "c": (2, 2), "d": (0, 2)}
        points = {k: tuple(QQ(x) for x in p) for k, p in points.items()}
        with pytest.raises(ValueError, match="degenerate top simplex"):
            certify(points, [("a", "b", "c"), ("a", "c", "d")])
        assert not pairwise_triangulation(points, [("a", "b", "c"), ("a", "c", "d")], QQ(2))

    def test_dropped_bisector_check_rejects_a_cell_with_too_few_rows(self, monkeypatch):
        real = voronoi._cell_inequalities

        def short(Y, i):
            kept, dropped = real(Y, i)
            return kept[:-1], dropped + kept[-1:]

        monkeypatch.setattr(voronoi, "_cell_inequalities", short)
        with pytest.raises(AssertionError, match="violates the dropped bisector"):
            voronoi_complex(SiteSet(1, [(0,), (1,), (2,)]))


def written(rows):
    """The written rows (p/q)·(a, b) of pairs ((a, b), (p, q)), as (normal, offset)."""
    return [(tuple(QQ(x * p, q) for x in a), QQ(b * p, q)) for (a, b), (p, q) in rows]


class TestCellFilter:
    """The bisector filter on a cone of generators against the
    Fourier-Motzkin filter it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.sampled_from(LATTICE_COORDS)] * n),
                 min_size=1, max_size=8, unique=True),
        st.booleans())))
    def test_matches_fourier_motzkin(self, drawn):
        sites, flat = drawn
        if flat and len(sites[0]) == 3:  # coplanar: every cell has a lineality line
            sites = sorted({(x, y, QQ(0)) for x, y, _ in sites})
        Y = SiteSet(len(sites[0]), sites)
        for i in range(len(Y)):
            kept, dropped = _cell_inequalities(Y, i)
            assert (written(kept), written(dropped)) == cell_inequalities(Y.sites, i)

    @pytest.mark.parametrize("sites", [
        [(0, 0, 0), (1, 2, 3)],                                      # two sites
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0)],    # coplanar
        [(0, 0), (1, 1), (3, 3), (-2, -2)],                          # collinear
        [(QQ(1, 2), 0), (0, QQ(1, 3)), (QQ(-2, 5), QQ(7, 4))],      # denominators
    ], ids=["two-sites", "coplanar", "collinear", "fractions"])
    def test_cells_with_lineality(self, sites):
        Y = SiteSet(len(sites[0]), [tuple(QQ(c) for c in p) for p in sites])
        for i in range(len(Y)):
            kept, dropped = _cell_inequalities(Y, i)
            assert (written(kept), written(dropped)) == cell_inequalities(Y.sites, i)

    @staticmethod
    def assert_extreme(sites):
        """Every cone `_cell_inequalities` ends with holds exactly the extreme
        rays, each with the mask of its tight rows, and a lineality basis."""
        n = len(sites[0])
        cones = []

        class Recording(polyhedra._Cone):
            def cut(self, h):
                g = super().cut(h)
                if g is not None:
                    if not cones or cones[-1][0] is not self:
                        cones.append((self, [[0] * n + [-1]]))
                    cones[-1][1].append(h)
                return g

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voronoi, "_Cone", Recording)
            for i in range(len(sites)):
                _cell_inequalities(SiteSet(n, sites), i)
        for cone, rows in cones:
            d = n + 1 - len(cone.lineality)
            assert linalg.int_rank(cone.lineality) == len(cone.lineality)
            assert len({tuple(r) for r, _ in cone.rays}) == len(cone.rays)
            for ray, mask in cone.rays:
                dots = [sum(a * b for a, b in zip(h, ray)) for h in rows]
                assert max(dots) <= 0
                assert mask == sum(1 << k for k, v in enumerate(dots) if not v)
                assert linalg.int_rank([h for h, v in zip(rows, dots) if not v]) == d - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=9, unique=True)))
    def test_rays_are_extreme_with_exact_tight_sets(self, sites):
        self.assert_extreme(sites)

    def test_rays_are_extreme_in_a_degenerate_4d_cell(self):
        # here pairs of rays share d - 2 tight rows without being adjacent, so
        # the count test alone would keep 117 rays for the 41 extreme ones
        self.assert_extreme([
            (0, 0, 0, 0), (0, 1, 1, -1), (1, 1, -1, 0), (1, 1, 0, 1), (1, 0, -1, -1),
            (1, -1, 1, -1), (0, -1, 1, 1), (-1, 0, -1, 0), (1, 0, -1, 1), (0, -1, -1, -1),
            (0, 1, -1, 1), (0, -1, 0, -1), (1, 0, 1, 1), (0, 1, 0, -1), (-1, 1, 0, 1),
            (1, 0, 1, 0), (0, -1, -1, 0), (-1, 1, 1, 1), (0, 0, -1, 0)])

    GRID = [(x, y) for x in range(3) for y in range(3)]

    @pytest.mark.parametrize("mode, when, index, message", [
        ("remove", 2, 1, "violates the dropped bisector"),
        ("flip", 2, 0, "witness generator"),
    ])
    def test_corrupted_cone_is_rejected(self, monkeypatch, mode, when, index, message):
        monkeypatch.setattr(voronoi, "_Cone", corrupting(mode, when, index))
        with pytest.raises(AssertionError, match=message):
            voronoi_complex(SiteSet(2, self.GRID))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(LATTICE_COORDS)] * n),
        min_size=2, max_size=7, unique=True)),
        st.sampled_from(["remove", "flip"]), st.integers(2, 5), st.integers(0, 7))
    def test_corruption_raises_or_changes_nothing(self, sites, mode, when, index):
        Y = SiteSet(len(sites[0]), sites)
        expected = format_cplx(voronoi_complex(Y))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voronoi, "_Cone", corrupting(mode, when, index))
            try:
                got = format_cplx(voronoi_complex(Y))
            except AssertionError:
                return
        assert got == expected


def annulus_case(seed):
    """Perturbed lattice sites of a 5 x 4 rectangle around a hole that holds
    two Voronoi vertices and the edge between them, and the ring region."""
    F = QQ
    sites = SiteSet(2, [(QQ(i), QQ(j)) for i in range(5) for j in range(4)])
    Y = perturb_to_simple(sites, F(1, 20), seed)
    ring = [box([0, 0], [4, F(5, 4)]), box([0, F(7, 4)], [4, 3]),
            box([0, F(5, 4)], [F(5, 4), F(7, 4)]), box([F(11, 4), F(5, 4)], [4, F(7, 4)])]
    return Y, PolyhedralRegion(ring)


class TestClipAgainstFM:
    """The faces clipping removes, against `region.meets` on every face."""

    def removal(self, Y, region):
        cx = voronoi_complex(Y)
        fm = {c for c in cx.ids() if not region.meets(cx.faces[c])}
        asked, meets = [], region.meets
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(region, "meets", lambda poly: asked.append(poly) or meets(poly))
            assert _faces_missing(cx, region) == fm
        # the feasibility test runs only on faces above no vertex inside the region
        settled = set()
        for c in cx.ids():
            if cx.face_dim(c) == 0 and region.contains(cx.faces[c].vertices()[0]):
                settled |= cx.above_of(c)
        assert not any(cx.faces[c] is poly for c in settled for poly in asked)
        assert len(asked) == len(cx.ids()) - len(settled)
        assert set(clipped_complex(Y, region).ids()) == set(cx.ids()) - fm
        return cx, fm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annulus(self, seed):
        Y, region = annulus_case(seed)
        cx, removed = self.removal(Y, region)
        # the edge inside the hole goes, the unbounded cells stay
        assert any(cx.face_dim(c) == 1 for c in removed)
        assert any(not cx.faces[c].is_bounded() for c in cx.ids() if c not in removed)

    def test_box_across_an_edge(self):
        # a small box around the middle of a bounded edge meets the edge and
        # its two cells but none of their vertices, and misses every other cell
        Y = random_sites(2, 7, seed=4)
        cx = voronoi_complex(Y)
        edge = next(c for c in cx.ids() if cx.face_dim(c) == 1 and cx.faces[c].is_bounded())
        u, v = cx.faces[edge].vertices()
        mid = [(a + b) / 2 for a, b in zip(u, v)]
        eps = max(abs(a - b) for a, b in zip(u, v)) / 8
        region = PolyhedralRegion([box([c - eps for c in mid], [c + eps for c in mid])])
        cx, removed = self.removal(Y, region)
        assert sorted(cx.face_dim(c) for c in cx.ids() if c not in removed) == [1, 2, 2]
        assert not any(region.contains(cx.faces[c].vertices()[0])
                       for c in cx.ids() if cx.face_dim(c) == 0)

    def test_edge_without_vertices(self):
        # two sites: one unbounded edge (a line), no vertex at all
        Y = SiteSet(2, [(QQ(0), QQ(0)), (QQ(2), QQ(0))])
        region = PolyhedralRegion([box([QQ(1, 2), 5], [QQ(3, 2), 6])])
        cx, removed = self.removal(Y, region)
        assert not removed

    @settings(max_examples=40, deadline=None)
    @given(simple_sites(dims=(2,), max_sites=7),
           st.lists(st.tuples(st.integers(-9, 8), st.integers(-9, 8),
                              st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=3))
    def test_random_boxes(self, Y, boxes):
        region = PolyhedralRegion([box([x, y], [x + w, y + h]) for x, y, w, h in boxes])
        cx = voronoi_complex(Y)
        assert _faces_missing(cx, region) == {c for c in cx.ids()
                                              if not region.meets(cx.faces[c])}
