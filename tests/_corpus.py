"""Shared fixtures: a corpus of simple polyhedral complexes plus the
standard simplicial surfaces."""

from polycx import (
    QQ,
    RationalPolyhedron,
    PolyhedralComplex,
    PolyhedralRegion,
    SimplicialComplex,
    SiteSet,
    voronoi_complex,
    clipped_complex,
    perturb_to_simple,
)

import random


def box(lo, hi):
    return RationalPolyhedron.from_box(lo, hi)


def segment_chain(m):
    """m unit segments [0,1], [1,2], ... glued end to end on a line."""
    return PolyhedralComplex.from_subdivision(
        [box([i], [i + 1]) for i in range(m)])


def square_strip(m):
    """1 x m strip of unit squares in the plane."""
    return PolyhedralComplex.from_subdivision(
        [box([i, 0], [i + 1, 1]) for i in range(m)])


def cube_tower(m):
    """1 x 1 x m tower of unit cubes."""
    return PolyhedralComplex.from_subdivision(
        [box([0, 0, i], [1, 1, i + 1]) for i in range(m)])


def random_sites(ambient_dim, k, seed):
    """Seeded rational sites in general position (perturbed if needed)."""
    rng = random.Random(seed)
    while True:
        pts = set()
        while len(pts) < k:
            pts.add(tuple(QQ(rng.randint(-40, 40), 8) for _ in range(ambient_dim)))
        try:
            Y = SiteSet(ambient_dim, sorted(pts))
            return perturb_to_simple(Y, QQ(1, 50), seed)
        except ValueError:
            seed += 1000


def voronoi_fixture(ambient_dim, k, seed):
    return voronoi_complex(random_sites(ambient_dim, k, seed))


def clipped_fixture(seed):
    """Voronoi complex of seeded planar sites clipped to a box."""
    Y = random_sites(2, 6, seed)
    region = PolyhedralRegion([box([-3, -3], [3, 3])])
    return clipped_complex(Y, region)


def simple_polyhedral_corpus():
    """At least 30 simple complexes of mixed dimension and origin."""
    out = []
    for m in range(1, 9):
        out.append(("chain-%d" % m, segment_chain(m)))
    for m in range(1, 7):
        out.append(("strip-%d" % m, square_strip(m)))
    for m in range(1, 4):
        out.append(("tower-%d" % m, cube_tower(m)))
    for seed in range(4):
        out.append(("vor1-%d" % seed, voronoi_fixture(1, 5, seed)))
    for seed in range(5):
        out.append(("vor2-%d" % seed, voronoi_fixture(2, 5, 100 + seed)))
    for seed in range(2):
        out.append(("vor3-%d" % seed, voronoi_fixture(3, 4, 200 + seed)))
    for seed in range(3):
        out.append(("clip-%d" % seed, clipped_fixture(300 + seed)))
    return out


# -- simplicial surfaces ---------------------------------------------------------

def circle(n=3):
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def sphere2():
    """Boundary of the tetrahedron."""
    verts = [0, 1, 2, 3]
    return SimplicialComplex(
        [tuple(v for v in verts if v != skip) for skip in verts])


def torus():
    """7-vertex triangulation on Z/7: triangles {i,i+1,i+3} and {i,i+2,i+3}."""
    tris = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    tris += [(i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return SimplicialComplex(tris)


def projective_plane():
    """Minimal 6-vertex triangulation of RP^2 (every K6 edge in 2 triangles)."""
    tris = [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)]
    return SimplicialComplex(tris)
