"""Voronoi complexes of rational site sets and their Delaunay nerves.

Cells come straight from the bisector inequalities 2(y'-y)·x <= y'·y'-y·y,
with redundant bisectors filtered incrementally (nearest sites first): the
generators of the cone over the cell, kept by the double description
method on integer sites, decide whether the rows kept so far entail a new
one.  The complex itself is the face/intersection closure of the cells.
Genericity ("simple configuration") is decided on integer sites lifted to
the paraboloid (z, |z|²), where a circumsphere is a hyperplane: the signed
maximal minors of each (N+1)-subset's lifted differences, expanded once per
prefix of the subsets in combination order, give its rank and the primitive
integer equation of its circumsphere.  Each cell is certified to be the
exact Voronoi region of its site, so the cells meet in common faces
without a pairwise check.  The Delaunay nerve needs no cell at all: its
top simplices are the subsets whose circumsphere from the genericity test
holds no site inside (the empty-sphere criterion).  It is certified
exactly and locally: the ridge conditions of a triangulation (each ridge
between two top simplices on opposite sides, or on a hull facet), positive
simplex volumes, and one point location (the centroid of one top simplex
lies in no other), which together make its open simplices pairwise
disjoint and show that no top is missing.
Clipping keeps every face above a vertex inside the region and tests the
other faces against the region by the feasibility test of `polyhedra`.
"""

import itertools
import random
from functools import cache
from math import factorial, gcd, lcm
from operator import mul
from dataclasses import dataclass

from .rationals import QQ, ZERO, rat, rat_str, vec
from . import linalg
from .polyhedra import (RationalPolyhedron, _Cone, _dot, _row_text, _scaled, _solve_constraints,
                        format_poly, parse_poly)
from .complexes import PolyhedralComplex
from .simplicial import SimplicialComplex


class SiteSet:

    def __init__(self, ambient_dim, sites):
        self.ambient_dim = int(ambient_dim)
        self.sites = tuple(vec(p) for p in sites)
        for p in self.sites:
            if len(p) != self.ambient_dim:
                raise ValueError("site arity does not match ambient dimension")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites")
        if not self.sites:
            raise ValueError("need at least one site")

    def __len__(self):
        return len(self.sites)


def _integer_sites(Y):
    """(Z, L): the sites times L, the lcm of their denominators, as integer rows."""
    N = Y.ambient_dim
    flat, L = linalg.int_row([c for p in Y.sites for c in p])
    return [flat[i:i + N] for i in range(0, len(flat), N)], L


def _cell_inequalities(Y, i):
    """(kept, dropped): the bisectors of site i against every other site,
    nearest sites first, split by whether the bisectors kept before them
    entail them, each as (row, scale) of `RationalPolyhedron`.  The cell of
    site i is the polyhedron of the kept rows.

    The test runs on the integer sites Z = L·Y moved so that z_i is the
    origin, where the bisector against z_j is 2d·x <= d·d with d = z_j - z_i;
    a change of coordinates keeps every entailment.  The kept rows cut out a
    cell P holding the origin, so they entail a row iff its homogenisation
    holds on the cone over P, that is on every generator of `_Cone`.
    Each keep is checked here: the generator that violates the new row
    satisfies every kept row and t >= 0, so it lies in the cone over P and
    P has a point beyond the new row.  Each drop is checked by
    `_voronoi_cells` on the cell's certified face record.
    """
    Z, L = _integer_sites(Y)
    z = Z[i]
    order = sorted((sum((a - b) ** 2 for a, b in zip(Z[j], z)), j)
                   for j in range(len(Y)) if j != i)
    cone = _Cone(Y.ambient_dim)
    rows, kept, dropped = [], [], []
    for sq, j in order:
        h = [2 * (a - b) for a, b in zip(Z[j], z)] + [-sq]
        g = cone.cut(h)
        if g is None:
            dropped.append(j)
            continue
        if g[-1] < 0 or _dot(h, g) <= 0 or any(_dot(r, g) > 0 for r in rows):
            raise AssertionError("the bisector of sites %d and %d is kept, but its witness "
                                 "generator %r is not a point of the cone of the rows kept "
                                 "before it beyond the new row" % (i, j, g))
        rows.append(h)
        kept.append(j)
    norms = [sum(a * a for a in p) for p in Z]

    def row(j):
        # the bisector of the sites y_i = z_i / L and y_j = z_j / L, times L²
        return _scaled([2 * L * (a - b) for a, b in zip(Z[j], z)] + [norms[j] - norms[i]], L * L)

    return [row(j) for j in kept], [row(j) for j in dropped]


def _voronoi_cells(Y):
    """The Voronoi cells, in site order, each with its certified face record.

    Each cell is certified to be the exact Voronoi region of its site:
    every bisector that `_cell_inequalities` dropped holds on every
    generator of the cell's face record.
    """
    cells = []
    for i in range(len(Y)):
        kept, dropped = _cell_inequalities(Y, i)
        cell = RationalPolyhedron._of_rows(Y.ambient_dim, kept)
        cell._record()  # the certified record the dropped rows are checked on
        for row, scale in dropped:
            if not cell._entails_row(*row, False):
                raise AssertionError(
                    "cell %d is not its Voronoi region: it violates the dropped bisector %s"
                    % (i, _row_text(row, scale, "<=")))
        cells.append(cell)
    return cells


def voronoi_complex(Y):
    """The Voronoi complex: the cells of `_voronoi_cells`, their faces and
    the incidences.

    Cell i lies in every halfspace H_ij of points at least as close to
    site i as to site j, so cell_i ∩ cell_j = cell_i ∩ {equality in H_ij}
    = cell_j ∩ {equality in H_ij}: a face of both cells, exposed by a valid
    inequality, which face enumeration lists in both under the same
    canonical key.  The pairwise common-face check of `from_subdivision` is
    therefore not needed.
    """
    return PolyhedralComplex._of_cells(_voronoi_cells(Y))


def _lifted_sites(Y):
    """(P, L): the integer sites z = L·y, with L the lcm of the sites'
    denominators, each lifted to the paraboloid as p = (z, |z|²)."""
    Z, L = _integer_sites(Y)
    return [z + [sum(x * x for x in z)] for z in Z], L


@cache
def _expansion_plan(N):
    """The Laplace steps that take the minors of r - 1 rows of an
    N × (N+1) matrix to those of r rows, for r = 1, ..., N.

    Step r maps each r-subset S of the columns, listed in combination
    order, to a row of N+1 pairs (i, sign): for a column c of S, i indexes
    the minor of the first r - 1 rows on S minus c and sign is that of c in
    the expansion along row r; a column outside S has sign 0.  With
    B = [sign * prev[i] for i, sign in row], the minor of the first r rows
    on S is B · (row r).  Step N lists, for c = 0, ..., N, the columns
    without c, with (-1)^c folded in: its minors are the signed maximal
    minors n_c, so that n · x = det[x; rows] for every x, and n is normal
    to every row.
    """
    cols = range(N + 1)
    plan = [None]
    for r in range(1, N + 1):
        index = {S: i for i, S in enumerate(itertools.combinations(cols, r - 1))}
        if r < N:
            subsets = [(S, 1) for S in itertools.combinations(cols, r)]
        else:
            subsets = [(tuple(x for x in cols if x != c), (-1) ** c) for c in cols]
        step = []
        for S, sign in subsets:
            row = [(0, 0)] * (N + 1)
            for t, c in enumerate(S):
                row[c] = (index[S[:t] + S[t + 1:]], sign * (-1) ** (r - 1 + t))
            step.append(tuple(row))
        plan.append(tuple(step))
    return tuple(plan)


def _circumspheres(Y, lifted=None):
    """(flag, witness, spheres): the genericity sweep.  flag and witness
    are those of `is_simple_configuration`; spheres maps the circumsphere
    of each (N+1)-subset W swept, under the key below, to W.  For a simple
    set it holds every (N+1)-subset, each under its own key.  `lifted` is
    `_lifted_sites(Y)` if the caller has it already.

    Subsets larger than N+2 never need checking: a degenerate one always
    contains a degenerate subset of size at most N+2.  Subsets of size up
    to N+1 must be affinely independent; a size-N+2 subset is degenerate
    exactly when its points share a circumsphere, so instead of sweeping
    all N+2 subsets we key the circumsphere of each N+1 subset and look for
    a collision.  A collision is reported only when no subset fails the
    rank test.

    The sites are scaled by their common denominator L to integer points
    z, which keeps affine independence and spheres, and lifted to
    p = (z, |z|²).  A sphere |z - c|² = r² becomes the hyperplane
    a·z + b|z|² = e with b > 0, a = -2bc and e = b(r² - |c|²), so sites
    are cospherical iff their lifts are co-hyperplanar (Edelsbrunner and
    Seidel, "Voronoi diagrams and arrangements", DCG 1986).  The normal
    n = (a, b) of the hyperplane through the lifts of W is the vector of
    signed maximal minors of the N × (N+1) matrix of differences
    p_j - p_0 (p_0 the lift of W's first site), and e = n·p_0.  Its lift
    entry b is ±det(z_j - z_0), so W is affinely dependent iff b = 0:
    exactly when the equidistance system 2(z_j - z_0)·x = |z_j|² - |z_0|²
    has no unique solution, which an elimination of that system tests.
    Otherwise the key (a, b, e), divided by the content of n (which
    divides e) and signed so that b > 0, is the one primitive integer
    equation of the hyperplane, so two subsets share a key iff they share
    a circumsphere.  So the first failing subset, the collision and the
    subsets swept are those of one elimination per subset, which the tests
    keep as the oracle `circumsphere_sweep`.

    The minors are expanded along the last row and shared along the
    lexicographic combination tree: each prefix of r sites holds the
    (r-1)-minors of its difference rows as the vectors of
    `_expansion_plan`, so a child's minors are dot products, and a leaf
    costs N + 1 of them.
    """
    if len(Y) < 2:
        raise ValueError("need at least two sites")
    N = Y.ambient_dim
    k = len(Y)
    P = (lifted or _lifted_sites(Y))[0]
    for size in range(3, min(k, N) + 1):
        for W in itertools.combinations(range(k), size):
            p0 = P[W[0]]
            if linalg.int_rank([[a - b for a, b in zip(P[j][:N], p0)] for j in W[1:]]) \
                    != size - 1:
                return False, W, {}
    spheres = {}
    if k <= N:
        return True, None, spheres
    plan = _expansion_plan(N)
    collision = None
    first = [[s for _, s in row] for row in plan[1]]  # the minors of no rows: [1]
    for w in range(k - N):
        p0 = P[w]
        D = [[a - b for a, b in zip(p, p0)] for p in P]
        # depth first in combination order: a prefix W of r sites carries
        # the step-r vectors Bs of its r - 1 difference rows
        stack = [((w,), first)]
        while stack:
            W, Bs = stack.pop()
            r = len(W)
            if r < N:
                step = plan[r + 1]
                children = []
                for j in range(W[-1] + 1, k - N + r):
                    m = [sum(map(mul, D[j], B)) for B in Bs]
                    children.append((W + (j,), [[s * m[i] for i, s in row] for row in step]))
                stack.extend(reversed(children))
                continue
            for j in range(W[-1] + 1, k):
                n = [sum(map(mul, D[j], B)) for B in Bs]
                if not n[N]:
                    return False, W + (j,), spheres
                if collision is None:
                    g = gcd(*n)
                    if n[N] < 0:
                        g = -g
                    if g != 1:
                        n = [x // g for x in n]
                    n.append(sum(map(mul, n, p0)))
                    key = tuple(n)
                    V = W + (j,)
                    if key in spheres:
                        collision = tuple(sorted(set(spheres[key]) | set(V))[:N + 2])
                    spheres[key] = V
    return (False, collision, spheres) if collision else (True, None, spheres)


def is_simple_configuration(Y):
    """(flag, witness): every small equidistance locus is transversal
    (see `_circumspheres`)."""
    return _circumspheres(Y)[:2]


def perturb_to_simple(Y, bound, seed, retries=8):
    bound = rat(bound)
    if bound <= 0:
        raise ValueError("perturbation bound must be positive")
    if len(Y) >= 2 and is_simple_configuration(Y)[0]:
        return Y
    rng = random.Random(seed)
    for attempt in range(retries):
        scale = bound / (2 ** attempt)
        den = 2 ** (attempt + 10)
        lim = int(scale * den)
        sites = []
        for p in Y.sites:
            sites.append(tuple(c + QQ(rng.randint(-lim, lim), den) for c in p))
        if len(set(sites)) != len(sites):
            continue
        cand = SiteSet(Y.ambient_dim, sites)
        if is_simple_configuration(cand)[0]:
            return cand
    raise ValueError("perturbation failed after %d retries" % retries)


@dataclass
class DelaunayRealization:
    complex: SimplicialComplex  # vertices are site indices
    eta: dict                   # site index -> point
    hull_dim: int
    hull_volume: object         # the sum of the top volumes: vol(hull), by the certificate
    simplex_volumes: list       # (vertex tuple, volume) for top simplices


def delaunay(Y):
    """The Delaunay nerve of a simple site set, certified to triangulate
    the convex hull of the sites; ValueError if the set is not simple or
    the certificate fails.

    Its top simplices are the (N+1)-subsets whose circumsphere, from the
    genericity sweep `_circumspheres`, holds no site strictly inside; a
    simple set of k <= N sites has one top, all its sites.  The sweep keys
    a sphere |z - c|² = r² on the integer sites z by its lifted hyperplane
    a·z + b|z|² = e with b > 0, so |z - c|² - r² = (a·z + b|z|² - e) / b,
    and a site z lies strictly inside iff a·z + b|z|² < e: one integer dot
    product with the lift (z, |z|²) that the sweep used.  These are the
    maximal simplices of the nerve of the Voronoi cells (Delaunay, "Sur la
    sphère vide", 1934).  In a simple set, a Voronoi vertex v has an
    affinely independent set of N+1 nearest sites, and the sphere about v
    through them holds no site inside.  Conversely, the centre of an empty
    circumsphere of an (N+1)-subset W is nearest to exactly W, since
    another site on the sphere would put N+2 sites on one sphere; so it
    lies in exactly those N+1 cells, and is a Voronoi vertex.  Each top
    has d + 1 vertices and positive volume (`_certify_triangulation`), so
    the sites of each simplex are affinely independent, and the
    certificate shows that no top is missing.
    """
    N = Y.ambient_dim
    P, L = lifted = _lifted_sites(Y)
    ok, witness, spheres = _circumspheres(Y, lifted)
    if not ok:
        raise ValueError(
            "site set is not simple (witness subset %r); run perturb_to_simple first"
            % (witness,))
    if len(Y) <= N:
        tops = [tuple(range(len(Y)))]
    else:
        # key = (a, b, e): a·z + b|z|² is the key's dot with the lift p,
        # which stops before e
        tops = sorted(W for key, W in spheres.items()
                      if all(sum(map(mul, key, p)) >= key[-1] for p in P))
    Z = [p[:N] for p in P]
    pivots = linalg.int_rref([[a - b for a, b in zip(z, Z[0])] for z in Z[1:]])
    d = len(pivots)  # at least 1: a simple set has two distinct sites
    for top in tops:
        if len(top) != d + 1:
            raise ValueError("Delaunay facet %r has wrong dimension" % (list(top),))
    # span coordinates: the reduced rows of the site differences have unit
    # pivots, so a site's coordinates in their basis are its pivot offsets
    params = {i: tuple(QQ(z[c] - Z[0][c], L) for c in pivots) for i, z in enumerate(Z)}
    volumes = _certify_triangulation(params, tops)
    eta = {i: Y.sites[i] for i in range(len(Y))}
    return DelaunayRealization(SimplicialComplex(tops), eta, d,
                               sum((v for _, v in volumes), ZERO), volumes)


def _certify_triangulation(params, tops):
    """Check that the d-simplices `tops` (tuples of keys of `params`, which
    maps each key to a point of Q^d, d >= 1) triangulate the convex hull H
    of all the points; [(top, volume)] if so, ValueError if not.

    The local certificate of Mehlhorn, Näher, Seel, Seidel, Schilz,
    Schirra and Uhrig ("Checking geometric programs or verification of
    geometric structures", CGTA 1999).  There is a top, and every top has
    positive volume.  Every ridge (a top minus one vertex) lies either in
    exactly two tops, whose opposite vertices lie strictly on opposite
    sides of it, or in exactly one top, with every point weakly on that
    top's side: then the ridge lies on the boundary of H.  And their point
    location: the centroid c of the first top lies in no other closed top
    (T = R + v excludes c iff c and v lie strictly apart by a ridge R).

    Why this suffices.  Walking through H in general position, one crosses
    only ridges between two tops, leaving one and entering the other, so
    every point of H off the tops' boundaries lies in the same number
    k >= 1 of tops.  A small ball around c lies in the first top alone, so
    k = 1: the tops cover H, have disjoint interiors and their volumes add
    up to vol(H).  Near any point x, the tops containing x cover H and are
    linked through shared ridges that contain x; a ridge holding x
    contains the face of either top whose relative interior holds x, so
    that face is the same in every top containing x.  Hence the relative
    interiors of distinct faces of the tops are disjoint.  Conversely, in a
    triangulation a point inside one top lies in no other: this step
    accepts exactly the top sets that volume additivity accepted.
    """
    if not tops:
        raise ValueError("no Delaunay simplices")
    # the points scaled to integers: sides of hyperplanes are unchanged
    den = lcm(*(x.denominator for p in params.values() for x in p))
    pts = {i: [x.numerator * (den // x.denominator) for x in p] for i, p in params.items()}
    d = len(pts[tops[0][0]])
    out = []
    for top in tops:
        det = linalg.int_det([[a - b for a, b in zip(pts[i], pts[top[0]])] for i in top[1:]])
        if not det:
            raise ValueError("degenerate top simplex %r" % (list(top),))
        out.append((top, QQ(abs(det), den ** d * factorial(d))))
    # d + 1 times the centroid of the first top, an integer point
    centroid = [sum(c) for c in zip(*(pts[i] for i in tops[0]))]
    # each ridge keyed by its sorted vertices, so a top may list its
    # vertices in any order; the first listing met names the ridge
    opposite = {}
    for t, top in enumerate(tops):
        for k, v in enumerate(top):
            ridge = top[:k] + top[k + 1:]
            opposite.setdefault(tuple(sorted(ridge)), (ridge, []))[1].append((t, v))
    holding = set(range(len(tops)))  # the tops not shown to exclude the centroid
    for ridge, tvs in opposite.values():
        vs = [v for _, v in tvs]
        origin = pts[ridge[0]]
        # the kernel of the ridge's rows; sides are compared only by sign
        # products, so any nonzero multiple gives the same verdicts
        normal = linalg.annihilator([[a - b for a, b in zip(pts[r], origin)]
                                     for r in ridge[1:]], d)[0]
        level = _dot(normal, origin)

        def side(i):
            return _dot(normal, pts[i]) - level

        if len(vs) == 2:
            if side(vs[0]) * side(vs[1]) >= 0:
                raise ValueError("Delaunay simplices %r and %r lie on one side of their "
                                 "common ridge %r" % (sorted(ridge + (vs[0],)),
                                                      sorted(ridge + (vs[1],)), list(ridge)))
        elif len(vs) == 1:
            inner = side(vs[0])
            beyond = next((i for i in pts if side(i) * inner < 0), None)
            if beyond is not None:
                raise ValueError("ridge %r lies in the single Delaunay simplex %r but site %r "
                                 "lies beyond it" % (list(ridge), sorted(ridge + (vs[0],)), beyond))
        else:
            raise ValueError("ridge %r lies in %d Delaunay simplices" % (list(ridge), len(vs)))
        at = _dot(normal, centroid) - (d + 1) * level
        holding -= {t for t, v in tvs if at * side(v) < 0}
    if holding != {0}:
        raise ValueError("the centroid of Delaunay simplex %r lies in Delaunay simplex %r too"
                         % (sorted(tops[0]), sorted(tops[min(holding - {0})])))
    return out


def _open_simplices_meet(pts_a, pts_b):
    """Exact test: do the relative interiors of two simplices intersect?

    `delaunay` settles this for its nerve locally, by
    `_certify_triangulation`; this pairwise test is the tests' oracle."""
    N = len(pts_a[0])
    na, nb = len(pts_a), len(pts_b)
    nvars = na + nb
    eqs = [((1,) * na + (0,) * nb, 1), ((0,) * na + (1,) * nb, 1)]
    for i in range(N):
        eqs.append((linalg.int_row([p[i] for p in pts_a] + [-q[i] for q in pts_b])[0], 0))
    ineqs = [(tuple(-int(v == w) for w in range(nvars)), 0, True) for v in range(nvars)]
    return _solve_constraints(eqs, ineqs) is not None


# -- clipping -----------------------------------------------------------------

class PolyhedralRegion:

    def __init__(self, pieces):
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ValueError("region needs at least one piece")
        self.ambient_dim = self.pieces[0].ambient_dim
        for p in self.pieces:
            if p.ambient_dim != self.ambient_dim:
                raise ValueError("pieces live in different ambient spaces")
            if p.is_empty():
                raise ValueError("empty region piece")
            if not p.is_bounded():
                raise ValueError("region pieces must be bounded")

    def meets(self, poly):
        return any(not poly.intersect(p).is_empty() for p in self.pieces)

    def contains(self, point):
        return any(p.contains(point) for p in self.pieces)

    def bounding_box(self):
        """The least box holding the region, as (lows, highs).  A piece is
        non-empty and bounded, so its closure is the hull of the points of
        its record, strict rows or not."""
        points = [[QQ(x, den) for x in nums]
                  for p in self.pieces for (nums, den), _ in p._record().points]
        return [min(c) for c in zip(*points)], [max(c) for c in zip(*points)]


def _faces_missing(cx, region):
    """Ids of the faces of `cx` disjoint from the region.  A face holds its
    vertices, so every face above a vertex inside the region meets it;
    a feasibility test (`region.meets`) decides only the faces left over."""
    meeting = set()
    for c in cx.ids():
        if cx.face_dim(c) == 0 and region.contains(cx.faces[c].vertices()[0]):
            meeting |= cx.above_of(c)
    return {c for c in cx.ids() if c not in meeting and not region.meets(cx.faces[c])}


def clipped_complex(Y, region):
    ok, witness = is_simple_configuration(Y)
    if not ok:
        raise ValueError("site set is not simple (witness subset %r)" % (witness,))
    cx = voronoi_complex(Y)
    # faces disjoint from the region form a subcomplex automatically
    clipped = cx.difference(_faces_missing(cx, region))
    flag, bad = clipped.is_simple()
    if not flag:
        raise AssertionError("clipped complex lost simplicity at face %r" % (bad,))
    return clipped


def dense_lattice_sites(region, eps, seed, bound=None, retries=8):
    """Sites (eps·Z)^N within eps of the region, perturbed to simplicity."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    N = region.ambient_dim
    los, his = region.bounding_box()
    ranges = []
    for i in range(N):
        lo = (los[i] - eps) / eps
        hi = (his[i] + eps) / eps
        lo_i = lo.numerator // lo.denominator  # floor
        hi_i = -((-hi.numerator) // hi.denominator)  # ceil
        ranges.append(range(int(lo_i), int(hi_i) + 1))
    sites = []
    for combo in itertools.product(*ranges):
        p = tuple(eps * c for c in combo)
        box = RationalPolyhedron.from_box([c - eps for c in p], [c + eps for c in p])
        if region.meets(box):
            sites.append(p)
    Y = SiteSet(N, sites)
    if bound is None:
        bound = eps / 4
    return perturb_to_simple(Y, bound, seed, retries=retries)


# -- PTS/1 and RGN/1 -----------------------------------------------------------

def format_pts(Y):
    lines = ["%d %d" % (Y.ambient_dim, len(Y))]
    for p in Y.sites:
        lines.append(" ".join(rat_str(c) for c in p))
    return "\n".join(lines) + "\n"


def parse_pts(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("PTS/1: empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("PTS/1: header must be 'N k' (line 1)")
    n, k = int(head[0]), int(head[1])
    if len(lines) - 1 != k:
        raise ValueError("PTS/1: expected %d points, got %d" % (k, len(lines) - 1))
    sites = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != n:
            raise ValueError("PTS/1: bad point arity (line %d)" % lineno)
        sites.append(tuple(rat(p) for p in parts))
    return SiteSet(n, sites)


def format_rgn(region):
    blocks = [str(len(region.pieces))]
    for p in region.pieces:
        blocks.append(format_poly(p).rstrip("\n"))
    return "\n".join(blocks) + "\n"


def parse_rgn(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("RGN/1: empty input")
    count = int(lines[0])
    pos = 1
    pieces = []
    for _ in range(count):
        if pos >= len(lines):
            raise ValueError("RGN/1: truncated input (line %d)" % (pos + 1))
        head = lines[pos].split()
        if len(head) != 2:
            raise ValueError("RGN/1: bad POLY/1 header (line %d)" % (pos + 1))
        m = int(head[1])
        block = lines[pos:pos + m + 1]
        if len(block) != m + 1:
            raise ValueError("RGN/1: truncated POLY/1 block (line %d)" % (pos + 1))
        pieces.append(parse_poly("\n".join(block)))
        pos += m + 1
    if pos != len(lines):
        raise ValueError("RGN/1: trailing data (line %d)" % (pos + 1))
    return PolyhedralRegion(pieces)
