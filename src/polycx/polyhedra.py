"""Convex rational polyhedra given by mixed strict/non-strict inequalities.

A polyhedron is stored in H-representation: rows a·x <= b (or < for
strict ones), each as primitive integers (a, b) with the positive scale
p/q it was written with, so that the written row is (p/q)·(a, b), and a
set of "tightened" indices that have been converted to equalities.  A row
takes this form once, where it is read (`parse_poly` reads POLY/1 tokens
straight to integers, `_primitive` converts a caller's `LinearInequality`)
or built (bisectors, cuts, boxes, hulls), and `format_poly` writes the
written row back from it.  Every exact question reads the integer rows:
the face record, feasibility and entailment (`_solve_constraints`,
`_entails_row`), and the deduplication of `intersect`; faces,
intersections and systems with appended rows share their parent's rows.

Its face structure is read off one cached record of its closed relaxation
Q, where every strict row is relaxed to <=: the vertices of Q modulo its
lineality space L, its extreme rays, an integer basis of L, and the rows
each of these generators makes tight (the V-side of the double
description).  The record is built by one run of the double description
method (`_Cone`, which also filters the Voronoi bisectors) on the cone over
Q, and certified exactly on every build.  A face is a tightening; its
implicit equalities are the rows tight on all of its generators, its
dimension is read from those rows, and its facets are the rows whose faces
have one dimension less.  The closures are memoised on the record and
shared with the records of the enumerated faces, which share the parent's
integer rows and know their own tight set, so the canonical key of a face
(integers only: the canonical rows of its equalities and its facet rows
reduced modulo them, see `canonical_key`) reuses the closures of the face
walk.  The same engine answers feasibility for systems without a record
(`_solve_constraints`: a witness in the relative interior, checked
exactly), and certifies an empty record by a Farkas vector (`_farkas`).

A caller that needs only the tight set, the dimension and the affine span
can skip the record: `relint_point` checks a guessed point against the
rows written as equalities (tightened rows and opposite pairs), exactly,
and a point that satisfies them with equality and every other row
strictly lies in the relative interior and certifies all three.  When
those equalities leave a line, a failed guess is retried once at the
middle of the line's section by the other rows, which covers
one-dimensional faces, bounded or not, under the same check.  A guess
that fails falls back to the record.  A record also carries over to a
system with rows appended that hold on it (`with_valid_rows`), each row
checked on every generator.  Everything is immutable; derived data is
cached per instance.
"""

import itertools
from collections import deque
from math import factorial, gcd, lcm
from operator import mul
from dataclasses import dataclass
from functools import cached_property

from .rationals import QQ, ZERO, numbered_lines, rat, ratio, ratio_str
from . import linalg


def _scaled(ints, den):
    """((a, b), (p, q)) for the written row ints/den, den > 0: (a, b) its
    primitive integer row and p/q > 0, in lowest terms, its scale, so that
    ints/den = (p/q)·(a, b).  A zero row has scale 1."""
    g = gcd(*ints)
    if not g:
        return (tuple(ints[:-1]), 0), (1, 1)
    *a, b = [x // g for x in ints]
    h = gcd(g, den)
    return (tuple(a), b), (g // h, den // h)


def _primitive(coeffs, offset):
    """`_scaled` of the rational row (coeffs, offset)."""
    return _scaled(*linalg.int_row(tuple(coeffs) + (offset,)))


def _dot(u, v):
    return sum(map(mul, u, v))


@dataclass(frozen=True)
class LinearInequality:
    """normal·x <= offset, or normal·x < offset when strict."""

    normal: tuple
    offset: object
    strict: bool = False

    @staticmethod
    def make(normal, offset, strict=False):
        return LinearInequality(tuple(rat(c) for c in normal), rat(offset), bool(strict))


def _solve_constraints(eqs, ineqs):
    """Feasible point of {A x = b} ∧ {c·x <= / < d}, or None.

    eqs: list of (coeffs, rhs); ineqs: list of (coeffs, offset, strict);
    all integers, as `RationalPolyhedron.rows` holds them.  Exact, on the
    double description engine `_Cone`: every row is cut into the cone C of
    the (x, t) with t >= 0 and a·x <= b·t for each row, every strict row
    relaxed and each equality cut as two rows.  `_Cone.cut` keeps every
    generator primitive, so a row scaled by a positive factor gives the
    same generators and the same witness.  The closed relaxation Q is
    empty iff no generator of C has t > 0: a point x of Q gives (x, 1) in
    C, lineality vectors have t = 0, and a ray (x, t) with t > 0 gives the
    point x/t of Q.  So the cuts stop at the first row that leaves no such
    generator.  Otherwise the sum g of the rays has a positive weight on
    every generator, so it lies in the relative interior of C, and g/t in
    the relative interior of Q, the section of C at t = 1 (Rockafellar,
    Convex Analysis, 1970, 6.5).  A row tight at a relative-interior point
    of Q is tight on all of Q, so a strict row tight at g/t leaves the
    system empty; otherwise g/t is the witness.  It is checked against the
    caller's rows over its denominator t.
    """
    if eqs:
        nvars = len(eqs[0][0])
    elif ineqs:
        nvars = len(ineqs[0][0])
    else:
        return ()
    cuts = []
    for a, b in eqs:
        cuts += [(a, b), ([-x for x in a], -b)]
    cuts += [(a, b) for a, b, _ in ineqs]
    cone = _Cone(nvars)
    if _emptied_at(cone, cuts) is not None:
        return None
    *nums, den = map(sum, zip(*(g for g, _ in cone.rays)))
    for a, b in eqs:
        if _dot(a, nums) != b * den:
            raise AssertionError("feasibility witness %r/%d misses an equality" % (nums, den))
    for a, b, strict in ineqs:
        v = _dot(a, nums)
        if v > b * den:
            raise AssertionError("feasibility witness %r/%d violates a row" % (nums, den))
        if strict and v == b * den:
            return None
    return tuple(QQ(x, den) for x in nums)


# -- the face record ----------------------------------------------------------------

def _mean(points, rays=()):
    """mean(points) + sum(rays) as (nums, den) in lowest terms; each point
    is (nums, den) and each ray an integer vector."""
    den = lcm(*(d for _, d in points))
    total = [0] * len(points[0][0])
    for nums, d in points:
        f = den // d
        total = [t + f * x for t, x in zip(total, nums)]
    den *= len(points)
    for ray in rays:
        total = [t + den * x for t, x in zip(total, ray)]
    g = gcd(*total, den)
    return tuple(t // g for t in total), den // g


def _section(cons, base, den, d):
    """The parameters u for which (base + u·d)/den satisfies every a·x <= b
    in `cons`: (lo, hi), each a fraction (p, q) with q > 0 or None where
    unbounded.  None when no u qualifies."""
    lo = hi = None
    for a, b in cons:
        alpha = _dot(a, d)
        beta = b * den - _dot(a, base)
        if alpha > 0:
            if hi is None or beta * hi[1] < hi[0] * alpha:
                hi = (beta, alpha)
                if lo is not None and lo[0] * alpha > beta * lo[1]:
                    return None
        elif alpha < 0:
            if lo is None or beta * lo[1] < lo[0] * alpha:
                lo = (-beta, -alpha)
                if hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
                    return None
        elif beta < 0:
            return None
    return lo, hi


def _at(base, den, d, u):
    """The point (base + u·d)/den as (nums, den) in lowest terms."""
    p, q = u
    nums = [q * x + p * y for x, y in zip(base, d)]
    den *= q
    g = gcd(*nums, den)
    return tuple(x // g for x in nums), den // g


def _planes(rows, indices):
    """One row of `indices` per distinct hyperplane a·x = b, zero normals left out."""
    planes = {}
    for i in indices:
        a, b = rows[i]
        if any(a):
            key = (a, b) if next(x for x in a if x) > 0 else (tuple(-x for x in a), -b)
            planes.setdefault(key, (a, b))
    return list(planes.values())


class _Cone:
    """Double description of the cone {g = (x, t) in Q^(N+1) : h·g <= 0 for
    every row h cut so far, t >= 0}: an integer basis of its lineality space
    and its extreme rays modulo that space, each ray with the bit mask of
    the rows it makes tight (bit 0 is t >= 0, bit k the k-th row cut).
    Cut by the homogenised rows a·x <= b·t of a system, it builds face
    records, filters Voronoi bisectors and decides feasibility: the system
    has a point iff some generator has t > 0 (`_solve_constraints`).
    Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon, "Double
    description method revisited", 1996."""

    def __init__(self, n):
        self.lineality = [[int(i == j) for j in range(n + 1)] for i in range(n)]
        self.rays = [([0] * n + [1], 0)]
        self.rows = 1

    def cut(self, h):
        """A generator g with h·g > 0, after cutting the cone by h·g <= 0;
        or None, changing nothing, when every ray satisfies the row and
        every lineality vector is orthogonal to it.

        A lineality vector w with h·w > 0 splits the lineality space: -w
        becomes a ray, tight on every earlier row, and every other generator
        moves along w onto the hyperplane h = 0.  Otherwise the rays on the
        violating side go, and each adjacent pair of rays on opposite sides
        gives the ray where their common 2-face crosses the hyperplane."""
        bit = 1 << self.rows
        for k, w in enumerate(self.lineality):
            s = _dot(h, w)
            if s:
                if s < 0:
                    w, s = [-x for x in w], -s

                def onto(v):  # s·v moved along w onto h = 0
                    c = _dot(h, v)
                    return linalg.primitive_row([s * x - c * y for x, y in zip(v, w)])

                self.lineality = [onto(v) for v in self.lineality[:k] + self.lineality[k + 1:]]
                self.rays = [(onto(r), t | bit) for r, t in self.rays]
                self.rays.append(([-x for x in w], bit - 1))
                self.rows += 1
                return w
        values = [_dot(h, r) for r, _ in self.rays]
        plus = [k for k, v in enumerate(values) if v > 0]
        if not plus:
            return None
        witness = self.rays[plus[0]][0]
        masks = [t for _, t in self.rays]
        # Two extreme rays of the pointed part, of dimension d, are adjacent
        # iff no third ray is tight on every row tight on both; those rows
        # then have rank d - 2, so there are at least d - 2 of them.
        least = len(h) - len(self.lineality) - 2
        rays = [(r, t | bit if not v else t) for (r, t), v in zip(self.rays, values) if v <= 0]
        for p in plus:
            rp, vp = self.rays[p][0], values[p]
            for m, vm in enumerate(values):
                if vm >= 0:
                    continue
                common = masks[p] & masks[m]
                if common.bit_count() < least or any(
                        t & common == common for k, t in enumerate(masks) if k != p and k != m):
                    continue
                rays.append((linalg.primitive_row([vp * x - vm * y
                                                   for x, y in zip(self.rays[m][0], rp)]),
                             common | bit))
        self.rays = rays
        self.rows += 1
        return witness


def _emptied_at(cone, rows):
    """Cut `cone` by a·x <= b·t for the rows (a, b) in turn: the index of
    the first row after which no generator has t > 0, where the cuts stop,
    or None when none does."""
    for k, (a, b) in enumerate(rows):
        if cone.cut(list(a) + [-b]) is not None and not any(g[-1] for g, _ in cone.rays):
            return k
    return None


def _farkas(rows, n):
    """Multipliers λ, one integer per row (a, b) of a system a·x <= b in n
    unknowns, with λ >= 0, Σ λ_i a_i = 0 and Σ λ_i b_i < 0 where the search
    finds them, else None.  Only the caller's check makes them a proof.

    The additive method (Chinneck, Feasibility and Infeasibility in
    Optimization, 2008, 2.2) grows an irreducible infeasible subsystem S:
    a fresh cone is cut by S and then by the rows in order, up to the row
    added last, and the first row after which no point is left joins S.
    The rows before that row are feasible with S, and every row added
    later comes before it, so S without any one row is feasible: S is
    irreducible.  The normals of an irreducible infeasible system have a
    one-dimensional left kernel, spanned by a vector of one sign (Gleeson
    & Ryan, "Identifying minimally infeasible subsystems of inequalities",
    ORSA J. Comput., 1990); signed so that λ·b < 0, it is the Farkas
    vector.  Rows are indexed by position, since a system may repeat one.
    """
    subset, end = [], len(rows)
    while True:
        cone = _Cone(n)
        if _emptied_at(cone, [rows[k] for k in subset]) is not None:
            break
        end = _emptied_at(cone, rows[:end])
        if end is None:
            return None
        subset.append(end)
    kernel = linalg.annihilator(list(zip(*(rows[k][0] for k in subset))), len(subset))
    if len(kernel) != 1:
        return None
    mu = kernel[0]
    if _dot(mu, [rows[k][1] for k in subset]) > 0:
        mu = [-x for x in mu]
    lam = [0] * len(rows)
    for k, x in zip(subset, mu):
        lam[k] = x
    return lam


class FaceRecord:
    """Generators of the closed relaxation Q of an inequality system, and
    the rows each one makes tight.

    rows: (normal, offset) of every inequality as primitive integers; eq:
    the indices held as equalities.  lineality: an integer basis of the
    lineality space L.  points: ((nums, den), tight) for every vertex of Q
    modulo L, written as the point of that minimal face orthogonal to L,
    nums/den in lowest terms.  rays: (ray, tight) for every extreme ray,
    a primitive integer vector orthogonal to L.  Every face of Q is
    conv(its points) + cone(its rays) + L, so each face fact is a
    set operation on the tight sets.  dims caches face dimensions and
    closures the closures, both by tight set; the records of all faces of
    one polyhedron share them.
    """

    def __init__(self, ambient_dim, rows, eq, lineality, points, rays, dims=None,
                 closures=None):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.eq = frozenset(eq)
        self.lineality = lineality
        self.points = points
        self.rays = rays
        self.dims = {} if dims is None else dims
        self.closures = {} if closures is None else closures

    @staticmethod
    def build(ambient_dim, rows, eq):
        """Record of {a·x <= b for (a, b) in rows, with equality on eq}.

        One run of the double description engine `_Cone` on the homogenised
        system: the cone C of the (x, t) with t >= 0, v·x = 0 for each
        vector v of L's basis, a·x <= b·t for each row and a·x >= b·t for
        each row in eq.  C is pointed, since a line in C has t = 0 and a
        zero dot product with every normal, so it lies in L and in L⊥.  When
        Q is not empty, C is the closure of the cone over (Q ∩ L⊥) × {1}, so
        its extreme rays with t > 0 are the vertices of the pointed
        polyhedron Q ∩ L⊥, one for each minimal face of Q, and its extreme
        rays with t = 0 are the extreme rays of Q ∩ L⊥ (Schrijver, Theory
        of Linear and Integer Programming, 1986, 8.2 and 8.8).  The engine
        keeps each generator primitive, so (x, t) is the point x/t in
        lowest terms.  When Q is empty, no generator has t > 0 (it would
        give the point x/t of Q) and the rays are dropped.  The record is
        certified before it is returned.
        """
        n = ambient_dim
        lineality = tuple(linalg.int_solve([list(a) + [0] for a, _ in rows], n)[2])
        cone = _Cone(n)
        for v in lineality:
            cone.cut(list(v) + [0])
            cone.cut([-x for x in v] + [0])
        for a, b in FaceRecord._constraints(rows, eq):
            cone.cut(list(a) + [-b])
        points = sorted((tuple(g[:n]), g[n]) for g, _ in cone.rays if g[n])
        rays = sorted(tuple(g[:n]) for g, _ in cone.rays if not g[n]) if points else ()
        points = tuple((pt, frozenset(i for i, (a, b) in enumerate(rows)
                                      if _dot(a, pt[0]) == b * pt[1]))
                       for pt in points)
        rays = tuple((ray, frozenset(i for i, (a, _) in enumerate(rows) if not _dot(a, ray)))
                     for ray in rays)
        record = FaceRecord(n, rows, eq, lineality, points, rays)
        record.certify()
        return record

    @staticmethod
    def _constraints(rows, eq):
        """The rows as a·x <= b, each equality also as -a·x <= -b."""
        cons = list(rows)
        cons.extend((tuple(-x for x in rows[i][0]), -rows[i][1]) for i in eq)
        return cons

    def certify(self):
        """Check the record by exact integer arithmetic; AssertionError if not.

        Every generator satisfies every row (equalities with equality,
        lineality vectors at zero on every normal) and carries its exact
        tight set; every point has r independent tight rows and every ray
        r - 1.  Edge walk: from each point, each independent (r - 1)-subset
        of its tight rows spans, with L, a line through it; each feasible
        direction on it must end at a recorded point, or be a recorded ray
        where no row blocks it.  The graph of the pointed polyhedron Q ∩ L⊥
        is connected, so a non-empty point set closed under the walk holds
        every vertex, and every extreme ray is the direction of an
        unbounded edge.  A record without points (and without rays) is
        certified empty by a Farkas vector (`_farkas`), checked here by
        exact integer sums: λ >= 0, one entry per row a·x <= b with each
        equality also as -a·x <= -b, with Σ λ_i a_i = 0 and Σ λ_i b_i < 0.
        A point x of Q would give 0 = Σ λ_i a_i·x <= Σ λ_i b_i < 0, so no
        such vector exists unless Q is empty (Farkas' lemma; Schrijver,
        Theory of Linear and Integer Programming, 1986, 7.3).  The check
        alone carries the proof: a wrong search can only make it fail.
        """
        n, rows, lineality = self.ambient_dim, self.rows, self.lineality
        normals = [a for a, _ in rows]
        r = n - len(lineality)
        if linalg.int_rank(normals) != r or linalg.int_rank(lineality) != len(lineality):
            raise AssertionError("lineality basis has the wrong dimension")
        for v in lineality:
            if any(_dot(a, v) for a in normals):
                raise AssertionError("lineality vector %r is not orthogonal to every normal" % (v,))
        for (nums, den), tight in self.points:
            slack = [b * den - _dot(a, nums) for a, b in rows]
            if (den <= 0 or gcd(*nums, den) != 1 or any(_dot(v, nums) for v in lineality)
                    or min(slack, default=0) < 0 or any(slack[i] for i in self.eq)
                    or tight != frozenset(i for i, s in enumerate(slack) if not s)):
                raise AssertionError("record point %r/%d violates a row or has a wrong "
                                     "tight set" % (nums, den))
            if linalg.int_rank([normals[i] for i in tight]) != r:
                raise AssertionError("record point %r/%d is not a vertex" % (nums, den))
        for ray, tight in self.rays:
            dots = [_dot(a, ray) for a in normals]
            if (not any(ray) or gcd(*ray) != 1 or any(_dot(v, ray) for v in lineality)
                    or max(dots, default=0) > 0 or any(dots[i] for i in self.eq)
                    or tight != frozenset(i for i, s in enumerate(dots) if not s)):
                raise AssertionError("record ray %r violates a row or has a wrong tight set"
                                     % (ray,))
            if linalg.int_rank([normals[i] for i in tight]) != r - 1:
                raise AssertionError("record ray %r is not extreme" % (ray,))
        vertices = {pt for pt, _ in self.points}
        ray_set = {ray for ray, _ in self.rays}
        if len(vertices) != len(self.points) or len(ray_set) != len(self.rays):
            raise AssertionError("record lists a generator twice")
        cons = self._constraints(rows, self.eq)
        if not self.points:
            lam = None if self.rays else _farkas(cons, n)
            if (lam is None or len(lam) != len(cons) or min(lam) < 0
                    or any(_dot(lam, column) for column in zip(*(a for a, _ in cons)))
                    or _dot(lam, [b for _, b in cons]) >= 0):
                raise AssertionError("record has no vertex, but no Farkas vector shows "
                                     "its system empty")
            return
        if r == 0:
            return
        lin_rows = [list(v) + [0] for v in lineality]
        for (nums, den), tight in self.points:
            for subset in itertools.combinations(_planes(rows, sorted(tight)), r - 1):
                kernel = linalg.int_solve([list(a) + [0] for a, _ in subset] + lin_rows, n)[2]
                if len(kernel) != 1:
                    continue
                d = kernel[0]
                section = _section(cons, nums, den, d)
                for end, ray in zip(section, (tuple(-x for x in d), d)):
                    if end is None:
                        if ray not in ray_set:
                            raise AssertionError("edge walk from %r/%d: unbounded direction "
                                                 "%r is not a recorded ray" % (nums, den, ray))
                    elif end[0]:
                        far = _at(nums, den, d, end)
                        if far not in vertices:
                            raise AssertionError("edge walk from %r/%d ends at %r/%d, which is "
                                                 "not a recorded vertex" % ((nums, den) + far))

    def closure(self, tight):
        """Rows tight on the whole face where `tight` holds with equality:
        the intersection of the tight sets of its generators.  None when
        that face is empty (no point qualifies).

        Every generator is tight on eq, and a restricted record keeps the
        generators of the record it came from that are tight on its eq.
        So the answer depends on tight | eq alone, and the records that
        share `closures` agree on it."""
        if not self.eq <= tight:
            tight = tight | self.eq
        if tight in self.closures:
            return self.closures[tight]
        sets = [t for _, t in self.points if tight <= t]
        if sets:
            sets.extend(t for _, t in self.rays if tight <= t)
            closed = frozenset.intersection(*sets)
        else:
            closed = None
        self.closures[tight] = closed
        return closed

    def with_row(self, row):
        """The record of this system with one more row (a, b) appended,
        where a·x <= b holds on all of Q.

        Each generator is checked against the row exactly (points at or
        below it, rays not rising, lineality vectors orthogonal), so Q, its
        lineality space and its generators are unchanged; a generator's
        tight set gains the new index where the row is tight on it.
        AssertionError when a generator violates the row.
        """
        a, b = row
        k = len(self.rows)
        if any(_dot(a, v) for v in self.lineality):
            raise AssertionError("appended row is not constant on the lineality space")
        points = []
        for (nums, den), tight in self.points:
            slack = b * den - _dot(a, nums)
            if slack < 0:
                raise AssertionError("record point %r/%d violates the appended row"
                                     % (nums, den))
            points.append(((nums, den), tight if slack else tight | {k}))
        rays = []
        for ray, tight in self.rays:
            rise = _dot(a, ray)
            if rise > 0:
                raise AssertionError("record ray %r violates the appended row" % (ray,))
            rays.append((ray, tight if rise else tight | {k}))
        return FaceRecord(self.ambient_dim, tuple(self.rows) + (row,), self.eq, self.lineality,
                          tuple(points), tuple(rays))

    def relint(self):
        """mean(points) + sum(rays): a point of the relative interior of Q,
        since every generator has a positive weight in it."""
        return _mean([pt for pt, _ in self.points], [ray for ray, _ in self.rays])

    def restrict(self, tight):
        """The record of the face where `tight` holds with equality."""
        return FaceRecord(self.ambient_dim, self.rows, self.eq | tight, self.lineality,
                          tuple(g for g in self.points if tight <= g[1]),
                          tuple(g for g in self.rays if tight <= g[1]), self.dims,
                          self.closures)

    def dim(self, tight):
        """Dimension of a non-empty face, given its full tight set."""
        d = self.dims.get(tight)
        if d is None:
            d = self.dims[tight] = self.ambient_dim - linalg.int_rank(
                [self.rows[i][0] for i in tight])
        return d


@dataclass(frozen=True)
class AffineSubspace:
    """basepoint + span(directions); empty iff basepoint is None."""

    ambient_dim: int
    basepoint: object  # tuple or None
    directions: tuple  # linearly independent vectors

    @property
    def dim(self):
        return -1 if self.basepoint is None else len(self.directions)


class RationalPolyhedron:
    """Solution set of an inequality system; `tightened` indices are equalities.

    Row i is a·x <= b, or a·x < b when i is in `_strict`, with
    rows[i] = (a, b) primitive integers.  It was written as (p/q)·(a, b),
    scales[i] = (p, q) with p, q > 0.  A positive scale keeps the sign of
    every slack, so every exact question reads the rows alone; the scales
    carry the written rows to `format_poly`, `inequalities` and the cuts
    of `complexes.difference`.
    """

    def __init__(self, ambient_dim, inequalities, tightened=()):
        ineqs = [ineq if isinstance(ineq, LinearInequality) else LinearInequality.make(*ineq)
                 for ineq in inequalities]
        if any(len(ineq.normal) != int(ambient_dim) for ineq in ineqs):
            raise ValueError("inequality arity does not match ambient dimension")
        self._set(int(ambient_dim), [_primitive(ineq.normal, ineq.offset) for ineq in ineqs],
                  [i for i, ineq in enumerate(ineqs) if ineq.strict], tightened)

    @classmethod
    def _of_rows(cls, ambient_dim, written, strict=(), tightened=()):
        """The system of the rows (row, scale) of `written`."""
        poly = cls.__new__(cls)
        poly._set(ambient_dim, written, strict, tightened)
        return poly

    def _set(self, ambient_dim, written, strict, tightened):
        self.ambient_dim = ambient_dim
        written = tuple(written)
        self.rows = tuple(row for row, _ in written)
        self.scales = tuple(scale for _, scale in written)
        self._strict = frozenset(strict)
        self.tightened = frozenset(tightened)
        if self.tightened & self._strict:
            raise ValueError("cannot tighten a strict inequality")
        self._cache = {}

    @cached_property
    def inequalities(self):
        """The rows as written, as `LinearInequality` of QQ."""
        return tuple(LinearInequality(tuple(QQ(x * p, q) for x in a), QQ(b * p, q),
                                      i in self._strict)
                     for i, ((a, b), (p, q)) in enumerate(zip(self.rows, self.scales)))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_box(lo, hi):
        n, written = len(lo), []
        for i, (low, high) in enumerate(zip(map(rat, lo), map(rat, hi))):
            # x_i <= high and -x_i <= -low, each times the bound's denominator
            for sign, v in ((1, high), (-1, low)):
                a = tuple(sign * v.denominator * (k == i) for k in range(n))
                written.append(((a, sign * v.numerator), (1, v.denominator)))
        return RationalPolyhedron._of_rows(n, written)

    def with_tightened(self, extra):
        face = RationalPolyhedron._of_rows(self.ambient_dim, zip(self.rows, self.scales),
                                           self._strict, self.tightened | frozenset(extra))
        record = self._cache.get("record")
        if record is not None:
            face._cache["record"] = record.restrict(face.tightened)
        return face

    def with_valid_rows(self, cuts):
        """This system with the strict rows (row, scale) of `cuts` appended,
        each of which holds (relaxed to <=) on the whole closed relaxation.
        A record carries over, each row checked on every generator
        (FaceRecord.with_row)."""
        k = len(self.rows)
        poly = RationalPolyhedron._of_rows(
            self.ambient_dim, [*zip(self.rows, self.scales), *cuts],
            self._strict | set(range(k, k + len(cuts))), self.tightened)
        record = self._cache.get("record")
        if record is not None:
            for row, _ in cuts:
                record = record.with_row(row)
            poly._cache["record"] = record
        return poly

    def contains(self, point):
        """Whether the rational point satisfies every row, each compared as
        a·nums against b·den with the point written as nums/den, den > 0."""
        if len(point) != self.ambient_dim:
            raise ValueError("a point of dimension %d tested against a polyhedron of "
                             "dimension %d" % (len(point), self.ambient_dim))
        nums, den = linalg.int_row(point)
        for i, (a, b) in enumerate(self.rows):
            v, b = _dot(a, nums), b * den
            if v > b or (v == b and i in self._strict) or (v < b and i in self.tightened):
                return False
        return True

    # -- the face record ---------------------------------------------------------

    def _record(self):
        """The certified face record of the closed relaxation, built once."""
        if "record" not in self._cache:
            self._cache["record"] = FaceRecord.build(self.ambient_dim, self.rows,
                                                     self.tightened)
        return self._cache["record"]

    def relint_point(self, near=()):
        """A point of the relative interior as (nums, den), or None when
        the polyhedron is empty.  Without a record, the root tight set and
        the dimension are certified by a witness where one is found.

        Let E be the tightened rows and every non-strict row whose opposite
        is also a non-strict row, or which equals a tightened row: all of
        them hold with equality on P.  The guess x is the mean of `near`,
        or without it the particular solution of E.  If x satisfies E with
        equality and every other row strictly (one integer dot product per
        row, over x's common denominator), then x lies in P and no row
        outside E is tight at x, so no such row is an implicit equality.
        Hence x lies in the relative interior, E is P's tight set, and the
        affine hull is {E with equality}, of dimension N - rank E, the
        number of kernel vectors of E (the affine hull is cut out by the
        implicit equalities; Schrijver, Theory of Linear and Integer
        Programming, 1986, 8.1-8.2).  E is solved once; when it has no
        solution, P is empty and no guess is tried.

        When x fails and E leaves a line x0 + u·d, a second guess is taken
        on it: the other rows cut the line to a section lo <= u <= hi
        (`_section`, every row relaxed to <=), and the guess is its
        midpoint, one unit past its one finite end, or x0 when neither end
        is finite.  This is where the mean of the faces below misses a
        one-dimensional face: a half-line or an open ray over its one
        vertex, or an edge whose other end was cut off.  If P is a
        one-dimensional face with affine hull the line, its closure is the
        section with lo < hi, and a row outside E that is tight at a point
        strictly inside the section is tight on the whole line, an
        implicit equality; otherwise every such row is strict there, and
        the guess passes.  The guess goes through the same check as x, so
        nothing is certified on a weaker ground; an empty or degenerate
        (lo = hi) section or a face of higher dimension fails it or is
        never tried.  When every guess fails, the record is built and
        gives mean(points) + sum(rays).
        """
        if "relint" in self._cache:
            return self._cache["relint"]
        if "record" not in self._cache:
            rows = self.rows
            closed = {rows[i] for i in range(len(rows)) if i not in self._strict}
            fixed = {rows[i] for i in self.tightened}
            eq = frozenset(i for i, (a, b) in enumerate(rows) if i not in self._strict
                           and (rows[i] in fixed or (tuple(-x for x in a), -b) in closed))

            sol = linalg.int_solve([list(rows[i][0]) + [rows[i][1]] for i in eq], self.ambient_dim)
            if sol is not None:
                base, den, kernel = sol

                def guesses():
                    yield _mean(near) if near else (tuple(base), den)
                    section = len(kernel) == 1 and _section(
                        [rows[i] for i in range(len(rows)) if i not in eq], base, den, kernel[0])
                    if section:
                        lo, hi = section
                        if lo and hi:
                            u = (lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
                        elif lo:
                            u = (lo[0] + lo[1], lo[1])
                        elif hi:
                            u = (hi[0] - hi[1], hi[1])
                        else:
                            u = (0, 1)
                        yield _at(base, den, kernel[0], u)

                for guess in guesses():
                    if all((_dot(a, guess[0]) == b * guess[1]) if i in eq
                           else (_dot(a, guess[0]) < b * guess[1])
                           for i, (a, b) in enumerate(rows)):
                        self._cache.update(root=eq, dim=len(kernel), relint=guess)
                        return guess
        point = None if self._root() is None else self._record().relint()
        self._cache["relint"] = point
        return point

    def _root(self):
        """Tight set of the polyhedron itself, or None when it is empty.

        It is empty iff its closed relaxation Q is, or a strict row is tight
        on all of Q: otherwise the relative interior of Q satisfies every
        strict row and lies in the polyhedron.
        """
        if "root" not in self._cache:
            tight = self._record().closure(self.tightened)
            self._cache["root"] = None if tight is None or tight & self._strict else tight
        return self._cache["root"]

    # -- basic predicates ------------------------------------------------------

    def _solve(self, extra=()):
        """`_solve_constraints` on the integer rows: the tightened rows as
        equalities, then the other rows, each in index order, then the
        rows (a, b, strict) of `extra`."""
        rows = self.rows
        eqs = [rows[i] for i in sorted(self.tightened)]
        ineqs = [rows[i] + (i in self._strict,) for i in range(len(rows))
                 if i not in self.tightened]
        return _solve_constraints(eqs, ineqs + list(extra))

    def feasible_point(self):
        if "point" not in self._cache:
            if self.rows:
                self._cache["point"] = self._solve()
            else:
                self._cache["point"] = tuple([ZERO] * self.ambient_dim)
        return self._cache["point"]

    def is_empty(self):
        # a record is not built just for this: most emptiness tests are on
        # throwaway intersections, where one cone run, stopped at the first
        # row that empties it, is cheaper than a certified record
        if "root" in self._cache or "record" in self._cache:
            return self._root() is None
        return self.feasible_point() is None

    def _implicit(self):
        """Indices of the implicit equalities that are not tightened."""
        root = self._root()
        if root is None:
            raise ValueError("empty polyhedron has no relative interior")
        return root - self.tightened

    def affine_span(self):
        root = self._root()
        if root is None:
            return AffineSubspace(self.ambient_dim, None, ())
        rows = self.rows
        base, dirs = linalg.rational_solution([rows[i][0] + (rows[i][1],) for i in sorted(root)],
                                              self.ambient_dim)
        return AffineSubspace(self.ambient_dim, base, tuple(dirs))

    def dimension(self):
        if "dim" not in self._cache:
            root = self._root()
            self._cache["dim"] = -1 if root is None else self._record().dim(root)
        return self._cache["dim"]

    # -- faces ------------------------------------------------------------------

    def tight_closure(self, extra=()):
        """Canonical tight index set of the face with `extra` tightened, or None."""
        tight = self.tightened | frozenset(extra)
        if tight & self._strict:
            raise ValueError("cannot tighten a strict inequality")
        closure = self._record().closure(tight)
        return None if closure is None or closure & self._strict else closure

    def enumerate_faces(self):
        """All non-empty faces (tightenings of non-strict inequalities), P first.

        Breadth first from P, each face's children in row order.  A face's
        tightened set is its whole tight set, and it shares this
        polyhedron's integer rows and carries its part of this
        polyhedron's record, with the closures the walk has computed.
        """
        if "faces" in self._cache:
            return self._cache["faces"]
        root = self._root()
        if root is None:
            raise ValueError("cannot enumerate faces of an empty polyhedron")
        rows = [i for i in range(len(self.rows)) if i not in self._strict]
        records = {root: self._record().restrict(root)}
        order = [root]
        queue = deque(order)
        while queue:
            tight = queue.popleft()
            for i in rows:
                if i in tight:
                    continue
                child = records[tight].closure(tight | {i})
                if child is None or child & self._strict or child in records:
                    continue
                records[child] = records[tight].restrict(child)
                order.append(child)
                queue.append(child)
        faces = []
        for tight in order:
            face = RationalPolyhedron._of_rows(self.ambient_dim, zip(self.rows, self.scales),
                                               self._strict, tight)
            face._cache.update(record=records[tight], root=tight)
            faces.append(face)
        self._cache["faces"] = faces
        return faces

    # -- combination / comparison ------------------------------------------------

    def intersect(self, other):
        """The system of both; a row of `other` is dropped where it repeats
        an untightened row, as the same primitive (a, b, strict), or is
        trivially true (a zero normal with 0 <= b, or 0 < b when strict).
        Tightened rows of `other` are always kept."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        seen = {row + (i in self._strict,) for i, row in enumerate(self.rows)
                if i not in self.tightened}
        keep = []  # the rows of other that are appended
        for j, (a, b) in enumerate(other.rows):
            key = (a, b, j in other._strict)
            if j not in other.tightened:
                if key in seen or (not any(a) and (b > 0 or (b == 0 and not key[2]))):
                    continue  # a repeat, or trivially true
                seen.add(key)
            keep.append(j)
        k = len(self.rows)
        return RationalPolyhedron._of_rows(
            self.ambient_dim,
            [*zip(self.rows, self.scales), *((other.rows[j], other.scales[j]) for j in keep)],
            self._strict | {k + t for t, j in enumerate(keep) if j in other._strict},
            self.tightened | {k + t for t, j in enumerate(keep) if j in other.tightened})

    def _entails_row(self, a, b, strict):
        """True iff every point satisfies a·x <= b (a·x < b when strict),
        for integer a and b.

        A non-strict row on a polyhedron that has a record is checked on
        every generator; otherwise the system with the row's negation must
        have no point (`_solve_constraints`).
        """
        record = self._cache.get("record")
        if record is not None and not strict:
            if self._root() is None:
                return True
            return (all(_dot(a, nums) <= b * den for (nums, den), _ in record.points)
                    and all(_dot(a, ray) <= 0 for ray, _ in record.rays)
                    and not any(_dot(a, v) for v in record.lineality))
        return self._solve([(tuple(-x for x in a), -b, not strict)]) is None

    def entails(self, constraint):
        """True iff every point of self satisfies the constraint."""
        (a, b), _ = _primitive(constraint.normal, constraint.offset)
        return self._entails_row(a, b, constraint.strict)

    def same_solution_set(self, other):
        """Mutual entailment; exact for mixed strict/non-strict systems."""
        a_empty, b_empty = self.is_empty(), other.is_empty()
        if a_empty or b_empty:
            return a_empty and b_empty

        def entails_all(p, q):  # every row of q, a tightened row also reversed
            return all(p._entails_row(a, b, i in q._strict) and (
                i not in q.tightened or p._entails_row(tuple(-x for x in a), -b, False))
                for i, (a, b) in enumerate(q.rows))

        return entails_all(self, other) and entails_all(other, self)

    def is_closed_system(self):
        return not self._strict

    def canonical_key(self):
        """Hashable key identifying the solution set (closed systems only).

        (N, equalities, facets), all in integers.  The equalities are the
        canonical rows (`linalg.int_row_space`) of the root tight rows.
        The facets map normal to offset: each facet row reduced modulo the
        equalities (row <- q·row - f·e with q > 0 for each canonical row e,
        clearing e's pivot column) and made primitive.  A row i outside the
        root is a facet row iff closure(root ∪ {i}) is a face and no other
        such closure is a proper subset of it: tight sets reverse
        inclusion, every proper face lies in a facet, and a facet is
        closure(root ∪ {j}) for each row j tight on it and not on the whole
        face.  These are the closures `enumerate_faces` computes.

        Dividing each canonical row by its pivot gives the RREF of the
        equalities, and each reduced row is a positive multiple of the row
        reduced modulo that RREF, so this key and the key of RREF rows and
        facets determine each other.  The facets modulo the affine hull
        are unique up to positive scaling (Schrijver, Theory of Linear and
        Integer Programming, 1986, 8.1-8.2), so keys are equal iff solution
        sets are.  The key also gives the dimension, N minus the number of
        canonical rows, which `dimension()` then reads without a rank.
        """
        if "key" in self._cache:
            return self._cache["key"]
        if not self.is_closed_system():
            raise ValueError("canonical keys are defined for closed systems only")
        root = self._root()
        if root is None:
            key = (self.ambient_dim, "empty")
            self._cache["key"] = key
            return key
        rows = self.rows
        eq_rows, pivots = linalg.int_row_space([rows[i][0] + (rows[i][1],) for i in sorted(root)])
        record = self._record()
        child = {i: record.closure(root | {i}) for i in range(len(rows)) if i not in root}
        proper = set(child.values()) - {None}
        facets = {}
        for i, tight in child.items():
            if tight is not None and not any(t < tight for t in proper):
                a, b = rows[i]
                row = a + (b,)
                for e, p in zip(eq_rows, pivots):
                    f = row[p]
                    if f:
                        g = gcd(e[p], f)
                        q, f = e[p] // g, f // g
                        row = [q * x - f * y for x, y in zip(row, e)]
                *n, b = linalg.primitive_row(row)
                facets[tuple(n)] = b
        key = (self.ambient_dim, tuple(eq_rows), frozenset(facets.items()))
        self._cache["key"] = key
        # the root rows hold on the face, so their augmented rank, the
        # number of canonical rows, is their normals' rank (Rouche-Capelli)
        self._cache["dim"] = self.ambient_dim - len(eq_rows)
        return key

    # -- vertices / boundedness / volume -----------------------------------------

    def _vertex_map(self):
        """{tight set: vertex} for the vertices of the polyhedron itself."""
        record = self._record()
        if record.lineality:
            return {}
        return {tight: tuple(QQ(x, den) for x in nums)
                for (nums, den), tight in record.points if not tight & self._strict}

    def vertices(self):
        """Vertex points (0-dimensional faces); internal helper."""
        if self._root() is None:
            raise ValueError("cannot enumerate faces of an empty polyhedron")
        return sorted(self._vertex_map().values())

    def is_bounded(self):
        if self._root() is None:
            return True
        record = self._record()
        return not record.rays and not record.lineality

    def triangulate(self):
        """Fan triangulation of a bounded polytope via its face lattice.

        Returns a list of simplices, each a tuple of vertex points with
        dim(P)+1 affinely independent entries.
        """
        if not self.is_closed_system():
            raise ValueError("triangulation requires a closed system")
        if self._root() is None:
            return []
        if not self.is_bounded():
            raise ValueError("triangulation requires a bounded polyhedron")
        info = [(f.tightened, f.dimension()) for f in self.enumerate_faces()]
        vert_of = self._vertex_map()

        def verts_in(tight):
            return sorted(p for t, p in vert_of.items() if t >= tight)

        def tri(tight, d):
            if d == 0:
                return [(vert_of[tight],)]
            v0 = verts_in(tight)[0]
            out = []
            for t2, d2 in info:
                if d2 == d - 1 and t2 > tight and v0 not in verts_in(t2):
                    for s in tri(t2, d2):
                        out.append(s + (v0,))
            return out

        root, d = info[0]
        return tri(root, d)


def simplex_volume(points):
    """Volume of the simplex on d+1 points in Q^d."""
    base = points[0]
    rows = [tuple(p[i] - base[i] for i in range(len(base))) for p in points[1:]]
    return abs(linalg.det(rows)) / factorial(len(rows))


def polytope_volume(poly):
    """Exact volume of a bounded polytope given by a closed system (0 unless
    it is full-dimensional)."""
    if not poly.is_closed_system():
        raise ValueError("volume requires a closed system")
    if poly.dimension() != poly.ambient_dim:  # -1 when empty
        return ZERO
    return sum((simplex_volume(s) for s in poly.triangulate()), ZERO)


def convex_hull_inequalities(points):
    """H-representation of the hull of a full-dimensional point set in Q^d."""
    d = len(points[0])
    flat, den = linalg.int_row([rat(c) for p in points for c in p])
    pts = [flat[i:i + d] for i in range(0, len(flat), d)]  # the points times den
    seen = {}
    for base, *rest in itertools.combinations(pts, d):
        kernel = linalg.int_solve([[x - y for x, y in zip(p, base)] + [0] for p in rest], d)[2]
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        if next(x for x in reversed(normal) if x) < 0:
            normal = [-x for x in normal]
        offset = _dot(normal, base)
        values = [_dot(normal, p) for p in pts]
        if max(values) > offset:
            if min(values) < offset:
                continue
            normal, offset = [-x for x in normal], -offset
        (n, b), _ = _scaled([den * x for x in normal] + [offset], 1)  # normal·(den·x) <= offset
        if n not in seen or b < seen[n]:
            seen[n] = b
    return RationalPolyhedron._of_rows(d, [(row, (1, 1)) for row in sorted(seen.items())])


# -- POLY/1 text format ----------------------------------------------------------

def _row_text(row, scale, rel):
    """The written row (p/q)·(a, b) as POLY/1 writes it: 'a_1 ... a_N rel b'."""
    (a, b), (p, q) = row, scale
    return "%s %s %s" % (" ".join(ratio_str(x * p, q) for x in a), rel, ratio_str(b * p, q))


def format_poly(poly):
    """Serialize to POLY/1; tightened rows are written as inequality pairs."""
    rows = []
    for i, ((a, b), scale) in enumerate(zip(poly.rows, poly.scales)):
        rows.append(_row_text((a, b), scale, "<" if i in poly._strict else "<="))
        if i in poly.tightened:
            rows.append(_row_text((tuple(-x for x in a), -b), scale, "<="))
    out = ["%d %d" % (poly.ambient_dim, len(rows))]
    out.extend(rows)
    return "\n".join(out) + "\n"


def parse_poly(text):
    """Read POLY/1.  Each row's tokens are read as integer ratios by
    `rationals.ratio`, so they are accepted and rejected as `rat` accepts
    and rejects them, and the row is stored by `_scaled` over the lcm of
    their denominators."""
    return _poly_of_lines(numbered_lines(text))


def _poly_of_lines(lines):
    """The polyhedron of POLY/1 lines, given as `numbered_lines` gives
    them, so that an error names the line of the file they came from."""
    if not lines:
        raise ValueError("POLY/1: empty input")
    (lineno, header), rows = lines[0], lines[1:]
    try:
        n, m = map(int, header.split())
    except ValueError:
        raise ValueError("POLY/1: header must be 'N m' (line %d)" % lineno) from None
    if n < 0:
        raise ValueError("POLY/1: the dimension N must be non-negative (line %d)" % lineno)
    if m < 0:
        raise ValueError("POLY/1: the row count m must be non-negative (line %d)" % lineno)
    if len(rows) != m:
        raise ValueError("POLY/1: expected %d constraint rows, got %d" % (m, len(rows)))
    written, strict = [], []
    for lineno, ln in rows:
        parts = ln.split()
        if len(parts) != n + 2:
            raise ValueError("POLY/1: bad row arity (line %d)" % lineno)
        rel = parts[n]
        if rel not in ("<=", "<"):
            raise ValueError("POLY/1: relation must be <= or < (line %d)" % lineno)
        try:
            fracs = [ratio(token) for token in parts[:n] + parts[n + 1:]]
        except ValueError as e:
            raise ValueError("POLY/1: %s (line %d)" % (e, lineno)) from None
        den = lcm(*(q for _, q in fracs))
        if rel == "<":
            strict.append(len(written))
        written.append(_scaled([p * (den // q) for p, q in fracs], den))
    return RationalPolyhedron._of_rows(n, written, strict)
