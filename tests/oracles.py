"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written against fractions.Fraction and
naive algorithms, sharing no code with the package under test.  The
exceptions are algorithms the package replaced, kept as they ran there so
that a differential test can hold the replacement to them: the parasite
lattice and scan and the face-poset derivations (covers, maximal removed
faces, linear extensions) take the package's subspaces and complexes, and
`int_meet_rref` runs the integer kernel's own steps.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, gcd


def feasible(eqs, ineqs, dim):
    """Exact satisfiability of a mixed linear system by naive variable
    elimination.  eqs: (coeffs, rhs) meaning coeffs·x = rhs.  ineqs:
    (coeffs, rhs, strict) meaning coeffs·x <= rhs (or < rhs)."""
    eqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in eqs]
    ineqs = [([Fraction(c) for c in a], Fraction(b), s) for a, b, s in ineqs]

    # substitute equalities away first
    while eqs:
        coeffs, rhs = eqs.pop()
        j = next((t for t, c in enumerate(coeffs) if c != 0), None)
        if j is None:
            if rhs != 0:
                return False
            continue
        pivot = coeffs[j]

        def subst(row, b):
            f = row[j] / pivot
            return ([c - f * d for c, d in zip(row, coeffs)], b - f * rhs)

        eqs = [subst(a, b) for a, b in eqs]
        ineqs = [subst(a, b) + (s,) for a, b, s in ineqs]

    for j in range(dim):
        pos = [(a, b, s) for a, b, s in ineqs if a[j] > 0]
        neg = [(a, b, s) for a, b, s in ineqs if a[j] < 0]
        rest = [(a, b, s) for a, b, s in ineqs if a[j] == 0]
        for (ap, bp, sp), (an, bn, sn) in itertools.product(pos, neg):
            lam, mu = -an[j], ap[j]
            row = [lam * c + mu * d for c, d in zip(ap, an)]
            rest.append((row, lam * bp + mu * bn, sp or sn))
        ineqs = rest
    for a, b, s in ineqs:
        if any(c != 0 for c in a):
            raise AssertionError("elimination left variables behind")
        if b < 0 or (s and b == 0):
            return False
    return True


def cell_inequalities(sites, i):
    """(kept, dropped): the bisectors (normal, offset) of site i against
    every other site, nearest sites first, each dropped when the rows kept
    before it entail it, decided by Fourier-Motzkin: the filter of the
    Voronoi cells before it kept a cone of generators."""
    sites = [[Fraction(c) for c in p] for p in sites]
    y = sites[i]

    def sq(p):
        return sum(c * c for c in p)

    others = sorted((j for j in range(len(sites)) if j != i),
                    key=lambda j: (sq([a - b for a, b in zip(sites[j], y)]), j))
    kept, dropped = [], []
    for j in others:
        normal = tuple(2 * (b - a) for a, b in zip(y, sites[j]))
        offset = sq(sites[j]) - sq(y)
        # entailed iff the kept rows and the strict negation have no point
        probe = [(a, b, False) for a, b in kept] + [([-c for c in normal], -offset, True)]
        (kept if feasible([], probe, len(y)) else dropped).append((normal, offset))
    return kept, dropped


def snf_invariant_factors(M):
    """Invariant factors via gcds of k x k minors.  Exponential; fine for
    the small matrices it is used on."""
    M = [list(map(int, row)) for row in M]
    m = len(M)
    n = len(M[0]) if M else 0

    def minors_gcd(k):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = gcd(g, _int_det(sub))
                if g == 1:
                    return 1
        return g

    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = minors_gcd(k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _int_det(M):
    """Bareiss fraction-free elimination; all divisions are exact."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rational_rank(rows):
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for j in range(cols):
        p = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][j]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                f = rows[i][j] / pivot
                rows[i] = [c - f * d for c, d in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def rational_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination with rational
    pivots.  Returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rational_solve(rows, rhs):
    """One solution of A x = b, its free variables 0, read off the RREF of
    the augmented rows; None if inconsistent or there are no rows."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rational_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the rhs column: inconsistent
        x[p] = row[ncols]
    return tuple(x)


def rational_nullspace(rows):
    """The RREF basis of {x : A x = 0}: one vector per free column, 1
    there, minus that column's RREF entries at the pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rational_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def rational_affine_span(n, rows, rhs):
    """(basepoint, directions) of {x : A x = b} for consistent rows: the
    solution with free variables 0 and the RREF kernel basis; without rows,
    the origin and the unit vectors."""
    if not rows:
        return (tuple([Fraction(0)] * n),
                tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))
    return rational_solve(rows, rhs), tuple(rational_nullspace(rows))


def _row_key(normal, offset, strict):
    """A row scaled by a positive rational to coprime integers (a zero row
    as it is), with its strictness."""
    v = [Fraction(x) for x in normal] + [Fraction(offset)]
    return (_primitive_ints(v) if any(v) else tuple(v)) + (strict,)


def intersect_rows(rows_a, tight_a, rows_b, tight_b):
    """(rows, tightened) of the intersection of two systems of rows
    (normal, offset, strict): all rows of the first, then each row of the
    second unless it is untightened and trivially true (zero normal,
    0 <= offset, or 0 < offset when strict) or repeats, up to a positive
    scaling, an untightened row kept before it."""
    rows, tight = list(rows_a), set(tight_a)
    seen = {_row_key(*q) for i, q in enumerate(rows_a) if i not in tight_a}
    for j, (normal, offset, strict) in enumerate(rows_b):
        key = _row_key(normal, offset, strict)
        if j in tight_b:
            tight.add(len(rows))
        elif all(x == 0 for x in normal) and (offset > 0 or (offset == 0 and not strict)):
            continue
        elif key in seen:
            continue
        else:
            seen.add(key)
        rows.append((normal, offset, strict))
    return rows, tight


def cut_inequality(dim, rows, tightened, face_eqs, face_ineqs):
    """(tight, normal, offset): the rows (normal, offset, strict) of a
    polyhedron, neither tightened nor strict, that hold with equality on
    all of a face, and their sum.  The face is the system (face_eqs,
    face_ineqs) of `feasible`; it entails normal·x = offset iff it has no
    point with normal·x > offset and none with normal·x < offset."""
    tight = []
    for i, (normal, offset, strict) in enumerate(rows):
        if i in tightened or strict:
            continue
        above = face_ineqs + [([-c for c in normal], -offset, True)]
        below = face_ineqs + [(list(normal), offset, True)]
        if not feasible(face_eqs, above, dim) and not feasible(face_eqs, below, dim):
            tight.append(i)
    normal = tuple(sum((Fraction(rows[i][0][j]) for i in tight), Fraction(0))
                   for j in range(dim))
    return tight, normal, sum((Fraction(rows[i][1]) for i in tight), Fraction(0))


def rational_det(rows):
    """Determinant by Gaussian elimination with rational pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def open_simplices_meet(pts_a, pts_b):
    """Do the relative interiors of two simplices meet?  One system in the
    barycentric coordinates of both: each set sums to 1, all are positive,
    and the two combinations are the same point."""
    na, nb = len(pts_a), len(pts_b)
    eqs = [([1] * na + [0] * nb, 1), ([0] * na + [1] * nb, 1)]
    for k in range(len(pts_a[0])):
        eqs.append(([p[k] for p in pts_a] + [-q[k] for q in pts_b], 0))
    ineqs = [([-1 if j == v else 0 for j in range(na + nb)], 0, True)
             for v in range(na + nb)]
    return feasible(eqs, ineqs, na + nb)


def pairwise_triangulation(points, tops, hull_volume):
    """The Delaunay certificate checked pair by pair: every top (a tuple of
    d + 1 keys of `points`) has positive volume, the relative interiors of
    any two distinct faces of the tops are disjoint, and the volumes add up
    to hull_volume."""
    total = Fraction(0)
    for t in tops:
        base = points[t[0]]
        v = abs(rational_det([[Fraction(a) - b for a, b in zip(points[i], base)]
                              for i in t[1:]])) / factorial(len(t) - 1)
        if v == 0:
            return False
        total += v
    faces = sorted({f for t in tops for k in range(1, len(t) + 1)
                    for f in itertools.combinations(sorted(t), k)})
    for f, g in itertools.combinations(faces, 2):
        if open_simplices_meet([points[i] for i in f], [points[i] for i in g]):
            return False
    return total == hull_volume


def betti_numbers(maximal_simplices):
    """Rational Betti numbers from scratch: closure, ordered boundary
    matrices, Gaussian ranks."""
    simplices = set()
    for s in maximal_simplices:
        s = tuple(sorted(set(s), key=repr))
        for r in range(1, len(s) + 1):
            simplices.update(itertools.combinations(s, r))
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for k in by_dim:
        by_dim[k].sort(key=repr)
    top = max(by_dim) if by_dim else -1
    ranks = {}
    for k in range(1, top + 1):
        index = {s: i for i, s in enumerate(by_dim[k - 1])}
        rows = []
        for s in by_dim[k]:
            col = [Fraction(0)] * len(by_dim[k - 1])
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                col[index[face]] = Fraction((-1) ** drop)
            rows.append(col)
        # rows of this matrix are the boundary columns; rank is the same
        ranks[k] = rational_rank(rows) if rows else 0
    betti = []
    for k in range(top + 1):
        betti.append(len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return betti


def circumcenter_2d(p, q, r):
    """Center and squared radius of the circle through three points."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    r = [Fraction(c) for c in r]
    ax, ay = q[0] - p[0], q[1] - p[1]
    bx, by = r[0] - p[0], r[1] - p[1]
    d = 2 * (ax * by - ay * bx)
    if d == 0:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    ux = (by * a2 - ay * b2) / d
    uy = (ax * b2 - bx * a2) / d
    return (p[0] + ux, p[1] + uy), ux * ux + uy * uy


def rational_in_row_space(rows, v):
    """Membership by reducing the rows and comparing ranks with v added."""
    base, _ = rational_rref(rows)
    return rational_rank(list(base) + [list(v)]) == len(base)


def rational_intersect_row_spaces(a_rows, b_rows):
    """RREF basis of rowspace(A) ∩ rowspace(B) from the kernel of
    [A^T | -B^T]: every kernel vector (y, z) gives y A = z B."""
    a, _ = rational_rref(a_rows)
    b, _ = rational_rref(b_rows)
    if not a or not b:
        return []
    ncols = len(a[0])
    stacked = [[row[c] for row in a] + [-row[c] for row in b] for c in range(ncols)]
    red, pivots = rational_rref(stacked)
    vectors = []
    for free in range(len(a) + len(b)):
        if free in pivots:
            continue
        combo = [Fraction(0)] * (len(a) + len(b))
        combo[free] = Fraction(1)
        for r, p in enumerate(pivots):
            combo[p] = -red[r][free]
        v = [sum((y * row[c] for y, row in zip(combo, a)), Fraction(0)) for c in range(ncols)]
        if any(v):
            vectors.append(v)
    return rational_rref(vectors)[0]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def int_meet_rref(ann, ncols):
    """`polycx.linalg.int_meet` as it ran before one reduction replaced
    three: reduce the stacked annihilator `ann`, take one kernel vector per
    free column, and reduce those again to canonical rows.  Returns
    (canonical rows, pivot columns, `ann` reduced without its zero rows)."""
    from polycx import linalg
    m = [list(row) for row in ann]
    pivots = linalg.int_rref(m)
    return (*linalg.int_row_space(linalg.int_kernel(m, pivots, ncols)), m[:len(pivots)])


def intersection_lattice(subspaces):
    """Closure of a set of subspaces under pairwise intersection, built from
    scratch as the parasite layer built it for each face before it grew the
    lattice along the face poset.  Each element meets every earlier one
    once; new ones join the end."""
    seen = set(subspaces)
    lattice = list(seen)
    for j, t in enumerate(lattice):
        for s in lattice[:j]:
            inter = s.intersect(t)
            if inter is not None and inter not in seen:
                seen.add(inter)
                lattice.append(inter)
    return seen


def lattices_by_popcount(C, span):
    """`polycx.projective._lattices` as it ran before it read the complex's
    covers and Kahn order: faces visited by down-set size, and each face's
    covers found again as the faces below it under no other face below
    it.  Returns the list L(c) at each face position."""
    down = C._down
    order = sorted(range(len(down)), key=lambda k: down[k].bit_count())
    lattices = [None] * len(down)
    for c in order:
        below = [b for b in range(len(down)) if down[c] >> b & 1]
        under = 0
        for b in below:
            under |= down[b]
        seen = {}
        for i, b in enumerate(b for b in below if not under >> b & 1):
            for s in (*lattices[b], span[b]):
                seen[s] = seen.get(s, 0) | 1 << i
        lattice = list(seen)
        for j, t in enumerate(lattice):
            for s in lattice[:j]:
                if not seen[s] & seen[t]:
                    inter = s.intersect(t)
                    if inter is not None and inter not in seen:
                        seen[inter] = 0
                        lattice.append(inter)
        lattices[c] = lattice
    return lattices


def covers_by_leq(C):
    """Face id -> the faces b < c with no face strictly between them, in
    ascending id order, read off `leq` alone."""
    ids = C.ids()
    out = {}
    for c in ids:
        below = [b for b in ids if b != c and C.leq(b, c)]
        out[c] = [b for b in below if not any(d != b and C.leq(b, d) for d in below)]
    return out


def is_linear_extension(C, order):
    """Whether the face positions `order` list every face once, each after
    every face below it."""
    ids = C.ids()
    if sorted(order) != list(range(len(ids))):
        return False
    place = {ids[k]: n for n, k in enumerate(order)}
    return all(place[a] < place[b] for a, b in C.incidences())


def is_downward_closed(C, removed):
    """Whether every face below a face of `removed` is in it."""
    return all(set(C.faces_below(i)) <= set(removed) for i in removed)


def maximal_removed(C, removed, c):
    """The faces of `removed` below c that lie below no other of them, by
    the quadratic `leq` scan `difference` ran before it read them off the
    down-set bitsets, in the iteration order of `below_of(c)`."""
    below = [b for b in C.below_of(c) if b in removed]
    return [b for b in below if not any(b != b2 and C.leq(b, b2) for b2 in below)]


def parasite_scan(C, spans):
    """(ambient, tuple_ids, subspace) of every parasitic intersection, by the
    per-face scan the parasite layer ran before it read U and the realized
    test off the poset's bitsets: U holds the faces below c whose span
    contains S, and S is realized iff some b0 in U with span S lies below
    every member of U."""
    out = []
    for c in C.ids():
        below = C.faces_below(c)
        if not below:
            continue
        for S in sorted(intersection_lattice({spans[b] for b in below}),
                        key=lambda s: s.sort_token()):
            U = [b for b in below if spans[b].contains(S)]
            if not any(spans[b0] == S and all(C.leq(b0, u) for u in U) for b0 in U):
                out.append((c, tuple(U), S))
    return out


def zassenhaus_intersect(a_rows, b_rows):
    """RREF basis of rowspace(A) ∩ rowspace(B) by Zassenhaus, the meet the
    parasite layer used before it stacked annihilators.  The rows of
    [[A, A], [B, 0]] span {(a + b, a)}; its vectors with a zero left half
    are exactly {(0, a) : a ∈ A ∩ B}, and in the RREF of the block matrix
    they are spanned by the rows whose pivot lies in the right half."""
    if not a_rows:
        return []
    n = len(a_rows[0])
    block = [list(a) * 2 for a in a_rows] + [list(b) + [0] * n for b in b_rows]
    red, pivots = rational_rref(block)
    return rational_rref([row[n:] for row, c in zip(red, pivots) if c >= n])[0]


class RationalSubspace:
    """The Fraction form of `polycx.ProjectiveSubspace`: a subspace of P^N
    held as the RREF basis of its homogeneous span in Q^{N+1}, with
    containment by rank and intersection from the kernel of [A^T | -B^T].
    It offers what the parasite pipeline asks of a subspace, so the
    pipeline can run on it in place of the integer form."""

    def __init__(self, ambient_dim, generators):
        self.ambient_dim = int(ambient_dim)
        rows = [tuple(Fraction(c) for c in g) for g in generators]
        if any(len(g) != self.ambient_dim + 1 for g in rows):
            raise ValueError("generator arity must be ambient_dim + 1")
        basis, _ = rational_rref(rows)
        if not basis:
            raise ValueError("empty projective subspace")
        self.generators = tuple(basis)

    @property
    def dim(self):
        return len(self.generators) - 1

    def __eq__(self, other):
        return (isinstance(other, RationalSubspace)
                and self.ambient_dim == other.ambient_dim
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient_dim, self.generators))

    def contains(self, other):
        return all(rational_in_row_space(self.generators, g) for g in other.generators)

    def intersect(self, other):
        rows = rational_intersect_row_spaces(self.generators, other.generators)
        return RationalSubspace(self.ambient_dim, rows) if rows else None

    def row_strings(self):
        return tuple(tuple(str(c) for c in g) for g in self.generators)

    def sort_token(self):
        return (self.dim, self.row_strings())

    @staticmethod
    def from_affine(span):
        gens = [tuple(span.basepoint) + (1,)] + [tuple(d) + (0,) for d in span.directions]
        return RationalSubspace(span.ambient_dim, gens)

    @classmethod
    def of_polyhedron(cls, P):
        """The span the parasite layer built before it read the tight rows
        as an annihilator, `from_affine(P.affine_span())`: one Fraction
        solve of P's tight rows a·x = b, the base point (x, 1), and the
        nullspace directions (d, 0)."""
        aug = [list(P.inequalities[i].normal) + [P.inequalities[i].offset]
               for i in sorted(P._root())]
        point, kernel = _solve_affine(aug, P.ambient_dim)
        return cls(P.ambient_dim, [point + [1]] + [list(v) + [0] for v in kernel])


def simple_configuration(sites):
    """(flag, witness) of the genericity test on Fraction sites.

    Every subset of 3..N+1 sites must have an equidistance system
    2(y_j - y_0)·x = |y_j|^2 - |y_0|^2 of full rank (first failure in
    combination order); then two (N+1)-subsets with the same circumcenter
    and radius give the sorted first N+2 sites of their union.
    """
    pts = [[Fraction(c) for c in p] for p in sites]
    N, k = len(pts[0]), len(pts)

    def system(W):
        base = pts[W[0]]
        return [[2 * (b - a) for a, b in zip(base, pts[j])]
                + [sum(b * b for b in pts[j]) - sum(a * a for a in base)]
                for j in W[1:]]

    for size in range(3, min(k, N + 1) + 1):
        for W in itertools.combinations(range(k), size):
            if rational_rank([row[:N] for row in system(W)]) != size - 1:
                return False, W
    spheres = {}
    for W in itertools.combinations(range(k), N + 1) if k >= N + 2 else ():
        red, _ = rational_rref(system(W))
        center = tuple(row[N] for row in red)
        radius2 = sum((c - a) ** 2 for c, a in zip(center, pts[W[0]]))
        other = spheres.get((center, radius2))
        if other is not None:
            return False, tuple(sorted(set(other) | set(W))[:N + 2])
        spheres[(center, radius2)] = W
    return True, None


def circumsphere_sweep(sites):
    """(flag, witness, spheres): the genericity sweep as `voronoi._circumspheres`
    ran it before it keyed the lifted hyperplanes, by one elimination of
    each (N+1)-subset's equidistance system.

    The sites are scaled to integer points z by the lcm of their
    denominators.  Subsets of 3..N sites must have full-rank differences,
    then each (N+1)-subset W in combination order must have a unique
    circumcenter c = nums / den (lowest terms), the first failure being the
    witness.  spheres maps the key (den, *nums, den²r²) of each subset
    swept to it, up to the first collision, which maps to the later subset
    and makes the witness the sorted first N+2 sites of the pair's union;
    a rank failure after it still wins.
    """
    pts = [[Fraction(c) for c in p] for p in sites]
    N, k = len(pts[0]), len(pts)
    scale = _lcm_all(c.denominator for p in pts for c in p)
    Z = [[int(c * scale) for c in p] for p in pts]
    for size in range(3, min(k, N) + 1):
        for W in itertools.combinations(range(k), size):
            if rational_rank([[a - b for a, b in zip(Z[j], Z[W[0]])] for j in W[1:]]) \
                    != size - 1:
                return False, W, {}
    spheres, collision = {}, None
    for W in itertools.combinations(range(k), N + 1):
        z0 = Z[W[0]]
        red, pivots = rational_rref([[2 * (b - a) for a, b in zip(z0, Z[j])]
                                     + [sum(b * b for b in Z[j]) - sum(a * a for a in z0)]
                                     for j in W[1:]])
        if len(pivots) != N or pivots[-1] == N:
            return False, W, spheres
        if collision is None:
            center = [row[N] for row in red]
            den = _lcm_all(c.denominator for c in center)
            nums = [int(c * den) for c in center]
            key = (den, *nums, sum((x - den * a) ** 2 for x, a in zip(nums, z0)))
            if key in spheres:
                collision = tuple(sorted(set(spheres[key]) | set(W))[:N + 2])
            spheres[key] = W
    return (False, collision, spheres) if collision else (True, None, spheres)


def empty_sphere_tops(sites, spheres):
    """The subsets of `circumsphere_sweep`'s map whose circumsphere, keyed
    (den, *nums, den²r²) on the integer sites, holds no site strictly
    inside: the Delaunay tops of a simple set of more than N sites."""
    pts = [[Fraction(c) for c in p] for p in sites]
    scale = _lcm_all(c.denominator for p in pts for c in p)
    Z = [[int(c * scale) for c in p] for p in pts]
    return sorted(W for (den, *nums, r2), W in spheres.items()
                  if all(sum((x - den * a) ** 2 for x, a in zip(nums, z)) >= r2 for z in Z))


class FMFaces:
    """Face structure of a mixed strict/non-strict system decided by
    feasibility tests alone: the Fourier-Motzkin face code the polyhedron
    layer used before it kept a generator record.

    rows: (normal, offset, strict) meaning normal·x <= offset (or <);
    tightened: indices held as equalities.
    """

    def __init__(self, dim, rows, tightened=()):
        self.dim = dim
        self.rows = [([Fraction(c) for c in a], Fraction(b), bool(s)) for a, b, s in rows]
        self.tightened = frozenset(tightened)

    def closure(self, extra=()):
        """Tightened rows plus the implicit equalities of the face with
        `extra` tightened, or None if that face is empty.  A non-strict row
        is implicit iff making it strict leaves nothing."""
        tight = self.tightened | frozenset(extra)
        eqs = [(self.rows[j][0], self.rows[j][1]) for j in sorted(tight)]
        if not feasible(eqs, [r for j, r in enumerate(self.rows) if j not in tight], self.dim):
            return None
        strictified = [(a, b, True) for i, (a, b, _) in enumerate(self.rows) if i not in tight]
        if feasible(eqs, strictified, self.dim):
            return tight
        implicit = set()
        for i, (a, b, s) in enumerate(self.rows):
            if i not in tight and not s:
                rest = [r for j, r in enumerate(self.rows) if j not in tight and j != i]
                if not feasible(eqs, rest + [(a, b, True)], self.dim):
                    implicit.add(i)
        return tight | implicit

    def faces(self):
        """Tight sets of all non-empty faces, breadth first from the root."""
        root = self.closure()
        order, queue = [root], [root]
        while queue:
            tight = queue.pop(0)
            for i, (_, _, s) in enumerate(self.rows):
                if i in tight or s:
                    continue
                child = self.closure(tight | {i})
                if child is not None and child not in order:
                    order.append(child)
                    queue.append(child)
        return order

    def dimension(self, tight):
        return self.dim - rational_rank([self.rows[i][0] for i in tight])

    def key(self, tight):
        """Canonical key of a closed face: equalities in RREF and the
        irredundant inequalities reduced modulo them, made primitive."""
        eq_rows, pivots = rational_rref([self.rows[i][0] + [self.rows[i][1]] for i in sorted(tight)])

        def reduce_mod(row):
            row = list(row)
            for r, p in enumerate(pivots):
                if row[p] != 0:
                    f = row[p]
                    row = [x - f * y for x, y in zip(row, eq_rows[r])]
            return row

        cand = {}
        for i, (a, b, _) in enumerate(self.rows):
            if i in tight:
                continue
            row = reduce_mod(a + [b])
            if not any(row[:-1]):
                continue
            scale = _lcm_all(x.denominator for x in row)
            ints = [int(x * scale) for x in row]
            g = 0
            for x in ints:
                g = gcd(g, x)
            n, c = tuple(x // g for x in ints[:-1]), ints[-1] // g
            if n not in cand or c < cand[n]:
                cand[n] = c
        eqs = [(self.rows[i][0], self.rows[i][1]) for i in sorted(tight)]
        kept = dict(cand)
        for n in list(cand):
            rest = [(list(m), c, False) for m, c in kept.items() if m != n]
            if not feasible(eqs, rest + [([-x for x in n], -kept[n], True)], self.dim):
                del kept[n]
        return (self.dim, tuple(eq_rows), frozenset(kept.items()))

    def rref_key(self, tight):
        """The canonical key of the closed face with tight set `tight` as
        the polyhedron layer computed it on Fractions before its keys were
        integers: the equalities in RREF, and every row whose face has one
        dimension less, reduced modulo them and made primitive."""
        eq_rows, pivots = rational_rref([self.rows[i][0] + [self.rows[i][1]] for i in sorted(tight)])
        facet_dim = self.dimension(tight) - 1
        facets = {}
        for i, (a, b, _) in enumerate(self.rows):
            if i in tight:
                continue
            face = self.closure(tight | {i})
            if face is None or self.dimension(face) != facet_dim:
                continue
            row = a + [b]
            for r, p in enumerate(pivots):
                if row[p] != 0:
                    f = row[p]
                    row = [x - f * y for x, y in zip(row, eq_rows[r])]
            scale = _lcm_all(x.denominator for x in row)
            ints = [int(x * scale) for x in row]
            g = 0
            for x in ints:
                g = gcd(g, x)
            facets[tuple(x // g for x in ints[:-1])] = ints[-1] // g
        return (self.dim, tuple(eq_rows), frozenset(facets.items()))

    def is_bounded(self):
        """No unit coordinate direction is a recession direction."""
        rec = [(a, Fraction(0), False) for a, _, _ in self.rows]
        eqs = [(self.rows[i][0], Fraction(0)) for i in sorted(self.tightened)]
        for j in range(self.dim):
            for sign in (1, -1):
                e = [Fraction(0)] * self.dim
                e[j] = Fraction(sign)
                rest = [r for i, r in enumerate(rec) if i not in self.tightened]
                if feasible(eqs + [(e, Fraction(1))], rest, self.dim):
                    return False
        return True

    def vertices(self):
        """{tight set: point} of the 0-dimensional faces."""
        out = {}
        for tight in self.faces():
            if self.dimension(tight) == 0:
                red, _ = rational_rref([self.rows[i][0] + [self.rows[i][1]] for i in sorted(tight)])
                out[tight] = tuple(row[-1] for row in red)
        return out

    def triangulate(self):
        """Fan triangulation over the face lattice, as the polyhedron layer did."""
        info = [(t, self.dimension(t)) for t in self.faces()]
        vert_of = self.vertices()

        def verts_in(tight):
            return sorted(p for t, p in vert_of.items() if t >= tight)

        def tri(tight, d):
            if d == 0:
                return [(vert_of[tight],)]
            v0 = verts_in(tight)[0]
            return [s + (v0,) for t2, d2 in info
                    if d2 == d - 1 and t2 > tight and v0 not in verts_in(t2)
                    for s in tri(t2, d2)]

        root, d = info[0]
        return tri(root, d)


def int_key_as_rref(key):
    """An integer canonical key (equalities as primitive rows with a
    positive pivot) in its RREF form: each equality row divided by its
    first nonzero entry."""
    if key[1:] == ("empty",):
        return key
    dim, eq_rows, facets = key
    rows = []
    for row in eq_rows:
        pivot = next(x for x in row if x != 0)
        rows.append(tuple(Fraction(x, pivot) for x in row))
    return (dim, tuple(rows), facets)


def rref_key_token(key):
    """The sort token of a canonical key in RREF form: the RREF rows, then
    the facets sorted, each entry written as p or p/q in lowest terms."""
    if key[1:] == ("empty",):
        return "empty"
    _, eq_rows, facets = key
    parts = [";".join(" ".join(str(Fraction(x)) for x in row) for row in eq_rows)]
    parts.extend(sorted(" ".join(str(Fraction(x)) for x in n) + "|" + str(Fraction(b))
                        for n, b in facets))
    return "#".join(parts)


def _primitive_ints(v):
    """A non-zero rational vector scaled by a positive rational to coprime
    integers."""
    ints = [int(x * _lcm_all(x.denominator for x in v)) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _solve_affine(aug, n):
    """(point, kernel) of the rows a·x = b, each given as a + [b], in n
    unknowns: the solution whose free variables are 0 and a primitive
    integer basis of the homogeneous solutions, one vector per free column
    (x_f = 1 before scaling); None if the rows are inconsistent."""
    red, pivots = rational_rref(aug)
    if pivots and pivots[-1] == n:
        return None
    point = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        point[p] = row[n]
    kernel = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            kernel.append(_primitive_ints(v))
    return point, kernel


def line_record(n, rows, eq):
    """(lineality, points, rays) of the closed system {a·x <= b for (a, b)
    in rows, with equality on eq}, in the form of the fields of
    `polycx.polyhedra.FaceRecord`, by the line enumeration the polyhedron
    layer used before its double description engine.

    L is the kernel of the normals; r = N - dim L.  Each set of r - 1
    distinct hyperplanes that cuts out a line together with L's basis
    (v·x = 0) gives the ends of that line's section by Q as vertices and
    its unbounded sides as extreme rays: every vertex of Q ∩ L⊥ ends an
    edge or, for r = 1, the line itself, and every extreme ray is the
    direction of an unbounded edge.
    """
    cons = [([Fraction(c) for c in a], Fraction(b)) for a, b in rows]
    cons += [([-c for c in cons[i][0]], -cons[i][1]) for i in sorted(eq)]
    lineality = _solve_affine([list(a) + [0] for a, _ in rows], n)[1]
    lin_rows = [[Fraction(c) for c in v] + [Fraction(0)] for v in lineality]
    planes = {}
    for a, b in cons:
        j = next((j for j, c in enumerate(a) if c), None)
        if j is not None:
            planes.setdefault(tuple(c / a[j] for c in a + [b]), a + [b])
    points, rays = set(), set()
    r = n - len(lineality)
    if r == 0 and all(b >= 0 for _, b in cons):
        points.add(tuple([Fraction(0)] * n))
    subsets = itertools.combinations(planes.values(), r - 1) if r else ()
    for subset in subsets:
        sol = _solve_affine(list(subset) + lin_rows, n)
        if sol is None or len(sol[1]) != 1:
            continue
        base, (d,) = sol
        lo = hi = None
        for a, b in cons:
            alpha = sum(x * y for x, y in zip(a, d))
            beta = b - sum(x * y for x, y in zip(a, base))
            if alpha > 0:
                hi = beta / alpha if hi is None else min(hi, beta / alpha)
            elif alpha < 0:
                lo = beta / alpha if lo is None else max(lo, beta / alpha)
            elif beta < 0:
                break
        else:
            if lo is None or hi is None or lo <= hi:
                for end, ray in ((lo, tuple(-x for x in d)), (hi, d)):
                    if end is None:
                        rays.add(ray)
                    else:
                        points.add(tuple(x + end * y for x, y in zip(base, d)))
    lowest = []
    for x in points:
        den = _lcm_all(c.denominator for c in x)
        lowest.append(((tuple(int(c * den) for c in x), den), x))
    return (tuple(lineality),
            tuple((pt, frozenset(i for i, (a, b) in enumerate(rows)
                                 if sum(c * y for c, y in zip(a, x)) == b))
                  for pt, x in sorted(lowest)),
            tuple((ray, frozenset(i for i, (a, _) in enumerate(rows)
                                  if not sum(c * y for c, y in zip(a, ray))))
                  for ray in sorted(rays)))


def _lcm_all(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def mat_mul(A, B):
    """Dense product of integer matrices given as lists of rows."""
    p = len(B[0]) if B else 0
    return [[sum(a * Bk[j] for a, Bk in zip(Ai, B)) for j in range(p)] for Ai in A]


def smith_normal_form(M):
    """Dense Smith normal form with transforms, (D, factors, U, V) with
    U M V = D.  The pivot is the first entry of least absolute value in
    row-major order of the part not yet diagonalised; every row and
    column operation runs over whole rows and columns."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A + V:
            row[i] -= q * row[j]

    def min_entry(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while True:
        pos = min_entry(t)
        if pos is None:
            break
        A[t], A[pos[0]] = A[pos[0]], A[t]
        U[t], U[pos[0]] = U[pos[0]], U[t]
        for row in A + V:
            row[t], row[pos[1]] = row[pos[1]], row[t]
        reduced_something = False
        for i in range(t + 1, m):
            q = A[i][t] // A[t][t]
            if q:
                row_op(i, t, q)
            if A[i][t] != 0:
                reduced_something = True
        for j in range(t + 1, n):
            q = A[t][j] // A[t][t]
            if q:
                col_op(j, t, q)
            if A[t][j] != 0:
                reduced_something = True
        if reduced_something:
            continue
        stray = next((i for i in range(t + 1, m)
                      if any(A[i][j] % A[t][t] != 0 for j in range(t + 1, n))), None)
        if stray is not None:
            row_op(t, stray, -1)  # fold the stray row into the pivot row
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return A, [A[i][i] for i in range(t)], U, V


def replay_transforms(log, m, n):
    """Dense U and V^T: I_m and I_n after a Smith form log's operations, four
    ints (code, dst, src, q) each.  Codes 0, 1, 2 swap rows dst and src of U,
    add q times row src to row dst, negate row dst; codes 3, 4, 5 do the
    same to the rows of V^T.  None if the log leaves that grammar: a length
    that is not a multiple of four, an entry that is not an int, an unknown
    code, an index out of range, or an add with src = dst."""
    if len(log) % 4 or any(type(x) is not int for x in log):
        return None
    sides = ([[int(i == j) for j in range(m)] for i in range(m)],
             [[int(i == j) for j in range(n)] for i in range(n)])
    for p in range(0, len(log), 4):
        code, dst, src, q = log[p:p + 4]
        if code not in range(6):
            return None
        R = sides[code // 3]
        if dst not in range(len(R)) or src not in range(len(R)):
            return None
        kind = code % 3
        if kind == 0:
            R[dst], R[src] = R[src], R[dst]
        elif kind == 1:
            if dst == src:
                return None
            R[dst] = [a + q * b for a, b in zip(R[dst], R[src])]
        else:
            R[dst] = [-a for a in R[dst]]
    return sides


def certify_smith_form(M, diagonal, factors, U, V, log):
    """The Smith form certificate that checks stored transforms: the factors
    are positive and each divides the next, D is the m x n diagonal matrix
    of them, the log replays to exactly U and V^T, and U M V = D by dense
    products."""
    m, n = len(M), len(M[0]) if M else 0
    if (len(factors) > min(m, n) or any(d <= 0 for d in factors)
            or any(b % a for a, b in zip(factors, factors[1:]))):
        return False
    D = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)]
         for i in range(m)]
    sides = replay_transforms(log, m, n)
    if sides is None or sides[0] != U or [list(c) for c in zip(*sides[1])] != V:
        return False
    return diagonal == D and mat_mul(mat_mul(U, M), V) == D


# -- dual-complex moves, presentations, the no-limit identities ----------------------

def _label_key(v):
    return (v.__class__.__name__, v)


def simplex_key(s):
    """The order of simplices: by size, then by their sorted label keys."""
    return (len(s), sorted(_label_key(v) for v in s))


def boundary_matrices(simplices):
    """{k: the k-th boundary matrix} of a closed simplex set, each simplex
    ordered by its sorted label keys and each dimension by `simplex_key`;
    the column of s has (-1)^i in the row of s without its i-th vertex."""
    dim = max((len(s) for s in simplices), default=0) - 1
    ordered = {k: [tuple(sorted(s, key=_label_key)) for s in
                   sorted((s for s in simplices if len(s) == k + 1), key=simplex_key)]
               for k in range(dim + 1)}
    out = {}
    for k in range(1, dim + 1):
        rows = {s: i for i, s in enumerate(ordered[k - 1])}
        M = [[0] * len(ordered[k]) for _ in ordered[k - 1]]
        for j, s in enumerate(ordered[k]):
            for i in range(len(s)):
                M[rows[s[:i] + s[i + 1:]]][j] = (-1) ** i
        out[k] = M
    return out


def edge_path_group(simplices, vertices):
    """GRP/1 text of the edge-path presentation of a connected closed
    simplex set: a breadth-first spanning tree from the least vertex, one
    generator per other edge (in `simplex_key` order, oriented up the label
    order), one freely reduced relator per triangle, empty ones dropped."""
    verts = sorted(vertices, key=_label_key)
    edges = [tuple(sorted(s, key=_label_key))
             for s in sorted((s for s in simplices if len(s) == 2), key=simplex_key)]
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    tree, seen, frontier = set(), {verts[0]}, [verts[0]]
    while frontier:
        v = frontier.pop(0)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(tuple(sorted((v, w), key=_label_key)))
                frontier.append(w)
    gen_of = {}
    for e in edges:
        if e not in tree:
            gen_of[e] = len(gen_of) + 1

    def letter(a, b):
        e = tuple(sorted((a, b), key=_label_key))
        if e in tree:
            return 0
        return gen_of[e] if e == (a, b) else -gen_of[e]

    lines = ["gens %d" % len(gen_of)]
    for s in sorted((s for s in simplices if len(s) == 3), key=simplex_key):
        u, v, w = sorted(s, key=_label_key)
        word = []
        for x in (letter(u, v), letter(v, w), letter(w, u)):
            if x and word and word[-1] == -x:
                word.pop()
            elif x:
                word.append(x)
        if word:
            lines.append(" ".join("x%d" % x if x > 0 else "x%d^-1" % -x for x in word))
    return "\n".join(lines) + "\n"


def _closure(simplices):
    """Every non-empty face of every simplex, as frozensets."""
    return {frozenset(f) for s in simplices for k in range(1, len(s) + 1)
            for f in itertools.combinations(s, k)}


def stellar_subdivide(simplices, vertices, simplex):
    """The stellar subdivision of a simplex set by closing it again:
    everything missing the target is kept, each simplex t of the target's
    star gives a ∪ (t − target) ∪ {b} for every proper face a of the
    target, and the union is closed under faces.  (simplices, vertices)."""
    fs = frozenset(simplex)
    if fs not in simplices:
        raise ValueError("target simplex not in complex")
    if len(fs) == 1:
        return set(simplices), set(vertices)
    b = "b(%s)" % ",".join(str(v) for v in sorted(fs, key=_label_key))
    if b in vertices:
        raise ValueError("barycenter label %r already used" % (b,))
    keep = [t for t in simplices if not fs <= t]
    added = [frozenset(a) | (t - fs) | {b} for t in simplices if fs <= t
             for r in range(len(fs)) for a in itertools.combinations(fs, r)]
    vertices = set(vertices) | {b}
    return _closure(keep + added) | {frozenset([v]) for v in vertices}, vertices


def cone_over_star(simplices, vertices, simplex):
    """The cone over the closed star of a simplex by closing it again: the
    star's faces each joined to the apex c, added to the simplex set and
    closed under faces.  (simplices, vertices)."""
    fs = frozenset(simplex)
    if fs not in simplices:
        raise ValueError("target simplex not in complex")
    c = "c(%s)" % ",".join(str(v) for v in sorted(fs, key=_label_key))
    if c in vertices:
        raise ValueError("cone label %r already used" % (c,))
    closed_star = _closure([t for t in simplices if fs <= t])
    vertices = set(vertices) | {c}
    simplices = _closure(list(simplices) + [t | {c} for t in closed_star])
    return simplices | {frozenset([v]) for v in vertices}, vertices


def _cyclic_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def simplify_presentation(generators, relators):
    """Tietze simplification by whole variant sets: each round drops every
    relator sharing a rotation, or the inverse of one, with a relator kept
    before it, then kills the generator of the first one-letter relator.
    (generator count, relators)."""
    g = generators
    relators = [_cyclic_reduce(w) for w in relators]
    while True:
        seen = set()
        kept = []
        for w in relators:
            if not w:
                continue
            variants = set()
            for rot in range(len(w)):
                r = w[rot:] + w[:rot]
                variants.add(r)
                variants.add(tuple(-x for x in reversed(r)))
            if not (variants & seen):
                seen |= variants
                kept.append(w)
        relators = kept
        killed = next((abs(w[0]) for w in relators if len(w) == 1), None)
        if killed is None:
            return g, tuple(relators)

        def drop(letter):
            if abs(letter) == killed:
                return None
            shift = 1 if abs(letter) > killed else 0
            return (abs(letter) - shift) * (1 if letter > 0 else -1)

        relators = [_cyclic_reduce(tuple(x for x in map(drop, w) if x is not None))
                    for w in relators]
        g -= 1


def polyhedron_contains(rows, strict, tightened, point):
    """Whether a point lies in the system of integer rows (a, b), a·x <= b,
    read a·x < b at the `strict` indices and a·x = b at the `tightened`
    ones, each row dotted with the point in Fractions."""
    for i, (a, b) in enumerate(rows):
        v = sum((Fraction(c) * Fraction(x) for c, x in zip(a, point)), Fraction(0))
        if v > b or (v == b and i in strict) or (v < b and i in tightened):
            return False
    return True


def no_limit_rows(D, w, variables, shear):
    """Rows of the no-limit compatibility system within the weight-w block,
    gathered one equation at a time: for each (i, j) with i + j = w, the
    plane row c(i, j, 0) - d(i, j, 0) when w <= D, and the x^i z^j
    coefficient of the pullback along the parabola chart when some variable
    of the block appears in it.  Variables are ('c'|'d', i, j, k)."""
    pos = {v: t for t, v in enumerate(variables)}
    rows = []
    for i in range(w + 1):
        j = w - i
        # both charts restrict to the same plane z=0 polynomial
        if i + j <= D:
            row = [0] * len(variables)
            row[pos[("c", i, j, 0)]] += 1
            row[pos[("d", i, j, 0)]] -= 1
            rows.append(row)
        # coefficient of x^i z^j of the pullback along the parabola chart
        row = [0] * len(variables)
        nonzero = False
        for k in range(j // 2 + 1):
            v = ("c", i, j - 2 * k, k)
            if v in pos:
                row[pos[v]] += 1
                nonzero = True
        if shear:
            # (x,z) -> (x+z, z, z^2): binomial spread over the first slot
            for p in range(i, w + 1):
                for r in range((j - (p - i)) // 2 + 1) if p - i <= j else ():
                    q = j - (p - i) - 2 * r
                    v = ("d", p, q, r)
                    if v in pos:
                        row[pos[v]] -= comb(p, i)
                        nonzero = True
        else:
            # control: (x,z) -> (x, z, z^2), no shear
            for k in range(j // 2 + 1):
                v = ("d", i, j - 2 * k, k)
                if v in pos:
                    row[pos[v]] -= 1
                    nonzero = True
        if nonzero:
            rows.append(row)
    return rows


def no_limit_identities(blocks, shear):
    """The coefficient identities of the no-limit oracle, on Fractions.
    blocks: (weight w, variables, kernel vectors) per weight block, with
    variables ('c'|'d', i, j, k).  (identities_3, identities_4), the second
    None without the shear."""
    identities_3 = identities_4 = True
    for w, variables, kernel in blocks:
        pos = {v: t for t, v in enumerate(variables)}
        for v in kernel:
            def coeff(tag, i, j, k):
                key = (tag, i, j, k)
                return Fraction(v[pos[key]]) if key in pos else Fraction(0)

            def b_of(i, j):
                return sum((coeff("c", i, j - 2 * k, k) for k in range(j // 2 + 1)),
                           Fraction(0))

            for i in range(w + 1):
                # a(i, j) is read off the second chart's plane, d(i, j, 0)
                if coeff("d", i, 0, 0) != b_of(i, 0):
                    identities_3 = False
                if coeff("d", i, 1, 0) != b_of(i, 1):
                    identities_3 = False
                if shear and coeff("c", i, 1, 0) != b_of(i, 1) - (i + 1) * b_of(i + 1, 0):
                    identities_4 = False
    return identities_3, identities_4 if shear else None


def _rat(token):
    """A POLY/1 token as a Fraction, read as the package read it while its
    rows were Fractions: Python int syntax on each side of the slash."""
    token = token.strip()
    try:
        p, q = map(int, token.split("/")) if "/" in token else (int(token), 1)
    except ValueError:
        raise ValueError("%r is not an integer or p/q" % token) from None
    if q == 0:
        raise ValueError("zero denominator in %r" % token)
    return Fraction(p, q)


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_poly(text):
    """POLY/1 read into Fractions, as the package read it while its rows
    were Fractions: (N, rows), each row (normal, offset, strict).  Errors
    name the line of the text, counting blank lines."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("POLY/1: empty input")
    head = lines[0][1].split()
    if len(head) != 2 or not all(_is_int(t) for t in head):
        raise ValueError("POLY/1: header must be 'N m' (line %d)" % lines[0][0])
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError("POLY/1: expected %d constraint rows, got %d" % (m, len(lines) - 1))
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n + 2:
            raise ValueError("POLY/1: bad row arity (line %d)" % lineno)
        rel = parts[n]
        if rel not in ("<=", "<"):
            raise ValueError("POLY/1: relation must be <= or < (line %d)" % lineno)
        try:
            rows.append((tuple(_rat(p) for p in parts[:n]), _rat(parts[n + 1]), rel == "<"))
        except ValueError as e:
            raise ValueError("POLY/1: %s (line %d)" % (e, lineno)) from None
    return n, rows


def format_poly(n, rows, tightened):
    """POLY/1 text of Fraction rows (normal, offset, strict), a tightened
    row also written negated, as the package wrote it while its rows were
    Fractions."""
    out = []
    for i, (normal, offset, strict) in enumerate(rows):
        out.append("%s %s %s" % (" ".join(map(str, normal)), "<" if strict else "<=", offset))
        if i in tightened:
            out.append("%s <= %s" % (" ".join(str(-c) for c in normal), -offset))
    return "\n".join(["%d %d" % (n, len(out))] + out) + "\n"
