"""Independent checkers for the benchmark's outputs.

Everything here is written against ``fractions.Fraction`` and ``int`` with
naive algorithms, and imports nothing from ``polycx``: a checker that shared
code with the program could not catch the program's mistakes.  Each check
function returns a list of error strings; an empty list means the output
passed.  ``negative_controls`` feeds every checker a deliberately wrong
input and reports the checkers that failed to reject it.
"""

import itertools
import json
from fractions import Fraction


def frac(text):
    """Parse 'p' or 'p/q' exactly."""
    return Fraction(text)


# -- exact linear algebra ------------------------------------------------------

def rref(rows):
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
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
    return m[:r], pivots


def rank(rows):
    return len(rref(rows)[0]) if rows else 0


def nullspace(rows, ncols):
    """Basis of {x : rows·x = 0} in Q^ncols."""
    red, pivots = rref(rows) if rows else ([], [])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        basis.append(v)
    return basis


def solve_unique(rows, rhs):
    """The unique solution of a square nonsingular system, or None."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    n = len(rows[0])
    if pivots != list(range(n)):
        return None
    return [red[i][n] for i in range(n)]


def bareiss_det(M):
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss 1968): every intermediate entry is an integer minor."""
    a = [list(map(int, row)) for row in M]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def int_matmul(A, B):
    if not A or not B:
        return []
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]


def abelian_invariants(matrix, ngens):
    """(free rank, torsion factors > 1) of Z^ngens / rowspace(matrix), by
    integer row and column elimination to a diagonal, then gcd/lcm
    normalisation of the diagonal into invariant factors."""
    a = [list(map(int, row)) for row in matrix if any(row)]
    diag = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, row in enumerate(a)
                   for j, x in enumerate(row) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        done = True
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            done = done and a[i][0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[0]
            done = done and a[0][j] == 0
        if done:
            diag.append(abs(p))
            a = [row[1:] for row in a[1:]]
            a = [row for row in a if any(row)]
    # turn the diagonal into a divisibility chain
    factors = sorted(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                x, y = factors[i], factors[j]
                g = _gcd(x, y)
                if g != x:
                    factors[i], factors[j] = g, x * y // g
                    changed = True
        factors.sort()
    return ngens - len(factors), tuple(d for d in factors if d > 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


# -- geometry ------------------------------------------------------------------

def sq_dist(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def circumcenter(points):
    """Center of the sphere through N+1 affinely independent points in Q^N."""
    p0 = points[0]
    rows = [[2 * (a - b) for a, b in zip(p, p0)] for p in points[1:]]
    rhs = [sum(a * a for a in p) - sum(b * b for b in p0) for p in points[1:]]
    return solve_unique(rows, rhs)


def simplex_volume(points):
    """Unsigned volume of the simplex on N+1 points in Q^N, times N!."""
    p0 = points[0]
    rows = [[a - b for a, b in zip(p, p0)] for p in points[1:]]
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
    n = len(rows)
    d = bareiss_det([[int(x * den) for x in row] for row in rows])
    return Fraction(abs(d), den ** n)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_volume(points):
    """Exact length / area / volume of the convex hull in dimension 1, 2, 3."""
    n = len(points[0])
    if n == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if n == 2:
        pts = sorted(set(points))
        lower, upper = [], []
        for p in pts:  # Andrew's monotone chain
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        poly = lower[:-1] + upper[:-1]
        twice = sum(poly[i][0] * poly[(i + 1) % len(poly)][1]
                    - poly[(i + 1) % len(poly)][0] * poly[i][1]
                    for i in range(len(poly)))
        return abs(Fraction(twice, 2))
    if n == 3:
        # facets of a hull in general position are triangles whose plane
        # has every point on one side; cone them from the centroid
        k = len(points)
        centroid = [sum(p[i] for p in points) / k for i in range(3)]
        total = Fraction(0)
        for tri in itertools.combinations(points, 3):
            sides = {_sign(_orient3(tri, q)) for q in points if q not in tri}
            sides.discard(0)
            if len(sides) == 1:
                total += simplex_volume(list(tri) + [centroid])
        return total / 6
    raise ValueError("hull volume only in dimensions 1 to 3")


def _orient3(tri, q):
    a, b, c = tri
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [q[i] - a[i] for i in range(3)]
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _sign(x):
    return (x > 0) - (x < 0)


def in_general_position(points):
    """The genericity the Delaunay certificate needs: distinct points, no
    N+1 of them affinely dependent, no N+2 of them on a common sphere."""
    n = len(points[0])
    if len(set(points)) != len(points):
        return False
    for size in range(3, n + 2):
        for sub in itertools.combinations(points, size):
            if rank([[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]) != size - 1:
                return False
    if len(points) >= n + 2:
        seen = set()
        for sub in itertools.combinations(points, n + 1):
            c = circumcenter(list(sub))
            key = (tuple(c), sq_dist(c, sub[0]))
            if key in seen:
                return False
            seen.add(key)
    return True


def delaunay_triangulation(points):
    """Top simplices with an empty circumsphere, by brute force."""
    n = len(points[0])
    tops = []
    for sub in itertools.combinations(range(len(points)), n + 1):
        pts = [points[i] for i in sub]
        c = circumcenter(pts)
        if c is None:
            continue
        r2 = sq_dist(c, pts[0])
        if all(sq_dist(c, points[j]) > r2 for j in range(len(points)) if j not in sub):
            tops.append(sub)
    return tops


# -- workload checkers -----------------------------------------------------------

def check_delaunay(sites, tops, all_simplices, hull_vol, top_volumes):
    """sites: Fraction tuples; tops: top simplices (site index tuples);
    all_simplices: every simplex of the nerve; hull_vol and top_volumes
    (simplex -> volume) as the program reported them."""
    errors = []
    n = len(sites[0])
    fact = _factorial(n)
    mine = Fraction(0)
    for s in tops:
        pts = [sites[i] for i in s]
        if len(s) != n + 1:
            errors.append("top simplex %r has %d vertices, not %d" % (s, len(s), n + 1))
            continue
        vol = simplex_volume(pts) / fact
        if vol <= 0:
            errors.append("top simplex %r has volume %s" % (s, vol))
        if top_volumes.get(tuple(sorted(s))) != vol:
            errors.append("top simplex %r: reported volume %s, recomputed %s"
                          % (s, top_volumes.get(tuple(sorted(s))), vol))
        mine += vol
        c = circumcenter(pts)
        if c is None:
            errors.append("top simplex %r is degenerate" % (s,))
            continue
        r2 = sq_dist(c, pts[0])
        inside = [j for j in range(len(sites)) if j not in s and sq_dist(c, sites[j]) < r2]
        if inside:
            errors.append("site %d lies strictly inside the circumsphere of %r"
                          % (inside[0], s))
    hull = hull_volume(sites)
    if hull != hull_vol:
        errors.append("hull volume %s, reported %s" % (hull, hull_vol))
    if mine != hull:
        errors.append("top simplex volumes add to %s, hull volume is %s" % (mine, hull))
    top_sets = [frozenset(s) for s in tops]
    if len(set(top_sets)) != len(top_sets):
        errors.append("a top simplex is listed twice")
    chi = 0
    for s in all_simplices:
        chi += 1 if len(s) % 2 else -1
        if not any(frozenset(s) <= t for t in top_sets):
            errors.append("simplex %r lies in no top simplex" % (s,))
            break
    if chi != 1:
        errors.append("nerve Euler characteristic %d, not 1" % chi)
    return errors


def parse_pts_text(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, k = int(lines[0][0]), int(lines[0][1])
    pts = [tuple(frac(t) for t in row) for row in lines[1:]]
    if len(pts) != k or any(len(p) != n for p in pts):
        raise ValueError("malformed PTS/1 text")
    return pts


def scx_simplices(text):
    """All simplices (closure of the maximal ones) of an SCX/1 document."""
    data = json.loads(text)
    out = {frozenset([v]) for v in range(data["vertex_count"])}
    for s in data["maximal_simplices"]:
        for k in range(1, len(s) + 1):
            out.update(frozenset(c) for c in itertools.combinations(s, k))
    return out


def f_vector(simplices):
    top = max((len(s) for s in simplices), default=0)
    f = [0] * top
    for s in simplices:
        f[len(s) - 1] += 1
    return f


def grp_relator_matrix(text):
    """(generator count, exponent-sum matrix) of a GRP/1 document."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    g = int(lines[0][1])
    rows = []
    for toks in lines[1:]:
        row = [0] * g
        for tok in toks:
            inv = tok.endswith("^-1")
            idx = int((tok[:-3] if inv else tok)[1:])
            row[idx - 1] += -1 if inv else 1
        rows.append(row)
    return g, rows


def betti_at(betti, k):
    return betti[k] if k < len(betti) else 0


def check_clip(lattice_text, perturbed_text, bound, scx_text, homology_report,
               grp_text, expect_betti, expect_h1, trivial_pi1=False):
    """One clip pipeline: perturbation bound, Betti numbers, Euler
    characteristic and the abelianised fundamental group; with
    trivial_pi1 the simplified presentation must have no generators."""
    errors = []
    lattice = parse_pts_text(lattice_text)
    moved = parse_pts_text(perturbed_text)
    if len(lattice) != len(moved):
        errors.append("perturb changed the site count")
    for p, q in zip(lattice, moved):
        if any(abs(a - b) > bound for a, b in zip(p, q)):
            errors.append("site %r moved to %r, beyond bound %s" % (p, q, bound))
            break
    betti = homology_report["betti"]
    got = tuple(betti_at(betti, k) for k in range(len(expect_betti)))
    if got != tuple(expect_betti) or any(betti[len(expect_betti):]):
        errors.append("Betti numbers %r, expected %r" % (betti, expect_betti))
    chi = sum((-1) ** k * f for k, f in enumerate(f_vector(scx_simplices(scx_text))))
    if chi != sum((-1) ** k * b for k, b in enumerate(betti)):
        errors.append("Euler characteristic %d differs from the Betti sum %r" % (chi, betti))
    g, rows = grp_relator_matrix(grp_text)
    h1 = abelian_invariants(rows, g)
    if h1 != expect_h1:
        errors.append("abelianised pi1 %r, expected %r" % (h1, expect_h1))
    if trivial_pi1 and g != 0:
        errors.append("pi1 presentation keeps %d generators, expected none" % g)
    return errors


def homogeneous_equations(eqs):
    """Rows [a | -b] cutting out the projective closure of {a·x = b}."""
    return [list(a) + [-b] for a, b in eqs]


def span_generators(eqs, n):
    """Generators in Q^{n+1} of the projective closure of {a·x = b}."""
    rows = homogeneous_equations(eqs)
    return nullspace(rows, n + 1)


def _rows_of(report_rows):
    return [[frac(c) for c in g] for g in report_rows]


def check_parasites(n, faces, reports):
    """faces: id -> (equalities [(a, b)], ids of faces below or equal).
    reports: parsed 'parasites', 'saturate', 'verify-proper' reports and
    the LEDGER/1 document."""
    errors = []
    spans = {}

    def span_of(fid):
        if fid not in spans:
            spans[fid] = span_generators(faces[fid][0], n)
        return spans[fid]

    def inside_ambient(rows, ambient):
        eq_rows = homogeneous_equations(faces[ambient][0])
        return all(sum(c * x for c, x in zip(e, g)) == 0 for e in eq_rows for g in rows)

    parasites = reports["parasites"]["records"]
    saturated = reports["saturate"]["records"]
    for label, records in (("parasites", parasites), ("saturate", saturated)):
        for r in records:
            rows = _rows_of(r["subspace"])
            if r["ambient"] not in faces:
                errors.append("%s: unknown ambient face %r" % (label, r["ambient"]))
            elif not inside_ambient(rows, r["ambient"]):
                errors.append("%s: record subspace leaves the span of face %r"
                              % (label, r["ambient"]))
            if rank(rows) - 1 != r["subspace_dim"]:
                errors.append("%s: record dimension %r is wrong" % (label, r["subspace_dim"]))
    if reports["saturate"]["initial"] != len(parasites):
        errors.append("saturate started from %d records, parasites found %d"
                      % (reports["saturate"]["initial"], len(parasites)))
    keys = lambda recs: sorted((r["ambient"], json.dumps(r["subspace"])) for r in recs)
    if not set(keys(parasites)) <= set(keys(saturated)):
        errors.append("saturation dropped a parasitic record")
    proper = reports["verify-proper"]
    if not proper["passed"] or proper["violations"] \
            or proper["checked_records"] != len(saturated):
        errors.append("verify-proper did not pass on all %d records" % len(saturated))
    ledger_keys = []
    for d, stage in enumerate(reports["ledger"]["stages"]):
        for entry in stage:
            ambient = entry["ambient"]
            for center in entry["centers"]:
                ledger_keys.append((ambient, json.dumps(center)))
                rows = _rows_of(center)
                r = rank(rows)
                dim = r - 1
                if dim != d:
                    errors.append("stage %d holds a center of dimension %d" % (d, dim))
                if dim > n - 2:
                    errors.append("center of dimension %d > N-2 in face %r" % (dim, ambient))
                if not inside_ambient(rows, ambient):
                    errors.append("center leaves the span of its face %r" % (ambient,))
                for b in faces[ambient][1]:
                    gens = span_of(b)
                    if rank(rows + gens) == r:
                        errors.append("center in face %r contains the span of face %r"
                                      % (ambient, b))
                        break
    if sorted(ledger_keys) != keys(saturated):
        errors.append("ledger centers differ from the saturated records")
    return errors


KNOWN_SURFACES = {
    # name: (Betti numbers over Q, torsion of H_1 over Z)
    "sphere": ((1, 0, 1), ()),
    "torus": ((1, 2, 1), ()),
    "klein": ((1, 1, 0), (2,)),
    "rp2": ((1, 0, 0), (2,)),
}


def is_smith_diagonal(D, factors):
    """D is diagonal with the given nonzero entries d_1 | d_2 | ... first."""
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j and x != 0:
                return False
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    nonzero = [d for d in diag if d != 0]
    if nonzero != list(factors) or diag[:len(nonzero)] != nonzero:
        return False
    return all(d > 0 for d in nonzero) and all(
        b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def check_snf(M, U, V, D, factors):
    errors = []
    if int_matmul(int_matmul(U, M), V) != D:
        errors.append("U*M*V differs from D")
    if not is_smith_diagonal(D, factors):
        errors.append("D is not in Smith normal form")
    for name, T in (("U", U), ("V", V)):
        if T and abs(bareiss_det(T)) != 1:
            errors.append("%s is not unimodular" % name)
    return errors


def check_surface(name, simplices, betti_z, torsion_z, betti_q, h1_ab, snfs):
    """One subdivided surface: known homology over Z and Q, abelianised
    pi1 against H_1, Euler characteristic, and every Smith form."""
    errors = []
    want_betti, want_torsion = KNOWN_SURFACES[name]
    if tuple(betti_q) != want_betti:
        errors.append("%s: Q-Betti %r, expected %r" % (name, betti_q, want_betti))
    if tuple(betti_z) != tuple(betti_q):
        errors.append("%s: Z-Betti %r differ from Q-Betti %r" % (name, betti_z, betti_q))
    t1 = tuple(torsion_z[1]) if len(torsion_z) > 1 else ()
    if t1 != want_torsion or any(t for k, t in enumerate(torsion_z) if k != 1):
        errors.append("%s: torsion %r, expected H_1 torsion %r" % (name, torsion_z, want_torsion))
    if tuple(h1_ab) != (want_betti[1], want_torsion):
        errors.append("%s: abelianised pi1 %r differs from H_1" % (name, h1_ab))
    chi = sum((-1) ** k * f for k, f in enumerate(f_vector(simplices)))
    if chi != sum((-1) ** k * b for k, b in enumerate(want_betti)):
        errors.append("%s: Euler characteristic %d" % (name, chi))
    for k, (M, U, V, D, factors) in snfs.items():
        errors.extend("%s d%d: %s" % (name, k, e) for e in check_snf(M, U, V, D, factors))
    return errors


def check_higman(gens, relators, simplices, ab, certified):
    errors = []
    rows = []
    for w in relators:
        row = [0] * gens
        for letter in w:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    if abelian_invariants(rows, gens) != (0, ()) or tuple(ab) != (0, ()):
        errors.append("Higman H_1 is not trivial (program says %r)" % (ab,))
    if 1 - gens + len(relators) != 1:
        errors.append("Higman presentation Euler characteristic is not 1")
    chi = sum((-1) ** k * f for k, f in enumerate(f_vector(simplices)))
    if chi != 1:
        errors.append("Higman presentation complex has Euler characteristic %d" % chi)
    if not certified:
        errors.append("Higman group not certified Q-superperfect")
    return errors


def check_nolimit(shear_report, control_report):
    errors = []
    if shear_report["restriction_image_dim"] != 1:
        errors.append("image dimension %r with the shear, expected 1"
                      % shear_report["restriction_image_dim"])
    if not (shear_report["identities_3"] and shear_report["identities_4"]):
        errors.append("coefficient identities fail with the shear")
    if not control_report["restriction_image_dim"] > 1:
        errors.append("control image dimension %r, expected > 1"
                      % control_report["restriction_image_dim"])
    return errors


# -- negative controls -------------------------------------------------------------

def negative_controls():
    """Feed each checker one wrong input; return the names that accepted it."""
    accepted = []
    F = Fraction
    # a flipped Delaunay triangulation of a convex quadrilateral
    sites = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(3), F(3))]
    good = [(0, 1, 2), (1, 2, 3)]
    flipped = [(0, 1, 3), (0, 2, 3)]
    vol = {s: simplex_volume([sites[i] for i in s]) / 2 for s in good + flipped}
    closure = lambda tops: {c for s in tops for k in (1, 2, 3)
                            for c in itertools.combinations(s, k)}
    hull = hull_volume(sites)
    if check_delaunay(sites, good, closure(good), hull, vol):
        accepted.append("delaunay rejected a valid triangulation")
    if not check_delaunay(sites, flipped, closure(flipped), hull, vol):
        accepted.append("delaunay (flipped triangulation)")
    # a Smith form with a wrong U
    M = [[2, 4], [6, 8]]
    U, V, D = [[1, 0], [-3, 1]], [[1, -2], [0, 1]], [[2, 0], [0, -4]]
    if not check_snf(M, U, V, D, [2, 4]):
        accepted.append("snf (D not normalised)")
    U, D = [[1, 0], [3, -1]], [[2, 0], [0, 4]]
    if check_snf(M, U, V, D, [2, 4]):
        accepted.append("snf rejected a valid Smith form")
    if not check_snf(M, [[1, 0], [3, 1]], V, D, [2, 4]):
        accepted.append("snf (wrong U)")
    # a wrong Betti vector
    tri = {frozenset(c) for k in (1, 2) for c in itertools.combinations(range(3), k)}
    if not check_surface("torus", tri, (1, 1, 1), ((), (), ()), (1, 1, 1), (1, ()), {}):
        accepted.append("surface (wrong Betti vector)")
    pts = "2 1\n0 0\n"
    if not check_clip(pts, pts, F(1), json.dumps({"vertex_count": 1, "maximal_simplices": [[0]]}),
                      {"betti": [1, 1]}, "gens 1\n", (1, 0, 0), (0, ())):
        accepted.append("clip (wrong Betti vector)")
    if not check_clip(pts, "2 1\n1/2 0\n", F(1, 4), json.dumps(
            {"vertex_count": 1, "maximal_simplices": [[0]]}), {"betti": [1]}, "gens 0\n",
            (1, 0, 0), (0, ())):
        accepted.append("clip (perturbation beyond bound)")
    # a parasite ledger whose center is the span of a whole face
    faces = {0: ([((F(1), F(0)), F(0))], [0]), 1: ([], [0, 1])}
    whole = [["0", "1", "0"], ["0", "0", "1"]]
    record = {"ambient": 1, "subspace": whole, "subspace_dim": 1}
    reports = {"parasites": {"records": [record]},
               "saturate": {"initial": 1, "records": [record]},
               "verify-proper": {"passed": True, "violations": [], "checked_records": 1},
               "ledger": {"stages": [[], [{"ambient": 1, "centers": [whole]}]]}}
    if not check_parasites(2, faces, reports):
        accepted.append("parasites (center containing a face span)")
    if not check_nolimit({"restriction_image_dim": 2, "identities_3": True,
                          "identities_4": True}, {"restriction_image_dim": 3}):
        accepted.append("no-limit (image dimension 2 with the shear)")
    if not check_higman(4, [(1, 2, -1, -2)] * 4, tri, (0, ()), True):
        accepted.append("higman (non-perfect presentation)")
    return accepted
