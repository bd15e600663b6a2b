"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written against fractions.Fraction and
naive algorithms, sharing no code with the package under test.
"""

import itertools
from fractions import Fraction
from math import gcd


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
