"""Dense exact linear algebra over Q on a fraction-free integer kernel.

Matrices are lists/tuples of equal-length rows of QQ (ints are accepted
too).  Each row is scaled by the lcm of its denominators and all
elimination runs on Python ints: Bareiss elimination (Sylvester's identity,
Bareiss 1968) for rank and determinant, where every division is exact, and
a Gauss-Jordan reduction whose combined rows are divided by their content
for the RREF.  QQ values are built only when a result is written out.

Each row-space operation is one elimination: containment compares two
ranks, and an intersection is read off one RREF of the Zassenhaus block
matrix.
"""

from math import gcd, lcm

from .rationals import QQ, ZERO, ONE


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def _int_row(row):
    """(integer row, lcm of the denominators): the row times that lcm."""
    dens = [x.denominator for x in row]
    scale = lcm(*dens)
    return [x.numerator * (scale // d) for x, d in zip(row, dens)], scale


def _bareiss(rows):
    """Bareiss elimination of integer rows, in place.

    Returns (rank, signed last pivot).  A negative pivot row is negated and
    the sign flipped.  By Sylvester's identity every entry still to be
    eliminated after a step is a minor of the input with its rows so
    permuted and negated, so each `// prev` below is exact.  For square rows
    of full rank the signed last pivot is the determinant.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        k = next((i for i in range(r, n) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        if p < 0:
            p = -p
            prow = rows[r] = [-x for x in prow]
            sign = -sign
        tail = prow[c + 1:]
        # columns <= c of rows below r are never read again, so only the
        # tail is rewritten; a row with a zero in column c is scaled by
        # p / prev, which leaves it as it is when the two pivots agree
        for i in range(r + 1, n):
            row = rows[i]
            a = row[c]
            if a:
                row[c + 1:] = [(p * x - a * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        prev = p
        r += 1
    return r, sign * prev


def int_rank(M):
    """Rank of an integer matrix."""
    return _bareiss([list(row) for row in M])[0]


def int_det(M):
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    n = len(M)
    r, d = _bareiss([list(row) for row in M])
    return d if r == n else 0


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [_int_row(row)[0] for row in rows]
    if not m:
        return [], []
    n = len(m)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, n) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(n):
            a = m[i][c]
            if a and i != r:
                g = gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(m[i], prow)]
                h = gcd(*row)
                m[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
        r += 1
        if r == n:
            break
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append(tuple(ONE if j == c else ZERO if not x else QQ(x, p)
                         for j, x in enumerate(row)))
    return out, pivots


def rank(rows):
    return int_rank([_int_row(row)[0] for row in rows])


def nullspace(rows):
    """Basis of the right kernel {x : A x = 0}, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to 0.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [tuple(row) + (QQ(b),) for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row in red:
        if is_zero_vec(row[:ncols]) and row[ncols] != 0:
            return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None  # pivot in the rhs column: inconsistent
        x[p] = red[r][ncols]
    return tuple(x)


def det(rows):
    m = []
    scale = 1
    for row in rows:
        ints, s = _int_row(row)
        m.append(ints)
        scale *= s
    return QQ(int_det(m), scale)


def in_row_space(rows, v):
    """True iff v lies in the row space of `rows`."""
    return row_space_contained([v], rows)


def row_space_contained(inner, outer):
    """True iff rowspace(inner) ⊆ rowspace(outer): adding the inner rows
    leaves the rank as it is."""
    return rank(list(outer) + list(inner)) == rank(outer)


def intersect_row_spaces(a_rows, b_rows):
    """RREF basis of rowspace(A) ∩ rowspace(B) (Zassenhaus).

    The rows of [[A, A], [B, 0]] span {(a + b, a)}; its vectors with a zero
    left half are exactly {(0, a) : a ∈ A ∩ B}.  In the RREF of the block
    matrix these are spanned by the rows whose pivot lies in the right half,
    and those rows' right halves are themselves in RREF.
    """
    rows = [tuple(a) * 2 for a in a_rows]
    if not rows:
        return []
    n = len(rows[0]) // 2
    rows += [tuple(b) + (ZERO,) * n for b in b_rows]
    red, pivots = rref(rows)
    return [row[n:] for row, c in zip(red, pivots) if c >= n]
