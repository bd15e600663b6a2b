"""Dense exact linear algebra over Q on a fraction-free integer kernel.

Matrices are lists/tuples of equal-length rows of QQ (ints are accepted
too).  Each row is scaled by the lcm of its denominators and all
elimination runs on Python ints: Bareiss elimination (Sylvester's identity,
Bareiss 1968) for the determinant, where every division is exact, a
fraction-free reduction of rows held as {column: entry} dicts for the rank,
and a Gauss-Jordan reduction whose combined rows are divided by their
content for the RREF.  QQ values are built only when a result is written out.

Row spaces have an integer form of their own.  A row space is held as its
canonical rows: the RREF rows, each times the lcm of its denominators,
which makes it primitive with a positive pivot (`int_row_space`).  This
form and the QQ RREF determine each other, since dividing a canonical row
by its pivot gives back the RREF row (`rational_rows`).  Containment is a
check that the outer space's integer annihilator (`annihilator`) kills the
inner rows (`annihilates`), and a meet is the kernel of the stacked
annihilators (`int_meet`), since (A ∩ B)^⊥ = A^⊥ + B^⊥.  The meet takes one
elimination: reduced with its columns reversed, the stack's kernel vectors
are already the meet's canonical rows.  `intersect_row_spaces`,
`row_space_contained` and `in_row_space` are the same on QQ rows.

Linear systems have one integer solver, `int_solve`; `solve`, `nullspace`
and affine spans read its answer over QQ (`rational_solution`).
"""

from itertools import compress
from math import gcd, lcm
from operator import mul

from .rationals import QQ, ZERO, ONE


def int_row(row):
    """(integer row, lcm of the denominators): the row times that lcm."""
    dens = [x.denominator for x in row]
    scale = lcm(*dens)
    return [x.numerator * (scale // d) for x, d in zip(row, dens)], scale


def primitive_row(row):
    """Integer row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
    """Rank over Q of an integer matrix, by fraction-free elimination of
    sparse rows.  Each row r is reduced against the pivot row p that leads
    in r's leading column c: r <- b r - a p with a/b = r[c]/p[c] in lowest
    terms and b > 0, then r is divided by the gcd of its entries.  A row
    that does not vanish becomes the pivot row of its new leading column."""
    pivots = {}  # leading column -> row, as {column: nonzero entry}
    for row in M:
        r = {j: row[j] for j in compress(range(len(row)), row)}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            a, b = r[c], p[c]
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                for j in r:
                    r[j] *= b
            for j, y in p.items():
                x = r.get(j, 0) - a * y
                if x:
                    r[j] = x
                else:
                    del r[j]
            g = gcd(*r.values())
            if g > 1:
                for j in r:
                    r[j] //= g
    return len(pivots)


def int_det(M):
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    n = len(M)
    r, d = _bareiss([list(row) for row in M])
    return d if r == n else 0


def int_rref(m):
    """Gauss-Jordan elimination of integer rows in place, dividing each
    combined row by its content.  Returns the pivot columns; row i is then
    nonzero in column pivots[i] and zero in the other pivot columns."""
    n = len(m)
    ncols = len(m[0]) if m else 0
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
                m[i] = primitive_row([pg * x - ag * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def canonical_rows(m, pivots):
    """The rows of an `int_rref` result that carry the pivots, each divided
    by its content and signed so that its pivot is positive.  `int_rref`
    leaves rows it never combines as they came, so this also makes those
    primitive."""
    out = []
    for row, c in zip(m, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
    return out


def int_row_space(rows):
    """(canonical rows, pivot columns) of the row space of integer rows:
    the RREF rows, each scaled to a primitive integer row with a positive
    pivot.  Equal row spaces give equal canonical rows."""
    m = [list(row) for row in rows]
    pivots = int_rref(m)
    return canonical_rows(m, pivots), pivots


def rational_rows(m, pivots):
    """The QQ RREF rows of integer rows reduced by `int_rref` (or canonical
    rows): each row divided by its pivot."""
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append(tuple(ONE if j == c else ZERO if not x else QQ(x, p)
                         for j, x in enumerate(row)))
    return out


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [int_row(row)[0] for row in rows]
    pivots = int_rref(m)
    return rational_rows(m, pivots), pivots


def int_kernel(m, pivots, ncols):
    """Primitive integer basis of {x : m x = 0} in the first `ncols`
    columns, for rows m reduced by `int_rref` (or canonical rows), one
    vector per free column."""
    den = lcm(*(abs(m[k][c]) for k, c in enumerate(pivots)))
    scale = [den // m[k][c] for k, c in enumerate(pivots)]
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = den
        for k, c in enumerate(pivots):
            v[c] = -m[k][f] * scale[k]
        kernel.append(tuple(primitive_row(v)))
    return kernel


def int_solve(aug, n):
    """Solutions of integer rows a·x = b, each given as a + [b], in n unknowns.

    Returns (nums, den, kernel): x = nums/den is the solution whose free
    variables are 0, and kernel is a primitive integer basis of the
    homogeneous solutions, one vector per free column, in column order.
    None if the rows are inconsistent.
    """
    m = [list(row) for row in aug]
    pivots = int_rref(m)
    if pivots and pivots[-1] == n:
        return None
    den = lcm(*(abs(m[k][c]) for k, c in enumerate(pivots)))
    nums = [0] * n
    for k, c in enumerate(pivots):
        nums[c] = m[k][n] * (den // m[k][c])
    return nums, den, int_kernel(m, pivots, n)


def rational_solution(aug, n):
    """`int_solve` read over QQ: (x, kernel), x with its free variables 0
    and each kernel vector divided by its entry in its free column, its
    last nonzero entry (a reduced row is zero before its pivot); or None.
    These are the RREF solution and kernel basis."""
    sol = int_solve(aug, n)
    if sol is None:
        return None
    nums, den, kernel = sol
    return (tuple(QQ(x, den) for x in nums),
            [tuple(QQ(x, next(y for y in reversed(v) if y)) for x in v) for v in kernel])


def annihilates(kernel, rows):
    """True iff every vector of `kernel` has a zero dot product with every
    row of `rows` (integer vectors)."""
    return all(not sum(map(mul, v, row)) for v in kernel for row in rows)


def int_meet(ann, ncols):
    """(canonical rows, pivot columns, reduced rows) of the subspace of
    Q^ncols that the integer rows `ann` annihilate; the reduced rows are
    `ann` reduced, without its zero rows, and span the subspace's
    annihilator.  Stacked annihilators give the meet of their spaces.

    One elimination: `ann` is reduced with its columns reversed.  A reduced
    row is zero before its pivot, so the kernel vector of free column f
    there is zero after f and in every other free column.  Read back in
    column order it is zero before its own free column and in the other
    free columns, and `int_kernel` makes it primitive with a positive entry
    there: it is the canonical row whose pivot is that free column."""
    m = [row[::-1] for row in ann]
    pivots = int_rref(m)
    kernel = int_kernel(m, pivots, ncols)
    last = ncols - 1
    return ([v[::-1] for v in reversed(kernel)],
            [last - f for f in reversed(range(ncols)) if f not in pivots],
            [row[::-1] for row in m[:len(pivots)]])


def rank(rows):
    return int_rank([int_row(row)[0] for row in rows])


def nullspace(rows):
    """Basis of the right kernel {x : A x = 0}, as a list of vectors."""
    if not rows:
        return []
    return rational_solution([int_row(row)[0] + [0] for row in rows], len(rows[0]))[1]


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to 0.
    """
    if not rows:
        return None
    sol = rational_solution([int_row(tuple(row) + (QQ(b),))[0] for row, b in zip(rows, rhs)],
                            len(rows[0]))
    return sol and sol[0]


def det(rows):
    m = []
    scale = 1
    for row in rows:
        ints, s = int_row(row)
        m.append(ints)
        scale *= s
    return QQ(int_det(m), scale)


def in_row_space(rows, v):
    """True iff v lies in the row space of `rows`."""
    return row_space_contained([v], rows)


def annihilator(rows, ncols):
    """Primitive integer rows spanning the annihilator of rowspace(rows)
    in Q^ncols (QQ or integer rows; no rows give the unit vectors)."""
    m = [int_row(row)[0] for row in rows]
    return int_kernel(m, int_rref(m), ncols)


def row_space_contained(inner, outer):
    """True iff rowspace(inner) ⊆ rowspace(outer): the integer annihilator
    of the outer rows kills every inner row."""
    inner = [int_row(row)[0] for row in inner]
    return not inner or annihilates(annihilator(outer, len(inner[0])), inner)


def intersect_row_spaces(a_rows, b_rows):
    """QQ RREF basis of rowspace(A) ∩ rowspace(B): the kernel of the stacked
    integer annihilators of A and B (see `int_meet`)."""
    if not a_rows:
        return []
    n = len(a_rows[0])
    return rational_rows(*int_meet(annihilator(a_rows, n) + annihilator(b_rows, n), n)[:2])
