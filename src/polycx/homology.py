"""Simplicial homology over Z and Q via integer Smith normal form.

The SNF routine records the row and column operations that carry M to its
diagonal form D in one log; the transforms U and V are read off that log.
A result is certified by replaying the log on M: the replay must give D
exactly, and each logged operation is an integer matrix of determinant
+-1, so U and V are unimodular.  Homology uses boundary matrices of the
ordered simplices of a complex, built and checked once per complex.
Boundary matrices are mostly zeros, so every routine here loops over
nonzero entries only; a zero term adds nothing to a sum, so skipping it
changes no value.
"""

import weakref
from dataclasses import dataclass
from itertools import compress

from . import linalg
from .simplicial import label_key


# -- integer matrices -------------------------------------------------------------

def _nonzeros(row, start=0):
    """Indices >= start of the nonzero entries of a row, in order."""
    return list(compress(range(start, len(row)), row[start:]))


def mat_mul(A, B):
    """Product of integer matrices given as lists of rows.  A matrix with
    no rows has no width, so B = [] is read as 0 x 0 and A B as n x 0."""
    p = len(B[0]) if B else 0
    nonzero = [[(j, Bk[j]) for j in _nonzeros(Bk)] for Bk in B]
    out = []
    for Ai in A:
        row = [0] * p
        for k in _nonzeros(Ai):
            a = Ai[k]
            for j, b in nonzero[k]:
                row[j] += a * b
        out.append(row)
    return out


# A Smith form's log holds four ints (code, dst, src, q) per operation.
# Codes 0-2 act on the rows of U and codes 3-5 on the rows of V^T (the
# columns of V): SWAP exchanges rows dst and src, ADD adds q times row src
# to row dst, NEGATE negates row dst (src = dst, q = 0 as written).
SWAP, ADD, NEGATE = 0, 1, 2
V_SIDE = 3


def _operations(log, m, n):
    """The logged operations of U, on m rows, and of V^T, on n rows: two
    lists of (kind, dst, src, q) in log order.  Raises ValueError if the
    log leaves its grammar: a length that is not a multiple of four, an
    entry that is not an int, an unknown code, an index out of range on
    its side, or an ADD with src = dst (the one operation that would scale
    a row)."""
    if len(log) % 4 or not set(map(type, log)) <= {int}:
        raise ValueError("a Smith form log holds four ints per operation")
    sides = ([], [])
    sizes = (m, n)
    ops = iter(log)
    for code, dst, src, q in zip(ops, ops, ops, ops):
        if not 0 <= code < 2 * V_SIDE:
            raise ValueError("unknown Smith form operation code %d" % code)
        s, kind = divmod(code, V_SIDE)
        size = sizes[s]
        if not (0 <= dst < size and 0 <= src < size) or (kind == ADD and dst == src):
            raise ValueError("Smith form operation %r is outside the grammar on %d rows"
                             % ((code, dst, src, q), size))
        sides[s].append((kind, dst, src, q))
    return sides


def _replay(ops, R):
    """Apply operations of one side, checked by `_operations`, in order to
    R, a list of sparse rows (dicts {column: nonzero entry}), and return R."""
    for kind, dst, src, q in ops:
        if kind == SWAP:
            R[dst], R[src] = R[src], R[dst]
        elif kind == ADD:
            row = R[dst]
            for k, a in R[src].items():
                b = row.get(k, 0) + q * a
                if b:
                    row[k] = b
                else:
                    row.pop(k, None)
        else:
            R[dst] = {k: -a for k, a in R[dst].items()}
    return R


@dataclass
class SmithForm:
    diagonal: list           # full diagonal matrix U M V
    invariant_factors: list  # the nonzero d_1 | d_2 | ...
    log: list                # the operations U and V are made of, see _operations

    @property
    def U(self):
        """U as a dense m x m list of rows: I_m after the logged row
        operations."""
        m, n = len(self.diagonal), len(self.diagonal[0]) if self.diagonal else 0
        rows = _replay(_operations(self.log, m, n)[0], [{i: 1} for i in range(m)])
        return [[row.get(j, 0) for j in range(m)] for row in rows]

    @property
    def V(self):
        """V as a dense n x n list of rows: the transpose of I_n after the
        logged column operations, which act on the rows of V^T."""
        m, n = len(self.diagonal), len(self.diagonal[0]) if self.diagonal else 0
        rows = _replay(_operations(self.log, m, n)[1], [{j: 1} for j in range(n)])
        return [[row.get(i, 0) for row in rows] for i in range(n)]

    def certify(self, M):
        """True iff this is a Smith normal form of M: the invariant factors
        are positive, each divides the next, D is the m x n diagonal matrix
        of them padded with zeros, and the logged operations carry M to D.
        Row operations multiply on the left and column operations on the
        right, so they commute: replaying the row operations on the rows of
        M gives U M, and replaying the column operations on the rows of
        (U M)^T gives (U M V)^T, which must be exactly D^T.  Every operation
        the log admits is an integer matrix of determinant +-1, so U and V
        are unimodular.  The log's grammar is checked once, and each replay
        walks only its own side's operations.  No product and no
        determinant is computed."""
        m, n = len(M), len(M[0]) if M else 0
        factors = self.invariant_factors
        if (len(factors) > min(m, n) or any(d <= 0 for d in factors)
                or any(b % a for a, b in zip(factors, factors[1:]))):
            return False
        zero = [0] * n
        D = [zero] * m  # rows past the factors share one zero row
        for i, d in enumerate(factors):
            D[i] = zero[:i] + [d] + zero[i + 1:]
        if self.diagonal != D:
            return False
        try:
            u_ops, v_ops = _operations(self.log, m, n)
        except ValueError:
            return False
        UM = _replay(u_ops, [{j: row[j] for j in _nonzeros(row)} for row in M])
        T = [{} for _ in range(n)]
        for i, row in enumerate(UM):
            for j, a in row.items():
                T[j][i] = a
        T = _replay(v_ops, T)
        return T == [{j: d} for j, d in enumerate(factors)] + [{}] * (n - len(factors))


def smith_normal_form(M):
    """Smith normal form D of M with the log of the row and column
    operations that carry M to D; U and V, with U M V = D, are read off the
    log.

    The pivot is the first entry of least absolute value in row-major order
    of the part of A not yet diagonalised.  Rows and columns before the
    pivot position t are already zero off the diagonal, so in A only
    columns >= t of rows >= t are ever read or changed.  A row >= t that
    is zero in the columns >= t stays zero: no row operation adds to it
    (its entry in column t is 0), column operations combine its zeros, and
    the pivot row folds other rows into itself, never into it.  So the
    pivot search records such rows (`zero`) and skips them; the swap that
    brings the pivot row to t moves a recorded row with it.

    At a fixed t the absolute pivot never rises (it stays at (t, t)) and
    drops at least once every two passes: a remainder lowers the next
    pivot, and a stray-row fold is followed by a column pass that leaves
    one.  A pass that breaks this raises AssertionError."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    log = []
    zero = set()

    def min_entry(t):
        best, least = None, 0
        for i in range(t, m):
            if i in zero:
                continue
            row = A[i]
            j = None
            for j in compress(range(t, n), row[t:]):
                a = abs(row[j])
                if best is None or a < least:
                    best, least = (i, j), a
                    if a == 1:  # nothing is smaller
                        return best
            if j is None:
                zero.add(i)
        return best

    t = 0
    before = [0, 0]  # |pivot| two passes and one pass ago at t, 0 for none
    while True:
        pos = min_entry(t)
        if pos is None:
            break
        # re-pick the smallest pivot after every pass: keeps entries small
        i, j = pos
        if i != t:
            A[t], A[i] = A[i], A[t]
            log += (SWAP, t, i, 0)
            if t in zero:
                zero.remove(t)
                zero.add(i)
        if j != t:
            for row in A[t:]:
                row[t], row[j] = row[j], row[t]
            log += (V_SIDE + SWAP, t, j, 0)
        At = A[t]
        p = At[t]
        if before[0] and abs(p) >= before[0]:
            raise AssertionError("Smith form: the pivot %d at position %d is no smaller than "
                                 "the pivot %d two passes before" % (p, t, before[0]))
        before = [before[1], abs(p)]
        # row t is not changed by the row operations below it, nor column t
        # by the column operations right of it
        a_cols = _nonzeros(At, t)
        reduced_something = False
        for i in range(t + 1, m):
            Ai = A[i]
            if Ai[t]:
                q = Ai[t] // p
                if q:  # row_i -= q * row_t
                    for k in a_cols:
                        Ai[k] -= q * At[k]
                    log += (ADD, i, t, -q)
                if Ai[t]:
                    reduced_something = True
        a_rows = [i for i in range(t, m) if A[i][t]]
        for j in a_cols[1:]:
            q = At[j] // p
            if q:  # col_j -= q * col_t
                for i in a_rows:
                    Ai = A[i]
                    Ai[j] -= q * Ai[t]
                log += (V_SIDE + ADD, j, t, -q)
            if At[j]:
                reduced_something = True
        if reduced_something:
            continue  # leftover remainders are smaller; re-pivot on them
        if p not in (1, -1):  # a unit divides every entry
            stray = next((i for i in range(t + 1, m)
                          if any(a % p for a in A[i][t + 1:])), None)
            if stray is not None:  # fold the stray row into the pivot row
                As = A[stray]
                for k in _nonzeros(As, t):
                    At[k] += As[k]
                log += (ADD, t, stray, 1)
                continue
        if p < 0:
            A[t] = [-a for a in At]
            log += (NEGATE, t, t, 0)
        t += 1
        before = [0, 0]
    factors = [A[i][i] for i in range(t)]
    return SmithForm(A, factors, log)


def int_rank(M):
    return linalg.int_rank(M)


# -- chain complexes ----------------------------------------------------------------

class ChainComplex:
    """Boundary matrices over Z; boundaries[k] maps k-chains to (k-1)-chains.
    The rows are kept as given, not copied."""

    def __init__(self, ranks, boundaries):
        self.ranks = list(ranks)
        self.boundaries = dict(boundaries)
        for k in sorted(self.boundaries):
            if k - 1 in self.boundaries:
                if any(map(any, mat_mul(self.boundaries[k - 1], self.boundaries[k]))):
                    raise AssertionError("boundary of boundary is nonzero")

    @staticmethod
    def of_complex(K):
        """The chain complex of K, with its own copy of every row: a caller
        may edit it without touching the checked complex that homology
        shares."""
        cc = _checked_complex(K)
        out = ChainComplex.__new__(ChainComplex)
        out.ranks = list(cc.ranks)
        out.boundaries = {k: [row[:] for row in M] for k, M in cc.boundaries.items()}
        return out


def _build_complex(K):
    # each simplex sorted once, into its label keys; the key lists of one
    # dimension sort into the order of K.simplices(k)
    dim = K.dim()
    keys = {k: [] for k in range(dim + 1)}
    for s in K:
        keys[len(s) - 1].append(sorted(map(label_key, s)))
    simplices = {k: [tuple(v for _, v in key) for key in sorted(keys[k])] for k in keys}
    index = {k: {s: i for i, s in enumerate(simplices[k])} for k in simplices}
    ranks = [len(simplices[k]) for k in range(dim + 1)]
    boundaries = {}
    for k in range(1, dim + 1):
        M = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for j, s in enumerate(simplices[k]):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                M[index[k - 1][face]][j] = (-1) ** drop
        boundaries[k] = M
    return ChainComplex(ranks, boundaries)


# one slot: a weak reference to the last complex and its checked chain
# complex, which nothing edits.  A SimplicialComplex is not changed after it
# is built, and a dead reference matches no complex.
_last_complex = (lambda: None, None)


def _checked_complex(K):
    """The chain complex of K, built and checked for d d = 0 once while K is
    the last complex asked for."""
    global _last_complex
    ref, cc = _last_complex
    if ref() is not K:
        cc = _build_complex(K)
        _last_complex = (weakref.ref(K), cc)
    return cc


@dataclass
class HomologyProfile:
    """Unreduced homology; betti over Q, torsion invariant factors over Z."""

    betti: tuple
    torsion: tuple  # per dimension, a tuple of invariant factors > 1

    def reduced_betti(self):
        if not self.betti:
            return ()
        return (max(self.betti[0] - 1, 0),) + self.betti[1:]

    def betti_at(self, k):
        return self.betti[k] if 0 <= k < len(self.betti) else 0


def homology(K, ring="Z"):
    if ring not in ("Z", "Q"):
        raise ValueError("ring must be 'Z' or 'Q'")
    cc = _checked_complex(K)
    dim = len(cc.ranks) - 1
    if dim < 0:
        return HomologyProfile((), ())
    rank_d = {}
    snf_d = {}
    for k in range(1, dim + 1):
        M = cc.boundaries[k]
        if ring == "Z":
            snf_d[k] = smith_normal_form(M)
            if not snf_d[k].certify(M):
                raise AssertionError("Smith form of boundary %d failed certification" % k)
            rank_d[k] = len(snf_d[k].invariant_factors)
        else:
            rank_d[k] = int_rank(M)
    betti = []
    torsion = []
    for k in range(dim + 1):
        rk = cc.ranks[k]
        r_in = rank_d.get(k + 1, 0)
        r_out = rank_d.get(k, 0)
        betti.append(rk - r_out - r_in)
        if ring == "Z" and k + 1 in snf_d:
            torsion.append(tuple(d for d in snf_d[k + 1].invariant_factors if d > 1))
        else:
            torsion.append(())
    return HomologyProfile(tuple(betti), tuple(torsion))
