"""Simplicial homology over Z and Q via integer Smith normal form.

The SNF routine records the unimodular row/column transforms so results
can be certified by re-multiplication; homology uses boundary matrices of
the ordered simplices of a complex.
"""

from dataclasses import dataclass

from . import linalg
from .simplicial import label_key


# -- integer matrices -------------------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return []
    n, m, p = len(A), len(B), len(B[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(m):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(p):
                    row[j] += a * Bk[j]
    return out


@dataclass
class SmithForm:
    diagonal: list          # full diagonal matrix U M V
    invariant_factors: list  # the nonzero d_1 | d_2 | ...
    U: list
    V: list

    def certify(self, M):
        prod = mat_mul(mat_mul(self.U, M), self.V)
        if prod != self.diagonal and not (not prod and not self.diagonal):
            return False
        if self.U and abs(linalg.int_det(self.U)) != 1:
            return False
        if self.V and abs(linalg.int_det(self.V)) != 1:
            return False
        return True


def smith_normal_form(M):
    """Smith normal form with recorded unimodular transforms U M V = D."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = _identity(m)
    V = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

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
        # re-pick the smallest pivot after every pass: keeps entries small
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
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
            continue  # leftover remainders are smaller; re-pivot on them
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            row_op(t, stray, -1)  # fold the stray row into the pivot row
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    factors = [A[i][i] for i in range(t)]
    return SmithForm(A, factors, U, V)


def int_rank(M):
    return linalg.int_rank(M)


# -- chain complexes ----------------------------------------------------------------

class ChainComplex:
    """Boundary matrices over Z; boundaries[k] maps k-chains to (k-1)-chains."""

    def __init__(self, ranks, boundaries):
        self.ranks = list(ranks)
        self.boundaries = {k: [row[:] for row in M] for k, M in boundaries.items()}
        for k in sorted(self.boundaries):
            if k - 1 in self.boundaries:
                prod = mat_mul(self.boundaries[k - 1], self.boundaries[k])
                if any(any(x != 0 for x in row) for row in prod):
                    raise AssertionError("boundary of boundary is nonzero")

    @staticmethod
    def of_complex(K):
        dim = K.dim()
        simplices = {k: [tuple(sorted(s, key=label_key))
                         for s in K.simplices(k)] for k in range(dim + 1)}
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
    cc = ChainComplex.of_complex(K)
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
