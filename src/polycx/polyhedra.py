"""Convex rational polyhedra given by mixed strict/non-strict inequalities.

A polyhedron is stored purely in H-representation: a list of linear
inequalities normal·x <= offset (or < for strict ones) together with a set
of "tightened" indices that have been converted to equalities.  Faces are
tightenings, the affine span comes from the implicit equalities, and
emptiness is decided by exact Fourier-Motzkin elimination on primitive
integer rows; only its witness point is rational.  Everything is
immutable; derived data is cached per instance.
"""

import itertools
from math import factorial
from dataclasses import dataclass

from .rationals import ZERO, ONE, rat, rat_str
from . import linalg


def _primitive(coeffs, offset):
    """(coeffs, offset) scaled by a positive rational to primitive integers."""
    *nums, b = linalg.primitive_row(linalg.int_row(tuple(coeffs) + (offset,))[0])
    return tuple(nums), b


@dataclass(frozen=True)
class LinearInequality:
    """normal·x <= offset, or normal·x < offset when strict."""

    normal: tuple
    offset: object
    strict: bool = False

    @staticmethod
    def make(normal, offset, strict=False):
        return LinearInequality(tuple(rat(c) for c in normal), rat(offset), bool(strict))

    def negation(self):
        """The complementary halfspace: not(a·x <= b) is -a·x < -b, etc."""
        neg = tuple(-c for c in self.normal)
        return LinearInequality(neg, -self.offset, not self.strict)

    def key(self):
        return _primitive(self.normal, self.offset) + (self.strict,)


def _solve_constraints(eqs, ineqs):
    """Feasible point of {A x = b} ∧ {c·x <= / < d}, or None.

    eqs: list of (coeffs, rhs); ineqs: list of (coeffs, offset, strict).
    Exact: equalities are removed by substitution, the rest by
    Fourier-Motzkin on primitive integer rows, with rational
    back-substitution for the witness point.
    """
    if eqs:
        nvars = len(eqs[0][0])
    elif ineqs:
        nvars = len(ineqs[0][0])
    else:
        return ()
    aug = [tuple(c) + (r,) for c, r in eqs]
    red, pivots = linalg.rref(aug)
    for row in red:
        if linalg.is_zero_vec(row[:nvars]) and row[nvars] != 0:
            return None
    if pivots and pivots[-1] == nvars:
        return None
    free = [j for j in range(nvars) if j not in set(pivots)]
    pos_of = {j: k for k, j in enumerate(free)}

    def reduce_ineq(coeffs, offset, strict):
        # substitute pivot variables x_p = red[r][n] - sum_f red[r][f] x_f
        new = [ZERO] * len(free)
        b = offset
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            if j in pos_of:
                new[pos_of[j]] += c
            else:
                r = pivots.index(j)
                b -= c * red[r][nvars]
                for f in free:
                    new[pos_of[f]] -= c * red[r][f]
        return tuple(new), b, strict

    work = []
    for coeffs, offset, strict in ineqs:
        c, b, s = reduce_ineq(coeffs, offset, strict)
        if linalg.is_zero_vec(c):
            if b < 0 or (b == 0 and s):
                return None
            continue
        c, b = _primitive(c, b)
        work.append((c, b, s))
    work = _dedupe(work)

    remaining = list(range(len(free)))
    stages = []
    while remaining:
        # eliminate the variable producing the fewest products
        best, best_cost = None, None
        for v in remaining:
            lo = sum(1 for c, _, _ in work if c[v] < 0)
            hi = sum(1 for c, _, _ in work if c[v] > 0)
            cost = lo * hi
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        remaining.remove(v)
        lows = [w for w in work if w[0][v] < 0]
        highs = [w for w in work if w[0][v] > 0]
        passed = [w for w in work if w[0][v] == 0]
        stages.append((v, lows + highs))
        new = []
        for (cl, bl, sl) in lows:
            for (ch, bh, sh) in highs:
                a = ch[v]  # > 0
                d = cl[v]  # < 0
                row = [a * x - d * y for x, y in zip(cl, ch)]
                b = a * bl - d * bh
                s = sl or sh
                if not any(row):
                    if b < 0 or (b == 0 and s):
                        return None
                    continue
                *coeffs, b = linalg.primitive_row(row + [b])
                new.append((tuple(coeffs), b, s))
        work = _dedupe(passed + new)

    # back-substitute a witness, newest stage first
    assign = [None] * len(free)
    for v, constraints in reversed(stages):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, b, s in constraints:
            rest = sum((coeffs[j] * assign[j] for j in range(len(free))
                        if j != v and coeffs[j] != 0), ZERO)
            bound = (b - rest) / coeffs[v]
            if coeffs[v] > 0:
                if hi is None or bound < hi or (bound == hi and s):
                    hi, hi_strict = bound, s
            else:
                if lo is None or bound > lo or (bound == lo and s):
                    lo, lo_strict = bound, s
        if lo is None and hi is None:
            assign[v] = ZERO
        elif lo is None:
            assign[v] = hi - 1
        elif hi is None:
            assign[v] = lo + 1
        elif lo == hi:
            if lo_strict or hi_strict:
                return None
            assign[v] = lo
        else:
            assign[v] = (lo + hi) / 2

    point = [None] * nvars
    for k, j in enumerate(free):
        point[j] = assign[k]
    for r, p in enumerate(pivots):
        point[p] = red[r][nvars] - sum(
            (red[r][f] * point[f] for f in free if red[r][f] != 0), ZERO)
    point = tuple(point)
    for coeffs, rhs in eqs:
        if linalg.dot(coeffs, point) != rhs:
            raise AssertionError("back-substitution produced a bad witness")
    for coeffs, offset, strict in ineqs:
        v = linalg.dot(coeffs, point)
        if not (v < offset if strict else v <= offset):
            raise AssertionError("back-substitution produced a bad witness")
    return point


def _dedupe(constraints):
    best = {}
    for coeffs, b, s in constraints:
        cur = best.get(coeffs)
        if cur is None or b < cur[0] or (b == cur[0] and s and not cur[1]):
            best[coeffs] = (b, s)
    return [(c, b, s) for c, (b, s) in best.items()]


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
    """Solution set of an inequality system; `tightened` indices are equalities."""

    def __init__(self, ambient_dim, inequalities, tightened=()):
        self.ambient_dim = int(ambient_dim)
        self.inequalities = tuple(
            ineq if isinstance(ineq, LinearInequality) else LinearInequality.make(*ineq)
            for ineq in inequalities)
        self.tightened = frozenset(tightened)
        for i in self.tightened:
            if self.inequalities[i].strict:
                raise ValueError("cannot tighten a strict inequality")
        for ineq in self.inequalities:
            if len(ineq.normal) != self.ambient_dim:
                raise ValueError("inequality arity does not match ambient dimension")
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_box(lo, hi):
        lo = [rat(v) for v in lo]
        hi = [rat(v) for v in hi]
        n = len(lo)
        ineqs = []
        for i in range(n):
            e = [ZERO] * n
            e[i] = ONE
            ineqs.append(LinearInequality(tuple(e), hi[i], False))
            ineqs.append(LinearInequality(tuple(-c for c in e), -lo[i], False))
        return RationalPolyhedron(n, ineqs)

    def with_tightened(self, extra):
        return RationalPolyhedron(self.ambient_dim, self.inequalities,
                                  self.tightened | frozenset(extra))

    # -- raw system view ------------------------------------------------------

    def system(self):
        eqs, ineqs = [], []
        for i, ineq in enumerate(self.inequalities):
            if i in self.tightened:
                eqs.append((ineq.normal, ineq.offset))
            else:
                ineqs.append((ineq.normal, ineq.offset, ineq.strict))
        return eqs, ineqs

    def contains(self, point):
        for i, ineq in enumerate(self.inequalities):
            v = linalg.dot(ineq.normal, point)
            if i in self.tightened:
                if v != ineq.offset:
                    return False
            elif ineq.strict:
                if not v < ineq.offset:
                    return False
            elif not v <= ineq.offset:
                return False
        return True

    # -- basic predicates ------------------------------------------------------

    def feasible_point(self):
        if "point" not in self._cache:
            eqs, ineqs = self.system()
            if not eqs and not ineqs:
                self._cache["point"] = tuple([ZERO] * self.ambient_dim)
            else:
                self._cache["point"] = _solve_constraints(eqs, ineqs)
        return self._cache["point"]

    def is_empty(self):
        return self.feasible_point() is None

    def _implicit(self):
        """(indices of implicit equalities, relative interior point)."""
        if "implicit" in self._cache:
            return self._cache["implicit"]
        if self.is_empty():
            raise ValueError("empty polyhedron has no relative interior")
        eqs, _ = self.system()
        eqs = list(eqs)
        candidates = [i for i in range(len(self.inequalities))
                      if i not in self.tightened and not self.inequalities[i].strict]
        others = [(q.normal, q.offset, True) for i, q in enumerate(self.inequalities)
                  if q.strict and i not in self.tightened]
        implicit = set()

        def strictified():
            out = list(others)
            for i in candidates:
                if i not in implicit:
                    q = self.inequalities[i]
                    out.append((q.normal, q.offset, True))
            return out

        point = _solve_constraints(eqs, strictified())
        if point is None:
            for i in candidates:
                q = self.inequalities[i]
                test = [(self.inequalities[j].normal, self.inequalities[j].offset, False)
                        for j in candidates if j != i] + others
                test.append((q.normal, q.offset, True))
                if _solve_constraints(eqs, test) is None:
                    implicit.add(i)
                    eqs.append((q.normal, q.offset))
            point = _solve_constraints(eqs, strictified())
            if point is None:
                raise AssertionError("relative interior should be non-empty")
        self._cache["implicit"] = (frozenset(implicit), point)
        return self._cache["implicit"]

    def affine_span(self):
        if self.is_empty():
            return AffineSubspace(self.ambient_dim, None, ())
        implicit, _ = self._implicit()
        rows, rhs = [], []
        for i in sorted(self.tightened | implicit):
            q = self.inequalities[i]
            rows.append(q.normal)
            rhs.append(q.offset)
        if not rows:
            basis = tuple(tuple(ONE if i == j else ZERO for j in range(self.ambient_dim))
                          for i in range(self.ambient_dim))
            return AffineSubspace(self.ambient_dim, tuple([ZERO] * self.ambient_dim), basis)
        base = linalg.solve(rows, rhs)
        dirs = tuple(linalg.nullspace(rows))
        return AffineSubspace(self.ambient_dim, base, dirs)

    def dimension(self):
        if "dim" not in self._cache:
            self._cache["dim"] = self.affine_span().dim
        return self._cache["dim"]

    # -- faces ------------------------------------------------------------------

    def tight_closure(self, extra=()):
        """Canonical tight index set of the face with `extra` tightened, or None."""
        face = self.with_tightened(extra)
        if face.is_empty():
            return None
        implicit, _ = face._implicit()
        return face.tightened | implicit

    def face(self, tight):
        return self.with_tightened(frozenset(tight))

    def enumerate_faces(self):
        """All non-empty faces (tightenings of non-strict inequalities), P first."""
        if self.is_empty():
            raise ValueError("cannot enumerate faces of an empty polyhedron")
        if "faces" in self._cache:
            return self._cache["faces"]
        root = self.tight_closure()
        seen = {root}
        order = [root]
        queue = [root]
        while queue:
            tight = queue.pop(0)
            for i in range(len(self.inequalities)):
                if i in tight or self.inequalities[i].strict:
                    continue
                child = self.tight_closure(tight | {i})
                if child is not None and child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
        faces = [self.face(t) for t in order]
        self._cache["faces"] = faces
        return faces

    # -- combination / comparison ------------------------------------------------

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ineqs = list(self.inequalities)
        tight = set(self.tightened)
        seen = {q.key() for i, q in enumerate(self.inequalities) if i not in self.tightened}
        for j, q in enumerate(other.inequalities):
            if j in other.tightened:
                tight.add(len(ineqs))
                ineqs.append(q)
            elif linalg.is_zero_vec(q.normal) and (q.offset > 0 or (q.offset == 0 and not q.strict)):
                continue  # trivially true
            elif q.key() not in seen:
                seen.add(q.key())
                ineqs.append(q)
        return RationalPolyhedron(self.ambient_dim, ineqs, tight)

    def entails(self, constraint):
        """True iff every point of self satisfies the constraint."""
        eqs, ineqs = self.system()
        neg = constraint.negation()
        return _solve_constraints(eqs, ineqs + [(neg.normal, neg.offset, neg.strict)]) is None

    def entails_equality(self, normal, offset):
        return (self.entails(LinearInequality(tuple(normal), offset, False))
                and self.entails(LinearInequality(tuple(-c for c in normal), -offset, False)))

    def _as_constraints(self):
        out = []
        for i, q in enumerate(self.inequalities):
            out.append(q)
            if i in self.tightened:
                out.append(LinearInequality(tuple(-c for c in q.normal), -q.offset, False))
        return out

    def same_solution_set(self, other):
        """Mutual entailment; exact for mixed strict/non-strict systems."""
        a_empty, b_empty = self.is_empty(), other.is_empty()
        if a_empty or b_empty:
            return a_empty and b_empty
        return (all(self.entails(c) for c in other._as_constraints())
                and all(other.entails(c) for c in self._as_constraints()))

    def is_closed_system(self):
        return all(not q.strict for q in self.inequalities)

    def canonical_key(self):
        """Hashable key identifying the solution set (closed systems only)."""
        if "key" in self._cache:
            return self._cache["key"]
        if not self.is_closed_system():
            raise ValueError("canonical keys are defined for closed systems only")
        if self.is_empty():
            key = (self.ambient_dim, "empty")
            self._cache["key"] = key
            return key
        implicit, _ = self._implicit()
        eq_idx = sorted(self.tightened | implicit)
        aug = [self.inequalities[i].normal + (self.inequalities[i].offset,) for i in eq_idx]
        eq_rows, pivots = linalg.rref(aug)
        eq_rows = tuple(eq_rows)

        def reduce_mod(normal, offset):
            row = list(normal) + [offset]
            for r, p in enumerate(pivots):
                if row[p] != 0:
                    f = row[p]
                    row = [a - f * b for a, b in zip(row, eq_rows[r])]
            return tuple(row[:-1]), row[-1]

        cand = {}
        for i, q in enumerate(self.inequalities):
            if i in eq_idx:
                continue
            n, b = reduce_mod(q.normal, q.offset)
            if linalg.is_zero_vec(n):
                continue
            n, b = _primitive(n, b)
            if n not in cand or b < cand[n]:
                cand[n] = b
        eqs = [(self.inequalities[i].normal, self.inequalities[i].offset) for i in eq_idx]
        kept = dict(cand)
        for n in list(cand):
            if n not in kept:
                continue
            b = kept[n]
            rest = [(m, c, False) for m, c in kept.items() if m != n]
            neg = (tuple(-x for x in n), -b, True)
            if _solve_constraints(eqs, rest + [neg]) is None:
                del kept[n]
        key = (self.ambient_dim, eq_rows, frozenset(kept.items()))
        self._cache["key"] = key
        return key

    # -- vertices / boundedness / volume -----------------------------------------

    def vertices(self):
        """Vertex points (0-dimensional faces); internal helper."""
        pts = []
        for f in self.enumerate_faces():
            if f.dimension() == 0:
                pts.append(f.affine_span().basepoint)
        return sorted(set(pts))

    def is_bounded(self):
        if "bounded" in self._cache:
            return self._cache["bounded"]
        if self.is_empty():
            self._cache["bounded"] = True
            return True
        eqs, ineqs = self.system()
        rec_eqs = [(c, ZERO) for c, _ in eqs]
        rec_ineqs = [(c, ZERO, False) for c, _, _ in ineqs]
        bounded = True
        for j in range(self.ambient_dim):
            for sign in (ONE, -ONE):
                e = [ZERO] * self.ambient_dim
                e[j] = sign
                probe = rec_eqs + [(tuple(e), ONE)]
                if _solve_constraints(probe, rec_ineqs) is not None:
                    bounded = False
                    break
            if not bounded:
                break
        self._cache["bounded"] = bounded
        return bounded

    def triangulate(self):
        """Fan triangulation of a bounded polytope via its face lattice.

        Returns a list of simplices, each a tuple of vertex points with
        dim(P)+1 affinely independent entries.
        """
        if self.is_empty():
            return []
        if not self.is_bounded():
            raise ValueError("triangulation requires a bounded polyhedron")
        faces = self.enumerate_faces()
        info = []
        for f in faces:
            span = f.affine_span()
            info.append((f.tightened | f._implicit()[0], f.dimension(), span))
        vert_of = {}
        for tight, d, span in info:
            if d == 0:
                vert_of[tight] = span.basepoint

        def verts_in(tight):
            return sorted(p for t, p in vert_of.items() if t >= tight)

        def tri(tight, d):
            if d == 0:
                return [(vert_of[tight],)]
            v0 = verts_in(tight)[0]
            out = []
            for t2, d2, _ in info:
                if d2 == d - 1 and t2 > tight and v0 not in verts_in(t2):
                    for s in tri(t2, d2):
                        out.append(s + (v0,))
            return out

        root, d, _ = info[0]
        return tri(root, d)


def simplex_volume(points):
    """Volume of the simplex on d+1 points in Q^d."""
    base = points[0]
    rows = [tuple(p[i] - base[i] for i in range(len(base))) for p in points[1:]]
    return abs(linalg.det(rows)) / factorial(len(rows))


def polytope_volume(poly):
    """Exact volume of a bounded full-dimensional polytope."""
    if poly.is_empty():
        return ZERO
    if poly.dimension() != poly.ambient_dim:
        return ZERO
    return sum((simplex_volume(s) for s in poly.triangulate()), ZERO)


def convex_hull_inequalities(points):
    """H-representation of the hull of a full-dimensional point set in Q^d."""
    d = len(points[0])
    pts = [tuple(rat(c) for c in p) for p in points]
    seen = {}
    for subset in itertools.combinations(range(len(pts)), d):
        base = pts[subset[0]]
        rows = [tuple(pts[i][k] - base[k] for k in range(d)) for i in subset[1:]]
        normals = linalg.nullspace(rows) if rows else [
            tuple(ONE if i == 0 else ZERO for i in range(d))]
        if len(normals) != 1:
            continue
        normal = normals[0]
        offset = linalg.dot(normal, base)
        lo = hi = False
        for p in pts:
            v = linalg.dot(normal, p)
            if v > offset:
                hi = True
            elif v < offset:
                lo = True
        if hi and lo:
            continue
        if hi:
            normal = tuple(-c for c in normal)
            offset = -offset
        n, b = _primitive(normal, offset)
        if n not in seen or b < seen[n]:
            seen[n] = b
    ineqs = [LinearInequality.make(n, b) for n, b in sorted(seen.items())]
    return RationalPolyhedron(d, ineqs)


# -- POLY/1 text format ----------------------------------------------------------

def format_poly(poly):
    """Serialize to POLY/1; tightened rows are written as inequality pairs."""
    rows = []
    for i, q in enumerate(poly.inequalities):
        rel = "<" if q.strict else "<="
        rows.append("%s %s %s" % (" ".join(rat_str(c) for c in q.normal), rel, rat_str(q.offset)))
        if i in poly.tightened:
            rows.append("%s <= %s" % (" ".join(rat_str(-c) for c in q.normal), rat_str(-q.offset)))
    out = ["%d %d" % (poly.ambient_dim, len(rows))]
    out.extend(rows)
    return "\n".join(out) + "\n"


def parse_poly(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("POLY/1: empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("POLY/1: header must be 'N m' (line 1)")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError("POLY/1: expected %d constraint rows, got %d" % (m, len(lines) - 1))
    ineqs = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != n + 2:
            raise ValueError("POLY/1: bad row arity (line %d)" % lineno)
        rel = parts[n]
        if rel not in ("<=", "<"):
            raise ValueError("POLY/1: relation must be <= or < (line %d)" % lineno)
        normal = tuple(rat(p) for p in parts[:n])
        offset = rat(parts[n + 1])
        ineqs.append(LinearInequality(normal, offset, rel == "<"))
    return RationalPolyhedron(n, ineqs)
