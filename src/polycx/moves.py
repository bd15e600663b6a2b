"""Dual complexes of stratified intersection data and the two moves that
leave their homotopy type unchanged: barycentric subdivision of a simplex
and coning over a closed star."""

import itertools
from dataclasses import dataclass

from .simplicial import SimplicialComplex, label_key


@dataclass(frozen=True)
class DualComplexMove:
    kind: str      # "barycentric" or "cone-over-star"
    target: tuple  # vertex labels of the target simplex

    def __post_init__(self):
        if self.kind not in ("barycentric", "cone-over-star"):
            raise ValueError("unknown move kind: %r" % (self.kind,))


def stellar_subdivide(K, simplex):
    """Star the complex at one simplex: its open star is replaced by the
    cone from a fresh barycenter vertex.

    A local edit of the simplex set S.  For the target s and the new
    vertex b the result is

        (S minus the open star of s)  ∪  {a ∪ (t − s) ∪ {b} : t ⊇ s in S, a ⊊ s}

    on the old vertices and b, and it is closed under faces as it stands.
    A face holding b is a' ∪ r' ∪ {b} with a' ⊆ a ⊊ s and r' ⊆ t − s, and
    s ∪ r' ⊆ t lies in S and contains s, so that face is added as well.  A
    face missing b is a subset of t that does not contain s, so it is
    kept.  Hence no sort and no closure pass are needed.
    """
    fs = frozenset(simplex)
    if fs not in K:
        raise ValueError("target simplex not in complex")
    if len(fs) == 1:
        return K
    b = "b(%s)" % ",".join(str(v) for v in sorted(fs, key=label_key))
    if (b,) in K:
        raise ValueError("barycenter label %r already used" % (b,))
    proper = [frozenset(a) for r in range(len(fs))
              for a in itertools.combinations(fs, r)]
    out = set()
    for t in K:
        if fs <= t:
            rest = (t - fs) | {b}
            out.update(a | rest for a in proper)
        else:
            out.add(t)
    return SimplicialComplex._of_closed(out, K._vertices | {b})


def barycentric_move(K, simplex):
    """Replace the closed target simplex by its barycentric subdivision,
    extended through all incident simplices (stellar subdivisions of its
    faces in decreasing dimension)."""
    fs = frozenset(simplex)
    if fs not in K:
        raise ValueError("target simplex not in complex")
    out = K
    for size in range(len(fs), 1, -1):
        for face in itertools.combinations(sorted(fs, key=label_key), size):
            out = stellar_subdivide(out, frozenset(face))
    return out


def cone_over_star(K, simplex):
    """Attach the cone over the closed star of the target simplex.

    A local edit of the simplex set S: for the target s and the apex c the
    result is S ∪ {t ∪ {c} : t in the closed star of s} ∪ {{c}}.  A simplex
    t lies in the closed star iff t ∪ s lies in S, and the closed star is
    closed under faces, so the result is too.
    """
    fs = frozenset(simplex)
    if fs not in K:
        raise ValueError("target simplex not in complex")
    c = "c(%s)" % ",".join(str(v) for v in sorted(fs, key=label_key))
    if (c,) in K:
        raise ValueError("cone label %r already used" % (c,))
    apex = frozenset([c])
    out = set(K)
    out.add(apex)
    out.update(t | apex for t in K if t | fs in K)
    return SimplicialComplex._of_closed(out, K._vertices | {c})


def dual_move(K, move):
    if move.kind == "barycentric":
        return barycentric_move(K, move.target)
    return cone_over_star(K, move.target)


def dual_complex(components, strata):
    """Dual complex of intersection data.

    components: vertex labels.  strata: map from frozensets of labels to the
    number of connected components of the corresponding intersection.  A
    stratum with count m >= 2 is realized as m subdivided copies of the
    simplex glued along their common boundary.
    """
    components = list(components)
    comp_set = set(components)
    counts = {}
    for J, m in strata.items():
        J = frozenset(J)
        if not J <= comp_set:
            raise ValueError("stratum %r uses unknown components" % (sorted(J, key=label_key),))
        if not J:
            raise ValueError("empty stratum")
        m = int(m)
        if m < 0:
            raise ValueError("negative component count")
        if m > 0:
            counts[J] = m
    for J in counts:
        for r in range(1, len(J)):
            for sub in itertools.combinations(sorted(J, key=label_key), r):
                if frozenset(sub) not in counts:
                    raise ValueError(
                        "strata not downward-closed: %r is missing under %r"
                        % (list(sub), sorted(J, key=label_key)))
    for J, m in counts.items():
        if len(J) == 1 and m != 1:
            raise ValueError("a component is a single vertex; count must be 1")
        if m >= 2:
            if any(J < J2 for J2 in counts):
                raise ValueError(
                    "unsupported strata: %r has multiplicity %d below a larger stratum"
                    % (sorted(J, key=label_key), m))
    simplices = []
    for J, m in counts.items():
        if m == 1:
            simplices.append(J)
        else:
            verts = sorted(J, key=label_key)
            for t in range(1, m + 1):
                apex = "z%d(%s)" % (t, ",".join(str(v) for v in verts))
                for r in range(len(J)):
                    for F in itertools.combinations(verts, r):
                        simplices.append(frozenset(F) | {apex})
    return SimplicialComplex(simplices, vertices=components)
