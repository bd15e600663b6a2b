"""Polyhedral complexes: finite posets of polyhedra with inclusion morphisms.

A complex stores a map FaceId -> RationalPolyhedron and the strict
incidence relation (a, b) meaning "a is a proper face of b".  Everything
downstream (facets, residues, nerves, simplicity, differences) is a poset
computation on top of the exact polyhedron layer.

Building a complex reads every face's dimension.  Faces are visited by
increasing down-set, and each face's guess at a relative-interior point is
the mean of those of the faces below it (a face with nothing below guesses
the solution of its equalities).  A guess that passes the exact check of
`RationalPolyhedron.relint_point` certifies the face's tight set,
dimension and affine span without a face record; that is the usual case
for a parsed CPLX/1, whose faces carry their equalities as row pairs.
Where the faces below do not span a one-dimensional face (a half-line over
its vertex, an open ray, an edge whose other end was cut off), the guess
is retried at the middle of the face's line, under the same check.  A face
whose guesses fail (forged incidences, unbounded or half-open faces of
dimension two or more, equalities not written as pairs) builds its
certified record, and an empty face is rejected.  The faces that
`difference` cuts keep their parent's record, with the cut rows appended.
"""

import itertools
import json
from math import lcm

from .rationals import ratio_str
from .polyhedra import _dot, _scaled, format_poly, parse_poly
from .simplicial import SimplicialComplex


class PolyhedralComplex:

    def __init__(self, ambient_dim, faces, above):
        self.ambient_dim = int(ambient_dim)
        self.faces = dict(faces)
        succ = {}
        for a, b in above:
            if a != b:
                succ.setdefault(a, set()).add(b)
        # transitive closure, so callers may pass generators only: a depth
        # first walk on an explicit stack, so a long chain needs no deep
        # recursion; a face's closure is None while it is open
        reach = {}
        for root in succ:
            if root in reach:
                continue
            reach[root] = None
            stack = [(root, iter(succ[root]))]
            while stack:
                a, rest = stack[-1]
                for b in rest:
                    if b not in reach:
                        reach[b] = None
                        stack.append((b, iter(succ.get(b, ()))))
                        break
                    if reach[b] is None:  # reached again while its closure is open
                        raise ValueError("incidences form a cycle through face %r" % (b,))
                else:
                    stack.pop()
                    out = reach[a] = set()
                    for b in succ.get(a, ()):
                        out.add(b)
                        out |= reach[b]
        if not reach.keys() <= self.faces.keys():
            raise ValueError("incidence pair references unknown face id")
        # the closure and its inverse: strict up-set and down-set of each face
        self._above = {i: reach.get(i, set()) for i in self.faces}
        self._below = {i: set() for i in self.faces}
        for a, bs in self._above.items():
            for b in bs:
                self._below[b].add(a)
        # the faces below a face lie in it: their points' mean is its guess
        relint = {}
        for i in sorted(self.faces, key=lambda i: len(self._below[i])):
            relint[i] = self.faces[i].relint_point([relint[b] for b in self._below[i]])
            if relint[i] is None:
                raise ValueError("face %r is empty" % (i,))
        self._dim_of = {i: p.dimension() for i, p in self.faces.items()}
        self._key_to_id = None

    # -- poset ------------------------------------------------------------------

    def ids(self):
        return sorted(self.faces)

    def leq(self, a, b):
        return a == b or b in self._above.get(a, ())

    def above_of(self, c):
        if c not in self.faces:
            raise KeyError("unknown face id: %r" % (c,))
        return {c} | self._above[c]

    def below_of(self, c):
        if c not in self.faces:
            raise KeyError("unknown face id: %r" % (c,))
        return {c} | self._below[c]

    def incidences(self):
        """Sorted strict incidence pairs (a, b): a is a proper face of b."""
        return sorted((a, b) for a, bs in self._above.items() for b in bs)

    def face_dim(self, c):
        return self._dim_of[c]

    def facets(self):
        return sorted(i for i in self.faces if not self._above[i])

    def dim(self):
        return max(self._dim_of.values()) if self.faces else -1

    def is_pure(self):
        n = self.dim()
        return all(self._dim_of[f] == n for f in self.facets())

    def restricted(self, ids):
        """Full sub-poset on the given face ids (no closure performed)."""
        ids = set(ids)
        faces = {i: self.faces[i] for i in ids}
        above = {(a, b) for a in ids for b in self._above[a] if b in ids}
        return PolyhedralComplex(self.ambient_dim, faces, above)

    def residue(self, c):
        """All faces receiving an incidence map from c (the up-set of c)."""
        return self.restricted(self.above_of(c))

    def is_downward_closed(self, ids):
        ids = set(ids)
        return all(ids.issuperset(self._below.get(b, ())) for b in ids)

    def downward_closure(self, ids):
        out = set(ids)
        for i in set(ids):
            out |= self.below_of(i)
        return out

    # -- nerve and simplicity -----------------------------------------------------

    def nerve(self):
        """Simplicial complex on the facets; a k-simplex for every k+1 facets
        sharing an incidence map from some (n-k)-face."""
        if not self.is_pure():
            raise ValueError("nerve requires a pure complex")
        n = self.dim()
        tops = self.facets()
        top_set = set(tops)
        simplices = [[f] for f in tops]
        for c in self.ids():
            k = n - self._dim_of[c]
            over = sorted(self.above_of(c) & top_set)
            if k >= 1 and len(over) >= k + 1:
                for s in itertools.combinations(over, k + 1):
                    simplices.append(s)
        return SimplicialComplex(simplices)

    def is_simple(self):
        """(flag, witness): every residue's nerve is a full simplex boundary
        lattice, i.e. the facets above each face span a common simplex."""
        if not self.faces:
            return True, None
        if not self.is_pure():
            n = self.dim()
            bad = min(f for f in self.facets() if self._dim_of[f] != n)
            return False, bad
        n = self.dim()
        top_set = set(self.facets())
        for c in self.ids():
            over = sorted(self.above_of(c) & top_set)
            m = len(over) - 1
            # the full facet set above c must be dual to a face of dim n-m
            ok = any(
                self._dim_of[d] == n - m and all(self.leq(d, f) for f in over)
                for d in self.above_of(c))
            if not ok:
                return False, c
        return True, None

    # -- difference -------------------------------------------------------------

    def difference(self, removed_ids):
        """Delete a subcomplex pointwise; surviving faces keep their ids."""
        removed = set(removed_ids)
        if not removed <= set(self.faces):
            raise ValueError("unknown face id in subcomplex")
        if not self.is_downward_closed(removed):
            raise ValueError("not a subcomplex: the face set is not closed under taking faces")
        survivors = [i for i in self.ids() if i not in removed]
        new_faces = {}
        for c in survivors:
            poly = self.faces[c]
            below = [b for b in self.below_of(c) if b in removed]
            maximal = [b for b in below
                       if not any(b != b2 and self.leq(b, b2) for b2 in below)]
            cuts = [_cut_inequality(poly, self.faces[b]) for b in maximal]
            if cuts:
                # a cut row is a sum of rows of poly, so it holds on poly
                poly = poly.with_valid_rows(cuts)
            new_faces[c] = poly
        above = {(a, b) for a, b in self.incidences()
                 if a in new_faces and b in new_faces}
        return PolyhedralComplex(self.ambient_dim, new_faces, above)

    # -- triangulation -------------------------------------------------------------

    def order_complex(self):
        """Chains of the face poset as a simplicial complex.

        For a complex of closed bounded polytopes this is the barycentric
        subdivision, hence a triangulation of the underlying space.
        """
        ids = self.ids()
        simplices = []

        def extend(chain):
            simplices.append(tuple(chain))
            top = chain[-1]
            for b in sorted(self.above_of(top) - {top}):
                extend(chain + [b])

        for c in ids:
            extend([c])
        return SimplicialComplex(simplices, vertices=ids)

    # -- construction from cells ----------------------------------------------------

    @staticmethod
    def from_subdivision(cells):
        """The complex of closed cells and all their faces.  Every pair of
        cells is checked to meet in a common face or not at all."""
        cells = list(cells)
        if not cells:
            raise ValueError("need at least one cell")
        ambient = cells[0].ambient_dim
        for c in cells:
            if c.ambient_dim != ambient:
                raise ValueError("cells live in different ambient spaces")
            if c.is_empty():
                raise ValueError("empty cell")
            if not c.is_closed_system():
                raise ValueError("cells must be closed polyhedra")
        face_keys = [{f.canonical_key() for f in c.enumerate_faces()} for c in cells]
        for i, j in itertools.combinations(range(len(cells)), 2):
            inter = cells[i].intersect(cells[j])
            if inter.is_empty():
                continue
            k = inter.canonical_key()
            if k not in face_keys[i] or k not in face_keys[j]:
                raise ValueError(
                    "intersection of cells %d and %d is not a common face" % (i, j))
        return PolyhedralComplex._of_cells(cells)

    @staticmethod
    def _of_cells(cells):
        """The complex of non-empty closed cells in one ambient space, any
        two of which meet in a common face or not at all (not checked
        here).  A face shared by several cells is represented by its copy
        in the first of them.  Faces are numbered by dimension, which each
        face's canonical key has cached, then by `_key_token`.  Within a
        cell, one face lies in another iff its tight set is larger."""
        seen = {}  # canonical key -> index in first
        first = []  # (face, key) of each distinct face, in order of first sight
        pairs = set()
        for cell in cells:
            entries = []  # (index, tight set) of each face
            for f in cell.enumerate_faces():
                k = f.canonical_key()
                i = seen.get(k)
                if i is None:
                    i = seen[k] = len(first)
                    first.append((f, k))
                entries.append((i, f.tightened))
            for (a, ta), (b, tb) in itertools.permutations(entries, 2):
                if ta > tb:
                    pairs.add((a, b))
        order = sorted(range(len(first)),
                       key=lambda i: (first[i][0].dimension(), _key_token(first[i][1])))
        idx = {i: n for n, i in enumerate(order)}
        faces = {n: first[i][0] for n, i in enumerate(order)}
        above = {(idx[a], idx[b]) for a, b in pairs}
        return PolyhedralComplex(cells[0].ambient_dim, faces, above)

    def id_of_polyhedron(self, poly):
        """FaceId whose face has the same solution set, or None."""
        if self._key_to_id is None:
            self._key_to_id = {p.canonical_key(): i for i, p in self.faces.items()
                               if p.is_closed_system()}
        return self._key_to_id.get(poly.canonical_key())


def _cut_inequality(poly, face):
    """Strict row cutting a closed proper face off `poly`, as (row, scale)
    for `with_valid_rows`: its left-hand side vanishes exactly on that face.

    It sums the written non-strict, untightened rows of `poly` tight at the
    face's relative-interior point, which the complex has certified, each
    as its integer row times its scale over the lcm of the scales'
    denominators.  A row that holds on the face and is tight there is tight
    on the whole face (Rockafellar, Convex Analysis, 1970, 32.1), and
    `same_solution_set` checks that tightening these rows gives the face.
    The face is proper only if one of these rows is not tight on all of
    `poly`; otherwise the sum would be the empty cut 0·x < 0."""
    nums, den = face.relint_point()
    tight = [i for i, (a, b) in enumerate(poly.rows)
             if i not in poly.tightened and i not in poly._strict
             and _dot(a, nums) == b * den]
    if set(tight) <= (poly._root() or set()):
        raise ValueError("face to remove is not a proper face of the polyhedron")
    check = poly.with_tightened(poly.tightened | set(tight))
    if not check.same_solution_set(face):
        raise ValueError("face to remove is not a face of the polyhedron")
    common = lcm(*(poly.scales[i][1] for i in tight))
    total = [0] * (poly.ambient_dim + 1)
    for i in tight:
        (a, b), (p, q) = poly.rows[i], poly.scales[i]
        total = [t + p * (common // q) * x for t, x in zip(total, a + (b,))]
    return _scaled(total, common)


def _key_token(key):
    """The sort token of a canonical key: its equality rows in RREF, each
    canonical row divided by its pivot (its first nonzero entry), then its
    facets sorted, entries written as `rat_str` writes them."""
    if key[1:] == ("empty",):
        return "empty"
    _, eq_rows, facets = key
    rows = []
    for row in eq_rows:
        pivot = next(x for x in row if x)
        rows.append(" ".join(ratio_str(x, pivot) for x in row))
    parts = [";".join(rows)]
    parts.extend(sorted(" ".join(map(str, n)) + "|" + str(b) for n, b in facets))
    return "#".join(parts)


# -- CPLX/1 ---------------------------------------------------------------------

def format_cplx(C):
    payload = {
        "schema_version": "CPLX/1",
        "ambient_dim": C.ambient_dim,
        "faces": [{"id": i, "poly": format_poly(C.faces[i])} for i in C.ids()],
        "morphisms": [{"src": a, "dst": b} for a, b in C.incidences()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_cplx(text):
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("CPLX/1: the top level must be a JSON object")
    if data.get("schema_version") != "CPLX/1":
        raise ValueError("CPLX/1: bad or missing schema_version")
    n = data.get("ambient_dim")
    if type(n) is not int or n < 0:
        raise ValueError("CPLX/1: ambient_dim must be a non-negative integer")
    if not isinstance(data.get("faces"), list) or not isinstance(data.get("morphisms"), list):
        raise ValueError("CPLX/1: faces and morphisms must be lists")
    faces = {}
    for item in data["faces"]:
        if not (isinstance(item, dict) and type(item.get("id")) is int
                and isinstance(item.get("poly"), str)):
            raise ValueError("CPLX/1: a face needs an integer id and a POLY/1 string poly")
        if item["id"] in faces:
            raise ValueError("CPLX/1: duplicate face id %d" % item["id"])
        poly = parse_poly(item["poly"])
        if poly.ambient_dim != n:
            raise ValueError("CPLX/1: face %d has wrong ambient dimension" % item["id"])
        faces[item["id"]] = poly
    above = set()
    for m in data["morphisms"]:
        if not (isinstance(m, dict) and type(m.get("src")) is int
                and type(m.get("dst")) is int):
            raise ValueError("CPLX/1: a morphism needs integer src and dst")
        above.add((m["src"], m["dst"]))
    return PolyhedralComplex(n, faces, above)
