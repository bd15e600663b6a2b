"""Polyhedral complexes: finite posets of polyhedra with inclusion morphisms.

A complex stores a map FaceId -> RationalPolyhedron and the strict
incidence relation (a, b) meaning "a is a proper face of b".  Everything
downstream (facets, residues, nerves, simplicity, differences) is a poset
computation on top of the exact polyhedron layer.

The incidences may be given as generators only; the complex takes their
transitive closure.  Face k of `sorted(faces)` is bit k of a Python int,
and each face keeps one such bitset of the faces strictly below it and one
of the faces strictly above.  One pass of Kahn's algorithm (Kahn,
"Topological sorting of large networks", CACM 1962) puts the faces in an
order in which every face comes after the faces given below it, or finds a
cycle; the down-sets are ORed along that order and the up-sets along its
reverse, so a chain of n faces holds n² bits, not n² ids in sets.

Building a complex reads every face's dimension.  Faces are visited in
that order, and each face's guess at a relative-interior point is the mean
of those of its covers, the faces directly below it (a face with nothing
below guesses the solution of its equalities).  A guess that passes the
exact check of `RationalPolyhedron.relint_point` certifies the face's
tight set, dimension and affine span without a face record; that is the
usual case for a parsed CPLX/1, whose faces carry their equalities as row
pairs.  Where the covers do not span a one-dimensional face (a half-line
over its vertex, an open ray, an edge whose other end was cut off), the
guess is retried at the middle of the face's line, under the same check.
A face whose guesses fail (forged incidences, unbounded or half-open
faces of dimension two or more, equalities not written as pairs) builds
its certified record, and an empty face is rejected.  The faces that
`difference` cuts keep their parent's record, with the cut rows appended.
"""

import itertools
import json
from math import lcm

from .rationals import ratio_str
from .polyhedra import _dot, _scaled, format_poly, parse_poly
from .simplicial import SimplicialComplex

# the digits of bin() as 0/1 selector bytes for itertools.compress
_DIGITS = bytes.maketrans(b"01", b"\0\1")


class PolyhedralComplex:

    def __init__(self, ambient_dim, faces, above):
        self.ambient_dim = int(ambient_dim)
        self.faces = dict(faces)
        ids = self._ids = tuple(sorted(self.faces))
        at = self._at = {i: k for k, i in enumerate(ids)}
        pred = [set() for _ in ids]  # the faces given directly below each face
        succ = [[] for _ in ids]
        for a, b in above:
            if a not in at or b not in at:
                raise ValueError("incidence pair references unknown face id")
            if a != b and at[a] not in pred[at[b]]:
                pred[at[b]].add(at[a])
                succ[at[a]].append(at[b])
        # Kahn: a face joins the order after every face given below it
        indeg = [len(p) for p in pred]
        order = [k for k, d in enumerate(indeg) if not d]
        for k in order:
            for m in succ[k]:
                indeg[m] -= 1
                if not indeg[m]:
                    order.append(m)
        if len(order) < len(ids):
            # each face left over has one left over given below it, so
            # a walk of len(ids) steps down such faces ends on a cycle
            k = indeg.index(max(indeg))
            for _ in ids:
                k = next(j for j in pred[k] if indeg[j])
            raise ValueError("incidences form a cycle through face %r" % (ids[k],))
        # strict down-sets along the order; the covers of a face are the
        # faces given below it that lie below no other such face, and every
        # face below it lies in a cover: their points' mean is its guess
        down = self._down = [0] * len(ids)
        relint = [None] * len(ids)
        for k in order:
            under = 0
            for j in pred[k]:
                under |= down[j]
            down[k] = under | sum(1 << j for j in pred[k])
            relint[k] = self.faces[ids[k]].relint_point(
                [relint[j] for j in pred[k] if not under >> j & 1])
            if relint[k] is None:
                raise ValueError("face %r is empty" % (ids[k],))
        up = self._up = [0] * len(ids)
        for k in reversed(order):
            for m in succ[k]:
                up[k] |= up[m] | 1 << m
        self._dim_of = {i: p.dimension() for i, p in self.faces.items()}
        self._key_to_id = None

    # -- poset ------------------------------------------------------------------

    def _pos(self, c):
        k = self._at.get(c)
        if k is None:
            raise KeyError("unknown face id: %r" % (c,))
        return k

    def _members(self, bits):
        """The face ids on the set bits, in ascending id order."""
        return itertools.compress(self._ids, bin(bits)[:1:-1].encode().translate(_DIGITS))

    def ids(self):
        return list(self._ids)

    def leq(self, a, b):
        return a == b or (a in self._at and b in self._at
                          and bool(self._up[self._at[a]] >> self._at[b] & 1))

    def faces_above(self, c):
        """The faces strictly above c, in ascending id order."""
        return list(self._members(self._up[self._pos(c)]))

    def faces_below(self, c):
        """The faces strictly below c, in ascending id order."""
        return list(self._members(self._down[self._pos(c)]))

    # `difference` appends its cut rows in the iteration order of below_of,
    # so the CPLX/1 bytes it writes depend on how these sets are built: {c}
    # first, then the other faces in ascending id order, as the golden
    # files were written.  Sorting the cut rows would change those bytes.
    def above_of(self, c):
        return {c} | set(self.faces_above(c))

    def below_of(self, c):
        return {c} | set(self.faces_below(c))

    def incidences(self):
        """Sorted strict incidence pairs (a, b): a is a proper face of b."""
        return [(a, b) for a, up in zip(self._ids, self._up) for b in self._members(up)]

    def face_dim(self, c):
        return self._dim_of[c]

    def facets(self):
        return [i for i, up in zip(self._ids, self._up) if not up]

    def dim(self):
        return max(self._dim_of.values()) if self.faces else -1

    def is_pure(self):
        n = self.dim()
        return all(self._dim_of[f] == n for f in self.facets())

    def restricted(self, ids):
        """Full sub-poset on the given face ids: the strict incidences of
        this complex between them."""
        ids = set(ids)
        faces = {i: self.faces[i] for i in ids}
        above = {(a, b) for a in ids for b in self.faces_above(a) if b in ids}
        return PolyhedralComplex(self.ambient_dim, faces, above)

    def residue(self, c):
        """All faces receiving an incidence map from c (the up-set of c)."""
        return self.restricted(self.above_of(c))

    def is_downward_closed(self, ids):
        ids = set(ids)
        return ids.issuperset(self.downward_closure(ids & self._at.keys()))

    def downward_closure(self, ids):
        ids = set(ids)
        return ids.union(*(self.faces_below(i) for i in ids))

    # -- nerve and simplicity -----------------------------------------------------

    def _facets_over(self):
        """Per face, in id order, the bits of the facets at or above it."""
        tops = sum(1 << k for k, up in enumerate(self._up) if not up)
        return [(up | 1 << k) & tops for k, up in enumerate(self._up)]

    def nerve(self):
        """Simplicial complex on the facets; a k-simplex for every k+1 facets
        sharing an incidence map from some (n-k)-face."""
        if not self.is_pure():
            raise ValueError("nerve requires a pure complex")
        n = self.dim()
        simplices = [[f] for f in self.facets()]
        for c, over in zip(self._ids, self._facets_over()):
            k = n - self._dim_of[c]
            if k >= 1 and over.bit_count() >= k + 1:
                simplices.extend(itertools.combinations(self._members(over), k + 1))
        return SimplicialComplex(simplices)

    def is_simple(self):
        """(flag, witness): every residue's nerve is a full simplex boundary
        lattice, i.e. the facets above each face span a common simplex."""
        n = self.dim()
        if not self.is_pure():
            return False, min(f for f in self.facets() if self._dim_of[f] != n)
        # the m + 1 facets above c must be dual to a face d >= c of dim
        # n - m below all of them; a face above c has no facet that c has
        # not, so d has exactly c's facets
        over = self._facets_over()
        dual = {}
        for k, (c, o) in enumerate(zip(self._ids, over)):
            if self._dim_of[c] == n + 1 - o.bit_count():
                dual[o] = dual.get(o, 0) | 1 << k
        bad = next((c for k, (c, o) in enumerate(zip(self._ids, over))
                    if not (self._up[k] | 1 << k) & dual.get(o, 0)), None)
        return bad is None, bad

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
        above = [p for p in self.incidences() if removed.isdisjoint(p)]
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
            for b in self.faces_above(chain[-1]):
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
