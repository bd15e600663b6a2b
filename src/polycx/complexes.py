"""Polyhedral complexes: finite posets of polyhedra with inclusion morphisms.

A complex stores a map FaceId -> RationalPolyhedron and the strict
incidence relation (a, b) meaning "a is a proper face of b".  Everything
downstream (facets, residues, nerves, simplicity, differences) is a poset
computation on top of the exact polyhedron layer.
"""

import itertools
import json

from .rationals import rat_str
from .polyhedra import LinearInequality, RationalPolyhedron, format_poly, parse_poly
from .simplicial import SimplicialComplex


class PolyhedralComplex:

    def __init__(self, ambient_dim, faces, above):
        self.ambient_dim = int(ambient_dim)
        self.faces = dict(faces)
        succ = {}
        for a, b in above:
            if a != b:
                succ.setdefault(a, set()).add(b)
        # transitive closure, so callers may pass generators only
        reach = {}

        def close(a):
            if a in reach:
                return reach[a]
            reach[a] = set()  # break cycles defensively; posets have none
            out = set()
            for b in succ.get(a, ()):
                out.add(b)
                out |= close(b)
            reach[a] = out
            return out

        for a in list(succ):
            close(a)
        if not reach.keys() <= self.faces.keys():
            raise ValueError("incidence pair references unknown face id")
        # the closure and its inverse: strict up-set and down-set of each face
        self._above = {i: reach.get(i, set()) for i in self.faces}
        self._below = {i: set() for i in self.faces}
        for a, bs in self._above.items():
            for b in bs:
                self._below[b].add(a)
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
                poly = RationalPolyhedron(poly.ambient_dim,
                                          poly.inequalities + tuple(cuts),
                                          poly.tightened)
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
        by_key = {}
        cell_keys = []
        cell_faces = []  # per cell: list of (key, tight-set) pairs
        for cell in cells:
            entries = []
            for f in cell.enumerate_faces():
                k = f.canonical_key()
                by_key.setdefault(k, f)
                entries.append((k, f.tightened | f._implicit()[0]))
            cell_faces.append(entries)
            cell_keys.append(entries[0][0])
        face_keys_per_cell = [{k for k, _ in entries} for entries in cell_faces]
        for i, j in itertools.combinations(range(len(cells)), 2):
            inter = cells[i].intersect(cells[j])
            if inter.is_empty():
                continue
            k = inter.canonical_key()
            if k not in face_keys_per_cell[i] or k not in face_keys_per_cell[j]:
                raise ValueError(
                    "intersection of cells %d and %d is not a common face" % (i, j))
        relation_keys = set()
        for entries in cell_faces:
            for (ka, ta), (kb, tb) in itertools.permutations(entries, 2):
                if ta > tb:  # more tightenings = smaller face
                    relation_keys.add((ka, kb))
        ordered = sorted(by_key, key=lambda k: (by_key[k].dimension(), _key_token(k)))
        idx = {k: i for i, k in enumerate(ordered)}
        faces = {idx[k]: by_key[k] for k in ordered}
        above = {(idx[a], idx[b]) for a, b in relation_keys}
        cx = PolyhedralComplex(ambient, faces, above)
        cx._key_to_id = idx
        return cx

    def id_of_polyhedron(self, poly):
        """FaceId whose face has the same solution set, or None."""
        if self._key_to_id is None:
            self._key_to_id = {p.canonical_key(): i for i, p in self.faces.items()
                               if p.is_closed_system()}
        return self._key_to_id.get(poly.canonical_key())


def _cut_inequality(poly, face):
    """Strict inequality cutting a closed proper face off `poly`: its
    left-hand side vanishes exactly on that face."""
    tight = []
    for i, q in enumerate(poly.inequalities):
        if i in poly.tightened or q.strict:
            continue
        if face.entails_equality(q.normal, q.offset):
            tight.append(i)
    if not tight:
        raise ValueError("face to remove is not a proper face of the polyhedron")
    check = poly.with_tightened(poly.tightened | set(tight))
    if not check.same_solution_set(face):
        raise ValueError("face to remove is not a face of the polyhedron")
    normal = tuple(sum(poly.inequalities[i].normal[j] for i in tight)
                   for j in range(poly.ambient_dim))
    offset = sum(poly.inequalities[i].offset for i in tight)
    return LinearInequality(normal, offset, True)


def _key_token(key):
    if key[1:] == ("empty",):
        return "empty"
    _, eq_rows, facets = key
    parts = [";".join(" ".join(rat_str(x) for x in row) for row in eq_rows)]
    parts.extend(sorted(" ".join(rat_str(x) for x in n) + "|" + rat_str(b)
                        for n, b in facets))
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
