"""Abstract finite simplicial complexes.

Vertices are hashable labels (ints or strings in practice); simplices are
frozensets of vertices.  The simplex set is always closed under taking
non-empty subsets.
"""

import itertools
import json


def label_key(v):
    # stable order even when int and str labels are mixed
    return (v.__class__.__name__, v)


def simplex_key(s):
    return (len(s), sorted(label_key(v) for v in s))


class SimplicialComplex:

    def __init__(self, simplices=(), vertices=()):
        simps = set()
        verts = set(vertices)
        for s in simplices:
            fs = frozenset(s)
            if not fs:
                continue
            verts |= fs
            for k in range(1, len(fs) + 1):
                for sub in itertools.combinations(fs, k):
                    simps.add(frozenset(sub))
        for v in verts:
            simps.add(frozenset([v]))
        self._simplices = frozenset(simps)
        self._vertices = frozenset(verts)

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self):
        return sorted(self._vertices, key=label_key)

    def simplices(self, dim=None):
        if dim is None:
            return sorted(self._simplices, key=simplex_key)
        return sorted((s for s in self._simplices if len(s) == dim + 1), key=simplex_key)

    def maximal_simplices(self):
        out = []
        for s in self._simplices:
            if not any(s < t for t in self._simplices):
                out.append(s)
        return sorted(out, key=simplex_key)

    def __contains__(self, s):
        return frozenset(s) in self._simplices

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self._simplices == other._simplices
                and self._vertices == other._vertices)

    def __hash__(self):
        return hash((self._vertices, self._simplices))

    def __len__(self):
        return len(self._simplices)

    def dim(self):
        if not self._simplices:
            return -1
        return max(len(s) for s in self._simplices) - 1

    def euler_characteristic(self):
        chi = 0
        for s in self._simplices:
            chi += 1 if len(s) % 2 == 1 else -1
        return chi

    def f_vector(self):
        out = [0] * (self.dim() + 1)
        for s in self._simplices:
            out[len(s) - 1] += 1
        return tuple(out)

    def is_connected(self):
        verts = self.vertices
        if not verts:
            return True
        seen = {verts[0]}
        frontier = [verts[0]]
        adj = {v: set() for v in verts}
        for s in self._simplices:
            if len(s) == 2:
                a, b = tuple(s)
                adj[a].add(b)
                adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(verts)

    # -- local structure -----------------------------------------------------

    def star(self, s):
        """Simplices containing s (the open star, as a simplex list)."""
        fs = frozenset(s)
        if fs not in self._simplices:
            raise ValueError("simplex not in complex")
        return [t for t in self.simplices() if fs <= t]

    def closed_star(self, s):
        return SimplicialComplex(self.star(s))

    def link(self, s):
        fs = frozenset(s)
        if fs not in self._simplices:
            raise ValueError("simplex not in complex")
        return SimplicialComplex([t - fs for t in self._simplices if fs <= t and t != fs])

    # -- rebuilding ------------------------------------------------------------

    def without(self, removed):
        """Subcomplex on all simplices having no face in `removed`."""
        removed = {frozenset(s) for s in removed}
        keep = [t for t in self._simplices if not any(r <= t for r in removed)]
        return SimplicialComplex(keep)

    def relabeled(self, mapping):
        return SimplicialComplex([frozenset(mapping[v] for v in s) for s in self._simplices],
                                 vertices=[mapping[v] for v in self._vertices])


# -- SCX/1 -------------------------------------------------------------------

def format_scx(K):
    verts = K.vertices
    index = {v: i for i, v in enumerate(verts)}
    payload = {
        "schema_version": "SCX/1",
        "vertex_count": len(verts),
        "labels": [v if isinstance(v, int) else str(v) for v in verts],
        "maximal_simplices": [sorted(index[v] for v in s) for s in K.maximal_simplices()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_scx(text):
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("SCX/1: the top level must be a JSON object")
    if data.get("schema_version") != "SCX/1":
        raise ValueError("SCX/1: bad or missing schema_version")
    labels = data.get("labels")
    if not (isinstance(labels, list)
            and all(type(v) is int or isinstance(v, str) for v in labels)):
        raise ValueError("SCX/1: labels must be a list of integers and strings")
    if len(set(labels)) != len(labels):
        raise ValueError("SCX/1: duplicate vertex label")
    if data.get("vertex_count") != len(labels) or type(data["vertex_count"]) is not int:
        raise ValueError("SCX/1: vertex_count does not match labels")
    simplices = data.get("maximal_simplices")
    if not (isinstance(simplices, list) and all(
            isinstance(s, list) and all(type(i) is int and 0 <= i < len(labels) for i in s)
            for s in simplices)):
        raise ValueError("SCX/1: maximal_simplices must be lists of vertex indices "
                         "in 0..%d" % (len(labels) - 1))
    return SimplicialComplex([[labels[i] for i in s] for s in simplices], vertices=labels)
