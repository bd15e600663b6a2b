"""Abstract finite simplicial complexes.

Vertices are hashable labels (ints or strings in practice); simplices are
frozensets of vertices.  The simplex set is always closed under taking
non-empty subsets.

A complex is not changed after it is built, and it owns the one order of
its simplices that every listing, boundary matrix and edge-path group
reads: by dimension, then by their vertices in label order (`label_key`),
compared as sequences.  The order is built once, on the first read that
needs it, and kept on the instance, each simplex both as its vertex tuple
in label order and as the frozenset the complex holds.  `vertices` sorts
the labels alone and does not build it, so a caller that reads only the
labels pays for no simplex order.
"""

import itertools
import json
from functools import cached_property
from operator import itemgetter


def label_key(v):
    # stable order even when int and str labels are mixed
    return (v.__class__.__name__, v)


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

    @classmethod
    def _of_closed(cls, simplices, vertices):
        """The complex on a simplex set the caller has shown to be closed
        under non-empty faces and to hold every vertex as a singleton:
        nothing is sorted or closed again."""
        K = cls.__new__(cls)
        K._simplices = frozenset(simplices)
        K._vertices = frozenset(vertices)
        return K

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self):
        return sorted(self._vertices, key=label_key)

    @cached_property
    def _order(self):
        """{k: (tuples, sets)}: the k-simplices in order, as vertex tuples
        in label order and, in step, as the frozensets of the complex.  A
        vertex's position in `vertices` is monotone in its label key, so
        sorting the position lists sorts the simplices as their label keys."""
        verts = self.vertices
        position = {v: i for i, v in enumerate(verts)}
        ranked = {}
        for s in self._simplices:
            ranked.setdefault(len(s) - 1, []).append((sorted(map(position.__getitem__, s)), s))
        order = {}
        for k in sorted(ranked):
            pairs = sorted(ranked[k], key=itemgetter(0))
            order[k] = (tuple(tuple(verts[i] for i in r) for r, _ in pairs),
                        tuple(s for _, s in pairs))
        return order

    def ordered(self, dim):
        """The dim-simplices in order, each as its vertex tuple in label order."""
        return list(self._order.get(dim, ((), ()))[0])

    def simplices(self, dim=None):
        if dim is None:
            return [s for _, sets in self._order.values() for s in sets]
        return list(self._order.get(dim, ((), ()))[1])

    def maximal_simplices(self):
        """The simplices that are no codimension-one face of a simplex: the
        simplex set is closed under faces, so these are the maximal ones."""
        faces = {t - {v} for t in self._simplices for v in t}
        return [s for s in self.simplices() if s not in faces]

    def __contains__(self, s):
        return frozenset(s) in self._simplices

    def __iter__(self):
        """The simplices, in no particular order."""
        return iter(self._simplices)

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
        adj = {v: [] for v in self._vertices}
        for a, b in self.ordered(1):
            adj[a].append(b)
            adj[b].append(a)
        seen = set(itertools.islice(adj, 1))
        frontier = list(seen)
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(adj)

    # -- local structure -----------------------------------------------------

    def star(self, s):
        """Simplices containing s (the open star, as a simplex list)."""
        fs = frozenset(s)
        if fs not in self._simplices:
            raise ValueError("simplex not in complex")
        return [t for t in self.simplices() if fs <= t]

    def link(self, s):
        fs = frozenset(s)
        if fs not in self._simplices:
            raise ValueError("simplex not in complex")
        return SimplicialComplex([t - fs for t in self._simplices if fs <= t and t != fs])


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
