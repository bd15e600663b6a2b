"""Finite group presentations and their presentation complexes.

Relators are words over signed 1-based generator indices (g means the
generator, -g its inverse).  Nothing here decides isomorphism; all
invariants are computable ones: abelianization via Smith normal form,
Euler characteristic, balancedness, and Q-homology certificates of the
simplicial model of the presentation complex.
"""

import sys
from dataclasses import dataclass

from .homology import smith_normal_form, homology
from .rationals import numbered_lines
from .simplicial import SimplicialComplex


def free_reduce(word):
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


@dataclass(frozen=True)
class GroupPresentation:
    generators: int
    relators: tuple

    @staticmethod
    def make(generators, relators):
        g = int(generators)
        reduced = []
        for w in relators:
            w = free_reduce(w)
            for letter in w:
                if abs(letter) > g:
                    raise ValueError("letter %d out of range" % letter)
            reduced.append(w)
        return GroupPresentation(g, tuple(reduced))

    def exponent_matrix(self):
        M = []
        for w in self.relators:
            row = [0] * self.generators
            for letter in w:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            M.append(row)
        return M


def abelianization(pres):
    """H1 of the group: (free rank, invariant factors > 1)."""
    M = pres.exponent_matrix()
    if not M or pres.generators == 0:
        return pres.generators, ()
    snf = smith_normal_form(M)
    if not snf.certify(M):
        raise AssertionError("Smith form of the %d x %d exponent matrix failed certification"
                             % (len(M), pres.generators))
    factors = snf.invariant_factors
    free_rank = pres.generators - len(factors)
    return free_rank, tuple(d for d in factors if d > 1)


def is_perfect(pres):
    free_rank, torsion = abelianization(pres)
    return free_rank == 0 and not torsion


def presentation_complex_stats(pres):
    """(Euler characteristic, balanced?) of the one-vertex 2-complex:
    one vertex, an edge per generator and a disk per relator that
    `presentation_complex` glues, that is per relator that does not
    free-reduce to the empty word."""
    disks = sum(1 for w in pres.relators if w)
    return 1 - pres.generators + disks, pres.generators == disks


def higman_presentation():
    """Four generators x_i with relators x_i [x_i, x_{i+1}], indices mod 4."""
    relators = []
    for i in range(1, 5):
        j = i % 4 + 1
        relators.append((i, i, j, -i, -j))
    return GroupPresentation.make(4, relators)


def cyclic_presentation(n):
    return GroupPresentation.make(1, [tuple([1] * n)])


# -- simplicial model of the presentation complex ----------------------------------

def presentation_complex(pres):
    """Simplicial model: a wedge of triangle loops, one per generator, with
    a triangulated disk glued along each relator path."""
    base = "v"
    simplices = []
    loops = {}
    for i in range(1, pres.generators + 1):
        a, b = "a%d" % i, "b%d" % i
        loops[i] = (base, a, b)
        simplices.extend([(base, a), (a, b), (b, base)])
    for r, word in enumerate(pres.relators):
        path = [base]
        for letter in word:
            v0, a, b = loops[abs(letter)]
            if letter > 0:
                path.extend([a, b, base])
            else:
                path.extend([b, a, base])
        if len(path) < 2:
            continue  # empty relator bounds nothing new
        L = len(path) - 1
        ring = ["w%d_%d" % (r, j) for j in range(L)]
        center = "z%d" % r
        for j in range(L):
            u, u2 = path[j], path[j + 1]
            w, w2 = ring[j], ring[(j + 1) % L]
            simplices.append((u, u2, w))
            simplices.append((u2, w, w2))
            simplices.append((w, w2, center))
    return SimplicialComplex(simplices, vertices=[base])


def q_superperfect_certificate(K):
    """Hopf-style certificate: if the reduced Q-homology of a connected
    complex vanishes in degrees <= 2 then its fundamental group is
    Q-superperfect."""
    if not K.is_connected():
        raise ValueError("complex must be connected")
    prof = homology(K, "Q")
    reduced = prof.reduced_betti()
    obstructions = {}
    for i in range(3):
        b = reduced[i] if i < len(reduced) else 0
        if b != 0:
            obstructions["b%d" % i] = b
    return {
        "certified": not obstructions,
        "reduced_betti": [reduced[i] if i < len(reduced) else 0 for i in range(3)],
        "obstructions": obstructions,
    }


# -- edge-path fundamental group ------------------------------------------------------

def fundamental_group(K):
    """Edge-path presentation from a spanning tree of the 1-skeleton."""
    verts = K.vertices
    if not verts:
        raise ValueError("empty complex")
    position = {v: i for i, v in enumerate(verts)}
    edges = K.ordered(1)
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = verts[0]
    tree = set()
    seen = {root}
    frontier = [root]
    while frontier:
        v = frontier.pop(0)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add((v, w) if position[v] < position[w] else (w, v))
                frontier.append(w)
    if len(seen) != len(verts):
        raise ValueError("complex must be connected")
    gen_of = {}
    for e in edges:
        if e not in tree:
            gen_of[e] = len(gen_of) + 1

    def letter(a, b):
        e = (a, b) if position[a] < position[b] else (b, a)
        if e in tree:
            return 0
        return gen_of[e] if e == (a, b) else -gen_of[e]

    relators = []
    for u, v, w in K.ordered(2):
        word = tuple(x for x in (letter(u, v), letter(v, w), letter(w, u)) if x != 0)
        word = free_reduce(word)
        if word:
            relators.append(word)
    return GroupPresentation.make(len(gen_of), relators)


def _class_key(w):
    """The least word among the rotations of w and of its inverse: one
    key for w's class under rotation and inversion."""
    inv = tuple(-x for x in reversed(w))
    return min(min(w[k:] + w[:k], inv[k:] + inv[:k]) for k in range(len(w)))


def simplify_presentation(pres):
    """Limited Tietze simplification: free/cyclic reduction, duplicate
    removal, and elimination of generators killed by one-letter relators.
    Not a decision procedure for triviality.

    Two relators are duplicates when one is a rotation of the other or of
    its inverse.  These classes are disjoint, so a relator duplicates an
    earlier one iff their least class members (`_class_key`) agree.
    Generators are killed one at a time, the first one-letter relator
    first: killing several at once could leave `cyclic_reduce` another
    rotation of a word.  The survivors keep their numbers until the end.
    Closing the gap after each kill (a -> a - 1 for a above the killed
    generator, and -a likewise) is strictly increasing on the letters left
    and commutes with inversion, so it maps least rotations to least
    rotations and reductions to reductions: every choice made here is the
    same either way, and renumbering once at the end gives the same words."""
    relators = [cyclic_reduce(w) for w in pres.relators]
    keys = {}
    alive = set(range(1, pres.generators + 1))
    while True:
        seen = set()
        kept = []
        for w in relators:
            if not w:
                continue
            key = keys.get(w)
            if key is None:
                key = keys[w] = _class_key(w)
            if key not in seen:
                seen.add(key)
                kept.append(w)
        relators = kept
        killed = next((abs(w[0]) for w in relators if len(w) == 1), None)
        if killed is None:
            break
        alive.discard(killed)
        relators = [cyclic_reduce(tuple(x for x in w if x != killed and x != -killed))
                    if killed in w or -killed in w else w for w in relators]
    rank = {a: r for r, a in enumerate(sorted(alive), start=1)}
    return GroupPresentation.make(len(alive), [
        tuple(rank[x] if x > 0 else -rank[-x] for x in w) for w in relators])


# -- GRP/1 ------------------------------------------------------------------------

def format_grp(pres):
    lines = ["gens %d" % pres.generators]
    for w in pres.relators:
        parts = []
        for letter in w:
            parts.append("x%d" % letter if letter > 0 else "x%d^-1" % -letter)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_grp(text):
    lines = numbered_lines(text)
    lineno, header = lines[0] if lines else (1, "")
    head = header.split()
    if len(head) != 2 or head[0] != "gens":
        raise ValueError("GRP/1: first line must be 'gens g' (line %d)" % lineno)
    try:
        g = int(head[1])
    except ValueError:
        raise ValueError("GRP/1: generator count %r is not an integer (line %d)"
                         % (head[1], lineno)) from None
    if g < 0:
        raise ValueError("GRP/1: generator count %d is negative (line %d)" % (g, lineno))
    if g > sys.maxsize:  # no list of g exponents can be built
        raise ValueError("GRP/1: generator count %d cannot index a list (line %d)" % (g, lineno))
    relators = []
    for lineno, ln in lines[1:]:
        word = []
        for tok in ln.split():
            inv = tok.endswith("^-1")
            core = tok[:-3] if inv else tok
            if not core.startswith("x"):
                raise ValueError("GRP/1: bad token %r (line %d)" % (tok, lineno))
            try:
                idx = int(core[1:])
            except ValueError:
                raise ValueError("GRP/1: bad token %r (line %d)" % (tok, lineno)) from None
            if not 1 <= idx <= g:
                raise ValueError("GRP/1: generator %r out of range (line %d)" % (tok, lineno))
            word.append(-idx if inv else idx)
        relators.append(tuple(word))
    return GroupPresentation.make(g, relators)
