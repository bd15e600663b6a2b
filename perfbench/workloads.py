"""The four workloads: input generation from a seed, one pass of jobs, and
the checks of a pass's outputs.

A workload object is built during set-up: it draws its inputs from
``random.Random(seed)`` and serialises them to text (in memory or as files
in its work directory).  ``jobs()`` returns the jobs of one pass; every job
rebuilds its inputs from that text, so no per-instance cache of the program
survives from one pass to the next.  ``collect`` turns a pass's outputs
into plain data, ``check`` runs the independent checkers on it.

polycx is reached only through module attributes looked up at call time,
so the wrappers that tracer.py installs see every call.
"""

import contextlib
import io
import itertools
import json
import os
import random
import sys
from fractions import Fraction

import checks


class JobFailed(Exception):
    """A job ended with an error or a nonzero exit code."""


def _polycx(name):
    return sys.modules["polycx." + name]


def _num(q):
    return str(Fraction(q))


def pts_text(points):
    lines = ["%d %d" % (len(points[0]), len(points))]
    lines.extend(" ".join(_num(c) for c in p) for p in points)
    return "\n".join(lines) + "\n"


def poly_text(n, rows):
    """POLY/1 text from (normal, relation, offset) rows."""
    out = ["%d %d" % (n, len(rows))]
    out.extend("%s %s %s" % (" ".join(_num(c) for c in a), rel, _num(b)) for a, rel, b in rows)
    return "\n".join(out) + "\n"


def box_text(lo, hi):
    n = len(lo)
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append((e, "<=", hi[i]))
        rows.append(([-x for x in e], "<=", -lo[i]))
    return poly_text(n, rows)


def cplx_text(n, faces, morphisms):
    """CPLX/1 JSON from {id: POLY/1 text} and proper incidence pairs."""
    return json.dumps({
        "schema_version": "CPLX/1",
        "ambient_dim": n,
        "faces": [{"id": i, "poly": faces[i]} for i in sorted(faces)],
        "morphisms": [{"src": a, "dst": b} for a, b in sorted(morphisms)],
    }, sort_keys=True, separators=(",", ":")) + "\n"


def general_position_sites(rng, n, k, grid):
    """k distinct points of (1/grid)·Z^n in [-5, 5]^n in general position."""
    lim = 5 * grid
    while True:
        pts = set()
        while len(pts) < k:
            pts.add(tuple(Fraction(rng.randint(-lim, lim), grid) for _ in range(n)))
        pts = sorted(pts)
        if checks.in_general_position(pts):
            return pts


def jittered_sites(rng, template, grid):
    """The template moved by at most 2/grid per coordinate, keeping general
    position and the template's Delaunay triangulation, so that every seed
    gives the program the same amount of combinatorial work."""
    tops = checks.delaunay_triangulation(template)
    while True:
        pts = [tuple(c + Fraction(rng.randint(-2, 2), grid) for c in p) for p in template]
        if checks.in_general_position(pts) and checks.delaunay_triangulation(pts) == tops:
            return pts


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _polycx("cli").run(argv)
    if code != 0:
        raise JobFailed("polycx %s exited %d: %s" % (argv[0], code, err.getvalue().strip()))
    return code


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- delaunay-batch ---------------------------------------------------------------

class DelaunayBatch:
    """Fifty small site sets in dimensions 1, 2 and 3 through voronoi.delaunay."""

    # the median job falls in the middle of the block of twenty-two 4-site
    # planar sets, where the seed's draws move it least
    SIZES = ([(1, k) for k in (4, 5, 6, 7, 8, 9, 10)] * 2
             + [(2, 4)] * 22 + [(2, 5)] * 6 + [(3, 4)] * 8)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.sites = [general_position_sites(rng, n, k, 8) for n, k in self.SIZES]
        self.texts = [pts_text(p) for p in self.sites]

    def jobs(self):
        def job(text):
            def run():
                voronoi = _polycx("voronoi")
                return voronoi.delaunay(voronoi.parse_pts(text))
            return run
        return [("delaunay-%02d" % i, job(t)) for i, t in enumerate(self.texts)]

    def collect(self, outputs):
        out = []
        for D in outputs:
            out.append({
                "tops": [sorted(s) for s in D.complex.maximal_simplices()],
                "simplices": [sorted(s) for s in D.complex.simplices()],
                "hull": str(D.hull_volume),
                "volumes": [[list(v), str(vol)] for v, vol in D.simplex_volumes],
            })
        return out

    def check(self, result):
        errors = []
        for i, (pts, r) in enumerate(zip(self.sites, result)):
            vols = {tuple(v): Fraction(vol) for v, vol in r["volumes"]}
            errors.extend("set %d: %s" % (i, e) for e in checks.check_delaunay(
                pts, [tuple(s) for s in r["tops"]], r["simplices"], Fraction(r["hull"]), vols))
        return errors


# -- clip-annulus -----------------------------------------------------------------

def _ring(ox, oy, w, h, hole_lo, hole_hi):
    """Closed rectangle [ox, ox+w] x [oy, oy+h] minus an open box, as four
    closed boxes."""
    (hx0, hy0), (hx1, hy1) = hole_lo, hole_hi
    x0, y0, x1, y1 = ox, oy, ox + w, oy + h
    return [((x0, y0), (x1, oy + hy0)), ((x0, oy + hy1), (x1, y1)),
            ((x0, oy + hy0), (ox + hx0, oy + hy1)), ((ox + hx1, oy + hy0), (x1, oy + hy1))]


class ClipAnnulus:
    """perturb -> clip -> nerve -> homology --ring q -> pi1 --simplify on
    lattice sites of an annulus, under two perturbation seeds, and of a
    convex control square."""

    BOUND = Fraction(1, 20)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        F = Fraction
        ox, oy = rng.randint(-3, 3), rng.randint(-3, 3)
        # 5 x 4 lattice; the open hole swallows the two Voronoi vertices
        # and the edge between them in the middle of the lattice
        annulus = ([(ox + i, oy + j) for i in range(5) for j in range(4)],
                   _ring(ox, oy, 4, 3, (F(5, 4), F(5, 4)), (F(11, 4), F(7, 4))))
        cx, cy = rng.randint(-3, 3), rng.randint(-3, 3)
        convex = ([(cx + i, cy + j) for i in range(3) for j in range(3)],
                  [((cx, cy), (cx + 2, cy + 2))])
        # the perturbation decides how many bisectors each cell keeps, and
        # so moves the pass time by up to 15 %; two seeds average that out
        self.cases = []
        for name, (sites, boxes), betti, h1, trivial in (
                ("annulus-a", annulus, (1, 1, 0), (1, ()), False),
                ("annulus-b", annulus, (1, 1, 0), (1, ()), False),
                ("convex", convex, (1, 0, 0), (0, ()), True)):
            base = os.path.join(workdir, name)
            lattice = pts_text(sites)
            _write(base + ".pts", lattice)
            _write(base + ".rgn", "%d\n" % len(boxes)
                   + "".join(box_text(lo, hi) for lo, hi in boxes))
            self.cases.append((name, base, lattice, betti, h1, trivial, rng.randrange(1 << 30)))

    def jobs(self):
        """One job per case: the whole five-command pipeline."""
        def pipeline(base, perturb_seed):
            for argv in (
                    ["perturb", "--points", base + ".pts", "--bound", _num(self.BOUND),
                     "--seed", str(perturb_seed), "--out", base + ".generic.pts"],
                    ["clip", "--points", base + ".generic.pts", "--region", base + ".rgn",
                     "--out", base + ".cplx"],
                    ["nerve", "--complex", base + ".cplx", "--out", base + ".scx"],
                    ["homology", "--scx", base + ".scx", "--ring", "q", "--out", base + ".h.json"],
                    ["pi1", "--scx", base + ".scx", "--simplify", "--out", base + ".grp"]):
                run_cli(argv)
        return [(name, (lambda b=base, s=perturb_seed: pipeline(b, s)))
                for name, base, _, _, _, _, perturb_seed in self.cases]

    def collect(self, outputs):
        out = {}
        for name, base, _, _, _, _, _ in self.cases:
            out[name] = {suffix: _read(base + suffix) for suffix in
                         (".generic.pts", ".cplx", ".scx", ".h.json", ".grp")}
        return out

    def check(self, result):
        errors = []
        for name, base, lattice, betti, h1, trivial, _ in self.cases:
            r = result[name]
            errors.extend("%s: %s" % (name, e) for e in checks.check_clip(
                lattice, r[".generic.pts"], self.BOUND, r[".scx"],
                json.loads(r[".h.json"]), r[".grp"], betti, h1, trivial))
        return errors


# -- parasite-ledger --------------------------------------------------------------

def box_tower(n, m, offset):
    """Unit-cube tower of height m along the last axis of Q^n: every face
    as a product of per-axis intervals and points."""
    axes = []
    for i in range(n - 1):
        o = offset[i]
        axes.append([("I", o, o + 1), ("P", o), ("P", o + 1)])
    o = offset[n - 1]
    axes.append([("I", o + t, o + t + 1) for t in range(m)] + [("P", o + t) for t in range(m + 1)])
    cells = list(itertools.product(*axes))

    def within(a, b):  # axis piece a inside axis piece b
        if b[0] == "I":
            lo, hi = (a[1], a[2]) if a[0] == "I" else (a[1], a[1])
            return b[1] <= lo and hi <= b[2]
        return a == b

    faces, texts = {}, {}
    for fid, cell in enumerate(cells):
        lo = [p[1] for p in cell]
        hi = [p[2] if p[0] == "I" else p[1] for p in cell]
        eqs = []
        for i, p in enumerate(cell):
            if p[0] == "P":
                e = [Fraction(0)] * n
                e[i] = Fraction(1)
                eqs.append((e, Fraction(p[1])))
        texts[fid] = box_text(lo, hi)
        faces[fid] = (eqs, [g for g, other in enumerate(cells)
                            if all(within(x, y) for x, y in zip(other, cell))])
    morphisms = [(a, b) for b in faces for a in faces[b][1] if a != b]
    return faces, cplx_text(n, texts, morphisms)


def _bisector(y, y2):
    """Points at least as close to y as to y2: normal·x <= offset."""
    normal = [2 * (b - a) for a, b in zip(y, y2)]
    offset = sum(b * b for b in y2) - sum(a * a for a in y)
    return normal, offset


def voronoi_cplx(points, removed_top=None):
    """The Voronoi complex of sites in general position, built from the
    Delaunay triangulation: the face of a Delaunay simplex s is the set of
    points equidistant from the sites of s and no closer to any other
    site.  With removed_top, the Voronoi vertex of that top simplex is cut
    away as `clip` does with a vertex outside its region: the faces above
    it get the strict sum of the bisectors that meet there."""
    n = len(points[0])
    tops = checks.delaunay_triangulation(points)
    simplices = sorted({c for t in tops for k in range(1, n + 2)
                        for c in itertools.combinations(t, k)}, key=lambda s: (-len(s), s))
    if removed_top is not None:
        removed_top = tops[removed_top % len(tops)]
        simplices.remove(removed_top)
    ids = {s: i for i, s in enumerate(simplices)}
    faces, texts = {}, {}
    for s in simplices:
        y0 = points[s[0]]
        rows, eqs = [], []
        for j in range(len(points)):
            if j == s[0]:
                continue
            a, b = _bisector(y0, points[j])
            rows.append((a, "<=", b))
            if j in s:
                rows.append(([-x for x in a], "<=", -b))
                eqs.append((a, b))
        if removed_top is not None and set(s) < set(removed_top):
            cut = [_bisector(y0, points[k]) for k in removed_top if k not in s]
            rows.append(([sum(c) for c in zip(*(a for a, _ in cut))], "<",
                         sum(b for _, b in cut)))
        texts[ids[s]] = poly_text(n, rows)
        faces[ids[s]] = (eqs, [ids[t] for t in simplices if set(s) <= set(t)])
    morphisms = [(a, b) for b in faces for a in faces[b][1] if a != b]
    return faces, cplx_text(n, texts, morphisms)


class ParasiteLedger:
    """parasites, saturate, verify-proper and blowup-plan through the CLI on
    two box towers, a planar and a 3D Voronoi complex and a clipped one."""

    SUBCOMMANDS = (("parasites", ".parasites.json"), ("saturate", ".saturate.json"),
                   ("verify-proper", ".proper.json"), ("blowup-plan", ".ledger.json"))

    PLANAR = [(0, 0), (4, 1), (1, 4), (-3, 2), (2, -4)]
    SPATIAL = [(0, 0, 0), (4, 1, 0), (1, 4, 1), (1, 0, 4)]

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        shift = lambda n: [rng.randint(-3, 3) for _ in range(n)]
        made = [
            ("cube", 3, box_tower(3, 1, shift(3))),
            ("strip", 2, box_tower(2, 3, shift(2))),
            ("voronoi2", 2, voronoi_cplx(jittered_sites(rng, self.PLANAR, 8))),
            ("voronoi3", 3, voronoi_cplx(jittered_sites(rng, self.SPATIAL, 8))),
            ("clipped2", 2, voronoi_cplx(jittered_sites(rng, self.PLANAR, 8), removed_top=0)),
        ]
        self.inputs = []
        for name, n, (faces, text) in made:
            base = os.path.join(workdir, name)
            _write(base + ".cplx", text)
            self.inputs.append((name, n, faces, base))

    def jobs(self):
        jobs = []
        for name, _, _, base in self.inputs:
            for sub, suffix in self.SUBCOMMANDS:
                argv = [sub, "--complex", base + ".cplx", "--out", base + suffix]
                jobs.append(("%s-%s" % (name, sub), (lambda a=argv: run_cli(a))))
        return jobs

    def collect(self, outputs):
        return {name: {sub: json.loads(_read(base + suffix)) for sub, suffix in self.SUBCOMMANDS}
                for name, _, _, base in self.inputs}

    def check(self, result):
        errors = []
        for name, n, faces, _ in self.inputs:
            r = dict(result[name])
            r["ledger"] = r.pop("blowup-plan")
            errors.extend("%s: %s" % (name, e) for e in checks.check_parasites(n, faces, r))
        return errors


# -- topology ---------------------------------------------------------------------

def _grid_surface(m, n, twist):
    """Triangulated m x n grid with opposite sides glued: a torus, or with
    twist a Klein bottle (the sides x = 0 and x = m glued with y -> -y)."""
    def v(i, j):
        if i == m:
            i, j = 0, (-j if twist else j)
        return "%d.%d" % (i, j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tris


SURFACES = {
    "sphere": [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    "torus": ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
              + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]),
    "klein": _grid_surface(3, 4, True),
    "rp2": [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5),
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)],
}


def scx_text(triangles):
    labels = sorted({v for t in triangles for v in t}, key=str)
    index = {v: i for i, v in enumerate(labels)}
    return json.dumps({"schema_version": "SCX/1", "vertex_count": len(labels),
                       "labels": labels,
                       "maximal_simplices": [sorted(index[v] for v in t) for t in triangles]},
                      sort_keys=True, separators=(",", ":")) + "\n"


def higman_text():
    """Higman's group: x_i x_i x_{i+1} x_i^-1 x_{i+1}^-1 = 1, indices mod 4."""
    lines = ["gens 4"]
    for i in range(1, 5):
        j = i % 4 + 1
        lines.append("x%d x%d x%d x%d^-1 x%d^-1" % (i, i, j, i, j))
    return "\n".join(lines) + "\n"


class Topology:
    """Homology, Smith forms, fundamental groups and moves on subdivided
    surfaces, the Higman presentation complex and the no-limit oracle."""

    # moves per surface, chosen so that every subdivided surface has 19 to
    # 22 vertices: jobs of one size keep the per-job median steady, and
    # three sequences per surface average out the seed's choice of targets
    MOVES = {"sphere": 4, "torus": 3, "klein": 2, "rp2": 4}
    SEQUENCES = 3
    DEGREE = 7

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.surfaces = [(name, scx_text(tris), rng.randrange(1 << 30))
                         for name, tris in SURFACES.items() for _ in range(self.SEQUENCES)]
        self.higman = higman_text()

    def jobs(self):
        def surface(name, text, move_seed):
            def run():
                simplicial, moves = _polycx("simplicial"), _polycx("moves")
                homology, groups = _polycx("homology"), _polycx("groups")
                K = simplicial.parse_scx(text)
                rng = random.Random(move_seed)
                for _ in range(self.MOVES[name]):
                    tris = K.simplices(2)
                    target = tuple(sorted(tris[rng.randrange(len(tris))], key=str))
                    K = moves.dual_move(K, moves.DualComplexMove("barycentric", target))
                hz, hq = homology.homology(K, "Z"), homology.homology(K, "Q")
                boundaries = homology.ChainComplex.of_complex(K).boundaries
                snfs = {}
                for k in (1, 2):
                    S = homology.smith_normal_form(boundaries[k])
                    snfs[k] = (boundaries[k], S, S.certify(boundaries[k]))
                pres = groups.simplify_presentation(groups.fundamental_group(K))
                return K, hz, hq, snfs, groups.abelianization(pres)
            return run

        def higman():
            groups = _polycx("groups")
            pres = groups.parse_grp(self.higman)
            K = groups.presentation_complex(pres)
            return pres, K, groups.abelianization(pres), groups.q_superperfect_certificate(K)

        def nolimit(shear):
            return lambda: _polycx("nolimit").no_limit_witness(self.DEGREE, shear=shear)

        jobs = [("%s-%d" % (name, i % self.SEQUENCES), surface(name, text, s))
                for i, (name, text, s) in enumerate(self.surfaces)]
        jobs.append(("higman", higman))
        jobs.append(("nolimit-shear", nolimit(True)))
        jobs.append(("nolimit-control", nolimit(False)))
        return jobs

    def collect(self, outputs):
        surfaces = []
        for K, hz, hq, snfs, ab in outputs[:len(self.surfaces)]:
            surfaces.append({
                "simplices": sorted(sorted(map(str, s)) for s in K.simplices()),
                "betti_z": list(hz.betti), "torsion_z": [list(t) for t in hz.torsion],
                "betti_q": list(hq.betti), "ab": [ab[0], list(ab[1])],
                "snf": {k: {"M": M, "U": S.U, "V": S.V, "D": S.diagonal,
                            "factors": S.invariant_factors, "certified": ok}
                        for k, (M, S, ok) in snfs.items()},
            })
        pres, K, ab, cert = outputs[len(self.surfaces)]
        return {
            "surfaces": surfaces,
            "higman": {"gens": pres.generators, "relators": [list(w) for w in pres.relators],
                       "simplices": sorted(sorted(map(str, s)) for s in K.simplices()),
                       "ab": [ab[0], list(ab[1])], "certified": cert["certified"]},
            "nolimit": outputs[-2:],
        }

    def check(self, result):
        errors = []
        for (name, _, _), r in zip(self.surfaces, result["surfaces"]):
            snfs = {k: (s["M"], s["U"], s["V"], s["D"], s["factors"]) for k, s in r["snf"].items()}
            errors.extend(checks.check_surface(
                name, r["simplices"], r["betti_z"], [tuple(t) for t in r["torsion_z"]],
                r["betti_q"], (r["ab"][0], tuple(r["ab"][1])), snfs))
            if not all(s["certified"] for s in r["snf"].values()):
                errors.append("%s: SmithForm.certify rejected a Smith form" % name)
        h = result["higman"]
        errors.extend(checks.check_higman(h["gens"], h["relators"], h["simplices"],
                                          (h["ab"][0], tuple(h["ab"][1])), h["certified"]))
        errors.extend(checks.check_nolimit(*result["nolimit"]))
        return errors


WORKLOADS = {
    "delaunay-batch": DelaunayBatch,
    "clip-annulus": ClipAnnulus,
    "parasite-ledger": ParasiteLedger,
    "topology": Topology,
}
