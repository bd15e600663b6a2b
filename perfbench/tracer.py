"""Span tracing of polycx from outside the package.

``Tracer.install`` replaces selected functions and methods of the polycx
modules by wrappers that record one span per call: id, parent span, the
module the function lives in, its metric keys, start and end.  A function
imported by name into another module (``voronoi`` imports
``_solve_constraints``, ``cli`` imports ``homology`` as ``homology_of``) is
rebound in every module namespace that holds it, so no call escapes.
Nothing under ``src/`` changes.  Spans are kept in memory; ``aggregate``
turns one pass's spans into per-layer metrics and ``write_spans`` writes
them out when the run ends.

Time spent in an unwrapped helper counts towards the nearest wrapped
caller, so a module's self time is the time inside its wrapped functions
that no wrapped callee accounts for.
"""

import functools
import json
import sys
import time
from collections import defaultdict


def _rows(args, kwargs, result, active):
    return len(args[0]) + len(args[1])


def _inside_perturb(args, kwargs, result, active):
    return 1 if active.get("voronoi.perturb_to_simple") else 0


def _length(args, kwargs, result, active):
    return len(result)


# (module, attribute, metric keys, extra counter); a dotted attribute is a
# method of a class in that module.  Every parse_* / format_* also feeds
# the cli.parse / cli.format totals.
SPECS = [
    ("polyhedra", "_solve_constraints", ["polyhedra.solve"], _rows),
    ("polyhedra", "RationalPolyhedron.canonical_key", ["polyhedra.canonical_key"], None),
    ("polyhedra", "RationalPolyhedron.enumerate_faces", ["polyhedra.enumerate_faces"], None),
    ("polyhedra", "RationalPolyhedron._implicit", ["polyhedra.implicit"], None),
    ("polyhedra", "RationalPolyhedron.affine_span", ["polyhedra.affine_span"], None),
    ("polyhedra", "RationalPolyhedron.tight_closure", ["polyhedra.tight_closure"], None),
    ("polyhedra", "RationalPolyhedron.is_bounded", ["polyhedra.is_bounded"], None),
    ("polyhedra", "RationalPolyhedron.triangulate", ["polyhedra.triangulate"], None),
    ("polyhedra", "RationalPolyhedron.intersect", ["polyhedra.intersect"], None),
    ("polyhedra", "RationalPolyhedron.entails", ["polyhedra.entails"], None),
    ("polyhedra", "RationalPolyhedron.same_solution_set", ["polyhedra.same_solution_set"], None),
    ("polyhedra", "convex_hull_inequalities", ["polyhedra.convex_hull"], None),
    ("polyhedra", "polytope_volume", ["polyhedra.polytope_volume"], None),
    ("polyhedra", "simplex_volume", ["polyhedra.simplex_volume"], None),
    ("polyhedra", "parse_poly", ["polyhedra.parse_poly", "cli.parse"], None),
    ("polyhedra", "format_poly", ["polyhedra.format_poly", "cli.format"], None),
    ("linalg", "rref", ["linalg.rref"], None),
    ("linalg", "det", ["linalg.det"], None),
    ("linalg", "rank", ["linalg.rank"], None),
    ("linalg", "nullspace", ["linalg.nullspace"], None),
    ("linalg", "solve", ["linalg.solve"], None),
    ("linalg", "in_row_space", ["linalg.in_row_space"], None),
    ("linalg", "row_space_contained", ["linalg.row_space_contained"], None),
    ("linalg", "intersect_row_spaces", ["linalg.intersect_row_spaces"], None),
    ("voronoi", "is_simple_configuration", ["voronoi.is_simple_configuration"], _inside_perturb),
    ("voronoi", "perturb_to_simple", ["voronoi.perturb_to_simple"], None),
    ("voronoi", "voronoi_complex", ["voronoi.voronoi_complex"], None),
    ("voronoi", "_cell_inequalities", ["voronoi.cell_inequalities"], None),
    ("voronoi", "_open_simplices_meet", ["voronoi.open_simplices_meet"], None),
    ("voronoi", "delaunay", ["voronoi.delaunay"], None),
    ("voronoi", "PolyhedralRegion.meets", ["voronoi.region_meets"], None),
    ("voronoi", "clipped_complex", ["voronoi.clipped_complex"], None),
    ("voronoi", "parse_pts", ["voronoi.parse_pts", "cli.parse"], None),
    ("voronoi", "format_pts", ["voronoi.format_pts", "cli.format"], None),
    ("voronoi", "parse_rgn", ["voronoi.parse_rgn", "cli.parse"], None),
    ("voronoi", "format_rgn", ["voronoi.format_rgn", "cli.format"], None),
    ("complexes", "PolyhedralComplex.from_subdivision", ["complexes.from_subdivision"], None),
    ("complexes", "PolyhedralComplex.difference", ["complexes.difference"], None),
    ("complexes", "PolyhedralComplex.is_simple", ["complexes.is_simple"], None),
    ("complexes", "PolyhedralComplex.nerve", ["complexes.nerve"], None),
    ("complexes", "PolyhedralComplex.above_of", ["complexes.poset_scan"], None),
    ("complexes", "PolyhedralComplex.below_of", ["complexes.poset_scan"], None),
    ("complexes", "PolyhedralComplex.id_of_polyhedron", ["complexes.id_of_polyhedron"], None),
    ("complexes", "_cut_inequality", ["complexes.cut_inequality"], None),
    ("complexes", "parse_cplx", ["complexes.parse_cplx", "cli.parse"], None),
    ("complexes", "format_cplx", ["complexes.format_cplx", "cli.format"], None),
    ("simplicial", "SimplicialComplex.__init__", ["simplicial.build"], None),
    ("simplicial", "SimplicialComplex.maximal_simplices", ["simplicial.maximal_simplices"], None),
    ("simplicial", "SimplicialComplex.simplices", ["simplicial.simplices"], None),
    ("simplicial", "SimplicialComplex.star", ["simplicial.star"], None),
    ("simplicial", "SimplicialComplex.is_connected", ["simplicial.is_connected"], None),
    ("simplicial", "parse_scx", ["simplicial.parse_scx", "cli.parse"], None),
    ("simplicial", "format_scx", ["simplicial.format_scx", "cli.format"], None),
    ("projective", "span_assignment", ["projective.span_assignment"], None),
    ("projective", "parasitic_intersections", ["projective.parasitic_intersections"], _length),
    ("projective", "saturate", ["projective.saturate"], None),
    ("projective", "verify_proper", ["projective.verify_proper"], None),
    ("projective", "blowup_plan", ["projective.blowup_plan"], None),
    ("projective", "ProjectiveSubspace.intersect", ["projective.intersect"], None),
    ("projective", "ProjectiveSubspace.contains", ["projective.contains"], None),
    ("projective", "format_ledger", ["projective.format_ledger", "cli.format"], None),
    ("projective", "parse_ledger", ["projective.parse_ledger", "cli.parse"], None),
    ("homology", "smith_normal_form", ["homology.snf"], None),
    ("homology", "SmithForm.certify", ["homology.certify"], None),
    ("homology", "int_rank", ["homology.int_rank"], None),
    ("homology", "homology", ["homology.homology"], None),
    ("homology", "ChainComplex.of_complex", ["homology.chain_complex"], None),
    ("groups", "fundamental_group", ["groups.fundamental_group"], None),
    ("groups", "simplify_presentation", ["groups.simplify_presentation"], None),
    ("groups", "abelianization", ["groups.abelianization"], None),
    ("groups", "q_superperfect_certificate", ["groups.q_superperfect_certificate"], None),
    ("groups", "presentation_complex", ["groups.presentation_complex"], None),
    ("groups", "parse_grp", ["groups.parse_grp", "cli.parse"], None),
    ("groups", "format_grp", ["groups.format_grp", "cli.format"], None),
    ("moves", "dual_move", ["moves.dual_move"], None),
    ("nolimit", "no_limit_witness", ["nolimit.no_limit_witness"], None),
    ("cli", "run", ["cli.run"], None),
]

# reported metric -> (aggregate entry it reads)
LAYER_METRICS = {
    "polyhedra.solve.calls": "polyhedra.solve.calls",
    "polyhedra.solve.rows": "polyhedra.solve.extra",
    "polyhedra.solve.s": "polyhedra.solve.s",
    "polyhedra.canonical_key.calls": "polyhedra.canonical_key.calls",
    "polyhedra.canonical_key.s": "polyhedra.canonical_key.s",
    "polyhedra.enumerate_faces.s": "polyhedra.enumerate_faces.s",
    "polyhedra.self_s": "polyhedra.self_s",
    "linalg.rref.calls": "linalg.rref.calls",
    "linalg.rref.s": "linalg.rref.s",
    "linalg.det.calls": "linalg.det.calls",
    "linalg.det.s": "linalg.det.s",
    "linalg.self_s": "linalg.self_s",
    "voronoi.is_simple_configuration.calls": "voronoi.is_simple_configuration.calls",
    "voronoi.is_simple_configuration.s": "voronoi.is_simple_configuration.s",
    "voronoi.perturb_to_simple.attempts": "voronoi.is_simple_configuration.extra",
    "voronoi.voronoi_complex.s": "voronoi.voronoi_complex.s",
    "voronoi.open_simplices_meet.calls": "voronoi.open_simplices_meet.calls",
    "voronoi.delaunay.s": "voronoi.delaunay.s",
    "voronoi.region_meets.calls": "voronoi.region_meets.calls",
    "voronoi.self_s": "voronoi.self_s",
    "complexes.from_subdivision.s": "complexes.from_subdivision.s",
    "complexes.difference.s": "complexes.difference.s",
    "complexes.is_simple.s": "complexes.is_simple.s",
    "complexes.nerve.s": "complexes.nerve.s",
    "complexes.poset_scan.calls": "complexes.poset_scan.calls",
    "complexes.parse_cplx.s": "complexes.parse_cplx.s",
    "complexes.self_s": "complexes.self_s",
    "simplicial.build.calls": "simplicial.build.calls",
    "simplicial.maximal_simplices.s": "simplicial.maximal_simplices.s",
    "simplicial.self_s": "simplicial.self_s",
    "projective.span_assignment.s": "projective.span_assignment.s",
    "projective.parasitic_intersections.s": "projective.parasitic_intersections.s",
    "projective.saturate.s": "projective.saturate.s",
    "projective.verify_proper.s": "projective.verify_proper.s",
    "projective.blowup_plan.s": "projective.blowup_plan.s",
    "projective.intersect.calls": "projective.intersect.calls",
    "projective.records": "projective.parasitic_intersections.extra",
    "projective.self_s": "projective.self_s",
    "homology.snf.calls": "homology.snf.calls",
    "homology.snf.s": "homology.snf.s",
    "homology.certify.s": "homology.certify.s",
    "homology.int_rank.s": "homology.int_rank.s",
    "homology.self_s": "homology.self_s",
    "groups.fundamental_group.s": "groups.fundamental_group.s",
    "groups.simplify_presentation.s": "groups.simplify_presentation.s",
    "groups.abelianization.s": "groups.abelianization.s",
    "groups.q_superperfect_certificate.s": "groups.q_superperfect_certificate.s",
    "groups.self_s": "groups.self_s",
    "moves.dual_move.calls": "moves.dual_move.calls",
    "moves.dual_move.s": "moves.dual_move.s",
    "nolimit.no_limit_witness.s": "nolimit.no_limit_witness.s",
    "cli.run.calls": "cli.run.calls",
    "cli.parse.s": "cli.parse.s",
    "cli.format.s": "cli.format.s",
    "cli.self_s": "cli.self_s",
}


def is_time(metric):
    """True for the seconds metrics (inclusive .s and module .self_s)."""
    return metric.endswith(".s") or metric.endswith(".self_s")


class Tracer:

    def __init__(self):
        self.spans = []   # (id, parent, module, keys, outermost-per-key, t0, t1, extra)
        self.stack = []
        self.active = defaultdict(int)
        self.next_id = 1

    def _wrap(self, fn, module, keys, extra):
        stack, active, clock = self.stack, self.active, time.perf_counter
        keys = tuple(keys)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else 0
            outer = tuple(active[k] == 0 for k in keys)
            for k in keys:
                active[k] += 1
            stack.append(sid)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                for k in keys:
                    active[k] -= 1
                n = extra(args, kwargs, result, active) if extra and done else 0
                self.spans.append((sid, parent, module, keys, outer, t0, t1, n))

        return wrapper

    def install(self):
        """Wrap every function in SPECS wherever polycx holds a reference."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polycx" or name.startswith("polycx.")]
        for module_name, attr, keys, extra in SPECS:
            module = sys.modules["polycx." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(raw.__func__, module_name, keys, extra)))
                else:
                    setattr(cls, meth, self._wrap(raw, module_name, keys, extra))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, module_name, keys, extra)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans):
    """Per-layer metrics of one pass: calls, outermost inclusive seconds
    and extra counts per key, and self seconds per module."""
    child = defaultdict(float)
    for sid, parent, module, keys, outer, t0, t1, n in spans:
        child[parent] += t1 - t0
    agg = defaultdict(float)
    for sid, parent, module, keys, outer, t0, t1, n in spans:
        d = t1 - t0
        agg[module + ".self_s"] += d - child.get(sid, 0.0)
        for k, o in zip(keys, outer):
            agg[k + ".calls"] += 1
            agg[k + ".extra"] += n
            if o:
                agg[k + ".s"] += d
    return {name: agg.get(source, 0.0) for name, source in LAYER_METRICS.items()}


def write_spans(path, spans):
    """One JSON line per span: id, parent, module, first key, start, end
    (seconds from the first span of the pass)."""
    base = min((s[5] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, module, keys, outer, t0, t1, n in spans:
            fh.write(json.dumps([sid, parent, module, keys[0],
                                 round(t0 - base, 7), round(t1 - base, 7)]) + "\n")
