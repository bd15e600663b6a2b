"""Batch command line front end.

One subcommand per pipeline stage.  Machine artifacts (CPLX/1, SCX/1,
PTS/1, GRP/1, LEDGER/1, JSON reports) go to files named by --out; a short
human summary goes to stdout.  `run` alone maps failures to exit codes: 0
success, 1 verification failure (`VerificationFailure`, raised where a
verdict is decided), 2 input error (any other
`ValueError`, a `KeyError`, an `OSError`, or a `MemoryError`: the input
asks for more memory than there is), 3 internal error (an
`AssertionError`: a certificate of the program's own work failed an
invariant check; or any other exception, a defect in polycx).  All
randomness flows through --seed.
"""

import argparse
import functools
import json
import sys

from .rationals import rat, rat_str
from . import complexes, groups, moves, nolimit, projective
from . import simplicial, voronoi
from .complexes import VerificationFailure
from .homology import homology as homology_of


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e.strerror))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report(command, payload):
    body = {"schema_version": "REPORT/1", "command": command}
    body.update(payload)
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def _records_payload(records):
    return [{
        "ambient": r.ambient,
        "tuple": list(r.tuple_ids),
        "subspace": r.subspace.row_strings(),
        "subspace_dim": r.subspace.dim,
        "saturated": r.saturated,
    } for r in records]


def _parasite_input(args):
    C = complexes.parse_cplx(_read(args.complex))
    spans = projective.span_assignment(C)
    records = projective.parasitic_intersections(C, spans)
    return C, spans, records


def _bound(text):
    """The text of `perturb --bound`, once it reads as a rational > 0."""
    try:
        if rat(text) > 0:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected an integer or p/q > 0, got %r" % text)


def _label(token):
    try:
        return int(token)
    except ValueError:
        return token


# -- subcommand bodies ------------------------------------------------------------

def cmd_voronoi(args):
    Y = voronoi.parse_pts(_read(args.points))
    C = voronoi.voronoi_complex(Y)
    _write(args.out, complexes.format_cplx(C))
    print("voronoi: %d sites -> %d faces (ambient dim %d)"
          % (len(Y), len(C.ids()), C.ambient_dim))


def cmd_check_simple(args):
    if (args.points is None) == (args.complex is None):
        raise ValueError("give exactly one of --points or --complex")
    if args.points is not None:
        Y = voronoi.parse_pts(_read(args.points))
        flag, witness = voronoi.is_simple_configuration(Y)
        payload = {"simple": flag,
                   "witness": list(witness) if witness else None}
    else:
        C = complexes.parse_cplx(_read(args.complex))
        flag, witness = C.is_simple()
        payload = {"simple": flag, "witness": witness}
    if args.out:
        _write(args.out, _report("check-simple", payload))
    print("check-simple: %s%s" % (
        "simple" if flag else "NOT simple",
        "" if flag else " (witness %r)" % (payload["witness"],)))
    if not flag:
        raise VerificationFailure("not simple")


def cmd_perturb(args):
    Y = voronoi.parse_pts(_read(args.points))
    out = voronoi.perturb_to_simple(Y, args.bound, args.seed)
    _write(args.out, voronoi.format_pts(out))
    moved = sum(1 for a, b in zip(Y.sites, out.sites) if a != b)
    print("perturb: %d/%d sites moved (bound %s, seed %d)"
          % (moved, len(Y), args.bound, args.seed))


def cmd_delaunay(args):
    Y = voronoi.parse_pts(_read(args.points))
    D = voronoi.delaunay(Y)
    _write(args.out, simplicial.format_scx(D.complex))
    if args.report:
        _write(args.report, _report("delaunay", {
            "sites": len(Y),
            "hull_dim": D.hull_dim,
            "hull_volume": rat_str(D.hull_volume),
            "top_simplices": len(D.simplex_volumes),
            "volumes": [[sorted(v), rat_str(vol)] for v, vol in
                        sorted(D.simplex_volumes)],
        }))
    print("delaunay: %d sites, hull dim %d, hull volume %s, %d top simplices"
          % (len(Y), D.hull_dim, rat_str(D.hull_volume), len(D.simplex_volumes)))


def cmd_clip(args):
    Y = voronoi.parse_pts(_read(args.points))
    region = voronoi.parse_rgn(_read(args.region))
    C = voronoi.clipped_complex(Y, region)
    _write(args.out, complexes.format_cplx(C))
    print("clip: %d faces survive against %d region pieces"
          % (len(C.ids()), len(region.pieces)))


def cmd_nerve(args):
    C = complexes.parse_cplx(_read(args.complex))
    K = C.nerve()
    _write(args.out, simplicial.format_scx(K))
    print("nerve: %d vertices, f-vector %s" % (len(K.vertices), K.f_vector()))


def cmd_parasites(args):
    C, spans, records = _parasite_input(args)
    _write(args.out, _report("parasites", {
        "ambient_dim": C.ambient_dim,
        "records": _records_payload(records),
    }))
    print("parasites: %d records over %d faces" % (len(records), len(C.ids())))


def cmd_saturate(args):
    C, spans, records = _parasite_input(args)
    saturated = projective.saturate(C, spans, records)
    _write(args.out, _report("saturate", {
        "ambient_dim": C.ambient_dim,
        "initial": len(records),
        "records": _records_payload(saturated),
    }))
    print("saturate: %d -> %d records" % (len(records), len(saturated)))


def cmd_verify_proper(args):
    C, spans, records = _parasite_input(args)
    saturated = projective.saturate(C, spans, records)
    report = projective.verify_proper(C, spans, saturated)
    _write(args.out, _report("verify-proper", report))
    print("verify-proper: %s (%d records, %d violations)"
          % ("pass" if report["passed"] else "FAIL",
             report["checked_records"], len(report["violations"])))
    if not report["passed"]:
        raise VerificationFailure("properness check failed")


def cmd_blowup_plan(args):
    C, spans, records = _parasite_input(args)
    saturated = projective.saturate(C, spans, records)
    ledger = projective.blowup_plan(C, spans, saturated)
    _write(args.out, projective.format_ledger(ledger))
    sizes = [sum(len(v) for v in stage.values()) for stage in ledger.stages]
    print("blowup-plan: stage sizes %s" % (sizes,))


def cmd_homology(args):
    K = simplicial.parse_scx(_read(args.scx))
    ring = args.ring.upper()
    prof = homology_of(K, ring)
    _write(args.out, _report("homology", {
        "ring": ring,
        "betti": list(prof.betti),
        "torsion": [list(t) for t in prof.torsion],
    }))
    print("homology over %s: betti %s, torsion %s"
          % (ring, list(prof.betti), [list(t) for t in prof.torsion]))


def cmd_pi1(args):
    K = simplicial.parse_scx(_read(args.scx))
    pres = groups.fundamental_group(K)
    if args.simplify:
        pres = groups.simplify_presentation(pres)
    _write(args.out, groups.format_grp(pres))
    print("pi1: %d generators, %d relators%s"
          % (pres.generators, len(pres.relators),
             " (simplified)" if args.simplify else ""))


def cmd_superperfect(args):
    pres = groups.parse_grp(_read(args.presentation))
    free_rank, torsion = groups.abelianization(pres)
    chi, balanced = groups.presentation_complex_stats(pres)
    cert = groups.hopf_certificate(groups.presentation_complex_betti(chi, free_rank))
    h1 = "trivial" if (free_rank == 0 and not torsion) else \
        "Z^%d + %s" % (free_rank, list(torsion))
    _write(args.out, _report("superperfect", {
        "certified": cert["certified"],
        "chi": chi,
        "balanced": balanced,
        "h1_free_rank": free_rank,
        "h1_torsion": list(torsion),
        "reduced_betti": cert["reduced_betti"],
        "obstructions": cert["obstructions"],
    }))
    print("superperfect: certified: %s, chi: %d, h1: %s"
          % (str(cert["certified"]).lower(), chi, h1))
    if not cert["certified"]:
        raise VerificationFailure("Q-homology obstruction %r" % (cert["obstructions"],))


def cmd_dual_move(args):
    K = simplicial.parse_scx(_read(args.scx))
    target = tuple(_label(t) for t in args.target.split(","))
    move = moves.DualComplexMove(args.kind, target)
    out = moves.dual_move(K, move)
    _write(args.out, simplicial.format_scx(out))
    print("dual-move %s on %s: f-vector %s -> %s"
          % (args.kind, list(target), K.f_vector(), out.f_vector()))


def _is_label_list(value):
    return isinstance(value, list) and all(type(c) is int or isinstance(c, str) for c in value)


def cmd_dual_complex(args):
    data = simplicial.decode_json(_read(args.strata), "strata", versioned=False)
    if not _is_label_list(data.get("components")):
        raise ValueError("strata: components must be a list of integers or strings")
    entries = data.get("strata")
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and _is_label_list(e.get("components"))
            and type(e.get("count")) is int for e in entries)):
        raise ValueError("strata: strata must be a list of objects, each with a "
                         "components list of integers or strings and an integer count")
    components = [_label(c) for c in data["components"]]
    strata = {frozenset(map(_label, e["components"])): e["count"] for e in entries}
    K = moves.dual_complex(components, strata)
    _write(args.out, simplicial.format_scx(K))
    print("dual-complex: %d components, f-vector %s"
          % (len(components), K.f_vector()))


def cmd_no_limit_check(args):
    report = nolimit.no_limit_witness(args.degree, shear=not args.no_shear)
    _write(args.out, _report("no-limit-check", {
        "max_degree": report["max_degree"],
        "shear": report["shear"],
        "restriction_image_dim": report["restriction_image_dim"],
        "identities_3": report["identities_3"],
        "identities_4": report["identities_4"],
    }))
    print("no-limit-check: degree %d, restriction_image_dim: %d, "
          "identities: %s/%s"
          % (report["max_degree"], report["restriction_image_dim"],
             report["identities_3"], report["identities_4"]))


# -- argument parsing ---------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, so one parser serves every command.  It holds the
    name of each subcommand's function, which `run` looks up when it is
    called, so a function replaced after the parser is built still runs."""
    p = argparse.ArgumentParser(prog="polycx",
                                description="exact polyhedral complex toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn.__name__)
        return sp

    sp = add("voronoi", cmd_voronoi, help="Voronoi complex of a site set")
    sp.add_argument("--points", required=True)
    sp.add_argument("--out", required=True)

    sp = add("check-simple", cmd_check_simple,
             help="simplicity of a configuration or complex")
    sp.add_argument("--points")
    sp.add_argument("--complex")
    sp.add_argument("--out")

    sp = add("perturb", cmd_perturb, help="perturb sites to general position")
    sp.add_argument("--points", required=True)
    sp.add_argument("--bound", type=_bound, required=True, help="an integer or p/q > 0")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("delaunay", cmd_delaunay, help="certified Delaunay nerve")
    sp.add_argument("--points", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")

    sp = add("clip", cmd_clip, help="Voronoi complex clipped to a region")
    sp.add_argument("--points", required=True)
    sp.add_argument("--region", required=True)
    sp.add_argument("--out", required=True)

    sp = add("nerve", cmd_nerve, help="nerve of a polyhedral complex")
    sp.add_argument("--complex", required=True)
    sp.add_argument("--out", required=True)

    for name, fn in (("parasites", cmd_parasites),
                     ("saturate", cmd_saturate),
                     ("verify-proper", cmd_verify_proper),
                     ("blowup-plan", cmd_blowup_plan)):
        sp = add(name, fn, help="parasitic intersection pipeline: " + name)
        sp.add_argument("--complex", required=True)
        sp.add_argument("--out", required=True)

    sp = add("homology", cmd_homology, help="simplicial homology")
    sp.add_argument("--scx", required=True)
    sp.add_argument("--ring", choices=["z", "q", "Z", "Q"], default="z")
    sp.add_argument("--out", required=True)

    sp = add("pi1", cmd_pi1, help="edge-path fundamental group")
    sp.add_argument("--scx", required=True)
    sp.add_argument("--simplify", action="store_true")
    sp.add_argument("--out", required=True)

    sp = add("superperfect", cmd_superperfect,
             help="Q-superperfect certificate of a presentation")
    sp.add_argument("--presentation", required=True)
    sp.add_argument("--out", required=True)

    sp = add("dual-move", cmd_dual_move, help="apply a dual-complex move")
    sp.add_argument("--scx", required=True)
    sp.add_argument("--kind", choices=["barycentric", "cone-over-star"],
                    required=True)
    sp.add_argument("--target", required=True,
                    help="comma-separated vertex labels")
    sp.add_argument("--out", required=True)

    sp = add("dual-complex", cmd_dual_complex,
             help="dual complex of stratified intersection data")
    sp.add_argument("--strata", required=True,
                    help="JSON: components + strata with component counts")
    sp.add_argument("--out", required=True)

    sp = add("no-limit-check", cmd_no_limit_check,
             help="direct-limit obstruction up to a degree cap")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--no-shear", action="store_true",
                    help="control run without the shear in the second chart")
    sp.add_argument("--out", required=True)

    return p


def run(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        globals()[args.fn](args)
    except VerificationFailure as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        print("input error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    except Exception as e:  # any other escape is a defect, never a verdict
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
