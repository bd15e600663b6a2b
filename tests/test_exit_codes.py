"""Failures are typed where they are decided, and `cli.run` alone maps
them to exit codes.

The library raises `VerificationFailure`, a `ValueError`, where a verdict
on well-formed input is decided (exit 1), and a plain `ValueError` for
malformed input (exit 2).  A stdlib `ast` check keeps every `raise` in
`src/polycx` to a type that `cli.run` maps, so that no new exception type
ends in a traceback; `run` maps a `MemoryError` to exit 2 and any other
exception that escapes a command to exit 3, never to the verdict's 1.
"""

import ast
from pathlib import Path

import pytest

from polycx import (
    ParasiticRecord,
    PolyhedralComplex,
    PolyhedralRegion,
    SiteSet,
    VerificationFailure,
    blowup_plan,
    clipped_complex,
    delaunay,
    span_assignment,
    verify_proper,
)
from polycx import cli, parse_cplx, parse_ledger, parse_scx, voronoi
from polycx.cli import run
from polycx.voronoi import _certify_triangulation

from _corpus import box

SRC = Path(__file__).resolve().parents[1] / "src" / "polycx"

# (module, raised name) -> why it cannot end in a traceback
ALLOWED = {
    ("rationals.py", "TypeError"):
        "rat rejects floats; the command line reads only text, so no float reaches it",
    ("cli.py", "argparse.ArgumentTypeError"):
        "raised by an option's type inside parse_args, which argparse turns into "
        "its usage error, exit 2, before any command runs",
}


def mapped_names(cli_source):
    """The exception names in the except clauses of `run`, but argparse's
    SystemExit, which is not an error of a command."""
    tree = ast.parse(cli_source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
    names = set()
    for handler in ast.walk(fn):
        if isinstance(handler, ast.ExceptHandler):
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names.update(ast.unparse(k) for k in kinds)
    return names - {"SystemExit"}


def raised_names(source):
    """(line, name) of each `raise X(...)`, `raise X` and `raise X(...) from
    Y` in the source; a bare `raise` passes on what its handler caught."""
    return sorted((node.lineno, ast.unparse(getattr(node.exc, "func", node.exc)))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None)


def test_run_maps_exactly_the_contract_types():
    assert mapped_names((SRC / "cli.py").read_text()) == {
        "VerificationFailure", "ValueError", "KeyError", "OSError", "MemoryError",
        "AssertionError", "Exception"}


def test_the_check_sees_every_form_of_raise():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise RuntimeError('a')\n"
              "    try:\n"
              "        raise KeyError\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise json.JSONDecodeError('b', '', 0) from None\n")
    assert raised_names(source) == [(3, "RuntimeError"), (5, "KeyError"),
                                    (8, "json.JSONDecodeError")]


def json_decode_sites(source):
    """(enclosing function, line) of each use of the json module's
    decoders in the source, `from json import ...` included; the function
    is '' at module level."""
    sites = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in ("load", "loads", "JSONDecoder")
                    and ast.unparse(child.value) == "json"
                    or isinstance(child, ast.ImportFrom) and child.module == "json"):
                sites.append((fn, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else fn)

    visit(ast.parse(source), "")
    return sites


def test_the_json_check_sees_a_stray_call():
    source = ("import json\n"
              "from json import loads\n"
              "def decode_json(text, fmt):\n"
              "    return json.loads(text)\n"
              "def parse(text):\n"
              "    return json.loads(text)\n"
              "DATA = json.load(open('f'))\n"
              "TEXT = json.dumps(DATA)\n")
    assert json_decode_sites(source) == [("", 2), ("decode_json", 4), ("parse", 6), ("", 7)]


def test_json_is_decoded_only_by_the_guarded_function():
    # decode_json turns every decoder failure, RecursionError included,
    # into a ValueError naming the format, so no other call may decode
    sites = [(path.name, fn) for path in sorted(SRC.glob("*.py"))
             for fn, _ in json_decode_sites(path.read_text())]
    assert sites == [("simplicial.py", "decode_json")]


def test_every_raise_in_the_library_reaches_a_mapped_exit_code():
    mapped = mapped_names((SRC / "cli.py").read_text())
    seen, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, name in raised_names(path.read_text()):
            if name in mapped:
                continue
            seen.add((path.name, name))
            if (path.name, name) not in ALLOWED:
                stray.append("%s:%d raises %s" % (path.name, line, name))
    assert stray == []
    assert seen == set(ALLOWED), "an allowed raise is gone; drop it from ALLOWED"


# -- verdicts at the library level -------------------------------------------------------

SQUARE = SiteSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = [(0, 0), (2, 0), (0, 2)]


def test_a_verification_failure_is_a_value_error():
    assert issubclass(VerificationFailure, ValueError)


def test_delaunay_of_a_set_that_is_not_simple():
    with pytest.raises(VerificationFailure, match="site set is not simple"):
        delaunay(SQUARE)


def test_delaunay_with_a_top_of_the_wrong_dimension(monkeypatch):
    real = voronoi._circumspheres

    def forged(Y):
        ok, witness, spheres = real(Y)
        return ok, witness, {**spheres, (0, 0, 1, 0): (0,)}

    monkeypatch.setattr(voronoi, "_circumspheres", forged)
    with pytest.raises(VerificationFailure, match=r"Delaunay facet \[0\] has wrong dimension"):
        delaunay(SiteSet(2, TRIANGLE))


# the cases of test_voronoi's TestLocalCertificates, on integer points
SQUARE_FAN = {"a": (0, 0), "b": (2, 0), "c": (2, 2), "d": (0, 2), "e": (1, 1)}
FAN = [("a", "b", "e"), ("b", "c", "e"), ("c", "d", "e"), ("a", "d", "e")]
# the square [0, 4]^2 covered twice: the fan about e and a fan about f
# over the boundary split at its midpoints
TWO_FANS = {"a": (0, 0), "b": (4, 0), "c": (4, 4), "d": (0, 4), "e": (2, 2), "f": (2, 1),
            "m1": (2, 0), "m2": (4, 2), "m3": (2, 4), "m4": (0, 2)}
RING = ["a", "m1", "b", "m2", "c", "m3", "d", "m4"]


@pytest.mark.parametrize("points, tops, message", [
    (SQUARE_FAN, [], "no Delaunay simplices"),
    ({"a": (0, 0), "b": (1, 1), "c": (2, 2), "d": (0, 2)}, [("a", "b", "c"), ("a", "c", "d")],
     "degenerate top simplex"),
    ({"a": (0, 0), "b": (2, 0), "c": (1, 2), "d": (1, 1)}, [("a", "b", "c"), ("a", "b", "d")],
     "lie on one side of their common ridge"),
    (SQUARE_FAN, FAN[:3], "lies beyond it"),
    (SQUARE_FAN, FAN + [("b", "e", "c")], "lies in 3 Delaunay simplices"),
    (TWO_FANS, FAN + [(u, v, "f") for u, v in zip(RING, RING[1:] + RING[:1])],
     r"the centroid of Delaunay simplex \['a', 'b', 'e'\] lies in Delaunay simplex"),
], ids=["no-tops", "degenerate", "one-side", "beyond", "three-on-a-ridge", "double-cover"])
def test_each_rejection_of_the_triangulation_certificate(points, tops, message):
    with pytest.raises(VerificationFailure, match=message):
        _certify_triangulation(points, 1, tops)


def test_clipping_a_set_that_is_not_simple():
    with pytest.raises(VerificationFailure, match="site set is not simple"):
        clipped_complex(SQUARE, PolyhedralRegion([box([0, 0], [1, 1])]))


def test_properness_of_a_complex_that_is_not_simple():
    C = PolyhedralComplex.from_subdivision(
        [box([i, j], [i + 1, j + 1]) for i in range(2) for j in range(2)])
    with pytest.raises(VerificationFailure, match="complex is not simple"):
        verify_proper(C, span_assignment(C), [])


def test_a_blowup_plan_whose_properness_fails():
    # a record whose center is the whole span of its face
    C = PolyhedralComplex.from_subdivision([box([0, 0], [1, 1])])
    spans = span_assignment(C)
    top = max(C.ids(), key=C.face_dim)
    bad = ParasiticRecord(top, (top,), spans[top], saturated=True)
    with pytest.raises(VerificationFailure, match="properness verification failed"):
        blowup_plan(C, spans, [bad])


# -- malformed input stays a plain ValueError --------------------------------------------

def assert_input_error(call, match):
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert not isinstance(info.value, VerificationFailure)


def test_a_single_site_is_an_input_error():
    one = SiteSet(2, [(0, 0)])
    assert_input_error(lambda: delaunay(one), "need at least two sites")
    assert_input_error(lambda: clipped_complex(one, PolyhedralRegion([box([0, 0], [1, 1])])),
                       "need at least two sites")


def test_a_region_of_another_dimension_is_an_input_error():
    # a point of another dimension is rejected by the region's pieces, so the
    # dimensions are compared before any point reaches them
    region = PolyhedralRegion([box([-1, -1, -1], [1, 1, 1])])
    assert_input_error(lambda: clipped_complex(SiteSet(2, TRIANGLE), region),
                       r"^clip: the region lies in dimension 3 but the sites in dimension 2$")


# -- the one mapping ------------------------------------------------------------------

def test_a_plain_value_error_inside_delaunay_exits_2(tmp_path, monkeypatch, capsys):
    def broken(pts, den, tops):
        raise ValueError("injected")

    monkeypatch.setattr(voronoi, "_certify_triangulation", broken)
    pts = tmp_path / "p.pts"
    pts.write_text("2 3\n0 0\n2 0\n0 2\n")
    out = tmp_path / "d.scx"
    assert run(["delaunay", "--points", str(pts), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: injected\n"
    assert not out.exists()


@pytest.mark.parametrize("error, code, line", [
    (MemoryError(), 2, "input error: out of memory"),
    (RuntimeError("injected"), 3, "internal error: RuntimeError: injected"),
], ids=["memory", "other"])
def test_an_exception_outside_the_contract_types_is_not_a_verdict(
        tmp_path, monkeypatch, capsys, error, code, line):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_no_limit_check", broken)
    assert run(["no-limit-check", "--degree", "1", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == line + "\n"


def test_a_region_of_another_dimension_exits_2(tmp_path, capsys):
    pts, rgn = tmp_path / "p.pts", tmp_path / "r.rgn"
    pts.write_text("1 2\n0\n1\n")
    rgn.write_text("1\n2 4\n1 0 <= 2\n-1 0 <= 2\n0 1 <= 2\n0 -1 <= 2\n")
    assert run(["clip", "--points", str(pts), "--region", str(rgn),
                "--out", str(tmp_path / "c.cplx")]) == 2
    assert capsys.readouterr().err == \
        "input error: clip: the region lies in dimension 2 but the sites in dimension 1\n"


# -- malformed text names its format and the line of the file --------------------------

NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("fmt, argv", [
    ("CPLX/1", ["check-simple", "--complex", "IN"]),
    ("CPLX/1", ["nerve", "--complex", "IN", "--out", "OUT"]),
    ("CPLX/1", ["parasites", "--complex", "IN", "--out", "OUT"]),
    ("CPLX/1", ["saturate", "--complex", "IN", "--out", "OUT"]),
    ("CPLX/1", ["verify-proper", "--complex", "IN", "--out", "OUT"]),
    ("CPLX/1", ["blowup-plan", "--complex", "IN", "--out", "OUT"]),
    ("SCX/1", ["homology", "--scx", "IN", "--out", "OUT"]),
    ("SCX/1", ["pi1", "--scx", "IN", "--out", "OUT"]),
    ("SCX/1", ["dual-move", "--scx", "IN", "--kind", "barycentric", "--target", "0",
               "--out", "OUT"]),
    ("strata", ["dual-complex", "--strata", "IN", "--out", "OUT"]),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_deeply_nested_json_exits_2(tmp_path, capsys, fmt, argv):
    src, out = tmp_path / "nested.json", tmp_path / "out"
    src.write_text(NESTED)
    assert run([{"IN": str(src), "OUT": str(out)}.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err == "input error: %s: JSON nested too deeply\n" % fmt
    assert not out.exists()


@pytest.mark.parametrize("parse, fmt", [(parse_cplx, "CPLX/1"), (parse_scx, "SCX/1"),
                                        (parse_ledger, "LEDGER/1")])
def test_deeply_nested_json_is_a_value_error(parse, fmt):
    assert_input_error(lambda: parse(NESTED), "^%s: JSON nested too deeply$" % fmt)
    assert_input_error(lambda: parse("{"), r"^%s: not JSON \(Expecting " % fmt)


GOOD_PTS = "2 3\n0 0\n2 0\n0 2\n"
GOOD_RGN = "1\n2 4\n1 0 <= 2\n-1 0 <= 2\n0 1 <= 2\n0 -1 <= 2\n"
FACE_7 = ('{"schema_version": "CPLX/1", "ambient_dim": 1, "morphisms": [], '
          '"faces": [{"id": 7, "poly": "1 1\\n1 <= x\\n"}]}')
FACE_7_NO_ROWS = ('{"schema_version": "CPLX/1", "ambient_dim": 1, "morphisms": [], '
                  '"faces": [{"id": 7, "poly": "1 -1\\n"}]}')


def clip(points=GOOD_PTS, region=GOOD_RGN):
    return ["clip", "--points", ("p.pts", points), "--region", ("r.rgn", region),
            "--out", "OUT"]


PTS_NEGATIVE = ("PTS/1: the dimension N and the point count k must be non-negative "
                "(line 1)")


RGN_NO_PIECE = "RGN/1: a region needs at least one piece (line 1)"


def superperfect(text):
    return ["superperfect", "--presentation", ("g.grp", text), "--out", "OUT"]


# (command, with (file name, text) for each input file; the one stderr line)
PARSE_WITNESSES = {
    # line numbers count every line of the file, blank lines too
    "pts-after-blank-lines": (["check-simple", "--points", ("p.pts", "2 2\n\n\n0 0 0\n1 1\n")],
                              "PTS/1: bad point arity (line 4)"),
    "poly-after-blank-lines": (clip(region="1\n\n2 1\n\n1 0 0 <= 1\n"),
                               "POLY/1: bad row arity (line 5)"),
    "grp-after-blank-lines": (superperfect("gens 2\n\n\nx1 x3\n"),
                              "GRP/1: generator 'x3' out of range (line 4)"),
    # a row of an RGN/1 piece is named by its line in the file
    "rgn-piece-row": (clip(region="1\n2 1\n1 0 0 <= 1\n"), "POLY/1: bad row arity (line 3)"),
    # a POLY/1 error inside a CPLX/1 face names the face
    "cplx-face": (["nerve", "--complex", ("c.cplx", FACE_7), "--out", "OUT"],
                  "CPLX/1: face 7: POLY/1: 'x' is not an integer or p/q (line 2)"),
    # a negative row count is named at its header, in POLY/1 and in RGN/1
    "poly-negative-row-count": (["nerve", "--complex", ("c.cplx", FACE_7_NO_ROWS),
                                 "--out", "OUT"],
                                "CPLX/1: face 7: POLY/1: the row count m must be "
                                "non-negative (line 1)"),
    "rgn-negative-row-count": (clip(region="1\n2 -1\n"),
                               "RGN/1: the POLY/1 row count must be non-negative (line 2)"),
    # and a negative N or k in PTS/1, with or without the rows it claims
    "pts-negative-count": (clip(points="2 -1\n"), PTS_NEGATIVE),
    "pts-negative-dimension": (clip(points="-1 0\n"), PTS_NEGATIVE),
    "pts-negative-dimension-with-a-row": (clip(points="-1 1\n0\n"), PTS_NEGATIVE),
    # and a site set with no point
    "pts-no-point": (["check-simple", "--points", ("p.pts", "2 0\n")],
                     "PTS/1: a site set needs at least one point (line 1)"),
    # no point of Q^0 can be written: format_pts(SiteSet(0, [()])) is "0 1\n\n"
    "pts-dimension-zero": (["check-simple", "--points", ("p.pts", "0 1\n\n")],
                           "PTS/1: the dimension N must be at least 1 (line 1)"),
    # a repeated site is named at its second line
    "pts-repeated-site": (["check-simple", "--points", ("p.pts", "2 3\n0 0\n1 0\n0/3 0\n")],
                          "PTS/1: site repeats line 2 (line 4)"),
    # a token that is not an integer or p/q, in either file of clip
    "pts-row-token": (clip(points="2 3\n0 0\nx 0\n0 2\n"),
                      "PTS/1: 'x' is not an integer or p/q (line 3)"),
    "pts-header-token": (clip(points="2 x\n0 0\n"), "PTS/1: header must be 'N k' (line 1)"),
    "rgn-count-token": (clip(region="x\n"),
                        "RGN/1: first line must be the piece count (line 1)"),
    # a region needs a piece, whatever follows the count
    "rgn-zero-count": (clip(region="0\n"), RGN_NO_PIECE),
    "rgn-negative-count": (clip(region="-1\n"), RGN_NO_PIECE),
    "rgn-negative-count-with-a-piece": (clip(region="-2" + GOOD_RGN[1:]), RGN_NO_PIECE),
    "rgn-header-token": (clip(region="1\n2 x\n"), "RGN/1: bad POLY/1 header (line 2)"),
    "poly-row-token": (clip(region="1\n2 1\n1 0 <= 1/x\n"),
                       "POLY/1: '1/x' is not an integer or p/q (line 3)"),
    "grp-header-token": (superperfect("gens x\n"),
                         "GRP/1: generator count 'x' is not an integer (line 1)"),
    "grp-relator-token": (superperfect("gens 2\nxa\n"), "GRP/1: bad token 'xa' (line 2)"),
    # a GRP/1 header takes exactly one count
    "grp-header-extra-token": (superperfect("gens 2 3\nx1\n"),
                               "GRP/1: first line must be 'gens g' (line 1)"),
}


def assert_exits_2(tmp_path, capsys, argv, message):
    """Run `argv`, each (file name, text) written to a file first, and
    check exit 2, the one stderr line and no output file."""
    out = tmp_path / "out"
    args = []
    for a in argv:
        if isinstance(a, tuple):
            (tmp_path / a[0]).write_text(a[1])
            a = str(tmp_path / a[0])
        args.append(str(out) if a == "OUT" else a)
    assert run(args) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(PARSE_WITNESSES))
def test_parse_errors_name_the_format_and_the_line(tmp_path, capsys, case):
    assert_exits_2(tmp_path, capsys, *PARSE_WITNESSES[case])


@pytest.mark.parametrize("region, message", [
    ("1\n2 2\n1 0 <= 0\n-1 0 <= -1\n", "empty region piece"),
    # a strict row tight on the whole closed piece
    ("1\n2 4\n1 0 < 0\n-1 0 <= 0\n0 1 <= 1\n0 -1 <= 0\n", "empty region piece"),
    ("1\n2 1\n1 0 <= 0\n", "region pieces must be bounded"),
    # unbounded and half-open
    ("1\n2 2\n1 0 < 0\n-1 0 <= 1\n", "region pieces must be bounded"),
], ids=["closed-empty", "strict-empty", "unbounded", "unbounded-half-open"])
def test_a_bad_region_piece_exits_2(tmp_path, capsys, region, message):
    assert_exits_2(tmp_path, capsys, clip(region=region), message)
