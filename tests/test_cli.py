import contextlib
import importlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polycx import cli
from polycx.cli import run
from polycx import (
    higman_presentation,
    format_grp,
    parse_cplx,
    parse_scx,
    parse_pts,
    parse_ledger,
    parse_grp,
    presentation_complex,
    q_superperfect_certificate,
    is_simple_configuration,
    rat,
)
import test_golden
from test_fuzz import BOUND_S
from test_groups import grp_texts


def write(path, text):
    path.write_text(text)
    return str(path)


TWO_SITES = "1 2\n0\n1\n"
SQUARE = "2 4\n0 0\n1 0\n0 1\n1 1\n"
BOX_REGION = "1\n2 4\n1 0 <= 2\n-1 0 <= 2\n0 1 <= 2\n0 -1 <= 2\n"


def test_voronoi_two_sites(tmp_path):
    pts = write(tmp_path / "p.pts", TWO_SITES)
    out = str(tmp_path / "v.cplx")
    assert run(["voronoi", "--points", pts, "--out", out]) == 0
    C = parse_cplx((tmp_path / "v.cplx").read_text())
    assert len(C.ids()) == 3


def test_check_simple_exit_codes(tmp_path):
    good = write(tmp_path / "g.pts", "2 3\n0 0\n2 0\n0 2\n")
    bad = write(tmp_path / "b.pts", SQUARE)
    assert run(["check-simple", "--points", good]) == 0
    assert run(["check-simple", "--points", bad]) == 1
    assert run(["check-simple", "--points", good, "--complex", good]) == 2


def test_perturb_then_delaunay(tmp_path):
    pts = write(tmp_path / "p.pts", SQUARE)
    fixed = str(tmp_path / "f.pts")
    assert run(["perturb", "--points", pts, "--bound", "1/100",
                "--seed", "7", "--out", fixed]) == 0
    Y = parse_pts((tmp_path / "f.pts").read_text())
    assert is_simple_configuration(Y)[0]
    scx = str(tmp_path / "d.scx")
    rep = str(tmp_path / "d.json")
    assert run(["delaunay", "--points", fixed, "--out", scx,
                "--report", rep]) == 0
    data = json.loads((tmp_path / "d.json").read_text())
    assert data["schema_version"] == "REPORT/1"
    assert data["hull_dim"] == 2


@pytest.mark.parametrize("bound", ["1/1025", "1/5000"])
def test_perturb_below_one_over_1024(tmp_path, bound):
    pts = write(tmp_path / "p.pts", SQUARE)
    out = str(tmp_path / "f.pts")
    assert run(["perturb", "--points", pts, "--bound", bound, "--out", out]) == 0
    Y, Z = parse_pts(SQUARE), parse_pts((tmp_path / "f.pts").read_text())
    assert is_simple_configuration(Z)[0]
    assert Z.sites != Y.sites
    assert all(abs(a - b) <= rat(bound)
               for p, q in zip(Y.sites, Z.sites) for a, b in zip(p, q))


@pytest.mark.parametrize("bound", ["0.001", "1e-3", "0", "-1/2", "1/0", "x"])
def test_perturb_bound_outside_its_forms_names_the_option(tmp_path, capsys, bound):
    pts = write(tmp_path / "p.pts", SQUARE)
    out = tmp_path / "f.pts"
    assert run(["perturb", "--points", pts, "--bound=" + bound, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "argument --bound: expected an integer or p/q > 0, got %r" % bound in err
    assert not out.exists()


def test_perturb_prints_the_bound_as_written(tmp_path, capsys):
    pts = write(tmp_path / "p.pts", SQUARE)
    assert run(["perturb", "--points", pts, "--bound", "2/200", "--seed", "7",
                "--out", str(tmp_path / "f.pts")]) == 0
    assert "(bound 2/200, seed 7)" in capsys.readouterr().out


def test_perturb_has_no_retries_option(tmp_path, capsys):
    pts = write(tmp_path / "p.pts", SQUARE)
    assert run(["perturb", "--points", pts, "--bound", "1/100", "--retries", "3",
                "--out", str(tmp_path / "f.pts")]) == 2
    assert "unrecognized arguments: --retries 3" in capsys.readouterr().err


def test_pi1_of_a_disconnected_complex_exits_2(tmp_path, capsys):
    scx = write(tmp_path / "k.scx", json.dumps(dict(SCX, maximal_simplices=[[0], [1]])))
    assert run(["pi1", "--scx", scx, "--out", str(tmp_path / "pi.grp")]) == 2
    err = capsys.readouterr().err
    assert err == "input error: complex must be connected\n"


def test_delaunay_degenerate_is_verification_failure(tmp_path):
    pts = write(tmp_path / "p.pts", SQUARE)
    assert run(["delaunay", "--points", pts,
                "--out", str(tmp_path / "d.scx")]) == 1


def test_delaunay_forged_top_is_verification_failure(tmp_path, monkeypatch, capsys):
    # the key (0, 0, 1, 0), the tangent hyperplane at the lift of site 0, is
    # a sphere of radius 0 about it: the top {0}, of the wrong dimension
    from polycx import voronoi
    real = voronoi._circumspheres

    def forged(Y, *lifted):
        ok, witness, spheres = real(Y, *lifted)
        return ok, witness, {**spheres, (0, 0, 1, 0): (0,)}

    monkeypatch.setattr(voronoi, "_circumspheres", forged)
    pts = write(tmp_path / "p.pts", "2 3\n0 0\n2 0\n0 2\n")
    out = tmp_path / "d.scx"
    assert run(["delaunay", "--points", pts, "--out", str(out)]) == 1
    assert "Delaunay facet [0] has wrong dimension" in capsys.readouterr().err
    assert not out.exists()


def test_delaunay_missing_top_is_verification_failure(tmp_path, monkeypatch):
    # the sphere map without the sphere of one top: the ridge it shares
    # with another top has that top's far vertex beyond it
    from polycx import voronoi
    real = voronoi._circumspheres

    def dropped(Y, *lifted):
        ok, witness, spheres = real(Y, *lifted)
        return ok, witness, {key: W for key, W in spheres.items() if W != (0, 1, 4)}

    monkeypatch.setattr(voronoi, "_circumspheres", dropped)
    pts = write(tmp_path / "p.pts", "2 5\n0 0\n4 0\n4 3\n0 5\n2 1\n")
    out = tmp_path / "d.scx"
    assert run(["delaunay", "--points", pts, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["delaunay", "clip", "check-simple", "perturb"])
def test_one_site_is_input_error(tmp_path, command):
    # a single site is a malformed input for every command that needs two
    pts = write(tmp_path / "p.pts", "2 1\n0 0\n")
    extra = {"clip": ["--region", write(tmp_path / "r.rgn", BOX_REGION)],
             "perturb": ["--bound", "1/100"]}.get(command, [])
    out = [] if command == "check-simple" else ["--out", str(tmp_path / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run([command, "--points", pts] + extra + out) == 2
    assert err.getvalue() == "input error: need at least two sites\n"
    assert run(["voronoi", "--points", pts, "--out", str(tmp_path / "v.cplx")]) == 0


def test_clip(tmp_path):
    pts = write(tmp_path / "p.pts", SQUARE)
    fixed = str(tmp_path / "f.pts")
    run(["perturb", "--points", pts, "--bound", "1/100", "--seed", "1",
         "--out", fixed])
    rgn = write(tmp_path / "r.rgn", BOX_REGION)
    out = str(tmp_path / "c.cplx")
    assert run(["clip", "--points", fixed, "--region", rgn, "--out", out]) == 0
    assert parse_cplx((tmp_path / "c.cplx").read_text()).is_simple()[0]


def test_parasite_pipeline(tmp_path):
    from polycx import RationalPolyhedron, PolyhedralComplex, format_cplx
    C = PolyhedralComplex.from_subdivision(
        [RationalPolyhedron.from_box([0, 0], [1, 1])])
    cplx = write(tmp_path / "sq.cplx", format_cplx(C))
    for cmd, out in (("parasites", "par.json"), ("saturate", "sat.json"),
                     ("verify-proper", "vp.json")):
        assert run([cmd, "--complex", cplx, "--out", str(tmp_path / out)]) == 0
    ledger_path = str(tmp_path / "plan.ledger")
    assert run(["blowup-plan", "--complex", cplx, "--out", ledger_path]) == 0
    ledger = parse_ledger((tmp_path / "plan.ledger").read_text())
    assert len(ledger.stages) == 1
    sat = json.loads((tmp_path / "sat.json").read_text())
    assert len(sat["records"]) == 6


def test_non_simple_complex_is_verification_failure(tmp_path):
    from polycx import RationalPolyhedron, PolyhedralComplex, format_cplx
    grid = PolyhedralComplex.from_subdivision(
        [RationalPolyhedron.from_box([i, j], [i + 1, j + 1])
         for i in range(2) for j in range(2)])
    cplx = write(tmp_path / "grid.cplx", format_cplx(grid))
    assert run(["check-simple", "--complex", cplx]) == 1
    for cmd in ("verify-proper", "blowup-plan"):
        assert run([cmd, "--complex", cplx,
                    "--out", str(tmp_path / "out")]) == 1


def test_nerve_homology_pi1(tmp_path):
    from polycx import RationalPolyhedron, PolyhedralComplex, format_cplx
    C = PolyhedralComplex.from_subdivision(
        [RationalPolyhedron.from_box([i], [i + 1]) for i in range(3)])
    cplx = write(tmp_path / "c.cplx", format_cplx(C))
    scx = str(tmp_path / "n.scx")
    assert run(["nerve", "--complex", cplx, "--out", scx]) == 0
    rep = str(tmp_path / "h.json")
    assert run(["homology", "--scx", scx, "--ring", "q", "--out", rep]) == 0
    data = json.loads((tmp_path / "h.json").read_text())
    assert data["betti"] == [1, 0]
    grp = str(tmp_path / "pi.grp")
    assert run(["pi1", "--scx", scx, "--simplify", "--out", grp]) == 0


def test_superperfect_higman(tmp_path):
    grp = write(tmp_path / "h.grp", format_grp(higman_presentation()))
    rep = str(tmp_path / "sp.json")
    assert run(["superperfect", "--presentation", grp, "--out", rep]) == 0
    data = json.loads((tmp_path / "sp.json").read_text())
    assert data["certified"] is True
    assert data["chi"] == 1
    assert data["h1_free_rank"] == 0 and data["h1_torsion"] == []


def test_superperfect_scales_to_many_generators(tmp_path):
    # 300 generators and one commutator: H1 has rank 300 and H2 rank 1, so
    # the certificate fails (exit 1) after the report is written
    text = "gens 300\nx1 x2 x1^-1 x2^-1\n"
    grp = write(tmp_path / "g.grp", text)
    rep = str(tmp_path / "sp.json")
    assert run(["superperfect", "--presentation", grp, "--out", rep]) == 1
    data = json.loads((tmp_path / "sp.json").read_text())
    assert data["reduced_betti"] == [0, 300, 1]
    assert data["certified"] is False


def test_dual_complex_and_move(tmp_path):
    strata = write(tmp_path / "s.json", json.dumps({
        "components": ["A", "B", "C"],
        "strata": [
            {"components": ["A"], "count": 1},
            {"components": ["B"], "count": 1},
            {"components": ["C"], "count": 1},
            {"components": ["A", "B"], "count": 1},
            {"components": ["B", "C"], "count": 1},
            {"components": ["A", "C"], "count": 1},
        ]}))
    scx = str(tmp_path / "dc.scx")
    assert run(["dual-complex", "--strata", strata, "--out", scx]) == 0
    K = parse_scx((tmp_path / "dc.scx").read_text())
    assert K.f_vector() == (3, 3)
    out = str(tmp_path / "moved.scx")
    assert run(["dual-move", "--scx", scx, "--kind", "barycentric",
                "--target", "A,B", "--out", out]) == 0
    assert parse_scx((tmp_path / "moved.scx").read_text()).f_vector() == (4, 4)


def test_no_limit_check(tmp_path):
    rep = str(tmp_path / "nl.json")
    assert run(["no-limit-check", "--degree", "4", "--out", rep]) == 0
    data = json.loads((tmp_path / "nl.json").read_text())
    assert data["restriction_image_dim"] == 1
    assert run(["no-limit-check", "--degree", "3", "--no-shear",
                "--out", rep]) == 0
    assert json.loads((tmp_path / "nl.json").read_text())[
        "restriction_image_dim"] == 4


def test_input_errors_exit_2(tmp_path):
    assert run(["voronoi", "--points", str(tmp_path / "missing.pts"),
                "--out", str(tmp_path / "v.cplx")]) == 2
    bad = write(tmp_path / "bad.pts", "not points\n")
    assert run(["voronoi", "--points", bad,
                "--out", str(tmp_path / "v.cplx")]) == 2
    assert run(["frobnicate"]) == 2


def test_one_parser_serves_many_commands(tmp_path, capsys, monkeypatch):
    # one process runs a mix of subcommands, a usage error among them; the
    # parser built once must give what a fresh parser gives each command
    commands = [
        ["voronoi", "--points", "p.pts", "--out", "v.cplx"],
        ["check-simple", "--points", "p.pts"],
        ["homology", "--scx"],
        ["nerve", "--complex", "v.cplx", "--out", "n.scx"],
        ["homology", "--scx", "n.scx", "--ring", "q", "--out", "h.json"],
        ["frobnicate"],
        ["pi1", "--scx", "n.scx", "--simplify", "--out", "pi.grp"],
        ["parasites", "--complex", "v.cplx", "--out", "l.ledger"],
        ["superperfect", "--presentation", "h.grp", "--out", "sp.json"],
        ["no-limit-check", "--degree", "3", "--out", "nl.json"],
    ]

    def session(name, fresh):
        work = tmp_path / name
        work.mkdir()
        write(work / "p.pts", SQUARE)
        write(work / "h.grp", format_grp(higman_presentation()))
        monkeypatch.chdir(work)
        cli._build_parser.cache_clear()
        seen = []
        for argv in commands:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            out, err = capsys.readouterr()
            seen.append((code, out, err))
        if not fresh:
            assert cli._build_parser.cache_info().misses == 1
        return seen, {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    reused, fresh = session("reused", False), session("fresh", True)
    assert [code for code, _, _ in reused[0]] == [0, 1, 2, 0, 0, 2, 0, 0, 0, 0]
    assert reused == fresh


def test_subcommand_replaced_after_parser_is_built_still_runs(tmp_path, monkeypatch):
    # the parser holds subcommand names, not functions, so a replacement
    # made after the first run is the one that runs
    pts = write(tmp_path / "p.pts", TWO_SITES)
    assert run(["voronoi", "--points", pts, "--out", str(tmp_path / "v.cplx")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_voronoi", calls.append)
    assert run(["voronoi", "--points", pts, "--out", str(tmp_path / "w.cplx")]) == 0
    assert [a.out for a in calls] == [str(tmp_path / "w.cplx")]
    assert not (tmp_path / "w.cplx").exists()


def test_zero_denominator_is_input_error(tmp_path, capsys):
    pts = write(tmp_path / "z.pts", "2 2\n0 0\n1/0 1\n")
    assert run(["check-simple", "--points", pts]) == 2
    assert "1/0" in capsys.readouterr().err
    good = write(tmp_path / "g.pts", "2 3\n0 0\n2 0\n0 2\n")
    rgn = write(tmp_path / "z.rgn", BOX_REGION.replace("<= 2\n", "<= 1/0\n", 1))
    assert run(["clip", "--points", good, "--region", rgn,
                "--out", str(tmp_path / "c.cplx")]) == 2


def test_negative_generator_count_is_input_error(tmp_path, capsys):
    grp = write(tmp_path / "neg.grp", "gens -1\n")
    rep = tmp_path / "sp.json"
    assert run(["superperfect", "--presentation", grp, "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert not rep.exists()


def test_negative_region_dimension_is_input_error(tmp_path, capsys):
    # a POLY/1 header with N < 0 is rejected where it is read, before
    # clipping can fail on a polyhedron of negative dimension
    pts = write(tmp_path / "g.pts", "2 3\n0 0\n2 0\n0 2\n")
    for piece in ("1\n-3 0\n", "1\n-1 0\n"):
        rgn = write(tmp_path / "r.rgn", piece)
        out = tmp_path / "c.cplx"
        assert run(["clip", "--points", pts, "--region", rgn, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "non-negative" in err
        assert not out.exists()


def test_huge_generator_count_is_input_error(tmp_path, capsys):
    # a count past sys.maxsize cannot size the exponent rows; counts that
    # fit an index but would allocate gigabytes are left untested
    for text in ("gens 99999999999999999999\nx1\n", "gens 99999999999999999999\n"):
        grp = write(tmp_path / "huge.grp", text)
        rep = tmp_path / "sp.json"
        assert run(["superperfect", "--presentation", grp, "--out", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "(line 1)" in err
        assert err.count("\n") == 1
        assert not rep.exists()


def test_clip_dimension_mismatch_is_input_error(tmp_path, capsys):
    good = write(tmp_path / "g.pts", "2 3\n0 0\n2 0\n0 2\n")
    for piece in ("1\n1 2\n1 <= 1\n-1 <= 1\n", "1\n0 0\n"):
        rgn = write(tmp_path / "r.rgn", piece)
        out = tmp_path / "c.cplx"
        assert run(["clip", "--points", good, "--region", rgn, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "dimension" in err
        assert not out.exists()


def test_clip_non_simple_sites_is_verification_failure(tmp_path, capsys):
    pts = write(tmp_path / "sq.pts", SQUARE)
    rgn = write(tmp_path / "r.rgn", BOX_REGION)
    assert run(["clip", "--points", pts, "--region", rgn,
                "--out", str(tmp_path / "c.cplx")]) == 1
    assert capsys.readouterr().err.startswith("verification failure:")


def test_byte_identical_reports(tmp_path):
    pts = write(tmp_path / "p.pts", SQUARE)
    a, b = str(tmp_path / "a.pts"), str(tmp_path / "b.pts")
    for out in (a, b):
        assert run(["perturb", "--points", pts, "--bound", "1/100",
                    "--seed", "42", "--out", out]) == 0
    assert (tmp_path / "a.pts").read_bytes() == (tmp_path / "b.pts").read_bytes()


SEGMENT = "1 2\n1 <= 1\n-1 <= 0\n"
CPLX = {"schema_version": "CPLX/1", "ambient_dim": 1, "morphisms": [],
        "faces": [{"id": 0, "poly": SEGMENT}]}
SCX = {"schema_version": "SCX/1", "vertex_count": 2, "labels": [0, 1],
       "maximal_simplices": [[0, 1]]}

BAD_CPLX = {
    "faces-not-a-list": dict(CPLX, faces=5),
    "top-level-array": [CPLX],
    "poly-not-a-string": dict(CPLX, faces=[{"id": 0, "poly": 5}]),
    "id-not-an-integer": dict(CPLX, faces=[{"id": "0", "poly": SEGMENT}]),
    "duplicate-id": dict(CPLX, faces=[{"id": 0, "poly": SEGMENT}] * 2),
    "ambient-dim-missing": {k: v for k, v in CPLX.items() if k != "ambient_dim"},
    "morphism-not-an-object": dict(CPLX, morphisms=[[0, 1]]),
    "morphism-unknown-face": dict(CPLX, morphisms=[{"src": 0, "dst": 7}]),
}
BAD_SCX = {
    "index-out-of-range": dict(SCX, maximal_simplices=[[0, 2]]),
    "negative-index": dict(SCX, maximal_simplices=[[0, -1]]),
    "top-level-array": [SCX],
    "simplices-not-lists": dict(SCX, maximal_simplices=[0, 1]),
    "label-not-int-or-string": dict(SCX, labels=[0, [1]]),
    "duplicate-label": dict(SCX, labels=[0, 0]),
    "vertex-count-mismatch": dict(SCX, vertex_count=3),
}


def test_well_formed_cplx_and_scx_pass(tmp_path):
    cplx = write(tmp_path / "c.cplx", json.dumps(CPLX))
    scx = write(tmp_path / "k.scx", json.dumps(SCX))
    assert run(["nerve", "--complex", cplx, "--out", str(tmp_path / "n.scx")]) == 0
    for cmd in ("homology", "pi1"):
        assert run([cmd, "--scx", scx, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("case", sorted(BAD_CPLX))
def test_malformed_cplx_exits_2(tmp_path, capsys, case):
    cplx = write(tmp_path / "bad.cplx", json.dumps(BAD_CPLX[case]))
    for argv in (["nerve", "--complex", cplx, "--out", str(tmp_path / "n.scx")],
                 ["parasites", "--complex", cplx, "--out", str(tmp_path / "p.json")]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(BAD_SCX))
def test_malformed_scx_exits_2(tmp_path, capsys, case):
    scx = write(tmp_path / "bad.scx", json.dumps(BAD_SCX[case]))
    for cmd in ("homology", "pi1"):
        assert run([cmd, "--scx", scx, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: SCX/1: ") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=6)
indices = st.lists(st.lists(st.integers(-3, 4) | json_values, max_size=3) | json_values,
                   max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({
    "schema_version": st.just("SCX/1"),
    "vertex_count": st.integers(0, 4) | json_values,
    "labels": st.lists(st.integers(0, 3) | st.sampled_from("ab") | json_values,
                       max_size=4) | json_values,
    "maximal_simplices": indices,
}))
def test_scx_fuzz_is_parsed_or_rejected(data):
    try:
        K = parse_scx(json.dumps(data))
    except ValueError:
        return
    assert set(K.vertices) == set(data["labels"])


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({
    "schema_version": st.just("CPLX/1"),
    "ambient_dim": st.integers(0, 2) | json_values,
    "faces": st.lists(st.fixed_dictionaries({
        "id": st.integers(0, 3) | json_values,
        "poly": st.sampled_from([SEGMENT, "1 0\n", "2 0\n", "x"]) | json_values,
    }), max_size=3) | json_values,
    "morphisms": st.lists(st.fixed_dictionaries({
        "src": st.integers(0, 3) | json_values,
        "dst": st.integers(0, 3) | json_values,
    }), max_size=3) | json_values,
}))
def test_cplx_fuzz_is_parsed_or_rejected(data):
    try:
        C = parse_cplx(json.dumps(data))
    except ValueError:
        return
    assert sorted(C.ids()) == sorted(f["id"] for f in data["faces"])


def test_cyclic_incidences_exit_2(tmp_path, capsys):
    cycle = dict(CPLX, faces=[{"id": 0, "poly": SEGMENT}, {"id": 1, "poly": SEGMENT}],
                 morphisms=[{"src": 0, "dst": 1}, {"src": 1, "dst": 0}])
    cplx = write(tmp_path / "cycle.cplx", json.dumps(cycle))
    for argv in (["nerve", "--complex", cplx, "--out", str(tmp_path / "n.scx")],
                 ["parasites", "--complex", cplx, "--out", str(tmp_path / "p.json")],
                 ["check-simple", "--complex", cplx]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: incidences form a cycle through face ")
        assert err.count("\n") == 1
    assert not (tmp_path / "n.scx").exists() and not (tmp_path / "p.json").exists()


def test_self_loop_on_unknown_face_exits_2(tmp_path, capsys):
    # a morphism from an unknown face to itself names that face all the same
    loop = dict(CPLX, morphisms=[{"src": 7, "dst": 7}])
    cplx = write(tmp_path / "loop.cplx", json.dumps(loop))
    for argv in (["nerve", "--complex", cplx, "--out", str(tmp_path / "n.scx")],
                 ["parasites", "--complex", cplx, "--out", str(tmp_path / "p.json")],
                 ["check-simple", "--complex", cplx]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "input error: incidence pair references unknown face id\n"
    assert not (tmp_path / "n.scx").exists() and not (tmp_path / "p.json").exists()


def test_empty_face_exits_2(tmp_path, capsys):
    # x < 0 and -x < 0: a face no point satisfies
    empty = dict(CPLX, faces=[{"id": 0, "poly": "1 2\n1 < 0\n-1 < 0\n"}])
    cplx = write(tmp_path / "empty.cplx", json.dumps(empty))
    for argv in (["nerve", "--complex", cplx, "--out", str(tmp_path / "n.scx")],
                 ["check-simple", "--complex", cplx],
                 ["parasites", "--complex", cplx, "--out", str(tmp_path / "p.json")]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "input error: face 0 is empty\n"
    assert not (tmp_path / "n.scx").exists() and not (tmp_path / "p.json").exists()


def point_poly(x, y):
    return "2 4\n1 0 <= %d\n-1 0 <= %d\n0 1 <= %d\n0 -1 <= %d\n" % (x, -x, y, -y)


def test_non_geometric_incidence_exits_2(tmp_path, capsys):
    # the point (0, 0) declared a face of the point (1, 1)
    bad = dict(CPLX, ambient_dim=2,
               faces=[{"id": 0, "poly": point_poly(0, 0)}, {"id": 1, "poly": point_poly(1, 1)}],
               morphisms=[{"src": 0, "dst": 1}])
    cplx = write(tmp_path / "bad.cplx", json.dumps(bad))
    for cmd in ("parasites", "saturate", "verify-proper", "blowup-plan"):
        out = tmp_path / (cmd + ".out")
        assert run([cmd, "--complex", cplx, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: span assignment is not functorial at 0 <= 1")
        assert "span of face 0 does not lie in the span of face 1" in err
        assert err.count("\n") == 1 and not out.exists()


def test_internal_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    import importlib
    homology = importlib.import_module("polycx.homology")
    real = homology.smith_normal_form

    def mutated(M):
        snf = real(M)
        snf.diagonal = [[2 * x for x in row] for row in snf.diagonal]
        return snf

    scx = write(tmp_path / "seg.scx", json.dumps(SCX))
    out = tmp_path / "h.json"
    assert run(["homology", "--scx", scx, "--ring", "z", "--out", str(out)]) == 0
    out.unlink()
    monkeypatch.setattr(homology, "smith_normal_form", mutated)
    assert run(["homology", "--scx", scx, "--ring", "z", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: Smith form of boundary 1 failed certification\n"
    assert not out.exists()


def test_uncertified_h1_exits_3(tmp_path, capsys, monkeypatch):
    import dataclasses
    import importlib
    groups = importlib.import_module("polycx.groups")
    real = groups.smith_normal_form
    grp = write(tmp_path / "c6.grp", "gens 1\nx1 x1 x1 x1 x1 x1\n")
    out = tmp_path / "sp.json"
    assert run(["superperfect", "--presentation", grp, "--out", str(out)]) == 0
    assert "h1: Z^0 + [6]" in capsys.readouterr().out
    out.unlink()
    # D = [[1]] would report a trivial H1; no logged operation carries [[6]] to it
    monkeypatch.setattr(groups, "smith_normal_form", lambda M: dataclasses.replace(
        real(M), diagonal=[[1]], invariant_factors=[1]))
    assert run(["superperfect", "--presentation", grp, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: Smith form of the 1 x 1 exponent matrix failed certification\n"
    assert not out.exists()


STRATA = {"components": ["A", 2],
          "strata": [{"components": ["A"], "count": 1}, {"components": [2], "count": 1},
                     {"components": ["A", 2], "count": 2}]}
BAD_STRATA = {
    "top-level-array": [1],
    "components-missing": {"strata": STRATA["strata"]},
    "components-not-a-list": dict(STRATA, components="A2"),
    "component-not-a-label": dict(STRATA, components=["A", [2]]),
    "component-is-a-boolean": dict(STRATA, components=["A", True]),
    "strata-not-a-list": dict(STRATA, strata={"A": 1}),
    "stratum-not-an-object": dict(STRATA, strata=[["A"]]),
    "stratum-without-components": dict(STRATA, strata=[{"count": 1}]),
    "stratum-component-not-a-label": dict(STRATA, strata=[{"components": [None], "count": 1}]),
    "count-not-an-integer": dict(STRATA, strata=[{"components": ["A"], "count": "1"}]),
}


def test_well_formed_strata_pass(tmp_path):
    strata = write(tmp_path / "s.json", json.dumps(STRATA))
    assert run(["dual-complex", "--strata", strata, "--out", str(tmp_path / "k.scx")]) == 0
    assert parse_scx((tmp_path / "k.scx").read_text()).f_vector() == (4, 4)


@pytest.mark.parametrize("case", sorted(BAD_STRATA))
def test_malformed_strata_exits_2(tmp_path, capsys, case):
    strata = write(tmp_path / "s.json", json.dumps(BAD_STRATA[case]))
    assert run(["dual-complex", "--strata", strata, "--out", str(tmp_path / "k.scx")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: strata: ") and err.count("\n") == 1


def _label_list(value):
    return isinstance(value, list) and all(type(c) is int or isinstance(c, str) for c in value)


def _well_shaped(data):
    return (isinstance(data, dict) and _label_list(data.get("components"))
            and isinstance(data.get("strata"), list)
            and all(isinstance(e, dict) and _label_list(e.get("components"))
                    and type(e.get("count")) is int for e in data["strata"]))


labels = st.lists(st.sampled_from(["A", "B", 1]) | json_values, max_size=3)


@settings(max_examples=150, deadline=None)
@given(json_values | st.fixed_dictionaries({
    "components": labels | json_values,
    "strata": st.lists(st.fixed_dictionaries({
        "components": labels | json_values,
        "count": st.integers(0, 2) | json_values,
    }) | json_values, max_size=3) | json_values,
}))
def test_strata_fuzz_exits_2_unless_well_shaped(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-strata.json"
    path.write_text(json.dumps(data))
    code = run(["dual-complex", "--strata", str(path),
                "--out", str(tmp_path_factory.getbasetemp() / "fuzz.scx")])
    assert code == 2 if not _well_shaped(data) else code in (0, 2)


PTS_FILES = [SQUARE, "2 4\n0 0\n2 1/2\n-1 3\n3/2 -2\n", "1 3\n0\n1\n7/2\n",
             "3 4\n0 0 0\n2 0 0\n0 3 0\n0 0 5\n"]
RGN_FILES = [BOX_REGION, "2\n2 3\n-1 0 <= 0\n0 -1 <= 0\n1 1 <= 1\n2 4\n1 0 <= 3\n-1 0 <= -2\n"
                         "0 1 <= 1\n0 -1 <= 0\n"]
GOLDEN = Path(__file__).resolve().parent / "golden"
GRP_FILES = ["gens 2\nx1 x2 x1^-1 x2^-1\n", "gens 1\nx1 x1\n",
             "gens 2\nx1 x2 x1^-1 x2^-1 x2^-1\nx2 x1 x2^-1 x1^-1 x1^-1\n",
             (GOLDEN / "inputs" / "higman.grp").read_text()]
SCX_FILES = [path.read_text() for path in sorted(GOLDEN.glob("**/*.scx"))]
CPLX_FILES = [path.read_text() for path in sorted(GOLDEN.glob("*.cplx"))]
EDIT_CHARS = "0123456789-/ \nx^<=."
JSON_CHARS = EDIT_CHARS + '"[]{},:'


@st.composite
def mutated(draw, texts, chars=EDIT_CHARS):
    """One of `texts` after one or two edits: a character of `chars`
    inserted or replacing one, a character deleted, or a line duplicated or
    deleted."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "dup-line", "drop-line"]))
        lines = text.split("\n")
        if kind in ("dup-line", "drop-line"):
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [lines[k]] * (2 if kind == "dup-line" else 0)
            text = "\n".join(lines)
            continue
        pos = draw(st.integers(0, max(len(text) - 1, 0)))
        char = draw(st.sampled_from(chars))
        if kind == "insert":
            text = text[:pos] + char + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + char + text[pos + 1:]
    return text


def run_by_contract(argv):
    """Run the CLI; it must exit 0, 1 or 2 within `BOUND_S` seconds, and a
    failure must leave exactly one line on stderr that names its kind."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < BOUND_S, argv
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code == 0:
        assert message == ""
    else:
        prefix = "verification failure: " if code == 1 else "input error: "
        assert message.startswith(prefix) and message.count("\n") == 1, message


@settings(max_examples=160, deadline=None)
@given(mutated(PTS_FILES),
       st.sampled_from(["check-simple", "delaunay", "clip", "perturb", "voronoi"]))
def test_pts_fuzz_exits_by_contract(tmp_path_factory, text, command):
    base = tmp_path_factory.getbasetemp()
    pts = write(base / "fuzz.pts", text)
    out = ["--out", str(base / "fuzz.out")]
    if command == "check-simple":
        run_by_contract(["check-simple", "--points", pts])
    elif command == "clip":
        rgn = write(base / "fuzz.rgn", BOX_REGION)
        run_by_contract(["clip", "--points", pts, "--region", rgn] + out)
    elif command == "perturb":
        run_by_contract(["perturb", "--points", pts, "--bound", "1/100"] + out)
    else:
        run_by_contract([command, "--points", pts] + out)


@settings(max_examples=100, deadline=None)
@given(mutated(SCX_FILES, JSON_CHARS), st.sampled_from(["homology", "pi1"]))
def test_golden_scx_fuzz_exits_by_contract(tmp_path_factory, text, command):
    base = tmp_path_factory.getbasetemp()
    scx = write(base / "fuzz.scx", text)
    extra = ["--ring", "q"] if command == "homology" else ["--simplify"]
    run_by_contract([command, "--scx", scx, "--out", str(base / "fuzz.out")] + extra)


@settings(max_examples=100, deadline=None)
@given(mutated(SCX_FILES, JSON_CHARS), st.sampled_from(["barycentric", "cone-over-star"]),
       st.sampled_from(["0", "0,1", "0,1,2", "1,3", "b(0,1)", "x", "0,0"]))
def test_golden_scx_dual_move_exits_by_contract(tmp_path_factory, text, kind, target):
    base = tmp_path_factory.getbasetemp()
    scx = write(base / "fuzz.scx", text)
    run_by_contract(["dual-move", "--scx", scx, "--kind", kind, "--target", target,
                     "--out", str(base / "fuzz.out")])


@settings(max_examples=100, deadline=None)
@given(mutated(CPLX_FILES, JSON_CHARS), st.sampled_from(["nerve", "check-simple"]))
def test_golden_cplx_fuzz_exits_by_contract(tmp_path_factory, text, command):
    base = tmp_path_factory.getbasetemp()
    cplx = write(base / "fuzz.cplx", text)
    out = ["--out", str(base / "fuzz.out")] if command == "nerve" else []
    run_by_contract([command, "--complex", cplx] + out)


@settings(max_examples=80, deadline=None)
@given(mutated(RGN_FILES))
def test_rgn_fuzz_exits_by_contract(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    pts = write(base / "fuzz.pts", "2 3\n0 0\n2 0\n1/2 3/2\n")
    rgn = write(base / "fuzz.rgn", text)
    run_by_contract(["clip", "--points", pts, "--region", rgn, "--out", str(base / "fuzz.out")])


def superperfect_report(base, text):
    """The exit code of `superperfect` on the text and its report, or
    None where it wrote none."""
    grp = write(base / "sp.grp", text)
    rep = base / "sp.json"
    rep.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(["superperfect", "--presentation", grp, "--out", str(rep)])
    return code, json.loads(rep.read_text()) if rep.exists() else None


def chi_of_betti(data):
    """The Euler characteristic of a connected 2-complex from its reduced
    Betti numbers."""
    b = data["reduced_betti"]
    return 1 - b[1] + b[2]


def check_against_the_simplicial_route(text, data):
    """For a parsed g <= 50, the report's Hopf fields equal the verdict on
    the Q-homology of the simplicial presentation complex."""
    pres = parse_grp(text)
    if pres.generators <= 50:
        cert = q_superperfect_certificate(presentation_complex(pres))
        assert {key: data[key] for key in cert} == cert


@pytest.mark.parametrize("text", GRP_FILES + [
    "gens 1\nx1 x1^-1\n", "gens 2\nx1 x1^-1\nx2\n", "gens 3\n",
    "gens 300\nx1 x2 x1^-1 x2^-1\n", "gens 1\nx1 x1 x1 x1 x1 x1\n"])
def test_superperfect_chi_agrees_with_its_betti_numbers(tmp_path, text):
    code, data = superperfect_report(tmp_path, text)
    assert code in (0, 1)
    assert data["chi"] == chi_of_betti(data)
    check_against_the_simplicial_route(text, data)


@settings(max_examples=100, deadline=None)
@given(grp_texts())
@example("gens 3\nx1 x3 x1^-1 x3^-1\n")
def test_superperfect_report_is_the_simplicial_routes(tmp_path_factory, text):
    code, data = superperfect_report(tmp_path_factory.getbasetemp(), text)
    assert code == (0 if data["certified"] else 1)
    check_against_the_simplicial_route(text, data)


def test_superperfect_builds_no_simplicial_model(tmp_path, monkeypatch):
    # the report reads the Smith form and chi alone, so it stands when the
    # simplicial presentation complex and its homology cannot be built
    groups = importlib.import_module("polycx.groups")

    def refuse(*args):
        raise AssertionError("superperfect built the simplicial model")

    monkeypatch.setattr(groups, "presentation_complex", refuse)
    monkeypatch.setattr(groups, "homology", refuse)
    commands = [c for c in test_golden.COMMANDS if c[0][0] == "superperfect"]
    assert test_golden.produce(tmp_path, commands) == [code for _, code in commands]
    for name in test_golden.outputs(commands):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    g = 10 ** 15
    code, data = superperfect_report(tmp_path, "gens %d\nx1 x2 x1^-1 x2^-1\n" % g)
    assert code == 1
    assert (data["h1_free_rank"], data["reduced_betti"]) == (g, [0, g, 1])


def test_a_relator_that_reduces_away_glues_no_disk(tmp_path):
    # x1 x1^-1 free-reduces to the empty word: the complex is one circle
    code, data = superperfect_report(tmp_path, "gens 1\nx1 x1^-1\n")
    assert code == 1
    assert (data["chi"], data["balanced"], data["reduced_betti"]) == (0, False, [0, 1, 0])


@settings(max_examples=60, deadline=None)
@given(mutated(GRP_FILES))
def test_mutated_superperfect_chi_agrees_with_its_betti_numbers(tmp_path_factory, text):
    _, data = superperfect_report(tmp_path_factory.getbasetemp(), text)
    if data is not None:
        assert data["chi"] == chi_of_betti(data)
        check_against_the_simplicial_route(text, data)


@settings(max_examples=80, deadline=None)
@given(mutated(GRP_FILES))
def test_grp_fuzz_exits_by_contract(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    grp = write(base / "fuzz.grp", text)
    run_by_contract(["superperfect", "--presentation", grp, "--out", str(base / "fuzz.out")])
