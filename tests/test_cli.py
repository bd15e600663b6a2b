import json

import pytest
from hypothesis import given, settings, strategies as st

from polycx.cli import run
from polycx import (
    higman_presentation,
    format_grp,
    parse_cplx,
    parse_scx,
    parse_pts,
    parse_ledger,
    is_simple_configuration,
)


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


def test_delaunay_degenerate_is_verification_failure(tmp_path):
    pts = write(tmp_path / "p.pts", SQUARE)
    assert run(["delaunay", "--points", pts,
                "--out", str(tmp_path / "d.scx")]) == 1


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


def test_zero_denominator_is_input_error(tmp_path, capsys):
    pts = write(tmp_path / "z.pts", "2 2\n0 0\n1/0 1\n")
    assert run(["check-simple", "--points", pts]) == 2
    assert "1/0" in capsys.readouterr().err
    good = write(tmp_path / "g.pts", "2 3\n0 0\n2 0\n0 2\n")
    rgn = write(tmp_path / "z.rgn", BOX_REGION.replace("<= 2\n", "<= 1/0\n", 1))
    assert run(["clip", "--points", good, "--region", rgn,
                "--out", str(tmp_path / "c.cplx")]) == 2


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
