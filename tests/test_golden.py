"""Golden CLI artifacts.

Every command below runs on the committed inputs in `tests/golden/inputs`,
and each file it writes must equal, byte for byte, the copy kept in
`tests/golden`.  The inputs are a degenerate 4x4 lattice (witness,
perturbation, clipping, nerve), the corners of a cube (witness), small
site sets in dimensions 1, 2 and 3 (Voronoi complex, Delaunay nerve and
report, the parasite pipeline), the 7-vertex torus and the 6-vertex
projective plane (both dual moves, then homology over Z and Q and the
simplified fundamental group of each moved file) and Higman's
presentation (superperfect certificate), plus the no-limit check with and
without the shear.  A failure here means a change altered
what the CLI writes, which artifacts must never do by accident.
"""

import shutil
from pathlib import Path

from polycx.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
FILE_FLAGS = {"--points", "--region", "--complex", "--scx", "--presentation",
              "--out", "--report"}

# (argv, exit code); file names are relative to the working directory
COMMANDS = [
    (["check-simple", "--points", "lattice.pts", "--out", "lattice-simple.json"], 1),
    (["check-simple", "--points", "cube.pts", "--out", "cube-simple.json"], 1),
    (["perturb", "--points", "lattice.pts", "--bound", "1/8", "--seed", "5",
      "--out", "lattice-perturbed.pts"], 0),
    (["clip", "--points", "lattice-perturbed.pts", "--region", "region.rgn",
      "--out", "lattice-clip.cplx"], 0),
    (["nerve", "--complex", "lattice-clip.cplx", "--out", "lattice-nerve.scx"], 0),
]
for _name in ("line", "plane", "plane6", "space"):
    COMMANDS += [
        (["voronoi", "--points", _name + ".pts", "--out", _name + ".cplx"], 0),
        (["delaunay", "--points", _name + ".pts", "--out", _name + "-delaunay.scx",
          "--report", _name + "-delaunay.json"], 0),
    ] + [
        ([cmd, "--complex", _name + ".cplx", "--out", "%s-%s.%s" % (_name, cmd, ext)], 0)
        for cmd, ext in (("parasites", "json"), ("saturate", "json"),
                         ("verify-proper", "json"), ("blowup-plan", "ledger"))
    ]

for _name, _triangle in (("torus", "0,1,3"), ("rp2", "0,1,2")):
    COMMANDS += [
        (["dual-move", "--scx", _name + ".scx", "--kind", "barycentric",
          "--target", _triangle, "--out", _name + "-bary.scx"], 0),
        (["dual-move", "--scx", _name + "-bary.scx", "--kind", "cone-over-star",
          "--target", "0", "--out", _name + "-cone.scx"], 0),
    ]
    for _moved in (_name + "-bary", _name + "-cone"):
        COMMANDS += [
            (["homology", "--scx", _moved + ".scx", "--ring", "z",
              "--out", _moved + "-homology-z.json"], 0),
            (["homology", "--scx", _moved + ".scx", "--ring", "q",
              "--out", _moved + "-homology-q.json"], 0),
            (["pi1", "--scx", _moved + ".scx", "--simplify", "--out", _moved + "-pi1.grp"], 0),
        ]
COMMANDS += [
    (["superperfect", "--presentation", "higman.grp", "--out", "higman-superperfect.json"], 0),
    (["no-limit-check", "--degree", "7", "--out", "nolimit-shear.json"], 0),
    (["no-limit-check", "--degree", "7", "--no-shear", "--out", "nolimit-control.json"], 0),
]


def outputs():
    return [argv[i + 1] for argv, _ in COMMANDS
            for i, a in enumerate(argv) if a in ("--out", "--report")]


def produce(workdir):
    """Copy the inputs into `workdir`, run every command there in order and
    return their exit codes."""
    workdir = Path(workdir)
    for src in (GOLDEN / "inputs").iterdir():
        shutil.copyfile(src, workdir / src.name)
    codes = []
    for argv, _ in COMMANDS:
        argv = [str(workdir / a) if i and argv[i - 1] in FILE_FLAGS else a
                for i, a in enumerate(argv)]
        codes.append(run(argv))
    return codes


def test_golden_artifacts_are_byte_identical(tmp_path):
    assert produce(tmp_path) == [code for _, code in COMMANDS]
    kept = sorted(p.name for p in GOLDEN.iterdir() if p.is_file())
    assert kept == sorted(outputs())
    for name in outputs():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
