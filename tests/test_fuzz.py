"""Bounded fuzzing of the commands that read a CPLX/1 complex.

Mutated copies of the golden CPLX/1 files go through `parasites`,
`saturate`, `verify-proper` and `blowup-plan` in process.  Whatever the
input, `cli.run` must end with an exit code of the README's contract for
input (0 ok, 1 verification failure, 2 input error; 3 would be a defect of
the program), no exception may escape it, and each command must finish
within `BOUND_S` seconds.  Mutations act on the text (a few spans replaced
by tokens of the formats) or on the parsed JSON (faces and incidences
dropped, added, swapped or renumbered; a token of a face's POLY/1 text
replaced).
"""

import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from polycx.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {name: (GOLDEN / (name + ".cplx")).read_text()
          for name in ("line", "plane", "plane6", "space", "lattice-clip")}
COMMANDS = ("parasites", "saturate", "verify-proper", "blowup-plan")
BOUND_S = 10.0

# pieces of CPLX/1 and POLY/1 text, some of them malformed
TOKENS = ["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "0/0", "99999999999999999999", "1e3",
          "x", "", " ", "\n", "<=", "<", ">=", "{", "}", "[", "]", '"', ",", ":", "null",
          "true", '"id"', '"poly"', '"src"', '"dst"']
VALUES = st.one_of(st.integers(-3, 8), st.sampled_from([None, "0", [], {}, 1.5, True]))


@st.composite
def text_mutations(draw):
    text = INPUTS[draw(st.sampled_from(sorted(INPUTS)))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + draw(st.sampled_from(TOKENS)) + text[j:]
    return text


def _poly_token(draw, poly):
    tokens = poly.replace("\n", " \n ").split(" ")
    k = draw(st.integers(0, len(tokens) - 1))
    tokens[k] = draw(st.one_of(st.sampled_from(TOKENS),
                               st.fractions(-5, 5, max_denominator=4).map(str)))
    return " ".join(tokens).replace(" \n ", "\n")


@st.composite
def structure_mutations(draw):
    data = json.loads(INPUTS[draw(st.sampled_from(sorted(INPUTS)))])
    faces, morphisms = data["faces"], data["morphisms"]
    ids = [f["id"] for f in faces]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop-face", "drop-morphism", "add-morphism",
                                     "reverse-morphism", "swap-polys", "poly-token",
                                     "poly-row", "renumber", "field", "ambient"]))
        face = draw(st.sampled_from(faces)) if faces else None
        if kind == "drop-face" and faces:
            faces.remove(face)
        elif kind == "drop-morphism" and morphisms:
            del morphisms[draw(st.integers(0, len(morphisms) - 1))]
        elif kind == "add-morphism":
            end = st.one_of(st.sampled_from(ids), st.integers(-1, len(ids) + 1))
            morphisms.append({"src": draw(end), "dst": draw(end)})
        elif kind == "reverse-morphism" and morphisms:
            m = draw(st.sampled_from(morphisms))
            m["src"], m["dst"] = m["dst"], m["src"]
        elif kind == "swap-polys" and faces:
            other = draw(st.sampled_from(faces))
            face["poly"], other["poly"] = other["poly"], face["poly"]
        # a "field" edit may have left a face's poly a non-string, which
        # the two text edits of a poly skip
        elif kind == "poly-token" and faces and isinstance(face["poly"], str):
            face["poly"] = _poly_token(draw, face["poly"])
        elif kind == "poly-row" and faces and isinstance(face["poly"], str) \
                and "\n" in face["poly"]:
            lines = face["poly"].split("\n")
            k = draw(st.integers(1, max(1, len(lines) - 2)))
            if draw(st.booleans()):
                lines.insert(k, lines[k])
            else:
                del lines[k]
            face["poly"] = "\n".join(lines)
        elif kind == "renumber" and faces:
            face["id"] = draw(st.integers(-1, len(ids) + 1))
        elif kind == "field":
            target = draw(st.sampled_from([data, face or data]))
            target[draw(st.sampled_from(sorted(target)))] = draw(VALUES)
        elif kind == "ambient":
            data["ambient_dim"] = draw(st.integers(-1, 4))
    return json.dumps(data)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(text_mutations(), structure_mutations()))
def test_mutated_complexes_exit_by_the_contract(text):
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "in.cplx", Path(work) / "out"
        path.write_text(text)
        for cmd in COMMANDS:
            start = time.perf_counter()
            code = run([cmd, "--complex", str(path), "--out", str(out)])
            assert code in (0, 1, 2), (cmd, code)
            assert time.perf_counter() - start < BOUND_S, cmd
