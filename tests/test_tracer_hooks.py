"""The benchmark's tracer (perfbench/tracer.py) wraps polycx functions by
name.  Every name it lists must still resolve, so that a refactor which
drops or renames one fails here and not in a benchmark run."""

import importlib
import inspect
from pathlib import Path

from polycx.homology import ChainComplex, smith_normal_form

from _corpus import projective_plane, torus

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_specs():
    # compiled from its text, so nothing is written next to the file
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["SPECS"]


def test_every_traced_name_resolves():
    # Tracer.install replaces a traced class attribute by a wrapping
    # function, so a property or cached_property would stop being one and
    # every traced run would fail: each must be a function or staticmethod
    specs = tracer_specs()
    assert specs
    missing = []
    for module_name, attr, keys, extra in specs:
        module = importlib.import_module("polycx." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(module, cls_name, object)).get(meth)
            found = inspect.isfunction(raw) or isinstance(raw, staticmethod)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append("%s.%s" % (module_name, attr))
    assert not missing, ("traced names no longer defined as functions or staticmethods: %s"
                         % ", ".join(missing))


def dense(T, rows, cols):
    """T is a list of `rows` lists of `cols` ints."""
    return (type(T) is list and len(T) == rows
            and all(type(row) is list and len(row) == cols for row in T)
            and all(type(x) is int for row in T for x in row))


def test_what_the_benchmark_reads_stays_dense():
    # perfbench/workloads.py stores these as they are in its results
    for K in (torus(), projective_plane()):
        boundaries = ChainComplex.of_complex(K).boundaries
        assert sorted(boundaries) == [1, 2]
        for k, M in boundaries.items():
            m, n = len(M), len(M[0])
            assert dense(M, m, n)
            snf = smith_normal_form(M)
            assert dense(snf.U, m, m) and dense(snf.V, n, n) and dense(snf.diagonal, m, n)
