"""The benchmark's tracer (perfbench/tracer.py) wraps polycx functions by
name.  Every name it lists must still resolve, so that a refactor which
drops or renames one fails here and not in a benchmark run."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_specs():
    # compiled from its text, so nothing is written next to the file
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["SPECS"]


def test_every_traced_name_resolves():
    specs = tracer_specs()
    assert specs
    missing = []
    for module_name, attr, keys, extra in specs:
        module = importlib.import_module("polycx." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append("%s.%s" % (module_name, attr))
    assert not missing, "traced names no longer defined: %s" % ", ".join(missing)
