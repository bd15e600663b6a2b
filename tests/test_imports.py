"""Every module-level import of the library is used in its module.

No linter is part of the toolchain, so this reads each module's syntax tree
with `ast`.  `__init__.py` is left out: its imports are the package's
public names.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "polycx").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import json\nimport sys\nfrom math import gcd, lcm\n"
                          "sys.exit(gcd(2, 4))\n") == [(1, "json"), (3, "lcm")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
