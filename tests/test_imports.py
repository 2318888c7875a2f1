"""Every name a module of the package imports is used, exported or marked.

A name counts as used when the module reads it anywhere (``ast.Name``), as
exported when it is in the module's ``__all__``, and as marked when
``# noqa: F401`` stands on its own line or on its ``from ... import (``
line; a mark says why the import stays.
"""

import ast
from pathlib import Path

import pytest

import opatomo

MODULES = sorted(Path(opatomo.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[lineno - 1]
                         for lineno in (alias.lineno, node.lineno))
            if name not in used and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {alias.name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used_exported_or_marked(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unmarked_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os\n"
                      "import sys  # noqa: F401 (kept)\n"
                      "from json import (  # noqa: F401\n    dumps,\n)\n"
                      "from math import pi, tau\n"
                      "__all__ = ['tau']\n")
    assert _unused_imports(module) == ["probe.py:1: os", "probe.py:6: pi"]
