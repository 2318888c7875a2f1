"""Every name a module of the package imports is used, exported or marked,
and every third-party module it imports is a declared dependency.

A name counts as used when the module reads it anywhere (``ast.Name``), as
exported when it is in the module's ``__all__``, and as marked when
``# noqa: F401`` stands on its own line or on its ``from ... import (``
line; a mark says why the import stays.  The third-party modules the package
imports and the ``[project].dependencies`` of ``pyproject.toml`` must be the
same set.  No module reads ``linalg``: numpy's first LAPACK call maps about
1.1 MiB of pages that stay resident, so the package calls none.
"""

import ast
from pathlib import Path
import re
import sys

import pytest

import opatomo

MODULES = sorted(Path(opatomo.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def _dependency_mismatch(paths, pyproject: Path) -> tuple[list[str], list[str]]:
    """The third-party top-level modules ``paths`` import that ``pyproject``
    does not declare, and the declared dependencies none of them imports."""
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= {*sys.stdlib_module_names, "opatomo"}
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    return sorted(imported - declared), sorted(declared - imported)


def test_every_third_party_import_is_a_declared_dependency():
    assert _dependency_mismatch(MODULES, PYPROJECT) == ([], [])


def test_the_check_sees_an_undeclared_and_an_unused_dependency(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import json\nimport numpy as np\nfrom orjson import dumps\n"
                      "from . import chain\nfrom opatomo.states import preset\n")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project]\ndependencies = ["numpy>=1.24", "scipy>=1.10"]\n')
    assert _dependency_mismatch([module], pyproject) == (["orjson"], ["scipy"])


def _linalg_reads(path: Path) -> list[str]:
    """Where the module at ``path`` reads ``linalg``: as a name, an attribute or
    an imported module or name."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any("linalg" in name.split(".") for name in names):
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_reads_linalg(path):
    assert _linalg_reads(path) == []


def test_the_check_sees_every_way_to_read_linalg(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text('"""No LAPACK: numpy.linalg stays out."""\n'
                      "import numpy as np\n"
                      "x = np.linalg.norm(np.ones(2))\n"
                      "from numpy import linalg\n"
                      "import numpy.linalg as la\n"
                      "from numpy.linalg import lstsq\n"
                      "y = linalg\n")
    assert _linalg_reads(module) == [f"probe.py:{line}" for line in (3, 4, 5, 6, 7)]


_OS_WRITES = {"replace", "remove", "makedirs", "mkdir"}
_PATH_WRITES = {"write_text", "write_bytes", "mkdir"}


def _file_writes(path: Path) -> list[str]:
    """Each call in the module at ``path`` that writes, replaces, removes or
    makes a file or directory outside ``chain.write_output``: ``open`` with a
    mode that writes, appends or creates (or a mode that is not a literal),
    ``os.replace``, ``os.remove``, ``os.makedirs`` or ``os.mkdir`` (called
    through ``os`` or imported from it), and a ``Path.write_*`` or
    ``Path.mkdir`` method."""
    found = []
    for top in ast.parse(path.read_text()).body:
        if path.stem == "chain" and isinstance(top, ast.FunctionDef) and top.name == "write_output":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                writes = any(alias.name in _OS_WRITES for alias in node.names)
            elif not isinstance(node, ast.Call):
                continue
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                mode = modes[0] if modes else ast.Constant("r")
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not set(mode.value) & set("wax+"))
            elif isinstance(node.func, ast.Attribute):
                on_os = isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                writes = node.func.attr in (_OS_WRITES if on_os else _PATH_WRITES)
            else:
                continue
            if writes:
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{path.name}:{line}: {text}" for line, _, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_file_is_written_by_write_output(path):
    assert _file_writes(path) == []


def test_the_check_sees_every_way_to_write_a_file(tmp_path):
    module = tmp_path / "chain.py"
    module.write_text('"""open(p, "w") in a docstring is no call."""\n'
                      "import os\n"
                      "from os import makedirs, path\n"
                      "from pathlib import Path\n"
                      "def write_output(p):\n"
                      "    os.makedirs(p)\n"
                      "    with open(p, 'wb') as fh:\n"
                      "        fh.write(b'')\n"
                      "    os.replace(p, p)\n"
                      "def other(p, mode):\n"
                      "    open(p, 'w'), open(p, mode='a'), open(p, 'xb'), open(p, 'r+')\n"
                      "    open(p, mode)\n"
                      "    open(p), open(p, 'rb'), open(p, encoding='utf-8')\n"
                      "    os.replace(p, p), os.remove(p), os.makedirs(p), os.mkdir(p)\n"
                      "    Path(p).write_text(''), p.write_bytes(b''), p.mkdir()\n"
                      "    p.replace('a', 'b'), p.write(''), write_output(p), makedirs\n")
    assert _file_writes(module) == [
        "chain.py:3: from os import makedirs, path",
        "chain.py:11: open(p, 'w')",
        "chain.py:11: open(p, mode='a')",
        "chain.py:11: open(p, 'xb')",
        "chain.py:11: open(p, 'r+')",
        "chain.py:12: open(p, mode)",
        "chain.py:14: os.replace(p, p)",
        "chain.py:14: os.remove(p)",
        "chain.py:14: os.makedirs(p)",
        "chain.py:14: os.mkdir(p)",
        "chain.py:15: Path(p).write_text('')",
        "chain.py:15: p.write_bytes(b'')",
        "chain.py:15: p.mkdir()",
    ]
    # The same writer in any other module is a second write path.
    other = module.rename(tmp_path / "hist.py")
    assert "hist.py:7: open(p, 'wb')" in _file_writes(other)
