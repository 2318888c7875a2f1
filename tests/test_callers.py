"""Every function, class and method the package defines is named somewhere
else in the package, so no code in ``src/opatomo`` is there for the tests only.

A definition counts as named when the package reads its name anywhere as a
name (``ast.Name``), an attribute (``ast.Attribute``) or an imported name;
strings, docstrings and ``__all__`` do not count.  Dunder methods, which
Python calls itself, are exempt, and so are the names ``bench/tracer.py``
wraps (its ``TARGETS``), which the benchmark reaches from outside.
"""

import ast
import importlib.util
from pathlib import Path

import opatomo

MODULES = sorted(Path(opatomo.__file__).parent.glob("*.py"))
TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tracer_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _, _ in module.TARGETS}


def _unnamed_definitions(paths, exempt: set[str]) -> list[str]:
    """``module:Class.method`` (or ``module:function``) for each top-level
    definition and method in ``paths`` whose name no module there reads."""
    defined, named = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, _DEFS):
                defined.append((f"{path.stem}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}:{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, _DEFS)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [where for where, name in defined
            if name not in named and name not in exempt
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_named_in_the_package():
    assert _unnamed_definitions(MODULES, _tracer_targets()) == []


def test_the_check_sees_a_definition_only_tests_could_call(tmp_path):
    (tmp_path / "a.py").write_text('"""used_only_here: a docstring is no caller."""\n'
                                   "def unused():\n    pass\n"
                                   "def wrapped():\n    pass\n"
                                   "class Box:\n"
                                   "    def __len__(self):\n        return 0\n"
                                   "    def size(self):\n        return 0\n"
                                   "    def spare(self):\n        return 0\n"
                                   "__all__ = ['unused', 'spare']\n")
    (tmp_path / "b.py").write_text("from a import Box\nn = Box().size()\n")
    assert _unnamed_definitions(sorted(tmp_path.glob("*.py")), {"wrapped"}) == [
        "a:unused", "a:Box.spare"]
