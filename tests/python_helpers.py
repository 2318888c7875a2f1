"""Run Python in a fresh interpreter that imports this checkout's ``src``,
under the current locale or under one whose text encoding is ASCII."""

import os
from pathlib import Path
import subprocess
import sys

SRC = Path(__file__).resolve().parent.parent / "src"
# The C locale without coercion to C.UTF-8 and without UTF-8 mode.
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_python(*args: str, env: dict | None = None, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` with ``env`` on top of this process's environment."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})}, timeout=120)
