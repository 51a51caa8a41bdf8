"""The runtime depends on numpy alone: scipy is a test-only oracle. The
package's top-level names cover the README's library sketch."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import semgcal

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_and_cli_import_no_scipy():
    code = ("import json, sys, semgcal, semgcal.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []


def _readme_sketch_imports() -> set[str]:
    """The names README.md's python blocks import `from semgcal`."""
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README.md has no python block"
    return {alias.name for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "semgcal"
            for alias in node.names}


def test_readme_sketch_imports_only_exported_names():
    names = _readme_sketch_imports()
    assert "scadann_calibrate" in names  # the parse found the sketch's import
    assert names <= set(semgcal.__all__)


def test_exported_names_are_bound_once():
    assert len(set(semgcal.__all__)) == len(semgcal.__all__)
    for name in semgcal.__all__:
        assert hasattr(semgcal, name), name
