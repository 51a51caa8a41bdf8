"""The runtime depends on numpy alone: scipy is a test-only oracle. The
package's top-level names cover the README's library sketch, and no module
imports a name it never uses."""

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


def _unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that no `Name` in `text`
    reads, unless `__all__` lists it or `# noqa: F401` is on the import's
    first line or the name's own. A dotted `import a.b` binds `a`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            noqa = any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno})
            if name != "*" and name not in used and not noqa:
                unused.append((alias.lineno, name))
    return unused


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (SRC.parent / d).rglob("*.py"))
    assert len(files) > 20
    found = [f"{p.relative_to(SRC.parent)}:{line}: {name}"
             for p in files for line, name in _unused_imports(p.read_text())]
    assert found == []


def test_unused_import_check_sees_what_it_should():
    probe = ("from __future__ import annotations\n"
             "import os.path\n"
             "import json  # noqa: F401 -- a reason\n"
             "from ast import (  # noqa: F401\n    parse,\n)\n"
             "from re import (\n    fullmatch,  # noqa: F401\n    split,\n)\n"
             "from re import sub as substitute, match\n"
             "__all__ = ['match']\n"
             "def f():\n    import sys\n    return os\n")
    assert _unused_imports(probe) == [(9, "split"), (11, "substitute"), (14, "sys")]
