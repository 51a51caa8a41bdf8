"""The runtime depends on numpy alone: scipy is a test-only oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
