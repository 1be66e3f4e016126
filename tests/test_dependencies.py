"""The package loads nothing outside the standard library but numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import edp

PROBE = """
import json, sys
before = set(sys.modules)
import edp, edp.cli, edp.baseline, edp.update, edp.predict
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_imports_only_stdlib_and_numpy():
    """Importing the package and its command modules in a fresh process
    loads no top-level module outside the standard library but numpy,
    pyproject's one dependency. Modules already loaded before the import,
    such as site hooks, do not count."""
    src = str(Path(edp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert {"edp", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"edp", "numpy"} == set()
