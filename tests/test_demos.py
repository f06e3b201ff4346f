"""Every demo script runs to completion and leaves no temp files, and the
package namespace holds exactly the names the demos, README and tests import."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tsnmf

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# one import statement from the package itself, or one inside a string literal
TOP_LEVEL_IMPORT = re.compile(r"\bfrom\s+tsnmf\s+import\s+(\([^)]*\)|[^\n\\]*)")


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, demo):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmpdir.iterdir()) == []  # temporary files are cleaned up


def _names_imported_from_tsnmf(text):
    names = set()
    for group in TOP_LEVEL_IMPORT.findall(text):
        for item in group.strip("()").split(","):
            name = item.split("#")[0].split(" as ")[0].strip()
            if name:
                names.add(name)
    return names


def test_namespace_is_exactly_what_users_import_from_it():
    submodules = {module.name for module in pkgutil.iter_modules(tsnmf.__path__)}
    sources = [*DEMOS, ROOT / "README.md", *sorted((ROOT / "tests").glob("*.py"))]
    imported = set().union(*(_names_imported_from_tsnmf(p.read_text()) for p in sources))
    assert imported - submodules == set(tsnmf.__all__) - {"__version__"}
    for name in tsnmf.__all__:
        getattr(tsnmf, name)  # raises AttributeError for a name listed but not bound
