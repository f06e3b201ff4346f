"""Every demo script and the README quickstart run to completion, the demos
leave no temp files, and the package namespace holds exactly the names the
demos, README and tests import."""

import pkgutil
import re
from pathlib import Path

import pytest

import tsnmf
from tsnmf import make_planted_instance

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICKSTART = re.compile(r"^## Library quickstart\n+```python\n(.*?)^```$", re.M | re.S)
# one import statement from the package itself, or one inside a string literal
TOP_LEVEL_IMPORT = re.compile(r"\bfrom\s+tsnmf\s+import\s+(\([^)]*\)|[^\n\\]*)")


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, run_python, demo):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = run_python([str(demo)], env={"TMPDIR": str(tmpdir)}, cwd=tmp_path, capture_output=True,
                      text=True, timeout=120)
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


def test_readme_quickstart_runs_on_a_planted_instance(capsys):
    code = QUICKSTART.search((ROOT / "README.md").read_text()).group(1)
    code = "".join(line for line in code.splitlines(True) if not line.startswith("V = "))
    inst = make_planted_instance(40, 30, 3, seed=11)
    table = inst.label_table
    doc_label_sets = [{table.labels[j] for j in labels} for labels in table.doc_labels]
    namespace = {"V": inst.V, "doc_label_sets": doc_label_sets}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    report = namespace["report"]
    assert namespace["table"] == table
    assert capsys.readouterr().out == f"{report.resolved_count} {report.mean_similarity}\n"
    assert 0 <= report.resolved_count <= 3 and 0.0 < report.mean_similarity <= 1.0
