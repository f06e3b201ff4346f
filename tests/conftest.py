"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(args, env=(), start=subprocess.run, **kwargs):
    """Start ``python *args`` with this checkout's ``src/`` ahead of any ``PYTHONPATH``.

    ``env`` adds variables to this process's environment; ``start`` is
    ``subprocess.run`` or ``subprocess.Popen``, and takes ``kwargs``.  A
    ``RuntimeWarning`` is an error there, as pyproject's ``filterwarnings`` makes it here.
    """
    # no empty entry: an unset PYTHONPATH must not put the working directory on sys.path
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **dict(env), "PYTHONPATH": path}
    return start([sys.executable, *args], env=env, **kwargs)


@pytest.fixture
def run_python():
    """``_run_python``: a subprocess that imports the package from this checkout."""
    return _run_python
