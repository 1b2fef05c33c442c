"""Smoke tests: every demo script runs, the package's public names resolve,
and every package module has a caller inside the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picrypt

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "picrypt"


def test_public_names_resolve():
    missing = [name for name in picrypt.__all__ if not hasattr(picrypt, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert list(tmp_path.iterdir()) == []


def imported_modules(path):
    """Names of the package modules that the module at ``path`` imports;
    the package imports its own modules relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" names x; "from . import x, y" names x and y
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_every_module_has_a_caller_in_the_package():
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    callers = {name: set() for name in modules}
    for name, path in modules.items():
        for used in imported_modules(path) & modules.keys() - {name}:
            callers[used].add(name)
    orphans = [name for name, who in sorted(callers.items())
               if not who and name not in ("__init__", "cli")]
    assert orphans == []


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one dependency in pyproject.toml; any other third-party
    # import may be missing where the package is installed, and adds to the
    # cost of every import of it
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []
