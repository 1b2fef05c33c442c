"""Smoke tests: every demo script runs, and the package's public names resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import picrypt

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
