"""Smoke runs of the experiment scripts, so removing an API one of them
uses fails the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_flagship_demo():
    res = run_script("flagship_demo.py")
    assert res.returncode == 0, res.stderr
    assert "-79" in res.stdout


@pytest.mark.parametrize("name, args", [
    ("bnb_depth_study.py", ["--steps", "3", "--max-depth", "10"]),
    ("hierarchy_sweep.py", ["--instances", "4", "--levels", "1", "--resolution", "6"]),
])
def test_script_runs(name, args):
    res = run_script(name, *args)
    assert res.returncode == 0, res.stderr
