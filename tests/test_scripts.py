"""Smoke runs of the experiment scripts, so removing an API one of them
uses fails the test suite."""

import os
import subprocess
import sys
from pathlib import Path

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

