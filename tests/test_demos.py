"""Each demo script runs to completion from the repository root."""

import os
import subprocess
import sys

import pytest

import scarr

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(REPO_ROOT, "demos"))
    if name.endswith(".py")
)


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    # the directory `scarr` was imported from, so the demo runs this source
    src = os.path.dirname(os.path.dirname(os.path.abspath(scarr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # demo 04 works in a mkdtemp copy it leaves behind
    done = subprocess.run(
        [sys.executable, os.path.join("demos", demo)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
