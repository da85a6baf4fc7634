"""Each demo prints what demos/expected/<name>.txt holds, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, cwd=ROOT,
                         capture_output=True, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
