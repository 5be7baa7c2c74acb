"""Smoke test: the narrative demos run to completion.

Demos 01-04 take about two seconds together.  Demo 05 (exact search for
six teams) takes about ten seconds, so it is left out of this suite; run it
by hand with `PYTHONPATH=src python demos/05_small_exact.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_lower_bound", "02_construct_and_validate", "03_derandomize", "04_local_search"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "demos" / f"{demo}.py"
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
