"""Smoke test: the narrative demos run to completion.

Demos 01-04 take about two seconds together and demo 05 (exact search for
four and six teams) about five.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_lower_bound",
    "02_construct_and_validate",
    "03_derandomize",
    "04_local_search",
    "05_small_exact",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "demos" / f"{demo}.py"
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
