"""The span tracer in bench/ wraps program functions by name.

Installing it here makes a refactor that removes or renames one of
those functions fail the test suite rather than a later traced run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install()"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
