"""The scripts in bench/ import program names.

The span tracer wraps program functions by name, and the golden-pool
generator reads `colorpart.tables.ALL_TABLES`.  Loading both here makes
a refactor that removes or renames one of those names fail the test
suite rather than a later traced run or pool rebuild.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_bench(code):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


def test_tracer_installs():
    proc = run_with_bench("import tracing; tracing.install()")
    assert proc.returncode == 0, proc.stderr


def test_golden_generator_reads_table_terms():
    proc = run_with_bench(
        "import make_golden; print(len(make_golden.Goldens().table_terms))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "53\n"
