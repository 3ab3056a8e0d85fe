"""The scripts in bench/ import program names.

The span tracer wraps program functions by name, and the golden-pool
generator reads `colorpart.tables.ALL_TABLES`.  Loading both here makes
a refactor that removes or renames one of those names fail the test
suite rather than a later traced run or pool rebuild.  A pooled oracle
count under the tracer checks that the pool's task still pickles once
the tracer has rebound the program's functions.  Every seed-1 benchmark
request, run in process with and without the tracer, must pass the
benchmark's own output check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_traced_pooled_walk_matches_oracle():
    proc = run_with_bench(
        "import tracing; tracing.install()\n"
        "from colorpart.core import parse_pattern_set\n"
        "from colorpart.enumeration import count_avoiders\n"
        "S = parse_pattern_set('1^12^11^2')\n"
        "print(count_avoiders(6, 2, S, naive=True, jobs=2), count_avoiders(6, 2, S))")
    assert proc.returncode == 0, proc.stderr
    pooled, dp = proc.stdout.split()
    assert pooled == dp


@pytest.mark.parametrize("traced", ["no", "yes"])
def test_benchmark_outputs_pass_the_golden_check(traced):
    # traced, the tracer rebinds the program's functions before the CLI
    # imports them, as a `--trace 1` run of the benchmark does
    install = "import tracing; tracing.install()\n" if traced == "yes" else ""
    proc = run_with_bench(
        install +
        "import contextlib, io\n"
        "import run, workloads\n"
        "from colorpart import cli\n"
        "pools = workloads.Pools(run.POOLS)\n"
        "total = 0\n"
        "for w in workloads.WORKLOADS:\n"
        "    for req in workloads.build(w, 1, pools):\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = cli.main(req.argv)\n"
        "        reason = workloads.check(req, code, out.getvalue())\n"
        "        assert reason is None, (w, req.argv, reason)\n"
        "        total += 1\n"
        "print(total)")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
