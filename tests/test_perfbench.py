"""The benchmark harness must run against the current package.

perfbench/tracer.py wraps library functions by name and perfbench/layers.py
reads their spans, so a rename or a changed return value breaks a traced
benchmark run; its self-test runs every workload at tiny sizes, traced and
untraced.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
