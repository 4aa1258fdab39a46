"""Benchmark entry point: run one workload in a fresh process and print its result.

    python3 perfbench/run.py --workload build-refine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  The library is taken
from ``src/`` of that checkout; without it the command fails.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A per-run detail
file (machine, samples, percentiles, operations) is written under
``.perfbench/``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="harness self-test sizes")
    args = ap.parse_args()

    if not (ROOT / "src" / "tuckercheb" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'tuckercheb'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({v: str(nproc) for v in THREAD_VARS})
    # numpy asks for transparent huge pages on large arrays; whether the host
    # has one free varies from run to run, and a huge page makes the whole
    # 2 MB resident, so peak memory varied by ~7% between runs of one seed.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the worker, the only child
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
