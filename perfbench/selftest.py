"""Fast self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes through ``run.py``, untraced and traced,
and checks that each prints exactly the metric names and units that
``BENCHMARK.json`` declares.  Then checks in-process that a corrupted
approximant, a wrong evaluation and a lossy round trip are each counted as
failed operations.
"""

import copy
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_cli(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_output(workload, trace, result):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared, (workload, trace, set(got) ^ set(declared))
    for name, v in result["metrics"].items():
        assert math.isfinite(v["value"]), (workload, name, v)
        if not trace:
            assert v["value"] > 0, (workload, name, v)


def tiny_run():
    run = worker.Run("eval-expdist", 7, 0.2, worker.TINY, None)
    run.execute()
    assert run.ops.failed == 0 and run.ops.wrong == 0, run.ops.kinds
    return run


def check_corrupted_build():
    run = tiny_run()
    real = run.tc

    def bad_build(f, cfg, vectorized=True):
        approx = real.build(f, cfg, vectorized=vectorized)
        approx.core = 2.0 * approx.core
        return approx

    run.tc = types.SimpleNamespace(**{**vars(real), "build": bad_build})
    run.build_once()
    assert run.ops.kinds["build"][1] == 1, run.ops.kinds
    assert run.ops.wrong == 0  # an inaccurate build is failed, not a wrong output


def check_wrong_evaluation():
    run = tiny_run()
    bad = copy.copy(run.approx)
    good_many, good_one = bad.evaluate_many, bad.evaluate
    bad.evaluate_many = lambda pts: good_many(pts) * (1.0 + 1e-9)
    bad.evaluate = lambda x, y, z: good_one(x, y, z) * (1.0 + 1e-9)
    before, before_points = run.ops.failed, len(run.point_us)
    run.refs = None
    run.eval_round(bad, 0)
    failed = run.ops.failed - before
    assert failed == run.ops.wrong == 1 + len(run.point_us) - before_points, run.ops.kinds


def check_lossy_round_trip():
    run = tiny_run()
    real = run.tc

    def flip_bit(data):
        back = real.deserialize(data)
        back.core.view(np.uint64).flat[0] ^= 1
        return back

    run.tc = types.SimpleNamespace(**{**vars(real), "deserialize": flip_bit})
    run.round_trip(run.approx)
    assert run.ops.kinds["roundtrip"][1] == 1 and run.ops.wrong == 1, run.ops.kinds


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_output(w["name"], trace, run_cli(w["name"], trace))
            print(f"ok  {w['name']} trace={trace}")
    for check in (check_corrupted_build, check_wrong_evaluation, check_lossy_round_trip):
        check()
        print(f"ok  {check.__name__}")


if __name__ == "__main__":
    main()
