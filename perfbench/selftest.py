#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints a result line of
the documented shape with every metric of ``BENCHMARK.json`` and its unit,
that the LAPACK call count repeats exactly between two traced runs, and
that a deliberately wrong target is caught as a failure on each workload.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict) -> None:
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {got} differ from BENCHMARK.json {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), f"{where}: {name}"


def wrong_targets_are_caught() -> None:
    from sdofkit.region import AntennaConfig

    # (1, 0) lies inside the (1,1,2,2,1) region but off its boundary: the
    # jamming column that aligns the confidential stream also gives the
    # public link a stream, so the achieved pair is (1, 1).  The checks
    # must count that as a failure, not as a pass.
    tally = run.Tally()
    run.cv_pass([(AntennaConfig(1, 1, 2, 2, 1), (1, 0))], np.random.default_rng(7), tally)
    assert tally.failures == {"WrongSdof": 1} and tally.problems, \
        f"construct_verify: wrong target not caught ({tally.failures})"

    work = run.work_dir()
    try:
        argv = ["construct", "--antennas", "1,1,2,2,1", "--target", "1,0", "--seed", "7"]
        rc, out, _, _ = run.cli_cold_command(argv, work)
        cls = run.cli_check("construct", rc, out, target=(1, 0))
        assert cls == "WrongSdof", f"cli_cold: wrong target not caught ({cls})"
    finally:
        run.remove_work_dir(work)

    # the committed Monte-Carlo reference was recorded at target (1, 1);
    # (2, 0) is another point of the same region boundary
    assert run.mc_reference_check(run.mc_reference_records()) is None
    mismatch = run.mc_reference_check(run.mc_reference_records(target=(2, 0)))
    assert mismatch is not None, "montecarlo_los: wrong target matched the reference"


def main() -> int:
    run._import_sdofkit()
    wrong_targets_are_caught()
    print("wrong targets are caught on every workload")
    for workload in run.WORKLOADS:
        check_result(workload, 0, bench(workload, 0, seed=3))
        first = bench(workload, 1, seed=3)
        second = bench(workload, 1, seed=4)
        for result in (first, second):
            check_result(workload, 1, result)
        counts = [r["metrics"]["lapack.calls_per_op"]["value"] for r in (first, second)]
        assert counts[0] == counts[1], f"{workload}: lapack.calls_per_op {counts}"
        print(f"{workload}: metrics and units match, lapack.calls_per_op {counts[0]} repeats")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
