#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks two things: every metric that ``BENCHMARK.json`` names is emitted, with
its unit, for every workload with tracing off and on; and a corrupted
``weights.csv`` fails the ``balance_large`` gate. Exits non-zero on failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run


def emitted_metrics(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "all", "--size", "tiny",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1, result
    return result["metrics"]


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS), workloads
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = emitted_metrics(trace)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads:
            emitted = {
                name.split(".", 1)[1]: value
                for name, value in metrics.items()
                if name.split(".", 1)[0] == workload
            }
            assert set(emitted) == set(expected), (workload, set(emitted) ^ set(expected))
            for name, unit in expected.items():
                assert emitted[name]["unit"] == unit, (workload, name, emitted[name])
                assert math.isfinite(emitted[name]["value"]), (workload, name, emitted[name])
        print(f"ok: {key} metrics emitted with units for {', '.join(workloads)}")


def check_corrupted_weights_fail() -> None:
    workdir = run.RUNS / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        workload = run.prepare_balance_large(workdir, 5, run.SIZES["tiny"]["balance_large"])
        with run.Launcher() as launcher:
            inv = launcher.spawn(run.cli_argv(workload.args), workdir, workdir / "balance.log")
        assert inv.exit_code == 0, (workdir / "balance.log").read_text()
        _, problems = workload.check(workdir / "out")
        assert not problems, problems

        path = workdir / "out" / "weights.csv"
        header, *lines = path.read_text().splitlines()
        ids = [line.split(",")[0] for line in lines]
        weights = [line.split(",")[1] for line in lines]
        rows = [f"{i},{w}" for i, w in zip(ids, reversed(weights))]
        path.write_text("\n".join([header, *rows]) + "\n")
        _, problems = workload.check(workdir / "out")
        assert problems, "a weights.csv with permuted weights passed the gate"
        print(f"ok: corrupted weights.csv fails its gate ({problems[0]})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_metric_names()
    check_corrupted_weights_fail()
    return 0


if __name__ == "__main__":
    sys.exit(main())
