#!/usr/bin/env python3
"""Benchmark for the ``ebct`` command line.

Each run spawns the CLI from ``src/`` as a child process, one process per
invocation, on one generated workload and repeats it for ``--seconds``
seconds. Every invocation's outputs are checked by the benchmark's own code.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics, with times scaled to a reference
CPU speed by ``perfbench/calibrate.py``; ``--trace 1`` reports the per-layer
metrics of a traced run (see ``perfbench/traced.py``). ``--workload all`` runs
every workload in turn. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a correctness gate fails. A results file with the machine
record is written under ``.perfbench_runs/results/``. The metrics, workloads
and layers are described in ``perfbench/GLOSSARY.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACER = HERE / "traced.py"
CALIBRATE = HERE / "calibrate.py"

# Single-threaded BLAS/OpenMP in every child: two shared cores cannot give a
# steady number for thread scaling.
BLAS_THREADS = 1
SETUP_REPEATS = 7
# Time of perfbench/calibrate.py on the machine the bounds were set on (2-vCPU
# KVM Xeon, Python 3.11, numpy 2.4, scipy 1.17). The host's CPU speed drifts
# by up to a factor of two over phases of seconds to a minute; wall_s scales
# each invocation by this over the calibration time measured around it.
CALIBRATION_REFERENCE_S = 0.44
CHILD_TIMEOUT_S = 60.0

CORRELATION_GATE = 1e-6
SHARE_SLACK = 1e-9
WEIGHT_SUM_GATE = 1e-9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.read_csv.calls": "count",
    "cli.read_csv.self_s": "s",
    "cli.read_csv.mb_per_s": "MB/s",
    "cli.cmd.self_s": "s",
    "data.dataset.calls": "count",
    "data.dataset.self_s": "s",
    "data.standardize.calls": "count",
    "data.standardize.self_s": "s",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.solve.failures": "count",
    "solver.newton_iters": "count",
    "solver.ns_per_row_iter": "ns",
    "solver.truncate.calls": "count",
    "solver.truncate.self_s": "s",
    "solver.truncate.resolves": "count",
    "weighting.estimate_weights.calls": "count",
    "weighting.estimate_weights.self_s": "s",
    "ipw.ipw_weights.calls": "count",
    "ipw.ipw_weights.self_s": "s",
    "diagnostics.balance_report.calls": "count",
    "diagnostics.balance_report.self_s": "s",
    "drf.fit_wls.calls": "count",
    "drf.fit_wls.self_s": "s",
    "drf.estimate_drf.self_s": "s",
    "drf.bootstrap.draws": "count",
    "drf.bootstrap.kept": "count",
    "drf.bootstrap.useful_ratio": "ratio",
    "simulation.dgp.calls": "count",
    "simulation.dgp.self_s": "s",
    "simulation.replication.self_s": "s",
    "simulation.method_failures": "count",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
}

# Layers whose calls and self time come straight from the spans of that name.
SPAN_LAYERS = (
    "cli.read_csv",
    "data.dataset",
    "data.standardize",
    "solver.solve",
    "solver.truncate",
    "weighting.estimate_weights",
    "ipw.ipw_weights",
    "diagnostics.balance_report",
    "drf.fit_wls",
    "simulation.dgp",
)

# Workload sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test.
SIZES = {
    "full": {
        "sim_grid": {"replications": 30},
        "drf_boot": {"n": 1000, "bootstrap": 400},
        "balance_large": {"n": 100_000},
    },
    "tiny": {
        "sim_grid": {"replications": 2},
        "drf_boot": {"n": 200, "bootstrap": 10},
        "balance_large": {"n": 2_000},
    },
}

SIM_CELLS = 18  # 2 selection scales x 3 etas x 3 specifications at n=200
SIM_METHODS = ("unweighted", "ipw", "ebct")
GRID_POINTS = 50
COVARIATES = tuple(f"X{j}" for j in range(1, 11))
CAP_UNITS = 10.0  # balance_large caps the weight share at CAP_UNITS / n


# --------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("EBCT_JOBS", None)
    return env


class Launcher:
    """Runs children through ``perfbench/launcher.py``, one at a time.

    Children are spawned from that small process so that the benchmark's own
    memory does not show in their peak resident memory.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv: list, cwd: Path, log_path: Path) -> Invocation:
        request = {"argv": argv, "cwd": str(cwd), "log": str(log_path),
                   "env": child_env(), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return Invocation(**json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "ebct.cli", *args]


def digests(out_dir: Path, names) -> tuple:
    return tuple(
        (name, hashlib.sha256((out_dir / name).read_bytes()).hexdigest())
        if (out_dir / name).exists()
        else (name, "missing")
        for name in names
    )


# --------------------------------------------------------------------------
# inputs


def generate_frame(n: int, seed: int):
    """Treatment, ten covariates and an outcome with moderate selection.

    Independent of ``ebct.simulation`` so that a change to the program
    cannot move the inputs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    x = np.empty((n, 10))
    x[:, 0] = rng.uniform(0.0, 4.0, n)
    x[:, 1] = rng.gamma(2.0, 1.0, n)
    x[:, 2] = rng.binomial(1, 0.4, n)
    block = np.full((7, 7), 0.3) + 0.7 * np.eye(7)
    x[:, 3:] = rng.standard_normal((n, 7)) @ np.linalg.cholesky(block).T
    beta = np.array([0.6, 0.4, 0.8, 0.5, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1])
    t = x @ beta + 1.5 * rng.standard_normal(n)
    y = t - 0.05 * t**2 + x[:, 0] + x[:, 1] + x[:, 3] + 2.0 * rng.standard_normal(n)
    return t, x, y


def write_frame(path: Path, t, x, y) -> None:
    ids = np.arange(1, t.size + 1)
    table = np.column_stack([ids, t, x, y])
    header = ",".join(["id", "T", *COVARIATES, "Y"])
    np.savetxt(
        path, table, fmt=["%d"] + ["%.17g"] * (table.shape[1] - 1),
        delimiter=",", header=header, comments="",
    )


# --------------------------------------------------------------------------
# correctness gates: each returns (method failures, problems)


def _rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_sim_grid(out_dir: Path, replications: int) -> tuple:
    problems = []
    rows = _rows(out_dir / "scenarios.csv")
    if len(rows) != SIM_CELLS * len(SIM_METHODS):
        expected = SIM_CELLS * len(SIM_METHODS)
        problems.append(f"scenarios.csv has {len(rows)} rows, expected {expected}")
    cells = {(r["sigma"], r["eta"], r["spec"], r["method"]) for r in rows}
    if len(cells) != len(rows):
        problems.append("scenarios.csv repeats a cell")
    failures = 0
    for r in rows:
        failures += int(r["failures"])
        values = [float(r[k]) for k in ("bias_pct", "rmse_pct", "mean_max_abs_corr")]
        if not all(np.isfinite(values)):
            problems.append(f"non-finite summary in {r}")
        if r["method"] == "ebct" and not float(r["mean_max_abs_corr"]) <= CORRELATION_GATE:
            problems.append(f"EBCT mean_max_abs_corr {r['mean_max_abs_corr']} above gate")
    meta = json.loads((out_dir / "scenarios.json").read_text())
    if meta.get("replications") != replications or meta.get("cells") != SIM_CELLS:
        problems.append(f"scenarios.json disagrees with the command: {meta}")
    return failures, problems


def check_drf(out_dir: Path, bootstrap: int) -> tuple:
    problems = []
    rows = _rows(out_dir / "drf.csv")
    if len(rows) != GRID_POINTS:
        problems.append(f"drf.csv has {len(rows)} rows, expected {GRID_POINTS}")
    try:
        table = np.array(
            [[float(r[k]) for k in ("t", "drf", "derivative", "se")] for r in rows]
        )
    except ValueError as err:
        return 0, problems + [f"drf.csv has an unparsable value: {err}"]
    if table.size:
        if not np.all(np.isfinite(table)):
            problems.append("drf.csv has non-finite values")
        if not np.all(table[:, 3] > 0):
            problems.append("drf.csv has a standard error that is not positive")
        if not np.all(np.diff(table[:, 0]) > 0):
            problems.append("drf.csv grid is not increasing")
    meta = json.loads((out_dir / "drf.json").read_text())
    if meta.get("bootstrap_reps") != bootstrap:
        problems.append(f"drf.json records {meta.get('bootstrap_reps')} replicates")
    return 0, problems


def weighted_correlations(w, t, x) -> np.ndarray:
    w = w / w.sum()
    dt = t - w @ t
    dx = x - w @ x
    cov = w @ (dt[:, None] * dx)
    return cov / np.sqrt((w @ dt**2) * (w @ dx**2))


def check_balance(out_dir: Path, t, x, cap: float) -> tuple:
    """Gate the balance outputs, recomputing balance from weights.csv."""
    problems = []
    report = json.loads((out_dir / "balance_report.json").read_text())
    weighted = report.get("weighted", {})
    if report.get("converged") is not True:
        problems.append("balance_report.json: not converged")
    if not weighted.get("max_abs_correlation", np.inf) <= CORRELATION_GATE:
        problems.append(f"reported max_abs_correlation {weighted.get('max_abs_correlation')}")
    if not weighted.get("max_weight_share", np.inf) <= cap + SHARE_SLACK:
        share = weighted.get("max_weight_share")
        problems.append(f"reported max_weight_share {share} above cap {cap}")
    try:
        table = np.loadtxt(out_dir / "weights.csv", delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        return 0, problems + [f"weights.csv is unparsable: {err}"]
    if table.shape != (t.size, 2) or not np.array_equal(table[:, 0], np.arange(1, t.size + 1)):
        return 0, problems + ["weights.csv does not list every input id in order"]
    w = table[:, 1]
    if not np.all(np.isfinite(w)) or not np.all(w > 0):
        return 0, problems + ["weights.csv has a weight that is not positive and finite"]
    if abs(w.sum() - 1.0) > WEIGHT_SUM_GATE:
        problems.append(f"weights.csv sums to {w.sum()!r}")
    if w.max() > cap + SHARE_SLACK:
        problems.append(f"weights.csv max share {w.max()!r} above cap {cap}")
    worst = float(np.abs(weighted_correlations(w, t, x)).max())
    if not worst <= CORRELATION_GATE:
        problems.append(f"weights.csv leaves a weighted correlation of {worst:.3g}")
    return 0, problems


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """One prepared workload: the CLI arguments and how to check the outputs."""

    args: list
    unit: str  # what one unit of work is
    units: float  # units of work per invocation (for throughput)
    operations: int  # operations per invocation (for failed_frac)
    outputs: tuple
    check: Callable[[Path], tuple]
    params: dict = field(default_factory=dict)


def prepare_sim_grid(workdir: Path, seed: int, size: dict) -> Workload:
    reps = size["replications"]
    return Workload(
        args=["simulate", "--paper-grid", "--sizes", "200", "--replications", str(reps),
              "--seed", str(seed), "--jobs", "1", "--out", "out", "--force"],
        unit="replication",
        units=SIM_CELLS * reps,
        operations=SIM_CELLS * reps * len(SIM_METHODS),
        outputs=("scenarios.csv", "scenarios_table.txt", "scenarios.json"),
        check=lambda out: check_sim_grid(out, reps),
        params={"replications": reps, "n": 200, "cells": SIM_CELLS},
    )


def prepare_drf_boot(workdir: Path, seed: int, size: dict) -> Workload:
    n, reps = size["n"], size["bootstrap"]
    write_frame(workdir / "input.csv", *generate_frame(n, seed))
    return Workload(
        args=["drf", "--input", "input.csv", "--treatment-col", "T",
              "--covariate-cols", ",".join(COVARIATES), "--outcome-col", "Y",
              "--degree", "3", "--bootstrap", str(reps), "--seed", str(seed),
              "--out", "out", "--force"],
        unit="bootstrap replicate",
        units=reps,
        operations=reps,
        outputs=("drf.csv", "drf.json"),
        check=lambda out: check_drf(out, reps),
        params={"n": n, "k": len(COVARIATES), "bootstrap": reps},
    )


def prepare_balance_large(workdir: Path, seed: int, size: dict) -> Workload:
    n = size["n"]
    t, x, y = generate_frame(n, seed)
    write_frame(workdir / "input.csv", t, x, y)
    cap = CAP_UNITS / n
    return Workload(
        args=["balance", "--input", "input.csv", "--treatment-col", "T",
              "--covariate-cols", ",".join(COVARIATES), "--method", "ebct",
              "--truncate", repr(cap), "--out", "out", "--force"],
        unit="input row",
        units=n,
        operations=1,
        outputs=("weights.csv", "balance_report.json", "balance_table.txt"),
        check=lambda out: check_balance(out, t, x, cap),
        params={"n": n, "k": len(COVARIATES), "cap": cap},
    )


WORKLOADS = {
    "sim_grid": prepare_sim_grid,
    "drf_boot": prepare_drf_boot,
    "balance_large": prepare_balance_large,
}

# --------------------------------------------------------------------------
# per-layer metrics from a traced invocation


def layer_metrics(doc: dict) -> dict:
    """Per-layer numbers of one traced invocation.

    A span's self time is its duration minus the durations of its direct
    children; nested spans of one name are counted once each.
    """
    spans = doc["spans"]
    counters = doc["counters"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_s, incl_s = {}, {}, {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[i]) * 1e-9
        incl_s[name] = incl_s.get(name, 0.0) + (end - start) * 1e-9

    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    read_s = incl_s.get("cli.read_csv", 0.0)
    read_mb = counters.get("read_csv.bytes", 0) / 1e6
    out["cli.read_csv.mb_per_s"] = read_mb / read_s if read_s else 0.0
    out["cli.cmd.self_s"] = self_s.get("cli.cmd", 0.0)
    out["solver.solve.failures"] = counters.get("solve.failures", 0)
    out["solver.newton_iters"] = counters.get("solve.iterations", 0)
    row_iters = counters.get("solve.row_iterations", 0)
    solve_ns = out["solver.solve.self_s"] * 1e9
    out["solver.ns_per_row_iter"] = solve_ns / row_iters if row_iters else 0.0
    out["solver.truncate.resolves"] = sum(
        1 for name, _, _, parent, _ in spans
        if name == "solver.solve" and parent >= 0 and spans[parent][0] == "solver.truncate"
    )
    out["drf.estimate_drf.self_s"] = self_s.get("drf.estimate_drf", 0.0)
    draws, kept = counters.get("bootstrap.draws", 0), counters.get("bootstrap.kept", 0)
    out["drf.bootstrap.draws"] = draws
    out["drf.bootstrap.kept"] = kept
    out["drf.bootstrap.useful_ratio"] = kept / draws if draws else 0.0
    out["simulation.replication.self_s"] = self_s.get("simulation.replication", 0.0)
    out["simulation.method_failures"] = counters.get("replication.method_failures", 0)
    return out


# --------------------------------------------------------------------------
# machine record


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ebct").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


# --------------------------------------------------------------------------
# one run


def calibrate(launcher: Launcher, workdir: Path, problems: list) -> float:
    log = workdir / "logs" / "calibrate.log"
    inv = launcher.spawn([sys.executable, str(CALIBRATE)], workdir, log)
    if inv.exit_code != 0:
        problems.append(f"calibrate.py exited {inv.exit_code}")
    return inv.wall_s


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Prepare, measure and check one workload; return the run's record."""
    workdir = RUNS / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    logs = workdir / "logs"
    logs.mkdir()
    try:
        workload = WORKLOADS[name](workdir, seed, SIZES[size][name])
        record = measure(launcher, name, workload, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        workload=name, size=size, trace=int(trace), seconds=seconds,
        params=workload.params, machine=machine_record(seed),
    )
    compare_with_earlier_runs(record)
    return record


def measure(launcher: Launcher, name: str, workload: Workload, workdir: Path, seconds: float,
            trace: bool) -> dict:
    problems = []
    out_dir = workdir / "out"
    logs = workdir / "logs"

    # Warm-up: the first import writes bytecode caches that later runs reuse.
    warm = launcher.spawn(cli_argv(["--version"]), workdir, logs / "warmup.log")
    if warm.exit_code != 0:
        problems.append(f"ebct --version exited {warm.exit_code}")
    setup = []
    gates = {}  # output digests -> (method failures, problems)
    first_digests = None
    samples = {"untraced": [], "traced": []}
    layers = []
    all_spans = []
    missing = set()  # patch sites the program no longer has
    calibration = []  # before each untraced invocation, and once after the last
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        # Set-up samples are spread evenly over the window, so that they see
        # the same machine speed as the workload does.
        elapsed = time.perf_counter() - start
        if not trace and len(setup) * seconds <= (SETUP_REPEATS - 1) * elapsed:
            inv = launcher.spawn(cli_argv(["--version"]), workdir, logs / f"setup{len(setup)}.log")
            setup.append((inv.wall_s, len(calibration)))
            if inv.exit_code != 0:
                problems.append(f"ebct --version exited {inv.exit_code}")
        traced = trace and index % 2 == 1
        spans_path = workdir / f"spans{index}.json"
        argv = (
            [sys.executable, str(TRACER), str(spans_path), str(index), *workload.args]
            if traced else cli_argv(workload.args)
        )
        if not trace:
            calibration.append(calibrate(launcher, workdir, problems))
        inv = launcher.spawn(argv, workdir, logs / f"run{index}.log")
        run_problems = []
        if inv.exit_code != 0:
            tail = (logs / f"run{index}.log").read_text(errors="replace")[-400:]
            run_problems.append(f"invocation {index} exited {inv.exit_code}: {tail}")
            method_failures = 0
        else:
            found = digests(out_dir, workload.outputs)
            if found not in gates:
                gates[found] = workload.check(out_dir)
            method_failures, gate_problems = gates[found]
            run_problems.extend(gate_problems)
            if first_digests is None:
                first_digests = found
            elif found != first_digests:
                run_problems.append(f"invocation {index}: output digests differ from the first")
            if traced:
                doc = json.loads(spans_path.read_text())
                layers.append(layer_metrics(doc))
                all_spans.extend(doc["spans"])
                missing.update(doc["missing"])
        attempted += workload.operations
        failed += workload.operations if run_problems else method_failures
        problems.extend(run_problems)
        samples["traced" if traced else "untraced"].append(inv)
        index += 1

    untraced = samples["untraced"]
    scaled = scaled_setup = []
    if not trace:
        calibration.append(calibrate(launcher, workdir, problems))
        scaled = [
            inv.wall_s * CALIBRATION_REFERENCE_S / ((before + after) / 2)
            for inv, before, after in zip(untraced, calibration, calibration[1:])
        ]
        # Each set-up sample is scaled by the calibration spawned right after it.
        scaled_setup = [
            wall * CALIBRATION_REFERENCE_S / calibration[after] for wall, after in setup
        ]
    record = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": dict(first_digests or ()),
        "samples": {
            kind: [[s.wall_s, s.exit_code, s.peak_rss_mb, s.cpu_s] for s in invs]
            for kind, invs in samples.items()
        },
        "setup_samples": [wall for wall, _ in setup],
        "calibration_samples": calibration,
        "scaled_wall_samples": scaled,
        "scaled_setup_samples": scaled_setup,
        "spans": all_spans,
        "trace_missing_sites": sorted(missing),
        "unit_of_work": workload.unit,
        "units_per_invocation": workload.units,
        "operations_per_invocation": workload.operations,
    }
    raw_wall = median([s.wall_s for s in untraced])
    wall = median(scaled)
    record["end_to_end"] = {
        "setup_s": median(scaled_setup),
        "raw_setup_s": median([wall for wall, _ in setup]),
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "throughput": workload.units / wall if wall else 0.0,
        "peak_rss_mb": median([s.peak_rss_mb for s in untraced]),
        "failed_frac": failed / attempted,
    }
    if trace:
        per_layer = {key: median([m[key] for m in layers]) for key in layers[0]} if layers else {}
        per_layer["failed_frac"] = failed / attempted
        per_layer["trace.overhead_s"] = median([s.wall_s for s in samples["traced"]]) - raw_wall
        record["per_layer"] = per_layer
        if name == "balance_large" and layers and not per_layer["solver.truncate.resolves"] > 0:
            problems.append("the weight cap did not bind: no truncation re-solve")
    return record


def compare_with_earlier_runs(record: dict) -> None:
    """Flag outputs that differ from an earlier run of the same code and seed."""
    results = RUNS / "results"
    key = (record["workload"], record["size"], record["machine"]["workload_seed"],
           record["machine"]["source_sha256"])
    for path in results.glob(f"BENCH_{record['workload']}_*.json") if results.exists() else ():
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        earlier_key = (earlier.get("workload"), earlier.get("size"),
                       earlier.get("machine", {}).get("workload_seed"),
                       earlier.get("machine", {}).get("source_sha256"))
        if earlier_key == key and earlier.get("digests") and record["digests"] \
                and earlier["digests"] != record["digests"]:
            record["problems"].append(f"output digests differ from the earlier run in {path.name}")


def write_results(record: dict) -> None:
    """Write the record, and the spans of a traced run to their own file."""
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}_{record['size']}_seed{record['machine']['workload_seed']}"
            f"_trace{record['trace']}")
    spans = record.pop("spans")
    if spans:
        (results / f"SPANS_{stem}.json").write_text(json.dumps(spans))
    (results / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def summary_lines(record: dict) -> list:
    e2e = record["end_to_end"]
    walls = [s[0] for s in record["samples"]["untraced"]]
    lines = [
        f"workload {record['workload']} (seed {record['machine']['workload_seed']}, "
        f"trace {record['trace']}): {len(walls)} untraced invocations",
    ]
    if not record["trace"]:
        lines += [
            f"  setup_s      {e2e['setup_s']:.4f} s     median of {len(record['setup_samples'])}, "
            f"scaled to the reference speed (raw {e2e['raw_setup_s']:.4f} s)",
            f"  wall_s       {e2e['wall_s']:.4f} s     median, scaled to the reference speed",
            f"  throughput   {e2e['throughput']:.2f} 1/s   "
            f"({record['unit_of_work']}s per second, "
            f"{record['units_per_invocation']} per invocation)",
        ]
    lines += [
        f"  raw wall     {e2e['raw_wall_s']:.4f} s     median of {len(walls)}, "
        f"min {min(walls):.4f}, max {max(walls):.4f}",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB",
        f"  failed_frac  {e2e['failed_frac']:.4g}      "
        f"({record['failed']} of {record['attempted']} operations)",
    ]
    if "per_layer" in record:
        for key, unit in PER_LAYER.items():
            lines.append(f"  {key:<36} {record['per_layer'].get(key, 0):.6g} {unit}")
    lines.extend(f"  not traced (absent): {s}" for s in record["trace_missing_sites"])
    lines.extend(f"  FAILED: {p}" for p in record["problems"])
    return lines


def metrics_of(record: dict) -> dict:
    if record["trace"]:
        values, units = record["per_layer"], PER_LAYER
    else:
        values, units = record["end_to_end"], END_TO_END
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "ebct" / "cli.py").is_file():
        print(f"error: no ebct sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    with Launcher() as launcher:
        for name in names:
            record = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace),
                                  args.size)
            write_results(record)
            print("\n".join(summary_lines(record)), flush=True)
            records.append(record)

    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in records for k, v in metrics_of(r).items()
        }
    correct = not any(r["problems"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
