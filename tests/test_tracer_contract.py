"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/traced.py`` replaces module attributes by name and never puts
them back, so it runs in a subprocess, never in the test process. A rename
of a wrapped function then fails here instead of silently dropping a layer
from the per-layer metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import COVARIATES, write_simulated_csv

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "traced.py"


@pytest.mark.parametrize(
    "command, spans",
    [
        (
            ["balance", "--truncate", "0.02"],
            {"cli.read_csv", "data.standardize", "solver.solve", "solver.truncate",
             "weighting.estimate_weights", "diagnostics.balance_report"},
        ),
        (
            ["balance", "--method", "ipw"],
            {"ipw.ipw_weights", "weighting.estimate_weights"},
        ),
        (
            ["drf", "--outcome-col", "Y", "--bootstrap", "5"],
            {"solver.solve", "drf.estimate_drf", "drf.fit_wls", "data.dataset"},
        ),
        (
            ["drf", "--outcome-col", "Y", "--truncate", "0.03", "--bootstrap", "5"],
            {"solver.solve", "solver.truncate", "data.standardize", "drf.fit_wls"},
        ),
    ],
    ids=["balance-truncate", "balance-ipw", "drf-bootstrap", "drf-truncate-bootstrap"],
)
def test_traced_run_finds_every_site(tmp_path, command, spans):
    data = write_simulated_csv(tmp_path / "data.csv")
    spans_path = tmp_path / "spans.json"
    argv = [
        sys.executable, str(TRACER), str(spans_path), "0",
        command[0], "--input", str(data), "--treatment-col", "T",
        "--covariate-cols", COVARIATES, "--out", str(tmp_path / "out"), *command[1:],
    ]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["missing"] == []
    assert spans <= {span[0] for span in doc["spans"]}
    if command[0] == "drf":
        assert doc["counters"]["bootstrap.kept"] == 5
        records = doc["spans"]
        names = [record[0] for record in records]
        problems = 1 + doc["counters"]["bootstrap.draws"]
        if "--truncate" in command:
            # The full sample is truncated once, and so is every draw; each
            # truncation's one capped solve runs through the traced
            # solver.solve, which is what the benchmark's
            # solver.truncate.resolves counts.
            assert names.count("solver.truncate") == problems
            assert any(
                name == "solver.solve" and parent >= 0 and records[parent][0] == "solver.truncate"
                for name, _, _, parent, _ in records
            )
        else:
            # Every replicate solve must pass through the traced
            # weighting.solve, or the per-layer solver metrics silently lose
            # the bootstrap.
            assert names.count("solver.solve") == problems


def test_traced_simulation_finds_every_site(tmp_path):
    # The grid must reach standardize, fit_wls, balance_report and
    # estimate_weights through the module names the tracer wraps; a call to
    # a private kernel instead would drop those layers from the sim_grid
    # metrics.
    spans_path = tmp_path / "spans.json"
    argv = [
        sys.executable, str(TRACER), str(spans_path), "0",
        "simulate", "--paper-grid", "--sizes", "200", "--replications", "2",
        "--jobs", "1", "--out", str(tmp_path / "out"),
    ]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["missing"] == []
    assert {
        "data.standardize", "diagnostics.balance_report", "drf.fit_wls",
        "weighting.estimate_weights", "ipw.ipw_weights", "simulation.dgp",
    } <= {span[0] for span in doc["spans"]}
