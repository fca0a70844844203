#!/usr/bin/env python3
"""Run the ``ebct`` CLI once with spans around each layer's public functions.

    python3 perfbench/traced.py SPANS.json RUN_ID <ebct CLI arguments...>

The wrappers are installed in this process only, at the module attributes
that callers look up (``ebct.weighting.solve`` for ``estimate_weights``,
``ebct.solver.solve`` for the truncation re-solves, and so on); no source
file changes. Spans ``[name, start_ns, end_ns, parent_index, run_id]`` and
counters stay in memory and are written to SPANS.json when the CLI returns.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import ebct.cli
import ebct.data
import ebct.drf
import ebct.simulation
import ebct.solver
import ebct.weighting
from ebct.errors import NotConverged


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counters = {}
        self.missing = []

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result, error)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, self.run_id])
            self.stack.append(index)
            result = error = None
            self.spans[index][1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                self.spans[index][2] = time.perf_counter_ns()
                self.stack.pop()
                if after is not None:
                    after(args, result, error)

        return traced

    def patch(self, name: str, sites, after=None) -> None:
        """Replace each (owner, attribute) site with one traced wrapper per function."""
        wrappers = {}
        for owner, attr in sites:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.span(name, fn, after)
            setattr(owner, attr, wrappers[id(fn)])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "missing": self.missing},
                handle,
            )


def install(tracer: Tracer) -> None:
    cli, data, drf = ebct.cli, ebct.data, ebct.drf
    sim, solver, weighting = ebct.simulation, ebct.solver, ebct.weighting

    def after_read(args, result, error):
        tracer.count("read_csv.bytes", os.path.getsize(args[0]))

    def after_solve(args, result, error):
        if error is None:
            weights = result[0]
        else:
            tracer.count("solve.failures")
            weights = error.weights if isinstance(error, NotConverged) else None
        if weights is not None:
            tracer.count("solve.iterations", weights.iterations)
            tracer.count("solve.row_iterations", weights.n * weights.iterations)

    def after_replication(args, result, error):
        if result is not None:
            tracer.count("replication.method_failures", sum(r.failed for r in result.values()))

    def counting_bootstrap(fn):
        @functools.wraps(fn)
        def wrapper(n_units, statistic, *args, **kwargs):
            def counted(indices):
                tracer.count("bootstrap.draws")
                row = statistic(indices)
                tracer.count("bootstrap.kept")
                return row

            return fn(n_units, counted, *args, **kwargs)

        return wrapper

    tracer.patch("cli.read_csv", [(cli, "read_csv")], after_read)
    tracer.patch("cli.cmd", [(cli, "cmd_balance"), (cli, "cmd_drf"), (cli, "cmd_simulate")])
    tracer.patch("data.dataset", [(data.Dataset, "__post_init__"), (data.Dataset, "subset")])
    tracer.patch("data.standardize", [(weighting, "standardize")])
    tracer.patch("solver.solve", [(weighting, "solve"), (solver, "solve")], after_solve)
    tracer.patch("solver.truncate", [(weighting, "truncate_and_rebalance")])
    tracer.patch(
        "weighting.estimate_weights",
        [(cli, "estimate_weights"), (sim, "estimate_weights"), (drf, "estimate_weights")],
    )
    tracer.patch("ipw.ipw_weights", [(weighting, "ipw_weights")])
    tracer.patch("diagnostics.balance_report", [(cli, "balance_report"), (sim, "balance_report")])
    tracer.patch("drf.fit_wls", [(drf, "fit_wls"), (sim, "fit_wls")])
    tracer.patch("drf.estimate_drf", [(cli, "estimate_drf"), (drf, "estimate_drf")])
    tracer.patch(
        "simulation.dgp",
        [(sim, "gen_covariates"), (sim, "gen_treatment"), (sim, "gen_outcome"),
         (sim, "apply_specification")],
    )
    tracer.patch("simulation.replication", [(sim, "run_replication")], after_replication)
    if hasattr(drf, "bootstrap_statistic"):
        drf.bootstrap_statistic = counting_bootstrap(drf.bootstrap_statistic)
    else:
        tracer.missing.append("ebct.drf.bootstrap_statistic")


def main() -> int:
    spans_path, run_id, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    try:
        return ebct.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
