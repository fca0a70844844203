"""Command-line entry point: balance, dose-response and simulation runs.

Exit codes form a stable scripting contract: 0 success, 1 input error,
2 solver non-convergence (outputs still written, with a warning), 3 bootstrap
failure, 4 degenerate simulation scenario.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .data import METHODS, Dataset, uniform_weights
from .diagnostics import balance_report, render_balance_table
from .drf import bootstrap_se, default_grid, estimate_drf
from .errors import (
    EbctError,
    MissingColumn,
    NotConverged,
    ParseError,
    ResampleDegenerate,
    ScenarioDegenerate,
)
from .simulation import (
    METHODS as SIMULATION_METHODS,
    SAMPLE_SIZES,
    ScenarioConfig,
    cell_seed,
    paper_grid,
    render_grid_table,
    run_grid,
    write_grid_csv,
)
from .weighting import estimate_weights

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_BOOTSTRAP_FAILED = 3
EXIT_SCENARIO_DEGENERATE = 4

# The characters that make csv.writer's default dialect quote a field.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def read_csv(
    path,
    treatment_col: str,
    covariate_cols,
    outcome_col: Optional[str] = None,
) -> Dataset:
    """Parse a header-first, comma-delimited UTF-8 file into a Dataset.

    Rows are counted from 1 including the header, so the first data row is
    row 2. An ``id`` column, when present, supplies unit identifiers;
    otherwise the data-row index is used. ``_parse_reference`` defines the
    accepted grammar; numpy's C reader parses the files it reads the same
    way, and the reference parser parses the rest.
    """
    wanted = [treatment_col, *covariate_cols]
    if outcome_col:
        wanted.append(outcome_col)
    parsed = _parse_fast(path, wanted)
    if parsed is None:
        parsed = _parse_reference(path, wanted)
    values, ids = parsed
    k = len(covariate_cols)
    return Dataset(
        treatment=values[:, 0],
        covariates=values[:, 1 : k + 1],
        outcome=values[:, k + 1] if outcome_col else None,
        column_names=(treatment_col, *covariate_cols, outcome_col or "Y"),
        unit_ids=ids,
    )


def _parse_reference(path, wanted) -> tuple:
    """The wanted columns as an n x len(wanted) matrix, plus the unit ids.

    Cells are split by ``csv.reader`` (quotes, CR, LF and CRLF line ends) and
    converted by ``float(cell)``, one column after another, so the first
    failure reported is the first bad row of the first bad column. A blank
    line is a row of empty cells, and a missing cell is empty. A row that
    ``csv.reader`` rejects is a ParseError naming that row.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            for row in csv.reader(handle):
                rows.append(row)
        except csv.Error as err:
            raise ParseError(len(rows) + 1, None, str(err)) from None
    if not rows:
        raise ParseError(1, "", "<empty file>")
    header, rows = rows[0], rows[1:]

    positions = {name: i for i, name in enumerate(header)}
    for name in wanted:
        if name not in positions:
            raise MissingColumn(name)

    values = np.empty((len(rows), len(wanted)))
    for name, column in zip(wanted, values.T):
        col = positions[name]
        for i, row in enumerate(rows):
            cell = row[col] if col < len(row) else ""
            try:
                column[i] = float(cell)
            except ValueError:
                raise ParseError(i + 2, name, cell) from None

    if "id" not in positions:
        return values, tuple(range(1, len(rows) + 1))
    col = positions["id"]
    for i, row in enumerate(rows):
        if col >= len(row):
            raise ParseError(i + 2, "id", "")
    return values, tuple(row[col] for row in rows)


def _parse_fast(path, wanted) -> Optional[tuple]:
    """``_parse_reference`` through ``np.loadtxt``, or None to run it instead.

    Both convert a cell with ``PyOS_string_to_double``, so a value that both
    accept is the same double. loadtxt skips blank lines and joins a quoted
    line break into one record; either makes its record count differ from
    the line count, and then, as on any error, the reference parser reads
    the file and reports what it finds. So does a file that ``csv.reader``
    may reject where loadtxt does not: one with a NUL character (an error
    before Python 3.11) or a line longer than ``csv.field_size_limit()``.
    """
    # A line longer than the field limit covers a whole aligned block of
    # limit // 2 characters, so a block with no line break is a fallback.
    block = max(1, csv.field_size_limit() // 2)
    try:
        # Universal newlines end every line, CR, LF or CRLF, in one "\n". A
        # header that is one line splits into the same cells either way.
        with open(path, encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or reader.line_num != 1:
                return None
            lines, last = 0, "\n"
            size = block * max(1, (1 << 20) // block)
            for chunk in iter(functools.partial(handle.read, size), ""):
                if "\x00" in chunk or any(
                    "\n" not in chunk[i : i + block]
                    for i in range(0, len(chunk) - block + 1, block)
                ):
                    return None
                lines += chunk.count("\n")
                last = chunk[-1]
    except (UnicodeDecodeError, csv.Error):
        return None
    lines += last != "\n"
    positions = {name: i for i, name in enumerate(header)}
    if lines == 0 or any(name not in positions for name in wanted):
        return None

    fields = [("values", float, (len(wanted),))]
    usecols = [positions[name] for name in wanted]
    if "id" in positions:
        # object, not str: numpy strings drop trailing NULs.
        fields.append(("id", object))
        usecols.append(positions["id"])
    try:
        with warnings.catch_warnings():
            # A file of blank lines is "no data" to loadtxt: not worth a warning.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                path, dtype=fields, delimiter=",", comments=None, quotechar='"',
                skiprows=1, usecols=usecols, ndmin=1, encoding="utf-8",
            )
    except ValueError:
        return None
    if table.size != lines:
        return None
    ids = tuple(table["id"].tolist()) if "id" in positions else tuple(range(1, lines + 1))
    return table["values"], ids


def _prepare_outputs(directory: Path, filenames, force: bool) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in filenames]
    if not force:
        existing = [str(p) for p in paths if p.exists()]
        if existing:
            raise FileExistsError(
                f"refusing to overwrite {', '.join(existing)} (use --force)"
            )
    return paths


def _write_weights_csv(path: Path, dataset: Dataset, weights) -> None:
    """weights.csv byte for byte as ``csv.writer`` writes it, in one write."""
    ids = list(map(str, dataset.unit_ids))
    # One scan of all ids; most files have no id that needs quoting.
    if _NEEDS_QUOTES.search("".join(ids)):
        ids = [
            '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text
            for text in ids
        ]
    body = "".join(
        [f"{text},{weight!r}\r\n" for text, weight in zip(ids, weights.weights.tolist())]
    )
    with open(path, "w", newline="") as handle:
        handle.write("id,weight\r\n" + body)


def _read_input(args) -> Dataset:
    covariates = tuple(name for name in args.covariate_cols.split(",") if name)
    return read_csv(args.input, args.treatment_col, covariates, args.outcome_col)


def cmd_balance(args) -> int:
    """Estimate weights, write weights.csv, balance_report.json and a table."""
    dataset = _read_input(args)
    weights_path, report_path, table_path = _prepare_outputs(
        Path(args.out),
        ["weights.csv", "balance_report.json", "balance_table.txt"],
        args.force,
    )

    exit_code = EXIT_OK
    try:
        weights = estimate_weights(dataset, args.method, truncation=args.truncate)
    except NotConverged as err:
        print(f"warning: {err}; writing outputs for the last iterate", file=sys.stderr)
        weights = err.weights
        exit_code = EXIT_NOT_CONVERGED

    unweighted = balance_report(uniform_weights(dataset.n), dataset, method_tag="unweighted")
    weighted = balance_report(weights, dataset)

    _write_weights_csv(weights_path, dataset, weights)
    payload = {
        "input": str(Path(args.input)),
        "method": weights.method_tag,
        "converged": weights.converged,
        "iterations": weights.iterations,
        "truncation_threshold": args.truncate,
        "unweighted": unweighted.to_dict(),
        "weighted": weighted.to_dict(),
        "version": __version__,
    }
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    table = render_balance_table([unweighted, weighted])
    table_path.write_text(table)
    print(table, end="")
    return exit_code


def cmd_drf(args) -> int:
    """Fit the dose-response polynomial and write drf.csv plus a sidecar."""
    if not args.outcome_col:
        raise MissingColumn("<outcome>")
    if args.bootstrap < 0:
        raise ValueError(f"--bootstrap must be non-negative, got {args.bootstrap}")
    dataset = _read_input(args)
    grid = default_grid(dataset.treatment, args.grid_points)
    csv_path, meta_path = _prepare_outputs(Path(args.out), ["drf.csv", "drf.json"], args.force)

    exit_code = EXIT_OK
    start = None
    try:
        weights = estimate_weights(dataset, args.method)
        # Each replicate's first solve is untruncated, so it starts at the
        # untruncated full-sample multipliers; the solve below begins there
        # too and takes no Newton step before truncating.
        start = weights.gamma
        if args.truncate is not None:
            weights = estimate_weights(dataset, args.method, truncation=args.truncate, start=start)
    except NotConverged as err:
        print(f"warning: {err}; continuing with the last iterate", file=sys.stderr)
        weights = err.weights
        exit_code = EXIT_NOT_CONVERGED
    if start is None:
        start = weights.gamma

    fit = estimate_drf(dataset, weights, degree=args.degree, grid=grid)
    if args.bootstrap > 0:
        fit = bootstrap_se(
            fit, dataset, args.method, args.truncate, args.bootstrap, args.seed, start=start
        )

    fit.write_csv(csv_path)
    meta = {
        "input": str(Path(args.input)),
        "method": args.method,
        "degree": args.degree,
        "bootstrap_reps": args.bootstrap,
        "seed": args.seed,
        "grid_min": float(grid[0]),
        "grid_max": float(grid[-1]),
        "coefficients": [repr(float(c)) for c in fit.coefficients],
        "version": __version__,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"grid range: [{grid[0]:.6g}, {grid[-1]:.6g}], {grid.size} points")
    return exit_code


def _simulation_jobs(args) -> int:
    """Worker count: ``--jobs``, else $EBCT_JOBS, else 1."""
    if args.jobs is not None:
        return args.jobs
    value = os.environ.get("EBCT_JOBS", "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"EBCT_JOBS must be an integer, got {value!r}") from None


def cmd_simulate(args) -> int:
    """Run one scenario cell or the full grid; write CSV plus text table."""
    jobs = _simulation_jobs(args)
    if args.paper_grid:
        sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else SAMPLE_SIZES
        configs = paper_grid(
            sizes=sizes,
            replications=args.replications,
            methods=tuple(args.methods.split(",")),
            seed=args.seed,
        )
    else:
        configs = [
            ScenarioConfig(
                n=args.n,
                sigma=args.sigma,
                eta=args.eta,
                spec=args.spec,
                replications=args.replications,
                methods=tuple(args.methods.split(",")),
                master_seed=cell_seed(args.seed, 0),
            )
        ]

    csv_path, table_path, meta_path = _prepare_outputs(
        Path(args.out),
        ["scenarios.csv", "scenarios_table.txt", "scenarios.json"],
        args.force,
    )
    results = run_grid(configs, jobs=jobs)
    write_grid_csv(results, csv_path)
    table = render_grid_table(results)
    table_path.write_text(table)
    meta = {
        "seed": args.seed,
        "replications": args.replications,
        "methods": args.methods,
        "paper_grid": bool(args.paper_grid),
        "cells": len(configs),
        "version": __version__,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(table, end="")
    return EXIT_OK


def _add_io_arguments(parser, outcome_required: bool) -> None:
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--treatment-col", required=True, help="treatment column name")
    parser.add_argument(
        "--covariate-cols",
        required=True,
        help="comma-separated covariate column names",
    )
    parser.add_argument(
        "--outcome-col",
        required=outcome_required,
        default=None,
        help="outcome column name",
    )
    parser.add_argument("--method", choices=METHODS, default="ebct")
    parser.add_argument(
        "--truncate",
        type=float,
        default=None,
        metavar="SHARE",
        help="cap on the maximum weight share, e.g. 0.04",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebct",
        description="Covariate-balancing weights for continuous treatments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    balance = sub.add_parser("balance", help="estimate weights and balance diagnostics")
    _add_io_arguments(balance, outcome_required=False)

    drf = sub.add_parser("drf", help="estimate the dose-response function")
    _add_io_arguments(drf, outcome_required=True)
    drf.add_argument("--degree", type=int, default=3, help="polynomial degree")
    drf.add_argument(
        "--bootstrap", type=int, default=1000, help="bootstrap replications (0 skips)"
    )
    drf.add_argument("--grid-points", type=int, default=50)
    drf.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="run the bias/RMSE study")
    simulate.add_argument("--n", type=int, default=200, choices=SAMPLE_SIZES)
    simulate.add_argument("--sigma", type=float, default=4.0)
    simulate.add_argument("--eta", type=float, default=1.0)
    simulate.add_argument("--spec", type=int, default=1, choices=(1, 2, 3))
    simulate.add_argument("--replications", type=int, default=1000)
    simulate.add_argument(
        "--methods", default=",".join(SIMULATION_METHODS), help="comma-separated method names"
    )
    simulate.add_argument(
        "--paper-grid",
        action="store_true",
        help="expand to the full scenario grid across all sample sizes",
    )
    simulate.add_argument(
        "--sizes", default=None, help="comma-separated sample sizes for --paper-grid"
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for scenario cells (default $EBCT_JOBS or 1)",
    )
    simulate.add_argument("--out", default=".", help="output directory")
    simulate.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "balance":
            return cmd_balance(args)
        if args.command == "drf":
            return cmd_drf(args)
        return cmd_simulate(args)
    except ResampleDegenerate as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BOOTSTRAP_FAILED
    except ScenarioDegenerate as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCENARIO_DEGENERATE
    except (EbctError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
