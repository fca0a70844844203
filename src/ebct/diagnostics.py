"""Balance and weight-concentration diagnostics.

Reports weighted Pearson correlations between the treatment and each
covariate, their max/mean absolute values, and the largest weight share held
by a single unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import BalancingWeights, Dataset
from .errors import ZeroVariance

_VARIANCE_FLOOR = 1e-24


def _weight_vector(w) -> np.ndarray:
    if isinstance(w, BalancingWeights):
        w = w.weights
    w = np.ravel(np.asarray(w, dtype=float))
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be strictly positive and finite")
    return w / w.sum()


def weighted_pearson(w, a, b) -> float:
    """Weighted Pearson correlation of a and b.

    Weighted covariance over the product of weighted standard deviations,
    with weighted means; no effective-sample-size correction is applied since
    any common factor cancels in the ratio.

    Raises:
        ZeroVariance: either variable has (numerically) zero weighted spread.
    """
    w = _weight_vector(w)
    a = np.ravel(np.asarray(a, dtype=float))
    b = np.ravel(np.asarray(b, dtype=float))
    da = a - w @ a
    db = b - w @ b
    var_a = w @ (da * da)
    var_b = w @ (db * db)
    if var_a < _VARIANCE_FLOOR or var_b < _VARIANCE_FLOOR:
        raise ZeroVariance("weighted variance is numerically zero")
    corr = w @ (da * db) / np.sqrt(var_a * var_b)
    return float(np.clip(corr, -1.0, 1.0))


def max_weight_share(w) -> float:
    """Largest single normalized weight."""
    return float(_weight_vector(w).max())


@dataclass(frozen=True)
class BalanceReport:
    """Per-covariate weighted correlations with aggregate balance metrics.

    ``per_covariate_correlation`` holds NaN for covariates whose weighted
    variance degenerated; those columns are listed in ``degenerate_columns``
    and excluded from the aggregates.
    """

    covariate_names: tuple
    per_covariate_correlation: np.ndarray
    max_abs_correlation: float
    mean_abs_correlation: float
    max_weight_share: float
    method_tag: str
    degenerate_columns: tuple = ()

    def to_dict(self) -> dict:
        corr = {
            name: (None if np.isnan(value) else float(value))
            for name, value in zip(self.covariate_names, self.per_covariate_correlation)
        }
        return {
            "method": self.method_tag,
            "correlations": corr,
            "max_abs_correlation": self.max_abs_correlation,
            "mean_abs_correlation": self.mean_abs_correlation,
            "max_weight_share": self.max_weight_share,
            "degenerate_columns": list(self.degenerate_columns),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def balance_report(w, dataset: Dataset, method_tag: str = "") -> BalanceReport:
    """Weighted treatment-covariate correlations for every covariate.

    Called with uniform weights this reproduces the plain unweighted Pearson
    correlations. All covariates go through one weighted pass with the
    formulas of ``weighted_pearson``; degenerate columns are skipped with a
    warning flag rather than failing the whole report.
    """
    if isinstance(w, BalancingWeights) and not method_tag:
        method_tag = w.method_tag
    weights = _weight_vector(w)
    dt = dataset.treatment - weights @ dataset.treatment
    dx = dataset.covariates - weights @ dataset.covariates
    cov = (weights * dt) @ dx
    var_t = weights @ (dt * dt)
    dx *= dx
    var_x = weights @ dx
    bad = (var_x < _VARIANCE_FLOOR) | (var_t < _VARIANCE_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        correlations = np.clip(cov / np.sqrt(var_t * var_x), -1.0, 1.0)
    correlations[bad] = np.nan
    finite = np.abs(correlations[~bad])
    return BalanceReport(
        covariate_names=dataset.covariate_names,
        per_covariate_correlation=correlations,
        max_abs_correlation=float(finite.max()) if finite.size else float("nan"),
        mean_abs_correlation=float(finite.mean()) if finite.size else float("nan"),
        max_weight_share=float(weights.max()),
        method_tag=method_tag or "uniform",
        degenerate_columns=tuple(
            name for name, flag in zip(dataset.covariate_names, bad) if flag
        ),
    )


def render_balance_table(reports: Sequence[BalanceReport]) -> str:
    """Fixed-width text table: one row per covariate, one column per report.

    Correlations are rounded to two decimals; the summary rows give the mean
    absolute correlation and the maximum weight share in percent.
    """
    if not reports:
        raise ValueError("at least one report is required")
    names = reports[0].covariate_names
    for report in reports[1:]:
        if report.covariate_names != names:
            raise ValueError("reports cover different covariates")

    headers = [report.method_tag for report in reports]
    label_width = max(
        [len("Mean absolute correlation")] + [len(name) for name in names]
    )
    col_width = max([8] + [len(h) + 2 for h in headers])

    def fmt(value: float) -> str:
        if np.isnan(value):
            return "."
        return f"{round(value, 2) + 0.0:.2f}"  # avoid the -0.00 rendering

    lines = []
    lines.append(
        " " * label_width
        + "".join(h.rjust(col_width) for h in headers)
    )
    for j, name in enumerate(names):
        row = name.ljust(label_width)
        for report in reports:
            row += fmt(report.per_covariate_correlation[j]).rjust(col_width)
        lines.append(row)
    lines.append("")
    row = "Mean absolute correlation".ljust(label_width)
    for report in reports:
        row += fmt(report.mean_abs_correlation).rjust(col_width)
    lines.append(row)
    row = "Maximum weight in %".ljust(label_width)
    for report in reports:
        row += f"{100.0 * report.max_weight_share:.2f}".rjust(col_width)
    lines.append(row)
    return "\n".join(lines) + "\n"
