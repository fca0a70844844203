"""Balance and weight-concentration diagnostics.

Reports weighted Pearson correlations between the treatment and each
covariate, their max/mean absolute values, and the largest weight share held
by a single unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .data import BalancingWeights, Dataset

_VARIANCE_FLOOR = 1e-24


def _weight_rows(ws) -> np.ndarray:
    """The weightings ``ws``, each normalized to sum one, as an M x n stack."""
    rows = [
        w.weights if isinstance(w, BalancingWeights) else np.ravel(np.asarray(w, dtype=float))
        for w in ws
    ]
    # One weighting stays a view, so a large n pays no stacking copy.
    stack = rows[0][None] if len(rows) == 1 else np.stack(rows)
    if not (stack.min() > 0 and np.isfinite(stack).all()):
        raise ValueError("weights must be strictly positive and finite")
    return stack / stack.sum(axis=1, keepdims=True)


def _is_one_weighting(w) -> bool:
    """True for one weighting, False for a sequence or 2-d stack of them."""
    if isinstance(w, BalancingWeights):
        return True
    if isinstance(w, (list, tuple)):
        return not w or np.ndim(getattr(w[0], "weights", w[0])) == 0
    return np.ndim(w) < 2


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


def balance_report(w, dataset: Dataset, method_tag: str = ""):
    """Weighted treatment-covariate correlations for every covariate.

    Called with uniform weights this reproduces the plain unweighted Pearson
    correlations. All covariates go through one weighted pass: weighted
    covariance over the product of weighted standard deviations, around
    weighted means, with no effective-sample-size correction since any
    common factor cancels in the ratio. Columns whose weighted variance is
    numerically zero are skipped with a warning flag rather than failing the
    whole report.

    ``w`` is one weighting of ``dataset`` (``BalancingWeights`` or a positive
    vector), giving one ``BalanceReport``, or a sequence of weightings (or an
    M x n array), giving a list of reports in the same order from one pass
    over the M x n stack. Each report of a stack is bit for bit the report
    its weighting gives alone, degenerate columns included. A report is
    tagged ``method_tag``, else its weights' method, else "uniform".
    """
    single = _is_one_weighting(w)
    ws = [w] if single else list(w)
    weights = _weight_rows(ws)
    # (M, 1, n) rows make every weighted mean one dot product or one
    # vector-matrix product per weighting, the BLAS calls of a lone vector.
    rows = weights[:, None, :]
    t, x = dataset.treatment, dataset.covariates
    dt = t - (rows @ t[:, None])[:, :, 0]
    dx = x - rows @ x
    cov = ((weights * dt)[:, None, :] @ dx)[:, 0]
    var_t = (rows @ (dt * dt)[:, :, None])[:, 0]
    dx *= dx
    var_x = (rows @ dx)[:, 0]
    bad = (var_x < _VARIANCE_FLOOR) | (var_t < _VARIANCE_FLOOR)
    correlations = np.divide(
        cov, np.sqrt(var_t * var_x), out=np.full_like(cov, np.nan), where=~bad
    )
    np.clip(correlations, -1.0, 1.0, out=correlations)
    magnitudes = np.abs(correlations)
    # Row-wise aggregates are each row's own: only a row with a degenerate
    # column needs them again over its finite entries.
    if magnitudes.size:
        maxima = magnitudes.max(axis=1).tolist()
        means = magnitudes.mean(axis=1).tolist()
    else:  # no covariates
        maxima, means = [float("nan")] * len(ws), [float("nan")] * len(ws)
    shares = weights.max(axis=1).tolist()
    names = dataset.covariate_names
    reports = []
    for m, item in enumerate(ws):
        degenerate = ()
        if bad[m].any():
            finite = magnitudes[m][~bad[m]]
            maxima[m] = float(finite.max()) if finite.size else float("nan")
            means[m] = float(finite.mean()) if finite.size else float("nan")
            degenerate = tuple(compress(names, bad[m]))
        reports.append(
            BalanceReport(
                covariate_names=names,
                per_covariate_correlation=correlations[m],
                max_abs_correlation=maxima[m],
                mean_abs_correlation=means[m],
                max_weight_share=shares[m],
                method_tag=method_tag or getattr(item, "method_tag", "uniform"),
                degenerate_columns=degenerate,
            )
        )
    return reports[0] if single else reports


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
