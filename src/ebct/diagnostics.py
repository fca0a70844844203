"""Balance and weight-concentration diagnostics.

Reports weighted Pearson correlations between the treatment and each
covariate, their max/mean absolute values, and the largest weight share held
by a single unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .data import BalancingWeights, Dataset, sample_blocks

_VARIANCE_FLOOR = 1e-24


def _weight_vector(w) -> np.ndarray:
    return w.weights if isinstance(w, BalancingWeights) else np.ravel(np.asarray(w, dtype=float))


def _weight_rows(groups) -> np.ndarray:
    """B x M x n stack of the weightings ``groups``, B sequences of M
    weightings or a B x M x n array, each normalized to sum one."""
    if isinstance(groups, np.ndarray):
        stack = groups.astype(float, copy=False)
        if stack.ndim != 3:
            raise ValueError(f"stacked datasets take a B x M x n weight stack, got {stack.ndim}-d")
    else:
        rows = [[_weight_vector(w) for w in group] for group in groups]
        # One weighting stays a view, so a large n pays no stacking copy.
        one = len(rows) == 1 and len(rows[0]) == 1
        stack = rows[0][0][None, None] if one else np.array(rows)
    if not (stack.min() > 0 and np.isfinite(stack).all()):
        raise ValueError("weights must be strictly positive and finite")
    return stack / stack.sum(axis=-1, keepdims=True)


def _json_float(value) -> Optional[float]:
    return None if np.isnan(value) else float(value)


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
        """JSON-ready fields; a NaN correlation or aggregate becomes None."""
        corr = {
            name: _json_float(value)
            for name, value in zip(self.covariate_names, self.per_covariate_correlation)
        }
        return {
            "method": self.method_tag,
            "correlations": corr,
            "max_abs_correlation": _json_float(self.max_abs_correlation),
            "mean_abs_correlation": _json_float(self.mean_abs_correlation),
            "max_weight_share": self.max_weight_share,
            "degenerate_columns": list(self.degenerate_columns),
        }


def balance_report(w, dataset, method_tag: str = ""):
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

    ``dataset`` may also be a sequence of B datasets that share n and K, with
    ``w`` B sequences of M weightings, one per dataset, or a B x M x n
    array. The result is then B lists of M reports from one pass over the
    B x M x n stack, block by block (see ``sample_blocks``) so that the
    working memory is one block's, each bit for bit the report its
    weighting and dataset give alone.

    Raises:
        ValueError: a weighting is not positive and finite, or not of length
            n; stacked datasets differ in shape, or their weightings are not
            B groups of M.
    """
    one_dataset = isinstance(dataset, Dataset)
    if one_dataset:
        single = _is_one_weighting(w)
        datasets, groups = [dataset], [[w] if single else list(w)]
    else:
        datasets, groups = list(dataset), w
        if any((d.n, d.k) != (datasets[0].n, datasets[0].k) for d in datasets):
            raise ValueError("stacked datasets must share n and K")
    weights = _weight_rows(groups)
    B, M, n = weights.shape
    if B != len(datasets):
        raise ValueError(f"got {B} groups of weightings for {len(datasets)} datasets")
    if n != datasets[0].n:
        raise ValueError(f"weights have {n} entries per row, expected {datasets[0].n}")
    k = datasets[0].k
    correlations = np.full((B, M, k), np.nan)
    bad = np.empty((B, M, k), dtype=bool)
    # Block by block, so the (b, M, n, K) deviations stay block-sized.
    for block, t, x in sample_blocks(datasets, M):
        part = weights[block]
        # (b, M, 1, n) rows make every weighted mean one dot product or one
        # vector-matrix product per weighting, the BLAS calls of a lone vector.
        rows = part[:, :, None, :]
        dt = t[:, None, :] - (rows @ t[:, None, :, None])[..., 0]
        dx = x[:, None] - rows @ x[:, None]
        cov = ((part * dt)[:, :, None, :] @ dx)[:, :, 0]
        var_t = (rows @ (dt * dt)[..., None])[..., 0]
        dx *= dx
        var_x = (rows @ dx)[:, :, 0]
        del t, x, dx  # before the next block is stacked
        np.logical_or(var_x < _VARIANCE_FLOOR, var_t < _VARIANCE_FLOOR, out=bad[block])
        np.divide(cov, np.sqrt(var_t * var_x), out=correlations[block], where=~bad[block])
    np.clip(correlations, -1.0, 1.0, out=correlations)
    magnitudes = np.abs(correlations)
    # Row-wise aggregates are each row's own: only a row with a degenerate
    # column needs them again over its finite entries.
    if magnitudes.size:
        maxima = magnitudes.max(axis=-1).tolist()
        means = magnitudes.mean(axis=-1).tolist()
    else:  # no covariates
        maxima = means = np.full((B, M), np.nan).tolist()
    shares = weights.max(axis=-1).tolist()
    reports = []
    for b, data in enumerate(datasets):
        names = data.covariate_names
        reports.append([])
        for m in range(M):
            maximum, mean, degenerate = maxima[b][m], means[b][m], ()
            if bad[b, m].any():
                finite = magnitudes[b, m][~bad[b, m]]
                maximum = float(finite.max()) if finite.size else float("nan")
                mean = float(finite.mean()) if finite.size else float("nan")
                degenerate = tuple(compress(names, bad[b, m]))
            reports[b].append(
                BalanceReport(
                    covariate_names=names,
                    per_covariate_correlation=correlations[b, m],
                    max_abs_correlation=maximum,
                    mean_abs_correlation=mean,
                    max_weight_share=shares[b][m],
                    method_tag=method_tag or getattr(groups[b][m], "method_tag", "uniform"),
                    degenerate_columns=degenerate,
                )
            )
    if not one_dataset:
        return reports
    return reports[0][0] if single else reports[0]


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
