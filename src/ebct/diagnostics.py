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
    """The weights of one weighting: a ``BalancingWeights`` or a vector."""
    if isinstance(w, BalancingWeights):
        return w.weights
    vector = np.asarray(w)
    if vector.ndim != 1 or vector.dtype == object:
        raise ValueError("each dataset takes one weighting: a BalancingWeights or a 1-d vector")
    return vector.astype(float, copy=False)


def _json_float(value) -> Optional[float]:
    return None if np.isnan(value) else float(value)


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
    vector), giving one ``BalanceReport`` tagged ``method_tag``, else its
    weights' method, else "uniform". Its weight share is the largest weight
    of a ``BalancingWeights`` as it stands (``max_share``), and of a vector
    normalized to sum one.

    ``dataset`` may also be a sequence of B datasets that share n and K, with
    ``w`` a sequence of B weightings, one per dataset, or a B x n array. The
    result is then the list of their B reports from one pass over the
    B x n stack, block by block (see ``sample_blocks``) so that the working
    memory is one block's, each bit for bit the report its weighting and
    dataset give alone, degenerate columns included.

    Raises:
        ValueError: a weighting is not positive and finite, or not of length
            n; one dataset comes with several weightings; stacked datasets
            differ in shape or in number from their weightings.
    """
    single = isinstance(dataset, Dataset)
    datasets, weightings = ([dataset], [w]) if single else (list(dataset), list(w))
    if any((d.n, d.k) != (datasets[0].n, datasets[0].k) for d in datasets):
        raise ValueError("stacked datasets must share n and K")
    if len(weightings) != len(datasets):
        raise ValueError(f"got {len(weightings)} weightings for {len(datasets)} datasets")
    vectors = [_weight_vector(weighting) for weighting in weightings]
    # One weighting stays a view, so a large n pays no stacking copy.
    stack = vectors[0][None] if single else np.array(vectors)
    B, n = stack.shape
    if n != datasets[0].n:
        raise ValueError(f"weights have {n} entries per row, expected {datasets[0].n}")
    if not (stack.min() > 0 and np.isfinite(stack).all()):
        raise ValueError("weights must be strictly positive and finite")
    weights = stack / stack.sum(axis=1, keepdims=True)
    k = datasets[0].k
    correlations = np.full((B, k), np.nan)
    bad = np.empty((B, k), dtype=bool)
    # Block by block, so the (b, n, K) deviations stay block-sized.
    for block, t, x in sample_blocks(datasets):
        part = weights[block]
        # (b, 1, n) rows make every weighted mean one dot product or one
        # vector-matrix product per dataset, the BLAS calls of a lone vector.
        rows = part[:, None, :]
        dt = t - (rows @ t[:, :, None])[:, 0]
        # In place when x is a stacked copy, not a lone dataset's own array.
        dx = np.subtract(x, rows @ x, out=x if x.flags.writeable else None)
        cov = ((part * dt)[:, None, :] @ dx)[:, 0]
        var_t = (rows @ (dt * dt)[:, :, None])[:, 0]
        dx *= dx
        var_x = (rows @ dx)[:, 0]
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
        maxima = means = [float("nan")] * B
    # As written: divided by its float sum again, a share can pass a cap it meets.
    shares = [
        weighting.max_share if isinstance(weighting, BalancingWeights) else float(row.max())
        for weighting, row in zip(weightings, weights)
    ]
    reports = []
    for b, data in enumerate(datasets):
        maximum, mean, degenerate = maxima[b], means[b], ()
        if bad[b].any():
            finite = magnitudes[b][~bad[b]]
            maximum = float(finite.max()) if finite.size else float("nan")
            mean = float(finite.mean()) if finite.size else float("nan")
            degenerate = tuple(compress(data.covariate_names, bad[b]))
        reports.append(
            BalanceReport(
                covariate_names=data.covariate_names,
                per_covariate_correlation=correlations[b],
                max_abs_correlation=maximum,
                mean_abs_correlation=mean,
                max_weight_share=shares[b],
                method_tag=method_tag or getattr(weightings[b], "method_tag", "uniform"),
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
