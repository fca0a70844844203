"""Dose-response estimation by weighted polynomial least squares.

Fits a polynomial in the treatment (cubic by default) by weighted least
squares, evaluates the fitted curve and its exact derivative on a grid, and
attaches bootstrap standard errors obtained by re-running the whole pipeline
(weight estimation included) on unit-level resamples.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .data import Dataset
from .errors import (
    EbctError,
    ExtrapolationWarning,
    RankDeficientDesign,
    ResampleDegenerate,
)
from .weighting import estimate_weights

# Normal critical value for a two-sided test at the 10% level.
_Z_10PCT = 1.645

# A bootstrap gives up after this many draws per requested replicate.
_MAX_DRAW_FACTOR = 10

_NON_FINITE = "array must not contain infs or NaNs"


def fit_wls(y, design, w) -> np.ndarray:
    """Coefficients minimizing the weighted residual sum of squares.

    Solves the normal equations with a Cholesky factorization; the weight
    scale is irrelevant (doubling all weights changes nothing). ``w`` is one
    length-n weight vector, giving the p coefficients, or an M x n stack of
    weightings of the same sample, giving an M x p matrix from one stacked
    factorization. Each row of a stack is bit for bit the coefficients that
    row alone gives.

    Raises:
        ValueError: the normal equations are not finite, or a weighting's
            length is not the design's row count (an n x 1 column is not a
            weight vector but n weightings of one unit).
        RankDeficientDesign: the design is rank deficient under the weights.
            With a stack, either error is raised for the whole call when
            any one weighting has it.
    """
    y = np.ravel(np.asarray(y, dtype=float))
    design = np.asarray(design, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        w = np.ravel(w)
    if w.shape[-1] != design.shape[0]:
        raise ValueError(f"weights have {w.shape[-1]} entries per row, expected {design.shape[0]}")
    weighted = design * w[..., None]
    weighted_t = np.swapaxes(weighted, -1, -2)
    gram = weighted_t @ design
    rhs = weighted_t @ y
    # numpy's Cholesky passes NaN and inf through without raising.
    if not np.isfinite(gram).all():
        raise ValueError(_NON_FINITE)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientDesign(
            "design matrix is rank deficient under the weight metric"
        ) from None
    if not np.isfinite(rhs).all():
        raise ValueError(_NON_FINITE)
    half = np.linalg.solve(lower, rhs[..., None])
    return np.linalg.solve(np.swapaxes(lower, -1, -2), half)[..., 0]


def default_grid(treatment, points: int = 50) -> np.ndarray:
    """Evaluation grid: equally spaced between the 2nd and 98th percentiles.

    Keeps the fit away from the unstable tails of the treatment distribution.

    Raises:
        ValueError: ``points`` is below 1.
    """
    if points < 1:
        raise ValueError(f"grid points must be at least 1, got {points}")
    lo, hi = np.percentile(np.asarray(treatment, dtype=float), [2.0, 98.0])
    return np.linspace(lo, hi, points)


@dataclass(frozen=True)
class DrfFit:
    """Polynomial dose-response fit with derivatives on a grid.

    Derivatives come from exact differentiation of the fitted coefficients
    (intercept first). ``derivative_se`` and ``significant_10pct`` stay None
    until a bootstrap run fills them in.
    """

    coefficients: np.ndarray
    grid: np.ndarray
    drf_values: np.ndarray
    drf_derivatives: np.ndarray
    derivative_se: Optional[np.ndarray] = None
    significant_10pct: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.ravel(np.asarray(self.grid, dtype=float))
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coefficients", np.ravel(np.asarray(self.coefficients, dtype=float)))

    @property
    def degree(self) -> int:
        """Polynomial degree: one less than the number of coefficients."""
        return self.coefficients.size - 1

    def write_csv(self, path) -> None:
        """Plot-ready CSV with columns t, drf, derivative, se, significant."""
        se = self.derivative_se
        sig = self.significant_10pct
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "drf", "derivative", "se", "significant"])
            for i, t in enumerate(self.grid):
                writer.writerow(
                    [
                        repr(float(t)),
                        repr(float(self.drf_values[i])),
                        repr(float(self.drf_derivatives[i])),
                        "" if se is None else repr(float(se[i])),
                        "" if sig is None else int(sig[i]),
                    ]
                )


def estimate_drf(
    dataset: Dataset,
    weights,
    degree: int = 3,
    grid=None,
) -> DrfFit:
    """Weighted polynomial fit of the outcome on the treatment.

    The design is [1, T, ..., T^degree] on the original treatment scale.
    Points outside the observed treatment range trigger a non-fatal
    ExtrapolationWarning.
    """
    if dataset.outcome is None:
        raise ValueError("dataset has no outcome column")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    t = dataset.treatment
    grid = default_grid(t) if grid is None else np.ravel(np.asarray(grid, dtype=float))
    if grid.size and (grid.min() < t.min() or grid.max() > t.max()):
        warnings.warn(
            "grid extends beyond the observed treatment range; dose-response "
            "values there are extrapolated",
            ExtrapolationWarning,
            stacklevel=2,
        )
    w = weights.weights if hasattr(weights, "weights") else np.asarray(weights, dtype=float)
    design = npoly.polyvander(t, degree)
    coefficients = fit_wls(dataset.outcome, design, w)
    return DrfFit(
        coefficients=coefficients,
        grid=grid,
        drf_values=npoly.polyval(grid, coefficients),
        drf_derivatives=npoly.polyval(grid, npoly.polyder(coefficients)),
    )


def bootstrap_statistic(
    n_units: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    replications: int,
    seed: int,
) -> np.ndarray:
    """Unit-level bootstrap of an arbitrary statistic.

    Draws index vectors with replacement and stacks ``statistic(indices)``
    row-wise. A replicate that raises a pipeline error (constant column after
    resampling, infeasible solve, ...) is redrawn; each draw derives its
    generator from (seed, attempt index) so results do not depend on
    execution order.

    Raises:
        ResampleDegenerate: more than ten draws per replicate were needed.
    """
    if replications < 2:
        raise ValueError("at least 2 bootstrap replications are required")
    rows = []
    attempt = 0
    while len(rows) < replications:
        if attempt >= _MAX_DRAW_FACTOR * replications:
            raise ResampleDegenerate(
                f"{attempt} resampling attempts produced only {len(rows)} "
                f"usable replicates out of {replications}"
            )
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        indices = rng.integers(0, n_units, size=n_units)
        attempt += 1
        try:
            rows.append(np.ravel(np.asarray(statistic(indices), dtype=float)))
        except (EbctError, np.linalg.LinAlgError):
            continue
    return np.vstack(rows)


def bootstrap_se(
    fit: DrfFit,
    dataset: Dataset,
    weights,
    truncation: Optional[float],
    replications: int,
    seed: int,
) -> DrfFit:
    """Bootstrap standard errors for the dose-response derivative.

    Resamples units with replacement and re-runs the full pipeline per
    replicate: ``estimate_weights`` with the method of the full-sample
    ``weights`` and ``truncation``, then the fit at the degree and on the
    grid of ``fit``, which propagates weight-estimation uncertainty. Each
    replicate's dual solve starts at ``weights.gamma``, the untruncated
    full-sample multipliers, which saves Newton steps and moves the SEs only
    within the solver tolerance. The SE at each grid point is the sample
    standard deviation (denominator B-1) across replicates; a point is
    flagged significant at the 10% level when |derivative| / SE exceeds
    1.645, with the derivatives of ``fit`` as the point estimates.

    Returns:
        ``fit`` with ``derivative_se`` and ``significant_10pct`` filled in.
    """

    def derivatives(indices) -> np.ndarray:
        sample = dataset.subset(indices)
        resampled = estimate_weights(sample, weights.method_tag, truncation, weights.gamma)
        design = npoly.polyvander(sample.treatment, fit.degree)
        coefficients = fit_wls(sample.outcome, design, resampled.weights)
        return npoly.polyval(fit.grid, npoly.polyder(coefficients))

    draws = bootstrap_statistic(dataset.n, derivatives, replications, seed)
    se = draws.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(fit.drf_derivatives) / se
    significant = np.where(np.isnan(ratio), False, ratio > _Z_10PCT)
    return replace(fit, derivative_se=se, significant_10pct=significant.astype(bool))
