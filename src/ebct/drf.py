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

from .data import BalancingWeights, Dataset, check_counts
from .errors import (
    EbctError,
    ExtrapolationWarning,
    RankDeficientDesign,
    ResampleDegenerate,
)
from .solver import _cholesky, _lapack_errors, _solve
from .weighting import counted_ebct, estimate_weights

# Normal critical value for a two-sided test at the 10% level.
_Z_10PCT = 1.645

# A bootstrap gives up after this many draws per requested replicate.
_MAX_DRAW_FACTOR = 10

_NON_FINITE = "array must not contain infs or NaNs"


def fit_wls(y, design, w) -> np.ndarray:
    """Coefficients minimizing the weighted residual sum of squares.

    Solves the normal equations with a Cholesky factorization; the weight
    scale is irrelevant (doubling all weights changes nothing). ``w`` is one
    length-n weight vector, giving the p coefficients.

    B samples of the same shape fit in one call as a B x n ``y``, a
    B x n x p ``design`` and a B x n ``w``, one weighting of each sample,
    giving a B x p array whose row b is bit for bit the coefficients that
    sample b alone gives.

    Raises:
        ValueError: the normal equations are not finite, or the weights'
            shape is not the design's rows (an n x 1 column is not a
            weight vector).
        RankDeficientDesign: the design is rank deficient under the weights.
            With a stack, either error is raised for the whole call when
            any one sample has it.
    """
    design = np.asarray(design, dtype=float)
    w = np.asarray(w, dtype=float)
    rows = design.shape[:-1]
    if w.shape != rows:
        raise ValueError(f"weights have shape {w.shape}, expected {rows}")
    # A column outcome keeps rhs a column: the matrix-vector product of a
    # 1-d outcome, with the trailing axis the solves take.
    y = np.asarray(y, dtype=float).reshape(rows + (1,))
    weighted = design * w[..., None]
    weighted_t = weighted.swapaxes(-1, -2)
    gram = weighted_t @ design
    rhs = weighted_t @ y
    # numpy's Cholesky passes NaN and inf through without raising.
    if not np.logical_and.reduce(np.isfinite(gram), axis=None):
        raise ValueError(_NON_FINITE)
    return _normal_solution(gram, rhs)


@_lapack_errors()
def _normal_solution(gram, rhs) -> np.ndarray:
    """``fit_wls``'s coefficients from its finite Gram matrices and
    right-hand sides: a Cholesky factor and two triangular solves, under
    ``_lapack_errors`` entered once as the decorator."""
    try:
        lower = _cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientDesign(
            "design matrix is rank deficient under the weight metric"
        ) from None
    if not np.logical_and.reduce(np.isfinite(rhs), axis=None):
        raise ValueError(_NON_FINITE)
    half = _solve(lower, rhs)
    return _solve(lower.swapaxes(-1, -2), half)[..., 0]


# The polynomials are numpy core's np.vander, np.polyval and np.polyder. The
# distinct count and grid percentiles are bit-for-bit stand-ins for np.unique
# and np.percentile, whose numpy.ma import every run would hold in memory.


def _polyvander(x, degree: int) -> np.ndarray:
    """The Vandermonde matrix [1, x, ..., x^degree] of points ``x``, bit for
    bit and stride for stride ``numpy.polynomial.polynomial.polyvander``'s."""
    # + 0.0 turns -0.0 into +0.0, as polyvander does. The transposed copy keeps
    # each power one contiguous column, as fit_wls's rounding needs; for a
    # one-point grid np.asfortranarray would not give polyvander's strides.
    return np.vander(x + 0.0, degree + 1, increasing=True).T.copy().T


def _count_distinct(values) -> int:
    """How many distinct values ``values`` holds, counted from one sort of
    a flat copy."""
    ordered = values.flatten()
    ordered.sort()
    return int(ordered.size and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def _check_distinct(distinct: int, degree: int) -> None:
    """Raise RankDeficientDesign unless ``distinct`` treatment values fit a degree-d curve.

    A Vandermonde design [1, t, ..., t^d] has full column rank exactly when
    its rows hold at least d+1 distinct values of t, so counting them
    decides what a Cholesky of the Gram matrix decides only up to rounding.
    """
    if distinct <= degree:
        raise RankDeficientDesign(
            f"a degree-{degree} fit needs {degree + 1} distinct treatment values "
            f"among the positive-weight units, got {distinct}"
        )


def default_grid(treatment, points: int = 50) -> np.ndarray:
    """Evaluation grid: equally spaced between the 2nd and 98th percentiles.

    Keeps the fit away from the unstable tails of the treatment distribution.

    Raises:
        ValueError: ``points`` is below 1.
    """
    if points < 1:
        raise ValueError(f"grid points must be at least 1, got {points}")
    lo, hi = _percentiles(np.asarray(treatment, dtype=float), [2.0, 98.0])
    return np.linspace(lo, hi, points)


def _percentiles(values, percents) -> np.ndarray:
    """``np.percentile(values, percents)``, bit for bit, for finite values.

    numpy's default linear method: the order statistics on either side of
    each virtual index (n-1) q, found by the same partition, and numpy's
    interpolation between them.
    """
    n = values.size
    index = (n - 1) * (np.asarray(percents, dtype=float) / 100)
    below = np.floor(index)
    above = below + 1
    top = index >= n - 1  # the largest value, as numpy takes it
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = np.partition(values, sorted({0, -1, *below.tolist(), *above.tolist()}), axis=None)
    lo, hi, t = ordered[below], ordered[above], index - below
    diff = hi - lo
    result = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=result, where=t >= 0.5)
    return result


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
    weights: BalancingWeights,
    degree: int = 3,
    grid=None,
) -> DrfFit:
    """Weighted polynomial fit of the outcome on the treatment.

    The design is [1, T, ..., T^degree] on the original treatment scale,
    fitted under ``weights``, one weighting of ``dataset``. Points outside
    the observed treatment range trigger a non-fatal ExtrapolationWarning.

    Raises:
        TypeError: ``weights`` is not a ``BalancingWeights``.
        RankDeficientDesign: fewer than degree+1 distinct treatment values,
            or a design that is rank deficient under the weights (see
            ``fit_wls``).
        ValueError: the weights are not of length n (see ``fit_wls``).
    """
    if not isinstance(weights, BalancingWeights):
        raise TypeError(f"weights must be a BalancingWeights, got {type(weights).__name__}")
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
    # Every unit has a positive weight, so every treatment value counts.
    _check_distinct(_count_distinct(t), degree)
    design = _polyvander(t, degree)
    coefficients = fit_wls(dataset.outcome, design, weights.weights)
    return DrfFit(
        coefficients=coefficients,
        grid=grid,
        drf_values=np.polyval(coefficients[::-1], grid),
        drf_derivatives=np.polyval(np.polyder(coefficients[::-1]), grid),
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
            rows.append(np.asarray(statistic(indices), dtype=float).ravel())
        except (EbctError, np.linalg.LinAlgError):
            continue
    return np.vstack(rows)


def bootstrap_se(
    fit: DrfFit,
    dataset: Dataset,
    weights: BalancingWeights,
    truncation: Optional[float],
    replications: int,
    seed: int,
) -> DrfFit:
    """Bootstrap standard errors for the dose-response derivative.

    Resamples units with replacement and re-runs the full pipeline per
    replicate: weight estimation with the method of the full-sample
    ``weights`` and ``truncation``, then the fit at the degree and on the
    grid of ``fit``, which propagates weight-estimation uncertainty. A
    resample that draws unit i c_i times is the frequency-weighted problem
    on the units it drew: each replicate weighs those units with the counts
    (see ``estimate_weights``) and fits on them alone, with each unit's
    weight the total of its copies', so no resampled dataset is built. For
    ebct the full sample is standardized once, by ``counted_ebct``, and each
    replicate solves its drawn rows of that matrix centred at the
    resample's target means (see ``resample``), which has a row per distinct
    unit (about 63% of n) and the resample's own constraint set. The SEs
    equal those of refits on the resampled datasets up to the solver
    tolerance for ebct and float rounding for the other methods. Each
    replicate's dual solve starts at ``weights.gamma``, the untruncated
    full-sample multipliers, which saves Newton steps and moves the SEs only
    within the solver tolerance. A replicate that draws fewer than degree+1
    distinct treatment values raises ``RankDeficientDesign`` and is redrawn,
    as is one whose weights fail. The SE at each grid point is the sample
    standard deviation (denominator B-1) across replicates; a point is
    flagged significant at the 10% level when |derivative| / SE exceeds
    1.645, with the derivatives of ``fit`` as the point estimates.

    Returns:
        ``fit`` with ``derivative_se`` and ``significant_10pct`` filled in.

    Raises:
        TypeError: ``weights`` is not a ``BalancingWeights``.
    """
    if not isinstance(weights, BalancingWeights):
        raise TypeError(f"weights must be a BalancingWeights, got {type(weights).__name__}")
    n, degree, method = dataset.n, fit.degree, weights.method_tag
    # take returns the drawn rows row-major whatever the design's order, and
    # from a row-major design it moves each row as one block. A draw of every
    # unit fits the column-major design, as estimate_drf does.
    design = np.ascontiguousarray(_polyvander(dataset.treatment, degree))
    # Row g holds d/dt t^j = j t^(j-1) at grid point g for j = 1..degree.
    slopes = _polyvander(fit.grid, degree - 1) * np.arange(1, degree + 1)
    if method == "ebct":
        weigh = counted_ebct(dataset, truncation, weights.gamma)
    else:

        def weigh(counts) -> tuple:
            kept, _ = check_counts(counts, n)
            return kept, estimate_weights(dataset, method, truncation, counts=counts)

    def derivatives(indices) -> np.ndarray:
        kept, resampled = weigh(np.bincount(indices, minlength=n))
        t, y = dataset.treatment, dataset.outcome
        # take gathers rows at half the cost of fancy indexing
        if not isinstance(kept, slice):
            t, y, rows = t.take(kept), y.take(kept), design.take(kept, axis=0)
        else:
            rows = _polyvander(t, degree)
        _check_distinct(_count_distinct(t), degree)
        coefficients = fit_wls(y, rows, resampled.weights)
        return slopes @ coefficients[1:]

    draws = bootstrap_statistic(n, derivatives, replications, seed)
    se = draws.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(fit.drf_derivatives) / se
    significant = np.where(np.isnan(ratio), False, ratio > _Z_10PCT)
    return replace(fit, derivative_se=se, significant_10pct=significant.astype(bool))
