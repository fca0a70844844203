"""Core data model: datasets, the balance-column matrix and balancing weights.

``standardize`` turns a dataset into the matrix of balance columns: per unit,
the treatment, the covariates and their cross-products, all on the
standardized scale. Zero weighted means of these columns are exactly the
zero-correlation balance conditions the solver enforces. The weighting-method
names are registered here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstantColumn, NonFiniteInput

_WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _as_matrix(values, n_rows: int) -> np.ndarray:
    """Coerce to a read-only n x K float matrix (1-d input means K=1)."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        x = np.empty((n_rows, 0))
    elif x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError("covariates must be a 2-d matrix")
    return _frozen_array(x)


@dataclass(frozen=True)
class Dataset:
    """An observed sample: treatment intensity, covariates, optional outcome.

    Attributes:
        treatment: length-n vector of treatment intensities (arbitrary units).
        covariates: n x K matrix of numeric covariates.
        outcome: optional length-n outcome vector.
        column_names: K+2 unique labels (treatment, covariates..., outcome).
        unit_ids: n opaque identifiers, preserved through every pipeline stage
            so weights can be joined back to input rows.
    """

    treatment: np.ndarray
    covariates: np.ndarray
    outcome: Optional[np.ndarray] = None
    column_names: tuple = ()
    unit_ids: tuple = ()

    def __post_init__(self):
        t = _frozen_array(np.ravel(self.treatment))
        x = _as_matrix(self.covariates, t.size)
        n = t.size
        if x.shape[0] != n:
            raise ValueError(f"covariates have {x.shape[0]} rows, expected {n}")
        k = x.shape[1]
        if n < 2:
            raise ValueError("at least two units are required")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(x)):
            raise NonFiniteInput("treatment or covariates contain non-finite entries")

        y = self.outcome
        if y is not None:
            y = _frozen_array(np.ravel(y))
            if y.size != n:
                raise ValueError(f"outcome has {y.size} entries, expected {n}")
            if not np.all(np.isfinite(y)):
                raise NonFiniteInput("outcome contains non-finite entries")

        names = tuple(self.column_names) or (
            ("T",) + tuple(f"X{j + 1}" for j in range(k)) + ("Y",)
        )
        if len(names) != k + 2:
            raise ValueError(f"expected {k + 2} column names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")

        ids = tuple(self.unit_ids) or tuple(range(n))
        if len(ids) != n:
            raise ValueError(f"expected {n} unit ids, got {len(ids)}")

        object.__setattr__(self, "treatment", t)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "unit_ids", ids)

    @property
    def n(self) -> int:
        return self.treatment.size

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    @property
    def treatment_name(self) -> str:
        return self.column_names[0]

    @property
    def covariate_names(self) -> tuple:
        return self.column_names[1:-1]

    @property
    def outcome_name(self) -> str:
        return self.column_names[-1]

    def subset(self, indices) -> "Dataset":
        """New Dataset keeping the rows in ``indices`` (repeats allowed)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            treatment=self.treatment[idx],
            covariates=self.covariates[idx],
            outcome=None if self.outcome is None else self.outcome[idx],
            column_names=self.column_names,
            unit_ids=tuple(self.unit_ids[i] for i in idx),
        )


def standardize(dataset: Dataset) -> np.ndarray:
    """Balance columns of the standardized sample: the solver's input.

    Treatment and covariates are centered and scaled to unit sample variance
    (denominator n-1). The returned read-only n x (2K+1) matrix stacks, per
    unit, the standardized treatment, the K standardized covariates and their
    K products with the treatment, in the order [T, X1..XK, T*X1..T*XK].
    Zero weighted means of these columns are exactly the zero-correlation
    balance conditions.

    Raises:
        ValueError: fewer units than dual parameters plus one (n < 2K+2),
            which leaves the balance problem underdetermined.
        ConstantColumn: if the treatment or any covariate has zero variance.
    """
    t = dataset.treatment
    x = dataset.covariates
    n, k = dataset.n, dataset.k
    if n < 2 * k + 2:
        raise ValueError(
            f"need at least 2K+2 = {2 * k + 2} units for K={k} covariates, got {n}"
        )
    t_mean = float(t.mean())
    t_scale = float(t.std(ddof=1))
    if not t_scale > 0:
        raise ConstantColumn(dataset.treatment_name)
    G = np.empty((n, 2 * k + 1))
    G[:, 0] = (t - t_mean) / t_scale
    if k:
        x_scales = x.std(axis=0, ddof=1)
        for j, s in enumerate(x_scales):
            if not s > 0:
                raise ConstantColumn(dataset.covariate_names[j])
        x_std = G[:, 1 : k + 1]
        np.subtract(x, x.mean(axis=0), out=x_std)
        x_std /= x_scales
        np.multiply(G[:, :1], x_std, out=G[:, k + 1 :])
    G.setflags(write=False)
    return G


# Weighting methods, in the order the CLI lists them. "unweighted" is an alias
# of "uniform"; BalancingWeights carries only the canonical names.
METHODS = ("ebct", "ipw", "uniform")
_ALIASES = {"unweighted": "uniform"}


def method_name(method: str) -> str:
    """Canonical name of a weighting method: case-insensitive, aliases resolved."""
    name = method.lower()
    name = _ALIASES.get(name, name)
    if name not in METHODS:
        raise ValueError(f"unknown weighting method {method!r}")
    return name


@dataclass(frozen=True)
class BalancingWeights:
    """Normalized positive unit weights plus solver provenance.

    ``gamma`` holds the dual multipliers for entropy-balancing solutions and
    is empty for the other methods. The normalization multiplier is
    eliminated analytically and has no field.
    """

    weights: np.ndarray
    base_weights: np.ndarray
    gamma: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    method_tag: str

    def __post_init__(self):
        w = _frozen_array(np.ravel(self.weights))
        q = _frozen_array(np.ravel(self.base_weights))
        g = _frozen_array(np.ravel(self.gamma))
        if w.size != q.size:
            raise ValueError("weights and base_weights must have equal length")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if self.method_tag not in METHODS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "base_weights", q)
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def max_share(self) -> float:
        return float(self.weights.max())


def uniform_weights(n: int) -> BalancingWeights:
    """Uniform 1/n weights, tagged as the unweighted baseline."""
    w = np.full(n, 1.0 / n)
    return BalancingWeights(
        weights=w,
        base_weights=w,
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=0.0,
        method_tag="uniform",
    )
