"""Core data model: datasets, the balance-column matrix and balancing weights.

``standardize`` turns a dataset into the matrix of balance columns: per unit,
the treatment, the covariates and their cross-products, all on the
standardized scale. Zero weighted means of these columns are exactly the
zero-correlation balance conditions the solver enforces. The weighting-method
names are registered here once.
"""

from __future__ import annotations

import operator
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
        column_names: K+2 labels (treatment, covariates..., outcome), unique
            among the columns the dataset holds.
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
        # The outcome's name is only a placeholder when there is no outcome.
        held = names if y is not None else names[:-1]
        if len(set(held)) != len(held):
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

    def subset(self, indices) -> "Dataset":
        """New Dataset keeping the rows in ``indices`` (repeats allowed)."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-d sequence")
        if idx.size < 2:
            raise ValueError("at least two units are required")
        return Dataset(
            treatment=self.treatment[idx],
            covariates=self.covariates[idx],
            outcome=None if self.outcome is None else self.outcome[idx],
            column_names=self.column_names,
            unit_ids=operator.itemgetter(*idx.tolist())(self.unit_ids),
        )


def standardize(dataset) -> np.ndarray:
    """Balance columns of the standardized sample: the solver's input.

    Treatment and covariates are centered and scaled to unit sample variance
    (denominator n-1). The returned read-only n x (2K+1) matrix stacks, per
    unit, the standardized treatment, the K standardized covariates and their
    K products with the treatment, in the order [T, X1..XK, T*X1..T*XK].
    Zero weighted means of these columns are exactly the zero-correlation
    balance conditions.

    ``dataset`` may also be a sequence of B datasets that share n and K. The
    result is then the read-only B x n x (2K+1) stack of their matrices from
    one pass, each bit for bit the matrix its dataset gives alone.

    Raises:
        ValueError: fewer units than dual parameters plus one (n < 2K+2),
            which leaves the balance problem underdetermined, or stacked
            datasets of different shapes.
        ConstantColumn: if the treatment or any covariate has zero variance;
            with a sequence, for the first dataset that has one.
    """
    single = isinstance(dataset, Dataset)
    datasets = [dataset] if single else list(dataset)
    n, k = datasets[0].n, datasets[0].k
    if any((d.n, d.k) != (n, k) for d in datasets):
        raise ValueError("stacked datasets must share n and K")
    if n < 2 * k + 2:
        raise ValueError(
            f"need at least 2K+2 = {2 * k + 2} units for K={k} covariates, got {n}"
        )
    if single:
        # Views, not copies: at large n a copy of the covariates would raise
        # the peak memory of a one-dataset call.
        t, x = dataset.treatment[None], dataset.covariates[None]
    else:
        t = np.stack([d.treatment for d in datasets])
        x = np.stack([d.covariates for d in datasets])
    G = _balance_columns(t, x, datasets)
    return G[0] if single else G


def _balance_columns(t, x, datasets) -> np.ndarray:
    """The (B, n, 2K+1) balance columns of a (B, n) treatment stack and a
    (B, n, K) covariate stack; ``datasets`` name a zero-variance column.

    The scales are ``std(ddof=1)``'s own arithmetic, with each deviation
    computed once: it is copied into the balance columns before it is
    squared in place, so no n x K temporary besides it is live.
    """
    B, n, k = x.shape
    G = np.empty((B, n, 2 * k + 1))
    t_dev = t - t.mean(axis=1, keepdims=True)
    t_scale = np.sqrt(np.add.reduce(t_dev * t_dev, axis=1, keepdims=True) / (n - 1))
    x_std = G[:, :, 1 : k + 1]
    dev = x - x.mean(axis=1, keepdims=True)
    x_std[...] = dev
    dev *= dev
    x_scales = np.add.reduce(dev, axis=1, keepdims=True)
    del dev
    x_scales /= n - 1
    np.sqrt(x_scales, out=x_scales)
    varies_t = t_scale[:, 0] > 0
    varies_x = x_scales[:, 0] > 0
    for b in np.flatnonzero(~(varies_t & varies_x.all(axis=1))):
        if not varies_t[b]:
            raise ConstantColumn(datasets[b].treatment_name)
        raise ConstantColumn(datasets[b].covariate_names[int(np.argmin(varies_x[b]))])
    np.divide(t_dev, t_scale, out=G[:, :, 0])
    x_std /= x_scales
    np.multiply(G[:, :, :1], x_std, out=G[:, :, k + 1 :])
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
    is empty for the other methods; truncated weights keep the untruncated
    solve's, since a round's multipliers refer to capped base weights. The
    normalization multiplier is eliminated analytically and has no field.
    """

    weights: np.ndarray
    gamma: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    method_tag: str

    def __post_init__(self):
        w = _frozen_array(np.ravel(self.weights))
        g = _frozen_array(np.ravel(self.gamma))
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if self.method_tag not in METHODS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def max_share(self) -> float:
        return float(self.weights.max())


def uniform_weights(n: int) -> BalancingWeights:
    """Uniform 1/n weights, tagged as the unweighted baseline."""
    return BalancingWeights(
        weights=np.full(n, 1.0 / n),
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=0.0,
        method_tag="uniform",
    )
