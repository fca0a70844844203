from dataclasses import replace

import numpy as np
import pytest

from ebct import Dataset, solve, standardize, truncate_and_rebalance
from ebct.data import uniform_weights
from ebct.errors import ConstantColumn, NotConverged


def balance_columns(t_std, x_std):
    """A hand-built solver input: [T, X, T*X] from already standardized columns.

    ``x_std`` is an n x K matrix (K may be 0); the column order is the one
    ``standardize`` returns.
    """
    t = np.asarray(t_std, dtype=float)[:, None]
    x = np.asarray(x_std, dtype=float)
    return np.column_stack([t, x, t * x])


def random_dataset(rng, n, k, outcome=False):
    """A generic solvable instance: smooth covariates, mildly selected treatment."""
    x = rng.standard_normal((n, k))
    t = x @ rng.uniform(0.2, 0.8, size=k) + rng.standard_normal(n)
    y = t + x.sum(axis=1) + rng.standard_normal(n) if outcome else None
    return Dataset(treatment=t, covariates=x, outcome=y)


def batch(datasets, column_names=()):
    """One Dataset holding the samples of ``datasets``, which share n and K,
    as a batch under the first one's labels unless ``column_names`` are
    given."""
    first = datasets[0]
    outcome = None if first.outcome is None else np.stack([d.outcome for d in datasets])
    return Dataset(
        treatment=np.stack([d.treatment for d in datasets]),
        covariates=np.stack([d.covariates for d in datasets]),
        outcome=outcome,
        column_names=column_names or first.column_names,
    )


def weighting(w, method_tag="uniform"):
    """Positive weights ``w``, one vector or B x n rows, as a
    ``BalancingWeights`` tagged ``method_tag``, each row divided by its sum."""
    w = np.asarray(w, dtype=float)
    normalized = w / w.sum(axis=-1, keepdims=True)
    return replace(uniform_weights(w.shape[-1]), weights=normalized, method_tag=method_tag)


def repeated_rows(ds, indices):
    """A bootstrap resample's EBCT matrix, built the long way: the full
    sample's standardized rows, one per drawn copy, centred at the target
    row tau (the copies' means of the treatment and covariate columns, and
    tau_T tau_X for each product). Raises ConstantColumn, naming the column,
    when the copies share one value of the treatment or of a covariate."""
    rows = standardize(ds)[np.asarray(indices)]
    m = rows.shape[1]
    single = np.ptp(rows[:, : m // 2 + 1], axis=0) == 0
    if single.any():
        raise ConstantColumn(ds.column_names[int(np.flatnonzero(single)[0])])
    tau = rows[:, : m // 2 + 1].mean(axis=0)
    return rows - np.r_[tau, tau[0] * tau[1:]]


def repeated_ebct(ds, indices, truncation=None, start=None):
    """EBCT weights of a resample from ``repeated_rows``: one weight per
    drawn copy, the solve started at ``start``, then truncated as
    ``estimate_weights`` truncates, a solve that stops short included."""
    G = repeated_rows(ds, indices)
    try:
        weights, _ = solve(G, start=start)
    except NotConverged as err:
        if truncation is None:
            raise
        weights = err.weights
    if truncation is not None:
        weights = truncate_and_rebalance(G, weights, truncation)
    return weights


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
