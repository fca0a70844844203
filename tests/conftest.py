import numpy as np
import pytest

from ebct import Dataset


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
