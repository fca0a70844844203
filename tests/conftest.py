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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
