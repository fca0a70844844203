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
from typing import Iterator, Optional

import numpy as np

from .errors import ConstantColumn, NonFiniteInput

_WEIGHT_SUM_TOL = 1e-12

# Sample rows a stacked layer (standardize, IPW, diagnostics) works on at
# once: it takes a stack of datasets in blocks of whole datasets, at most this
# many rows in all (one dataset when n is larger), so its temporaries stay a
# few blocks in size however many datasets the stack holds.
_BLOCK_ROWS = 2048


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array: itself when it is a read-only row of a
    read-only stack, as the solver and IPW hand over their results, so that
    nothing writes it; else a read-only copy."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        owner = values.base
        if isinstance(owner, np.ndarray) and owner.ndim == 2 and not owner.flags.writeable:
            return values
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


def sample_blocks(datasets) -> Iterator:
    """The blocks a stacked layer works through, for datasets that share n and K.

    Yields ``(block, t, x)`` per block of consecutive datasets, at most
    ``_BLOCK_ROWS`` sample rows in all (one dataset when n is larger):
    ``block`` slices the sequence, and ``t`` and ``x`` are the block's (b, n)
    treatments and (b, n, K) covariates, views of a lone dataset's own arrays
    and stacked copies otherwise. A caller that deletes ``t`` and ``x``
    before asking for the next block holds one block at a time.
    """
    span = max(1, _BLOCK_ROWS // datasets[0].n)
    for first in range(0, len(datasets), span):
        block = slice(first, first + span)
        part = datasets[block]
        if len(part) == 1:
            yield block, part[0].treatment[None], part[0].covariates[None]
        else:
            yield block, np.stack([d.treatment for d in part]), np.stack([d.covariates for d in part])


def check_counts(counts, n: int, positive: bool = False) -> tuple:
    """Validate copy counts of n units: the drawn rows and their counts.

    A bootstrap resample that draws unit i c_i times is a frequency-weighted
    problem on the units with c_i > 0. Returns ``(kept, copies)``: ``kept``
    selects their rows (a full slice when every unit is drawn, so the rows
    stay views) and ``copies`` their integer counts. No counts means one copy
    of each unit: a full slice and a zero-stride view of ones. ``positive``
    requires every count to be positive, for rows already restricted to the
    drawn units. Each method checks its own minimum on N = sum(copies).

    Raises:
        ValueError: ``counts`` is not a length-n vector of finite,
            non-negative integers (positive ones with ``positive``), or
            draws no unit.
    """
    if counts is None:
        # np.broadcast_to(np.int64(1), (n,)) at a fifth of its cost.
        return slice(None), np.ndarray((n,), np.int64, np.int64(1), strides=(0,))
    c = np.asarray(counts)
    if c.shape != (n,):
        raise ValueError(f"counts have shape {c.shape}, expected ({n},)")
    if c.dtype.kind not in "iu":
        if c.dtype.kind != "f" or not np.isfinite(c).all() or (c != np.trunc(c)).any():
            raise ValueError("counts must be finite integers")
        c = c.astype(np.int64)
    if c.min() < int(positive):
        raise ValueError("counts must be positive" if positive else "counts must be non-negative")
    if c.all():
        return slice(None), c
    kept = np.flatnonzero(c)
    if kept.size == 0:
        raise ValueError("counts must draw at least one unit")
    return kept, c[kept]


def standardize(dataset, counts=None) -> np.ndarray:
    """Balance columns of the standardized sample: the solver's input.

    Treatment and covariates are centered and scaled to unit sample variance
    (denominator n-1). The returned read-only n x (2K+1) matrix stacks, per
    unit, the standardized treatment, the K standardized covariates and their
    K products with the treatment, in the order [T, X1..XK, T*X1..T*XK].
    Zero weighted means of these columns are exactly the zero-correlation
    balance conditions.

    ``counts`` gives how often each unit of one dataset is drawn, as a
    bootstrap resample does; no counts means one copy of each unit. The
    matrix has a row for each unit with a positive count, in dataset order,
    and the centering and scaling are the count-weighted mean and standard
    deviation over the N = sum(counts) copies (denominator N-1): each row
    equals the rows that the resample itself, with its repeats, would give.

    ``dataset`` may also be a sequence of B datasets that share n and K. The
    result is then the read-only B x n x (2K+1) stack of their matrices,
    filled block by block (see ``sample_blocks``) so that the working memory
    beside it is one block's, each bit for bit the matrix its dataset gives
    alone.

    Raises:
        ValueError: fewer copies than dual parameters plus one (N < 2K+2;
            N = n without counts), which leaves the balance problem
            underdetermined, stacked datasets of different shapes,
            ``counts`` with a sequence, or invalid ``counts``.
        ConstantColumn: if the treatment or any covariate has zero variance;
            with a sequence, for the first dataset that has one.
    """
    single = isinstance(dataset, Dataset)
    datasets = [dataset] if single else list(dataset)
    n, k = datasets[0].n, datasets[0].k
    if any((d.n, d.k) != (n, k) for d in datasets):
        raise ValueError("stacked datasets must share n and K")
    if not single and counts is not None:
        raise ValueError("counts apply to one dataset, not to a sequence")
    kept, copies = check_counts(counts, n)
    # The summation: pairwise over the sample's own rows, or weighted by the copies.
    freq, size = (None, n) if counts is None else (copies.astype(float), int(copies.sum()))
    if size < 2 * k + 2:
        raise ValueError(f"need at least 2K+2 = {2 * k + 2} units for K={k} covariates, got {size}")
    G = np.empty((len(datasets), len(copies), 2 * k + 1))
    if single:
        # Views without counts: at large n a copy would raise the peak memory.
        t, x = dataset.treatment[kept][None], dataset.covariates[kept][None]
        _balance_columns(t, x, datasets, size, freq, G)
    else:
        for block, t, x in sample_blocks(datasets):
            _balance_columns(t, x, datasets[block], size, freq, G[block])
            del t, x  # before the next block is stacked
    G.setflags(write=False)
    return G[0] if single else G


def _balance_columns(t, x, datasets, size, freq, G) -> None:
    """Write into the (B, n, 2K+1) ``G`` the balance columns of a (B, n)
    treatment stack and a (B, n, K) covariate stack; ``datasets`` name a
    zero-variance column.

    ``freq`` (None: one copy each) are the n rows' copy counts, ``size`` in
    all, which weight every sum over the rows. The scales are
    ``std(ddof=1)``'s own arithmetic, with each deviation computed once, in
    place when ``x`` is writable (a stacked or gathered copy). Without
    counts the deviations are copied into the balance columns before they
    are squared in place, so no n x K temporary besides them is live, at any
    n or stack size. Resamples are small: they scale contiguous arrays,
    which is faster than scaling strided column slices, and copy them into
    ``G`` once.
    """
    k = x.shape[2]
    if freq is None:

        def total(a):
            return np.add.reduce(a, axis=1, keepdims=True)

    else:

        def total(a):
            # A matrix product: several times faster than weighting the
            # rows and reducing them.
            return (freq @ a if a.ndim == 3 else a @ freq)[:, None]

    t_dev = t - total(t) / size
    t_scale = np.sqrt(total(t_dev * t_dev) / (size - 1))
    dev = np.subtract(x, total(x) / size, out=x if x.flags.writeable else None)
    in_place = freq is None
    if in_place:
        x_std = G[:, :, 1 : k + 1]
        x_std[...] = dev
        dev *= dev
        x_scales = total(dev)
    else:
        x_std = dev
        x_scales = total(dev * dev)
    del dev
    x_scales /= size - 1
    np.sqrt(x_scales, out=x_scales)
    varies_t = t_scale[:, 0] > 0
    varies_x = x_scales[:, 0] > 0
    for b in np.flatnonzero(~(varies_t & varies_x.all(axis=1))):
        if not varies_t[b]:
            raise ConstantColumn(datasets[b].treatment_name)
        raise ConstantColumn(datasets[b].covariate_names[int(np.argmin(varies_x[b]))])
    x_std /= x_scales
    np.divide(t_dev, t_scale, out=G[:, :, 0])
    if not in_place:
        G[:, :, 1 : k + 1] = x_std
    np.multiply(G[:, :, :1], x_std, out=G[:, :, k + 1 :])


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
    is empty for the other methods. Truncated weights keep the untruncated
    solve's, the warm start of bootstrap replicates and of the capped solve.
    The normalization multiplier has no field: without a cap it is
    eliminated analytically, and with one it follows from gamma.
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
        # A minimum that is not above zero is zero, negative or NaN.
        if w.size and not w.min() > 0:
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


def uniform_weights(n: int, counts=None) -> BalancingWeights:
    """Uniform 1/n weights, tagged as the unweighted baseline; with ``counts``
    (see ``check_counts``), c_i / sum(counts) for each drawn unit i."""
    _, copies = check_counts(counts, n)
    return BalancingWeights(
        weights=copies / copies.sum(),
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=0.0,
        method_tag="uniform",
    )
