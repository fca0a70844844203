"""Core data model: datasets, the balance-column matrix and balancing weights.

``standardize`` turns a dataset into the matrix of balance columns: per unit,
the treatment, the covariates and their cross-products, all on the
standardized scale. Zero weighted means of these columns are exactly the
zero-correlation balance conditions the solver enforces. The weighting-method
names are registered here once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConstantColumn, NonFiniteInput

_WEIGHT_SUM_TOL = 1e-12

# Sample rows a stacked layer (standardize, IPW, diagnostics) works on at
# once: it takes a stack of datasets in blocks of whole datasets, at most this
# many rows in all (one dataset when n is larger), so its temporaries stay a
# few blocks in size however many datasets the stack holds.
_BLOCK_ROWS = 2048


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only contiguous array: itself when it and the
    array that owns its memory are read-only, as the solver, IPW and the
    simulation's group draws hand over their results, so that nothing writes
    it; else a read-only C-order copy, whatever the layout of ``values``."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.c_contiguous:
        owner = values if values.base is None else values.base
        if isinstance(owner, np.ndarray) and not (owner.flags.writeable or values.flags.writeable):
            return values
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """An observed sample: treatment intensity, covariates, optional outcome.

    A batch of B samples that share n, K and labels is one Dataset too:
    B x n x K covariates, with a B x n treatment and outcome, which
    ``standardize``, ``estimate_weights`` and ``balance_report`` take in one
    pass. Arrays are kept read-only, without a copy when they and the array
    that owns their memory are read-only already.

    Attributes:
        treatment: length-n vector of treatment intensities (arbitrary units).
        covariates: n x K matrix of numeric covariates.
        outcome: optional length-n outcome vector.
        column_names: K+2 labels (treatment, covariates..., outcome), unique
            among the columns the dataset holds.
        unit_ids: n opaque identifiers, preserved through every pipeline stage
            so weights can be joined back to input rows. A ``range`` is kept
            as given and a numpy array is kept read-only, copied unless it
            is read-only and owns its data: ``read_csv`` gives a read-only
            ``StringDType`` array, or ``range(1, n + 1)`` for a file without
            an ``id`` column. Any other iterable becomes a tuple, and none
            (or an empty one) means ``range(n)``.
    """

    treatment: np.ndarray
    covariates: np.ndarray
    outcome: Optional[np.ndarray] = None
    column_names: tuple = ()
    unit_ids: Sequence = ()

    def __post_init__(self):
        batched = np.ndim(self.covariates) == 3
        t = _frozen_array(self.treatment if batched else np.ravel(self.treatment))
        x = np.asarray(self.covariates, dtype=float)
        if x.size == 0:
            x = np.empty(t.shape + (0,))
        elif x.ndim == 1:  # K=1
            x = x.reshape(-1, 1)
        x = _frozen_array(x)
        n, k = t.shape[-1], x.shape[-1]
        if x.shape[:-1] != t.shape:
            raise ValueError(f"covariates have shape {x.shape}, expected {t.shape} by K")
        if n < 2:
            raise ValueError("at least two units are required")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(x)):
            raise NonFiniteInput("treatment or covariates contain non-finite entries")

        y = self.outcome
        if y is not None:
            y = _frozen_array(y if batched else np.ravel(y))
            if y.shape != t.shape:
                raise ValueError(f"outcome has shape {y.shape}, expected {t.shape}")
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

        ids = self.unit_ids
        if isinstance(ids, np.ndarray):
            # Kept only when nothing else can write it: read-only and owning
            # its data, as read_csv and subset give it; else a read-only copy.
            if ids.flags.writeable or ids.base is not None:
                ids = ids.copy()
                ids.setflags(write=False)
        elif not isinstance(ids, range):
            ids = tuple(ids)
        if len(ids) == 0:
            ids = range(n)
        if len(ids) != n:
            raise ValueError(f"expected {n} unit ids, got {len(ids)}")

        object.__setattr__(self, "treatment", t)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "unit_ids", ids)

    @property
    def n(self) -> int:
        return self.treatment.shape[-1]

    @property
    def k(self) -> int:
        return self.covariates.shape[-1]

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
        ids = self.unit_ids
        if isinstance(ids, np.ndarray):
            ids = ids[idx]
            ids.setflags(write=False)
        else:
            ids = operator.itemgetter(*idx.tolist())(ids)
        return Dataset(
            treatment=self.treatment[idx],
            covariates=self.covariates[idx],
            outcome=None if self.outcome is None else self.outcome[idx],
            column_names=self.column_names,
            unit_ids=ids,
        )


def sample_blocks(dataset, kept=slice(None)) -> Iterator:
    """The blocks of a dataset's samples that a stacked layer works through.

    A lone sample is a stack of one. A batch (see ``Dataset``) is taken in
    blocks of consecutive samples, at most ``_BLOCK_ROWS`` sample rows in
    all (one sample when n is larger). Yields ``(block, t, x)`` per block:
    ``block`` slices the batch, and ``t`` and ``x`` are the block's (b, m)
    treatments and (b, m, K) covariates on the rows ``kept`` selects, views
    of the dataset's own read-only arrays unless ``kept`` is an index array.
    """
    if isinstance(kept, slice):
        t, x = dataset.treatment[..., kept], dataset.covariates[..., kept, :]
    else:  # take gathers rows at half the cost of fancy indexing
        t, x = dataset.treatment.take(kept, axis=-1), dataset.covariates.take(kept, axis=-2)
    t = t.reshape(-1, t.shape[-1])
    x = x.reshape(t.shape + x.shape[-1:])
    span = max(1, _BLOCK_ROWS // dataset.n)
    for first in range(0, len(t), span):
        block = slice(first, first + span)
        yield block, t[block], x[block]


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
    if np.minimum.reduce(c) < int(positive):
        raise ValueError("counts must be positive" if positive else "counts must be non-negative")
    kept = c.nonzero()[0]
    if kept.size == n:
        return slice(None), c
    if kept.size == 0:
        raise ValueError("counts must draw at least one unit")
    return kept, c.take(kept)


def standardize(dataset) -> np.ndarray:
    """Balance columns of the standardized sample: the solver's input.

    Treatment and covariates are centered and scaled to unit sample variance
    (denominator n-1). The returned read-only n x (2K+1) matrix stacks, per
    unit, the standardized treatment, the K standardized covariates and their
    K products with the treatment, in the order [T, X1..XK, T*X1..T*XK].
    Zero weighted means of these columns are exactly the zero-correlation
    balance conditions. A bootstrap resample's matrix is made from this one
    (see ``resample``).

    ``dataset`` may also be a batch of B samples (see ``Dataset``). The
    result is then the read-only B x n x (2K+1) stack of their matrices,
    filled block by block (see ``sample_blocks``) so that the working memory
    beside it is one block's, each bit for bit the matrix its sample gives
    alone.

    Raises:
        ValueError: fewer units than dual parameters plus one (n < 2K+2),
            which leaves the balance problem underdetermined.
        ConstantColumn: if the treatment or any covariate has zero variance;
            with a batch, for the first sample that has one.
    """
    n, k = dataset.n, dataset.k
    if n < 2 * k + 2:
        raise ValueError(f"need at least 2K+2 = {2 * k + 2} units for K={k} covariates, got {n}")
    G = np.empty(dataset.treatment.shape + (2 * k + 1,))
    stack = G.reshape((-1,) + G.shape[-2:])
    for block, t, x in sample_blocks(dataset):
        _balance_columns(t, x, dataset, stack[block])
    G.setflags(write=False)
    return G


def _balance_columns(t, x, dataset, G) -> None:
    """Write into the (B, n, 2K+1) ``G`` the balance columns of a (B, n)
    treatment stack and a (B, n, K) covariate stack; ``dataset``'s labels
    name a zero-variance column.

    The scales are ``std(ddof=1)``'s own arithmetic, with each deviation
    computed once. The deviations are written straight into G's covariate
    columns and squared into its product columns, which are filled last, so
    no temporary of the covariates' size is live, at any n or stack size.
    Every step that writes G's strided columns goes one column and one row
    block at a time (see ``_column_blocks``).
    """
    _, n, k = x.shape

    def total(a):
        return np.add.reduce(a, axis=1, keepdims=True)

    t_dev = t - total(t) / n
    t_scale = np.sqrt(total(t_dev * t_dev) / (n - 1))
    x_mean = total(x) / n
    x_std, products = G[:, :, 1 : k + 1], G[:, :, k + 1 :]
    for rows, j in _column_blocks(n, k):
        column = x_std[:, rows, j]
        np.subtract(x[:, rows, j], x_mean[:, :, j], out=column)
        np.multiply(column, column, out=products[:, rows, j])
    x_scales = total(products)
    x_scales /= n - 1
    np.sqrt(x_scales, out=x_scales)
    varies_t = t_scale[:, 0] > 0
    varies_x = x_scales[:, 0] > 0
    for b in np.flatnonzero(~(varies_t & varies_x.all(axis=1))):
        if not varies_t[b]:
            raise ConstantColumn(dataset.treatment_name)
        raise ConstantColumn(dataset.covariate_names[int(np.argmin(varies_x[b]))])
    t_dev /= t_scale
    G[:, :, 0] = t_dev
    for rows, j in _column_blocks(n, k):
        column = x_std[:, rows, j]
        column /= x_scales[:, :, j]
        np.multiply(t_dev[:, rows], column, out=products[:, rows, j])


def resample(Z, counts, names) -> tuple:
    """The balance matrix of a bootstrap resample, from its full sample's.

    ``Z`` is the n x (2K+1) matrix ``standardize`` gives for a dataset and
    ``counts`` how often a resample draws each unit (see ``check_counts``).
    Standardizing is affine, so the resample's own balance conditions are
    zero weighted means of Z's columns less a target row tau: the
    count-weighted means tau_T and tau_X of Z's treatment and covariate
    columns, and tau_T tau_X for their products, since given the first
    conditions sum w (z_T - tau_T)(z_X - tau_X) = sum w z_T z_X - tau_T tau_X.
    Both matrices set one constraint set, so their solves reach one optimum
    within the solver tolerance.

    Returns ``(kept, copies, G)``: the drawn rows and their counts, as
    ``check_counts`` gives them, and the read-only matrix of Z's drawn rows
    less tau, the resample's EBCT problem with ``copies`` as base weights.

    Raises:
        ValueError: ``Z`` is a batch's stack, ``counts`` are invalid, or
            they are fewer than 2K+2 copies.
        ConstantColumn: the drawn units share one value of the treatment or
            of a covariate, named by ``names`` (the dataset's column names).
            Equal values standardize to equal entries of Z, so this is
            decided exactly on the drawn rows.
    """
    if Z.ndim != 2:
        raise ValueError("counts apply to one dataset's n x m matrix, not to a batch")
    n, m = Z.shape
    k = m // 2
    kept, copies = check_counts(counts, n)
    size = int(np.add.reduce(copies))
    if size < 2 * k + 2:
        raise ValueError(f"need at least 2K+2 = {2 * k + 2} units for K={k} covariates, got {size}")
    # take gathers rows at half the cost of fancy indexing
    G = Z.copy() if isinstance(kept, slice) else Z.take(kept, axis=0)
    drawn = G[:, : k + 1]
    # A column whose first and last drawn rows differ varies; only the
    # others are compared row by row.
    for j in (drawn[0] == drawn[-1]).nonzero()[0].tolist():
        if np.logical_and.reduce(drawn[:, j] == drawn[0, j]):
            raise ConstantColumn(names[j])
    tau = (copies @ drawn) / size
    G -= np.concatenate((tau, tau[0] * tau[1:]))
    G.setflags(write=False)
    return kept, copies, G


def _column_blocks(n: int, k: int):
    """``(rows, j)`` for each of k strided columns of a stack of n-row
    matrices, in blocks of ``_BLOCK_ROWS`` rows.

    numpy buffers a ufunc over several strided columns of one array at once,
    with buffers larger than a small stack's covariates; over one column it
    runs a plain strided loop, and one block of rows keeps the columns it
    visits in cache.
    """
    row_blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]
    return itertools.product(row_blocks, range(k))


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

    A stack of B weightings, as every batch weighting returns it, is one
    too: (B, n) weights, (B, m) gamma and (B,) ``iterations`` and
    ``final_gradient_norm``, where a scalar of either and a 1-d gamma
    broadcast over the rows. Arrays are kept read-only, as ``Dataset`` keeps
    them.
    """

    weights: np.ndarray
    gamma: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    method_tag: str

    def __post_init__(self):
        w, g = _frozen_array(self.weights), _frozen_array(self.gamma)
        # A minimum that is not above zero is zero, negative or NaN.
        if w.size and not np.minimum.reduce(w, axis=None) > 0:
            raise ValueError("weights must be strictly positive")
        total = np.add.reduce(w, axis=-1)
        # A lone weighting's total is a numpy scalar, whose comparison is the
        # verdict itself: only a stack's totals need a reduction.
        off = abs(total - 1.0) > _WEIGHT_SUM_TOL
        if w.ndim > 1:
            off = np.logical_or.reduce(off, axis=None)
        if off:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if self.method_tag not in METHODS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        if w.ndim == 2:
            g = _frozen_array(np.broadcast_to(g, w.shape[:1] + g.shape[-1:]))
            iterations = np.broadcast_to(self.iterations, w.shape[:1])
            object.__setattr__(self, "iterations", _frozen_array(iterations, np.int64))
            norms = np.broadcast_to(self.final_gradient_norm, w.shape[:1])
            object.__setattr__(self, "final_gradient_norm", _frozen_array(norms))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "gamma", g)

    def row(self, b: int) -> "BalancingWeights":
        """The weighting of problem b of a stack; its arrays are views."""
        return replace(
            self, weights=self.weights[b], gamma=self.gamma[b], iterations=int(self.iterations[b]),
            final_gradient_norm=float(self.final_gradient_norm[b]),
        )

    @property
    def n(self) -> int:
        return self.weights.shape[-1]

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
