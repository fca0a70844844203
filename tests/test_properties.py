"""Property tests of the standardize -> balance columns -> solve path.

Each example draws a fresh dataset from a seed; the strategies vary the size,
the covariate count, the selection strength and the affine maps. Examples are
derandomized so every run checks the same cases.
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebct import Dataset, balance_report, solve, solver, standardize
from ebct.errors import EbctError

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Two solves of the same problem reach the gradient tolerance along different
# float paths; their weights agree far below this.
WEIGHT_ATOL = 1e-9

scales = st.one_of(st.floats(-1e3, -1e-2), st.floats(1e-2, 1e3))
shifts = st.floats(-1e3, 1e3)


@st.composite
def datasets(draw):
    """A selected sample: skewed and symmetric covariates, tunable selection."""
    n = draw(st.integers(20, 80))
    k = draw(st.integers(1, 3))
    strength = draw(st.floats(0.0, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.column_stack(
        [rng.exponential(1.0, n) if j % 2 else rng.standard_normal(n) for j in range(k)]
    )
    t = strength * x.sum(axis=1) + rng.standard_normal(n)
    return Dataset(treatment=t, covariates=x)


def ebct_weights(dataset):
    """Weights of a solvable instance; an unsolvable one is not an example."""
    try:
        weights, _ = solve(standardize(dataset))
    except EbctError:
        assume(False)
    return weights.weights


@PROPERTY
@given(datasets(), st.data())
def test_weights_invariant_to_affine_rescaling(dataset, data):
    k = dataset.k
    t_map = data.draw(st.tuples(shifts, scales))
    x_maps = data.draw(st.lists(st.tuples(shifts, scales), min_size=k, max_size=k))
    shift = np.array([a for a, _ in x_maps])
    scale = np.array([b for _, b in x_maps])
    rescaled = Dataset(
        treatment=t_map[0] + t_map[1] * dataset.treatment,
        covariates=shift + scale * dataset.covariates,
    )
    base = ebct_weights(dataset)
    weights, _ = solve(standardize(rescaled))
    npt.assert_allclose(weights.weights, base, rtol=0, atol=WEIGHT_ATOL)


@PROPERTY
@given(datasets(), st.randoms(use_true_random=False))
def test_weights_follow_row_permutation(dataset, random):
    perm = np.array(random.sample(range(dataset.n), dataset.n))
    shuffled = Dataset(treatment=dataset.treatment[perm], covariates=dataset.covariates[perm])
    base = ebct_weights(dataset)
    weights, _ = solve(standardize(shuffled))
    npt.assert_allclose(weights.weights, base[perm], rtol=0, atol=WEIGHT_ATOL)


@PROPERTY
@given(datasets())
def test_returned_weights_balance_every_column(dataset):
    tolerance = solver._GRADIENT_TOLERANCE
    G = standardize(dataset)
    try:
        weights, _ = solve(G)
    except EbctError:
        return
    assert weights.converged
    assert np.abs(G.T @ weights.weights).max() <= tolerance
    assert balance_report(weights, dataset).max_abs_correlation <= 1e-6


@PROPERTY
@given(datasets(), st.data())
def test_start_changes_steps_not_weights(dataset, data):
    # Two converged solves' weights differ by about the gradient tolerance
    # (up to 7.5e-9 at n=20 and the default 1e-8), so a tighter tolerance
    # makes the 1e-10 comparison meaningful.
    tolerance = 1e-11
    G = standardize(dataset)
    m = G.shape[1]
    start = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    with mock.patch.object(solver, "_GRADIENT_TOLERANCE", tolerance):
        try:
            base, _ = solve(G)
        except EbctError:
            assume(False)
        weights, _ = solve(G, start=start)
    for r in (base, weights):
        assert r.converged and r.final_gradient_norm <= tolerance
    npt.assert_allclose(weights.weights, base.weights, rtol=0, atol=1e-10)


@PROPERTY
@given(datasets(), st.data())
def test_duplicated_row_acts_as_doubled_base_weight(dataset, data):
    # A bootstrap resample that draws a unit twice rests on this identity.
    G = standardize(dataset)
    n = G.shape[0]
    k = data.draw(st.integers(0, n - 1))
    doubled = np.ones(n)
    doubled[k] = 2.0
    try:
        expected, _ = solve(G, base_weights=doubled)
    except EbctError:
        assume(False)
    weights, _ = solve(np.vstack([G, G[k]]))
    w = weights.weights
    assert w[k] == w[n]
    merged = w[:n].copy()
    merged[k] += w[n]
    npt.assert_allclose(merged, expected.weights, rtol=0, atol=WEIGHT_ATOL)
