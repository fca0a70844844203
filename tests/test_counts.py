"""Bootstrap resamples as frequency-weighted problems on the drawn units.

A resample that draws unit i c_i times is the same problem as its n rows
with repeats. The oracle builds those rows: ``Dataset.subset`` for IPW and
uniform weights, and for EBCT the full sample's standardized rows repeated
per copy and centred at the resample's target row (``repeated_rows``). Each
counts path must give, per drawn unit, what the resample gives summed over
that unit's copies, up to the order in which floats are summed. That EBCT
matrix and the resample's own standardized one set the same constraints,
so their weights agree within the solver tolerance (``TestAffineInvariance``).
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import ebct.drf as drf
from ebct import Dataset, bootstrap_se, estimate_drf, estimate_weights, solve, standardize
from ebct import solver, truncate_and_rebalance
from ebct.drf import default_grid
from ebct.errors import (
    ConstantColumn,
    EbctError,
    ExtrapolationWarning,
    RankDeficientDesign,
    ThresholdInfeasible,
)
from ebct.ipw import ipw_weights
from ebct.data import check_counts, resample, uniform_weights
from ebct.simulation import gen_covariates, gen_outcome, gen_treatment, replication_rng
from ebct.weighting import cap_weights, counted_ebct
from conftest import batch, repeated_ebct, repeated_rows
from test_solver import assert_certifies


def drf_dataset(n=120):
    rng = replication_rng(77, 3)
    x = gen_covariates(n, rng)
    t = gen_treatment(x, 4.0, rng)
    y = gen_outcome(x, t, 1.0, rng)
    return Dataset(treatment=t, covariates=x, outcome=y)


def draw(n, attempt, seed=13):
    """The indices ``bootstrap_statistic`` draws at this attempt."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
    return rng.integers(0, n, size=n)


def outcome(call, *args, **kwargs):
    """The result of ``call``, or the class of the pipeline error it raises."""
    try:
        return call(*args, **kwargs)
    except EbctError as err:
        return type(err)


def counted(ds, counts):
    """The counted standardization: a resample's matrix from the full sample's."""
    return resample(standardize(ds), counts, ds.column_names)[2]


def per_unit(indices, copy_weights, n):
    """The resample's weights summed over each drawn unit's copies."""
    counts = np.bincount(indices, minlength=n)
    return np.bincount(indices, weights=copy_weights, minlength=n)[counts > 0]


class TestStandardize:

    @pytest.mark.parametrize("attempt", range(5))
    def test_rows_match_the_resample(self, attempt):
        ds = drf_dataset()
        indices = draw(ds.n, attempt)
        counts = np.bincount(indices, minlength=ds.n)
        assert counts.max() > 1
        # Sorted indices put the copies of each unit together, in dataset
        # order; the first copy of each is its row.
        ordered = np.sort(indices)
        _, first = np.unique(ordered, return_index=True)
        expected = repeated_rows(ds, ordered)[first]
        G = counted(ds, counts)
        assert G.shape == (np.count_nonzero(counts), 2 * ds.k + 1)
        assert not G.flags.writeable
        npt.assert_allclose(G, expected, rtol=0, atol=1e-13)

    def test_one_copy_each_is_the_sample(self):
        ds = drf_dataset()
        npt.assert_allclose(counted(ds, np.ones(ds.n, dtype=int)), standardize(ds), atol=1e-14)

    def test_counts_need_one_dataset(self):
        ds = drf_dataset()
        with pytest.raises(ValueError, match="one dataset"):
            counted(batch([ds, ds]), np.ones(ds.n, dtype=int))


class TestEstimateWeights:

    @pytest.mark.parametrize(
        "method, truncation",
        [("ebct", None), ("ebct", 0.03), ("ipw", None), ("ipw", 0.02), ("uniform", None)],
    )
    def test_weights_are_the_resample_summed_per_unit(self, method, truncation):
        ds = drf_dataset()
        full = estimate_weights(ds, method)
        binding = 0
        for attempt in range(8):
            indices = draw(ds.n, attempt)
            counts = np.bincount(indices, minlength=ds.n)
            if method == "ebct":
                expected = outcome(repeated_ebct, ds, indices, truncation, full.gamma)
                got = outcome(lambda: counted_ebct(ds, truncation, full.gamma)(counts)[1])
            else:
                expected = outcome(estimate_weights, ds.subset(indices), method, truncation)
                got = outcome(estimate_weights, ds, method, truncation, counts=counts)
            if isinstance(expected, type):
                # A cap too tight for this draw fails both ways alike.
                assert got is expected
                continue
            npt.assert_allclose(
                got.weights, per_unit(indices, expected.weights, ds.n), rtol=1e-12, atol=0
            )
            assert got.method_tag == expected.method_tag
            assert got.converged == expected.converged
            if truncation is not None:
                untruncated = (
                    repeated_ebct(ds, indices, None, full.gamma) if method == "ebct"
                    else estimate_weights(ds.subset(indices), method)
                )
                binding += untruncated.max_share > truncation
                per_copy = got.weights / counts[counts > 0]
                assert per_copy.max() <= truncation + 1e-10
        # The cap must bind on some draws, or the per-copy rule goes untested.
        assert truncation is None or binding > 0

    def test_ipw_matches_the_resample_directly(self):
        ds = drf_dataset()
        indices = draw(ds.n, 0)
        counts = np.bincount(indices, minlength=ds.n)
        npt.assert_allclose(
            ipw_weights(ds, counts).weights,
            per_unit(indices, ipw_weights(ds.subset(indices)).weights, ds.n),
            rtol=1e-12,
            atol=0,
        )

    def test_truncation_rounds_match_the_resample(self):
        ds = drf_dataset()
        # This draw's largest weight share is 0.051, above the cap of 0.04,
        # so one capped solve re-balances it from the untruncated multipliers.
        indices = draw(ds.n, 5)
        counts = np.bincount(indices, minlength=ds.n)
        kept = counts[counts > 0]
        G_sample = repeated_rows(ds, indices)
        sample_weights, _ = solve(G_sample)
        G = counted(ds, counts)
        weights, _ = solve(G, base_weights=kept)
        threshold = 0.04
        assert sample_weights.max_share > threshold
        expected = truncate_and_rebalance(G_sample, sample_weights, threshold)
        got = truncate_and_rebalance(G, weights, threshold, kept)
        npt.assert_allclose(
            got.weights, per_unit(indices, expected.weights, ds.n), rtol=1e-12, atol=0
        )
        assert got.iterations > weights.iterations


def weight_error_bound(G, w):
    """How far, in log weight, a solve that stopped at the gradient tolerance
    can be from the optimum of its problem, to first order.

    The stopping gradient g = G'w has infinity norm at most tol, so its
    2-norm is at most sqrt(m) tol; the multipliers are then off by
    delta = H^-1 g, for H the weighted covariance of the rows, and
    log w_i by G_i . delta - g . delta.
    """
    m = G.shape[1]
    centred = G - w @ G
    hessian = (centred * w[:, None]).T @ centred
    gradient_norm = np.sqrt(m) * solver._GRADIENT_TOLERANCE
    step = gradient_norm / np.linalg.eigvalsh(hessian)[0]
    return (np.linalg.norm(G, axis=1).max() + gradient_norm) * step


class TestAffineInvariance:
    """A resample's counted EBCT matrix, the full sample's rows centred at
    the resample's target row, sets the same constraints as the resample's
    own standardization, and so gives the same weights up to the solver
    tolerance."""

    @pytest.mark.parametrize("attempt", range(4))
    def test_same_constraints_and_weights_as_the_resample(self, attempt):
        ds = drf_dataset()
        full = estimate_weights(ds, "ebct")
        indices = draw(ds.n, attempt)
        counts = np.bincount(indices, minlength=ds.n)
        kept, _, G = resample(standardize(ds), counts, ds.column_names)
        # One row per copy, in the resample's order.
        counted_rows = G[np.searchsorted(kept, indices)]
        own = standardize(ds.subset(indices))
        # Each matrix is the other times an m x m map, with no intercept:
        # the same weighted means vanish for both.
        for a, b in [(own, counted_rows), (counted_rows, own)]:
            mapping = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.abs(a @ mapping - b).max() <= 1e-12
        got = counted_ebct(ds, None, full.gamma)(counts)[1]
        expected, _ = solve(own, start=full.gamma)
        # Both solves are within their bound of the one optimum. The bounds
        # are 1.6e-5 to 4.5e-4 on these draws, and the weights differ by at
        # most 2.6e-8 relative.
        bound = weight_error_bound(G, got.weights) + weight_error_bound(own, expected.weights)
        assert bound < 1e-3
        error = np.abs(np.log(got.weights) - np.log(per_unit(indices, expected.weights, ds.n)))
        assert error.max() <= bound


class TestOneCopyEach:
    """All-ones counts are no counts, bit for bit: one body serves both.

    EBCT is left out: a counted matrix is centred at its target row, the
    copies' means of the full sample's columns, which are zero only up to
    rounding.
    """

    def test_no_counts_are_a_view_of_one(self):
        kept, ones = check_counts(None, 100_000)
        assert kept == slice(None)
        assert ones.strides == (0,) and not ones.flags.writeable
        assert np.array_equal(ones, np.ones(100_000, dtype=np.int64))

    def assert_same(self, got, expected):
        assert np.array_equal(got.weights, expected.weights)
        assert got.iterations == expected.iterations
        assert got.converged == expected.converged

    def test_cap_weights(self):
        ds = drf_dataset()
        weights = ipw_weights(ds)
        threshold = 0.02
        assert weights.max_share > threshold
        ones = np.ones(ds.n, dtype=int)
        self.assert_same(
            cap_weights(weights, threshold, ones), cap_weights(weights, threshold)
        )

    def test_truncate_and_rebalance(self):
        ds = drf_dataset()
        G = standardize(ds)
        weights, _ = solve(G)
        threshold = 0.03
        assert weights.max_share > threshold
        got = truncate_and_rebalance(G, weights, threshold, np.ones(ds.n, dtype=int))
        expected = truncate_and_rebalance(G, weights, threshold)
        assert expected.iterations > weights.iterations
        self.assert_same(got, expected)

    def test_ipw_weights(self):
        ds = drf_dataset()
        self.assert_same(ipw_weights(ds, np.ones(ds.n, dtype=int)), ipw_weights(ds))

    def test_uniform_estimate_weights(self):
        ds = drf_dataset()
        threshold = 1.0 / (ds.n - 20)
        got = estimate_weights(ds, "uniform", truncation=threshold, counts=np.ones(ds.n))
        self.assert_same(got, estimate_weights(ds, "uniform", truncation=threshold))
        assert np.array_equal(got.weights, np.full(ds.n, 1.0 / ds.n))


def rare_binary_dataset():
    """n=30 with a binary covariate that only two units have; about one
    resample in eight draws neither, which leaves the covariate constant."""
    rng = np.random.default_rng(5)
    n = 30
    x = np.column_stack([rng.standard_normal(n), np.zeros(n)])
    x[[3, 17], 1] = 1.0
    t = 0.5 * x[:, 0] + rng.standard_normal(n)
    y = t + x[:, 0] + rng.standard_normal(n)
    return Dataset(treatment=t, covariates=x, outcome=y, column_names=("T", "X1", "rare", "Y"))


class TestConstantColumn:

    def test_a_draw_without_the_rare_units_names_the_column(self):
        ds = rare_binary_dataset()
        attempt = next(a for a in range(100) if not np.isin([3, 17], draw(ds.n, a)).any())
        indices = draw(ds.n, attempt)
        counts = np.bincount(indices, minlength=ds.n)
        with pytest.raises(ConstantColumn, match="rare"):
            standardize(ds.subset(indices))
        with pytest.raises(ConstantColumn, match="rare"):
            counted(ds, counts)
        with pytest.raises(ConstantColumn, match="rare"):
            estimate_weights(ds, "ebct", counts=counts)

    def test_bootstrap_redraws_where_the_resample_fails(self, monkeypatch):
        ds = rare_binary_dataset()
        weights = estimate_weights(ds, "ebct")
        fit = estimate_drf(ds, weights, degree=1, grid=default_grid(ds.treatment, 5))
        replications, seed = 20, 13
        rows, failed, attempt = [], [], 0
        while len(rows) < replications:
            indices = draw(ds.n, attempt, seed)
            sample = ds.subset(indices)
            # The resample's own standardization fails on the same draws.
            own = outcome(lambda: solve(standardize(sample), start=weights.gamma)[0])
            try:
                resampled = repeated_ebct(ds, indices, None, weights.gamma)
            except EbctError:
                assert isinstance(own, type)
                failed.append(attempt)
                attempt += 1
                continue
            assert not isinstance(own, type)
            attempt += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtrapolationWarning)
                rows.append(estimate_drf(sample, resampled, fit.degree, fit.grid).drf_derivatives)
        assert failed

        seen = []
        statistic_of = drf.bootstrap_statistic

        def recording(n_units, statistic, *args):
            def counted(indices):
                attempt = len(seen)
                seen.append(attempt)
                try:
                    return statistic(indices)
                except EbctError:
                    seen[attempt] = -1
                    raise

            return statistic_of(n_units, counted, *args)

        monkeypatch.setattr(drf, "bootstrap_statistic", recording)
        result = bootstrap_se(fit, ds, weights, None, replications, seed)
        assert [a for a, mark in enumerate(seen) if mark < 0] == failed
        npt.assert_allclose(result.derivative_se, np.std(rows, axis=0, ddof=1), rtol=1e-12, atol=0)


INVALID_COUNTS = {
    "length": (np.ones(119, dtype=int), "shape"),
    "negative": (np.r_[-1, 2, np.ones(118, dtype=int)], "non-negative"),
    "fraction": (np.full(120, 1.5), "integers"),
    "nan": (np.r_[np.nan, np.ones(119)], "integers"),
    # 21 copies are below EBCT's 2K+2 but not below IPW's K+2 (see below).
    "total": (np.r_[np.ones(21, dtype=int), np.zeros(99, dtype=int)], r"2K\+2 = 22 units"),
    "strings": (np.array(["1"] * 120), "integers"),
}
COUNTED_CALLS = {
    # The counted standardization: resample the full sample's matrix.
    "standardize": counted,
    "estimate_weights": lambda ds, c: estimate_weights(ds, "ebct", counts=c),
    "uniform": lambda ds, c: estimate_weights(ds, "uniform", counts=c),
    "ipw_weights": lambda ds, c: ipw_weights(ds, c),
}


@pytest.mark.parametrize(
    "call, counts, message",
    [
        pytest.param(call, *INVALID_COUNTS[case], id=f"{name}-{case}")
        for name, call in COUNTED_CALLS.items()
        for case in INVALID_COUNTS
        if case != "total" or name in ("standardize", "estimate_weights")
    ],
)
def test_invalid_counts_rejected(call, counts, message):
    with pytest.raises(ValueError, match=message):
        call(drf_dataset(), counts)


def test_counts_must_draw_a_unit():
    for call in COUNTED_CALLS.values():
        with pytest.raises(ValueError, match="at least one unit"):
            call(drf_dataset(), np.zeros(120, dtype=int))


def small_dataset(n, k=3, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    t = x.sum(axis=1) + rng.standard_normal(n)
    y = t + x[:, 0] + rng.standard_normal(n)
    return Dataset(treatment=t, covariates=x, outcome=y)


class TestSizeRules:
    """Each method has one size rule on the N copies, counted or not: EBCT
    needs 2K+2, IPW K+2 and uniform weights one drawn unit. Between K+2 and
    2K+2 only EBCT is out of reach."""

    @pytest.mark.parametrize(
        "call",
        [ipw_weights, lambda ds, c=None: estimate_weights(ds, "uniform", counts=c)],
        ids=["ipw_weights", "uniform"],
    )
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_one_copy_each_below_2k_plus_2(self, call, n):
        ds = small_dataset(n)
        assert ds.k + 2 <= n < 2 * ds.k + 2
        assert np.array_equal(call(ds, np.ones(n, dtype=int)).weights, call(ds).weights)
        with pytest.raises(ValueError, match=r"2K\+2 = 8 units for K=3 covariates, got"):
            estimate_weights(ds, "ebct", counts=np.ones(n, dtype=int))

    @pytest.mark.parametrize("method", ["ipw", "uniform"])
    def test_total_below_2k_plus_2_is_the_drawn_sample(self, method):
        # The 21 copies that EBCT rejects are enough for IPW and uniform
        # weights, which are then those of the drawn units alone.
        ds = drf_dataset()
        counts = INVALID_COUNTS["total"][0]
        got = estimate_weights(ds, method, counts=counts)
        expected = estimate_weights(ds.subset(np.flatnonzero(counts)), method)
        npt.assert_allclose(got.weights, expected.weights, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", ["ipw", "uniform"])
    def test_bootstrap_below_2k_plus_2_matches_resampled_refits(self, method):
        ds = small_dataset(7)
        weights = estimate_weights(ds, method)
        fit = estimate_drf(ds, weights, degree=1, grid=default_grid(ds.treatment, 5))
        replications, seed = 20, 13
        rows, attempt = [], 0
        while len(rows) < replications:
            sample = ds.subset(draw(ds.n, attempt, seed))
            attempt += 1
            try:
                resampled = estimate_weights(sample, method)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ExtrapolationWarning)
                    rows.append(estimate_drf(sample, resampled, 1, fit.grid).drf_derivatives)
            except EbctError:
                continue
        result = bootstrap_se(fit, ds, weights, None, replications, seed)
        npt.assert_allclose(result.derivative_se, np.std(rows, axis=0, ddof=1), rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "counts, message",
    [(np.ones(119, dtype=int), "shape"), (np.r_[0, np.full(119, 2)], "positive")],
    ids=["length", "zero"],
)
def test_truncation_counts_follow_the_rows(counts, message):
    ds = drf_dataset()
    G = standardize(ds)
    weights, _ = solve(G)
    with pytest.raises(ValueError, match=message):
        truncate_and_rebalance(G, weights, 0.03, counts)


@pytest.mark.parametrize("method", ["ebct", "ipw", "uniform"])
def test_threshold_is_checked_per_copy(method):
    # A resample has N = n copies, so a cap of at least 1/N fits even when
    # fewer distinct units than 1/cap were drawn.
    ds = drf_dataset()
    counts = np.bincount(draw(ds.n, 0), minlength=ds.n)
    kept = counts[counts > 0]
    with pytest.raises(ThresholdInfeasible, match="below 1/n"):
        estimate_weights(ds, method, truncation=1.0 / (ds.n + 10), counts=counts)
    threshold = 1.0 / (ds.n - 20)
    assert threshold < 1.0 / kept.size
    if method == "ebct":
        # So close to uniform no balancing weights fit under the per-copy
        # cap, and the capped solve proves it with a Farkas certificate.
        with pytest.raises(ThresholdInfeasible, match="Farkas certificate") as excinfo:
            estimate_weights(ds, method, truncation=threshold, counts=counts)
        assert_certifies(counted(ds, counts), kept * threshold, excinfo.value.certificate)
    else:
        weights = estimate_weights(ds, method, truncation=threshold, counts=counts)
        assert (weights.weights / kept).max() <= threshold * (1 + 1e-12)


def eight_rows(seed):
    """Eight units with K=4: a uniform, a gamma, a binary and a normal
    covariate and a treatment selected on them, so bootstrap draws often hold
    fewer distinct units than a cubic or the IPW model has coefficients."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([
        rng.uniform(0.0, 4.0, 8), rng.gamma(2.0, 1.0, 8),
        rng.binomial(1, 0.4, 8), rng.standard_normal(8),
    ])
    t = x @ np.array([0.6, 0.4, 0.8, 0.5]) + 1.5 * rng.standard_normal(8)
    y = t - 0.05 * t**2 + x[:, 0] + x[:, 1] + x[:, 3] + 2.0 * rng.standard_normal(8)
    return Dataset(treatment=t, covariates=x, outcome=y)


def replicate_statistic(monkeypatch, ds, method):
    """The one-draw statistic ``bootstrap_se`` hands to the bootstrap loop,
    for the cubic on ``method``'s full-sample weights."""
    weights = estimate_weights(ds, method)
    fit = estimate_drf(ds, weights, degree=3, grid=default_grid(ds.treatment, 5))
    statistics = []

    def capture(n_units, statistic, replications, seed):
        statistics.append(statistic)
        return np.zeros((replications, fit.grid.size))

    monkeypatch.setattr(drf, "bootstrap_statistic", capture)
    bootstrap_se(fit, ds, weights, None, 2, seed=0)
    return statistics[0], fit.grid


class TestDistinctUnits:
    """Whether a replicate can be fitted is decided by counting its distinct
    units, never by whether a Cholesky factor or a residual scale survives
    rounding: a replicate below the count is redrawn on every draw."""

    def test_uniform_cubic_needs_four_distinct_units(self, monkeypatch):
        below = 0
        for seed in range(10):
            ds = eight_rows(seed)
            statistic, grid = replicate_statistic(monkeypatch, ds, "uniform")
            for attempt in range(200):
                indices = draw(ds.n, attempt, seed)
                sample = ds.subset(indices)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ExtrapolationWarning)
                    if np.unique(indices).size >= 4:
                        statistic(indices)
                        estimate_drf(sample, uniform_weights(ds.n), 3, grid)
                        continue
                    below += 1
                    # The counted replicate and the refit on the resample agree.
                    with pytest.raises(RankDeficientDesign, match="distinct treatment values"):
                        statistic(indices)
                    with pytest.raises(RankDeficientDesign, match="distinct treatment values"):
                        estimate_drf(sample, uniform_weights(ds.n), 3, grid)
        assert below >= 10

    def test_counted_ipw_needs_k_plus_2_distinct_units(self, monkeypatch):
        below = 0
        for seed in range(10):
            ds = eight_rows(seed)
            statistic, _ = replicate_statistic(monkeypatch, ds, "ipw")
            for attempt in range(200):
                indices = draw(ds.n, attempt, seed)
                if np.unique(indices).size >= ds.k + 2:
                    continue
                below += 1
                counts = np.bincount(indices, minlength=ds.n)
                with pytest.raises(RankDeficientDesign, match="K\\+2 = 6 distinct units"):
                    ipw_weights(ds, counts)
                with pytest.raises(RankDeficientDesign):
                    statistic(indices)
        assert below >= 100
