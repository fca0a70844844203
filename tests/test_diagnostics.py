import json
import re
from dataclasses import replace

import numpy as np
import pytest

from ebct import Dataset, balance_report, solve, standardize
from ebct.data import uniform_weights
from ebct.diagnostics import render_balance_table

from conftest import batch, random_dataset, weighting

# Printed unweighted correlation column of a 13-covariate balance table;
# the aggregation contract is that its mean absolute value rounds to 0.14.
TABLE_COLUMN = [0.21, -0.03, 0.04, 0.29, 0.03, 0.07, 0.03, 0.13, 0.19, 0.21, 0.21, 0.16, 0.17]


def weighted_pearson(w, a, b) -> float:
    """Weighted Pearson correlation of a and b: the reference for balance_report.

    Weighted covariance over the product of weighted standard deviations,
    with weighted means; no effective-sample-size correction is applied since
    any common factor cancels in the ratio.

    Raises:
        ValueError: either variable has (numerically) zero weighted spread.
    """
    w = np.ravel(np.asarray(w, dtype=float))
    w = w / w.sum()
    a = np.ravel(np.asarray(a, dtype=float))
    b = np.ravel(np.asarray(b, dtype=float))
    da = a - w @ a
    db = b - w @ b
    var_a = w @ (da * da)
    var_b = w @ (db * db)
    if var_a < 1e-24 or var_b < 1e-24:
        raise ValueError("weighted variance is numerically zero")
    corr = w @ (da * db) / np.sqrt(var_a * var_b)
    return float(np.clip(corr, -1.0, 1.0))


def naive_weighted_corr(w, a, b):
    """Double-loop oracle, no vectorized shortcuts."""
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    mean_a = sum(w[i] * a[i] for i in range(len(a)))
    mean_b = sum(w[i] * b[i] for i in range(len(b)))
    cov = var_a = var_b = 0.0
    for i in range(len(a)):
        cov += w[i] * (a[i] - mean_a) * (b[i] - mean_b)
        var_a += w[i] * (a[i] - mean_a) ** 2
        var_b += w[i] * (b[i] - mean_b) ** 2
    return cov / np.sqrt(var_a * var_b)


class TestWeightedPearson:

    def test_uniform_reduces_to_pearson(self, rng):
        a = rng.standard_normal(40)
        b = 0.5 * a + rng.standard_normal(40)
        expected = np.corrcoef(a, b)[0, 1]
        value = weighted_pearson(np.full(40, 1.0 / 40), a, b)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_self_correlation_is_one(self, rng):
        a = rng.standard_normal(10)
        w = rng.uniform(0.1, 1.0, size=10)
        assert weighted_pearson(w, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_degeneracy(self):
        # Two units determine the sign of the slope exactly.
        assert weighted_pearson([0.6, 0.4], [0.0, 1.0], [2.0, 5.0]) == pytest.approx(1.0)
        assert weighted_pearson([0.6, 0.4], [0.0, 1.0], [5.0, 2.0]) == pytest.approx(-1.0)
        # Same with the mass on two of four units.
        w = np.array([0.5, 0.5, 1e-16, 1e-16])
        a = np.array([0.0, 1.0, 0.3, 0.6])
        b = np.array([1.0, 3.0, 0.9, 0.1])
        assert weighted_pearson(w, a, b) == pytest.approx(1.0, abs=1e-8)

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="numerically zero"):
            weighted_pearson([0.5, 0.3, 0.2], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_symmetry(self, rng):
        a, b = rng.standard_normal((2, 25))
        w = rng.uniform(0.1, 1.0, size=25)
        assert weighted_pearson(w, a, b) == pytest.approx(weighted_pearson(w, b, a), abs=1e-12)

    def test_affine_invariance_and_sign_flip(self, rng):
        a, b = rng.standard_normal((2, 25))
        w = rng.uniform(0.1, 1.0, size=25)
        base = weighted_pearson(w, a, b)
        assert weighted_pearson(w, 3.0 * a + 5.0, 0.5 * b - 2.0) == pytest.approx(base, abs=1e-12)
        assert weighted_pearson(w, -2.0 * a, b) == pytest.approx(-base, abs=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        a, b = rng.standard_normal((2, 20))
        w = rng.uniform(0.2, 2.0, size=20)
        assert weighted_pearson(w, a, b) == pytest.approx(naive_weighted_corr(w, a, b), abs=1e-12)


class TestMaxWeightShare:
    """The largest weight, as ``balance_report`` records it: as it stands."""

    @staticmethod
    def share(w, rng):
        return balance_report(weighting(w), random_dataset(rng, len(w), 1)).max_weight_share

    def test_uniform_share(self, rng):
        assert self.share(np.full(200, 1.0 / 200), rng) == pytest.approx(0.005)

    def test_dominant_weight(self, rng):
        w = np.full(31, 0.001)
        w[7] = 0.97
        assert self.share(w, rng) == pytest.approx(0.97)


class TestBalanceReport:

    def test_printed_column_aggregation(self):
        # Oracle: plain mean of absolute values, then the 2-decimal rounding
        # used in rendered tables.
        oracle = np.mean(np.abs(TABLE_COLUMN))
        assert oracle == pytest.approx(1.77 / 13, abs=1e-12)
        assert round(oracle, 2) == 0.14

    def test_converged_weights_zero_correlations(self, rng):
        ds = random_dataset(rng, 60, 3)
        weights, _ = solve(standardize(ds))
        report = balance_report(weights, ds)
        assert report.max_abs_correlation <= 1e-6
        assert report.method_tag == "ebct"

    def test_random_weights_match_double_loop(self, rng):
        ds = random_dataset(rng, 20, 3)
        w = rng.uniform(0.5, 2.0, size=20)
        report = balance_report(weighting(w), ds)
        for j in range(3):
            expected = naive_weighted_corr(w, ds.treatment, ds.covariates[:, j])
            assert report.per_covariate_correlation[j] == pytest.approx(expected, abs=1e-12)
        assert report.max_abs_correlation == pytest.approx(
            np.abs(report.per_covariate_correlation).max()
        )
        assert report.mean_abs_correlation == pytest.approx(
            np.abs(report.per_covariate_correlation).mean()
        )
        assert report.max_abs_correlation >= report.mean_abs_correlation

    def test_uniform_call_equals_unweighted_column(self, rng):
        ds = random_dataset(rng, 35, 2)
        report = balance_report(uniform_weights(35), ds)
        for j in range(2):
            expected = np.corrcoef(ds.treatment, ds.covariates[:, j])[0, 1]
            assert report.per_covariate_correlation[j] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_column_flagged_not_fatal(self, rng):
        x = np.column_stack([rng.standard_normal(12), np.ones(12)])
        ds = Dataset(treatment=rng.standard_normal(12), covariates=x)
        report = balance_report(uniform_weights(12), ds)
        assert report.degenerate_columns == ("X2",)
        assert np.isnan(report.per_covariate_correlation[1])
        assert np.isfinite(report.max_abs_correlation)

    def test_one_pass_matches_weighted_pearson(self, rng):
        # Constant and near-constant columns among regular ones.
        x = rng.standard_normal((30, 5))
        x[:, 1] = 2.0
        x[:, 3] = 1.0 + 1e-14 * rng.standard_normal(30)
        ds = Dataset(treatment=rng.standard_normal(30), covariates=x)
        w = rng.uniform(0.2, 2.0, size=30)
        report = balance_report(weighting(w), ds)
        assert report.degenerate_columns == ("X2", "X4")
        for j in range(5):
            try:
                expected = weighted_pearson(w, ds.treatment, x[:, j])
            except ValueError:
                assert np.isnan(report.per_covariate_correlation[j])
            else:
                assert report.per_covariate_correlation[j] == pytest.approx(expected, abs=1e-12)

    def test_stack_matches_single_reports_bit_for_bit(self, rng):
        # Three weightings of one sample, stacked as a batch of three copies.
        x = rng.standard_normal((40, 3))
        x[:, 1] = 2.0
        ds = Dataset(treatment=rng.standard_normal(40), covariates=x)
        balanced = Dataset(treatment=ds.treatment, covariates=x[:, [0, 2]])
        ebct_weights, _ = solve(standardize(balanced))
        weightings = [uniform_weights(40), ebct_weights, weighting(rng.uniform(0.2, 2.0, size=40))]
        rows = np.stack([w.weights for w in weightings])
        stack = replace(uniform_weights(40), weights=rows, method_tag="ipw")
        reports = balance_report(stack, batch([ds] * 3))
        assert [r.method_tag for r in reports] == ["ipw", "ipw", "ipw"]
        for weights, report in zip(weightings, reports):
            alone = balance_report(replace(weights, method_tag="ipw"), ds)
            assert report.degenerate_columns == alone.degenerate_columns == ("X2",)
            assert (
                report.per_covariate_correlation.tobytes()
                == alone.per_covariate_correlation.tobytes()
            )
            for name in ("max_abs_correlation", "mean_abs_correlation", "max_weight_share"):
                bits = [np.float64(getattr(r, name)).tobytes() for r in (report, alone)]
                assert bits[0] == bits[1]
            assert report.to_dict() == alone.to_dict()

    def test_stacked_datasets_match_single_reports_bit_for_bit(self, rng):
        B, n = 4, 40
        datasets = []
        for b in range(B):
            x = rng.standard_normal((n, 3))
            if b == 2:
                x[:, 1] = 2.0  # a degenerate column in one dataset only
            datasets.append(Dataset(treatment=rng.standard_normal(n), covariates=x))
        stack = rng.uniform(0.2, 2.0, size=(B, n))
        # A uniform row, which dividing by its sum leaves as it is.
        ipw_tagged = replace(uniform_weights(n), method_tag="ipw")
        stack[0] = ipw_tagged.weights
        stacked = weighting(stack)
        reports = balance_report(stacked, batch(datasets))
        tagged = balance_report(weighting(stack, "ipw"), batch(datasets))
        assert len(reports) == B
        assert [r.method_tag for r in tagged] == ["ipw"] * B
        assert reports[2].degenerate_columns == ("X2",)
        assert reports[1].degenerate_columns == ()
        for b, (dataset, report) in enumerate(zip(datasets, reports)):
            alone = balance_report(stacked.row(b), dataset)
            assert (
                report.per_covariate_correlation.tobytes()
                == alone.per_covariate_correlation.tobytes()
            )
            for name in ("max_abs_correlation", "mean_abs_correlation", "max_weight_share"):
                bits = [np.float64(getattr(r, name)).tobytes() for r in (report, alone)]
                assert bits[0] == bits[1]
            assert report.to_dict() == alone.to_dict()
        assert tagged[0].to_dict() == balance_report(ipw_tagged, datasets[0]).to_dict()
        assert [dict(r.to_dict(), method="uniform") for r in tagged] == [
            r.to_dict() for r in reports
        ]

    def test_stacked_datasets_are_checked(self, rng):
        group = batch([random_dataset(rng, 30, 2), random_dataset(rng, 30, 2)])
        stack = np.full((2, 30), 1.0 / 30)
        longer = batch([random_dataset(rng, 31, 2), random_dataset(rng, 31, 2)])
        with pytest.raises(ValueError, match=re.escape("shape (2, 30), expected (2, 31)")):
            balance_report(weighting(stack), longer)
        with pytest.raises(ValueError, match=re.escape("shape (1, 30), expected (2, 30)")):
            balance_report(weighting(stack[:1]), group)
        with pytest.raises(ValueError, match=re.escape("shape (2, 1, 30), expected (2, 30)")):
            balance_report(weighting(stack[:, None]), group)
        with pytest.raises(ValueError, match=re.escape("shape (30,), expected (2, 30)")):
            balance_report(weighting(stack[0]), group)
        with pytest.raises(ValueError, match=re.escape("shape (2, 29), expected (2, 30)")):
            balance_report(weighting(stack[:, 1:]), group)

    def test_several_weightings_of_one_dataset_are_rejected(self, rng):
        # A weighting is one BalancingWeights: a sequence of them, or bare
        # weights, are not read as one, and a stack of them weighs a batch.
        ds = random_dataset(rng, 30, 2)
        w = rng.uniform(0.2, 2.0, size=30)
        for several in (w, [w, w], np.stack([w, w]), [uniform_weights(30), uniform_weights(30)]):
            with pytest.raises(TypeError, match="weights must be a BalancingWeights"):
                balance_report(several, ds)
        with pytest.raises(ValueError, match=re.escape("shape (2, 30), expected (30,)")):
            balance_report(weighting(np.stack([w, w])), ds)

    def test_constant_treatment_degenerates_every_column(self, rng):
        ds = Dataset(treatment=np.ones(12), covariates=rng.standard_normal((12, 2)))
        report = balance_report(uniform_weights(12), ds)
        assert report.degenerate_columns == ("X1", "X2")
        assert np.isnan(report.max_abs_correlation)
        assert np.isnan(report.mean_abs_correlation)
        payload = report.to_dict()
        assert payload["max_abs_correlation"] is None
        assert payload["mean_abs_correlation"] is None

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_weights_of_another_length_are_named(self, rng, stacked):
        ds = random_dataset(rng, 25, 2)
        w = np.full(24, 1.0 / 24)
        expected = "(2, 24), expected (2, 25)" if stacked else "(24,), expected (25,)"
        with pytest.raises(ValueError, match=re.escape(f"weights have shape {expected}")):
            if stacked:
                balance_report(weighting(np.stack([w, w])), batch([ds, ds]))
            else:
                balance_report(weighting(w), ds)

    def test_json_round_trip(self, rng):
        ds = random_dataset(rng, 25, 2)
        report = balance_report(uniform_weights(25), ds)
        payload = json.loads(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        assert payload["method"] == "uniform"
        assert set(payload["correlations"]) == {"X1", "X2"}
        assert payload["max_weight_share"] == pytest.approx(1.0 / 25)


class TestRenderTable:

    def test_layout_and_rounding(self, rng):
        ds = random_dataset(rng, 50, 2)
        unweighted = replace(balance_report(uniform_weights(50), ds), method_tag="unweighted")
        weights, _ = solve(standardize(ds))
        weighted = balance_report(weights, ds)
        table = render_balance_table([unweighted, weighted])
        lines = table.splitlines()
        assert "unweighted" in lines[0] and "ebct" in lines[0]
        assert lines[1].startswith("X1")
        # Converged weights round to 0.00 in every weighted cell.
        for line in lines[1:3]:
            assert line.split()[-1] == "0.00"
        assert any(line.startswith("Mean absolute correlation") for line in lines)
        assert any(line.startswith("Maximum weight in %") for line in lines)
