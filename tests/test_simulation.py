import concurrent.futures
import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

import ebct.simulation as sim
import ebct.weighting as weighting
from ebct import (
    Dataset,
    ScenarioConfig,
    estimate_weights,
    paper_grid,
    run_grid,
    run_scenario,
    solve,
    solve_batch,
    standardize,
)
from ebct.data import BalancingWeights
from ebct.errors import (
    ConstantColumn,
    InfeasibleConstraints,
    RankDeficientDesign,
    ScenarioDegenerate,
)
from ebct.simulation import (
    apply_specification,
    gen_covariates,
    gen_outcome,
    gen_treatment,
    replication_rng,
    run_replication,
)


class _StubRng:
    """Duck-typed generator returning a fixed value for every normal draw."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size=None):
        return np.full(size, self.value) if size is not None else self.value

    def normal(self, loc, scale, size=None):
        return np.full(size, loc + scale * self.value)


def one_sample(group, b):
    """Sample b of a drawn group, as a group of one."""
    return dataclasses.replace(
        group, treatment=group.treatment[[b]], covariates=group.covariates[[b]],
        outcome=group.outcome[[b]],
    )


@pytest.fixture(scope="module")
def big_draw():
    rng = replication_rng(123456, 0)
    n = 1_000_000
    x = gen_covariates(n, rng)
    t = gen_treatment(x, 4.0, rng)
    return x, t, rng


class TestGenCovariates:

    def test_analytic_means(self, big_draw):
        # E[U(0,5)] = 2.5 with sd sqrt(25/12); E[chi2_2] = 2 with sd 2.
        x, _, _ = big_draw
        n = x.shape[0]
        assert abs(x[:, 0].mean() - 2.5) <= 3 * np.sqrt(25 / 12 / n)
        assert abs(x[:, 1].mean() - 2.0) <= 3 * 2.0 / np.sqrt(n)

    def test_indicator_probabilities(self, big_draw):
        # Oracle: standard normal CDF at the cut-offs.
        x, _, _ = big_draw
        n = x.shape[0]
        targets = [
            stats.norm.cdf(-1.0),
            stats.norm.cdf(0.0) - stats.norm.cdf(-1.0),
            stats.norm.cdf(1.0) - stats.norm.cdf(0.0),
        ]
        for j, p in enumerate(targets):
            se = np.sqrt(p * (1 - p) / n)
            assert abs(x[:, 2 + j].mean() - p) <= 3 * se

    def test_indicators_are_exclusive(self, big_draw):
        x, _, _ = big_draw
        assert np.all(x[:, 2:5].sum(axis=1) <= 1.0)

    def test_bernoulli_half(self, big_draw):
        x, _, _ = big_draw
        n = x.shape[0]
        assert abs(x[:, 5].mean() - 0.5) <= 3 * 0.5 / np.sqrt(n)
        assert set(np.unique(x[:, 5])) == {0.0, 1.0}

    def test_normal_block_covariance(self, big_draw):
        x, _, _ = big_draw
        block = np.cov(x[:, 6:10].T)
        npt.assert_allclose(np.diag(block), np.ones(4), atol=0.01)
        off = block[np.triu_indices(4, k=1)]
        npt.assert_allclose(off, np.full(6, 0.2), atol=0.01)


class TestGenTreatment:

    def test_zero_inputs_give_zero(self):
        t = gen_treatment(np.zeros((5, 10)), sigma=4.0, rng=_StubRng(0.0))
        npt.assert_array_equal(t, np.zeros(5))

    def test_direct_substitution(self):
        x = np.zeros((1, 10))
        x[0, 0] = 1.0
        t = gen_treatment(x, sigma=4.0, rng=_StubRng(1.0))
        npt.assert_allclose(t, [5.0])

    def test_coefficients_by_columns(self):
        coef = [1.0, 0.6, 1.2, 1.0, 0.5, 1.0, 0.8, 0.8, 0.8, 0.8]
        for j, c in enumerate(coef):
            x = np.zeros((1, 10))
            x[0, j] = 1.0
            npt.assert_allclose(gen_treatment(x, 2.0, _StubRng(0.0)), [c])

    def test_analytic_variance(self, big_draw):
        # Oracle: assemble Var(T) from the analytic covariate moments.
        _, t, _ = big_draw
        sigma = 4.0
        p = np.array([stats.norm.cdf(-1.0), stats.norm.cdf(0.0) - stats.norm.cdf(-1.0),
                      stats.norm.cdf(1.0) - stats.norm.cdf(0.0)])
        # Multinomial covariance of the mutually exclusive indicators.
        cov_ind = np.diag(p) - np.outer(p, p)
        beta_ind = np.array([1.2, 1.0, 0.5])
        var_t = (
            25.0 / 12.0                      # X1
            + 0.36 * 4.0                     # 0.6^2 * Var(chi2_2)
            + beta_ind @ cov_ind @ beta_ind  # indicator block
            + 0.25                           # X6
            + 0.64 * (4.0 + 12 * 0.2)        # 0.8^2 * Var(sum of block)
            + sigma**2
        )
        n = t.size
        sample_var = t.var(ddof=1)
        # MC error of a variance estimate ~ var * sqrt(2/n) for near-normal T.
        assert abs(sample_var - var_t) <= 4 * var_t * np.sqrt(2.0 / n)

    def test_column_count_checked(self):
        with pytest.raises(ValueError):
            gen_treatment(np.zeros((5, 9)), 2.0, _StubRng(0.0))


class TestGenOutcome:

    def test_effect_passes_through(self):
        x = np.zeros((3, 10))
        t = np.array([2.0, 2.0, 2.0])
        y = gen_outcome(x, t, eta=1.0, rng=_StubRng(0.0))
        npt.assert_allclose(y, [2.0, 2.0, 2.0])

    def test_power_transform(self):
        x = np.zeros((1, 10))
        x[0, 0] = 1.0
        x[0, 1] = 3.0
        y = gen_outcome(x, np.zeros(1), eta=1.5, rng=_StubRng(0.0))
        npt.assert_allclose(y, [8.0])  # 4^1.5

    def test_large_sample_identification(self, big_draw):
        # Oracle: removing the structural covariate terms leaves slope one,
        # and the leftover noise has the documented standard deviation 5.
        x, t, rng = big_draw
        eta = 1.25
        y = gen_outcome(x, t, eta, rng)
        partial = y - (x[:, 0] + x[:, 1]) ** eta - x[:, 4] - x[:, 5] - x[:, 6]
        slope, intercept = np.polyfit(t, partial, 1)
        residual_sd = np.std(partial - (slope * t + intercept))
        se = residual_sd / (t.std() * np.sqrt(t.size))
        assert abs(slope - 1.0) <= 3 * se
        assert residual_sd == pytest.approx(5.0, abs=0.05)


class TestApplySpecification:

    def test_spec_one_identity_copy(self, rng):
        x = rng.standard_normal((20, 10))
        out = apply_specification(x, 1)
        npt.assert_array_equal(out, x)
        assert out is not x

    def test_spec_two_transforms(self):
        x = np.zeros((1, 10))
        x[0, 0] = 4.0
        x[0, 6] = -2.0
        out = apply_specification(x, 2)
        assert out[0, 0] == 2.0
        assert out[0, 6] == 4.0
        # everything else untouched
        npt.assert_array_equal(out[0, [1, 2, 3, 4, 5, 7, 8, 9]], np.zeros(8))

    def test_spec_three_structure(self, rng):
        # Oracle: independently constructed target matrix.
        x = np.abs(rng.standard_normal((30, 10))) + 0.1
        out = apply_specification(x, 3)
        expected = x.copy()
        expected[:, 0] = np.sqrt(x[:, 0])
        expected[:, 6] = x[:, 6] ** 2
        expected[:, 1] = x[:, 7] ** 2
        npt.assert_array_equal(out, expected)
        assert out.shape[1] == 10
        assert not any(np.array_equal(out[:, j], x[:, 1]) for j in range(10))
        assert any(np.array_equal(out[:, j], x[:, 7] ** 2) for j in range(10))
        assert any(np.array_equal(out[:, j], x[:, 7]) for j in range(10))

    def test_unknown_spec_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_specification(rng.standard_normal((5, 10)), 4)


class TestScenarioConfig:

    def test_enumerations_enforced(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=300, sigma=4.0, eta=1.0, spec=1)
        with pytest.raises(ValueError):
            ScenarioConfig(n=200, sigma=3.0, eta=1.0, spec=1)
        with pytest.raises(ValueError):
            ScenarioConfig(n=200, sigma=4.0, eta=2.0, spec=1)
        with pytest.raises(ValueError):
            ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=0)
        with pytest.raises(ValueError):
            ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, methods=("magic",))
        with pytest.raises(ValueError, match="must not repeat"):
            ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, methods=("ebct", "ipw", "ebct"))


class TestRunReplication:

    def config(self, **kwargs):
        defaults = dict(n=200, sigma=4.0, eta=1.0, spec=1, replications=5, master_seed=42)
        defaults.update(kwargs)
        return ScenarioConfig(**defaults)

    def test_unweighted_equals_ols(self):
        config = self.config(methods=("unweighted",))
        records = run_replication(config, 0)
        rng = replication_rng(config.master_seed, 0)
        x = gen_covariates(200, rng)
        t = gen_treatment(x, 4.0, rng)
        y = gen_outcome(x, t, 1.0, rng)
        slope = np.polyfit(t, y, 1)[0]
        assert records["unweighted"].estimate == pytest.approx(slope, abs=1e-10)

    def test_bit_identical_repeat(self):
        config = self.config()
        first = run_replication(config, 3)
        second = run_replication(config, 3)
        assert first == second

    def test_distinct_indices_differ(self):
        config = self.config()
        assert run_replication(config, 0) != run_replication(config, 1)

    def test_ebct_balance_per_replicate(self):
        config = self.config(methods=("ebct",))
        for index in range(3):
            record = run_replication(config, index)["ebct"]
            assert record.max_abs_correlation < 1e-6
            assert not record.failed


class TestRunScenario:

    def test_summary_formulas(self):
        # Aggregation oracle on constructed estimates.
        constant = sim._summarize([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], [0.01, 0.01, 0.01], 0)
        assert constant.bias_pct == 0.0
        assert constant.rmse_pct == 0.0
        known = sim._summarize([1.1, 0.9, 1.3], [0.1] * 3, [0.01] * 3, 1)
        errors = np.array([0.1, -0.1, 0.3])
        assert known.bias_pct == pytest.approx(abs(errors.mean()) * 100)
        assert known.rmse_pct == pytest.approx(np.sqrt((errors**2).mean()) * 100)
        assert known.failures == 1

    def test_rmse_identity_on_stored_estimates(self):
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, replications=30, master_seed=9)
        result = run_scenario(config)
        for summary in result.per_method.values():
            errors = summary.estimates - sim.TRUE_EFFECT
            variance = errors.var()
            identity = (summary.bias_pct / 100) ** 2 + variance
            assert identity == pytest.approx((summary.rmse_pct / 100) ** 2, abs=1e-9)
        assert sum(summary.failures for summary in result.per_method.values()) == 0

    def test_degenerate_scenario_aborts(self, monkeypatch):
        # Every EBCT solve fails, stacked and alone.
        def broken(matrices, base_weights=None, start=None, cap=None):
            raise InfeasibleConstraints("synthetic")

        monkeypatch.setattr(weighting, "solve_batch", broken)
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, replications=5,
                                methods=("ebct",), master_seed=1)
        with pytest.raises(ScenarioDegenerate):
            run_scenario(config)

    def test_estimates_equal_single_replications(self, monkeypatch):
        # More replications than one stacked group, so a partial group runs.
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.25, spec=2,
                                replications=sim.group_replications(200) + 4, master_seed=13)
        grouped = []

        def recording(config, indices):
            records = run_group(config, indices)
            grouped.extend(sim._records(records, slot) for slot in range(len(indices)))
            return records

        run_group = sim._run_replications
        monkeypatch.setattr(sim, "_run_replications", recording)
        result = run_scenario(config)
        monkeypatch.undo()
        assert sum(summary.failures for summary in result.per_method.values()) == 0
        alone = [run_replication(config, index) for index in range(config.replications)]
        # Whole records, every field of every method, not only the estimate.
        assert len(grouped) == config.replications
        assert grouped == alone
        assert set(alone[0]) == set(sim.METHODS)
        for method, summary in result.per_method.items():
            expected = [records[method].estimate for records in alone]
            npt.assert_array_equal(summary.estimates, expected)

    def test_constant_covariate_fails_only_its_dataset(self, monkeypatch):
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, master_seed=5)
        drawn = sim._draw(config, [0, 1, 1])
        x = drawn.covariates.copy()
        x[1, :, 3] = 1.0
        group = Dataset(treatment=drawn.treatment, covariates=x, outcome=drawn.outcome)
        solved = []

        def recording(matrices, base_weights=None, start=None, cap=None):
            weights, traces = solve_batch(matrices, base_weights, start, cap)
            solved.append(weights)
            return weights, traces

        monkeypatch.setattr(weighting, "solve_batch", recording)
        # The group's standardization fails, so each dataset is weighed alone.
        weights, rows = sim._stacked(lambda part: estimate_weights(part, "ebct").weights, group)
        assert rows.tolist() == [0, 2]
        with pytest.raises(ConstantColumn, match="X4"):
            standardize(one_sample(group, 1))
        assert [stack.weights.shape for stack in solved] == [(1, 200), (1, 200)]
        for slot, b in enumerate(rows):
            one = one_sample(group, b)
            expected, _ = solve(standardize(one)[0])
            assert weights[slot].tobytes() == expected.weights.tobytes()
            assert solved[slot].iterations[0] == expected.iterations

    def test_rank_deficient_weighting_fails_only_its_method(self, monkeypatch):
        # fit_wls fails any call whose weights include the IPW weighting, as
        # a rank-deficient design under those weights would.
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, master_seed=5)
        expected = run_replication(config, 2)
        ipw = estimate_weights(sim._draw(config, [2]), "ipw").weights[0]
        fit_wls, calls = sim.fit_wls, []

        def failing_for_ipw(y, design, w):
            calls.append(np.shape(w))
            if (w == ipw).all(axis=1).any():
                raise RankDeficientDesign("synthetic")
            return fit_wls(y, design, w)

        monkeypatch.setattr(sim, "fit_wls", failing_for_ipw)
        records = run_replication(config, 2)
        # One B x n stack per method; a lone replication is B=1.
        assert calls == [(1, 200)] * 3
        assert records["ipw"].failed
        assert records["unweighted"] == expected["unweighted"]
        assert records["ebct"] == expected["ebct"]

    def test_solve_and_fit_failures_stay_with_their_replication(self, monkeypatch):
        # In one group, replication 1's EBCT solve fails and replication 4's
        # IPW fit fails: those two records fail, and every record is the one
        # the replication gives alone.
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.25, spec=2, replications=6,
                                master_seed=21)
        infeasible = standardize(sim._draw(config, [1]))[0]
        ipw = estimate_weights(sim._draw(config, [4]), "ipw").weights[0]
        fit_wls = sim.fit_wls

        def failing_solve(matrices, base_weights=None, start=None, cap=None):
            # A stack that holds replication 1's problem fails as a whole.
            if any(np.array_equal(G, infeasible) for G in matrices):
                raise InfeasibleConstraints("synthetic")
            return solve_batch(matrices, base_weights, start, cap)

        def failing_fit(y, design, w):
            if (w == ipw).all(axis=1).any():
                raise RankDeficientDesign("synthetic")
            return fit_wls(y, design, w)

        monkeypatch.setattr(weighting, "solve_batch", failing_solve)
        monkeypatch.setattr(sim, "fit_wls", failing_fit)
        group = sim._run_replications(config, range(config.replications))
        grouped = [sim._records(group, slot) for slot in range(config.replications)]
        failed = {
            (index, method)
            for index, records in enumerate(grouped)
            for method, record in records.items()
            if record.failed
        }
        assert failed == {(1, "ebct"), (4, "ipw")}
        for index, records in enumerate(grouped):
            alone = run_replication(config, index)
            for method, record in records.items():
                # A failure's NaN fields never compare equal.
                assert record.failed == alone[method].failed
                assert record.failed or record == alone[method]

    def test_rank_deficient_ipw_design_fails_only_its_replication(self, monkeypatch):
        # Replication 3 draws a duplicated covariate column, so its IPW
        # design [1 | X] is rank deficient and the group's stacked IPW pass
        # raises; the group is then measured one replication at a time.
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, master_seed=5)
        draw = sim._draw

        def duplicated(config, indices):
            group = draw(config, indices)
            if 3 not in indices:
                return group
            x = group.covariates.copy()
            x[list(indices).index(3), :, 9] = x[list(indices).index(3), :, 8]
            return Dataset(treatment=group.treatment, covariates=x, outcome=group.outcome)

        monkeypatch.setattr(sim, "_draw", duplicated)
        fit_wls, shapes = sim.fit_wls, []

        def recording(y, design, w):
            shapes.append(np.shape(w))
            return fit_wls(y, design, w)

        monkeypatch.setattr(sim, "fit_wls", recording)
        size = sim.group_replications(config.n)
        group = sim._run_replications(config, range(size))
        grouped = [sim._records(group, slot) for slot in range(size)]
        # Each method fits its group as one stack, in config.methods order,
        # except IPW: its step fails, so each other replication fits alone.
        assert shapes == [(size, 200)] + [(1, 200)] * (size - 1) + [(size, 200)]
        alone = [run_replication(config, index) for index in range(size)]
        assert [records["ipw"].failed for records in grouped] == [
            index == 3 for index in range(size)
        ]
        for records, expected in zip(grouped, alone):
            for method, record in records.items():
                assert record.failed == expected[method].failed
                assert record.failed or record == expected[method]
        assert not grouped[3]["unweighted"].failed

    def test_each_layer_runs_once_per_group(self, monkeypatch):
        # A layer that fell back to one call per replication would still give
        # the same records, so count the calls.
        import ebct.weighting as weighting

        calls = {}
        sites = ((sim, "fit_wls"), (sim, "balance_report"), (weighting, "ipw_weights"))
        for module, name in sites:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.25, spec=2,
                                replications=2 * sim.group_replications(200) + 3, master_seed=13)
        result = run_scenario(config)
        assert sum(summary.failures for summary in result.per_method.values()) == 0
        # fit_wls and balance_report run once per group and method.
        assert calls == {"fit_wls": 9, "balance_report": 9, "ipw_weights": 3}

    def test_ebct_builds_one_weighting_per_group(self, monkeypatch):
        # A group's stacked solve returns one BalancingWeights for all its
        # replications, not one object per replication stacked back.
        shapes, post_init = [], BalancingWeights.__post_init__

        def counted(weights):
            shapes.append(np.shape(weights.weights))
            post_init(weights)

        monkeypatch.setattr(BalancingWeights, "__post_init__", counted)
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.25, spec=2, replications=12,
                                methods=("ebct",), master_seed=13)
        records = sim._run_replications(config, range(config.replications))
        assert not records["ebct"][1].any()
        assert shapes == [(12, 200)]

    @pytest.mark.parametrize("n", [200, 500])
    def test_group_size_changes_no_record(self, monkeypatch, n):
        # Row budgets of one replication, of eight and of the whole cell: the
        # groups differ, partial ones included, and nothing else does.
        config = ScenarioConfig(n=n, sigma=2.0, eta=1.25, spec=2, replications=11,
                                master_seed=17)
        run_group, runs = sim._run_replications, []
        for size in (1, 8, config.replications):
            groups, records = [], []

            def recording(config, indices, groups=groups, records=records):
                groups.append(len(indices))
                group = run_group(config, indices)
                records.extend(sim._records(group, slot) for slot in range(len(indices)))
                return group

            monkeypatch.setattr(sim, "GROUP_ROWS", size * n)
            monkeypatch.setattr(sim, "_run_replications", recording)
            result = run_scenario(config)
            assert groups == [size] * (11 // size) + [11 % size] * (11 % size > 0)
            summaries = {
                method: (s.bias_pct, s.rmse_pct, s.mean_max_abs_correlation,
                         s.mean_max_weight_share, s.failures, s.estimates.tobytes())
                for method, s in result.per_method.items()
            }
            runs.append((result.config, summaries, records))
        assert sum(summary[4] for summary in runs[0][1].values()) == 0
        assert runs[0] == runs[1] == runs[2]

    def test_memory_does_not_grow_with_replications(self):
        # Replications are drawn and solved in fixed-size groups that are
        # dropped before the next, so the peak heap stays that of one group.
        # Stacking all of them would make R=100 peak about five times R=20.
        def peak(replications):
            config = ScenarioConfig(n=1000, sigma=4.0, eta=1.0, spec=1, methods=("ebct",),
                                    replications=replications, master_seed=3)
            tracemalloc.start()
            try:
                run_scenario(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100) <= 1.1 * peak(20)


class TestGroupDraw:
    # A group is drawn straight into one read-only batch: the (B, n)
    # treatments and outcomes and the (B, n, K) covariates that every
    # stacked layer reads without a copy.

    @pytest.mark.parametrize("spec", sim.SPECIFICATIONS)
    def test_group_arrays_equal_the_per_replication_draws(self, spec):
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.5, spec=spec, master_seed=29)
        indices = [4, 0, 11]
        group = sim._draw(config, indices)
        assert group.treatment.shape == group.outcome.shape == (3, 200)
        assert group.covariates.shape == (3, 200, 10)
        for b, index in enumerate(indices):
            rng = replication_rng(config.master_seed, index)
            x = gen_covariates(config.n, rng)
            t = gen_treatment(x, config.sigma, rng)
            y = gen_outcome(x, t, config.eta, rng)
            assert group.treatment[b].tobytes() == t.tobytes()
            assert group.outcome[b].tobytes() == y.tobytes()
            assert group.covariates[b].tobytes() == apply_specification(x, spec).tobytes()

    def test_group_arrays_are_read_only_and_no_layer_writes_them(self):
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=2, master_seed=31)
        group = sim._draw(config, range(12))
        arrays = (group.treatment, group.covariates, group.outcome)
        before = [array.tobytes() for array in arrays]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        for method in ("ebct", "ipw", "uniform"):
            sim._measure(group, method)
        assert [array.tobytes() for array in arrays] == before

    def test_shares_are_the_written_maxima(self):
        # Each record's share is the largest weight its replication's own
        # BalancingWeights holds, not that of the weights normalized again.
        config = ScenarioConfig(n=200, sigma=2.0, eta=1.25, spec=1, replications=6,
                                master_seed=37)
        records = sim._run_replications(config, range(6))
        group = sim._draw(config, range(6))
        for b in range(6):
            one = Dataset(treatment=group.treatment[b], covariates=group.covariates[b])
            for method in config.methods:
                share = records[method][0][2, b]
                assert share == estimate_weights(one, method).max_share

    def test_a_constant_covariate_fails_only_its_replications_weighted_methods(
        self, monkeypatch
    ):
        # Replication 2 draws a constant X4: its EBCT standardization and its
        # IPW design [1 | X] fail, its unweighted record and every other
        # replication's records do not.
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, master_seed=5)
        draw = sim._draw

        def constant(config, indices):
            group = draw(config, indices)
            if 2 not in indices:
                return group
            x = group.covariates.copy()
            x[list(indices).index(2), :, 3] = 1.0
            return Dataset(treatment=group.treatment, covariates=x, outcome=group.outcome)

        monkeypatch.setattr(sim, "_draw", constant)
        size = 6
        records = sim._run_replications(config, range(size))
        failed = {
            (slot, method)
            for method, (_, mask) in records.items()
            for slot in np.flatnonzero(mask).tolist()
        }
        assert failed == {(2, "ebct"), (2, "ipw")}
        for slot in range(size):
            alone = run_replication(config, slot)
            for method, record in sim._records(records, slot).items():
                assert record.failed == alone[method].failed
                assert record.failed or record == alone[method]


class TestGroupMemory:
    # A whole n=200 cell of 30 replications is one (30, 200, 21) stack of
    # balance columns. Each stacked layer works through it in blocks, so
    # what it allocates beyond its inputs and outputs is a fraction of the
    # stack; stacked whole, each layer took more than the stack again.
    FRACTION = 0.5

    @pytest.fixture(scope="class")
    def group(self):
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, master_seed=3)
        group = sim._draw(config, range(30))
        G = standardize(group)
        return group, G, solve_batch(G)[0]

    @pytest.mark.parametrize("layer", ["standardize", "solve_batch", "balance_report"])
    def test_working_memory_is_a_fraction_of_the_stack(self, group, layer):
        group, G, ebct = group
        call = {
            "standardize": lambda: standardize(group),
            "solve_batch": lambda: solve_batch(G)[0].weights,
            "balance_report": lambda: sim.balance_report(ebct, group),
        }[layer]
        assert G.shape == (30, 200, 21)
        tracemalloc.start()
        try:
            result = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 30
        assert peak - current < self.FRACTION * G.nbytes, (peak - current) / G.nbytes


class TestGrid:

    def test_paper_grid_cardinality_and_seeds(self):
        configs = paper_grid(replications=10, seed=7)
        assert len(configs) == 54
        assert len({c.master_seed for c in configs}) == 54
        assert {c.n for c in configs} == {200, 500, 1000}
        assert {(c.sigma, c.eta, c.spec) for c in configs} == {
            (s, e, p) for s in (4.0, 2.0) for e in (1.0, 1.25, 1.5) for p in (1, 2, 3)
        }

    def test_paper_grid_deterministic(self):
        first = paper_grid(replications=10, seed=3)
        second = paper_grid(replications=10, seed=3)
        assert first == second
        assert paper_grid(replications=10, seed=4) != first

    def test_paper_grid_rejects_a_repeated_size(self):
        with pytest.raises(ValueError, match="must not repeat"):
            paper_grid(sizes=(200, 500, 200), replications=2)

    def test_run_grid_parallel_matches_serial(self, tmp_path):
        configs = paper_grid(sizes=(200,), replications=4, seed=5)[:2]
        serial = run_grid(configs, jobs=1)
        parallel = run_grid(configs, jobs=2)
        paths = [tmp_path / "serial.csv", tmp_path / "parallel.csv"]
        sim.write_grid_csv(serial, paths[0])
        sim.write_grid_csv(parallel, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pool_never_exceeds_cell_count(self, monkeypatch):
        # A stand-in executor records the pool size and starts no process.
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return iter(items)

        # run_grid imports the executor when it needs one, from concurrent.futures.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        configs = paper_grid(sizes=(200,), replications=4, seed=5)
        run_grid(configs[:3], jobs=8)
        run_grid(configs, jobs=2)
        assert sizes == [3, 2]

    def test_paper_grid_steps_are_never_redone_sample_by_sample(self, monkeypatch):
        # A stacked step that raises is redone one sample at a time with the
        # same bytes, only slower (see simulation._stacked). So a fault that
        # only stacked solves hit shows here alone: as solves of other
        # shapes than one (R, n, 2K+1) stack per cell.
        replications, shapes = 4, []

        def recording_solve(matrices, *args, **kwargs):
            shapes.append(np.shape(matrices))
            return solve_batch(matrices, *args, **kwargs)

        monkeypatch.setattr(weighting, "solve_batch", recording_solve)
        run_grid(paper_grid(sizes=(200,), replications=replications))
        assert shapes == [(replications, 200, 21)] * 18

    def test_csv_and_table_rendering(self, tmp_path):
        config = ScenarioConfig(n=200, sigma=4.0, eta=1.0, spec=1, replications=4, master_seed=2)
        results = run_grid([config])
        path = tmp_path / "scenarios.csv"
        sim.write_grid_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n,sigma,eta,spec,method")
        assert len(lines) == 4  # header + three methods
        table = sim.render_grid_table(results)
        assert "N=200" in table
        assert "Unweighted" in table and "EBCT" in table and "IPW" in table
        assert "Specification 1" in table


class TestPublishedOrderings:

    def test_large_sample_ebct_essentially_unbiased(self):
        # At N=1000 with correct specification the EBCT bias is statistically
        # indistinguishable from zero (below 3 Monte-Carlo standard errors).
        config = ScenarioConfig(n=1000, sigma=4.0, eta=1.0, spec=1,
                                replications=200, methods=("ebct",), master_seed=31)
        summary = run_scenario(config).per_method["ebct"]
        mc_se = summary.estimates.std(ddof=1) / np.sqrt(summary.estimates.size) * 100
        assert summary.bias_pct <= 3 * mc_se

    def test_misspecification_increases_bias(self):
        # Omitted-variable specification 3 dominates specification 1 in bias,
        # averaged over the (sigma, eta) cross at N=200.
        biases = {1: [], 3: []}
        for spec in (1, 3):
            for seed_offset, sigma in enumerate((4.0, 2.0)):
                for eta_offset, eta in enumerate((1.0, 1.25, 1.5)):
                    config = ScenarioConfig(
                        n=200, sigma=sigma, eta=eta, spec=spec, replications=150,
                        methods=("ebct",), master_seed=700 + spec * 10 + seed_offset * 3 + eta_offset,
                    )
                    biases[spec].append(run_scenario(config).per_method["ebct"].bias_pct)
        assert np.mean(biases[3]) > np.mean(biases[1])

    def test_rmse_shrinks_with_sample_size(self):
        rmse = {}
        for n in (200, 1000):
            config = ScenarioConfig(n=n, sigma=4.0, eta=1.0, spec=1,
                                    replications=150, methods=("ebct",), master_seed=900 + n)
            rmse[n] = run_scenario(config).per_method["ebct"].rmse_pct
        assert rmse[1000] < rmse[200]


class TestReplicationRng:

    def test_streams_independent_of_each_other(self):
        a = replication_rng(5, 0).standard_normal(4)
        b = replication_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_key_same_stream(self):
        npt.assert_array_equal(
            replication_rng(5, 7).standard_normal(4),
            replication_rng(5, 7).standard_normal(4),
        )
