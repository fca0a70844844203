import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ebct import BalancingWeights, balance_report, estimate_weights
from ebct.errors import ThresholdInfeasible
from ebct.ipw import ipw_weights
from ebct.simulation import gen_covariates, gen_treatment, replication_rng
from ebct.weighting import cap_weights

from conftest import batch, random_dataset


def selection_dataset(n=150, sigma=2.0, seed=4):
    from ebct import Dataset

    rng = replication_rng(seed, 0)
    x = gen_covariates(n, rng)
    t = gen_treatment(x, sigma, rng)
    return Dataset(treatment=t, covariates=x)


class TestEstimateWeights:

    def test_method_tags(self, rng):
        ds = random_dataset(rng, 60, 2)
        assert estimate_weights(ds, "ebct").method_tag == "ebct"
        assert estimate_weights(ds, "ipw").method_tag == "ipw"
        assert estimate_weights(ds, "uniform").method_tag == "uniform"
        assert estimate_weights(ds, "EBCT").method_tag == "ebct"
        assert estimate_weights(ds, "Ipw").method_tag == "ipw"

    def test_unweighted_alias(self, rng):
        ds = random_dataset(rng, 40, 1)
        for name in ("unweighted", "UNWEIGHTED"):
            weights = estimate_weights(ds, name)
            assert weights.method_tag == "uniform"
            npt.assert_allclose(weights.weights, np.full(40, 1.0 / 40))

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown weighting method"):
            estimate_weights(random_dataset(rng, 40, 1), "gbm")

    def test_sequence_of_datasets(self, rng):
        datasets = [random_dataset(rng, 50, 2) for _ in range(3)]
        group = batch(datasets)
        for method in ("ebct", "ipw", "uniform", "unweighted"):
            stacked = estimate_weights(group, method).weights
            assert stacked.shape == (len(datasets), 50)
            assert not stacked.flags.writeable
            for dataset, weights in zip(datasets, stacked):
                alone = estimate_weights(dataset, method)
                assert weights.tobytes() == alone.weights.tobytes()
        message = "a batch of datasets takes no truncation or counts"
        for method in ("ebct", "ipw"):
            for kwargs in ({"truncation": 0.05}, {"counts": np.ones(50, dtype=int)}):
                with pytest.raises(ValueError, match=message):
                    estimate_weights(group, method, **kwargs)

    @pytest.mark.parametrize("method", ["ebct", "ipw", "uniform"])
    def test_a_batch_gives_one_stacked_weighting(self, rng, method):
        # Each row of the stack is the weighting its sample gives alone, in
        # every field, for every method.
        datasets = [random_dataset(rng, 50, 2) for _ in range(3)]
        stacks = [estimate_weights(batch(datasets), method)]
        if method == "ipw":
            stacks.append(ipw_weights(batch(datasets)))
        for stack in stacks:
            assert isinstance(stack, BalancingWeights)
            assert stack.weights.shape == (len(datasets), 50)
            for array in (stack.weights, stack.gamma, stack.iterations, stack.final_gradient_norm):
                assert not array.flags.writeable
            for b, dataset in enumerate(datasets):
                row, alone = stack.row(b), estimate_weights(dataset, method)
                assert row.weights.tobytes() == alone.weights.tobytes()
                assert row.gamma.shape == alone.gamma.shape
                assert row.gamma.tobytes() == alone.gamma.tobytes()
                assert row.iterations == alone.iterations
                assert np.array_equal(
                    row.final_gradient_norm, alone.final_gradient_norm, equal_nan=True
                )
                assert row.converged == alone.converged
                assert row.method_tag == alone.method_tag

    def test_ebct_batch_is_one_stacked_solve(self, rng, monkeypatch):
        # The batch is standardized and solved as one stack; the lone
        # solve, whose per-call spans the benchmark counts, is never run.
        import ebct.weighting as weighting

        datasets = [random_dataset(rng, 50, 2) for _ in range(4)]
        stacks, solve_batch = [], weighting.solve_batch

        def recording(matrices, **kwargs):
            stacks.append(np.shape(matrices))
            return solve_batch(matrices, **kwargs)

        def lone(*args, **kwargs):
            raise AssertionError("a batch reached the lone solve")

        monkeypatch.setattr(weighting, "solve_batch", recording)
        monkeypatch.setattr(weighting, "solve", lone)
        estimate_weights(batch(datasets), "ebct")
        assert stacks == [(4, 50, 5)]

    def test_ebct_truncation_keeps_balance(self):
        ds = selection_dataset()
        plain = estimate_weights(ds, "ebct")
        capped = estimate_weights(ds, "ebct", truncation=0.03)
        assert capped.weights.max() <= 0.03 + 1e-6
        assert balance_report(capped, ds).max_abs_correlation < 1e-6
        assert plain.weights.max() >= capped.weights.max()

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython before 3.11 keeps a call's arguments referenced by its caller",
    )
    def test_ebct_truncation_peaks_as_the_plain_estimate(self, rng):
        # Truncation lets the untruncated weights go before its capped
        # solve, so it holds no n-vector beyond the plain estimate's peak.
        ds = random_dataset(rng, 50_000, 10)
        peaks = []
        for truncation in (None, 10.0 / ds.n):
            tracemalloc.start()
            try:
                estimate_weights(ds, "ebct", truncation=truncation)
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * ds.n))
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.1, peaks

    def test_ipw_truncation_caps_only(self):
        ds = selection_dataset(seed=9)
        plain = estimate_weights(ds, "ipw")
        threshold = 0.8 * plain.weights.max()
        capped = estimate_weights(ds, "ipw", truncation=threshold)
        assert capped.weights.max() <= threshold + 1e-12
        assert capped.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestCapWeights:

    def test_iterative_cap(self, rng):
        ds = random_dataset(rng, 30, 1)
        weights = estimate_weights(ds, "ipw")
        capped = cap_weights(weights, 0.05)
        assert capped.weights.max() <= 0.05 + 1e-12
        assert capped.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert capped.method_tag == "ipw"

    def test_threshold_below_uniform_rejected(self, rng):
        ds = random_dataset(rng, 30, 1)
        weights = estimate_weights(ds, "uniform")
        with pytest.raises(ThresholdInfeasible):
            cap_weights(weights, 1.0 / 60)

    def test_tight_cap_is_exact(self):
        # Repeated cap-and-renormalize needs 715 rounds here; a 100-round
        # loop stopped 0.15% above the cap.
        weights = estimate_weights(selection_dataset(n=200, sigma=2.0, seed=1), "ipw")
        threshold = 1.01 / 200
        capped = cap_weights(weights, threshold).weights
        assert capped.max() <= threshold
        assert capped.sum() == pytest.approx(1.0, abs=1e-12)
        at_cap = capped == threshold
        assert at_cap.sum() > 1
        # Units below the cap keep their original ratios.
        below = ~at_cap
        ratios = capped[below] / weights.weights[below]
        npt.assert_allclose(ratios, ratios[0], rtol=1e-12)
        # Exactly the largest units are capped.
        assert weights.weights[at_cap].min() > weights.weights[below].max()

    def test_loose_cap_matches_iterated_capping(self):
        weights = estimate_weights(selection_dataset(n=200, sigma=2.0, seed=1), "ipw")
        threshold = 2.0 / 200
        w = weights.weights.copy()
        for _ in range(100):
            if w.max() <= threshold + 1e-12:
                break
            w = np.minimum(w, threshold)
            w = w / w.sum()
        npt.assert_allclose(cap_weights(weights, threshold).weights, w, rtol=0, atol=1e-10)

    def test_cap_of_one_over_n_puts_every_unit_at_its_cap(self):
        # At 1/N only c_i/N for every unit sums to one. Scaling the one unit
        # left after the others are capped by the mass they leave, 1 - held/N,
        # misses its cap by rounding: by 3.1e-15 relative on this draw
        # (n=33, N=76).
        rng = np.random.default_rng(284)
        raw = rng.lognormal(0.0, 1.0, 33)
        counts = rng.integers(1, 4, 33)
        assert counts.sum() == 76
        weights = BalancingWeights(raw / raw.sum(), np.empty(0), True, 0, 0.0, "ipw")
        capped = cap_weights(weights, 1.0 / 76, counts).weights
        assert np.array_equal(capped, counts * (1.0 / 76))
        assert capped.sum() == pytest.approx(1.0, abs=1e-15)

    def test_cap_above_max_returns_input(self, rng):
        weights = estimate_weights(random_dataset(rng, 30, 1), "ipw")
        assert cap_weights(weights, weights.max_share) is weights
