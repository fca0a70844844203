"""Monte-Carlo study: data-generating process, scenarios, bias/RMSE tables.

The generated selection problem has ten partially correlated covariates, a
treatment that is linear in all of them plus normal noise, and an outcome
with a constant unit treatment effect. Scenario cells vary the sample size,
the selection-noise scale, the outcome nonlinearity and the covariate set
handed to the weighting step; each cell aggregates bias and RMSE in percent
of the true effect over independent replications.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, standardize
from .diagnostics import balance_report
from .drf import fit_wls
from .errors import EbctError, ScenarioDegenerate
from .solver import solve_batch
from .weighting import estimate_weights

SAMPLE_SIZES = (200, 500, 1000)
SELECTION_SCALES = (4.0, 2.0)
OUTCOME_ETAS = (1.0, 1.25, 1.5)
SPECIFICATIONS = (1, 2, 3)

# Methods a scenario compares, in default order, with their table labels.
METHODS = {"unweighted": "Unweighted", "ipw": "IPW", "ebct": "EBCT"}

TRUE_EFFECT = 1.0

# Sample rows a group of replications draws and solves together: a group
# holds GROUP_ROWS // n replications, at least one. Fixed, never derived from
# the worker count, so the output bytes do not depend on --jobs. Every stacked
# layer works through its stack in bounded blocks, so a group's memory is
# about that of its draws and its balance columns.
GROUP_ROWS = 8000

# Treatment equation coefficients on X1..X10.
_TREATMENT_COEF = np.array([1.0, 0.6, 1.2, 1.0, 0.5, 1.0, 0.8, 0.8, 0.8, 0.8])

# Outcome noise scale, read as a standard deviation.
_OUTCOME_NOISE_SD = 5.0

# The labels of every drawn sample, one copy each, shared by the draws a
# group holds: a tuple of ids per draw would be a sizable part of the group.
_COLUMN_NAMES = ("T",) + tuple(f"X{j}" for j in range(1, 11)) + ("Y",)
_UNIT_IDS = {n: tuple(range(n)) for n in SAMPLE_SIZES}

# Covariance of the jointly normal block X7..X10.
_NORMAL_BLOCK_COV = np.full((4, 4), 0.2) + 0.8 * np.eye(4)
_NORMAL_BLOCK_CHOL = np.linalg.cholesky(_NORMAL_BLOCK_COV)


def replication_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent generator for one replication.

    Streams derive from (master_seed, replicate index) through the seed
    sequence spawn mechanism, so results never depend on scheduling or
    thread count.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(replicate_index,))
    )


def cell_seed(seed: int, index: int) -> int:
    """Integer master seed of the scenario cell at ``index`` under a base seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def gen_covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the ten-covariate design.

    X1 ~ U[0,5]; X2 ~ chi-squared(2); X3..X5 are indicators cutting one
    latent standard normal at -1, 0 and 1 (the upper interval is the omitted
    reference); X6 ~ Bernoulli(0.5); X7..X10 are jointly standard normal
    with pairwise covariance 0.2.
    """
    x = np.empty((n, 10))
    x[:, 0] = rng.uniform(0.0, 5.0, size=n)
    x[:, 1] = rng.chisquare(2.0, size=n)
    latent = rng.standard_normal(n)
    x[:, 2] = latent <= -1.0
    x[:, 3] = (latent > -1.0) & (latent <= 0.0)
    x[:, 4] = (latent > 0.0) & (latent <= 1.0)
    x[:, 5] = rng.binomial(1, 0.5, size=n)
    x[:, 6:10] = rng.standard_normal((n, 4)) @ _NORMAL_BLOCK_CHOL.T
    return x


def gen_treatment(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Treatment intensity: linear index in X1..X10 plus sigma * N(0,1) noise."""
    if x.shape[1] != 10:
        raise ValueError("expected 10 covariate columns")
    return x @ _TREATMENT_COEF + sigma * rng.standard_normal(x.shape[0])


def gen_outcome(x: np.ndarray, t: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Outcome with unit treatment effect: (X1+X2)^eta + X5 + X6 + X7 + T + noise.

    ``gen_covariates`` draws X1 and X2 non-negative, so the power is defined.
    """
    if x.shape[1] != 10:
        raise ValueError("expected 10 covariate columns")
    base = x[:, 0] + x[:, 1]
    noise = rng.normal(0.0, _OUTCOME_NOISE_SD, size=x.shape[0])
    return base**eta + x[:, 4] + x[:, 5] + x[:, 6] + t + noise


def apply_specification(x: np.ndarray, spec: int) -> np.ndarray:
    """Covariate matrix handed to the weighting step.

    Specification 1 is the correct set; 2 mis-measures X1 and X7 (square
    root and square); 3 additionally drops X2, putting X8 squared in its
    place.
    """
    if x.shape[1] != 10:
        raise ValueError("expected 10 covariate columns")
    if spec == 1:
        return x.copy()
    out = x.copy()
    out[:, 0] = np.sqrt(x[:, 0])
    out[:, 6] = x[:, 6] ** 2
    if spec == 2:
        return out
    if spec == 3:
        out[:, 1] = x[:, 7] ** 2
        return out
    raise ValueError(f"unknown specification {spec!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell."""

    n: int
    sigma: float
    eta: float
    spec: int
    replications: int = 1000
    methods: tuple = tuple(METHODS)
    master_seed: int = 0

    def __post_init__(self):
        if self.n not in SAMPLE_SIZES:
            raise ValueError(f"n must be one of {SAMPLE_SIZES}")
        if float(self.sigma) not in SELECTION_SCALES:
            raise ValueError(f"sigma must be one of {SELECTION_SCALES}")
        if float(self.eta) not in OUTCOME_ETAS:
            raise ValueError(f"eta must be one of {OUTCOME_ETAS}")
        if self.spec not in SPECIFICATIONS:
            raise ValueError(f"spec must be one of {SPECIFICATIONS}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        methods = tuple(self.methods)
        unknown = set(methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if len(set(methods)) != len(methods):
            raise ValueError(f"methods must not repeat, got {list(methods)}")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-method outcome of a single replication."""

    estimate: float
    max_abs_correlation: float
    max_weight_share: float
    failed: bool = False

    @classmethod
    def failure(cls) -> "ReplicationRecord":
        return cls(
            estimate=float("nan"),
            max_abs_correlation=float("nan"),
            max_weight_share=float("nan"),
            failed=True,
        )


def _draw(config: ScenarioConfig, replicate_index: int) -> Dataset:
    """The replication's sample, with the specification's covariate set."""
    rng = replication_rng(config.master_seed, replicate_index)
    x = gen_covariates(config.n, rng)
    t = gen_treatment(x, config.sigma, rng)
    y = gen_outcome(x, t, config.eta, rng)
    return Dataset(
        treatment=t,
        covariates=apply_specification(x, config.spec),
        outcome=y,
        column_names=_COLUMN_NAMES,
        unit_ids=_UNIT_IDS[config.n],
    )


def _stacked(step, items) -> list:
    """One outcome per item of a step that takes a sequence of items.

    ``step(items)`` runs once over the whole sequence. When it raises, or
    there is only one item, ``step([item])[0]`` runs for each item alone, and
    the EbctError or LinAlgError its own call raises is its outcome, so a
    failure stays with its item.
    """
    if len(items) > 1:
        try:
            return step(items)
        except (EbctError, ValueError, np.linalg.LinAlgError):
            pass
    outcomes = []
    for item in items:
        try:
            outcomes.append(step([item])[0])
        except (EbctError, np.linalg.LinAlgError) as err:
            outcomes.append(err)
    return outcomes


def _ebct_weights(datasets: Sequence[Dataset]) -> list:
    """EBCT weights for every dataset from one standardization and one stacked solve.

    Each entry is the dataset's BalancingWeights or the exception that
    standardizing or solving it raised.
    """
    matrices = _stacked(standardize, datasets)
    outcomes = list(matrices)
    slots = [slot for slot, G in enumerate(outcomes) if not isinstance(G, Exception)]
    if len(slots) < len(outcomes):
        matrices = [outcomes[slot] for slot in slots]
    for slot, outcome in zip(slots, solve_batch(matrices)):
        outcomes[slot] = outcome if isinstance(outcome, Exception) else outcome[0]
    return outcomes


def _slopes(pairs: Sequence[tuple]) -> list:
    """Effect slopes of (dataset, weights) pairs from one ``fit_wls`` call
    over the B x n stack of their regressions on [1, T]."""
    design = np.ones((len(pairs), pairs[0][0].n, 2))
    design[:, :, 1] = [dataset.treatment for dataset, _ in pairs]
    outcomes = np.stack([dataset.outcome for dataset, _ in pairs])
    weights = np.stack([weights.weights for _, weights in pairs])
    return fit_wls(outcomes, design, weights)[:, 1].tolist()


def _run_replications(config: ScenarioConfig, indices: Sequence[int]) -> list:
    """Records for a group of replications.

    Each method runs once over the group's stack: its weights (the EBCT
    problems standardized and solved together), then the effect regressions
    of the replications it weighed in one ``fit_wls`` call and their
    diagnostics in one ``balance_report`` call. When a stacked step raises,
    it is redone one replication at a time, so a replication whose weights
    or fit fail records a failure for that method alone.
    """
    datasets = [_draw(config, index) for index in indices]
    records = [{} for _ in datasets]
    # EBCT first: its stacked solve, the group's largest working set, then
    # holds no other method's weights.
    for method in sorted(config.methods, key=lambda method: method != "ebct"):
        if method == "ebct":
            weightings = _ebct_weights(datasets)
        else:
            weightings = _stacked(lambda group: estimate_weights(group, method), datasets)
        weighed = [slot for slot, w in enumerate(weightings) if not isinstance(w, Exception)]
        slopes = _stacked(_slopes, [(datasets[slot], weightings[slot]) for slot in weighed])
        fitted = {
            slot: slope
            for slot, slope in zip(weighed, slopes)
            if not isinstance(slope, Exception)
        }
        if not fitted:
            continue
        reports = balance_report(
            [weightings[slot] for slot in fitted], [datasets[slot] for slot in fitted]
        )
        for (slot, slope), report in zip(fitted.items(), reports):
            records[slot][method] = ReplicationRecord(
                estimate=slope,
                max_abs_correlation=report.max_abs_correlation,
                max_weight_share=report.max_weight_share,
            )
    failed = ReplicationRecord.failure()
    return [{method: row.get(method, failed) for method in config.methods} for row in records]


def group_replications(n: int) -> int:
    """Replications per group of a cell whose samples have n units."""
    return max(1, GROUP_ROWS // n)


def run_replication(config: ScenarioConfig, replicate_index: int) -> dict:
    """One DGP draw followed by weighting and a linear effect regression.

    For each method: estimate weights on the specification's covariate set,
    regress the outcome on an intercept and the treatment by weighted least
    squares, and record the slope together with balance diagnostics. A
    method failure (non-convergence, infeasibility) is recorded without
    aborting the replication. Deterministic given (master_seed, index), and
    equal to the record ``run_scenario`` computes for the same index.
    """
    return _run_replications(config, [replicate_index])[0]


@dataclass(frozen=True)
class MethodSummary:
    """Bias and RMSE in percent of the true effect, plus balance averages."""

    bias_pct: float
    rmse_pct: float
    mean_max_abs_correlation: float
    mean_max_weight_share: float
    failures: int
    estimates: np.ndarray


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    per_method: dict


def _summarize(estimates, correlations, shares, failures) -> MethodSummary:
    estimates = np.asarray(estimates, dtype=float)
    errors = estimates - TRUE_EFFECT
    return MethodSummary(
        bias_pct=float(abs(errors.mean()) * 100.0),
        rmse_pct=float(np.sqrt(np.mean(errors**2)) * 100.0),
        mean_max_abs_correlation=float(np.mean(correlations)),
        mean_max_weight_share=float(np.mean(shares)),
        failures=failures,
        estimates=estimates,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Aggregate one cell over its replications.

    Replications run in groups of ``group_replications(n)``, up to
    ``GROUP_ROWS`` sample rows: a whole n=200 cell of 30 replications, 16 at
    n=500, 8 at n=1000. Each method weighs, fits and diagnoses a group as
    one stack, its EBCT problems in one stacked Newton run, and every stacked
    layer bounds its working memory to a few blocks of rows beside its
    inputs and outputs. The group is dropped before the next is drawn, so
    memory does not grow with the replication count. Failed replicates are
    excluded per method; the scenario aborts if any method loses more than
    5% of them.
    """
    collected = {
        method: {"estimates": [], "correlations": [], "shares": [], "failures": 0}
        for method in config.methods
    }
    size = group_replications(config.n)
    for start in range(0, config.replications, size):
        stop = min(start + size, config.replications)
        for records in _run_replications(config, range(start, stop)):
            for method, record in records.items():
                bucket = collected[method]
                if record.failed:
                    bucket["failures"] += 1
                else:
                    bucket["estimates"].append(record.estimate)
                    bucket["correlations"].append(record.max_abs_correlation)
                    bucket["shares"].append(record.max_weight_share)

    per_method = {}
    for method, bucket in collected.items():
        if bucket["failures"] > 0.05 * config.replications:
            raise ScenarioDegenerate(
                f"method {method!r} failed {bucket['failures']} of "
                f"{config.replications} replications"
            )
        per_method[method] = _summarize(
            bucket["estimates"], bucket["correlations"], bucket["shares"], bucket["failures"]
        )
    return ScenarioResult(config=config, per_method=per_method)


def paper_grid(
    sizes: Sequence[int] = SAMPLE_SIZES,
    replications: int = 1000,
    methods: Sequence[str] = tuple(METHODS),
    seed: int = 0,
) -> list:
    """The full scenario cross: sizes x selection scales x etas x specs.

    Every cell gets an independent integer master seed derived from the base
    seed and the cell's position, so regenerating the grid with the same seed
    reproduces every cell bit for bit.

    Raises:
        ValueError: a sample size repeats, which would run every cell of that
            size twice under different seeds.
    """
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sample sizes must not repeat, got {list(sizes)}")
    configs = []
    index = 0
    for n in sizes:
        for sigma in SELECTION_SCALES:
            for eta in OUTCOME_ETAS:
                for spec in SPECIFICATIONS:
                    configs.append(
                        ScenarioConfig(
                            n=n,
                            sigma=sigma,
                            eta=eta,
                            spec=spec,
                            replications=replications,
                            methods=tuple(methods),
                            master_seed=cell_seed(seed, index),
                        )
                    )
                    index += 1
    return configs


def run_grid(configs: Sequence[ScenarioConfig], jobs: int = 1) -> list:
    """Run scenario cells, optionally across processes.

    Cells are independent; results come back in input order regardless of
    worker count, so output files do not depend on parallelism. The pool
    never starts more workers than there are cells.
    """
    configs = list(configs)
    if jobs <= 1 or len(configs) <= 1:
        return [run_scenario(config) for config in configs]
    # Imported here: only a parallel grid needs the pool, and its import slows every CLI start.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as executor:
        return list(executor.map(run_scenario, configs))


def write_grid_csv(results: Sequence[ScenarioResult], path) -> None:
    """One row per scenario and method, full-precision numerics."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "n",
                "sigma",
                "eta",
                "spec",
                "method",
                "bias_pct",
                "rmse_pct",
                "mean_max_abs_corr",
                "mean_max_weight_share",
                "failures",
            ]
        )
        for result in results:
            config = result.config
            for method in config.methods:
                summary = result.per_method[method]
                writer.writerow(
                    [
                        config.n,
                        repr(config.sigma),
                        repr(config.eta),
                        config.spec,
                        method,
                        repr(summary.bias_pct),
                        repr(summary.rmse_pct),
                        repr(summary.mean_max_abs_correlation),
                        repr(summary.mean_max_weight_share),
                        summary.failures,
                    ]
                )


def render_grid_table(results: Sequence[ScenarioResult]) -> str:
    """Text table per sample size: bias/RMSE columns over the (sigma, eta) cross.

    The unweighted row ignores the weighting specification, so it is printed
    once (from the specification-1 cells) above the per-specification blocks.
    """
    by_key = {}
    sizes = []
    for result in results:
        config = result.config
        if config.n not in sizes:
            sizes.append(config.n)
        by_key[(config.n, config.sigma, config.eta, config.spec)] = result

    col_pairs = [
        (sigma, eta) for sigma in SELECTION_SCALES for eta in OUTCOME_ETAS
    ]
    label_width = 18
    cell_width = 9

    def row_for(n, spec, method) -> str:
        cells = []
        for sigma, eta in col_pairs:
            result = by_key.get((n, sigma, eta, spec))
            summary = result.per_method.get(method) if result else None
            if summary is None:
                cells.append("." .rjust(cell_width) * 2)
            else:
                cells.append(
                    f"{summary.bias_pct:>{cell_width}.2f}{summary.rmse_pct:>{cell_width}.2f}"
                )
        return METHODS[method].ljust(label_width) + "".join(cells)

    lines = []
    for n in sizes:
        specs_present = sorted(
            {key[3] for key in by_key if key[0] == n}
        )
        methods_present = []
        for key, result in by_key.items():
            if key[0] == n:
                for method in result.config.methods:
                    if method not in methods_present:
                        methods_present.append(method)

        lines.append(f"Simulated bias and RMSE in percent of the true effect (N={n})")
        header = "".ljust(label_width)
        subheader = "".ljust(label_width)
        for sigma, eta in col_pairs:
            header += f"s={sigma:g} e={eta:g}".center(2 * cell_width)
            subheader += "Bias".rjust(cell_width) + "RMSE".rjust(cell_width)
        lines.append(header)
        lines.append(subheader)
        if "unweighted" in methods_present and specs_present:
            lines.append(row_for(n, specs_present[0], "unweighted"))
        for spec in specs_present:
            lines.append(f"Specification {spec}")
            for method in methods_present:
                if method == "unweighted":
                    continue
                lines.append(row_for(n, spec, method))
        lines.append("")
    return "\n".join(lines)
