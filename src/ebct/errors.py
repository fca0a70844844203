"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Optional


class EbctError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(EbctError):
    """Input data contains NaN or infinite entries."""


class ConstantColumn(EbctError):
    """A column has zero sample variance and cannot be standardized."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} is constant (zero sample variance)")


class NonFiniteDual(EbctError):
    """Dual objective overflowed even after max-shifting (pathological multipliers)."""


class NotConverged(EbctError):
    """Solver hit its iteration limit before meeting the gradient tolerance.

    Carries the last iterate so callers may inspect or accept it anyway:
    ``weights`` is a BalancingWeights with ``converged=False``, whose
    ``iterations`` and ``final_gradient_norm`` the message reports. After
    truncation it carries the capped weights instead.
    """

    def __init__(self, weights):
        self.weights = weights
        super().__init__(
            f"no convergence after {weights.iterations} iterations "
            f"(gradient norm {weights.final_gradient_norm:.3e})"
        )


class InfeasibleConstraints(EbctError):
    """Dual diverged; no strictly positive weights satisfy the constraints."""


class SingularHessian(EbctError):
    """Newton system has no Cholesky factor: its Hessian is singular or not finite."""


class ThresholdInfeasible(EbctError):
    """Truncation cap not finite, below 1/n, or too tight for balancing weights.

    In the last case ``certificate`` holds the Farkas direction r = (r_0,
    r_gamma) that proves it: r_0 > sum_i u_i max(0, r_0 + r_gamma.g_i) for
    the per-row caps u and balance columns g_i. Otherwise it is None.
    """

    def __init__(self, message: str, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class RankDeficientDesign(EbctError):
    """Regression design matrix is rank deficient."""


class DegenerateResidual(EbctError):
    """Residual scale is (numerically) zero; conditional density degenerate."""


class ResampleDegenerate(EbctError):
    """Too many bootstrap replicates failed; resampling aborted."""


class ScenarioDegenerate(EbctError):
    """More than 5% of replications failed for some method in a scenario."""


class ParseError(EbctError):
    """A CSV cell could not be parsed as a number, or a row not read at all.

    For a row the CSV reader rejects (a field over its size limit, or a NUL
    character before Python 3.11), ``column`` is None and ``value`` is the
    reader's reason.
    """

    def __init__(self, row: int, column: Optional[str], value: str):
        self.row = row
        self.column = column
        self.value = value
        if column is None:
            super().__init__(f"cannot read row {row}: {value}")
        else:
            super().__init__(f"cannot parse {value!r} in column {column!r}, row {row}")


class MissingColumn(EbctError):
    """A referenced column is absent from the CSV header."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in input header")


class ExtrapolationWarning(UserWarning):
    """Evaluation grid extends beyond the observed treatment range."""
