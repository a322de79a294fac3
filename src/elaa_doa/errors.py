"""Failure taxonomy shared by the estimators and the experiment harness.

Estimator failures are recoverable per-trial events: the chunk estimators
return a trial's :class:`EstimationError` as its outcome, the one-trial
estimators raise it, and the Monte Carlo driver records a miss instead of
crashing.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for recoverable per-trial estimator failures."""


class UnderResolved(EstimationError):
    """A spectrum exposed fewer local maxima than requested sources."""


class IllConditioned(EstimationError):
    """A least-squares subspace selection was numerically rank deficient."""


class AmbiguousDealias(EstimationError):
    """Two alias candidates explain the coarse estimate almost equally well."""


class ParallelBearings(EstimationError):
    """Bearing lines are too close to parallel to intersect stably."""


class BehindArray(EstimationError):
    """A bearing-line intersection landed at a non-positive range."""


class Unpaired(EstimationError):
    """The near-field localizer left a target without a position."""


class NonFiniteSnapshot(EstimationError):
    """The observation holds a NaN or infinite sample."""


class ScenarioError(ValueError):
    """A scenario file or specification failed validation."""


def unwrap(outcome):
    """One trial's outcome of a chunk estimator: its value, or its failure raised.

    Chunk estimators return one outcome per trial, the estimate or the
    :class:`EstimationError` that ended the trial, so a failure stays
    with its own trial.
    """
    if isinstance(outcome, EstimationError):
        raise outcome
    return outcome
