"""Failure taxonomy shared by the estimators and the experiment harness.

Estimator failures are recoverable per-trial events: the Monte Carlo driver
catches :class:`EstimationError` and records a miss instead of crashing.
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
