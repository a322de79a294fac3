"""Hankel lifting of single snapshots and SVD subspace extraction.

A single observation carries no sample covariance, so each sub-array
vector is lifted into a Hankel matrix whose columns are sliding windows.
For noiseless data the Hankel matrix of a sum of K complex exponentials
has rank exactly K, which restores the signal/noise subspace split that
covariance methods get from multiple snapshots.  MUSIC decomposes each
sub-array's lifting on its own; ESPRIT decomposes both liftings stacked,
so its signal basis keeps the phase between the sub-arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSnapshot


@dataclass(frozen=True)
class SubspacePair:
    """Orthonormal signal/noise bases plus the singular values behind them."""

    signal: np.ndarray
    noise: np.ndarray
    singular_values: np.ndarray


def default_pencil(n_elements: int) -> int:
    """Default pencil parameter, half the sub-array length."""
    return n_elements // 2


def hankel(y: np.ndarray, pencil: int) -> np.ndarray:
    """Hankel lifting of a length-M vector into ``(pencil+1, M-pencil)``.

    Entry ``[i, j]`` is ``y[i + j]``; every window of ``pencil + 1``
    consecutive samples appears as one column.  The entries are gathered
    through an index array cached per shape, so the result is a fresh
    copy of the samples.
    """
    y = np.asarray(y).ravel()
    m = y.size
    if not 1 <= pencil < m:
        raise ValueError(f"pencil must be in [1, {m - 1}], got {pencil}")
    return y[_hankel_index(m, pencil)]


@functools.lru_cache(maxsize=16)
def _hankel_index(m: int, pencil: int) -> np.ndarray:
    """Read-only ``(pencil+1, m-pencil)`` array whose entry ``[i, j]`` is ``i + j``."""
    index = np.add.outer(np.arange(pencil + 1), np.arange(m - pencil))
    index.setflags(write=False)
    return index


def split_subspaces(h: np.ndarray, num_sources: int) -> SubspacePair:
    """SVD split of a lifted matrix into signal and noise subspaces.

    ``signal`` holds the ``num_sources`` dominant left singular vectors,
    ``noise`` the full orthogonal complement (``rows - num_sources``
    columns).  Every estimator reaches its snapshot through here, so a
    NaN or infinite sample is reported once, as :class:`NonFiniteSnapshot`.
    """
    rows, cols = h.shape
    if not 1 <= num_sources < min(rows, cols):
        raise ValueError(
            f"num_sources must be in [1, {min(rows, cols) - 1}], got {num_sources}"
        )
    if not np.isfinite(h).all():
        raise NonFiniteSnapshot("snapshot holds a NaN or infinite sample")
    u, s, _ = np.linalg.svd(h, full_matrices=True)
    return SubspacePair(
        signal=u[:, :num_sources], noise=u[:, num_sources:], singular_values=s
    )


def stacked_subspace(
    y1: np.ndarray, y2: np.ndarray, pencil: int, num_sources: int
) -> SubspacePair:
    """Joint subspace of both sub-arrays' Hankel liftings.

    The two Hankel matrices are stacked row-wise and decomposed by one
    SVD, so the signal basis preserves the inter-sub-array phase of each
    source.
    """
    h = np.vstack([hankel(y1, pencil), hankel(y2, pencil)])
    return split_subspaces(h, num_sources)
