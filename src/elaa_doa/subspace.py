"""Hankel lifting of single snapshots and SVD subspace extraction.

A single observation carries no sample covariance, so each sub-array
vector is lifted into a Hankel matrix whose columns are sliding windows.
For noiseless data the Hankel matrix of a sum of K complex exponentials
has rank exactly K, which restores the signal/noise subspace split that
covariance methods get from multiple snapshots.  MUSIC decomposes each
sub-array's lifting on its own; ESPRIT decomposes both liftings stacked,
so its signal basis keeps the phase between the sub-arrays.

Every function takes a leading trial axis (or several): a Monte Carlo
chunk of snapshots is lifted through one cached index array and split
by one stacked SVD, whose factors are bit-identical to one SVD per
matrix.  A NaN or infinite sample fails only its own matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSnapshot


@dataclass(frozen=True)
class SubspacePair:
    """Orthonormal signal/noise bases plus the singular values behind them.

    The arrays may carry leading axes, one decomposition per entry.
    ``finite`` marks, over those axes, the entries whose lifted matrix
    held only finite samples (a scalar marks them all); the others are
    decompositions of a zero stand-in and carry no estimate.
    """

    signal: np.ndarray
    noise: np.ndarray
    singular_values: np.ndarray
    finite: np.ndarray | bool = True

    @functools.cached_property
    def projector_sums(self) -> np.ndarray:
        """Diagonal sums ``c_m = trace(P, offset=m)``, ``m < n``, of each noise projector.

        ``P = U_noise U_noise^H`` is ``n x n``; the sums are the
        coefficients of the MUSIC null polynomial, worked out once per
        decomposition and shared by every scan of it.
        """
        n = self.noise.shape[-2]
        lead = self.noise.shape[:-2]
        # Laid out with rows of 2n + 1 entries, element (i, i + m) of P lands in
        # column m of row i, and the zero padding fills the columns past the
        # diagonal's end, so one column sum gives each c_m.
        padded = np.zeros(lead + (n + 1, 2 * n), dtype=complex)
        padded[..., :n, :n] = self.noise @ self.noise.conj().swapaxes(-1, -2)
        rows = padded.reshape(lead + (-1,))[..., : n * (2 * n + 1)].reshape(lead + (n, 2 * n + 1))
        return rows[..., :n].sum(axis=-2)

    def failures(self) -> list[NonFiniteSnapshot | None]:
        """Per entry of the first leading axis (a trial), its failure or None.

        A trial fails with :class:`NonFiniteSnapshot` when any of its
        matrices held a NaN or infinite sample.
        """
        finite = self.finite
        if np.ndim(finite) == 0:
            finite = np.full(self.singular_values.shape[:-1], finite)
        return [
            None if ok else NonFiniteSnapshot("snapshot holds a NaN or infinite sample")
            for ok in finite.reshape(len(finite), -1).all(axis=1).tolist()
        ]


def default_pencil(n_elements: int) -> int:
    """Default pencil parameter, half the sub-array length."""
    return n_elements // 2


def max_sources(n_elements: int) -> int:
    """Most sources the default pencil resolves on a sub-array, ``(n_elements - 1) // 2``.

    The Hankel matrices keep a noise dimension after the signal subspace,
    and ESPRIT's fine selection keeps a row per source.
    """
    return (n_elements - 1) // 2


def hankel(y: np.ndarray, pencil: int) -> np.ndarray:
    """Hankel lifting of length-M vectors into ``(pencil+1, M-pencil)`` matrices.

    Entry ``[..., i, j]`` is ``y[..., i + j]``; every window of
    ``pencil + 1`` consecutive samples appears as one column, and leading
    axes of ``y`` stay leading axes of the result.  The entries are
    gathered through an index array cached per shape, so the result is a
    fresh copy of the samples.
    """
    y = np.asarray(y)
    m = y.shape[-1]
    if not 1 <= pencil < m:
        raise ValueError(f"pencil must be in [1, {m - 1}], got {pencil}")
    return y[..., _hankel_index(m, pencil)]


@functools.lru_cache(maxsize=16)
def _hankel_index(m: int, pencil: int) -> np.ndarray:
    """Read-only ``(pencil+1, m-pencil)`` array whose entry ``[i, j]`` is ``i + j``."""
    index = np.add.outer(np.arange(pencil + 1), np.arange(m - pencil))
    index.setflags(write=False)
    return index


def split_subspaces(h: np.ndarray, num_sources: int) -> SubspacePair:
    """SVD split of lifted matrices, ``(..., rows, cols)``, into signal and noise subspaces.

    ``signal`` holds the ``num_sources`` dominant left singular vectors,
    ``noise`` the full orthogonal complement (``rows - num_sources``
    columns).  Every estimator reaches its snapshots through here, so a
    NaN or infinite sample is found once: its matrix is decomposed as
    zeros and marked in ``finite`` (see :meth:`SubspacePair.failures`).
    """
    rows, cols = h.shape[-2:]
    if not 1 <= num_sources < min(rows, cols):
        raise ValueError(
            f"num_sources must be in [1, {min(rows, cols) - 1}], got {num_sources}"
        )
    finite = np.isfinite(h).all(axis=(-2, -1))
    if not finite.all():
        h = np.where(finite[..., None, None], h, 0.0)
    u, s, _ = np.linalg.svd(h, full_matrices=True)
    return SubspacePair(
        signal=u[..., :num_sources],
        noise=u[..., num_sources:],
        singular_values=s,
        finite=finite,
    )


def stacked_subspace(
    y1: np.ndarray, y2: np.ndarray, pencil: int, num_sources: int
) -> SubspacePair:
    """Joint subspace of both sub-arrays' Hankel liftings.

    The two Hankel matrices are stacked row-wise and decomposed by one
    SVD, so the signal basis preserves the inter-sub-array phase of each
    source.  Leading axes of ``y1`` and ``y2`` are trials.
    """
    h = np.concatenate([hankel(y1, pencil), hankel(y2, pencil)], axis=-2)
    return split_subspaces(h, num_sources)
