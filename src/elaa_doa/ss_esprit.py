"""Single-snapshot ESPRIT across the full sparse aperture.

The rotational-invariance trick is applied twice to the same stacked
Hankel signal subspace, whose rows form one block per sub-array:

* a coarse shift of one element spacing inside each block, which is
  unambiguous for spacings up to half a wavelength but only as accurate
  as one sub-array;
* a fine shift equal to the sub-array center separation (top block vs
  bottom block), which inherits the full sparse-aperture accuracy but
  wraps many times across the visible region.

Each eigenvalue is explained by a lattice of alias rungs (about 316 for
the reference geometry's fine shift).  One bracketed rule picks in both
lattices: the coarse angle is the coarse rung nearest broadside, the
fine angle the fine rung nearest the coarse angle.  Eigenvalues of the
two shift operators are paired by joint diagonalization so the
selection stays per source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousDealias, IllConditioned
from .geometry import ArrayConfig
from .signal_model import Snapshot, split_ulas
from .subspace import default_pencil, stacked_subspace

COND_LIMIT = 1e12
ASIN_CLAMP = 1e-9
# The alias-tie threshold is tight: the coarse single-shift estimate has
# a heavy two-source error tail at moderate SNR, and refusing every
# near-half-spacing decision turns a slice of one-bin errors (one fine
# spacing, about 0.36 degrees for the reference geometry) into hard
# failures.  Flagging only near-exact ties keeps those trials as ordinary
# errors, which downstream accuracy metrics already account for.
TIE_FRACTION = 0.02


@dataclass(frozen=True)
class DealiasReport:
    """Per-source audit of the alias selection."""

    alias_index: int
    disagreement: float
    margin: float


@dataclass(frozen=True)
class EspritDiagnostics:
    coarse_angles: np.ndarray
    pairing_quality: float
    reports: tuple[DealiasReport, ...]


def solve_psi(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Least-squares rotation ``(Ua^H Ua)^-1 Ua^H Ub`` between two row selections."""
    if np.linalg.norm(ua) < 1e-300 or np.linalg.cond(ua) > COND_LIMIT:
        raise IllConditioned("shifted subspace selection is rank deficient")
    gram = ua.conj().T @ ua
    return np.linalg.solve(gram, ua.conj().T @ ub)


def alias_rungs(xi: complex, ratio: float, lo: int, hi: int) -> list[tuple[int, float]]:
    """(alias index, angle) of the visible rungs of ``xi`` in ``[lo, hi]``, ascending.

    For a baseline of ``ratio`` wavelengths, the phase fraction
    ``nu = arg(xi) / (2*pi)`` is explained by every integer alias ``q``
    with ``|(nu + q) / ratio| <= 1``; rung ``q`` sits at the arcsine of
    that direction cosine.  Arguments within ``ASIN_CLAMP`` past the
    arcsine domain edge are clamped to +-90 degrees.
    """
    if xi == 0:
        raise ValueError("zero eigenvalue has no phase")
    nu = float(np.angle(xi)) / (2.0 * math.pi)
    out = []
    for q in range(max(lo, math.ceil(-ratio - nu)), min(hi, math.floor(ratio - nu)) + 1):
        arg = (nu + q) / ratio
        if abs(arg) > 1.0:
            if abs(arg) <= 1.0 + ASIN_CLAMP:
                arg = math.copysign(1.0, arg)
            else:
                continue
        out.append((q, math.asin(arg)))
    return out


def _bracket(xi: complex, ratio: float, theta: float) -> list[tuple[int, float]]:
    """The visible rungs ``q0 - 1 .. q0 + 2`` of ``xi`` around angle ``theta``.

    Rung angles grow with ``q``, and rung ``q`` lies at or below ``theta`` when
    ``q <= ratio * sin(theta) - nu``: rungs ``q0``, the floor of that bound, and
    ``q0 + 1`` hold the rung nearest ``theta``, their neighbours the runner-up.
    """
    q0 = math.floor(ratio * math.sin(theta) - float(np.angle(xi)) / (2.0 * math.pi))
    return alias_rungs(xi, ratio, q0 - 1, q0 + 2)


def _coarse_angle(xi: complex, ratio: float) -> float:
    """The rung of ``xi`` nearest broadside (the lower one on an exact +-tie)."""
    rungs = _bracket(xi, ratio, 0.0)
    if not rungs:
        raise IllConditioned("coarse eigenvalue has no visible candidate")
    return min((abs(angle), angle) for _, angle in rungs)[1]


def _min_eigengap(evals: np.ndarray) -> float:
    if len(evals) < 2:
        return math.inf
    gaps = [
        abs(evals[i] - evals[j])
        for i in range(len(evals))
        for j in range(i + 1, len(evals))
    ]
    return min(gaps)


def pair_eigenvalues(signal_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Matched (coarse, fine) eigenvalues via joint diagonalization.

    The coarse rotation maps each sub-array block without its last row
    onto the block without its first row; the fine rotation maps the top
    block onto the bottom block.  One rotation is eigendecomposed; its
    eigenvector basis is then applied to the other rotation, whose
    diagonal gives the eigenvalue belonging to each source.  The
    decomposition base is whichever rotation has the wider minimum
    eigenvalue separation: both share eigenvectors in the ideal model,
    but a noisy eigenbasis taken from a near-degenerate spectrum
    scrambles the sources, and closely spaced directions that collapse
    the short-baseline spectrum are usually far apart once the long
    baseline wraps them around the unit circle.  The returned quality is
    the off-diagonal Frobenius energy of the transformed rotation
    relative to its diagonal: near zero when both rotations truly share
    eigenvectors.
    """
    k = signal_basis.shape[1]
    blocks = signal_basis.reshape(2, -1, k)
    psi_c = solve_psi(blocks[:, :-1].reshape(-1, k), blocks[:, 1:].reshape(-1, k))
    psi_f = solve_psi(blocks[0], blocks[1])
    evals_c, evecs_c = np.linalg.eig(psi_c)
    evals_f, evecs_f = np.linalg.eig(psi_f)
    if _min_eigengap(evals_c) >= _min_eigengap(evals_f):
        base_vecs, base_vals, other = evecs_c, evals_c, psi_f
    else:
        base_vecs, base_vals, other = evecs_f, evals_f, psi_c
    if np.linalg.cond(base_vecs) > COND_LIMIT:
        raise IllConditioned("rotation eigenbasis is singular")
    m = np.linalg.solve(base_vecs, other @ base_vecs)
    transformed = np.diag(m).copy()
    off = m - np.diag(np.diag(m))
    denom = max(float(np.linalg.norm(np.diag(m)) ** 2), 1e-300)
    quality = float(np.linalg.norm(off) ** 2) / denom
    if other is psi_f:
        coarse, fine = base_vals, transformed
    else:
        coarse, fine = transformed, base_vals
    return coarse, fine, quality


def dealias(
    coarse_angles: np.ndarray, fine_eigs: np.ndarray, ratio: float
) -> tuple[np.ndarray, tuple[DealiasReport, ...]]:
    """Pick, per source, the fine alias rung nearest the coarse angle.

    ``ratio`` is the fine baseline in wavelengths.  The picks and margins
    from the four bracketing rungs equal those of a scan of the whole
    lattice.  Raises :class:`AmbiguousDealias` when the two best rungs
    sit within ``TIE_FRACTION`` of the local rung spacing of each other
    in distance to the coarse estimate.  Angles are returned sorted
    ascending with their reports aligned.
    """
    if len(coarse_angles) != len(fine_eigs):
        raise ValueError("need one coarse angle per fine eigenvalue")
    picks = []
    for theta_c, xi in zip(coarse_angles, fine_eigs):
        rungs = _bracket(xi, ratio, theta_c)
        if not rungs:
            raise AmbiguousDealias("no visible-region candidate for eigenvalue")
        angles = np.array([angle for _, angle in rungs])
        dist = np.abs(angles - theta_c)
        order = np.argsort(dist)
        best = int(order[0])
        if len(angles) > 1:
            second = int(order[1])
            spacing = float(np.min(np.abs(np.delete(angles, best) - angles[best])))
            margin = float(dist[second] - dist[best])
            if margin < TIE_FRACTION * spacing:
                raise AmbiguousDealias(
                    f"alias tie: margin {margin:.3e} rad below "
                    f"{TIE_FRACTION:.0%} of spacing {spacing:.3e} rad"
                )
        else:
            margin = math.inf
        picks.append(
            (
                float(angles[best]),
                DealiasReport(
                    alias_index=rungs[best][0],
                    disagreement=float(dist[best]),
                    margin=margin,
                ),
            )
        )
    picks.sort(key=lambda p: p[0])
    return np.array([p[0] for p in picks]), tuple(p[1] for p in picks)


def estimate_doa_esprit(
    snap: Snapshot,
    cfg: ArrayConfig,
    num_sources: int,
    pencil: int | None = None,
) -> tuple[np.ndarray, EspritDiagnostics]:
    """Far-field DOAs from one snapshot, radians, sorted ascending.

    Returns the dealiased fine-shift angles together with diagnostics:
    the coarse angles, the joint-diagonalization quality and the per
    source dealiasing reports.
    """
    m = cfg.elements_per_ula
    pencil = default_pencil(m) if pencil is None else pencil
    # the fine selection keeps pencil + 1 rows, and the stacked Hankel
    # matrix needs one noise dimension among its m - pencil columns
    limit = min(pencil + 1, m - pencil - 1)
    if not 1 <= num_sources <= limit:
        raise ValueError(f"num_sources must be in [1, {limit}] for pencil {pencil}")
    y1, y2 = split_ulas(snap.y)
    sub = stacked_subspace(y1, y2, pencil, num_sources)
    coarse_eigs, fine_eigs, quality = pair_eigenvalues(sub.signal)
    coarse_ratio = cfg.spacing / cfg.wavelength
    coarse_angles = np.array([_coarse_angle(xi, coarse_ratio) for xi in coarse_eigs])
    angles, reports = dealias(coarse_angles, fine_eigs, cfg.center_separation / cfg.wavelength)
    diag = EspritDiagnostics(
        coarse_angles=coarse_angles, pairing_quality=quality, reports=reports
    )
    return angles, diag
