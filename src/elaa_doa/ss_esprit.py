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

A chunk of snapshots runs as one: one stacked SVD and one stacked set of
rotations, eigendecompositions and condition tests, then the alias
picks trial by trial (:func:`esprit_chunk`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousDealias, EstimationError, IllConditioned, unwrap
from .geometry import ArrayConfig
from .signal_model import split_ulas
from .subspace import default_pencil, max_sources, stacked_subspace

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


def solve_psi(ua: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotations ``(Ua^H Ua)^-1 Ua^H Ub`` between two row selections.

    Leading axes are trials.  Also returns which trials' selection is
    numerically rank deficient (condition number above ``COND_LIMIT``):
    those solve an identity stand-in, so they cannot fail the others.
    """
    ill = (np.linalg.norm(ua, axis=(-2, -1)) < 1e-300) | (np.linalg.cond(ua) > COND_LIMIT)
    if ill.any():
        stand_in = np.eye(*ua.shape[-2:])
        ua = np.where(ill[..., None, None], stand_in, ua)
        ub = np.where(ill[..., None, None], stand_in, ub)
    ua_h = ua.conj().swapaxes(-1, -2)
    return np.linalg.solve(ua_h @ ua, ua_h @ ub), ill


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
    return _rungs(float(np.angle(xi)) / (2.0 * math.pi), ratio, lo, hi)


def _rungs(nu: float, ratio: float, lo: int, hi: int) -> list[tuple[int, float]]:
    """:func:`alias_rungs` of an eigenvalue with phase fraction ``nu``."""
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


def _bracket(nu: float, ratio: float, theta: float) -> list[tuple[int, float]]:
    """The visible rungs ``q0 - 1 .. q0 + 2`` of phase fraction ``nu`` around angle ``theta``.

    Rung angles grow with ``q``, and rung ``q`` lies at or below ``theta`` when
    ``q <= ratio * sin(theta) - nu``: rungs ``q0``, the floor of that bound, and
    ``q0 + 1`` hold the rung nearest ``theta``, their neighbours the runner-up.
    """
    q0 = math.floor(ratio * math.sin(theta) - nu)
    return _rungs(nu, ratio, q0 - 1, q0 + 2)


def _coarse_angle(nu: float, ratio: float) -> float:
    """The rung of phase fraction ``nu`` nearest broadside (the lower one on an exact +-tie)."""
    rungs = _bracket(nu, ratio, 0.0)
    if not rungs:
        raise IllConditioned("coarse eigenvalue has no visible candidate")
    return min((abs(angle), angle) for _, angle in rungs)[1]


def _min_eigengap(evals: np.ndarray) -> np.ndarray:
    """Least distance between two of each trial's eigenvalues (inf for one)."""
    gap = np.full(evals.shape[:-1], math.inf)
    for i, j in itertools.combinations(range(evals.shape[-1]), 2):
        gap = np.minimum(gap, np.abs(evals[..., i] - evals[..., j]))
    return gap


def pair_eigenvalues(signal_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    Leading axes of ``signal_basis`` are trials, and every step runs on
    the whole stack.  A trial whose row selection or eigenbasis fails its
    condition test goes on with identity stand-ins and gets a NaN
    quality; its caller reports it as :class:`IllConditioned`.
    """
    *lead, rows, k = signal_basis.shape
    blocks = signal_basis.reshape(-1, 2, rows // 2, k)
    trials = len(blocks)
    psi_c, ill_c = solve_psi(
        blocks[:, :, :-1].reshape(trials, -1, k), blocks[:, :, 1:].reshape(trials, -1, k)
    )
    psi_f, ill_f = solve_psi(blocks[:, 0], blocks[:, 1])
    evals_c, evecs_c = np.linalg.eig(psi_c)
    evals_f, evecs_f = np.linalg.eig(psi_f)
    on_c = (_min_eigengap(evals_c) >= _min_eigengap(evals_f))[:, None]
    base_vecs = np.where(on_c[..., None], evecs_c, evecs_f)
    base_vals = np.where(on_c, evals_c, evals_f)
    other = np.where(on_c[..., None], psi_f, psi_c)
    singular = np.linalg.cond(base_vecs) > COND_LIMIT
    if singular.any():
        base_vecs = np.where(singular[:, None, None], np.eye(k), base_vecs)
    m = np.linalg.solve(base_vecs, other @ base_vecs)
    transformed = np.diagonal(m, axis1=1, axis2=2).copy()
    off = m.copy()
    off[:, np.arange(k), np.arange(k)] = 0.0
    quality = np.full(trials, math.nan)
    for t in np.flatnonzero(~(ill_c | ill_f | singular)).tolist():
        # one norm per trial: a stacked norm sums in another order
        denom = max(float(np.linalg.norm(transformed[t]) ** 2), 1e-300)
        quality[t] = float(np.linalg.norm(off[t]) ** 2) / denom
    coarse = np.where(on_c, base_vals, transformed)
    fine = np.where(on_c, transformed, base_vals)
    shape = tuple(lead)
    return coarse.reshape(shape + (k,)), fine.reshape(shape + (k,)), quality.reshape(shape)


def dealias(
    coarse_angles: list[float], fine_fractions: list[float], ratio: float
) -> tuple[np.ndarray, tuple[DealiasReport, ...]]:
    """Pick, per source, the fine alias rung nearest the coarse angle.

    ``fine_fractions`` are the fine eigenvalues' phase fractions
    ``arg(xi) / (2*pi)``, and ``ratio`` is the fine baseline in
    wavelengths.  The picks and margins from the four bracketing rungs
    equal those of a scan of the whole lattice.  Raises
    :class:`AmbiguousDealias` when the two best rungs sit within
    ``TIE_FRACTION`` of the local rung spacing of each other in distance
    to the coarse estimate.  Angles are returned sorted ascending with
    their reports aligned.
    """
    if len(coarse_angles) != len(fine_fractions):
        raise ValueError("need one coarse angle per fine eigenvalue")
    picks = []
    for theta_c, nu in zip(coarse_angles, fine_fractions):
        rungs = _bracket(nu, ratio, theta_c)
        if not rungs:
            raise AmbiguousDealias("no visible-region candidate for eigenvalue")
        dist = [abs(angle - theta_c) for _, angle in rungs]
        # nearest first, the lower rung on a tie
        best, *rest = sorted(range(len(rungs)), key=dist.__getitem__)
        q, angle = rungs[best]
        if rest:
            spacing = min(abs(other - angle) for i, (_, other) in enumerate(rungs) if i != best)
            margin = dist[rest[0]] - dist[best]
            if margin < TIE_FRACTION * spacing:
                raise AmbiguousDealias(
                    f"alias tie: margin {margin:.3e} rad below "
                    f"{TIE_FRACTION:.0%} of spacing {spacing:.3e} rad"
                )
        else:
            margin = math.inf
        report = DealiasReport(alias_index=q, disagreement=dist[best], margin=margin)
        picks.append((angle, report))
    picks.sort(key=lambda p: p[0])
    return np.array([p[0] for p in picks]), tuple(p[1] for p in picks)


def esprit_chunk(ys: np.ndarray, cfg: ArrayConfig, num_sources: int) -> list:
    """Far-field DOAs of a chunk of snapshots, radians, sorted ascending.

    ``ys`` holds one observation per row.  Returns one outcome per trial:
    the dealiased fine-shift angles together with diagnostics (the
    coarse angles, the joint-diagonalization quality and the per source
    dealiasing reports), or the :class:`~elaa_doa.errors.EstimationError`
    that ends the trial.  The subspace, the rotations and the eigenvalues'
    phases run once for the chunk; the coarse angles and :func:`dealias`
    run per trial on Python floats.
    """
    m = cfg.elements_per_ula
    limit = max_sources(m)
    if not 1 <= num_sources <= limit:
        raise ValueError(f"num_sources must be in [1, {limit}] for {m}-element sub-arrays")
    y1, y2 = split_ulas(np.asarray(ys))
    sub = stacked_subspace(y1, y2, default_pencil(m), num_sources)
    coarse_eigs, fine_eigs, quality = pair_eigenvalues(sub.signal)
    # the phase fractions of the whole chunk at once, then Python floats
    fractions_c = (np.angle(coarse_eigs) / (2.0 * math.pi)).tolist()
    fractions_f = (np.angle(fine_eigs) / (2.0 * math.pi)).tolist()
    phaseless = ((coarse_eigs == 0) | (fine_eigs == 0)).any(axis=-1).tolist()
    coarse_ratio = cfg.spacing / cfg.wavelength
    fine_ratio = cfg.center_separation / cfg.wavelength
    out = []
    for t, (failure, pairing) in enumerate(zip(sub.failures(), quality.tolist())):
        try:
            unwrap(failure)
            if math.isnan(pairing):
                raise IllConditioned("a rotation's selection or eigenbasis is singular")
            if phaseless[t]:
                raise IllConditioned("a zero eigenvalue has no phase")
            coarse = [_coarse_angle(nu, coarse_ratio) for nu in fractions_c[t]]
            angles, reports = dealias(coarse, fractions_f[t], fine_ratio)
        except EstimationError as exc:
            out.append(exc)
            continue
        diag = EspritDiagnostics(
            coarse_angles=np.array(coarse), pairing_quality=pairing, reports=reports
        )
        out.append((angles, diag))
    return out


def estimate_doa_esprit(
    y: np.ndarray, cfg: ArrayConfig, num_sources: int
) -> tuple[np.ndarray, EspritDiagnostics]:
    """Far-field DOAs from one observation ``y``, radians, sorted ascending, with diagnostics.

    The one-trial case of :func:`esprit_chunk`; a failure is raised.
    """
    return unwrap(esprit_chunk(np.asarray(y)[None], cfg, num_sources)[0])
