"""Single-snapshot ESPRIT across the full sparse aperture.

The rotational-invariance trick is applied twice to the same stacked
Hankel signal subspace:

* a coarse shift of one element spacing inside each sub-array block,
  which is unambiguous for spacings up to half a wavelength but only as
  accurate as one sub-array;
* a fine shift equal to the sub-array center separation (top block vs
  bottom block), which inherits the full sparse-aperture accuracy but
  wraps many times across the visible region.

Each fine eigenvalue therefore yields a lattice of alias candidates
(about 316 for the reference geometry); the coarse estimate selects among
them.  The lattice is kept in closed form, and the selection evaluates
only the few rungs around the coarse angle: rung angles grow with the
alias index, so the two rungs bracketing the coarse angle hold the
nearest one, and their outer neighbours hold the runner-up.  Eigenvalues
of the two shift operators are paired by joint diagonalization so the
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
# The pipeline's alias-tie threshold is tighter than the bare ``dealias``
# default: the coarse single-shift estimate has a heavy two-source error
# tail at moderate SNR, and refusing every near-half-spacing decision
# turns a slice of one-bin errors (one fine spacing, about 0.36 degrees
# for the reference geometry) into hard failures.  Flagging only
# near-exact ties keeps those trials as ordinary errors, which downstream
# accuracy metrics already account for.
TIE_FRACTION = 0.02


@dataclass(frozen=True)
class ShiftPair:
    """Row index sets of a rotational-invariance pair and their baseline."""

    rows_a: tuple[int, ...]
    rows_b: tuple[int, ...]
    delta: float


@dataclass(frozen=True)
class SelectionPairs:
    coarse: ShiftPair
    fine: ShiftPair


@dataclass(frozen=True)
class AliasLattice:
    """The visible-region alias rungs explaining one eigenvalue's phase.

    For a baseline of ``ratio`` wavelengths, an eigenvalue with phase
    fraction ``nu = arg(xi) / (2*pi)`` is explained by every integer alias
    ``q`` in ``[q_lo, q_hi]``, the range with
    ``|(nu + q) / ratio| <= 1``; rung ``q`` sits at the arcsine of that
    direction cosine.
    """

    nu: float
    ratio: float
    q_lo: int
    q_hi: int

    def rungs(self, lo: int, hi: int) -> list[tuple[int, float]]:
        """(alias index, angle) of the visible rungs in ``[lo, hi]``, ascending.

        Arguments within ``1e-9`` past the arcsine domain edge are
        clamped to +-90 degrees.
        """
        out = []
        for q in range(max(lo, self.q_lo), min(hi, self.q_hi) + 1):
            arg = (self.nu + q) / self.ratio
            if abs(arg) > 1.0:
                if abs(arg) <= 1.0 + ASIN_CLAMP:
                    arg = math.copysign(1.0, arg)
                else:
                    continue
            out.append((q, math.asin(arg)))
        return out


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


def selection_pairs(cfg: ArrayConfig, pencil: int) -> SelectionPairs:
    """Coarse and fine row selections into the stacked signal subspace.

    The stacked subspace has ``2 * (pencil + 1)`` rows: first the rows of
    sub-array 1's Hankel lifting, then sub-array 2's.  The coarse pair
    shifts by one row inside each block (baseline = element spacing); the
    fine pair is top block against bottom block (baseline = center
    separation).
    """
    if pencil < 1:
        raise ValueError("pencil must be at least 1")
    block = pencil + 1
    coarse_a = tuple(range(0, pencil)) + tuple(range(block, block + pencil))
    coarse_b = tuple(range(1, pencil + 1)) + tuple(range(block + 1, block + pencil + 1))
    fine_a = tuple(range(0, block))
    fine_b = tuple(range(block, 2 * block))
    return SelectionPairs(
        coarse=ShiftPair(coarse_a, coarse_b, cfg.spacing),
        fine=ShiftPair(fine_a, fine_b, cfg.center_separation),
    )


def solve_psi(signal_basis: np.ndarray, pair: ShiftPair) -> np.ndarray:
    """Least-squares rotation ``(Ua^H Ua)^-1 Ua^H Ub`` between row subsets."""
    ua = signal_basis[list(pair.rows_a), :]
    ub = signal_basis[list(pair.rows_b), :]
    if np.linalg.norm(ua) < 1e-300 or np.linalg.cond(ua) > COND_LIMIT:
        raise IllConditioned("shifted subspace selection is rank deficient")
    gram = ua.conj().T @ ua
    return np.linalg.solve(gram, ua.conj().T @ ub)


def alias_lattices(eigs: np.ndarray, delta: float, wavelength: float) -> list[AliasLattice]:
    """The alias lattice of each eigenvalue's phase for baseline ``delta``."""
    ratio = delta / wavelength
    lattices = []
    for xi in np.atleast_1d(np.asarray(eigs)):
        if xi == 0:
            raise ValueError("zero eigenvalue has no phase")
        nu = float(np.angle(xi)) / (2.0 * math.pi)
        lattices.append(
            AliasLattice(
                nu=nu,
                ratio=ratio,
                q_lo=math.ceil(-ratio - nu),
                q_hi=math.floor(ratio - nu),
            )
        )
    return lattices


def _min_eigengap(evals: np.ndarray) -> float:
    if len(evals) < 2:
        return math.inf
    gaps = [
        abs(evals[i] - evals[j])
        for i in range(len(evals))
        for j in range(i + 1, len(evals))
    ]
    return min(gaps)


def pair_eigenvalues(
    signal_basis: np.ndarray, coarse_pair: ShiftPair, fine_pair: ShiftPair
) -> tuple[np.ndarray, np.ndarray, float]:
    """Matched (coarse, fine) eigenvalues via joint diagonalization.

    One rotation is eigendecomposed; its eigenvector basis is then applied
    to the other rotation, whose diagonal gives the eigenvalue belonging
    to each source.  The decomposition base is whichever rotation has the
    wider minimum eigenvalue separation: both share eigenvectors in the
    ideal model, but a noisy eigenbasis taken from a near-degenerate
    spectrum scrambles the sources, and closely spaced directions that
    collapse the short-baseline spectrum are usually far apart once the
    long baseline wraps them around the unit circle.  The returned quality
    is the off-diagonal Frobenius energy of the transformed rotation
    relative to its diagonal: near zero when both rotations truly share
    eigenvectors.
    """
    psi_c = solve_psi(signal_basis, coarse_pair)
    psi_f = solve_psi(signal_basis, fine_pair)
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
    coarse_angles: np.ndarray,
    fine_sets: list[AliasLattice],
    tie_fraction: float = 0.1,
) -> tuple[np.ndarray, tuple[DealiasReport, ...]]:
    """Pick, per source, the fine alias rung nearest the coarse angle.

    Rung ``q`` lies below the coarse angle ``theta_c`` exactly when
    ``q <= ratio * sin(theta_c) - nu``, so the floor ``q0`` of that bound
    (clipped to the lattice) and ``q0 + 1`` bracket it.  The nearest rung
    is one of the two, and the runner-up and the nearest rung's
    neighbours lie within one more rung, so only ``q0 - 1 .. q0 + 2`` are
    evaluated; the picks and margins equal those of a scan of the whole
    lattice.  Raises :class:`AmbiguousDealias` when the two best rungs
    sit within ``tie_fraction`` of the local rung spacing of each other in
    distance to the coarse estimate.  Angles are returned sorted ascending
    with their reports aligned.
    """
    if len(coarse_angles) != len(fine_sets):
        raise ValueError("need one coarse angle per alias lattice")
    picks = []
    for theta_c, lattice in zip(coarse_angles, fine_sets):
        q0 = math.floor(lattice.ratio * math.sin(theta_c) - lattice.nu)
        q0 = min(max(q0, lattice.q_lo - 1), lattice.q_hi)
        rungs = lattice.rungs(q0 - 1, q0 + 2)
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
            if margin < tie_fraction * spacing:
                raise AmbiguousDealias(
                    f"alias tie: margin {margin:.3e} rad below "
                    f"{tie_fraction:.0%} of spacing {spacing:.3e} rad"
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


def _unique_coarse_angle(lattice: AliasLattice) -> float:
    # For spacings <= lambda/2 the coarse lattice has a single visible
    # rung; if an exact edge case produces two, keep the one nearest
    # broadside.
    rungs = lattice.rungs(lattice.q_lo, lattice.q_hi)
    if not rungs:
        raise IllConditioned("coarse eigenvalue has no visible candidate")
    return min((abs(angle), angle) for _, angle in rungs)[1]


def estimate_doa_esprit(
    snap: Snapshot,
    cfg: ArrayConfig,
    num_sources: int,
    pencil: int | None = None,
) -> tuple[np.ndarray, EspritDiagnostics]:
    """Far-field DOAs from one snapshot, radians, sorted ascending.

    Returns the dealiased fine-shift angles together with diagnostics:
    the coarse angles, the joint-diagonalization quality and the per
    source dealiasing reports.  Alias ties are judged at ``TIE_FRACTION``.
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
    pairs = selection_pairs(cfg, pencil)
    coarse_eigs, fine_eigs, quality = pair_eigenvalues(sub.signal, pairs.coarse, pairs.fine)
    coarse_lattices = alias_lattices(coarse_eigs, pairs.coarse.delta, cfg.wavelength)
    coarse_angles = np.array([_unique_coarse_angle(lat) for lat in coarse_lattices])
    fine_lattices = alias_lattices(fine_eigs, pairs.fine.delta, cfg.wavelength)
    angles, reports = dealias(coarse_angles, fine_lattices, tie_fraction=TIE_FRACTION)
    diag = EspritDiagnostics(
        coarse_angles=coarse_angles, pairing_quality=quality, reports=reports
    )
    return angles, diag
