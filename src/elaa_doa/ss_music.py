"""Single-snapshot MUSIC on Hankel-lifted sub-array data.

Each sub-array observation is lifted to a Hankel matrix; the noise
subspace of that matrix is orthogonal to a short exponential steering
vector whose length equals the Hankel row count.  Scanning that steering
vector over a DOA grid gives a per-sub-array pseudospectrum, built in one
place, :func:`module_spectrum`.  The scan does not project every steering
vector: the null ``a^H U_n U_n^H a`` of a Vandermonde steering vector is a
real trigonometric polynomial in the electrical angle, the one root-MUSIC
roots (Rao & Hari 1989), so the surface is that polynomial evaluated on the
grid from the noise projector's diagonal sums.  Far-field estimation fuses
the two sub-array spectra (product by default, max as an alternative) and
picks peaks from the fused surface; the near-field localizer picks peaks
from each sub-array spectrum on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import UnderResolved
from .geometry import ArrayConfig
from .signal_model import Snapshot, split_ulas
from .subspace import SubspacePair, default_pencil, hankel, split_subspaces

DENOMINATOR_FLOOR = 1e-12
PEAK_SEPARATION_DEG = 0.2
MAX_GRID_POINTS = 180_000


@dataclass(frozen=True)
class Spectrum:
    """A pseudospectrum sampled on a monotone broadside-angle grid (radians)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have the same shape")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def grid_points(step_deg: float) -> int:
    """Number of points of the default grid with step ``step_deg`` degrees.

    Raises ValueError unless the step is finite, positive and leaves at
    least three points, the fewest on which a peak can stand, and at most
    ``MAX_GRID_POINTS`` (a 0.001 degree step), which bounds the cached
    steering matrix (about 26 MB for the reference array's nine rows).
    """
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"grid step {step_deg!r} degrees must be finite and positive")
    points = 180.0 / step_deg  # inf for the smallest subnormal steps
    if points >= MAX_GRID_POINTS + 0.5:
        raise ValueError(
            f"grid step {step_deg!r} degrees gives {points:.4g} grid points;"
            f" at most {MAX_GRID_POINTS}"
        )
    n = int(round(points))
    if n < 3:
        raise ValueError(f"grid step {step_deg!r} degrees leaves {n} grid points; need 3")
    return n


def default_grid(step_deg: float = 0.01) -> np.ndarray:
    """Uniform angle grid [-90, 90) degrees, returned in radians."""
    return np.deg2rad(-90.0 + step_deg * np.arange(grid_points(step_deg)))


def hankel_steering_matrix(
    n_rows: int, spacing: float, wavelength: float, grid: np.ndarray
) -> np.ndarray:
    """Short exponential steering vectors, one column per grid angle.

    Row ``i`` carries the phase ``exp(+j*2*pi*i*spacing*sin(angle)/
    wavelength)``: the signature of a sub-array sample window in the
    Hankel row space.
    """
    k = 2.0 * math.pi * spacing / wavelength
    return np.exp(1j * k * np.outer(np.arange(n_rows), np.sin(grid)))


@functools.lru_cache(maxsize=8)
def _cached_steering(n_rows: int, spacing: float, wavelength: float, step_deg: float):
    """Default grid and its steering matrix, shared read-only by every caller."""
    grid = default_grid(step_deg)
    a = hankel_steering_matrix(n_rows, spacing, wavelength, grid)
    grid.setflags(write=False)
    a.setflags(write=False)
    return grid, a


def pseudospectrum(sub: SubspacePair, grid: np.ndarray, steering: np.ndarray) -> Spectrum:
    """MUSIC surface ``||a|| / ||U_noise^H a||`` over the grid.

    ``steering`` holds the Vandermonde steering vector of each grid angle
    as a column, row ``m`` being ``exp(j*m*w)`` (see
    :func:`hankel_steering_matrix`), so ``||a|| = sqrt(n)``.  With the noise
    projector ``P = U_noise U_noise^H`` and its diagonal sums
    ``c_m = trace(P, offset=m)``, the squared projection norm is the real
    trigonometric polynomial ``a^H P a = c_0 + 2*Re(sum_m c_m exp(j*m*w))``,
    evaluated with one product against the steering rows.  It is floored
    at ``(1e-12 * ||a||)**2`` so noiseless nulls stay finite.
    """
    noise = sub.noise
    if noise.shape[1] == 0:
        raise ValueError("noise subspace is empty; reduce the source count")
    a = np.asarray(steering)
    n = noise.shape[0]
    if a.shape != (n, len(grid)):
        raise ValueError("steering matrix shape does not match subspace/grid")
    p = noise @ noise.conj().T
    c = np.array([np.trace(p, offset=m) for m in range(n)])
    num = math.sqrt(n)
    den2 = c[0].real + 2.0 * (c[1:] @ a[1:]).real
    den = np.sqrt(np.maximum(den2, (DENOMINATOR_FLOOR * num) ** 2))
    return Spectrum(grid=np.asarray(grid, dtype=float), values=num / den)


def module_spectrum(
    y_half: np.ndarray,
    cfg: ArrayConfig,
    num_sources: int,
    grid_step_deg: float,
    pencil: int | None,
) -> tuple[Spectrum, SubspacePair]:
    """MUSIC pseudospectrum of one sub-array's samples on the default grid.

    The samples are lifted with ``pencil`` (half the sub-array length
    when None), split into signal and noise subspaces, and scanned with
    the steering matrix cached per (array, pencil, grid step).  The
    subspace split comes back too, for callers that read its singular
    values.
    """
    pencil = default_pencil(cfg.elements_per_ula) if pencil is None else pencil
    grid, a = _cached_steering(pencil + 1, cfg.spacing, cfg.wavelength, grid_step_deg)
    sub = split_subspaces(hankel(y_half, pencil), num_sources)
    return pseudospectrum(sub, grid, a), sub


def fuse(s1: Spectrum, s2: Spectrum, mode: str = "product") -> Spectrum:
    """Combine two sub-array spectra pointwise (``product`` or ``max``)."""
    if not np.array_equal(s1.grid, s2.grid):
        raise ValueError("spectra must share the same grid")
    if mode == "product":
        values = s1.values * s2.values
    elif mode == "max":
        values = np.maximum(s1.values, s2.values)
    else:
        raise ValueError(f"unknown fusion mode {mode!r}")
    return Spectrum(grid=s1.grid, values=values)


def _refine_peak(grid: np.ndarray, values: np.ndarray, idx: int) -> float:
    """Sub-grid peak position from a parabola on the reciprocal surface.

    The null surface ``1 / values**2`` is locally quadratic around a true
    DOA, so the vertex of a three-point parabola through it recovers the
    off-grid minimum accurately even when the peak itself is a near
    singularity.
    """
    if idx == 0 or idx == len(grid) - 1:
        return float(grid[idx])
    q = 1.0 / (values[idx - 1 : idx + 2] ** 2)
    denom = q[0] - 2.0 * q[1] + q[2]
    if denom <= 0.0:
        return float(grid[idx])
    h = (grid[idx + 1] - grid[idx - 1]) / 2.0
    delta = 0.5 * h * (q[0] - q[2]) / denom
    delta = float(np.clip(delta, -h, h))
    return float(grid[idx] + delta)


def _peak_distance(grid: np.ndarray, min_separation_deg: float | None) -> int | None:
    """``min_separation_deg`` in grid samples of the grid's mean step (None: no floor)."""
    if min_separation_deg is None:
        return None
    step = float(grid[-1] - grid[0]) / (len(grid) - 1)
    return max(1, int(round(math.radians(min_separation_deg) / step)))


def peak_pick(
    spectrum: Spectrum,
    num_peaks: int,
    min_separation_deg: float | None = PEAK_SEPARATION_DEG,
) -> np.ndarray:
    """Angles of the ``num_peaks`` tallest local maxima, tallest first.

    Maxima closer than ``min_separation_deg`` collapse to the tallest of
    the cluster (``None`` keeps every local maximum).  When two fused
    factor surfaces place their nulls a few hundredths of a degree apart,
    one target's peak splits into two countable maxima that can crowd out
    a genuine second target; genuine targets closer than the separation
    floor are below the aperture's resolution limit anyway.  Ties are
    broken toward the lower angle.  Each pick is refined off-grid by
    three-point parabolic interpolation of the reciprocal squared surface.
    Raises :class:`UnderResolved` when the surface has fewer qualifying
    maxima than requested.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be at least 1")
    idx, _ = scipy.signal.find_peaks(
        spectrum.values, distance=_peak_distance(spectrum.grid, min_separation_deg)
    )
    if len(idx) < num_peaks:
        raise UnderResolved(f"found {len(idx)} peaks, need {num_peaks}")
    order = np.lexsort((spectrum.grid[idx], -spectrum.values[idx]))
    keep = idx[order][:num_peaks]
    return np.array([_refine_peak(spectrum.grid, spectrum.values, i) for i in keep])


def estimate_doa_music(
    snap: Snapshot,
    cfg: ArrayConfig,
    num_sources: int,
    fusion: str = "product",
    grid_step_deg: float = 0.01,
    pencil: int | None = None,
    ula: int | None = None,
) -> np.ndarray:
    """Far-field DOAs from a single snapshot, radians, tallest peak first.

    ``ula=1`` or ``ula=2`` scans a single sub-array instead of fusing both,
    which is the narrow-aperture baseline the sparse array improves upon.
    """
    if ula not in (None, 1, 2):
        raise ValueError("ula must be None, 1 or 2")
    halves = split_ulas(snap.y)
    selected = halves if ula is None else (halves[ula - 1],)
    spectra = [
        module_spectrum(y, cfg, num_sources, grid_step_deg, pencil)[0] for y in selected
    ]
    surface = spectra[0] if len(spectra) == 1 else fuse(spectra[0], spectra[1], fusion)
    return peak_pick(surface, num_sources)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Dump a spectrum as a two-column CSV (angle_deg, value)."""
    with open(path, "w") as fh:
        fh.write("angle_deg,value\n")
        for ang, val in zip(np.rad2deg(spectrum.grid), spectrum.values):
            fh.write(f"{float(ang)!r},{float(val)!r}\n")
