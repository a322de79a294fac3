"""Single-snapshot MUSIC on Hankel-lifted sub-array data.

Each sub-array observation is lifted to a Hankel matrix; the noise
subspace of that matrix is orthogonal to a short exponential steering
vector whose length equals the Hankel row count.  Scanning that steering
vector over a DOA grid gives a per-sub-array pseudospectrum.  The scan does
not project every steering vector: the null ``a^H U_n U_n^H a`` of a
Vandermonde steering vector is a real trigonometric polynomial in the
electrical angle, the one root-MUSIC roots (Rao & Hari 1989), so the
surface is that polynomial evaluated on the grid from the noise
projector's diagonal sums.  Far-field estimation fuses the two sub-array
spectra non-coherently, as their product, and picks peaks from the fused
surface; the near-field localizer picks peaks from each sub-array
spectrum on its own.

Estimates never evaluate the whole grid (:func:`pick_doas`).  The
polynomial's degree bounds how far it bends between samples of a coarse
subgrid (every fifth angle of the 0.01 degree grid), so the fine grid is
evaluated only on the coarse cells that can hold a maximum tall enough to
be picked, and the pick equals the whole grid's.  Only the ``spectrum``
command builds the whole-grid surface (:func:`fused_spectrum`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnderResolved
from .geometry import ArrayConfig
from .signal_model import Snapshot, split_ulas
from .subspace import SubspacePair, default_pencil, hankel, split_subspaces

DENOMINATOR_FLOOR = 1e-12
PEAK_SEPARATION_DEG = 0.2
MAX_GRID_POINTS = 180_000
BOUND_MARGIN = 1e-9  # slack on pick_doas' cell bounds, in units of values**-2


@dataclass(frozen=True)
class Spectrum:
    """A pseudospectrum sampled on a monotone broadside-angle grid (radians)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have the same shape")
        if (self.grid[1:] <= self.grid[:-1]).any():
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


class Scan(NamedTuple):
    """A default grid, its steering columns, and the coarse subgrid scanned first.

    The coarse subgrid is every ``stride``-th grid angle, starting at the
    first, with contiguous copies of those steering columns.  Over its
    largest step, ``coarse_step`` radians, the top harmonic's phase moves
    by at most ``harmonic_step`` (see :func:`pick_doas`).
    """

    grid: np.ndarray
    steering: np.ndarray
    stride: int
    coarse_grid: np.ndarray
    coarse_steering: np.ndarray
    coarse_step: float
    harmonic_step: float


@functools.lru_cache(maxsize=8)
def _cached_steering(n_rows: int, spacing: float, wavelength: float, step_deg: float) -> Scan:
    """Default grid, steering matrix and coarse subgrid, shared read-only by every caller.

    The stride is a quarter of the peak separation in grid steps (5 at
    0.01 degrees, 1 at 0.05 degrees and coarser), so the separation floor
    spans four coarse steps.
    """
    grid = default_grid(step_deg)
    a = hankel_steering_matrix(n_rows, spacing, wavelength, grid)
    stride = max(1, _peak_distance(grid) // 4)
    coarse_grid = np.ascontiguousarray(grid[::stride])
    h = float(np.max(np.diff(coarse_grid)))
    rate = (n_rows - 1) * 2.0 * math.pi * spacing / wavelength
    scan = Scan(grid, a, stride, coarse_grid, np.ascontiguousarray(a[:, ::stride]), h, rate * h)
    for array in scan[:2] + scan[3:5]:
        array.setflags(write=False)
    return scan


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
    # Laid out with rows of 2n + 1 entries, element (i, i + m) of P lands in
    # column m of row i, and the zero padding fills the columns past the
    # diagonal's end, so one column sum gives each c_m.
    padded = np.zeros((n + 1, 2 * n), dtype=complex)
    padded[:n, :n] = noise @ noise.conj().T
    c = padded.ravel()[: n * (2 * n + 1)].reshape(n, 2 * n + 1)[:, :n].sum(axis=0)
    num = math.sqrt(n)
    den2 = c[0].real + 2.0 * (c[1:] @ a[1:]).real
    den = np.sqrt(np.maximum(den2, (DENOMINATOR_FLOOR * num) ** 2))
    return Spectrum(grid=np.asarray(grid, dtype=float), values=num / den)


def module_subspace(
    y_half: np.ndarray,
    cfg: ArrayConfig,
    num_sources: int,
    grid_step_deg: float,
    pencil: int | None,
) -> tuple[SubspacePair, Scan]:
    """Signal and noise subspaces of one sub-array's samples, with the scan they use.

    The samples are lifted with ``pencil`` (half the sub-array length
    when None) and split; the scan is cached per (array, pencil, grid
    step).
    """
    pencil = default_pencil(cfg.elements_per_ula) if pencil is None else pencil
    scan = _cached_steering(pencil + 1, cfg.spacing, cfg.wavelength, grid_step_deg)
    return split_subspaces(hankel(y_half, pencil), num_sources), scan


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
    h = float(grid[idx + 1] - grid[idx - 1]) / 2.0
    delta = float(0.5 * h * (q[0] - q[2]) / denom)
    return float(grid[idx] + min(max(delta, -h), h))


def _peak_distance(grid: np.ndarray, index: np.ndarray | None = None) -> int:
    """``PEAK_SEPARATION_DEG`` in samples of the grid's mean step, at least one.

    With ``index``, ``grid`` holds the samples at those positions of a
    uniform grid, and the step is that grid's.
    """
    span = len(grid) - 1 if index is None else int(index[-1] - index[0])
    step = float(grid[-1] - grid[0]) / span
    return max(1, int(round(math.radians(PEAK_SEPARATION_DEG) / step)))


def _greedy(heights: np.ndarray, positions: np.ndarray, distance: int, count: int) -> list[int]:
    """Up to ``count`` entries, tallest first, each ``distance`` or more from those kept before.

    Ties go to the lower position.
    """
    at = positions.tolist()
    keep: list[int] = []
    for i in np.lexsort((positions, -heights)).tolist():
        if all(abs(at[i] - at[k]) >= distance for k in keep):
            keep.append(i)
            if len(keep) == count:
                break
    return keep


def peak_pick(spectrum: Spectrum, num_peaks: int, index: np.ndarray | None = None) -> np.ndarray:
    """Angles of the ``num_peaks`` tallest local maxima, tallest first.

    Maxima (:func:`_peaks`) closer than ``PEAK_SEPARATION_DEG`` collapse to
    the tallest of the cluster.  When two fused factor surfaces place
    their nulls a few hundredths of a degree apart, one target's peak
    splits into two countable maxima that can crowd out a genuine second
    target; genuine targets closer than the separation floor are below the
    aperture's resolution limit anyway.  Ties are broken toward the lower
    angle.  Each pick is refined off-grid by three-point parabolic
    interpolation of the reciprocal squared surface.

    ``index`` gives each sample's position on the uniform grid the
    spectrum was cut from, when it covers only parts of that grid
    (None: the spectrum is the whole grid).  A sample is then a maximum
    only if both its grid neighbours are in the spectrum, and separations
    are counted in steps of the uniform grid.  Raises
    :class:`UnderResolved` when the surface has fewer qualifying maxima
    than requested.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be at least 1")
    values = spectrum.values
    idx = position = _peaks(values)
    if index is not None:
        idx = idx[index[idx + 1] - index[idx - 1] == 2]
        position = index[idx]
    keep = _greedy(values[idx], position, _peak_distance(spectrum.grid, index), num_peaks)
    if len(keep) < num_peaks:
        raise UnderResolved(f"found {len(keep)} peaks, need {num_peaks}")
    return np.array([_refine_peak(spectrum.grid, values, i) for i in idx[keep].tolist()])


def _peaks(values: np.ndarray) -> np.ndarray:
    """Indices of a surface's local maxima.

    A maximum is a strict rise, an optional plateau of equal samples,
    then a strict fall; a plateau reports its middle sample, rounded
    down.  The first and last samples are never maxima.
    """
    if (values[1:] == values[:-1]).any():
        # plateaus: the maxima of the runs' levels, which have no equal neighbours
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        top = _peaks(values[starts])
        return (starts[top] + starts[top + 1] - 1) // 2
    inner = values[1:-1]
    return np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1


def _fused(subs: list[SubspacePair], grid: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """One module's surface, or the product of the modules' surfaces."""
    values = pseudospectrum(subs[0], grid, steering).values
    for sub in subs[1:]:
        values = values * pseudospectrum(sub, grid, steering).values
    return values


def _cell_surface(subs: list[SubspacePair], scan: Scan, cells: np.ndarray) -> tuple:
    """Grid indices, angles and surface values of the chosen coarse cells.

    Cell ``j`` spans grid indices ``j * stride`` to ``(j + 1) * stride``, and
    one more either side; the partial cell past the last is always taken.
    """
    n_points, stride = len(scan.grid), scan.stride
    inside = np.zeros(n_points + stride + 2, dtype=bool)  # shifted one sample up
    inside[(np.flatnonzero(cells)[:, None] * stride + np.arange(stride + 3)).ravel()] = True
    inside[len(cells) * stride :] = True
    index = np.flatnonzero(inside[1 : n_points + 1])
    grid = scan.grid[index]
    # a C-ordered gather keeps each column's product bit-identical to the
    # product over the whole grid (a fancy-indexed one comes out F-ordered)
    return index, grid, _fused(subs, grid, np.take(scan.steering, index, axis=1))


def _coarse_cells(subs: list[SubspacePair], scan: Scan) -> tuple[np.ndarray, ...]:
    """Coarse surface; per coarse cell, the rise of ``Q``, whether it can turn, its least value."""
    coarse = _fused(subs, scan.coarse_grid, scan.coarse_steering)
    q = 1.0 / (coarse * coarse)
    u = len(subs) * scan.harmonic_step
    bend = (u * u + u * scan.coarse_step) / 2.0  # M * h**2
    rise = q[1:] - q[:-1]
    turning = np.abs(rise) <= bend / 2.0 + BOUND_MARGIN
    return coarse, rise, turning, np.minimum(q[1:], q[:-1]) - (bend / 8.0 + BOUND_MARGIN)


def pick_doas(subs: list[SubspacePair], scan: Scan, num_peaks: int) -> np.ndarray:
    """Peaks of one module's MUSIC surface, or of two modules' fused surface.

    Picks as :func:`peak_pick` on the whole grid would, evaluating only
    part of it.  ``Q = values**-2`` is the product of ``L`` normalised
    nulls ``a^H P a / n``, each a trigonometric polynomial of degree
    ``n - 1`` in ``w = k*d*sin(angle)`` with values in [0, 1].  Bernstein's
    inequality on ``Q - 1/2``, of degree ``N = L*(n - 1)``, bounds
    ``|dQ/dw|`` by ``N/2`` and ``|d2Q/dw2|`` by ``N**2/2``, so
    ``|d2Q/dangle2| <= M = (N**2*(k*d)**2 + N*k*d) / 2``.  On a coarse cell
    of width ``h``, ends that differ by more than ``M*h**2/2`` leave no
    turning point, and no sample reaches a height ``T`` unless
    ``min(ends) - M*h**2/8 <= 1/T**2``.

    The fine grid is evaluated on the cells that pass both tests, each
    widened by a sample either way so that a maximum on a coarse sample
    has both neighbours, and on the partial cell past the last coarse
    sample.  With ``T`` the ``num_peaks``-th greedy pick among the coarse
    maxima, the fine maxima of height ``T`` or more are the whole grid's,
    and a greedy pick depends only on the maxima at or above it; if they
    give fewer than ``num_peaks`` picks, or the coarse maxima do, every
    cell that can turn is evaluated and the pick has no floor.

    Both tests carry ``BOUND_MARGIN`` for rounding (1.2e-15 in ``Q`` per
    module against a long-double evaluation) and the 1e-24 floor: rounding
    turns a monotone run over only where the slope is below it, which the
    turning test admits with ``2*(stride + 1)`` times the rounding.  The
    margin is negligible against ``M*h**2/8`` (3e-5 for one module on a
    0.05 degree cell).
    """
    coarse, rise, turning, least = _coarse_cells(subs, scan)
    top = np.flatnonzero((rise[:-1] < 0.0) & (rise[1:] > 0.0)) + 1  # coarse maxima
    keep = _greedy(coarse[top], top, _peak_distance(scan.coarse_grid), num_peaks)
    floor = coarse[top[keep[-1]]] if len(keep) == num_peaks else 0.0
    if floor:
        index, grid, fine = _cell_surface(subs, scan, turning & (least <= 1.0 / (floor * floor)))
        idx = _peaks(fine)
        idx = idx[(index[idx + 1] - index[idx - 1] == 2) & (fine[idx] >= floor)]
        picks = _greedy(fine[idx], index[idx], _peak_distance(grid, index), num_peaks)
        if len(picks) < num_peaks:
            floor = 0.0
    if not floor:
        index, grid, fine = _cell_surface(subs, scan, turning)
    return peak_pick(Spectrum(grid=grid, values=fine), num_peaks, index=index)


def fused_spectrum(
    y: np.ndarray,
    cfg: ArrayConfig,
    num_sources: int,
    grid_step_deg: float,
    pencil: int | None,
) -> Spectrum:
    """The fused MUSIC pseudospectrum of a snapshot's two sub-arrays on the whole grid."""
    modules = [module_subspace(h, cfg, num_sources, grid_step_deg, pencil) for h in split_ulas(y)]
    scan = modules[0][1]
    values = _fused([sub for sub, _ in modules], scan.grid, scan.steering)
    return Spectrum(grid=scan.grid, values=values)


def estimate_doa_music(
    snap: Snapshot,
    cfg: ArrayConfig,
    num_sources: int,
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
    modules = [module_subspace(y, cfg, num_sources, grid_step_deg, pencil) for y in selected]
    return pick_doas([sub for sub, _ in modules], modules[0][1], num_sources)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Dump a spectrum as a two-column CSV (angle_deg, value)."""
    with open(path, "w") as fh:
        fh.write("angle_deg,value\n")
        for ang, val in zip(np.rad2deg(spectrum.grid), spectrum.values):
            fh.write(f"{float(ang)!r},{float(val)!r}\n")
