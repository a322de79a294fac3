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
polynomial is evaluated on a coarse subgrid (every fifth angle of the
0.01 degree grid), then on the fine grid only in windows around the
coarse local maxima, of the fused surface and of each module's own
surface, and peaks are picked from those windows as from the whole grid.
The per-module windows find some fused maxima that no fused coarse
maximum is near.  Only the ``spectrum`` command builds the whole-grid surface
(:func:`fused_spectrum`).
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
WINDOW_COARSE_STEPS = 2


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
    first, with contiguous copies of those steering columns.
    """

    grid: np.ndarray
    steering: np.ndarray
    stride: int
    coarse_grid: np.ndarray
    coarse_steering: np.ndarray


@functools.lru_cache(maxsize=8)
def _cached_steering(n_rows: int, spacing: float, wavelength: float, step_deg: float) -> Scan:
    """Default grid, steering matrix and coarse subgrid, shared read-only by every caller.

    The stride is a quarter of the peak separation in grid steps (5 at
    0.01 degrees, 1 at 0.05 degrees and coarser), so the separation floor
    spans four coarse steps.
    """
    grid = default_grid(step_deg)
    a = hankel_steering_matrix(n_rows, spacing, wavelength, grid)
    stride = max(1, _peak_distance(grid, PEAK_SEPARATION_DEG) // 4)
    scan = Scan(
        grid,
        a,
        stride,
        np.ascontiguousarray(grid[::stride]),
        np.ascontiguousarray(a[:, ::stride]),
    )
    for array in (scan.grid, scan.steering, scan.coarse_grid, scan.coarse_steering):
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


def _peak_distance(
    grid: np.ndarray, min_separation_deg: float, index: np.ndarray | None = None
) -> int:
    """``min_separation_deg`` in samples of the grid's mean step, at least one.

    With ``index``, ``grid`` holds the samples at those positions of a
    uniform grid, and the step is that grid's.
    """
    span = len(grid) - 1 if index is None else int(index[-1] - index[0])
    step = float(grid[-1] - grid[0]) / span
    return max(1, int(round(math.radians(min_separation_deg) / step)))


def peak_pick(
    spectrum: Spectrum,
    num_peaks: int,
    min_separation_deg: float = PEAK_SEPARATION_DEG,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Angles of the ``num_peaks`` tallest local maxima, tallest first.

    Maxima (:func:`_peaks`) closer than ``min_separation_deg`` collapse to
    the tallest of the cluster.  When two fused factor surfaces place
    their nulls a few hundredths of a degree apart, one target's peak
    splits into two countable maxima that can crowd out a genuine second
    target; genuine targets closer than the separation floor are below the
    aperture's resolution limit anyway.  Ties are broken toward the lower
    angle.  Each pick is refined off-grid by three-point parabolic
    interpolation of the reciprocal squared surface.

    ``index`` gives each sample's position on the uniform grid the
    spectrum was cut from, when it covers only windows of that grid
    (None: the spectrum is the whole grid).  A sample is then a maximum
    only if both its grid neighbours are in the spectrum, and separations
    are counted in steps of the uniform grid.  Raises
    :class:`UnderResolved` when the surface has fewer qualifying maxima
    than requested.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be at least 1")
    values = spectrum.values
    idx = _peaks(values)
    position = idx
    if index is not None:
        idx = idx[index[idx + 1] - index[idx - 1] == 2]
        position = index[idx]
    distance = _peak_distance(spectrum.grid, min_separation_deg, index)
    order = np.lexsort((position, -values[idx]))
    keep: list[int] = []
    kept: list[int] = []
    for i, pos in zip(idx[order].tolist(), position[order].tolist()):
        if all(abs(pos - k) >= distance for k in kept):
            keep.append(i)
            kept.append(pos)
            if len(keep) == num_peaks:
                break
    if len(keep) < num_peaks:
        raise UnderResolved(f"found {len(keep)} peaks, need {num_peaks}")
    return np.array([_refine_peak(spectrum.grid, values, i) for i in keep])


def _local_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each entry no lower than its row neighbours (its one at the ends)."""
    padded = np.full((len(values), values.shape[1] + 2), -np.inf)
    padded[:, 1:-1] = values
    at = np.flatnonzero((values >= padded[:, :-2]) & (values >= padded[:, 2:]))
    return np.divmod(at, values.shape[1])


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


def _surfaces(subs: list[SubspacePair], grid: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Rows: the picked surface, then each module's own surface when there are two.

    The picked surface is one module's surface, or the product of the two.
    """
    values = [pseudospectrum(sub, grid, steering).values for sub in subs]
    if len(values) == 2:
        values.insert(0, values[0] * values[1])
    return np.array(values)


def pick_doas(subs: list[SubspacePair], scan: Scan, num_peaks: int) -> np.ndarray:
    """Peaks of one module's MUSIC surface, or of two modules' fused surface.

    Picks as :func:`peak_pick` on the surface over the whole grid would,
    without evaluating it there.  Each module's polynomial is evaluated on
    the coarse subgrid first.  The fine grid is then evaluated only in
    windows of ``WINDOW_COARSE_STEPS`` coarse steps either side of every
    coarse local maximum, of the fused surface and of each module's own
    surface.  The per-module windows find some fused maxima that no fused
    coarse maximum is near, such as a shallow one on the flank of a taller
    peak that the fused coarse samples fall across, next to a module's own
    coarse maximum.

    A window whose surface peaks on its edge is widened up to that
    surface's next coarse maximum beyond the edge: the edge is no lower
    than the coarse sample inside it, so unless it is a coarse maximum
    itself, the coarse samples rise from it to that next one.  Widening
    repeats until every window's maximum lies inside it.
    """
    grid, n_points = scan.grid, len(scan.grid)
    reach = WINDOW_COARSE_STEPS * scan.stride
    offsets = np.arange(-reach, reach + 1)
    # each window: the surface row it serves and its centre's grid index
    surface, centers = _local_maxima(
        _surfaces(subs, scan.coarse_grid, scan.coarse_steering)
    )
    centers *= scan.stride
    peaks = surface * n_points + centers  # sorted keys of the coarse maxima
    while True:
        # the mask runs ``reach`` past both grid ends, where windows are cut
        inside = np.zeros(n_points + 2 * reach, dtype=bool)
        inside[(centers[:, None] + (offsets + reach)).ravel()] = True
        index = np.flatnonzero(inside[reach:-reach])
        # a C-ordered gather keeps each column's product bit-identical to the
        # product over the whole grid (a fancy-indexed one comes out F-ordered)
        fine_grid = grid[index]
        fine = _surfaces(subs, fine_grid, np.take(scan.steering, index, axis=1))
        # each window lies whole in the union, a run of positions around its
        # centre's, cut at the grid's ends
        pos = np.searchsorted(index, centers)[:, None] + offsets
        pos = np.minimum(np.maximum(pos, 0), len(index) - 1)
        top = pos[np.arange(len(pos)), np.argmax(fine[surface[:, None], pos], axis=1)]
        inner = (index[top] > 0) & (index[top] < n_points - 1)
        high = (top == pos[:, -1]) & inner
        grown = []
        for w in np.flatnonzero(high | ((top == pos[:, 0]) & inner)).tolist():
            key = int(surface[w]) * n_points + int(index[top[w]])
            at = int(np.searchsorted(peaks, key))
            if at < len(peaks) and peaks[at] == key:
                continue  # a coarse maximum has its own window
            if high[w]:
                grown.extend(range(key, int(peaks[at]), reach))
            else:
                grown.extend(range(key, int(peaks[at - 1]), -reach))
        if grown:
            grown = np.setdiff1d(grown, surface * n_points + centers)
        if not len(grown):
            return peak_pick(Spectrum(grid=fine_grid, values=fine[0]), num_peaks, index=index)
        surface, centers = np.divmod(np.union1d(surface * n_points + centers, grown), n_points)


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
    values = _surfaces([sub for sub, _ in modules], scan.grid, scan.steering)[0]
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
