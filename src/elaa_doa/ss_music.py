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

Estimates never evaluate the whole grid (:func:`pick_chunk`).  The
polynomial's degree bounds how far it bends between samples of a coarse
subgrid (every fifth angle of the 0.01 degree grid), so the fine grid is
evaluated only in blocks of ``BLOCK`` angles around the coarse cells
that can hold a maximum tall enough to be picked, and the pick is the
whole grid's bit for bit.  Only :func:`fused_spectrum` evaluates it all.

Estimates take a chunk of trials at once, each with one or two modules:
one stacked SVD and one stacked coarse scan for the chunk, whose values
are bit-identical to one trial's own, then one fine pass and one pick per
trial; a one-trial estimate is the chunk of one
(:func:`estimate_doa_music`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnderResolved, unwrap
from .geometry import ArrayConfig
from .signal_model import split_ulas
from .subspace import SubspacePair, default_pencil, hankel, split_subspaces

DENOMINATOR_FLOOR = 1e-12
PEAK_SEPARATION_DEG = 0.2
BOUND_MARGIN = 1e-9  # slack on pick_chunk's cell bounds, in units of values**-2
BLOCK = 16  # grid angles per block of the fine pass; the grid is 1 125 blocks


@dataclass(frozen=True)
class Spectrum:
    """A pseudospectrum sampled on a monotone broadside-angle grid (radians).

    ``values`` may carry leading axes, one surface per entry, before the
    grid axis.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape[-1:]:
            raise ValueError("values must end in the grid's axis")
        if (self.grid[1:] <= self.grid[:-1]).any():
            raise ValueError("grid must be strictly increasing")


def default_grid() -> np.ndarray:
    """Uniform 0.01 degree angle grid [-90, 90) degrees, returned in radians."""
    return np.deg2rad(-90.0 + 0.01 * np.arange(18_000))


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
    by at most ``harmonic_step`` (see :func:`pick_chunk`).
    """

    grid: np.ndarray
    steering: np.ndarray
    stride: int
    coarse_grid: np.ndarray
    coarse_steering: np.ndarray
    coarse_step: float
    harmonic_step: float


@functools.lru_cache(maxsize=8)
def _cached_steering(n_rows: int, spacing: float, wavelength: float) -> Scan:
    """Default grid, steering matrix and coarse subgrid, shared read-only by every caller.

    The stride is a quarter of the peak separation in grid steps, 5, so
    the separation floor spans four coarse steps.
    """
    grid = default_grid()
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
    """MUSIC surfaces ``||a|| / ||U_noise^H a||`` over the grid, one per noise basis.

    ``steering`` holds the Vandermonde steering vector of each grid angle
    as a column, row ``m`` being ``exp(j*m*w)`` (see
    :func:`hankel_steering_matrix`), so ``||a|| = sqrt(n)``.  With the noise
    projector ``P = U_noise U_noise^H`` and its diagonal sums
    ``c_m = trace(P, offset=m)``, the squared projection norm is the real
    trigonometric polynomial ``a^H P a = c_0 + 2*Re(sum_m c_m exp(j*m*w))``,
    evaluated with one product against the steering rows.  It is floored
    at ``(1e-12 * ||a||)**2`` so noiseless nulls stay finite.

    Noise bases stacked along leading axes of ``sub`` give surfaces with
    those leading axes.  Each basis's polynomial is one ``(1, n - 1) @
    (n - 1, G)`` product of a stacked matmul, whose columns are
    bit-identical to those of a lone basis; a ``(B, n - 1) @ (n - 1, G)``
    product is not, so the sums are never laid out as one matrix.
    """
    noise = sub.noise
    if noise.shape[-1] == 0:
        raise ValueError("noise subspace is empty; reduce the source count")
    a = np.asarray(steering)
    n = noise.shape[-2]
    if a.shape != (n, len(grid)):
        raise ValueError("steering matrix shape does not match subspace/grid")
    return Spectrum(grid=np.asarray(grid, dtype=float), values=_surface(sub.projector_sums, a))


def _surface(c: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """``||a|| / ||U_noise^H a||`` on the steering columns, from projector sums ``c``, floored.

    ``c`` ends in the sums axis; its leading axes lead the result.
    """
    num = math.sqrt(steering.shape[0])
    den2 = c[..., :1].real + 2.0 * (c[..., None, 1:] @ steering[1:])[..., 0, :].real
    return num / np.sqrt(np.maximum(den2, (DENOMINATOR_FLOOR * num) ** 2))


def _product(values: np.ndarray) -> np.ndarray:
    """One module's surface, or the product of the modules' surfaces along axis -2."""
    fused = values[..., 0, :]
    for module in range(1, values.shape[-2]):
        fused = fused * values[..., module, :]
    return fused


def module_subspace(
    y_half: np.ndarray, cfg: ArrayConfig, num_sources: int
) -> tuple[SubspacePair, Scan]:
    """Signal and noise subspaces of sub-array samples, with the scan they use.

    ``y_half`` holds one sub-array's samples along its last axis; leading
    axes (trials, modules) stay leading axes of the subspaces.  The
    samples are lifted with the default pencil, half the sub-array
    length, and split; the scan, on the 0.01 degree grid, is cached per
    array.
    """
    pencil = default_pencil(cfg.elements_per_ula)
    scan = _cached_steering(pencil + 1, cfg.spacing, cfg.wavelength)
    return split_subspaces(hankel(y_half, pencil), num_sources), scan


def _refine_peak(grid: np.ndarray, values: np.ndarray, idx: int) -> float:
    """Sub-grid position of the maximum at inner sample ``idx``, from a parabola.

    The null surface ``1 / values**2`` is locally quadratic around a true
    DOA, so the vertex of a three-point parabola through it recovers the
    off-grid minimum accurately even when the peak itself is a near
    singularity.
    """
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


def peak_pick(
    spectrum: Spectrum, num_peaks: int, index: np.ndarray | None = None, floor: float = 0.0
) -> np.ndarray:
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
    are counted in steps of the uniform grid.  A nonzero ``floor``
    leaves out the maxima below it.  Raises :class:`UnderResolved` when
    the surface has fewer qualifying maxima than requested.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be at least 1")
    values = spectrum.values
    idx = _peaks(values)
    if index is not None:
        idx = idx[index[idx + 1] - index[idx - 1] == 2]
    if floor:
        idx = idx[values[idx] >= floor]
    position = idx if index is None else index[idx]
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


def _fine_surface(sums: np.ndarray, scan: Scan, cells: np.ndarray) -> tuple[np.ndarray, Spectrum]:
    """Grid indices and fused spectrum of one trial on the coarse cells it marks.

    ``sums`` holds the trial's modules' projector sums
    (:attr:`~elaa_doa.subspace.SubspacePair.projector_sums`), and ``cells``
    one mark per coarse cell.  Cell ``j`` spans grid indices ``j * stride``
    to ``(j + 1) * stride``, and one more either side; the partial cell
    past the last is always taken.  The pass takes every aligned block of
    ``BLOCK`` grid angles that holds a sample of a marked cell, and
    evaluates the trial's :func:`pseudospectrum` polynomial on their
    steering columns.  Each column then keeps its place modulo ``BLOCK``
    in a product whose width is a multiple of ``BLOCK``, so its value is
    the whole grid's bit for bit, at any number of BLAS threads.
    """
    blocks = scan.steering.reshape(len(scan.steering), -1, BLOCK)  # a view, no copy
    marked = np.zeros(blocks.shape[1], dtype=bool)
    starts = np.flatnonzero(cells) * scan.stride
    # each window's end blocks (cell 0's -1 marks the last block, taken anyway)
    marked[np.concatenate((starts - 1, starts + scan.stride + 1)) // BLOCK] = True
    marked[len(cells) * scan.stride // BLOCK :] = True
    taken = np.flatnonzero(marked)
    index = (taken[:, None] * BLOCK + np.arange(BLOCK)).ravel()
    steering = np.take(blocks, taken, axis=1).reshape(len(blocks), -1)
    return index, Spectrum(grid=scan.grid[index], values=_product(_surface(sums, steering)))


def _coarse_cells(sub: SubspacePair, scan: Scan) -> tuple[np.ndarray, ...]:
    """Coarse surface; per coarse cell, the rise of ``Q``, whether it can turn, its least value.

    ``sub`` has axes (trial, module); every result has a row per trial.
    """
    coarse = _product(pseudospectrum(sub, scan.coarse_grid, scan.coarse_steering).values)
    q = 1.0 / (coarse * coarse)
    u = sub.noise.shape[-3] * scan.harmonic_step
    bend = (u * u + u * scan.coarse_step) / 2.0  # M * h**2
    rise = q[..., 1:] - q[..., :-1]
    turning = np.abs(rise) <= bend / 2.0 + BOUND_MARGIN
    least = np.minimum(q[..., 1:], q[..., :-1]) - (bend / 8.0 + BOUND_MARGIN)
    return coarse, rise, turning, least


def pick_chunk(sub: SubspacePair, scan: Scan, num_peaks: int) -> list:
    """Peaks of each trial's MUSIC surface, one module's or two modules' fused surface.

    ``sub`` has axes (trial, module); the result holds one outcome per
    trial, its peaks or the :class:`~elaa_doa.errors.EstimationError` that
    ends it (:class:`~elaa_doa.errors.NonFiniteSnapshot`,
    :class:`UnderResolved`).  The coarse scan and its cell tests run once
    for the whole chunk.  Each trial then gets one fine pass over the
    cells it chose (:func:`_fine_surface`) and one :func:`peak_pick`
    floored at its coarse pick; only a trial whose floored pick falls
    short gets a second pass, over every cell that can turn, and an
    unfloored pick.

    Each trial is picked as :func:`peak_pick` on the whole grid would,
    bit for bit, evaluating only part of it.  The coarse surface's last
    bits may vary with the number of BLAS threads; they only choose the
    cells and the floor, and the fine values the pick reads are the whole
    grid's (:func:`_fine_surface`).  ``Q = values**-2`` is the product of
    ``L`` normalised nulls ``a^H P a / n``, each a trigonometric
    polynomial of degree ``n - 1`` in ``w = k*d*sin(angle)`` with values in
    [0, 1].
    Bernstein's inequality on ``Q - 1/2``, of degree ``N = L*(n - 1)``,
    bounds ``|dQ/dw|`` by ``N/2`` and ``|d2Q/dw2|`` by ``N**2/2``, so
    ``|d2Q/dangle2| <= M = (N**2*(k*d)**2 + N*k*d) / 2``.  On a coarse cell
    of width ``h``, ends that differ by more than ``M*h**2/2`` leave no
    turning point, and no sample reaches a height ``T`` unless
    ``min(ends) - M*h**2/8 <= 1/T**2``.

    The fine grid is evaluated on the cells that pass both tests, each
    widened by a sample either way so that a maximum on a coarse sample
    has both neighbours, and on the partial cell past the last coarse
    sample.  With ``T`` the ``num_peaks``-th greedy pick among the coarse
    maxima, the fine maxima of height ``T`` or more are the whole grid's,
    and a greedy pick depends only on the maxima at or above it, so the
    pick floored at ``T`` is the whole grid's; if it gives fewer than
    ``num_peaks`` picks, or the coarse maxima do, every cell that can turn
    is evaluated and the pick has no floor.

    Both tests carry ``BOUND_MARGIN`` for rounding (1.2e-15 in ``Q`` per
    module against a long-double evaluation) and the 1e-24 floor: rounding
    turns a monotone run over only where the slope is below it, which the
    turning test admits with ``2*(stride + 1)`` times the rounding.  The
    margin is negligible against ``M*h**2/8`` (3e-5 for one module on a
    0.05 degree cell).
    """
    coarse, rise, turning, least = _coarse_cells(sub, scan)
    maxima = (rise[:, :-1] < 0.0) & (rise[:, 1:] > 0.0)  # of the inner coarse samples
    distance = _peak_distance(scan.coarse_grid)
    sums = sub.projector_sums
    out = sub.failures()
    for t, failure in enumerate(out):
        if failure is not None:
            continue
        top = np.flatnonzero(maxima[t]) + 1
        keep = _greedy(coarse[t, top], top, distance, num_peaks)
        passes = [(turning[t], 0.0)]  # every cell that can turn, with no floor
        if len(keep) == num_peaks:
            floor = float(coarse[t, top[keep[-1]]])
            passes.insert(0, (turning[t] & (least[t] <= 1.0 / (floor * floor)), floor))
        for cells, floor in passes:
            index, spectrum = _fine_surface(sums[t], scan, cells)
            try:
                out[t] = peak_pick(spectrum, num_peaks, index=index, floor=floor)
                break
            except UnderResolved as exc:
                out[t] = exc
    return out


def fused_spectrum(y: np.ndarray, cfg: ArrayConfig, num_sources: int) -> Spectrum:
    """The fused MUSIC pseudospectrum of a snapshot's two sub-arrays on the whole grid."""
    sub, scan = module_subspace(np.stack(split_ulas(y)), cfg, num_sources)
    for failure in sub.failures():
        unwrap(failure)
    values = pseudospectrum(sub, scan.grid, scan.steering).values
    return Spectrum(grid=scan.grid, values=_product(values))


def music_chunk(
    ys: np.ndarray, cfg: ArrayConfig, num_sources: int, ula: int | None = None
) -> list:
    """Far-field DOAs of a chunk of snapshots, radians, tallest peak first.

    ``ys`` holds one observation per row.  Returns one outcome per
    trial, as :func:`pick_chunk`.  ``ula=1`` or ``ula=2`` scans a single
    sub-array instead of fusing both, which is the narrow-aperture
    baseline the sparse array improves upon.
    """
    if ula not in (None, 1, 2):
        raise ValueError("ula must be None, 1 or 2")
    halves = np.stack(split_ulas(np.asarray(ys)), axis=-2)
    modules = halves if ula is None else halves[..., ula - 1 : ula, :]
    sub, scan = module_subspace(modules, cfg, num_sources)
    return pick_chunk(sub, scan, num_sources)


def estimate_doa_music(
    y: np.ndarray, cfg: ArrayConfig, num_sources: int, ula: int | None = None
) -> np.ndarray:
    """Far-field DOAs from one observation ``y``, radians, tallest peak first.

    The one-trial case of :func:`music_chunk`; a failure is raised.
    """
    return unwrap(music_chunk(np.asarray(y)[None], cfg, num_sources, ula)[0])
